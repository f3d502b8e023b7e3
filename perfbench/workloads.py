"""Workload definitions: the synthetic scene, the mode and the query metadata.

Every workload uses the same 20 000-point, 60-camera street generator
(1600x1200 images, 800 px focal, 1 px noise, 35 degree view cones) and
differs in outlier share, depth cut-off, mode and which queries carry a
focal length.  ``n_queries`` is fixed per workload because the generator
places the query cameras on a ring whose spacing depends on it.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENERATOR_ARGS = dict(n_points=20000, n_cameras=60, image_size=(1600, 1200),
                      focal_px=800.0, noise_px=1.0, view_cone_deg=35.0)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                 # "basic" or "advanced"
    outlier_fraction: float
    max_depth: float
    n_queries: int
    drop_focal_every_other: bool = False
    extra_flags: tuple = ()   # sfmloc flags beyond the defaults
    why: str = ""

    def cli_args(self, scene_dir, out_dir, seed: int) -> list:
        """The ``sfmloc`` command line that localizes every query of the scene."""
        scene = Path(scene_dir)
        return ["--model", str(scene / "model.out"),
                "--keys", str(scene / "keys"),
                "--list", str(scene / "query_list.txt"), "--out", str(out_dir),
                "--mode", self.mode, "--query", "all", "--seed", str(seed),
                *self.extra_flags]

    def run_config(self, scene_dir, out_dir, seed: int):
        """``cli_args`` parsed by the CLI into its ``RunConfig``."""
        from sfmloc import cli

        args = cli.build_arg_parser().parse_args(
            self.cli_args(scene_dir, out_dir, seed))
        return cli.config_from_args(args)


WORKLOADS = {w.name: w for w in (
    Workload("street-basic", "basic", 0.5, 220.0, 8,
             why="basic mode, focal known: forward 2-NN matching is most "
                 "of the query time"),
    Workload("street-advanced", "advanced", 0.5, 220.0, 4,
             drop_focal_every_other=True,
             why="advanced mode, focal missing on every other query: "
                 "co-occurrence sampler, P3P and P4Pf, no backmatching"),
    # Not in BENCHMARK.json: its query times swing too far with the load
    # on a shared host to hold a 25% bound (README.md).  It stays for the
    # per-layer backmatching figures of --trace 1 and --workload all.
    # With CLI defaults only about 1 query in 11 backmatches, so a run
    # often had none; at max_depth 120 a query took 6-10 s and too few fit
    # in a run to be steady.  README.md gives the measurements.  With these
    # flags phase one would have to fit every match to skip backmatching,
    # so backmatching and phase two run on every query.
    Workload("outlier-advanced", "advanced", 0.9, 90.0, 8,
             extra_flags=("--skip-count", "1000000000", "--skip-fraction", "1"),
             why="advanced mode, 90% outliers, backmatching on every query: "
                 "sampler and backmatching dominate, single-point index queries"),
)}


def derive_seeds(seed: int) -> tuple[int, int]:
    """(scene seed, base RANSAC seed) derived from the benchmark seed.

    Query ``qi`` of the scene gets RANSAC seed ``base + qi``, as with
    ``sfmloc --seed base``.
    """
    scene_seed, ransac_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(scene_seed) % 2**31, int(ransac_seed) % 2**31


def generate_scene_dir(workload: Workload, scene_seed: int, out_dir,
                       **generator_overrides) -> None:
    """Write the workload's scene directory (model, lists, meta, keyfiles).

    ``generator_overrides`` replace entries of GENERATOR_ARGS; the tests
    use them for small scenes.
    """
    # imported here so run.py can load this module, and report missing
    # sources, before src/ is on the path
    from sfmloc.benchmark import generate_synthetic_scene, write_scene_dir

    scene = generate_synthetic_scene(
        **{**GENERATOR_ARGS, **generator_overrides},
        outlier_fraction=workload.outlier_fraction,
        max_depth=workload.max_depth, n_queries=workload.n_queries,
        seed=scene_seed)
    write_scene_dir(scene, out_dir)
    if workload.drop_focal_every_other:
        meta = Path(out_dir) / "meta.txt"
        lines = meta.read_text().splitlines()
        # odd queries lose their focal column, as photos without EXIF do
        kept = [" ".join(line.split()[:3]) if qi % 2 else line
                for qi, line in enumerate(lines)]
        meta.write_text("\n".join(kept) + "\n")
