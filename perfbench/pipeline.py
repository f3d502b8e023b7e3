"""The localization steps of ``sfmloc.cli.run``, in its order.

Both steps take the CLI's own ``RunConfig``, parsed from the same flags
``sfmloc`` accepts, and read meta.txt and query keyfiles with the CLI's
helpers.  Library functions are looked up on their modules at call
time, so the tracer in ``tracing.py`` sees every call once it has
rebound them.  ``span`` is the tracer's span factory, or a no-op for
untraced runs.
"""

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sfmloc import benchmark, cli, descriptor_index, sfm_data, viz_export
from sfmloc import minimal_solvers, ransac_advanced, ransac_basic
from sfmloc.errors import InsufficientMatches, NoSolution
from sfmloc.minimal_solvers import Pose


def _no_span(name):
    return nullcontext()


@dataclass
class Prepared:
    """Everything the per-query steps read, built once per set-up."""

    config: cli.RunConfig
    info: sfm_data.SfmModel
    index: descriptor_index.DescriptorIndex
    visibilities: tuple
    golden: dict          # query name -> internal-convention Pose
    query_names: list
    meta: dict            # query name -> (width, height, focal or None)
    db_keyfile_bytes: int


@dataclass
class QueryRow:
    """Outcome of one query: a pose with its error, or a typed failure."""

    name: str
    seconds: float
    pose: Pose | None
    error: benchmark.PoseError | None
    iterations: int
    used_backmatching: bool
    failure: str | None

    def same_outcome(self, other: "QueryRow") -> bool:
        """Identical pose, iterations, backmatching and failure."""
        if (self.iterations, self.used_backmatching, self.failure) != \
                (other.iterations, other.used_backmatching, other.failure):
            return False
        if self.pose is None or other.pose is None:
            return self.pose is other.pose
        return (np.array_equal(self.pose.rotation, other.pose.rotation)
                and np.array_equal(self.pose.center, other.pose.center)
                and self.pose.focal_px == other.pose.focal_px)


def prepare(config: cli.RunConfig) -> Prepared:
    """Load model and keyfiles, average descriptors, index, write mesh.ply."""
    with open(config.model_path) as fh:
        full = sfm_data.parse_bundle(fh)
    with open(config.camera_list_path) as fh:
        camera_names = sfm_data.parse_image_list(fh)
    with open(config.query_list_path) as fh:
        query_names = sfm_data.parse_image_list(fh)
    info, golden_records = sfm_data.split_golden(full, query_names, camera_names)

    info_names = [n for n in camera_names if n not in golden_records]
    db_bytes = 0

    def keyfile_for_camera(cam_idx):
        nonlocal db_bytes
        path = config.keyfile_dir / (Path(info_names[cam_idx]).stem + ".key")
        db_bytes += path.stat().st_size
        with open(path) as fh:
            feats = sfm_data.parse_keyfile(fh)
        return np.array([f.descriptor for f in feats], dtype=float) \
            .reshape(-1, 128)

    info = sfm_data.build_mean_descriptors(info, keyfile_for_camera)
    index = descriptor_index.build_index(info.mean_descriptors.astype(float))
    visibilities = info.visibilities
    golden = {name: minimal_solvers.bundler_to_internal(rec)
              for name, rec in golden_records.items()}
    meta = cli._load_meta(config.meta_path)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    viz_export.export_ply(info, config.output_dir / "mesh.ply")
    return Prepared(config, info, index, visibilities, golden, query_names,
                    meta, db_bytes)


def localize(prep: Prepared, qi: int, span=_no_span) -> QueryRow:
    """Query ``qi`` from its keyfile to the exported pose, then its error.

    Query ``qi`` gets RANSAC seed ``config.seed + qi``, as in ``cli.run``.
    """
    config = prep.config
    name = prep.query_names[qi]
    seed = None if config.seed is None else config.seed + qi
    ratio = config.ratio if config.ratio is not None else (
        benchmark.GOOD_RATIO_BASIC if config.mode == "basic"
        else benchmark.GOOD_RATIO_ADVANCED)
    start = time.perf_counter()
    with span("query"):
        query = cli._load_query_image(config, name, prep.meta)
        try:
            good = descriptor_index.find_good_matches(
                prep.index, query, ratio, prep.visibilities,
                prep.info.positions)
            if config.mode == "basic":
                est = ransac_basic.estimate_pose_basic(
                    query, good, prep.info,
                    replace(config.basic, rng_seed=seed),
                    solver=config.solver_override)
            else:
                est = ransac_advanced.estimate_pose_advanced(
                    query, good, prep.info,
                    replace(config.advanced, rng_seed=seed),
                    config.backmatch, solver=config.solver_override)
        except (NoSolution, InsufficientMatches) as exc:
            return QueryRow(name, time.perf_counter() - start, None, None, 0,
                            False, type(exc).__name__)
        viz_export.export_query_bundle(
            est.pose, query, est.fitted, prep.info,
            config.output_dir / Path(name).stem, image_source=None,
            write_mesh=False, mesh_filename="../mesh.ply")
    seconds = time.perf_counter() - start
    return QueryRow(name, seconds, est.pose,
                    benchmark.pose_error(est.pose, prep.golden[name]),
                    est.iterations_used, est.used_backmatching, None)
