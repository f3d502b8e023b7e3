"""Command-line runtime: load, split, index, estimate, export, report.

Expected dataset layout (see the scene-directory writer in the
benchmark module, which produces exactly this):

    model.out        bundler v0.3 text
    list.txt         image names aligned with the model's cameras
    query_list.txt   names of the images to localize
    meta.txt         per query: name width height [focal_px], sizes
                     in 1..65535 (JPEG's limit)
    keys/<stem>.key  one keyfile per image

All pipeline parameters are flags; an unset flag takes the type,
default and choices of the params field it sets.  The params classes
(``ransac_basic.Params``) check every setting through
``errors.check_setting``, as --ratio and --seed do, before any prompt,
naming a refused class and field (``BackmatchParams.ratio``).  An
argument ``@FILE`` reads flags from FILE as if typed in its place, split
like a shell line with ``#`` starting a comment (``--mode advanced  #
with backmatching``), and a later flag overrides them.  Interactive prompts happen only when
mode/query are missing and a terminal is attached.

Exit status: 0 when every query is localized, 1 when at least one
query row failed, 2 when the run could not be set up (a bad flag or
setting, refused before any file is read, or an OSError or
LocalizationError before the queries run, printed as
``error: <Type>: <message>``).
"""

import argparse
import shlex
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .benchmark import (
    GOOD_RATIO_ADVANCED,
    GOOD_RATIO_BASIC,
    MODES,
    QueryResult,
    localize,
    report_from_rows,
    write_report,
)
from .descriptor_index import (
    build_index,
    descriptor_source_key,
    load_index_cache,
    save_index_cache,
)
from .errors import (InvalidParams, LocalizationError, MalformedMetadata, UnknownQuery,
                     check_setting)
from .minimal_solvers import bundler_to_internal
from .ransac_advanced import AdvancedParams, BackmatchParams
from .ransac_basic import SOLVERS, BasicParams
from .sfm_data import (
    QueryImage,
    build_mean_descriptors,
    parse_bundle,
    parse_image_list,
    parse_keyfile,
    split_golden,
)
from .viz_export import MESH_NAME, export_ply, export_query_bundle

# the largest width or height meta.txt accepts: JPEG's limit
MAX_IMAGE_SIZE = 65535

_BASIC, _ADVANCED, _BACKMATCH = (BasicParams,), (AdvancedParams,), (BackmatchParams,)
_BOTH = _BASIC + _ADVANCED

# flag, the params classes whose field it sets, help; the field is the flag
# without "backmatch-", whose type, default and choices the flag takes
_PARAM_FLAGS = [
    ("max-iterations", _BASIC, "basic: RANSAC iteration cap"),
    ("stop-fraction", _BASIC, "basic: fitted fraction that stops RANSAC"),
    ("stop-count", _BASIC, "basic: fitted count that stops RANSAC"),
    ("iterations-per-phase", _ADVANCED, "advanced: iterations per phase"),
    ("skip-fraction", _ADVANCED, "advanced: fitted fraction that skips backmatching"),
    ("skip-count", _ADVANCED, "advanced: fitted count that skips backmatching"),
    ("k-sigmoid", _ADVANCED, "advanced: sigmoid scale of the co-occurrence prior"),
    ("dead-end-limit", _ADVANCED, "advanced: zero intersections before restart"),
    ("min-seed-cameras", _ADVANCED, "advanced: camera count required of the first point"),
    ("max-restarts", _ADVANCED, "advanced: restart cap of the sampler"),
    ("inlier-threshold", _BOTH, "inlier distance threshold"),
    ("min-fitted", _BOTH, "fitted matches a candidate needs to count"),
    ("inlier-metric", _BOTH, "fitted-match test"),
    ("target-backmatches", _BACKMATCH, "backmatching: matches to achieve"),
    ("backmatch-ratio", _BACKMATCH, "backmatching: ratio-test value"),
    ("priority-booster", _BACKMATCH, "backmatching: priority boost of good matches"),
    ("backmatch-pool", _BACKMATCH, "backmatching: candidate points"),
    ("pop-cap-factor", _BACKMATCH, "backmatching: queue pops per target match"),
]


def _field(flag: str) -> str:
    return flag.removeprefix("backmatch-").replace("-", "_")


@dataclass
class RunConfig:
    """Validated settings of one CLI run."""

    model_path: Path
    keyfile_dir: Path
    query_list_path: Path
    camera_list_path: Path
    meta_path: Path
    output_dir: Path
    mode: str
    query_selector: str
    solver_override: str = "auto"
    seed: int | None = None
    benchmark: bool = False
    cache_path: Path | None = None
    ratio: float | None = None
    basic: BasicParams = BasicParams()
    advanced: AdvancedParams = AdvancedParams()
    backmatch: BackmatchParams = BackmatchParams()


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sfmloc", fromfile_prefix_chars="@",
        description="Localize query photographs in an SfM point cloud.",
        epilog="@FILE reads flags from FILE ('#' starts a comment); "
               "later flags override it.  The params classes check every "
               "setting; a bad one exits 2 before any file is read.  Exit "
               "status: 0 all queries localized, 1 some query failed, 2 "
               "the run could not be set up.")

    def file_line_args(line):
        try:
            return shlex.split(line, comments=True)
        except ValueError as exc:  # an unclosed quote
            p.error(f"{exc} in {line.strip()!r}")
    p.convert_arg_line_to_args = file_line_args
    p.add_argument("--model", required=True,
                   help="bundler model file (model.out)")
    p.add_argument("--keys", required=True, help="directory with .key files")
    p.add_argument("--list", dest="query_list", required=True,
                   help="query image list file")
    p.add_argument("--camera-list",
                   help="image list aligned with the model's cameras "
                        "(default: list.txt next to the model)")
    p.add_argument("--meta",
                   help="query metadata table, which must exist: name width "
                        "height [focal_px] (default: meta.txt next to the model)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--query", help="'all' or one query image name")
    p.add_argument("--solver", choices=SOLVERS, default=RunConfig.solver_override)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--benchmark", action="store_true",
                   help="also write benchmark CSVs against golden poses")
    p.add_argument("--cache-index", help="descriptor cache file (npz)")
    p.add_argument("--ratio", type=float, default=RunConfig.ratio,
                   help=f"good-match ratio (default {GOOD_RATIO_BASIC} basic "
                        f"/ {GOOD_RATIO_ADVANCED} advanced)")
    for flag, classes, help_text in _PARAM_FLAGS:
        spec = next(f for f in fields(classes[0]) if f.name == _field(flag))
        p.add_argument(f"--{flag}", type=type(spec.default), default=spec.default,
                       choices=spec.metadata.get("choices"),
                       help=f"{help_text} (default %(default)s)")
    return p


def _params(cls, args):
    """``cls`` with every field that a flag sets taken from ``args``."""
    return cls(**{_field(flag): getattr(args, flag.replace("-", "_"))
                  for flag, classes, _ in _PARAM_FLAGS if cls in classes})


def config_from_args(args) -> RunConfig:
    """The run args describe, asking on a terminal for a missing mode or
    query; InvalidParams, raised before asking, names a refused setting."""
    basic, advanced, backmatch = (
        _params(cls, args) for cls in (BasicParams, AdvancedParams, BackmatchParams))
    check_setting("RunConfig.seed", args.seed, int | None)  # rng_seed's rule
    check_setting("RunConfig.ratio", args.ratio, float | None, ratio=True)
    mode, query = args.mode, args.query
    if (mode is None or query is None) and sys.stdin.isatty():
        if mode is None:
            mode = input(f"mode [{'/'.join(MODES)}]: ").strip()
        if query is None:
            query = input("query image name (or 'all'): ").strip()
    check_setting("RunConfig.mode", mode, str, choices=MODES)
    if not query:
        raise InvalidParams("no query selected")

    model_path = Path(args.model)
    return RunConfig(
        model_path=model_path,
        keyfile_dir=Path(args.keys),
        query_list_path=Path(args.query_list),
        camera_list_path=Path(args.camera_list or model_path.parent / "list.txt"),
        meta_path=Path(args.meta or model_path.parent / "meta.txt"),
        output_dir=Path(args.out),
        mode=mode,
        query_selector=query,
        solver_override=args.solver,
        seed=args.seed,
        benchmark=args.benchmark,
        cache_path=Path(args.cache_index) if args.cache_index else None,
        ratio=args.ratio, basic=basic, advanced=advanced, backmatch=backmatch)


def _load_meta(path) -> dict:
    """name -> (width, height, focal_px or None).

    Raises OSError when the file cannot be read (FileNotFoundError when
    it is missing), and MalformedMetadata, naming the file and line, for
    a line that is not ``name width height [focal_px]`` with a width and
    height in 1..65535 (JPEG's limit; the export names the photo
    camera.jpg) and, when given, a finite positive focal, or naming the
    file for a byte that cannot be decoded.
    """
    meta = {}
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise MalformedMetadata(f"{path}: unreadable text: {exc}") from None
        for lineno, line in enumerate(lines, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                focal = float(parts[3]) if len(parts) > 3 else None
                width, height = int(parts[1]), int(parts[2])
                if not (0 < width <= MAX_IMAGE_SIZE and 0 < height <= MAX_IMAGE_SIZE
                        and (focal is None or 0 < focal < np.inf)):
                    raise ValueError
            except (IndexError, ValueError):
                raise MalformedMetadata(
                    f"{path}:{lineno}: expected 'name width height "
                    f"[focal_px]' with sizes in 1..{MAX_IMAGE_SIZE} and a finite "
                    f"positive focal, got {line.strip()!r}") from None
            meta[parts[0]] = (width, height, focal)
    return meta


def _keyfile_path(config: RunConfig, name: str) -> Path:
    return config.keyfile_dir / (Path(name).stem + ".key")


def _load_query_image(config: RunConfig, name: str, meta: dict) -> QueryImage:
    with open(_keyfile_path(config, name)) as fh:
        features = parse_keyfile(fh)
    if name not in meta:
        raise MalformedMetadata(
            f"no metadata (width height [focal]) for {name!r}")
    width, height, focal = meta[name]
    xy = features.xy
    in_bounds = ((xy >= 0) & (xy < (width, height))).all(axis=1)
    return QueryImage(name=name, width=width, height=height,
                      features=features[in_bounds], exif_focal_px=focal)


def run(config: RunConfig) -> int:
    """Execute one localization run; returns 0, or 1 when a query failed.

    An input that cannot be read or parsed before the queries run raises
    OSError or LocalizationError; a query's own failure is its row's.
    """
    meta = _load_meta(config.meta_path)

    t0 = time.perf_counter()
    with open(config.model_path) as fh:
        full = parse_bundle(fh)
    with open(config.camera_list_path) as fh:
        camera_names = parse_image_list(fh)
    with open(config.query_list_path) as fh:
        query_names = parse_image_list(fh)
    if config.query_selector != "all":
        if config.query_selector not in query_names:
            raise UnknownQuery(
                f"query {config.query_selector!r} not in the query list")
        query_names = [config.query_selector]

    info, golden_records = split_golden(full, query_names, camera_names)
    load_seconds = time.perf_counter() - t0
    print(f"loaded {full.num_points} points, {full.num_cameras} cameras "
          f"in {load_seconds:.2f}s; info model keeps {info.num_points} points")
    del full  # the queries read the info model, which holds its own arrays

    info_names = [n for n in camera_names if n not in golden_records]
    descriptors = None
    if config.cache_path is not None:
        # the keyfiles that averaging reads: cameras with a track entry
        cache_key = descriptor_source_key(
            info, [_keyfile_path(config, info_names[c])
                   for c in np.unique(info.track_cams)])
        descriptors = load_index_cache(config.cache_path, cache_key)
    if descriptors is None:
        def keyfile_for_camera(cam_idx):
            with open(_keyfile_path(config, info_names[cam_idx])) as fh:
                return parse_keyfile(fh).descriptor
        info = build_mean_descriptors(info, keyfile_for_camera)
        if config.cache_path is not None:
            save_index_cache(config.cache_path, info.mean_descriptors, cache_key)
    else:
        info = info.with_mean_descriptors(descriptors)

    index = build_index(info.mean_descriptors)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    export_ply(info, out / MESH_NAME)

    def one(task):
        qi, name = task
        try:
            query = _load_query_image(config, name, meta)
        except (OSError, LocalizationError) as exc:
            print(f"[{name}] FAILED {type(exc).__name__}: {exc}")
            return QueryResult(name, None, 0.0, False, 0,
                               failure=type(exc).__name__)
        est, row = localize(
            query, bundler_to_internal(golden_records[name]), index, info,
            config.mode, config.basic, config.advanced, config.backmatch,
            seed=None if config.seed is None else config.seed + qi,
            ratio=config.ratio, solver=config.solver_override)
        if est is None:
            print(f"[{name}] FAILED {row.failure}")
            return row

        image_source = None
        for candidate in (Path(name), config.model_path.parent / name):
            if candidate.is_file():
                image_source = candidate
                break
        export_query_bundle(est.pose, query, est.fitted, info,
                            out / Path(name).stem, image_source=image_source,
                            write_mesh=False, mesh_filename=f"../{MESH_NAME}")
        print(f"[{name}] q={est.quality.q:.3f} fitted={len(est.fitted)} "
              f"iters={est.iterations_used} "
              f"backmatching={est.used_backmatching} "
              f"err={row.error.translation:.3f} ({row.seconds:.2f}s)")
        return row

    rows = [one(task) for task in enumerate(query_names)]

    if config.benchmark:
        report = report_from_rows(rows)
        write_report(report, out)
        print(f"benchmark: median translation error "
              f"{report.median_translation}, "
              f"{report.n_failed} failed, load excluded ({load_seconds:.2f}s)")

    return 0 if all(r.failure is None for r in rows) else 1


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except UnicodeDecodeError as exc:  # an @FILE that is not text
        parser.error(f"unreadable settings file: {exc}")
    try:
        return run(config_from_args(args))
    except (OSError, LocalizationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
