"""Pose-error metrics, the per-query pipeline, benchmark reports and the
synthetic-scene oracle.

The synthetic scene builds a point cloud inside a box, database cameras
on a surrounding ring and query cameras with known golden poses.
Descriptors are well-separated random vectors with small per-view
perturbations, so descriptor matching has an unambiguous ground truth
and a labeled fraction of spurious features can be injected.  This is
what makes the whole pipeline verifiable without a city-scale dataset.
"""

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .descriptor_index import find_good_matches
from .errors import InsufficientMatches, InvalidParams, NoSolution
from .minimal_solvers import Pose, denormalize_points, internal_to_bundler
from .ransac_advanced import AdvancedParams, BackmatchParams, estimate_pose_advanced
from .ransac_basic import BasicParams, check_setting, estimate_pose_basic
from .sfm_data import (CameraRecord, QueryImage, SfmModel, build_mean_descriptors,
                       keyfile_records, split_golden, write_bundle,
                       write_keyfile)

# the pipelines localize runs
MODES = ("basic", "advanced")
GOOD_RATIO_BASIC = 0.7
GOOD_RATIO_ADVANCED = 0.9
WRONG_POSE_THRESHOLD = 30.0
FOCAL_SPLIT_PX = 1000.0

TIME_BINS = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, np.inf]
L2_BINS = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, np.inf]
FOCAL_BINS = [0.0, 10.0, 50.0, 100.0, 500.0, 1000.0, np.inf]


@dataclass(frozen=True)
class PoseError:
    """Deviation of an estimated pose from its golden reference."""

    rotation_deg: float
    translation: float
    focal_px_delta: float
    rotation_frob: float = 0.0


@dataclass
class QueryResult:
    """One benchmark row."""

    name: str
    error: PoseError | None
    seconds: float
    used_backmatching: bool
    iterations: int
    failure: str | None = None


@dataclass
class BenchmarkReport:
    """Per-query rows plus the aggregates recomputable from them."""

    per_query: list
    median_translation: float | None
    mean_translation: float | None
    frac_under_half_unit: float | None
    wrong_pose_count: int
    n_failed: int
    histogram_time: list
    histogram_l2: list
    histogram_focal: list
    focal_split: dict


@dataclass
class SyntheticScene:
    """A fully known miniature dataset for desk-scale verification."""

    model: SfmModel
    queries: list  # (QueryImage, golden Pose) pairs
    noise_px: float
    outlier_fraction: float
    outlier_labels: list
    db_keyfiles: list  # one KEYFILE_DTYPE record array per database camera
    db_names: list
    image_size: tuple
    focal_px: float


def pose_error(estimate: Pose, golden: Pose) -> PoseError:
    """Rotation angle, camera-center distance and focal deviation."""
    rel = estimate.rotation @ golden.rotation.T
    cosang = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
    # the antisymmetric part carries sin(angle); atan2 keeps precision
    # for tiny angles where arccos alone loses half the digits
    axis = 0.5 * np.array([rel[2, 1] - rel[1, 2],
                           rel[0, 2] - rel[2, 0],
                           rel[1, 0] - rel[0, 1]])
    rotation_deg = float(np.degrees(np.arctan2(np.linalg.norm(axis), cosang)))
    translation = float(np.linalg.norm(estimate.center - golden.center))
    if estimate.focal_px is None or golden.focal_px is None:
        focal_delta = 0.0
    else:
        focal_delta = float(abs(estimate.focal_px - golden.focal_px))
    frob = float(np.linalg.norm(estimate.rotation - golden.rotation))
    return PoseError(rotation_deg=rotation_deg, translation=translation,
                     focal_px_delta=focal_delta, rotation_frob=frob)


def _look_at_rotation(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation looking from center to target, +Y-ish up."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up_hint = np.array([0.0, 1.0, 0.0])
    if abs(forward @ up_hint) > 0.99:
        up_hint = np.array([1.0, 0.0, 0.0])
    right = np.cross(up_hint, forward)
    right = right / np.linalg.norm(right)
    up = np.cross(forward, right)
    return np.vstack([right, up, forward])


def _outlier_count(n_true: int, fraction: float) -> int:
    """Smallest n_out with n_out == round(fraction * (n_true + n_out))."""
    if fraction <= 0.0:
        return 0
    guess = int(np.floor(fraction * n_true / (1.0 - fraction) + 0.5))
    for n_out in (guess, guess + 1, guess - 1, guess + 2):
        if n_out >= 0 and int(np.floor(fraction * (n_true + n_out) + 0.5)) == n_out:
            return n_out
    return max(guess, 0)


def generate_synthetic_scene(n_points: int, n_cameras: int, image_size=(800, 600),
                             focal_px: float = 400.0, noise_px: float = 0.0,
                             outlier_fraction: float = 0.0, seed: int = 0,
                             n_queries: int = 10,
                             descriptor_noise: float = 2.0,
                             ring_radius: float = 150.0,
                             view_cone_deg: float | None = None,
                             max_depth: float | None = None) -> SyntheticScene:
    """Build a deterministic synthetic scene with known golden poses.

    Points fill a city-block-like slab (500 units across, 60 tall),
    database cameras sit on a ring of radius ring_radius looking at the
    origin and per-camera visibility comes from a frustum test; the
    scale puts the default 0.5-unit inlier threshold in the same tight
    regime it has on city-scale data.  With view_cone_deg set, each
    point additionally gets a random facing direction and is only
    visible from cameras within that cone, which thins visibility sets
    the way real facade points behave.  Query features are exact
    projections plus Gaussian pixel noise; outlier features get a
    random image position and the descriptor of an unrelated point so
    they survive the ratio test as genuinely wrong matches.
    """
    if n_points < 10 or n_cameras < 2:
        raise InvalidParams("need at least 10 points and 2 cameras")
    if not 0.0 <= outlier_fraction < 1.0:
        raise InvalidParams("outlier_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    width, height = image_size

    positions = np.column_stack([rng.uniform(-250.0, 250.0, n_points),
                                 rng.uniform(-30.0, 30.0, n_points),
                                 rng.uniform(-250.0, 250.0, n_points)])
    colors = rng.integers(0, 256, size=(n_points, 3)).astype(np.uint8)
    base_desc = rng.integers(0, 256, size=(n_points, 128)).astype(float)
    if view_cone_deg is not None:
        azimuth = rng.uniform(0.0, 2.0 * np.pi, size=n_points)
        normals = np.column_stack([np.cos(azimuth),
                                   np.zeros(n_points),
                                   np.sin(azimuth)])
        cos_cone = np.cos(np.radians(view_cone_deg))

    def perturbed(idx):
        noisy = base_desc[idx] + rng.normal(0.0, descriptor_noise,
                                            size=(len(idx), 128))
        return np.clip(np.floor(noisy + 0.5), 0, 255).astype(np.uint8)

    def camera_ring(count, radius, angle0):
        cams = []
        for i in range(count):
            ang = angle0 + 2.0 * np.pi * i / count
            center = np.array([radius * np.cos(ang),
                               rng.uniform(-20.0, 20.0),
                               radius * np.sin(ang)])
            cams.append(Pose(_look_at_rotation(center, np.zeros(3)),
                             center, focal_px))
        return cams

    db_poses = camera_ring(n_cameras, ring_radius, 0.0)
    query_poses = camera_ring(n_queries, ring_radius - 10.0,
                              np.pi / max(n_cameras, 1))

    def project_visible(pose):
        pc = pose.world_to_camera(positions)
        depth = pc[:, 2]
        safe = np.where(depth > 0, depth, 1.0)
        proj = focal_px * pc[:, :2] / safe[:, None]
        pix = denormalize_points(proj, width, height)
        ok = (depth > 5.0) & (pix[:, 0] >= 1) & (pix[:, 0] < width - 1) \
            & (pix[:, 1] >= 1) & (pix[:, 1] < height - 1)
        if max_depth is not None:
            ok &= depth < max_depth
        if view_cone_deg is not None:
            to_cam = pose.center - positions
            to_cam = to_cam / np.linalg.norm(to_cam, axis=1, keepdims=True)
            ok &= np.einsum("ij,ij->i", to_cam, normals) > cos_cone
        return ok, pix, proj

    # database cameras: visibility, keyfiles and view-list entries
    n_db = len(db_poses)
    db_keyfiles, db_points, db_xy = [], [], []
    for pose in db_poses:
        ok, pix, proj = project_visible(pose)
        vis_idx = np.flatnonzero(ok)
        db_keyfiles.append(keyfile_records(pix[vis_idx], perturbed(vis_idx),
                                           scale=2.0))
        db_points.append(vis_idx)
        db_xy.append(proj[vis_idx])
    db_cams = np.concatenate([np.full(len(p), c) for c, p in enumerate(db_points)])
    db_keys = np.concatenate([np.arange(len(p)) for p in db_points])
    db_points = np.concatenate(db_points)
    db_xy = np.concatenate(db_xy)

    # some points may be behind every camera; keep only observed points
    observed = np.bincount(db_points, minlength=n_points) > 0
    positions = positions[observed]
    colors = colors[observed]
    base_desc = base_desc[observed]
    if view_cone_deg is not None:
        normals = normals[observed]
    n_kept = len(positions)
    db_points = (np.cumsum(observed) - 1)[db_points]  # renumber to kept points

    # queries: exact projections + noise, plus labeled outliers
    queries = []
    outlier_labels = []
    q_cams, q_points, q_keys, q_xy = [], [], [], []
    for qi, pose in enumerate(query_poses):
        ok, pix, _ = project_visible(pose)
        noisy = pix + rng.normal(0.0, noise_px, size=pix.shape) if noise_px > 0 else pix
        ok = ok & (noisy[:, 0] >= 0) & (noisy[:, 0] < width) \
            & (noisy[:, 1] >= 0) & (noisy[:, 1] < height)
        vis_idx = np.flatnonzero(ok)
        n_out = _outlier_count(len(vis_idx), outlier_fraction)

        xy = noisy[vis_idx]
        descs = perturbed(vis_idx)
        src_points = vis_idx
        if n_out:
            stolen = rng.integers(0, len(positions), size=n_out)
            out_desc = perturbed(stolen)
            out_x = rng.uniform(0, width, size=n_out)
            out_y = rng.uniform(0, height, size=n_out)
            xy = np.vstack([xy, np.column_stack([out_x, out_y])])
            descs = np.vstack([descs, out_desc])
            src_points = np.concatenate([src_points, np.full(n_out, -1)])
        order = rng.permutation(len(src_points))
        feats = keyfile_records(xy[order], descs[order], scale=2.0)
        src_points = src_points[order]
        outlier_labels.append(np.flatnonzero(src_points < 0))
        keys = np.flatnonzero(src_points >= 0)
        q_cams.append(np.full(len(keys), n_db + qi))
        q_points.append(src_points[keys])
        q_keys.append(keys)
        q_xy.append(np.column_stack([feats.xy[keys, 0] - width / 2.0,
                                     height / 2.0 - feats.xy[keys, 1]]))

        name = f"query_{qi:03d}.jpg"
        queries.append((QueryImage(name=name, width=width, height=height,
                                   features=feats, exif_focal_px=focal_px),
                        pose))

    # the full model: database + query cameras, and a point's view list
    # runs in camera order, database then queries
    cameras = [CameraRecord(focal_px, 0.0, 0.0, *internal_to_bundler(pose))
               for pose in db_poses + query_poses]
    cams = np.concatenate([db_cams, *q_cams])
    points = np.concatenate([db_points, *q_points])
    views = np.lexsort((cams, points))
    offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(points, minlength=n_kept))]).astype(np.int64)
    model = SfmModel(cameras, positions, colors, offsets,
                     cams[views].astype(np.int32),
                     np.concatenate([db_keys, *q_keys])[views].astype(np.int32),
                     np.concatenate([db_xy, *q_xy])[views])

    # mean descriptors over each point's database views, as the CLI
    # derives them: every point has one, so the split keeps every point
    db_names = [f"db_{i:03d}.jpg" for i in range(n_db)]
    query_names = [q.name for q, _ in queries]
    db_model, _ = split_golden(model, query_names, db_names + query_names)
    model = model.with_mean_descriptors(build_mean_descriptors(
        db_model, lambda cam: db_keyfiles[cam].descriptor).mean_descriptors)

    return SyntheticScene(model=model, queries=queries, noise_px=noise_px,
                          outlier_fraction=outlier_fraction,
                          outlier_labels=outlier_labels,
                          db_keyfiles=db_keyfiles,
                          db_names=db_names,
                          image_size=image_size, focal_px=focal_px)


def write_scene_dir(scene: SyntheticScene, out_dir) -> None:
    """Serialize a synthetic scene as a bundler-style dataset directory.

    Layout: model.out (bundler text, database + query cameras),
    list.txt (camera names aligned with the model), query_list.txt,
    meta.txt (name width height focal per query) and keys/<name>.key
    for every camera.
    """
    out = Path(out_dir)
    (out / "keys").mkdir(parents=True, exist_ok=True)
    with open(out / "model.out", "w") as fh:
        write_bundle(scene.model, fh)

    query_names = [q.name for q, _ in scene.queries]
    all_names = scene.db_names + query_names
    with open(out / "list.txt", "w") as fh:
        fh.write("\n".join(all_names) + "\n")
    with open(out / "query_list.txt", "w") as fh:
        fh.write("\n".join(query_names) + "\n")
    width, height = scene.image_size
    with open(out / "meta.txt", "w") as fh:
        for name in query_names:
            fh.write(f"{name} {width} {height} {scene.focal_px!r}\n")

    keyfiles = scene.db_keyfiles + [q.features for q, _ in scene.queries]
    for name, keys in zip(all_names, keyfiles):
        with open(out / "keys" / (Path(name).stem + ".key"), "w") as fh:
            write_keyfile(keys, fh)


def _histogram(values, bins) -> list:
    rows = []
    vals = np.asarray(values, dtype=float)
    for lo, hi in zip(bins[:-1], bins[1:]):
        rows.append((lo, hi, int(((vals >= lo) & (vals < hi)).sum())))
    return rows


def localize(query: QueryImage, golden: Pose, index, model: SfmModel,
             mode: str, basic: BasicParams = BasicParams(),
             advanced: AdvancedParams = AdvancedParams(),
             back: BackmatchParams = BackmatchParams(),
             seed: int | None = None, ratio: float | None = None,
             solver: str = "auto"):
    """Match one query, estimate its pose and score it against golden.

    The mode's RANSAC runs with rng_seed=seed; ratio defaults to the
    mode's good-match ratio.  Returns (estimate, row), with estimate
    None and the exception type name as the row's failure when the
    query has too few matches or no pose.  seconds covers matching and
    estimation.  Raises InvalidParams for a mode not in MODES.
    """
    check_setting("mode", mode, choices=MODES)
    if ratio is None:
        ratio = GOOD_RATIO_BASIC if mode == "basic" else GOOD_RATIO_ADVANCED
    start = time.perf_counter()
    try:
        good = find_good_matches(index, query, ratio)
        if mode == "basic":
            est = estimate_pose_basic(query, good, model,
                                      replace(basic, rng_seed=seed),
                                      solver=solver)
        else:
            est = estimate_pose_advanced(query, good, model,
                                         replace(advanced, rng_seed=seed),
                                         back, solver=solver)
    except (NoSolution, InsufficientMatches) as exc:
        return None, QueryResult(query.name, None,
                                 time.perf_counter() - start, False, 0,
                                 failure=type(exc).__name__)
    elapsed = time.perf_counter() - start
    return est, QueryResult(query.name, pose_error(est.pose, golden), elapsed,
                            est.used_backmatching, est.iterations_used)


def report_from_rows(rows) -> BenchmarkReport:
    """Aggregate per-query rows into a full report."""
    good_rows = [r for r in rows if r.error is not None]
    trans = [r.error.translation for r in good_rows]
    focal_deltas = [r.error.focal_px_delta for r in good_rows]
    n_total = len(rows)

    below = [r.error.translation for r in good_rows
             if r.error.focal_px_delta < FOCAL_SPLIT_PX]
    above = [r.error.translation for r in good_rows
             if r.error.focal_px_delta >= FOCAL_SPLIT_PX]
    focal_split = {
        "n_below_1000px": len(below),
        "n_above_1000px": len(above),
        "mean_translation_below": float(np.mean(below)) if below else None,
        "mean_translation_above": float(np.mean(above)) if above else None,
    }

    return BenchmarkReport(
        per_query=rows,
        median_translation=float(np.median(trans)) if trans else None,
        mean_translation=float(np.mean(trans)) if trans else None,
        frac_under_half_unit=(sum(t < 0.5 for t in trans) / n_total
                              if n_total else None),
        wrong_pose_count=sum(t >= WRONG_POSE_THRESHOLD for t in trans),
        n_failed=n_total - len(good_rows),
        histogram_time=_histogram([r.seconds for r in rows], TIME_BINS),
        histogram_l2=_histogram(trans, L2_BINS),
        histogram_focal=_histogram(focal_deltas, FOCAL_BINS),
        focal_split=focal_split,
    )


def write_report(report: BenchmarkReport, out_dir) -> None:
    """Write per_query.csv, the three histogram CSVs and summary.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "per_query.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "rotation_deg", "rotation_frob", "translation",
                    "focal_px_delta", "seconds", "used_backmatching",
                    "iterations", "failure"])
        for r in report.per_query:
            if r.error is None:
                w.writerow([r.name, "", "", "", "", f"{r.seconds:.6f}",
                            r.used_backmatching, r.iterations, r.failure])
            else:
                w.writerow([r.name, f"{r.error.rotation_deg:.9g}",
                            f"{r.error.rotation_frob:.9g}",
                            f"{r.error.translation:.9g}",
                            f"{r.error.focal_px_delta:.9g}",
                            f"{r.seconds:.6f}", r.used_backmatching,
                            r.iterations, ""])

    for fname, rows in (("histogram_time.csv", report.histogram_time),
                        ("histogram_l2.csv", report.histogram_l2),
                        ("histogram_focal.csv", report.histogram_focal)):
        with open(out / fname, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["bin_lo", "bin_hi", "count"])
            for lo, hi, count in rows:
                w.writerow([lo, hi, count])

    with open(out / "summary.txt", "w") as fh:
        n = len(report.per_query)
        fh.write(f"queries: {n}\n")
        fh.write(f"failed: {report.n_failed}\n")
        fh.write(f"median translation error: {report.median_translation}\n")
        fh.write(f"mean translation error: {report.mean_translation}\n")
        fh.write(f"fraction under 0.5 units: {report.frac_under_half_unit}\n")
        fh.write(f"wrong poses (>= {WRONG_POSE_THRESHOLD} units): "
                 f"{report.wrong_pose_count}\n")
        fh.write(f"focal split at {FOCAL_SPLIT_PX:.0f} px: "
                 f"{report.focal_split}\n")
