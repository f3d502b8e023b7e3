"""Baseline RANSAC pose estimation.

Uniform minimal samples (3 points with known focal length, 4 without),
solver dispatch to P3P/P4Pf, candidate validation by the fitted-match
test and coverage-quality ranking.  Stops early once the best estimate
fits enough matches, otherwise runs to the iteration cap.
"""

from dataclasses import dataclass

import numpy as np

from .descriptor_index import Matches
from .errors import (
    DegenerateConfiguration,
    InsufficientMatches,
    NoRealSolution,
    NoSolution,
)
from .minimal_solvers import Pose, bearing_vectors, normalize_points, solve_p3p, solve_p4pf
from .pose_quality import (
    CoverageStats,
    coverage_area_xy,
    coverage_window,
    fitted_mask,
)
from .sfm_data import QueryImage


@dataclass(frozen=True)
class BasicParams:
    """Knobs of the baseline pipeline (defaults are the standard run)."""

    max_iterations: int = 10000
    inlier_threshold: float = 0.5
    stop_fraction: float = 0.1
    stop_count: int = 12
    min_fitted: int = 6
    inlier_metric: str = "ray"
    rng_seed: int | None = None


@dataclass
class PoseEstimate:
    """Best pose found by a pipeline run."""

    pose: Pose
    fitted: Matches
    quality: CoverageStats
    iterations_used: int
    used_backmatching: bool = False
    phase1_fitted: int = 0


def _sample_unique_idx(point_ids: np.ndarray, n: int, rng) -> np.ndarray:
    """Indices of n matches with distinct point ids, uniform without replacement."""
    m = len(point_ids)
    if len(np.unique(point_ids)) < n:
        raise InsufficientMatches(
            f"need {n} matches with distinct points, have "
            f"{len(np.unique(point_ids))}")
    for _ in range(100):
        idx = rng.choice(m, size=n, replace=False)
        if len(set(point_ids[idx].tolist())) == n:
            return idx
    # Heavily duplicated point ids: sample distinct groups instead.
    groups = {}
    for i, pid in enumerate(point_ids.tolist()):
        groups.setdefault(pid, []).append(i)
    chosen_pids = rng.choice(len(groups), size=n, replace=False)
    keys = sorted(groups)
    return np.array([groups[keys[g]][rng.integers(len(groups[keys[g]]))]
                     for g in chosen_pids])


class MatchContext:
    """Per-query arrays shared by every candidate evaluation.

    The one scoring path: a candidate's fitted mask comes from
    fitted_mask and its quality from the coverage of the masked
    matches against that of all matches.
    """

    def __init__(self, query: QueryImage, matches: Matches, threshold: float,
                 metric: str, min_fitted: int):
        self.query = query
        self.matches = matches
        self.threshold = threshold
        self.metric = metric
        self.min_fitted = min_fitted
        self.raw_xy = query.features.xy[matches.feature_idx]
        self.centered_xy = normalize_points(self.raw_xy, query.width, query.height) \
            if len(matches) else np.empty((0, 2))
        self.c = coverage_window(query.width)
        self.area_good = coverage_area_xy(
            self.raw_xy, query.width, query.height, self.c) if len(matches) else 0

    def evaluate(self, pose: Pose):
        """Fitted count, coverage stats and mask for one candidate pose.

        Stats are None when fewer than min_fitted matches fit.
        """
        mask = fitted_mask(pose, self.centered_xy, self.matches.positions,
                           self.threshold, self.metric)
        count = int(mask.sum())
        if count < self.min_fitted:
            return count, None, mask
        return count, self.score(mask), mask

    def score(self, mask) -> CoverageStats:
        """Coverage ratio q of the masked matches (0 when nothing is covered)."""
        area_fitted = coverage_area_xy(
            self.raw_xy[mask], self.query.width, self.query.height, self.c)
        q = area_fitted / self.area_good if self.area_good > 0 else 0.0
        return CoverageStats(self.area_good, area_fitted, q)


def solve_candidates(ctx: MatchContext, sample_idx, focal_px: float | None,
                     solver: str = "auto"):
    """Run the minimal solver(s) on one sample; empty list if unsolvable."""
    world = ctx.matches.positions[sample_idx]
    centered = ctx.centered_xy[sample_idx]
    candidates = []
    want_p3p = solver in ("auto", "p3p", "both") and focal_px is not None
    want_p4pf = solver in ("p4pf", "both") or (solver == "auto" and focal_px is None)
    try:
        if want_p3p:
            out = solve_p3p(bearing_vectors(centered[:3], focal_px), world[:3])
            candidates.extend(p.with_focal(focal_px) for p in out)
        if want_p4pf:
            candidates.extend(solve_p4pf(centered[:4], world[:4]))
    except (DegenerateConfiguration, NoRealSolution):
        pass
    return candidates


def estimate_pose_basic(query: QueryImage, matches: Matches, model=None,
                        params: BasicParams = BasicParams(),
                        solver: str = "auto") -> PoseEstimate:
    """Localize one query with the baseline RANSAC scheme.

    Samples 3 matches when the query has a known focal length (P3P) or
    4 when it does not (P4Pf), ranks candidates by coverage quality and
    exits early once the best pose fits stop_count matches or the
    stop_fraction share of the good set.  Raises InsufficientMatches
    when there are too few distinct points and NoSolution when no
    candidate ever fits min_fitted matches.
    """
    focal = query.exif_focal_px
    sample_size = 4 if (focal is None or solver in ("p4pf", "both")) else 3
    ctx = MatchContext(query, matches, params.inlier_threshold,
                       params.inlier_metric, params.min_fitted)
    if len(np.unique(matches.point_idx)) < sample_size:
        raise InsufficientMatches(
            f"{len(np.unique(matches.point_idx))} distinct points "
            f"< sample size {sample_size}")

    rng = np.random.default_rng(params.rng_seed)
    stop_at = min(params.stop_count,
                  int(np.ceil(params.stop_fraction * len(matches))))
    best = None  # (q, iteration, pose, count, stats, mask)
    iterations = 0
    for it in range(params.max_iterations):
        iterations = it + 1
        idx = _sample_unique_idx(matches.point_idx, sample_size, rng)
        for pose in solve_candidates(ctx, idx, focal, solver):
            count, stats, mask = ctx.evaluate(pose)
            if stats is None:
                continue
            if best is None or stats.q > best[0]:
                best = (stats.q, it, pose, count, stats, mask)
        if best is not None and best[3] >= stop_at:
            break

    if best is None:
        raise NoSolution(
            f"no candidate fitted {params.min_fitted}+ matches "
            f"in {iterations} iterations")
    _, _, pose, count, stats, mask = best
    return PoseEstimate(pose=pose, fitted=matches.take(mask),
                        quality=stats, iterations_used=iterations)
