"""Baseline RANSAC pose estimation.

Uniform minimal samples (3 points with known focal length, 4 without),
solver dispatch to P3P/P4Pf, candidate validation by the fitted-match
test and coverage-quality ranking.  Stops early once the best estimate
fits enough matches, otherwise runs to the iteration cap.  The advanced
estimator runs the same loop, search, with its own sampler.
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
        self.centered_xy = normalize_points(self.raw_xy, query.width, query.height)
        self.c = coverage_window(query.width)
        self.area_good = coverage_area_xy(self.raw_xy, query.width, query.height, self.c)

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


def _solvers(focal_px: float | None, solver: str):
    """(run P3P, run P4Pf); "auto" runs P4Pf only when the focal is unknown."""
    return (solver in ("auto", "p3p", "both") and focal_px is not None,
            solver in ("p4pf", "both") or (solver == "auto" and focal_px is None))


def sample_size(matches: Matches, focal_px: float | None, solver: str) -> int:
    """Matches per minimal sample: 3 when P3P runs alone, otherwise 4.

    Raises InsufficientMatches when fewer distinct points are matched and
    NoSolution when no solver applies (P3P without a focal).
    """
    p3p, p4pf = _solvers(focal_px, solver)
    size = 3 if p3p and not p4pf else 4
    if (distinct := len(np.unique(matches.point_idx))) < size:
        raise InsufficientMatches(f"{distinct} distinct points < sample size {size}")
    if not (p3p or p4pf):
        raise NoSolution(f"solver {solver!r} needs the focal the query lacks")
    return size


def solve_candidates(ctx: MatchContext, sample_idx, focal_px: float | None,
                     solver: str = "auto"):
    """Run the minimal solver(s) on one sample; empty list if unsolvable."""
    world = ctx.matches.positions[sample_idx]
    centered = ctx.centered_xy[sample_idx]
    candidates = []
    want_p3p, want_p4pf = _solvers(focal_px, solver)
    try:
        if want_p3p:
            out = solve_p3p(bearing_vectors(centered[:3], focal_px), world[:3])
            candidates.extend(p.with_focal(focal_px) for p in out)
        if want_p4pf:
            candidates.extend(solve_p4pf(centered[:4], world[:4]))
    except (DegenerateConfiguration, NoRealSolution):
        pass
    return candidates


def search(ctx: MatchContext, draw, iterations: int, focal_px: float | None,
           solver: str, best=None, stop_at: int | None = None):
    """The RANSAC loop: (best, iterations run) after at most `iterations`.

    draw(matches) gives one minimal sample's indices, or None to spend
    the iteration without one.  best, None or (q, pose, fitted count,
    stats, mask), gives way only to a strictly higher q.  The loop ends
    early once best fits stop_at matches.
    """
    for it in range(iterations):
        idx = draw(ctx.matches)
        if idx is not None:
            for pose in solve_candidates(ctx, np.asarray(idx), focal_px, solver):
                count, stats, mask = ctx.evaluate(pose)
                if stats is not None and (best is None or stats.q > best[0]):
                    best = (stats.q, pose, count, stats, mask)
        if stop_at is not None and best is not None and best[2] >= stop_at:
            return best, it + 1
    return best, iterations


def best_estimate(ctx: MatchContext, best, iterations: int, **flags) -> PoseEstimate:
    """The PoseEstimate of a search's best; NoSolution when there is none."""
    if best is None:
        raise NoSolution(f"no candidate fitted {ctx.min_fitted}+ matches "
                         f"in {iterations} iterations")
    _, pose, _, stats, mask = best
    return PoseEstimate(pose=pose, fitted=ctx.matches.take(mask),
                        quality=stats, iterations_used=iterations, **flags)


def estimate_pose_basic(query: QueryImage, matches: Matches, model=None,
                        params: BasicParams = BasicParams(),
                        solver: str = "auto") -> PoseEstimate:
    """Localize one query with the baseline RANSAC scheme.

    Samples 3 matches when the query has a known focal length (P3P) or
    4 when it does not (P4Pf), ranks candidates by coverage quality and
    exits early once the best pose fits stop_count matches or the
    stop_fraction share of the good set.  Raises InsufficientMatches
    when there are too few distinct points and NoSolution when no
    solver applies or no candidate ever fits min_fitted matches.
    """
    focal = query.exif_focal_px
    size = sample_size(matches, focal, solver)
    ctx = MatchContext(query, matches, params.inlier_threshold,
                       params.inlier_metric, params.min_fitted)
    rng = np.random.default_rng(params.rng_seed)
    stop_at = min(params.stop_count,
                  int(np.ceil(params.stop_fraction * len(matches))))
    best, iterations = search(
        ctx, lambda m: _sample_unique_idx(m.point_idx, size, rng),
        params.max_iterations, focal, solver, stop_at=stop_at)
    return best_estimate(ctx, best, iterations)
