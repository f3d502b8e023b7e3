"""Baseline RANSAC pose estimation.

Uniform minimal samples (3 points with known focal length, 4 without),
solver dispatch to P3P/P4Pf, candidate validation by the fitted-match
test and coverage-quality ranking.  Stops early once the best estimate
fits enough matches, otherwise runs to the iteration cap.  The advanced
estimator runs the same loop, search, with its own sampler.

search draws its samples in batches, in the sampler's order, and solves
and masks each batch at once: one P3P and one P4Pf call over all its
samples, one stacked fitted-mask computation over all its candidates.
It then walks the candidates in sample order, so it picks the winner a
one-sample-at-a-time loop would.  A search that may stop early, as the
baseline's does, takes one sample a batch, so it draws no sample that
it does not solve.
"""

from dataclasses import dataclass, replace

import numpy as np

from .descriptor_index import Matches
from .errors import InsufficientMatches, InvalidParams, NoSolution, SamplingExhausted
from .minimal_solvers import (
    Candidates,
    Pose,
    bearing_vectors,
    normalize_points,
    solve_p3p,
    solve_p4pf,
)
from .pose_quality import (
    CoverageStats,
    coverage_area_xy,
    coverage_window,
    fitted_mask,
)
from .sfm_data import QueryImage, SfmModel


def check_fitting(threshold: float, metric: str) -> None:
    """Raise InvalidParams unless the fitted-match test can take these."""
    if not 0 < threshold < np.inf:  # the ray test squares it
        raise InvalidParams(f"inlier_threshold {threshold!r} is not a finite number > 0")
    if metric not in ("ray", "pixel"):
        raise InvalidParams(f"inlier_metric {metric!r} is not 'ray' or 'pixel'")


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

    def __post_init__(self):
        check_fitting(self.inlier_threshold, self.inlier_metric)


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
    """Indices of n matches with distinct point ids, uniform without
    replacement; the caller guarantees n distinct ids (see sample_size)."""
    m = len(point_ids)
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

    The one scoring path: candidates' fitted masks come from fitted_mask
    (fitted) on the matches' model positions, gathered once into world,
    and a candidate's quality from the coverage of its masked matches
    against that of all matches (evaluate).
    """

    def __init__(self, query: QueryImage, matches: Matches, model: SfmModel,
                 threshold: float, metric: str, min_fitted: int):
        self.query = query
        self.matches = matches
        self.world = model.positions[matches.point_idx]
        self.threshold = threshold
        self.metric = metric
        self.min_fitted = min_fitted
        self.raw_xy = query.features.xy[matches.feature_idx]
        self.centered_xy = normalize_points(self.raw_xy, query.width, query.height)
        self.c = coverage_window(query.width)
        self.area_good = coverage_area_xy(self.raw_xy, query.width, query.height, self.c)

    def fitted(self, poses: Pose | Candidates) -> np.ndarray:
        """Fitted masks of a pose (N,) or of a stack of candidates (K, N)."""
        return fitted_mask(poses, self.centered_xy, self.world,
                           self.threshold, self.metric)

    def evaluate(self, mask: np.ndarray, beat: float = -np.inf):
        """Fitted count and coverage stats of one candidate's fitted mask.

        Stats are None when fewer than min_fitted matches fit, or when
        the candidate's q cannot exceed beat: count windows cover at
        most count * (2c+1)^2 pixels, so q is at most that area (capped
        at area_good) over area_good, and the coverage is not computed.
        """
        count = int(mask.sum())
        bound = min(count * (2 * self.c + 1) ** 2, self.area_good)
        if count < self.min_fitted or (
                bound / self.area_good if self.area_good > 0 else 0.0) <= beat:
            return count, None
        return count, self.score(mask)

    def score(self, mask) -> CoverageStats:
        """Coverage ratio q of the masked matches (0 when nothing is covered)."""
        area_fitted = coverage_area_xy(
            self.raw_xy[mask], self.query.width, self.query.height, self.c)
        q = area_fitted / self.area_good if self.area_good > 0 else 0.0
        return CoverageStats(self.area_good, area_fitted, q)


def _solvers(focal_px: float | None, solver: str):
    """(run P3P, run P4Pf); "auto" runs P4Pf only when the focal is unknown.

    Raises InvalidParams for a solver that is not auto, p3p, p4pf or both.
    """
    if solver not in ("auto", "p3p", "p4pf", "both"):
        raise InvalidParams(f"solver {solver!r} is not auto, p3p, p4pf or both")
    return (solver in ("auto", "p3p", "both") and focal_px is not None,
            solver in ("p4pf", "both") or (solver == "auto" and focal_px is None))


def sample_size(matches: Matches, focal_px: float | None, solver: str) -> int:
    """Matches per minimal sample: 3 when P3P runs alone, otherwise 4.

    The only check that a sample can be drawn: raises InvalidParams for
    an unknown solver, InsufficientMatches when fewer distinct points are
    matched and NoSolution when no solver applies (P3P without a focal).
    The samplers rely on it.
    """
    p3p, p4pf = _solvers(focal_px, solver)
    size = 3 if p3p and not p4pf else 4
    if (distinct := len(np.unique(matches.point_idx))) < size:
        raise InsufficientMatches(f"{distinct} distinct points < sample size {size}")
    if not (p3p or p4pf):
        raise NoSolution(f"solver {solver!r} needs the focal the query lacks")
    return size


def solve_candidates(ctx: MatchContext, samples, focal_px: float | None,
                     solver: str = "auto") -> Candidates:
    """Run the minimal solver(s) on a batch of samples (B, n) at once.

    Each row of samples indexes ctx.matches.  The candidates come in row
    order and, within a row, P3P's before P4Pf's; a row the solvers
    cannot solve has none.
    """
    world = ctx.world[samples]
    centered = ctx.centered_xy[samples]
    want_p3p, want_p4pf = _solvers(focal_px, solver)
    parts = []
    if want_p3p:
        found = solve_p3p(bearing_vectors(centered[:, :3], focal_px), world[:, :3])
        parts.append(replace(found, focal_px=np.full(len(found), float(focal_px))))
    if want_p4pf:
        parts.append(solve_p4pf(centered[:, :4], world[:, :4]))
    if len(parts) == 1:
        return parts[0]
    stacked = [np.concatenate([getattr(c, name) for c in parts])
               for name in ("sample", "rotation", "center", "focal_px")]
    order = np.argsort(stacked[0], kind="stable")
    return Candidates(*(a[order] for a in stacked))


# Samples in a batch of a search without an early stop.
_BATCH_CAP = 32


def search(ctx: MatchContext, draw, iterations: int, focal_px: float | None,
           solver: str, best=None, stop_at: int | None = None):
    """The RANSAC loop: (best, iterations run) after at most `iterations`.

    draw() gives one minimal sample as indices into ctx.matches.  The
    caller has run sample_size on ctx.matches or on a subset of them, so
    draw may rely on enough distinct points.  An iteration whose draw
    raises SamplingExhausted passes without a sample.  best, None or
    (q, pose, fitted count, stats, mask), gives way only to a strictly
    higher q, so a candidate is scored only if it may beat that q (see
    MatchContext.evaluate).  The loop ends early once best fits stop_at.

    Samples are drawn and solved in batches of _BATCH_CAP, one when
    stop_at is set, and their candidates walked in sample order, so the
    result, the draws and the generator state are those of solving one
    sample at a time.
    """
    batch = _BATCH_CAP if stop_at is None else 1
    for done in range(0, iterations, batch):
        size = min(batch, iterations - done)
        drawn, samples = [], []
        for i in range(size):
            try:
                samples.append(draw())
                drawn.append(i)
            except SamplingExhausted:
                pass
        owner = []  # the batch position of each candidate's sample
        if samples:
            candidates = solve_candidates(ctx, np.array(samples), focal_px, solver)
            owner = np.array(drawn)[candidates.sample]
            masks = ctx.fitted(candidates)
        k = 0
        for i in range(size):
            while k < len(owner) and owner[k] == i:
                count, stats = ctx.evaluate(masks[k], -np.inf if best is None else best[0])
                if stats is not None and (best is None or stats.q > best[0]):
                    best = (stats.q, candidates.pose(k), count, stats, masks[k])
                k += 1
            if stop_at is not None and best is not None and best[2] >= stop_at:
                return best, done + i + 1
    return best, iterations


def best_estimate(ctx: MatchContext, best, iterations: int, **flags) -> PoseEstimate:
    """The PoseEstimate of a search's best; NoSolution when there is none."""
    if best is None:
        raise NoSolution(f"no candidate fitted {ctx.min_fitted}+ matches "
                         f"in {iterations} iterations")
    _, pose, _, stats, mask = best
    return PoseEstimate(pose=pose, fitted=ctx.matches.take(mask),
                        quality=stats, iterations_used=iterations, **flags)


def estimate_pose_basic(query: QueryImage, matches: Matches, model: SfmModel,
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
    ctx = MatchContext(query, matches, model, params.inlier_threshold,
                       params.inlier_metric, params.min_fitted)
    rng = np.random.default_rng(params.rng_seed)
    stop_at = min(params.stop_count,
                  int(np.ceil(params.stop_fraction * len(matches))))
    best, iterations = search(
        ctx, lambda: _sample_unique_idx(matches.point_idx, size, rng),
        params.max_iterations, focal, solver, stop_at=stop_at)
    return best_estimate(ctx, best, iterations)
