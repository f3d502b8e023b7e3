"""Baseline RANSAC pose estimation.

Uniform minimal samples (3 points with known focal length, 4 without),
solver dispatch to P3P/P4Pf, candidate validation by the fitted-match
test and coverage-quality ranking.  Stops early once the best estimate
fits enough matches, otherwise runs to the iteration cap.  The advanced
estimator runs the same loop, search, with its own sampler.  A search
reads one MatchContext per match set and keeps its best as a PoseEstimate.

search draws its samples in batches, in the sampler's order, and solves
and masks each batch at once: one P3P and one P4Pf call over all its
samples, one stacked fitted-mask computation over all its candidates.
It then walks the candidates in sample order, so it picks the winner a
one-sample-at-a-time loop would.  A search that may stop early, as the
baseline's does, takes one sample a batch, so it draws no sample that
it does not solve.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .descriptor_index import Matches
from .errors import InsufficientMatches, NoSolution, SamplingExhausted, check_setting
from .minimal_solvers import (
    Candidates,
    Pose,
    bearing_vectors,
    normalize_points,
    solve_p3p,
    solve_p4pf,
)
from .pose_quality import (
    METRICS,
    CoverageStats,
    coverage_area_xy,
    coverage_window,
    fitted_mask,
)
from .sfm_data import QueryImage, SfmModel

# the minimal solvers a search may run (see MatchContext)
SOLVERS = ("auto", "p3p", "p4pf", "both")


class Params:
    """Base of the params dataclasses: on construction each field passes
    check_setting with its type and metadata, named as
    ``BasicParams.max_iterations``."""

    def __post_init__(self):
        for f in fields(self):
            check_setting(f"{type(self).__name__}.{f.name}",
                          getattr(self, f.name), f.type, **f.metadata)


@dataclass(frozen=True)
class BasicParams(Params):
    """Knobs of the baseline pipeline (defaults are the standard run)."""

    max_iterations: int = 10000
    # the ray test squares it
    inlier_threshold: float = field(default=0.5, metadata={"positive": True})
    stop_fraction: float = 0.1
    stop_count: int = 12
    min_fitted: int = 6
    inlier_metric: str = field(default="ray", metadata={"choices": METRICS})
    rng_seed: int | None = None


@dataclass
class PoseEstimate:
    """Best pose found by a pipeline run."""

    pose: Pose
    fitted: Matches
    quality: CoverageStats
    iterations_used: int = 0  # set once the search is over (best_estimate)
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
    """One match set's RANSAC state, shared by every candidate of a search.

    It reads the inlier test and min_fitted from params (checked
    BasicParams or AdvancedParams) and resolves the solver once, into
    p3p and p4pf ("auto" runs P4Pf only without a focal; InvalidParams
    if unknown).  The one scoring path: fitted masks from fitted_mask on
    the matches' model positions (world), and quality from the coverage
    of the fitted matches against that of all matches (evaluate).
    """

    def __init__(self, query: QueryImage, matches: Matches, model: SfmModel,
                 params: Params, solver: str = "auto"):
        check_setting("solver", solver, choices=SOLVERS)
        self.query, self.matches, self.params = query, matches, params
        self.focal_px = query.exif_focal_px
        known = self.focal_px is not None
        self.p3p = known and solver in ("auto", "p3p", "both")
        self.p4pf = solver in ("p4pf", "both") or (solver == "auto" and not known)
        self.world = model.positions[matches.point_idx]
        self.raw_xy = query.features.xy[matches.feature_idx]
        self.centered_xy = normalize_points(self.raw_xy, query.width, query.height)
        self.c = coverage_window(query.width)
        self.area_good = coverage_area_xy(self.raw_xy, query.width, query.height, self.c)

    def fit_target(self, count: int, fraction: float) -> int:
        """count, or the fraction share of the matches if fewer: the fitted
        matches that end a basic search or skip backmatching; the share is
        clamped to 0..count before rounding, as it may overflow to inf."""
        return math.ceil(min(max(fraction * len(self.matches), 0), count))

    def fitted(self, poses: Pose | Candidates) -> np.ndarray:
        """Fitted masks of a pose (N,) or of a stack of candidates (K, N)."""
        return fitted_mask(poses, self.centered_xy, self.world,
                           self.params.inlier_threshold, self.params.inlier_metric)

    def evaluate(self, mask: np.ndarray, beat: float = -np.inf):
        """Fitted count and coverage stats of one candidate's fitted mask.

        Stats are None when fewer than min_fitted matches fit, or when
        the candidate's q cannot exceed beat: count windows cover at
        most count * (2c+1)^2 pixels, so q is at most that area (capped
        at area_good) over area_good, and the coverage is not computed.
        """
        count = int(mask.sum())
        bound = min(count * (2 * self.c + 1) ** 2, self.area_good)
        if count < self.params.min_fitted or (
                bound / self.area_good if self.area_good > 0 else 0.0) <= beat:
            return count, None
        return count, self.score(mask)

    def score(self, mask) -> CoverageStats:
        """Coverage ratio q of the masked matches (0 when nothing is covered)."""
        area_fitted = coverage_area_xy(
            self.raw_xy[mask], self.query.width, self.query.height, self.c)
        q = area_fitted / self.area_good if self.area_good > 0 else 0.0
        return CoverageStats(self.area_good, area_fitted, q)


def sample_size(ctx: MatchContext) -> int:
    """Matches per minimal sample: 3 when P3P runs alone, otherwise 4.

    The only check, which the samplers rely on, that a sample of
    ctx.matches can be drawn: raises InsufficientMatches when fewer
    distinct points are matched and NoSolution when no solver applies
    (P3P without a focal).
    """
    size = 3 if ctx.p3p and not ctx.p4pf else 4
    if (distinct := len(np.unique(ctx.matches.point_idx))) < size:
        raise InsufficientMatches(f"{distinct} distinct points < sample size {size}")
    if not (ctx.p3p or ctx.p4pf):  # only "p3p" without a focal
        raise NoSolution("solver 'p3p' needs the focal the query lacks")
    return size


def solve_candidates(ctx: MatchContext, samples) -> Candidates:
    """Run the context's minimal solver(s) on a batch of samples (B, n) at once.

    Each row of samples indexes ctx.matches.  The candidates come in row
    order and, within a row, P3P's before P4Pf's; a row the solvers
    cannot solve has none.
    """
    world = ctx.world[samples]
    centered = ctx.centered_xy[samples]
    parts = []
    if ctx.p3p:
        found = solve_p3p(bearing_vectors(centered[:, :3], ctx.focal_px), world[:, :3])
        parts.append(replace(found, focal_px=np.full(len(found), float(ctx.focal_px))))
    if ctx.p4pf:
        parts.append(solve_p4pf(centered[:, :4], world[:, :4]))
    if len(parts) == 1:
        return parts[0]
    stacked = [np.concatenate([getattr(c, name) for c in parts])
               for name in ("sample", "rotation", "center", "focal_px")]
    order = np.argsort(stacked[0], kind="stable")
    return Candidates(*(a[order] for a in stacked))


# Samples in a batch of a search without an early stop.
_BATCH_CAP = 32


def search(ctx: MatchContext, draw, iterations: int,
           best: PoseEstimate | None = None, stop_at: int | None = None):
    """The RANSAC loop: (best, iterations run) after at most `iterations`.

    draw() gives one minimal sample as indices into ctx.matches.  The
    caller has run sample_size on ctx or on a context over a subset of
    its matches, so draw may rely on enough distinct points.  An
    iteration whose draw raises SamplingExhausted passes without a
    sample.  best, None or a PoseEstimate over ctx.matches, gives way
    only to a strictly higher q, so a candidate is scored only if it may
    beat that q (see MatchContext.evaluate).  The loop ends early once
    best fits stop_at.

    Samples are drawn and solved in batches of _BATCH_CAP, one when
    stop_at is set, and their candidates walked in sample order, so the
    result, the draws and the generator state are those of solving one
    sample at a time.
    """
    batch = _BATCH_CAP if stop_at is None else 1
    for done in range(0, iterations, batch):
        size = min(batch, iterations - done)
        samples = []
        for _ in range(size):
            try:
                samples.append(draw())
            except SamplingExhausted:
                pass
        if samples:  # candidates come in sample order
            candidates = solve_candidates(ctx, np.array(samples))
            masks = ctx.fitted(candidates)
            for k in range(len(candidates)):
                beat = -np.inf if best is None else best.quality.q
                stats = ctx.evaluate(masks[k], beat)[1]
                if stats is not None and stats.q > beat:
                    best = PoseEstimate(candidates.pose(k),
                                        ctx.matches.take(masks[k]), stats)
        if stop_at is not None and best is not None and len(best.fitted) >= stop_at:
            return best, done + size  # a batch of one
    return best, iterations


def best_estimate(ctx: MatchContext, best, iterations: int, **flags) -> PoseEstimate:
    """A search's best with its iteration count and flags; NoSolution
    when there is none."""
    if best is None:
        raise NoSolution(f"no candidate fitted {ctx.params.min_fitted}+ matches "
                         f"in {iterations} iterations")
    return replace(best, iterations_used=iterations, **flags)


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
    ctx = MatchContext(query, matches, model, params, solver)
    size = sample_size(ctx)
    rng = np.random.default_rng(params.rng_seed)
    best, iterations = search(
        ctx, lambda: _sample_unique_idx(matches.point_idx, size, rng),
        params.max_iterations,
        stop_at=ctx.fit_target(params.stop_count, params.stop_fraction))
    return best_estimate(ctx, best, iterations)
