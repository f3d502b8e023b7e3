"""Advanced RANSAC: co-occurrence prior sampling and backmatching.

Minimal samples are drawn sequentially with an acceptance probability
driven by the size of the intersection of the candidates' camera
visibility sets, so points that were reconstructed from the same views
end up in the same sample.  A match's camera set is an int bitmask (bit
c for camera c), so an intersection is an and and its size a bit
count.  Each phase runs the shared RANSAC loop,
ransac_basic.search, with this sampler and no early stop, so it always
runs its full iteration count and draws exactly that many samples (in
batches), and the second phase draws on from where the first left the
generator.  A phase builds the matches' bitmasks and the sampler's seed
list (the matches a sample may start from) once; a draw only draws.  If
the first phase does not fit enough matches, additional correspondences
are recovered by matching 3D points back into the query image through a
view-prioritized queue, and a second phase runs on the augmented match
set.

Backmatching keeps one int per model point, its priority or _GONE
(outside the pool, or popped), and one bool per query feature (matched).
Its heap holds (-priority, point); an entry that no longer holds its
point's priority, superseded by a raise or consumed by a pop, is
skipped.  An accepted point raises the unpopped pool points of its
cameras with one np.add.at and pushes each of them once.
"""

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from .descriptor_index import DescriptorIndex, Matches, ratio_test
from .errors import SamplingExhausted
from .pose_quality import METRICS
from .ransac_basic import (
    MatchContext,
    Params,
    PoseEstimate,
    best_estimate,
    sample_size,
    search,
)
from .sfm_data import QueryImage, SfmModel

# backmatching's candidates: points sharing a camera with a good match, or all
POOLS = ("covisible", "all")


@dataclass(frozen=True)
class AdvancedParams(Params):
    """Knobs of the advanced pipeline (defaults are the standard run)."""

    iterations_per_phase: int = 100
    inlier_threshold: float = field(default=0.5, metadata={"positive": True})
    skip_fraction: float = 0.1
    skip_count: int = 12
    # accept_probability divides by it
    k_sigmoid: float = field(default=5.0, metadata={"positive": True})
    dead_end_limit: int = 30
    min_seed_cameras: int = 5
    min_fitted: int = 6
    inlier_metric: str = field(default="ray", metadata={"choices": METRICS})
    max_restarts: int = 100
    rng_seed: int | None = None


@dataclass(frozen=True)
class BackmatchParams(Params):
    """Knobs of the 3D-to-2D backmatching stage."""

    target_backmatches: int = 100
    ratio: float = field(default=0.7, metadata={"ratio": True})
    priority_booster: int = 10  # >= 0 as every int: below 0 it would read as _GONE
    pool: str = field(default="covisible", metadata={"choices": POOLS})
    pop_cap_factor: int = 50


# a backmatch priority: outside the pool or popped (priorities are >= 0)
_GONE = -1


def accept_probability(inter: int, prev_inter: int, candidate_size: int,
                       k: float) -> float:
    """Probability of accepting a candidate into the running sample.

    A sigmoid in the new intersection size favors large intersections
    without excluding small ones; the ratio against the best achievable
    intersection makes the value independent of absolute set sizes.
    """
    if inter <= 0:
        return 0.0
    f_scaling = 1.0 / (1.0 + np.exp(-inter / k))
    f_ratio = inter / min(prev_inter, candidate_size)
    return float(min(1.0, max(0.0, f_scaling * f_ratio)))


def _seed_matches(bits, min_cameras: int) -> np.ndarray:
    """Matches a co-occurrence sample may start from: those seen by at
    least min_cameras cameras, else those seen by the most."""
    sizes = np.fromiter(map(int.bit_count, bits), dtype=np.intp, count=len(bits))
    seeds = np.flatnonzero(sizes >= min_cameras)
    return seeds if len(seeds) else np.flatnonzero(sizes == sizes.max())


def _draw_cooccurrence_idx(point_ids, bits, seeds, n: int,
                           params: AdvancedParams, rng) -> list:
    """Indices of n matches drawn sequentially under the co-occurrence prior.

    bits[i] is match i's camera bitmask (SfmModel.view_bits), so a
    visibility intersection is an and, and its size a bit count.
    The first match is drawn from seeds (see _seed_matches); subsequent
    uniform candidates are accepted with accept_probability.  A run of
    more than dead_end_limit consecutive zero intersections discards the
    sample and restarts from a new first point.  The caller guarantees
    n distinct point ids (sample_size checks it).

    The pool holds, ascending, the matches whose point is not chosen yet;
    only an acceptance rebuilds it, so a rejected draw scans no matches.
    """
    for _ in range(params.max_restarts):
        first = int(seeds[rng.integers(len(seeds))])
        chosen = [first]
        running = bits[first]
        zero_streak = 0
        pool = np.flatnonzero(point_ids != point_ids[first])
        dead_end = False
        while len(chosen) < n and not dead_end:
            cand = int(pool[rng.integers(len(pool))])
            inter = (running & bits[cand]).bit_count()
            if inter == 0:
                zero_streak += 1
                if zero_streak > params.dead_end_limit:
                    dead_end = True
                continue
            zero_streak = 0
            p = accept_probability(inter, running.bit_count(),
                                   bits[cand].bit_count(), params.k_sigmoid)
            if rng.random() < p:
                chosen.append(cand)
                pool = pool[point_ids[pool] != point_ids[cand]]
                running &= bits[cand]
        if not dead_end:
            return chosen
    raise SamplingExhausted(
        f"no co-occurring sample after {params.max_restarts} restarts")


def backmatch(query: QueryImage, model: SfmModel, good: Matches,
              params: BackmatchParams = BackmatchParams()) -> Matches:
    """Match 3D points back into the query image, guided by visibility.

    Pops pool points highest priority first and matches each into a
    fresh NN index over the query features; a point that passes the
    ratio test raises every unpopped pool point its cameras see, once
    per camera (the module docstring describes the state).  Returns good
    followed by the new matches, at most one per query feature; when
    every feature is matched, good is returned before any index is built.
    """
    if not len(good) or model.num_points == 0 or len(query.features) == 0:
        return good
    if model.mean_descriptors is None:
        raise ValueError("model has no mean descriptors")
    matched = np.zeros(len(query.features), dtype=bool)
    matched[good.feature_idx] = True
    if matched.all():
        return good

    feat_index = DescriptorIndex(query.features.descriptor)
    priority = np.full(model.num_points, 0 if params.pool == "all" else _GONE)
    if params.pool == "covisible":  # points sharing a camera with a good match
        priority[model.points_of(model.cameras_of(good.point_idx))] = 0
    priority[good.point_idx] = params.priority_booster
    live = np.flatnonzero(priority != _GONE)
    heap = list(zip((-priority[live]).tolist(), live.tolist()))
    heapq.heapify(heap)
    new = []  # (feature_idx, point_idx)
    pops = 0
    pop_cap = params.pop_cap_factor * params.target_backmatches

    while heap and len(new) < params.target_backmatches and pops < pop_cap:
        neg_prio, pi = heapq.heappop(heap)
        if -neg_prio != priority[pi]:
            continue
        priority[pi] = _GONE
        pops += 1
        dists, idx = feat_index.query(model.mean_descriptors[pi])
        if not ratio_test(float(dists[0, 0]), float(dists[0, 1]), params.ratio):
            continue
        raised = model.points_of(model.cameras_of([pi]))
        raised = raised[priority[raised] != _GONE]
        np.add.at(priority, raised, 1)
        raised = np.unique(raised)
        for entry in zip((-priority[raised]).tolist(), raised.tolist()):
            heapq.heappush(heap, entry)
        fi = int(idx[0, 0])
        if not matched[fi]:
            new.append((fi, pi))
            matched[fi] = True
    return good + Matches(*zip(*new)) if new else good


def estimate_pose_advanced(query: QueryImage, matches: Matches, model: SfmModel,
                           adv: AdvancedParams = AdvancedParams(),
                           back: BackmatchParams = BackmatchParams(),
                           solver: str = "auto") -> PoseEstimate:
    """Localize one query with the advanced pipeline.

    Phase one runs exactly adv.iterations_per_phase co-occurrence
    iterations.  If its best pose fits skip_count matches (or the
    skip_fraction share), backmatching is skipped and that pose is
    returned; otherwise the match set is augmented by backmatching and
    a second phase of the same length runs on it.  When backmatching
    adds nothing, the second phase reuses the first phase's context.
    """
    ctx = MatchContext(query, matches, model, adv, solver)
    size = sample_size(ctx)
    rng = np.random.default_rng(adv.rng_seed)

    def phase(ctx: MatchContext, best=None):
        m = ctx.matches
        bits = model.view_bits(m.point_idx)
        seeds = _seed_matches(bits, adv.min_seed_cameras)
        return search(
            ctx, lambda: _draw_cooccurrence_idx(m.point_idx, bits, seeds,
                                                size, adv, rng),
            adv.iterations_per_phase, best)

    best, iterations = phase(ctx)
    phase1_count = 0 if best is None else len(best.fitted)
    used_backmatching = (best is None or phase1_count
                         < ctx.fit_target(adv.skip_count, adv.skip_fraction))
    if used_backmatching:
        augmented = backmatch(query, model, matches, back)
        if augmented is not matches:
            ctx = MatchContext(query, augmented, model, adv, solver)
            # re-score the phase-1 best on the augmented set: both phases compete alike
            if best is not None:
                mask = ctx.fitted(best.pose)
                stats = ctx.evaluate(mask)[1]
                best = None if stats is None else replace(
                    best, fitted=augmented.take(mask), quality=stats)
        best, phase2 = phase(ctx, best)
        iterations += phase2
    return best_estimate(ctx, best, iterations, used_backmatching=used_backmatching,
                         phase1_fitted=phase1_count)
