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
set.  Backmatching reads each point's cameras from the model's view
lists and each camera's points from the model's cached transpose.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .descriptor_index import DescriptorIndex, Matches, check_ratio, ratio_test
from .errors import InvalidParams, SamplingExhausted
from .ransac_basic import (
    MatchContext,
    PoseEstimate,
    best_estimate,
    sample_size,
    search,
)
from .sfm_data import QueryImage, SfmModel


@dataclass(frozen=True)
class AdvancedParams:
    """Knobs of the advanced pipeline (defaults are the standard run)."""

    iterations_per_phase: int = 100
    inlier_threshold: float = 0.5
    skip_fraction: float = 0.1
    skip_count: int = 12
    k_sigmoid: float = 5.0
    dead_end_limit: int = 30
    min_seed_cameras: int = 5
    min_fitted: int = 6
    inlier_metric: str = "ray"
    max_restarts: int = 100
    rng_seed: int | None = None

    def __post_init__(self):
        if not self.k_sigmoid > 0:  # accept_probability divides by it
            raise InvalidParams(f"k_sigmoid {self.k_sigmoid!r} is not > 0")


@dataclass(frozen=True)
class BackmatchParams:
    """Knobs of the 3D-to-2D backmatching stage."""

    target_backmatches: int = 100
    ratio: float = 0.7
    priority_booster: int = 10
    pool: str = "covisible"  # or "all"
    pop_cap_factor: int = 50

    def __post_init__(self):
        check_ratio(self.ratio)
        if self.pool not in ("covisible", "all"):
            raise InvalidParams(f"pool {self.pool!r} is not 'covisible' or 'all'")


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

    Builds a fresh NN index over the query features, then processes a
    priority queue of candidate model points.  Points of existing good
    matches are boosted to the top; every accepted backmatch raises the
    priority of all pool points co-visible with it (from the model's
    camera_points), so the search spreads along the view graph.  Returns
    the input matches followed by newly accepted ones; a query feature
    that is already matched is not matched again, so when every feature
    is matched, good is returned before any index is built.
    """
    if not len(good) or model.num_points == 0 or len(query.features) == 0:
        return good
    if model.mean_descriptors is None:
        raise ValueError("model has no mean descriptors")
    if len(np.unique(good.feature_idx)) == len(query.features):
        return good

    feat_index = DescriptorIndex(query.features.descriptor)

    if params.pool == "all":
        pool = np.arange(model.num_points)
    else:  # points sharing a camera with a good match
        cams = model.track_cams[np.isin(model.track_points, good.point_idx)]
        pool = np.unique(model.track_points[np.isin(model.track_cams, cams)])
    priority = dict.fromkeys(pool.tolist(), 0)
    priority.update(dict.fromkeys(good.point_idx.tolist(),
                                  params.priority_booster))
    cam_offsets, cam_points = model.camera_points

    heap = [(-prio, pi) for pi, prio in priority.items()]
    heapq.heapify(heap)

    matched_features = set(good.feature_idx.tolist())
    processed = set()
    new = []  # (feature_idx, point_idx)
    pops = 0
    pop_cap = params.pop_cap_factor * params.target_backmatches

    while heap and len(new) < params.target_backmatches and pops < pop_cap:
        neg_prio, pi = heapq.heappop(heap)
        if pi in processed or -neg_prio != priority[pi]:
            continue
        processed.add(pi)
        pops += 1

        dists, idx = feat_index.query(model.mean_descriptors[pi].astype(float), 2)
        d1, d2 = float(dists[0, 0]), float(dists[0, 1])
        if not ratio_test(d1, d2, params.ratio):
            continue

        # spread priority along the accepted point's views
        for cam in set(model.track_cams[model.track_slice(pi)].tolist()):
            for pj in cam_points[cam_offsets[cam]:cam_offsets[cam + 1]].tolist():
                if pj in priority and pj not in processed:
                    priority[pj] += 1
                    heapq.heappush(heap, (-priority[pj], pj))

        fi = int(idx[0, 0])
        if fi in matched_features:
            continue
        new.append((fi, pi))
        matched_features.add(fi)

    if not new:
        return good
    return good + Matches(*zip(*new))


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
    focal = query.exif_focal_px
    size = sample_size(matches, focal, solver)
    rng = np.random.default_rng(adv.rng_seed)

    def phase(ctx: MatchContext, best=None):
        m = ctx.matches
        bits = model.view_bits(m.point_idx)
        seeds = _seed_matches(bits, adv.min_seed_cameras)
        return search(
            ctx, lambda: _draw_cooccurrence_idx(m.point_idx, bits, seeds,
                                                size, adv, rng),
            adv.iterations_per_phase, focal, solver, best)

    ctx = MatchContext(query, matches, model, adv.inlier_threshold,
                       adv.inlier_metric, adv.min_fitted)
    best, iterations = phase(ctx)
    phase1_count = 0 if best is None else best[2]
    skip_at = min(adv.skip_count, int(np.ceil(adv.skip_fraction * len(matches))))
    used_backmatching = best is None or best[2] < skip_at
    if used_backmatching:
        augmented = backmatch(query, model, matches, back)
        if augmented is not matches:
            ctx = MatchContext(query, augmented, model, adv.inlier_threshold,
                               adv.inlier_metric, adv.min_fitted)
            # re-score the phase-1 best on the augmented set: both phases compete alike
            if best is not None:
                mask = ctx.fitted(best[1])
                count, stats = ctx.evaluate(mask)
                best = None if stats is None else (stats.q, best[1], count, stats, mask)
        best, phase2 = phase(ctx, best)
        iterations += phase2
    return best_estimate(ctx, best, iterations, used_backmatching=used_backmatching,
                         phase1_fitted=phase1_count)
