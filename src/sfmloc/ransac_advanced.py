"""Advanced RANSAC: co-occurrence prior sampling and backmatching.

Minimal samples are drawn sequentially with an acceptance probability
driven by the size of the intersection of the candidates' camera
visibility sets, so points that were reconstructed from the same views
end up in the same sample.  Each phase runs the shared RANSAC loop,
ransac_basic.search, with this sampler and no early stop, so it always
runs its full iteration count.  If the first phase does not fit enough
matches, additional correspondences are recovered by matching 3D
points back into the query image through a view-prioritized queue, and
a second phase runs on the augmented match set.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .descriptor_index import DescriptorIndex, Matches, ratio_test
from .errors import InsufficientMatches, SamplingExhausted
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


@dataclass(frozen=True)
class BackmatchParams:
    """Knobs of the 3D-to-2D backmatching stage."""

    target_backmatches: int = 100
    ratio: float = 0.7
    priority_booster: int = 10
    pool: str = "covisible"  # or "all"
    pop_cap_factor: int = 50


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


def _draw_cooccurrence_idx(point_ids, vis_sets, n: int,
                           params: AdvancedParams, rng) -> list:
    """Indices of n matches drawn sequentially under the co-occurrence prior.

    The first match must be visible in at least min_seed_cameras
    cameras (falling back to the best available); subsequent uniform
    candidates are accepted with accept_probability.  A run of more
    than dead_end_limit consecutive zero intersections discards the
    sample and restarts from a new first point.

    The pool holds, ascending, the matches whose point is not chosen yet;
    only an acceptance rebuilds it, so a rejected draw scans no matches.
    """
    distinct = len(np.unique(point_ids))
    if distinct < n:
        raise InsufficientMatches(
            f"need {n} matches with distinct points, have {distinct}")
    sizes = np.fromiter(map(len, vis_sets), dtype=np.intp,
                        count=len(vis_sets))
    seeds = np.flatnonzero(sizes >= params.min_seed_cameras)
    if len(seeds) == 0:
        seeds = np.flatnonzero(sizes == sizes.max())

    for _ in range(params.max_restarts):
        first = int(seeds[rng.integers(len(seeds))])
        chosen = [first]
        running = frozenset(vis_sets[first])
        zero_streak = 0
        pool = np.flatnonzero(point_ids != point_ids[first])
        dead_end = False
        while len(chosen) < n and not dead_end:
            cand = int(pool[rng.integers(len(pool))])
            inter = len(running & vis_sets[cand])
            if inter == 0:
                zero_streak += 1
                if zero_streak > params.dead_end_limit:
                    dead_end = True
                continue
            zero_streak = 0
            p = accept_probability(inter, len(running),
                                   len(vis_sets[cand]), params.k_sigmoid)
            if rng.random() < p:
                chosen.append(cand)
                pool = pool[point_ids[pool] != point_ids[cand]]
                running = running & vis_sets[cand]
        if not dead_end:
            return chosen
    raise SamplingExhausted(
        f"no co-occurring sample after {params.max_restarts} restarts")


def _covisible_pool(model: SfmModel, cameras: set) -> np.ndarray:
    """Model points sharing at least one camera with the given set."""
    mask = np.isin(model.track_cams, np.fromiter(cameras, dtype=np.int32))
    lens = np.diff(model.track_offsets)
    point_of_entry = np.repeat(np.arange(model.num_points), lens)
    return np.unique(point_of_entry[mask])


def backmatch(query: QueryImage, model: SfmModel, good: Matches,
              params: BackmatchParams = BackmatchParams()) -> Matches:
    """Match 3D points back into the query image, guided by visibility.

    Builds a fresh NN index over the query features, then processes a
    priority queue of candidate model points.  Points of existing good
    matches are boosted to the top; every accepted backmatch raises the
    priority of all points co-visible with it, so the search spreads
    along the view graph.  Returns the input matches followed by newly
    accepted ones; a query feature that is already matched is not
    matched again.
    """
    if not len(good) or model.num_points == 0 or len(query.features) == 0:
        return good
    if model.mean_descriptors is None:
        raise ValueError("model has no mean descriptors")

    feat_index = DescriptorIndex(query.features.descriptor)
    if len(feat_index) < 2:
        return good

    visibilities = model.visibilities
    if params.pool == "all":
        pool = np.arange(model.num_points)
    else:
        pool = _covisible_pool(model, set().union(*good.visibility))
    pool_set = set(int(p) for p in pool)
    pool_set.update(good.point_idx.tolist())

    # camera -> pool points seen by it, for the priority updates
    cam_to_points = {}
    for pi in pool_set:
        for cam in visibilities[pi]:
            cam_to_points.setdefault(cam, []).append(pi)

    priority = dict.fromkeys(pool_set, 0)
    priority.update(dict.fromkeys(good.point_idx.tolist(),
                                  params.priority_booster))

    heap = [(-prio, pi) for pi, prio in priority.items()]
    heapq.heapify(heap)

    matched_features = set(good.feature_idx.tolist())
    processed = set()
    new = []  # (feature_idx, point_idx, d1, d2)
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
        for cam in visibilities[pi]:
            for pj in cam_to_points.get(cam, ()):
                if pj not in processed:
                    priority[pj] += 1
                    heapq.heappush(heap, (-priority[pj], pj))

        fi = int(idx[0, 0])
        if fi in matched_features:
            continue
        new.append((fi, pi, d1, d2))
        matched_features.add(fi)

    if not new:
        return good
    fi, pi, d1, d2 = (np.array(col) for col in zip(*new))
    return good + Matches(fi, pi, d1, d2, visibilities[pi],
                          model.positions[pi])


def estimate_pose_advanced(query: QueryImage, matches: Matches, model: SfmModel,
                           adv: AdvancedParams = AdvancedParams(),
                           back: BackmatchParams = BackmatchParams(),
                           solver: str = "auto") -> PoseEstimate:
    """Localize one query with the advanced pipeline.

    Phase one runs exactly adv.iterations_per_phase co-occurrence
    iterations.  If its best pose fits skip_count matches (or the
    skip_fraction share), backmatching is skipped and that pose is
    returned; otherwise the match set is augmented by backmatching and
    a second phase of the same length runs on it.
    """
    focal = query.exif_focal_px
    size = sample_size(matches, focal, solver)
    rng = np.random.default_rng(adv.rng_seed)

    def draw(m: Matches):
        try:
            return _draw_cooccurrence_idx(m.point_idx, m.visibility, size, adv, rng)
        except SamplingExhausted:
            return None

    ctx = MatchContext(query, matches, adv.inlier_threshold,
                       adv.inlier_metric, adv.min_fitted)
    best, iterations = search(ctx, draw, adv.iterations_per_phase, focal, solver)
    phase1_count = 0 if best is None else best[2]
    skip_at = min(adv.skip_count, int(np.ceil(adv.skip_fraction * len(matches))))
    used_backmatching = best is None or best[2] < skip_at
    if used_backmatching:
        ctx = MatchContext(query, backmatch(query, model, matches, back),
                           adv.inlier_threshold, adv.inlier_metric, adv.min_fitted)
        # re-score the phase-1 best against the augmented good set so
        # both phases compete on the same footing
        if best is not None:
            count, stats, mask = ctx.evaluate(best[1])
            best = None if stats is None else (stats.q, best[1], count, stats, mask)
        best, phase2 = search(ctx, draw, adv.iterations_per_phase, focal, solver, best)
        iterations += phase2
    return best_estimate(ctx, best, iterations, used_backmatching=used_backmatching,
                         phase1_fitted=phase1_count)
