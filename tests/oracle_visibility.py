"""Frozenset visibility: the oracles of sfmloc's bitmask sampler and CSR backmatch.

Each point's cameras are a frozenset (SfmModel.visibilities), as they
were before the sampler intersected int bitmasks and backmatching read
the model's view lists directly.  draw_cooccurrence_idx is the sampler
with the same pool and generator calls as sfmloc's; backmatch builds
its camera -> pool points dict on every run.
"""

import heapq

import numpy as np

from sfmloc.descriptor_index import DescriptorIndex, Matches, ratio_test
from sfmloc.errors import SamplingExhausted
from sfmloc.ransac_advanced import BackmatchParams, accept_probability


def seed_matches(vis_sets, min_cameras: int) -> np.ndarray:
    """Matches seen by at least min_cameras cameras, else those seen by the most."""
    sizes = np.fromiter(map(len, vis_sets), dtype=np.intp, count=len(vis_sets))
    seeds = np.flatnonzero(sizes >= min_cameras)
    return seeds if len(seeds) else np.flatnonzero(sizes == sizes.max())


def draw_cooccurrence_idx(point_ids, vis_sets, seeds, n: int, params, rng) -> list:
    """Indices of n matches drawn under the co-occurrence prior, on frozensets."""
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


def backmatch(query, model, good: Matches,
              params: BackmatchParams = BackmatchParams()) -> Matches:
    """3D-to-2D backmatching with a camera -> pool points dict per run."""
    if not len(good) or model.num_points == 0 or len(query.features) == 0:
        return good
    if len(np.unique(good.feature_idx)) == len(query.features):
        return good

    feat_index = DescriptorIndex(query.features.descriptor)

    visibilities = model.visibilities
    if params.pool == "all":
        pool = np.arange(model.num_points)
    else:  # points sharing a camera with a good match
        good_vis = visibilities[good.point_idx]
        cams = np.fromiter(set().union(*good_vis), dtype=np.int32)
        pool = np.unique(model.track_points[np.isin(model.track_cams, cams)])
    pool_set = set(int(p) for p in pool)
    pool_set.update(good.point_idx.tolist())

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
    new = []
    pops = 0
    pop_cap = params.pop_cap_factor * params.target_backmatches

    while heap and len(new) < params.target_backmatches and pops < pop_cap:
        neg_prio, pi = heapq.heappop(heap)
        if pi in processed or -neg_prio != priority[pi]:
            continue
        processed.add(pi)
        pops += 1

        dists, idx = feat_index.query(model.mean_descriptors[pi].astype(float), 2)
        if not ratio_test(float(dists[0, 0]), float(dists[0, 1]), params.ratio):
            continue

        for cam in visibilities[pi]:
            for pj in cam_to_points.get(cam, ()):
                if pj not in processed:
                    priority[pj] += 1
                    heapq.heappush(heap, (-priority[pj], pj))

        fi = int(idx[0, 0])
        if fi in matched_features:
            continue
        new.append((fi, pi))
        matched_features.add(fi)

    if not new:
        return good
    fi, pi = (np.array(col) for col in zip(*new))
    return good + Matches(fi, pi)
