"""Co-occurrence sampling, backmatching and the advanced pipeline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sfmloc import (
    AdvancedParams,
    BackmatchParams,
    DescriptorIndex,
    Matches,
    accept_probability,
    backmatch,
    estimate_pose_advanced,
    find_good_matches,
    pose_error,
    ransac_advanced,
)
from sfmloc.errors import EmptyInput, InsufficientMatches, InvalidParams, SamplingExhausted
from sfmloc.ransac_advanced import _draw_cooccurrence_idx, _seed_matches
from sfmloc.sfm_data import QueryImage, SfmModel, keyfile_records

import oracle_visibility
from conftest import points_model


def as_bits(vis_sets) -> list:
    """Each camera set as the sampler's bitmask: bit c for camera c."""
    return [sum(1 << c for c in v) for v in vis_sets]


def draw_idx(point_ids, vis_sets, n, params, rng):
    """One co-occurrence sample with the seed list a phase would build."""
    bits = as_bits(vis_sets)
    seeds = _seed_matches(bits, params.min_seed_cameras)
    return _draw_cooccurrence_idx(point_ids, bits, seeds, n, params, rng)


def draw(point_ids, vis_sets, n, rng):
    """Point ids and visibility sets of one co-occurrence sample."""
    idx = draw_idx(np.asarray(point_ids), vis_sets, n, AdvancedParams(), rng)
    return [point_ids[i] for i in idx], [vis_sets[i] for i in idx]


class TestAcceptProbability:
    def test_value_at_k(self):
        p = accept_probability(5, 5, 5, 5.0)
        assert abs(p - 1.0 / (1.0 + np.exp(-1.0))) < 1e-12
        assert abs(p - 0.7310585786300049) < 1e-12

    def test_zero_intersection(self):
        assert accept_probability(0, 10, 10, 5.0) == 0.0

    def test_large_intersection(self):
        p = accept_probability(50, 50, 60, 5.0)
        assert abs(p - 1.0 / (1.0 + np.exp(-10.0))) < 1e-12
        assert p > 0.9999

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
           st.floats(0.5, 20.0))
    def test_bounds(self, inter, prev, size, k):
        inter = min(inter, prev, size)
        p = accept_probability(inter, prev, size, k)
        assert 0.0 <= p <= 1.0
        assert p > 0.0

    def test_strictly_increasing_in_intersection(self):
        prev, size, k = 20, 20, 5.0
        values = [accept_probability(i, prev, size, k)
                  for i in range(1, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("cls, field, value", [
    pytest.param(BackmatchParams, "ratio", 1.5, id="ratio_above_1"),
    pytest.param(BackmatchParams, "ratio", 0.0, id="ratio_0"),
    pytest.param(BackmatchParams, "ratio", -0.5, id="ratio_negative"),
    pytest.param(BackmatchParams, "ratio", float("nan"), id="ratio_nan"),
    pytest.param(BackmatchParams, "pool", "covisble", id="misspelt_pool"),
    pytest.param(AdvancedParams, "k_sigmoid", 0.0, id="k_sigmoid_0"),
    pytest.param(AdvancedParams, "k_sigmoid", float("nan"), id="k_sigmoid_nan"),
    pytest.param(AdvancedParams, "k_sigmoid", float("inf"), id="k_sigmoid_inf"),
    pytest.param(AdvancedParams, "inlier_threshold", -0.5, id="threshold_negative"),
    pytest.param(AdvancedParams, "inlier_metric", "manhattan", id="unknown_metric"),
    pytest.param(BackmatchParams, "priority_booster", -1, id="booster_negative"),
    pytest.param(BackmatchParams, "priority_booster", 2**31, id="booster_past_int32"),
    pytest.param(BackmatchParams, "priority_booster", 10**20, id="booster_past_int64"),
    pytest.param(AdvancedParams, "iterations_per_phase", -5, id="iterations_negative"),
    pytest.param(AdvancedParams, "skip_fraction", float("nan"), id="skip_fraction_nan"),
    pytest.param(AdvancedParams, "skip_fraction", float("-inf"), id="skip_fraction_-inf"),
    pytest.param(AdvancedParams, "skip_count", -1, id="skip_count_negative"),
    pytest.param(AdvancedParams, "dead_end_limit", -1, id="dead_end_limit_negative"),
    pytest.param(AdvancedParams, "min_seed_cameras", -1, id="min_seed_cameras_negative"),
    pytest.param(AdvancedParams, "min_fitted", -1, id="min_fitted_negative"),
    pytest.param(AdvancedParams, "max_restarts", -1, id="max_restarts_negative"),
    pytest.param(AdvancedParams, "rng_seed", -1, id="seed_negative"),
    pytest.param(BackmatchParams, "target_backmatches", -1, id="target_negative"),
    pytest.param(BackmatchParams, "pop_cap_factor", -5, id="pop_cap_negative"),
    pytest.param(AdvancedParams, "iterations_per_phase", 2.5, id="iterations_fractional"),
    pytest.param(AdvancedParams, "min_fitted", True, id="min_fitted_bool"),
    pytest.param(AdvancedParams, "rng_seed", 1.5, id="seed_fractional"),
    pytest.param(AdvancedParams, "inlier_threshold", "0.5", id="threshold_str"),
    pytest.param(AdvancedParams, "k_sigmoid", None, id="k_sigmoid_none"),
    pytest.param(BackmatchParams, "ratio", "0.7", id="ratio_str"),
    pytest.param(BackmatchParams, "ratio", True, id="ratio_bool"),
    pytest.param(BackmatchParams, "target_backmatches", 100.0, id="target_float"),
    pytest.param(AdvancedParams, "k_sigmoid", -10**400, id="k_sigmoid_beyond_float"),
])
def test_invalid_params_raise(cls, field, value):
    with pytest.raises(InvalidParams, match=rf"^{cls.__name__}\.{field} "):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field, value", [
    (AdvancedParams, "iterations_per_phase", 0), (AdvancedParams, "skip_fraction", -0.5),
    (AdvancedParams, "k_sigmoid", 1e-9), (AdvancedParams, "inlier_metric", "pixel"),
    (BackmatchParams, "ratio", 1.0), (BackmatchParams, "priority_booster", 0),
    (BackmatchParams, "pool", "all"), (BackmatchParams, "pop_cap_factor", 0),
    (AdvancedParams, "iterations_per_phase", np.int64(12)),
    (AdvancedParams, "inlier_threshold", np.float32(0.5)), (AdvancedParams, "k_sigmoid", 5),
    (BackmatchParams, "ratio", np.float32(0.5)), (BackmatchParams, "ratio", 1),
    (AdvancedParams, "skip_fraction", 1e308), (AdvancedParams, "skip_fraction", -1e308),
    (BackmatchParams, "priority_booster", 2**31 - 1),
])
def test_edge_params_are_accepted(cls, field, value):
    assert getattr(cls(**{field: value}), field) == value


class TestDrawCooccurrence:
    def test_shared_visibility_returns_distinct(self):
        vis = [frozenset(range(6))] * 10
        rng = np.random.default_rng(0)
        points, _ = draw(list(range(10)), vis, 3, rng)
        assert len(set(points)) == 3

    def test_disjoint_clusters_never_mixed(self):
        cluster_a = frozenset({0, 1, 2, 3, 4})
        cluster_b = frozenset({10, 11, 12, 13, 14})
        vis = [cluster_a] * 6 + [cluster_b] * 6
        rng = np.random.default_rng(1)
        for _ in range(100):
            points, _ = draw(list(range(12)), vis, 3, rng)
            in_a = [p < 6 for p in points]
            assert all(in_a) or not any(in_a)

    def test_prefix_intersections_nonempty(self):
        rng = np.random.default_rng(2)
        vis = [frozenset(rng.choice(12, size=6, replace=False).tolist())
               for _ in range(20)]
        for _ in range(50):
            _, got = draw(list(range(20)), vis, 4, rng)
            running = set(got[0])
            for v in got[1:]:
                running &= v
                assert running

    def test_first_point_needs_seed_cameras(self):
        vis = [frozenset(range(8))] + [frozenset({0, 1})] * 5
        rng = np.random.default_rng(3)
        for _ in range(30):
            points, _ = draw(list(range(6)), vis, 3, rng)
            assert points[0] == 0

    def test_seed_fallback_to_largest(self):
        points, _ = draw(list(range(4)), [frozenset({0, 1, 2})] * 4, 3,
                         np.random.default_rng(4))
        assert len(points) == 3


def oracle_draw_cooccurrence_idx(point_ids, vis_sets, n: int,
                                 params: AdvancedParams, rng) -> list:
    """The sampler as it was when each candidate draw rescanned every
    match; the reference the pool-shrinking version must reproduce."""
    if len(set(point_ids.tolist())) < n:
        raise InsufficientMatches(
            f"need {n} matches with distinct points, have "
            f"{len(set(point_ids.tolist()))}")
    sizes = np.array([len(v) for v in vis_sets])
    seeds = np.flatnonzero(sizes >= params.min_seed_cameras)
    if len(seeds) == 0:
        seeds = np.flatnonzero(sizes == sizes.max())

    for _ in range(params.max_restarts):
        first = int(seeds[rng.integers(len(seeds))])
        chosen = [first]
        running = frozenset(vis_sets[first])
        zero_streak = 0
        chosen_points = {int(point_ids[first])}
        dead_end = False
        while len(chosen) < n and not dead_end:
            pool = [i for i in range(len(point_ids))
                    if int(point_ids[i]) not in chosen_points]
            cand = pool[rng.integers(len(pool))]
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
                chosen_points.add(int(point_ids[cand]))
                running = running & vis_sets[cand]
        if not dead_end:
            return chosen
    raise SamplingExhausted(
        f"no co-occurring sample after {params.max_restarts} restarts")


def outcome(sampler, point_ids, vis_sets, n, params, seed):
    """(indices or exception type, final generator state) of one call."""
    rng = np.random.default_rng(seed)
    try:
        got = sampler(np.asarray(point_ids), vis_sets, n, params, rng)
    except (InsufficientMatches, SamplingExhausted) as exc:
        got = type(exc)
    return got, rng.bit_generator.state


def repeated_points():
    """40 matches of 12 points: several features match the same point."""
    rng = np.random.default_rng(5)
    point_ids = rng.integers(0, 12, 40)
    point_vis = [frozenset(rng.choice(10, size=rng.integers(2, 8),
                                      replace=False).tolist())
                 for _ in range(12)]
    return point_ids, [point_vis[p] for p in point_ids], 4, AdvancedParams()


def dead_ends():
    """A seed in the 3-match cluster rarely draws its 2 partners among
    63 candidates before the 31-draw dead-end limit, so it restarts."""
    vis = [frozenset(range(6))] * 3 + [frozenset(range(10, 16))] * 60
    return np.arange(63), vis, 3, AdvancedParams()


def few_cameras():
    """No match is seen by min_seed_cameras (5) cameras, so samples start
    from the matches seen by the most."""
    rng = np.random.default_rng(6)
    vis = [frozenset(rng.choice(6, size=rng.integers(1, 5), replace=False).tolist())
           for _ in range(30)]
    return np.arange(30), vis, 3, AdvancedParams()


def exhausted():
    """Pairwise disjoint visibility: every sample ends in a dead end."""
    vis = [frozenset(range(5 * i, 5 * i + 5)) for i in range(10)]
    return (np.arange(10), vis, 3,
            AdvancedParams(max_restarts=5, dead_end_limit=4))


class TestDrawCooccurrenceOracle:
    """Same indices, exception and generator state as the oracle."""

    def check(self, point_ids, vis_sets, n, params):
        results = []
        for seed in range(200):
            new = outcome(draw_idx, point_ids, vis_sets, n, params, seed)
            assert new == outcome(oracle_draw_cooccurrence_idx, point_ids,
                                  vis_sets, n, params, seed), seed
            results.append(new[0])
        return results

    @pytest.mark.parametrize("n", [3, 4])
    def test_scene_matches(self, scene_matches, clean_scene, n):
        _, _, good = scene_matches
        vis = clean_scene.model.visibilities[good.point_idx]
        self.check(good.point_idx, vis, n, AdvancedParams())

    def test_repeated_point_ids(self):
        point_ids, vis, n, params = repeated_points()
        assert len(np.unique(point_ids)) < len(point_ids)
        results = self.check(point_ids, vis, n, params)
        assert all(len(set(point_ids[r].tolist())) == n for r in results)

    def test_dead_end_restarts(self):
        point_ids, vis, n, params = dead_ends()
        self.check(point_ids, vis, n, params)
        # one restart allowed: some seeds dead-end, so the fixture
        # really exercises the restart path
        once = self.check(point_ids, vis, n,
                          AdvancedParams(max_restarts=1))
        assert SamplingExhausted in once
        assert any(isinstance(r, list) for r in once)

    def test_seed_fallback(self):
        point_ids, vis, n, params = few_cameras()
        sizes = {len(v) for v in vis}
        assert max(sizes) < params.min_seed_cameras and len(sizes) > 1
        self.check(point_ids, vis, n, params)

    def test_sampling_exhausted(self):
        results = self.check(*exhausted())
        assert set(results) == {SamplingExhausted}


def with_repeated_views(model):
    """model with each point's first view-list entry listed again at its end."""
    bounds = model.track_offsets.tolist()
    entries = [e for a, b in zip(bounds, bounds[1:]) for e in [*range(a, b), a]]
    return SfmModel(model.cameras, model.positions, model.colors,
                    model.track_offsets + np.arange(len(bounds)),
                    model.track_cams[entries], model.track_keys[entries],
                    model.track_xy[entries], model.mean_descriptors)


@pytest.fixture(scope="module", params=[False, True], ids=["views", "repeated"])
def noisy_model(request, noisy_scene):
    """The noisy scene's model, and the same with a camera listed twice in
    every view list; camera sets, and so sampling and backmatching, agree."""
    model = noisy_scene.model
    return with_repeated_views(model) if request.param else model


def noisy_good(noisy_scene, model, qi):
    index = DescriptorIndex(model.mean_descriptors)
    query, _ = noisy_scene.queries[qi]
    return query, find_good_matches(index, query, 0.9)


class TestBitmaskSamplerOracle:
    """The bitmask sampler on the model's view lists draws what the
    frozenset sampler draws, and leaves the generator where it does."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("params", [
        AdvancedParams(), AdvancedParams(dead_end_limit=1, max_restarts=3)],
        ids=["default", "restarting"])
    def test_same_draws(self, noisy_scene, noisy_model, n, params):
        _, good = noisy_good(noisy_scene, noisy_model, 0)
        bits = noisy_model.view_bits(good.point_idx)
        vis = noisy_model.visibilities[good.point_idx]
        assert bits == [sum(1 << c for c in v) for v in vis]
        seeds = _seed_matches(bits, params.min_seed_cameras)
        assert np.array_equal(
            seeds, oracle_visibility.seed_matches(vis, params.min_seed_cameras))

        def new(point_ids, _, n, params, rng):
            return _draw_cooccurrence_idx(point_ids, bits, seeds, n, params, rng)

        def old(point_ids, vis_sets, n, params, rng):
            return oracle_visibility.draw_cooccurrence_idx(
                point_ids, vis_sets, seeds, n, params, rng)
        results = []
        for seed in range(300):
            got = outcome(new, good.point_idx, vis, n, params, seed)
            assert got == outcome(old, good.point_idx, vis, n, params, seed), seed
            results.append(got[0])
        if params.max_restarts == 3:
            assert SamplingExhausted in results
        assert any(isinstance(r, list) for r in results)


class TestBackmatchOracle:
    """backmatch returns the frozenset oracle's matches, in its order."""

    @pytest.mark.parametrize("pool", ["covisible", "all"])
    @pytest.mark.parametrize("params", [
        {}, {"target_backmatches": 5}, {"pop_cap_factor": 1, "priority_booster": 0}],
        ids=["default", "few", "capped"])
    def test_same_matches(self, noisy_scene, noisy_model, pool, params):
        params = BackmatchParams(pool=pool, **params)
        for qi in range(3):
            query, good = noisy_good(noisy_scene, noisy_model, qi)
            # every eighth match, so that most features are left to match
            few = good.take(np.arange(0, len(good), 8))
            got = backmatch(query, noisy_model, few, params)
            want = oracle_visibility.backmatch(query, noisy_model, few, params)
            assert len(got) > len(few)
            assert np.array_equal(got.feature_idx, want.feature_idx), qi
            assert np.array_equal(got.point_idx, want.point_idx), qi


def micro_scene():
    """Five points, two cameras; point 4 is co-visible but unmatched."""
    rng = np.random.default_rng(9)
    descs = rng.integers(0, 256, (5, 128)).astype(np.uint8)
    positions = np.array([[0.0, 0.0, 10.0], [1.0, 0.0, 10.0],
                          [0.0, 1.0, 10.0], [1.0, 1.0, 10.0],
                          [0.5, 0.5, 10.0]])
    model = points_model(positions, [[0], [0, 1], [0, 1], [1], [0, 1]])
    model = model.with_mean_descriptors(descs)

    far = rng.integers(0, 256, (3, 128)).astype(np.uint8)
    feats = keyfile_records(np.outer(np.arange(5), [10.0, 5.0]),
                            [descs[1], descs[4], *far])
    query = QueryImage(name="micro", width=200, height=100, features=feats,
                       exif_focal_px=100.0)
    good = Matches([0], [1])
    return model, query, good


class TestBackmatch:
    def test_covisible_point_recovered(self):
        model, query, good = micro_scene()
        out = backmatch(query, model, good, BackmatchParams())
        pairs = set(zip(out.feature_idx.tolist(), out.point_idx.tolist()))
        assert (0, 1) in pairs          # input kept
        assert (1, 4) in pairs          # co-visible point matched feature 1

    def test_empty_inputs_identity(self):
        model, query, good = micro_scene()
        assert len(backmatch(query, model, Matches.empty(),
                             BackmatchParams())) == 0

    def test_model_without_descriptors_raises(self):
        model, query, good = micro_scene()
        with pytest.raises(EmptyInput, match="mean descriptors"):
            backmatch(query, model.with_mean_descriptors(None), good)

    def test_booster_at_its_bound_matches_as_a_small_one(self):
        """No raise in this scene passes a booster of 10, so the largest
        booster the bound admits pops the same points, and none wraps."""
        model, query, good = micro_scene()
        small, large = (backmatch(query, model, good, BackmatchParams(priority_booster=b))
                        for b in (10, 2**31 - 1))
        assert np.array_equal(small.feature_idx, large.feature_idx)
        assert np.array_equal(small.point_idx, large.point_idx)

    def test_already_matched_feature_not_duplicated(self):
        model, query, good = micro_scene()
        # make point 2's descriptor identical to the matched feature 0
        model.mean_descriptors[2] = query.features.descriptor[0]
        out = backmatch(query, model, good, BackmatchParams())
        assert out.feature_idx.tolist().count(0) == 1

    def test_never_removes_and_bounded(self):
        model, query, good = micro_scene()
        params = BackmatchParams(target_backmatches=2)
        out = backmatch(query, model, good, params)
        prefix = out.take(np.arange(len(good)))
        assert np.array_equal(prefix.feature_idx, good.feature_idx)
        assert np.array_equal(prefix.point_idx, good.point_idx)
        assert len(out) <= len(good) + params.target_backmatches


class TestEstimatePoseAdvanced:
    def test_clean_scene_no_backmatching(self, clean_scene):
        model = clean_scene.model
        diam = model.diameter
        index = DescriptorIndex(model.mean_descriptors)
        query, golden = clean_scene.queries[1]
        good = find_good_matches(index, query, 0.9)
        est = estimate_pose_advanced(query, good, model,
                                     AdvancedParams(rng_seed=0),
                                     BackmatchParams())
        err = pose_error(est.pose, golden)
        assert err.translation < 1e-3 * diam
        assert err.rotation_deg < 0.1
        assert est.used_backmatching is False
        assert est.iterations_used == 100

    def test_suppression_triggers_backmatching(self, noisy_scene):
        model = noisy_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        query, golden = noisy_scene.queries[0]
        good = find_good_matches(index, query, 0.9)
        is_outlier = np.isin(good.feature_idx, noisy_scene.outlier_labels[0])
        true_i = np.flatnonzero(~is_outlier)
        rng = np.random.default_rng(0)
        keep = true_i[rng.choice(len(true_i), 11, replace=False)]
        suppressed = good.take(np.concatenate([keep,
                                               np.flatnonzero(is_outlier)]))
        # the pool is small here, so make the 12-count rule the binding
        # skip condition (the fraction rule would fire at ceil(m/10))
        est = estimate_pose_advanced(query, suppressed, model,
                                     AdvancedParams(rng_seed=1,
                                                    skip_fraction=1.0),
                                     BackmatchParams())
        assert est.used_backmatching is True
        assert est.iterations_used == 200
        assert len(est.fitted) > est.phase1_fitted
        assert len(est.fitted) > 11

    def test_insufficient_distinct_points(self, scene_matches, clean_scene):
        query, _, good = scene_matches
        five = good.take(np.arange(5))
        collapsed = Matches(five.feature_idx, np.zeros(5))
        with pytest.raises(InsufficientMatches):
            estimate_pose_advanced(query, collapsed, clean_scene.model,
                                   AdvancedParams(rng_seed=0),
                                   BackmatchParams())

    def test_deterministic_under_seed(self, noisy_scene):
        model = noisy_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        query, _ = noisy_scene.queries[1]
        good = find_good_matches(index, query, 0.9)
        a = estimate_pose_advanced(query, good, model,
                                   AdvancedParams(rng_seed=5), BackmatchParams())
        b = estimate_pose_advanced(query, good, model,
                                   AdvancedParams(rng_seed=5), BackmatchParams())
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.center, b.pose.center)
        assert a.iterations_used == b.iterations_used

    def test_iteration_counts_are_exact(self, noisy_scene):
        model = noisy_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        for qi, (query, _) in enumerate(noisy_scene.queries[:3]):
            good = find_good_matches(index, query, 0.9)
            est = estimate_pose_advanced(query, good, model,
                                         AdvancedParams(rng_seed=qi),
                                         BackmatchParams())
            assert est.iterations_used in (100, 200)
            assert est.iterations_used == \
                (200 if est.used_backmatching else 100)


class TestBackmatchWithEveryFeatureMatched:
    """Backmatching cannot add a match when every query feature has one."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"index": 0, "query": 0, "context": 0}

        class CountingIndex(ransac_advanced.DescriptorIndex):
            def __init__(self, *args, **kwargs):
                counts["index"] += 1
                super().__init__(*args, **kwargs)

            def query(self, *args, **kwargs):
                counts["query"] += 1
                return super().query(*args, **kwargs)

        class CountingContext(ransac_advanced.MatchContext):
            def __init__(self, *args, **kwargs):
                counts["context"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ransac_advanced, "DescriptorIndex", CountingIndex)
        monkeypatch.setattr(ransac_advanced, "MatchContext", CountingContext)
        return counts

    @staticmethod
    def fully_matched(clean_scene):
        """A query holding only the features its good matches use."""
        model = clean_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        query, _ = clean_scene.queries[0]
        good = find_good_matches(index, query, 0.9)
        query = replace(query, features=query.features[good.feature_idx])
        return model, query, replace(good, feature_idx=np.arange(len(good)))

    def test_backmatch_returns_good_unindexed(self, clean_scene, counted):
        model, query, good = self.fully_matched(clean_scene)
        assert backmatch(query, model, good, BackmatchParams()) is good
        assert counted["index"] == 0 and counted["query"] == 0

    def test_second_phase_reuses_the_first_context(self, clean_scene, counted):
        model, query, good = self.fully_matched(clean_scene)
        # a skip threshold above the match count forces backmatching
        adv = AdvancedParams(rng_seed=4, skip_count=10**6, skip_fraction=2.0)
        est = estimate_pose_advanced(query, good, model, adv, BackmatchParams())
        assert est.used_backmatching and est.iterations_used == 200
        assert len(est.fitted) == len(good)
        assert counted == {"index": 0, "query": 0, "context": 1}
