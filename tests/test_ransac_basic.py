"""Baseline RANSAC pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from sfmloc import (
    AdvancedParams,
    BasicParams,
    DescriptorIndex,
    Matches,
    estimate_pose_advanced,
    estimate_pose_basic,
    find_good_matches,
    pose_error,
    ransac_advanced,
    ransac_basic,
)
from sfmloc.errors import InsufficientMatches, InvalidParams, NoSolution, SamplingExhausted
from sfmloc.ransac_advanced import _draw_cooccurrence_idx, _seed_matches
from sfmloc.ransac_basic import MatchContext, _sample_unique_idx, solve_candidates
from sfmloc.sfm_data import QueryImage, keyfile_records

from conftest import points_model


class TestSampleUnique:
    def test_exactly_n_distinct_forced(self):
        point_ids = np.arange(3)
        rng = np.random.default_rng(0)
        got = _sample_unique_idx(point_ids, 3, rng)
        assert sorted(point_ids[got]) == [0, 1, 2]

    def test_duplicate_points_counted_once(self):
        # three matches of two points: sample_size, the samplers' only
        # check, counts each point once
        feats = keyfile_records([(10.0, 10.0)] * 3, np.zeros((3, 128), dtype=np.uint8))
        query = QueryImage(name="q", width=400, height=300, features=feats,
                           exif_focal_px=400.0)
        model = points_model(np.zeros((8, 3)))

        def size(point_idx):
            ctx = MatchContext(query, Matches(np.arange(3), point_idx), model,
                               BasicParams(), "p3p")
            return ransac_basic.sample_size(ctx)
        with pytest.raises(InsufficientMatches):
            size([5, 5, 6])
        assert size([5, 6, 7]) == 3

    def test_falls_back_to_groups_after_100_rejected_draws(self):
        """Two of 1 002 matches hold the only other points, so every
        rejection draw of three distinct points fails; the grouped draw
        then picks one match per point, as fixed by the seed."""
        point_ids = np.array([0] * 1000 + [1, 2])
        sizes = []

        class Recording:  # the generator, noting each choice's population
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def choice(self, m, **kwargs):
                sizes.append(m)
                return self.rng.choice(m, **kwargs)

            def integers(self, n):
                return self.rng.integers(n)
        got = _sample_unique_idx(point_ids, 3, Recording(4))
        assert sizes == [1002] * 100 + [3]
        assert sorted(point_ids[got]) == [0, 1, 2]
        assert np.array_equal(got, _sample_unique_idx(point_ids, 3, Recording(4)))
        assert np.array_equal(got, _sample_unique_idx(point_ids, 3,
                                                      np.random.default_rng(4)))

    def test_pairs_uniform(self):
        # 1000 draws of n=2 from 4 matches: each unordered pair ~ 1/6
        point_ids = np.arange(4)
        rng = np.random.default_rng(42)
        counts = {}
        n_draws = 1000
        for _ in range(n_draws):
            got = _sample_unique_idx(point_ids, 2, rng)
            key = tuple(sorted(point_ids[got].tolist()))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        p = 1.0 / 6.0
        sigma = np.sqrt(n_draws * p * (1 - p))
        for key, c in counts.items():
            assert abs(c - n_draws * p) < 4 * sigma


class TestEstimatePoseBasic:
    def test_clean_scene_accuracy(self, clean_scene):
        model = clean_scene.model
        diam = model.diameter
        index = DescriptorIndex(model.mean_descriptors)
        for query, golden in clean_scene.queries[:3]:
            good = find_good_matches(index, query, 0.7)
            est = estimate_pose_basic(query, good, model,
                                      BasicParams(rng_seed=0))
            err = pose_error(est.pose, golden)
            assert err.translation < 1e-3 * diam
            assert err.rotation_deg < 0.1
            assert est.pose.focal_px == query.exif_focal_px

    def test_noisy_scene_with_outliers(self, noisy_scene):
        model = noisy_scene.model
        diam = model.diameter
        index = DescriptorIndex(model.mean_descriptors)
        registered = 0
        for query, golden in noisy_scene.queries:
            good = find_good_matches(index, query, 0.7)
            est = estimate_pose_basic(query, good, model,
                                      BasicParams(rng_seed=3))
            err = pose_error(est.pose, golden)
            registered += err.translation < 0.01 * diam
            # early stop fired: fitted count certifies the stop rule
            stop_at = min(12, int(np.ceil(0.1 * len(good))))
            if est.iterations_used < 10000:
                assert len(est.fitted) >= stop_at
        assert registered >= len(noisy_scene.queries) - 1

    def test_two_matches_insufficient(self, scene_matches, clean_scene):
        query, _, good = scene_matches
        with pytest.raises(InsufficientMatches):
            estimate_pose_basic(query, good.take(np.arange(2)), clean_scene.model,
                                BasicParams(rng_seed=0))

    def test_deterministic_under_seed(self, scene_matches, clean_scene):
        query, _, good = scene_matches
        model = clean_scene.model
        a = estimate_pose_basic(query, good, model, BasicParams(rng_seed=7))
        b = estimate_pose_basic(query, good, model, BasicParams(rng_seed=7))
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.center, b.pose.center)
        assert a.iterations_used == b.iterations_used
        assert np.array_equal(a.fitted.feature_idx, b.fitted.feature_idx)

    def test_unknown_focal_uses_p4pf(self, clean_scene):
        model = clean_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        query, golden = clean_scene.queries[0]
        good = find_good_matches(index, query, 0.7)
        no_exif = type(query)(name=query.name, width=query.width,
                              height=query.height, features=query.features,
                              exif_focal_px=None)
        est = estimate_pose_basic(no_exif, good, model, BasicParams(rng_seed=1))
        err = pose_error(est.pose, golden)
        assert err.translation < 0.01 * model.diameter
        assert abs(est.pose.focal_px - golden.focal_px) / golden.focal_px < 0.01

    def test_no_solution_on_garbage(self):
        rng = np.random.default_rng(0)
        # random correspondences with no consistent pose
        positions = np.array([rng.uniform(-50, 50, 3) for _ in range(30)])
        matches = Matches(np.arange(30), np.arange(30))
        from sfmloc.sfm_data import QueryImage, keyfile_records
        xy = [(rng.uniform(0, 400), rng.uniform(0, 300)) for _ in range(30)]
        feats = keyfile_records(xy, np.zeros((30, 128), dtype=np.uint8))
        query = QueryImage(name="junk", width=400, height=300,
                           features=feats, exif_focal_px=400.0)
        with pytest.raises(NoSolution):
            estimate_pose_basic(query, matches, points_model(positions),
                                BasicParams(max_iterations=60, rng_seed=0))


@pytest.mark.parametrize("estimate", [estimate_pose_basic, estimate_pose_advanced])
def test_p3p_without_focal_fails_before_sampling(monkeypatch, scene_matches,
                                                 clean_scene, estimate):
    def sampler(*args):
        raise AssertionError("sampler called")
    monkeypatch.setattr(ransac_basic, "_sample_unique_idx", sampler)
    monkeypatch.setattr(ransac_advanced, "_draw_cooccurrence_idx", sampler)
    query, _, good = scene_matches
    with pytest.raises(NoSolution):
        estimate(replace(query, exif_focal_px=None), good, clean_scene.model,
                 solver="p3p")


@pytest.mark.parametrize("estimate", [estimate_pose_basic, estimate_pose_advanced])
def test_unknown_solver_fails_before_sampling(monkeypatch, scene_matches,
                                             clean_scene, estimate):
    def sampler(*args):
        raise AssertionError("sampler called")
    monkeypatch.setattr(ransac_basic, "_sample_unique_idx", sampler)
    monkeypatch.setattr(ransac_advanced, "_draw_cooccurrence_idx", sampler)
    query, _, good = scene_matches
    with pytest.raises(InvalidParams, match="'p3pp'"):
        estimate(query, good, clean_scene.model, solver="p3pp")


@pytest.mark.parametrize("field, value", [
    pytest.param("inlier_threshold", -0.5, id="threshold_negative"),
    pytest.param("inlier_threshold", 0.0, id="threshold_0"),
    pytest.param("inlier_threshold", float("nan"), id="threshold_nan"),
    pytest.param("inlier_threshold", float("inf"), id="threshold_inf"),
    pytest.param("inlier_metric", "manhattan", id="unknown_metric"),
    pytest.param("max_iterations", -1, id="iterations_negative"),
    pytest.param("stop_fraction", float("nan"), id="stop_fraction_nan"),
    pytest.param("stop_fraction", float("inf"), id="stop_fraction_inf"),
    pytest.param("stop_count", -1, id="stop_count_negative"),
    pytest.param("min_fitted", -1, id="min_fitted_negative"),
    pytest.param("rng_seed", -1, id="seed_negative"),
    pytest.param("max_iterations", 2.5, id="iterations_fractional"),
    pytest.param("min_fitted", True, id="min_fitted_bool"),
    pytest.param("rng_seed", 1.5, id="seed_fractional"),
    pytest.param("stop_count", 12.0, id="stop_count_float"),
    pytest.param("inlier_threshold", "0.5", id="threshold_str"),
    pytest.param("stop_fraction", None, id="stop_fraction_none"),
    pytest.param("inlier_threshold", 10**400, id="threshold_beyond_float"),
    pytest.param("stop_fraction", 10**400, id="stop_fraction_beyond_float"),
])
def test_invalid_params_raise(field, value):
    with pytest.raises(InvalidParams, match=rf"^BasicParams\.{field} "):
        BasicParams(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 0), ("inlier_threshold", 1e-9), ("stop_fraction", -0.5),
    ("stop_count", 0), ("min_fitted", 0), ("inlier_metric", "pixel"), ("rng_seed", 0),
    ("max_iterations", np.int64(12)), ("inlier_threshold", np.float32(0.5)),
    ("inlier_threshold", 2), ("rng_seed", None),
    ("stop_fraction", 1e308), ("stop_fraction", -1e308),
])
def test_edge_params_are_accepted(field, value):
    assert getattr(BasicParams(**{field: value}), field) == value


@pytest.mark.parametrize("fraction, target", [
    (0.5, 8), (0.1, 2), (1.0, 12), (1e308, 12), (0.0, 0), (-0.5, 0), (-1e308, 0),
])
def test_fit_target_clamps_the_share(fraction, target):
    """Of 15 matches, with a count of 12: a share past the count, even one
    that overflows to inf, gives the count, and one below 0 gives 0."""
    feats = keyfile_records(np.outer(np.arange(15), [10.0, 5.0]),
                            np.zeros((15, 128), dtype=np.uint8))
    query = QueryImage(name="q", width=400, height=300, features=feats,
                       exif_focal_px=400.0)
    ctx = MatchContext(query, Matches(np.arange(15), np.arange(15)),
                       points_model(np.zeros((15, 3))), BasicParams())
    assert ctx.fit_target(12, fraction) == target


class TestBothSolvers:
    """--solver both: each row's P3P candidates, then its P4Pf ones."""

    def test_rows_merge_the_single_solvers(self, scene_matches, clean_scene):
        query, _, good = scene_matches
        rng = np.random.default_rng(8)
        samples = np.array([rng.choice(len(good), 4, replace=False)
                            for _ in range(24)])
        focal = query.exif_focal_px
        both, p3p, p4pf = (
            solve_candidates(MatchContext(query, good, clean_scene.model,
                                          BasicParams(), solver), samples)
            for solver in ("both", "p3p", "p4pf"))
        assert np.all(p3p.focal_px == focal)
        assert len(p3p) and len(p4pf) and len(both) == len(p3p) + len(p4pf)
        for row in range(len(samples)):
            for name in ("rotation", "center", "focal_px"):
                want = np.concatenate([getattr(c, name)[c.sample == row]
                                       for c in (p3p, p4pf)])
                assert np.array_equal(getattr(both, name)[both.sample == row], want)
        assert np.all(np.diff(both.sample) >= 0)

    def test_clean_scene_localizes(self, scene_matches, clean_scene):
        query, golden, good = scene_matches
        est = estimate_pose_basic(query, good, clean_scene.model,
                                  BasicParams(rng_seed=0), solver="both")
        err = pose_error(est.pose, golden)
        assert err.translation < 1e-3 * clean_scene.model.diameter
        assert err.rotation_deg < 0.1

    def test_unknown_solver_fails_when_the_context_is_built(self, scene_matches,
                                                            clean_scene):
        query, _, good = scene_matches
        with pytest.raises(InvalidParams, match=r"^solver 'p3pp' "):
            MatchContext(query, good, clean_scene.model, BasicParams(), solver="p3pp")


def oracle_search(ctx, draw, iterations: int, best=None, stop_at: int | None = None):
    """The RANSAC loop, one sample at a time: (best, iterations run).

    draw() gives one minimal sample as indices into ctx.matches.  The
    caller has run sample_size on ctx, so draw may rely on enough
    distinct points.  An iteration whose draw raises SamplingExhausted
    passes without a sample.  best, None or (q, pose, fitted count,
    stats, mask), gives way only to a strictly higher q.  The loop ends
    early once best fits stop_at matches.
    """
    for it in range(iterations):
        try:
            found = solve_candidates(ctx, np.asarray(draw())[None])
            poses = [found.pose(k) for k in range(len(found))]
        except SamplingExhausted:
            poses = []
        for pose in poses:
            mask = ctx.fitted(pose)
            count, stats = ctx.evaluate(mask)
            if stats is not None and (best is None or stats.q > best[0]):
                best = (stats.q, pose, count, stats, mask)
        if stop_at is not None and best is not None and best[2] >= stop_at:
            return best, it + 1
    return best, iterations


def noisy_context(noisy_scene, qi, solver="auto"):
    """RANSAC context over the good matches of one noisy-scene query."""
    model = noisy_scene.model
    index = DescriptorIndex(model.mean_descriptors)
    query, _ = noisy_scene.queries[qi]
    good = find_good_matches(index, query, 0.9)
    return query, ransac_basic.MatchContext(query, good, model, BasicParams(), solver)


def sampler(kind, matches, size, rng, calls=None, model=None):
    """draw() of one sampler kind, appending to calls on every call.

    "exhausting" is the co-occurrence sampler with every third draw
    raising SamplingExhausted instead; the co-occurrence kinds read the
    matches' views from model.
    """
    calls = [] if calls is None else calls
    params = AdvancedParams()
    bits = None if kind == "basic" else model.view_bits(matches.point_idx)
    seeds = None if kind == "basic" else _seed_matches(bits, params.min_seed_cameras)

    def draw():
        calls.append(None)
        if kind == "basic":
            return _sample_unique_idx(matches.point_idx, size, rng)
        if kind == "exhausting" and len(calls) % 3 == 0:
            raise SamplingExhausted("every third draw")
        return _draw_cooccurrence_idx(matches.point_idx, bits, seeds, size,
                                      params, rng)
    return draw


class TestSkipBound:
    @pytest.mark.parametrize("kind", ["basic", "advanced", "exhausting"])
    @pytest.mark.parametrize("solver", ["p3p", "p4pf"])
    @pytest.mark.parametrize("stop_at", [None, 12])
    def test_search_matches_the_oracle(self, noisy_scene, monkeypatch, kind,
                                       solver, stop_at):
        """Batched search picks the one-at-a-time loop's winner, bit for bit.

        It draws what the loop draws, so the generator ends where the
        loop leaves it (an advanced phase's state for the next phase),
        and with an early stop it draws only the iterations it runs.
        """
        skipped = []
        evaluate = ransac_basic.MatchContext.evaluate

        def counting(ctx, mask, beat=-np.inf):
            count, stats = evaluate(ctx, mask, beat)
            skipped.append(stats is None and count >= ctx.params.min_fitted)
            return count, stats
        monkeypatch.setattr(ransac_basic.MatchContext, "evaluate", counting)
        for qi in (0, 1):
            query, ctx = noisy_context(noisy_scene, qi, solver)
            size = ransac_basic.sample_size(ctx)
            rngs = np.random.default_rng(qi), np.random.default_rng(qi)
            want_draws, got_draws = [], []
            want, want_its = oracle_search(
                ctx, sampler(kind, ctx.matches, size, rngs[0], want_draws,
                             noisy_scene.model),
                60, stop_at=stop_at)
            got, got_its = ransac_basic.search(
                ctx, sampler(kind, ctx.matches, size, rngs[1], got_draws,
                             noisy_scene.model),
                60, stop_at=stop_at)
            assert got_its == want_its
            assert len(got_draws) == len(want_draws) == got_its
            assert rngs[1].bit_generator.state == rngs[0].bit_generator.state
            want_q, want_pose, want_count, want_stats, want_mask = want
            assert got.quality.q == want_q and got.quality == want_stats
            assert len(got.fitted) == want_count
            assert np.array_equal(got.pose.rotation, want_pose.rotation)
            assert np.array_equal(got.pose.center, want_pose.center)
            assert got.pose.focal_px == want_pose.focal_px
            want_fitted = ctx.matches.take(want_mask)
            assert np.array_equal(got.fitted.feature_idx, want_fitted.feature_idx)
            assert np.array_equal(got.fitted.point_idx, want_fitted.point_idx)
        # without an early stop, the bound does skip candidates
        assert stop_at is not None or any(skipped)

    def test_bound_is_tight_for_disjoint_interior_windows(self):
        # ten windows of 21 x 21 pixels, apart and inside a 400 x 300 image:
        # fitting k of them covers exactly the bound's k * 21^2 pixels
        xy = [(30.0 + 35.0 * i, 40.0 + 20.0 * (i % 3)) for i in range(10)]
        feats = keyfile_records(xy, np.zeros((10, 128), dtype=np.uint8))
        query = QueryImage(name="q", width=400, height=300, features=feats)
        matches = Matches(np.arange(10), np.arange(10))
        ctx = ransac_basic.MatchContext(query, matches, points_model(np.zeros((10, 3))),
                                        BasicParams(min_fitted=1))
        assert ctx.area_good == 10 * 21 ** 2
        mask = np.arange(10) < 4
        q = ctx.evaluate(mask)[1].q
        assert q == 0.4
        assert ctx.evaluate(mask, q)[1] is None
        assert ctx.evaluate(mask, np.nextafter(q, -np.inf))[1].q == q

    def test_no_stats_only_when_q_cannot_beat(self, noisy_scene):
        query, ctx = noisy_context(noisy_scene, 2)
        draw = sampler("basic", ctx.matches, 3, np.random.default_rng(0))
        samples = np.array([draw() for _ in range(60)])
        found = ransac_basic.solve_candidates(ctx, samples)
        checked = 0
        for mask in ctx.fitted(found):
            count, stats = ctx.evaluate(mask)
            if stats is None:
                continue
            below = np.nextafter(stats.q, -np.inf)
            for beat in (0.0, below, stats.q, 0.5, 1.0):
                bounded = ctx.evaluate(mask, beat)[1]
                if bounded is None:
                    assert stats.q <= beat
                else:
                    assert bounded == stats
            # a beat just below q leaves the candidate scored
            assert ctx.evaluate(mask, below)[1] == stats
            checked += 1
        assert checked > 20
