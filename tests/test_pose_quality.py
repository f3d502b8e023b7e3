"""Fitted-match test and coverage quality."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sfmloc import (
    MatchContext,
    Matches,
    Pose,
    coverage_area_xy,
    coverage_window,
)
from sfmloc.sfm_data import QueryImage, keyfile_records


def make_query(xy, width=400, height=300):
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    feats = keyfile_records(xy, np.zeros((len(xy), 128), dtype=np.uint8))
    return QueryImage(name="q", width=width, height=height, features=feats)


def make_context(query, threshold=0.5, metric="ray"):
    """Scoring context over one match per query feature."""
    n = len(query.features)
    matches = Matches(np.arange(n), np.arange(n), np.zeros(n), np.ones(n),
                      [frozenset({0})] * n, np.tile([0.0, 0.0, 1.0], (n, 1)))
    return MatchContext(query, matches, threshold, metric, min_fitted=1)


def fitted_count(pose, good, query, threshold, metric="ray"):
    ctx = MatchContext(query, good, threshold, metric, min_fitted=1)
    return ctx.evaluate(pose)[0]


def first(n, k):
    """Mask selecting the first k of n matches."""
    return np.arange(n) < k


class TestFittedMatches:
    def test_true_pose_fits_all(self, scene_matches):
        query, golden, good = scene_matches
        assert fitted_count(golden, good, query, 0.5) == len(good)

    def test_reversed_pose_fits_none(self, scene_matches):
        query, golden, good = scene_matches
        half_turn = np.diag([-1.0, 1.0, -1.0])  # about the up axis
        wrong = Pose(half_turn @ golden.rotation, golden.center,
                     golden.focal_px)
        assert fitted_count(wrong, good, query, 0.5) == 0

    def test_empty_matches(self, scene_matches):
        query, golden, _ = scene_matches
        assert fitted_count(golden, Matches.empty(), query, 0.5) == 0

    def test_pixel_metric(self, scene_matches):
        query, golden, good = scene_matches
        assert fitted_count(golden, good, query, 2.0, "pixel") == len(good)


class TestCoverageArea:
    def test_interior_window(self):
        assert coverage_area_xy(np.array([[200.0, 150.0]]), 400, 300, 10) == 441

    def test_corner_window_clipped(self):
        assert coverage_area_xy(np.array([[0.0, 0.0]]), 400, 300, 10) == 121

    def test_duplicate_match_idempotent(self):
        xy = np.array([[200.0, 150.0], [200.0, 150.0]])
        assert coverage_area_xy(xy, 400, 300, 10) == 441

    def test_never_exceeds_image_area(self):
        query = make_query([(i * 5 % 400, i * 7 % 300) for i in range(100)],
                           width=40, height=30)
        xy = query.features.xy
        assert coverage_area_xy(xy, 40, 30, 15) <= 40 * 30

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(0, (400, 300), size=(20, 2))
        a = coverage_area_xy(xy, 400, 300, 10)
        b = coverage_area_xy(xy[rng.permutation(20)], 400, 300, 10)
        assert a == b

    def test_window_size(self):
        assert coverage_window(400) == 10
        assert coverage_window(41) == 1
        assert coverage_window(10) == 1


class TestQualityScore:
    def test_all_fitted_gives_one(self):
        query = make_query([(100, 100), (300, 200)])
        stats = make_context(query).score(first(2, 2))
        assert stats.q == 1.0
        assert stats.area_fitted == stats.area_good

    def test_empty_fitted_gives_zero(self):
        query = make_query([(100, 100)])
        stats = make_context(query).score(first(1, 0))
        assert stats.q == 0.0
        assert stats.area_fitted == 0

    def test_half_coverage(self):
        # two far-separated interior matches, c = 400 // 40 = 10
        query = make_query([(100, 100), (300, 200)])
        stats = make_context(query).score(first(2, 1))
        assert stats.area_good == 882
        assert stats.area_fitted == 441
        assert stats.q == 0.5

    def test_empty_good_gives_zero(self):
        query = make_query([])
        stats = make_context(query).score(first(0, 0))
        assert stats.q == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bounds_and_monotonicity(self, data):
        n = data.draw(st.integers(1, 12))
        coords = data.draw(st.lists(
            st.tuples(st.floats(0, 399), st.floats(0, 299)),
            min_size=n, max_size=n))
        ctx = make_context(make_query(coords))
        k = data.draw(st.integers(0, n))
        stats = ctx.score(first(n, k))
        assert 0.0 <= stats.q <= 1.0
        assert 0 <= stats.area_fitted <= stats.area_good
        if k < n:
            bigger = ctx.score(first(n, k + 1))
            assert bigger.q >= stats.q
