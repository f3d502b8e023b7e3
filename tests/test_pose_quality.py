"""Fitted-match test and coverage quality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfmloc import (
    BasicParams,
    MatchContext,
    Matches,
    Pose,
    build_index,
    coverage_area_xy,
    coverage_window,
    find_good_matches,
    fitted_mask,
    normalize_points,
)
from sfmloc.errors import InvalidParams
from sfmloc.minimal_solvers import Candidates
from sfmloc.sfm_data import QueryImage, keyfile_records

from conftest import points_model


def make_query(xy, width=400, height=300):
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    feats = keyfile_records(xy, np.zeros((len(xy), 128), dtype=np.uint8))
    return QueryImage(name="q", width=width, height=height, features=feats)


def make_context(query):
    """Scoring context over one match per query feature."""
    n = len(query.features)
    matches = Matches(np.arange(n), np.arange(n))
    return MatchContext(query, matches, points_model(np.tile([0.0, 0.0, 1.0], (n, 1))),
                        BasicParams(min_fitted=1))


def fitted_count(pose, good, query, model, threshold, metric="ray"):
    params = BasicParams(inlier_threshold=threshold, inlier_metric=metric, min_fitted=1)
    ctx = MatchContext(query, good, model, params)
    return ctx.evaluate(ctx.fitted(pose))[0]


def small_rotation(rng, angle):
    """Rotation by `angle` radians about a random axis (Rodrigues)."""
    axis = rng.normal(size=3)
    x, y, z = axis / np.linalg.norm(axis)
    k =np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k


def oracle_fitted_mask(pose, centered_xy, positions, threshold, metric):
    """The world-frame fitted-match test of one pose, with its distances.

    "ray": distance from each point to its feature's viewing ray;
    "pixel": reprojection error.  Points behind the camera never fit.
    """
    if metric == "ray":
        d_cam = np.column_stack([centered_xy, np.full(len(centered_xy), pose.focal_px)])
        d_world = d_cam @ pose.rotation  # rows: R^T @ d_cam
        d_world /= np.linalg.norm(d_world, axis=1, keepdims=True)
        v = positions - pose.center
        along = np.einsum("ij,ij->i", v, d_world)
        dist = np.linalg.norm(v - along[:, None] * d_world, axis=1)
        return (along > 0.0) & (dist < threshold), dist
    pc = pose.world_to_camera(positions)
    depth = pc[:, 2]
    safe = np.where(depth > 0.0, depth, 1.0)
    dist = np.linalg.norm(pose.focal_px * pc[:, :2] / safe[:, None] - centered_xy, axis=1)
    return (depth > 0.0) & (dist < threshold), dist


def first(n, k):
    """Mask selecting the first k of n matches."""
    return np.arange(n) < k


def oracle_coverage_area(xy: np.ndarray, width: int, height: int, c: int) -> int:
    """Distinct pixels under (2c+1)^2 windows centered at each coordinate."""
    cover = np.zeros((height, width), dtype=bool)
    _paint_windows(cover, xy, width, height, c)
    return int(cover.sum())


def _paint_windows(cover, xy, width, height, c):
    for x, y in np.atleast_2d(xy):
        x0 = max(0, int(np.ceil(x - c)))
        x1 = min(width - 1, int(np.floor(x + c)))
        y0 = max(0, int(np.ceil(y - c)))
        y1 = min(height - 1, int(np.floor(y + c)))
        if x0 <= x1 and y0 <= y1:
            cover[y0:y1 + 1, x0:x1 + 1] = True


@st.composite
def window_sets(draw):
    """An image, a half window and centres that stress the window edges.

    Centres fall inside, on and outside the border, exactly k +- c from
    an integer k (where ceil and floor meet an edge), repeat earlier
    centres, and c may reach past the whole image.
    """
    width, height = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    c = draw(st.integers(1, 60))

    def coordinate(size):
        return st.one_of(
            st.floats(-c - 3.0, size + c + 3.0, allow_nan=False),
            st.integers(-c - 2, size + c + 1).map(float),
            st.tuples(st.integers(-1, size), st.sampled_from([-c, c]),
                      st.sampled_from([0.0, -1e-9, 1e-9])).map(sum),
            st.sampled_from([0.0, size - 1.0, -0.5, size - 0.5]))

    centre = st.tuples(coordinate(width), coordinate(height))
    centres = draw(st.lists(centre, max_size=25))
    if centres:
        centres += draw(st.lists(st.sampled_from(centres), max_size=5))
    return np.array(centres, dtype=float).reshape(-1, 2), width, height, c


class TestFittedMatches:
    def test_true_pose_fits_all(self, scene_matches, clean_scene):
        query, golden, good = scene_matches
        assert fitted_count(golden, good, query, clean_scene.model, 0.5) == len(good)

    def test_reversed_pose_fits_none(self, scene_matches, clean_scene):
        query, golden, good = scene_matches
        half_turn = np.diag([-1.0, 1.0, -1.0])  # about the up axis
        wrong = Pose(half_turn @ golden.rotation, golden.center,
                     golden.focal_px)
        assert fitted_count(wrong, good, query, clean_scene.model, 0.5) == 0

    def test_empty_matches(self, scene_matches, clean_scene):
        query, golden, _ = scene_matches
        assert fitted_count(golden, Matches.empty(), query, clean_scene.model, 0.5) == 0

    def test_pixel_metric(self, scene_matches, clean_scene):
        query, golden, good = scene_matches
        assert fitted_count(golden, good, query, clean_scene.model, 2.0,
                            "pixel") == len(good)

    @pytest.mark.parametrize("metric, threshold, name", [
        ("manhattan", 0.5, "metric 'manhattan'"), ("ray", 0.0, "threshold 0.0"),
        ("ray", float("nan"), "threshold nan"), ("pixel", "2", "threshold '2'"),
        pytest.param("ray", 10**400, f"threshold {10**400}",
                     id="ray-beyond_float")])
    def test_bad_test_settings_raise(self, scene_matches, clean_scene, metric,
                                     threshold, name):
        """fitted_mask checks its own metric and threshold, as the params
        classes do; an unknown metric used to run the pixel test."""
        query, golden, good = scene_matches
        xy = normalize_points(query.features.xy[good.feature_idx],
                              query.width, query.height)
        world = clean_scene.model.positions[good.point_idx]
        with pytest.raises(InvalidParams, match=rf"^{name} is not "):
            fitted_mask(golden, xy, world, threshold, metric)

    @pytest.mark.parametrize("metric, threshold", [("ray", 0.5), ("pixel", 4.0)])
    def test_stacked_masks_equal_the_oracle(self, noisy_scene, metric, threshold):
        """Each row of a stacked camera-frame mask is the world-frame test's
        mask, but for distances within 1e-9 of the threshold; stacking
        changes no entry."""
        model = noisy_scene.model
        query, golden = noisy_scene.queries[0]
        index = build_index(model.mean_descriptors)
        good = find_good_matches(index, query, 0.9)
        xy = normalize_points(query.features.xy[good.feature_idx],
                              query.width, query.height)
        rng = np.random.default_rng(12)
        poses = [Pose(small_rotation(rng, 0.02) @ golden.rotation,
                      golden.center + rng.normal(0.0, 0.5, 3),
                      golden.focal_px * rng.uniform(0.97, 1.03))
                 for _ in range(40)]
        stack = Candidates(np.arange(40), np.array([p.rotation for p in poses]),
                           np.array([p.center for p in poses]),
                           np.array([p.focal_px for p in poses]))
        world = model.positions[good.point_idx]
        got = fitted_mask(stack, xy, world, threshold, metric)
        assert got.shape == (40, len(good))
        near = 0
        for pose, row in zip(poses, got):
            want, dist = oracle_fitted_mask(pose, xy, world, threshold, metric)
            differ = row != want
            assert np.all(np.abs(dist[differ] - threshold) <= 1e-9 * threshold)
            near += int(differ.sum())
            assert np.array_equal(fitted_mask(pose, xy, world, threshold, metric), row)
        assert near == 0
        assert 0 < got.sum() < got.size  # the poses fit some matches, not all


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(window_sets())
    def test_equals_painting_oracle(self, case):
        xy, width, height, c = case
        assert coverage_area_xy(xy, width, height, c) == \
            oracle_coverage_area(xy, width, height, c)

    @pytest.mark.parametrize("xy, c", [
        (np.empty((0, 2)), 5),                             # no windows
        (np.array([[3.0, 4.0], [3.0, 4.0]]), 60),          # c past the image
        (np.array([[-5.0, 2.0], [44.0, 2.0]]), 5),         # edges exactly on the border
        (np.array([[-5.5, 2.0], [44.0 + 1e-9, 2.0]]), 5),  # just outside it
    ])
    def test_edge_cases_equal_the_oracle(self, xy, c):
        assert coverage_area_xy(xy, 40, 30, c) == oracle_coverage_area(xy, 40, 30, c)

    def test_keys_past_int32_equal_a_small_image(self):
        """The same windows, moved where row * width passes 2^31 in a
        65 536-square image, cover what they cover in a small one."""
        rng = np.random.default_rng(3)
        xy = rng.uniform(20.0, (380.0, 280.0), size=(60, 2))
        small = coverage_area_xy(xy, 400, 300, 15)
        assert coverage_area_xy(xy + (40_000.0, 50_000.0), 2**16, 2**16, 15) == small

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
