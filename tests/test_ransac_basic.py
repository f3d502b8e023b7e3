"""Baseline RANSAC pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from sfmloc import (
    BasicParams,
    Matches,
    build_index,
    estimate_pose_advanced,
    estimate_pose_basic,
    find_good_matches,
    pose_error,
    ransac_advanced,
    ransac_basic,
    scene_diameter,
)
from sfmloc.errors import InsufficientMatches, NoSolution
from sfmloc.ransac_basic import _sample_unique_idx


class TestSampleUnique:
    def test_exactly_n_distinct_forced(self):
        point_ids = np.arange(3)
        rng = np.random.default_rng(0)
        got = _sample_unique_idx(point_ids, 3, rng)
        assert sorted(point_ids[got]) == [0, 1, 2]

    def test_insufficient_raises(self):
        with pytest.raises(InsufficientMatches):
            _sample_unique_idx(np.arange(3), 4, np.random.default_rng(0))

    def test_duplicate_points_counted_once(self):
        with pytest.raises(InsufficientMatches):
            _sample_unique_idx(np.array([5, 5, 6]), 3,
                               np.random.default_rng(0))

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
        diam = scene_diameter(model)
        index = build_index(model.mean_descriptors.astype(float))
        for query, golden in clean_scene.queries[:3]:
            good = find_good_matches(index, query, 0.7, model.visibilities,
                                     model.positions)
            est = estimate_pose_basic(query, good, model,
                                      BasicParams(rng_seed=0))
            err = pose_error(est.pose, golden)
            assert err.translation < 1e-3 * diam
            assert err.rotation_deg < 0.1
            assert est.pose.focal_px == query.exif_focal_px

    def test_noisy_scene_with_outliers(self, noisy_scene):
        model = noisy_scene.model
        diam = scene_diameter(model)
        index = build_index(model.mean_descriptors.astype(float))
        registered = 0
        for query, golden in noisy_scene.queries:
            good = find_good_matches(index, query, 0.7, model.visibilities,
                                     model.positions)
            est = estimate_pose_basic(query, good, model,
                                      BasicParams(rng_seed=3))
            err = pose_error(est.pose, golden)
            registered += err.translation < 0.01 * diam
            # early stop fired: fitted count certifies the stop rule
            stop_at = min(12, int(np.ceil(0.1 * len(good))))
            if est.iterations_used < 10000:
                assert len(est.fitted) >= stop_at
        assert registered >= len(noisy_scene.queries) - 1

    def test_two_matches_insufficient(self, scene_matches):
        query, _, good = scene_matches
        with pytest.raises(InsufficientMatches):
            estimate_pose_basic(query, good.take(np.arange(2)), None,
                                BasicParams(rng_seed=0))

    def test_deterministic_under_seed(self, scene_matches):
        query, _, good = scene_matches
        a = estimate_pose_basic(query, good, None, BasicParams(rng_seed=7))
        b = estimate_pose_basic(query, good, None, BasicParams(rng_seed=7))
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.center, b.pose.center)
        assert a.iterations_used == b.iterations_used
        assert np.array_equal(a.fitted.feature_idx, b.fitted.feature_idx)

    def test_unknown_focal_uses_p4pf(self, clean_scene):
        model = clean_scene.model
        index = build_index(model.mean_descriptors.astype(float))
        query, golden = clean_scene.queries[0]
        good = find_good_matches(index, query, 0.7, model.visibilities,
                                 model.positions)
        no_exif = type(query)(name=query.name, width=query.width,
                              height=query.height, features=query.features,
                              exif_focal_px=None)
        est = estimate_pose_basic(no_exif, good, model, BasicParams(rng_seed=1))
        err = pose_error(est.pose, golden)
        assert err.translation < 0.01 * scene_diameter(model)
        assert abs(est.pose.focal_px - golden.focal_px) / golden.focal_px < 0.01

    def test_no_solution_on_garbage(self):
        rng = np.random.default_rng(0)
        # random correspondences with no consistent pose
        positions = np.array([rng.uniform(-50, 50, 3) for _ in range(30)])
        matches = Matches(np.arange(30), np.arange(30), np.zeros(30),
                          np.ones(30), [frozenset({0})] * 30, positions)
        from sfmloc.sfm_data import QueryImage, keyfile_records
        xy = [(rng.uniform(0, 400), rng.uniform(0, 300)) for _ in range(30)]
        feats = keyfile_records(xy, np.zeros((30, 128), dtype=np.uint8))
        query = QueryImage(name="junk", width=400, height=300,
                           features=feats, exif_focal_px=400.0)
        with pytest.raises(NoSolution):
            estimate_pose_basic(query, matches, None,
                                BasicParams(max_iterations=60, rng_seed=0))


@pytest.mark.parametrize("estimate", [estimate_pose_basic, estimate_pose_advanced])
def test_p3p_without_focal_fails_before_sampling(monkeypatch, scene_matches,
                                                 estimate):
    def sampler(*args):
        raise AssertionError("sampler called")
    monkeypatch.setattr(ransac_basic, "_sample_unique_idx", sampler)
    monkeypatch.setattr(ransac_advanced, "_draw_cooccurrence_idx", sampler)
    query, _, good = scene_matches
    with pytest.raises(NoSolution):
        estimate(replace(query, exif_focal_px=None), good, None, solver="p3p")
