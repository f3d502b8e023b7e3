"""Error metrics, synthetic scene oracle and benchmark reports."""

import numpy as np
import pytest

from sfmloc import (
    BasicParams,
    DescriptorIndex,
    Pose,
    estimate_pose_basic,
    find_good_matches,
    generate_synthetic_scene,
    localize,
    pose_error,
    write_report,
)
from sfmloc.benchmark import QueryResult, _outlier_count, report_from_rows
from sfmloc.errors import InvalidParams

from conftest import random_rotation


class TestPoseError:
    def test_identical_poses(self):
        p = Pose(np.eye(3), np.zeros(3), 500.0)
        err = pose_error(p, p)
        assert err.rotation_deg == 0.0
        assert err.translation == 0.0
        assert err.focal_px_delta == 0.0

    def test_center_distance(self):
        a = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]), 500.0)
        b = Pose(np.eye(3), np.array([1.0, 2.0, 7.0]), 500.0)
        assert pose_error(a, b).translation == 4.0

    def test_half_turn_is_180(self):
        a = Pose(np.eye(3), np.zeros(3), 500.0)
        b = Pose(np.diag([1.0, -1.0, -1.0]), np.zeros(3), 500.0)
        assert abs(pose_error(a, b).rotation_deg - 180.0) < 1e-9

    def test_rotation_symmetry(self):
        rng = np.random.default_rng(0)
        a = Pose(random_rotation(rng), rng.uniform(-1, 1, 3), 500.0)
        b = Pose(random_rotation(rng), rng.uniform(-1, 1, 3), 650.0)
        e1, e2 = pose_error(a, b), pose_error(b, a)
        assert abs(e1.rotation_deg - e2.rotation_deg) < 1e-9
        assert abs(e1.translation - e2.translation) < 1e-9
        assert abs(e1.focal_px_delta - e2.focal_px_delta) < 1e-9


class TestSyntheticScene:
    def test_deterministic_regeneration(self):
        a = generate_synthetic_scene(100, 6, seed=5, n_queries=2)
        b = generate_synthetic_scene(100, 6, seed=5, n_queries=2)
        assert np.array_equal(a.model.positions, b.model.positions)
        assert np.array_equal(a.model.mean_descriptors,
                              b.model.mean_descriptors)
        for (qa, pa), (qb, pb) in zip(a.queries, b.queries):
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(qa.features.descriptor, qb.features.descriptor)

    def test_outlier_fraction_exact(self):
        scene = generate_synthetic_scene(400, 10, outlier_fraction=0.3,
                                         seed=6, n_queries=3)
        for (query, _), labels in zip(scene.queries, scene.outlier_labels):
            n = len(query.features)
            assert len(labels) == int(np.floor(0.3 * n + 0.5))

    def test_golden_poses_satisfy_invariants(self):
        scene = generate_synthetic_scene(100, 6, seed=7, n_queries=4)
        for query, pose in scene.queries:
            assert np.linalg.norm(
                pose.rotation @ pose.rotation.T - np.eye(3)) < 1e-9
            assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9
            assert pose.focal_px > 0
            x, y = query.features.xy.T
            assert np.all((0 <= x) & (x < query.width))
            assert np.all((0 <= y) & (y < query.height))

    def test_noise_free_reestimation_is_exact(self, clean_scene):
        model = clean_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        query, golden = clean_scene.queries[2]
        good = find_good_matches(index, query, 0.7)
        est = estimate_pose_basic(query, good, model, BasicParams(rng_seed=0))
        err = pose_error(est.pose, golden)
        assert err.rotation_deg < 1e-6
        assert err.translation < 1e-6

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            generate_synthetic_scene(5, 6, seed=0)
        with pytest.raises(InvalidParams):
            generate_synthetic_scene(100, 6, outlier_fraction=1.5, seed=0)

    def test_outlier_count_rule(self):
        for frac in (0.0, 0.1, 0.3, 0.45):
            for n_true in (10, 70, 333):
                n_out = _outlier_count(n_true, frac)
                assert n_out == int(np.floor(frac * (n_true + n_out) + 0.5))


def localized_rows(scene, queries, seed=0):
    """Basic-mode rows of queries (query, golden) in order, query i
    with RANSAC seed seed + i, as ``sfmloc --seed`` runs them."""
    model = scene.model
    index = DescriptorIndex(model.mean_descriptors)
    return [localize(query, golden, index, model, "basic", seed=seed + qi)[1]
            for qi, (query, golden) in enumerate(queries)]


class TestRunBenchmark:
    """The report of a benchmark run, aggregated from per-query rows."""

    @pytest.mark.parametrize("ratio", [1.5, 0.0, float("nan")])
    def test_ratio_outside_unit_interval_raises(self, clean_scene, ratio):
        model = clean_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        query, golden = clean_scene.queries[0]
        with pytest.raises(InvalidParams):
            localize(query, golden, index, model, "basic", seed=0, ratio=ratio)

    def test_unknown_mode_raises(self, clean_scene):
        model = clean_scene.model
        index = DescriptorIndex(model.mean_descriptors)
        query, golden = clean_scene.queries[0]
        with pytest.raises(InvalidParams, match="'basci'"):
            localize(query, golden, index, model, "basci", seed=0)

    def test_empty_queries(self):
        report = report_from_rows([])
        assert report.per_query == []
        assert report.median_translation is None
        assert report.mean_translation is None
        assert report.frac_under_half_unit is None
        assert report.wrong_pose_count == 0

    def test_aggregates_recomputable(self, clean_scene):
        report = report_from_rows(localized_rows(clean_scene, clean_scene.queries))
        errs = [r.error.translation for r in report.per_query
                if r.error is not None]
        assert report.median_translation == pytest.approx(np.median(errs))
        assert report.mean_translation == pytest.approx(np.mean(errs))
        assert report.frac_under_half_unit == pytest.approx(
            sum(e < 0.5 for e in errs) / len(report.per_query))
        assert report.wrong_pose_count == sum(e >= 30.0 for e in errs)
        for rows in (report.histogram_time, report.histogram_l2,
                     report.histogram_focal):
            assert sum(c for _, _, c in rows) <= len(report.per_query)

    def test_permutation_invariant_aggregates(self, clean_scene):
        queries = clean_scene.queries
        a = report_from_rows(localized_rows(clean_scene, queries))
        b = report_from_rows(localized_rows(clean_scene, queries[::-1]))
        # per-query seeds follow list order, so compare recomputed medians
        assert a.median_translation < 0.01
        assert b.median_translation < 0.01

    def test_report_files(self, tmp_path, clean_scene):
        queries = clean_scene.queries[:2]
        report = report_from_rows(localized_rows(clean_scene, queries))
        write_report(report, tmp_path)
        for name in ("per_query.csv", "histogram_time.csv",
                     "histogram_l2.csv", "histogram_focal.csv",
                     "summary.txt"):
            assert (tmp_path / name).is_file()
        per_query = (tmp_path / "per_query.csv").read_text().splitlines()
        assert len(per_query) == 1 + len(queries)

    def test_failure_rows_counted(self):
        rows = [QueryResult("a", None, 0.1, False, 0, failure="NoSolution")]
        report = report_from_rows(rows)
        assert report.n_failed == 1
        assert report.median_translation is None
