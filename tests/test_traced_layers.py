"""The names perfbench's tracer and pipeline read stay in place.

perfbench/tracing.py counts a layer's calls by rebinding the ``sfmloc``
module attributes that hold its function, and wraps two methods on
their classes; a missing name is reported absent, so its counts read 0.
Its traced check that P4Pf runs on ``street-advanced`` only is a gate:
P4Pf must run for a query without a focal and never for one with it.
"""

import dataclasses

import numpy as np
import pytest

from sfmloc import (
    build_index,
    estimate_pose_advanced,
    estimate_pose_basic,
    find_good_matches,
    minimal_solvers,
    pose_quality,
    ransac_advanced,
    ransac_basic,
)

# (module, name) of every layer function the tracer rebinds and the
# pipeline calls, and the (module, class, method) it wraps
FUNCTIONS = [
    (minimal_solvers, "solve_p3p"),
    (minimal_solvers, "solve_p4pf"),
    (pose_quality, "fitted_mask"),
    (pose_quality, "coverage_area_xy"),
    (ransac_basic, "_sample_unique_idx"),
    (ransac_basic, "estimate_pose_basic"),
    (ransac_advanced, "_draw_cooccurrence_idx"),
    (ransac_advanced, "estimate_pose_advanced"),
    (ransac_advanced, "backmatch"),
]
METHODS = [(ransac_basic, "MatchContext", "evaluate")]


def test_traced_names_exist():
    for module, name in FUNCTIONS:
        assert callable(vars(module).get(name)), f"{module.__name__}.{name}"
    for module, cls, name in METHODS:
        assert callable(vars(vars(module)[cls]).get(name)), f"{cls}.{name}"
    fields = {f.name for f in dataclasses.fields(ransac_basic.PoseEstimate)}
    assert {"pose", "fitted", "iterations_used", "used_backmatching"} <= fields


@pytest.fixture
def p4pf_calls(monkeypatch):
    """Rebind solve_p4pf wherever it is bound, as the tracer does; the
    list holds one entry per call."""
    calls = []
    original = minimal_solvers.solve_p4pf

    def counting(*args):
        calls.append(len(args[0]))
        return original(*args)
    for module in (minimal_solvers, ransac_basic):
        assert module.solve_p4pf is original
        monkeypatch.setattr(module, "solve_p4pf", counting)
    return calls


@pytest.mark.parametrize("estimate", [estimate_pose_basic, estimate_pose_advanced])
def test_p4pf_runs_only_without_a_focal(scene_matches, clean_scene, p4pf_calls,
                                        estimate):
    query, _, good = scene_matches
    assert query.exif_focal_px is not None
    estimate(query, good, clean_scene.model)
    assert p4pf_calls == []
    no_focal = dataclasses.replace(query, exif_focal_px=None)
    estimate(no_focal, good, clean_scene.model)
    assert len(p4pf_calls) >= 1 and min(p4pf_calls) >= 1


def test_pipeline_compatibility_points(clean_scene):
    """perfbench/pipeline.py reads SfmModel.visibilities and passes it and
    the positions to find_good_matches, which ignores them.  Both go, with
    this test, when that file stops using them."""
    model = clean_scene.model
    vis = model.visibilities
    assert len(vis) == model.num_points
    assert all(vis[p] == frozenset(model.track_cams[model.track_slice(p)].tolist())
               for p in range(model.num_points))
    index = build_index(model.mean_descriptors)
    for query, _ in clean_scene.queries:
        want = find_good_matches(index, query, 0.7)
        got = find_good_matches(index, query, 0.7, vis, model.positions)
        assert np.array_equal(got.feature_idx, want.feature_idx)
        assert np.array_equal(got.point_idx, want.point_idx)
