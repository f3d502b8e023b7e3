"""The names perfbench's tracer and pipeline read stay in place.

perfbench/tracing.py counts a layer's calls by rebinding the ``sfmloc``
module attributes that hold its function, and wraps two methods on
their classes; a missing name is reported absent, so its counts read 0.
Its traced check that P4Pf runs on ``street-advanced`` only is a gate:
P4Pf must run for a query without a focal and never for one with it.
"""

import dataclasses

import pytest

from sfmloc import (
    estimate_pose_advanced,
    estimate_pose_basic,
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
def test_p4pf_runs_only_without_a_focal(scene_matches, p4pf_calls, estimate):
    query, _, good = scene_matches
    assert query.exif_focal_px is not None
    estimate(query, good, None)
    assert p4pf_calls == []
    no_focal = dataclasses.replace(query, exif_focal_px=None)
    estimate(no_focal, good, None)
    assert len(p4pf_calls) >= 1 and min(p4pf_calls) >= 1
