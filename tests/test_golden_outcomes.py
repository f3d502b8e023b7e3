"""Seeded end-to-end outcomes pinned on the conftest scenes.

Each case runs matching and one estimator with a fixed seed and must
reproduce the recorded pose, coverage quality, fitted feature indices,
iteration count, backmatching flag or failure type.  The cases cover
both modes, P3P and P4Pf (focal set to None), a backmatching run and
both typed failures.  Refactors must leave every value unchanged; a
change that alters the seeded streams on purpose re-records them with

    SFMLOC_RECORD_GOLDEN=1 python -m pytest tests/test_golden_outcomes.py

and says so.
"""

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfmloc import (
    AdvancedParams,
    BackmatchParams,
    BasicParams,
    build_index,
    estimate_pose_advanced,
    estimate_pose_basic,
    find_good_matches,
)
from sfmloc.errors import LocalizationError

GOLDEN_PATH = Path(__file__).with_name("golden_outcomes.json")


def _run(scene, qi, mode, seed, focal="exif", params=None, n_features=None,
         suppress=False):
    model = scene.model
    index = build_index(model.mean_descriptors)
    query, _ = scene.queries[qi]
    if focal != "exif" or n_features is not None:
        feats = query.features if n_features is None else query.features[:n_features]
        query = replace(query, features=feats,
                        exif_focal_px=query.exif_focal_px if focal == "exif" else focal)
    ratio = 0.7 if mode == "basic" else 0.9
    good = find_good_matches(index, query, ratio)
    if suppress:
        # the suppressed-match case of test_ransac_advanced: 11 true
        # matches plus every outlier, so phase one cannot skip backmatching
        outliers = set(scene.outlier_labels[qi].tolist())
        fidx = good.feature_idx.tolist()
        true_i = [i for i, f in enumerate(fidx) if f not in outliers]
        out_i = [i for i, f in enumerate(fidx) if f in outliers]
        rng = np.random.default_rng(0)
        keep = [true_i[i] for i in rng.choice(len(true_i), 11, replace=False)]
        good = good.take(np.array(keep + out_i))
    try:
        if mode == "basic":
            est = estimate_pose_basic(
                query, good, model, replace(params or BasicParams(), rng_seed=seed))
        else:
            est = estimate_pose_advanced(
                query, good, model,
                replace(params or AdvancedParams(), rng_seed=seed),
                BackmatchParams())
    except LocalizationError as exc:
        return {"failure": type(exc).__name__}
    fitted = est.fitted.feature_idx.tolist()
    return {
        "failure": None,
        "rotation": est.pose.rotation.ravel().tolist(),
        "center": est.pose.center.tolist(),
        "focal_px": float(est.pose.focal_px),
        "q": est.quality.q,
        "iterations": est.iterations_used,
        "used_backmatching": est.used_backmatching,
        "phase1_fitted": est.phase1_fitted,
        "fitted_count": len(fitted),
        "fitted_sha256": hashlib.sha256(
            ",".join(map(str, fitted)).encode()).hexdigest(),
    }


def _cases():
    cases = {}
    for scene in ("clean", "noisy"):
        for qi in range(4 if scene == "clean" else 6):
            for mode in ("basic", "advanced"):
                cases[f"{scene}-q{qi}-{mode}"] = (scene, qi, mode, qi, {})
    cases["clean-q0-basic-p4pf"] = ("clean", 0, "basic", 1, {"focal": None})
    cases["clean-q0-advanced-p4pf"] = ("clean", 0, "advanced", 1, {"focal": None})
    cases["noisy-q1-advanced-p4pf"] = ("noisy", 1, "advanced", 2, {"focal": None})
    cases["noisy-q0-advanced-suppressed"] = (
        "noisy", 0, "advanced", 1,
        {"suppress": True, "params": AdvancedParams(skip_fraction=1.0)})
    for mode in ("basic", "advanced"):
        cases[f"clean-q0-{mode}-two-features"] = (
            "clean", 0, mode, 0, {"n_features": 2})
    cases["clean-q0-basic-unreachable"] = (
        "clean", 0, "basic", 0,
        {"params": BasicParams(min_fitted=10**6, max_iterations=3)})
    cases["clean-q0-advanced-unreachable"] = (
        "clean", 0, "advanced", 0,
        {"params": AdvancedParams(min_fitted=10**6, iterations_per_phase=3)})
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("SFMLOC_RECORD_GOLDEN"):
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def recorded():
    out = {}
    yield out
    if os.environ.get("SFMLOC_RECORD_GOLDEN") and len(out) == len(CASES):
        GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def test_golden_covers_every_case(golden):
    if golden:
        assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_seeded_outcome_is_unchanged(case, golden, recorded, clean_scene,
                                     noisy_scene):
    scene_name, qi, mode, seed, kwargs = CASES[case]
    scene = clean_scene if scene_name == "clean" else noisy_scene
    got = _run(scene, qi, mode, seed, **kwargs)
    recorded[case] = got
    if not golden:
        return
    want = golden[case]
    assert got["failure"] == want["failure"]
    if want["failure"] is not None:
        return
    for key in ("iterations", "used_backmatching", "phase1_fitted",
                "fitted_count", "fitted_sha256"):
        assert got[key] == want[key], key
    # the same machine reproduces every bit; the tolerance only absorbs
    # last-digit differences between BLAS builds
    np.testing.assert_allclose(got["rotation"], want["rotation"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(got["center"], want["center"], rtol=0, atol=1e-7)
    assert got["focal_px"] == pytest.approx(want["focal_px"], abs=1e-6)
    assert got["q"] == pytest.approx(want["q"], abs=1e-12)
