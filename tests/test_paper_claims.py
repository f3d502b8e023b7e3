"""The paper's claims about its methods, each checked on a small scene.

Each test compares a method with a control that lacks it, on the same
scene, query and RANSAC seed, and asserts the claim with a margin.
"""

import pytest

from sfmloc import BasicParams, DescriptorIndex, generate_synthetic_scene, localize
from sfmloc.benchmark import GOOD_RATIO_ADVANCED


@pytest.fixture(scope="module")
def outlier_scenes():
    """Two street scenes whose query features are 90 % outliers."""
    scenes = []
    for seed in (0, 1):
        scene = generate_synthetic_scene(
            4000, 20, image_size=(1600, 1200), focal_px=800.0, noise_px=1.0,
            outlier_fraction=0.9, seed=seed, n_queries=4, view_cone_deg=35.0,
            max_depth=90.0)
        scenes.append((scene, DescriptorIndex(scene.model.mean_descriptors)))
    return scenes


def count_under_half_unit(scenes, mode, basic=BasicParams()):
    """Queries localized within 0.5 units; query i gets RANSAC seed i."""
    under = 0
    for scene, index in scenes:
        for i, (query, golden) in enumerate(scene.queries):
            _, row = localize(query, golden, index, scene.model, mode, basic,
                              seed=i, ratio=GOOD_RATIO_ADVANCED)
            under += row.error is not None and row.error.translation < 0.5
    return under


def test_cooccurrence_sampling_beats_uniform_at_90_percent_outliers(outlier_scenes):
    # the control is uniform sampling at advanced mode's budget (two
    # phases of 100 iterations) that never stops early
    uniform = BasicParams(max_iterations=200, stop_count=10**9, stop_fraction=1)
    advanced = count_under_half_unit(outlier_scenes, "advanced")
    control = count_under_half_unit(outlier_scenes, "basic", uniform)
    # 5 and 0 of 8 when this test was written
    assert advanced >= 4
    assert control <= 1
