"""Shared fixtures: small synthetic scenes and geometry helpers."""

import numpy as np
import pytest

from sfmloc import (
    CameraRecord,
    SfmModel,
    build_index,
    find_good_matches,
    generate_synthetic_scene,
)


def rotation_angle(r1, r2) -> float:
    """Geodesic angle between two rotation matrices, in radians."""
    cosang = (np.trace(r1 @ r2.T) - 1.0) / 2.0
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def random_rotation(rng) -> np.ndarray:
    a = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="session")
def clean_scene():
    """Noise-free, outlier-free scene for exactness tests."""
    return generate_synthetic_scene(600, 16, noise_px=0.0, outlier_fraction=0.0,
                                    seed=100, n_queries=4)


@pytest.fixture(scope="session")
def noisy_scene():
    """1 px noise, 30% outliers, street-level visibility."""
    return generate_synthetic_scene(
        2000, 30, noise_px=1.0, outlier_fraction=0.3, seed=101, n_queries=6,
        image_size=(1200, 900), focal_px=600.0, ring_radius=150.0,
        view_cone_deg=35.0, max_depth=220.0)


@pytest.fixture(scope="session")
def scene_matches(clean_scene):
    """Good matches (ratio 0.7) of the clean scene's first query."""
    model = clean_scene.model
    index = build_index(model.mean_descriptors)
    query, golden = clean_scene.queries[0]
    good = find_good_matches(index, query, 0.7)
    return query, golden, good


def points_model(positions, views=None) -> SfmModel:
    """A model of the given point positions; views[i] lists point i's
    cameras (default: camera 0 alone), with as many cameras as they name."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    views = [[0]] * len(positions) if views is None else views
    cams = [c for v in views for c in v]
    camera = CameraRecord(500.0, 0.0, 0.0, np.eye(3), np.zeros(3))
    return SfmModel([camera] * (max(cams, default=-1) + 1), positions,
                    np.zeros((len(positions), 3), np.uint8),
                    np.cumsum([0] + [len(v) for v in views]), cams,
                    np.zeros(len(cams), np.int32), np.zeros((len(cams), 2)))
