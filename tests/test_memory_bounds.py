"""Set-up stages hold one block of work at a time, whatever the model size.

tracemalloc counts every numpy buffer and Python object.  A stage's cost
is its peak above what it returns: export_ply's nothing, and
parse_bundle's model twice over, since it joins its groups into the
model's arrays at the end.  One block's cost is that of a model of exactly one block, and
models of two and eight blocks must stay within it (with a quarter of
slack for the camera lines and the growth of the model's arrays).  A
stage that held the whole file, or the whole model's rows, would cost
about eight times as much at eight blocks.
"""

import tracemalloc

import numpy as np
import pytest

from sfmloc import sfm_data, viz_export
from sfmloc.sfm_data import CameraRecord, SfmModel, parse_bundle, write_bundle
from sfmloc.viz_export import export_ply

BLOCK = 256  # points a block, set for both stages to keep the models small


def random_model(n_points: int, n_cameras: int = 12, seed: int = 0) -> SfmModel:
    """Full-precision floats and 2 to 8 views a point, as in a bundler file."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(2, 9, n_points)
    n_views = int(lens.sum())
    cameras = [CameraRecord(float(f), 0.0, 0.0, np.eye(3), rng.normal(size=3))
               for f in rng.uniform(300.0, 900.0, n_cameras)]
    return SfmModel(cameras, rng.normal(0.0, 100.0, (n_points, 3)),
                    rng.integers(0, 256, (n_points, 3)),
                    np.concatenate([[0], np.cumsum(lens)]),
                    rng.integers(0, n_cameras, n_views),
                    rng.integers(0, 5000, n_views),
                    rng.uniform(-800.0, 800.0, (n_views, 2)))


def peak_and_result(stage) -> tuple[int, int]:
    """The traced heap's peak over stage(), and the bytes of what it
    returned and holds."""
    tracemalloc.start()
    try:
        result = stage()  # alive, so that held counts it
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


@pytest.fixture
def block_of(monkeypatch):
    monkeypatch.setattr(sfm_data, "_GROUP_POINTS", BLOCK)
    monkeypatch.setattr(viz_export, "_PLY_ROWS", BLOCK)


def parse_cost(tmp_path, n_points) -> int:
    path = tmp_path / f"{n_points}.out"
    with open(path, "w") as fh:
        write_bundle(random_model(n_points), fh)

    def parse():
        with open(path) as fh:
            return parse_bundle(fh)
    peak, model = peak_and_result(parse)
    return peak - 2 * model


def export_cost(tmp_path, n_points) -> int:
    model = random_model(n_points)
    peak, held = peak_and_result(lambda: export_ply(model, tmp_path / f"{n_points}.ply"))
    return peak - held


@pytest.mark.parametrize("cost", [parse_cost, export_cost], ids=["parse_bundle", "export_ply"])
def test_peak_stays_within_one_block(tmp_path, block_of, cost):
    one_block = cost(tmp_path, BLOCK)
    for blocks in (2, 8):
        assert cost(tmp_path, blocks * BLOCK) <= 1.25 * one_block, blocks
