"""Fitted-match (inlier) testing and the image-coverage quality score.

A candidate pose is judged not by how many matches it fits but by how
much of the image area its fitted matches cover relative to the area
covered by all good matches.  Each match stamps a (2c+1) x (2c+1) pixel
window around its feature; a covered area is the exact size of the
windows' union, summed from their row intervals without an image.  The
score, computed per candidate by ``ransac_basic.MatchContext``, is the
ratio of the two covered areas and always lies in [0, 1].
"""

from dataclasses import dataclass

import numpy as np

from .minimal_solvers import Pose


@dataclass(frozen=True)
class CoverageStats:
    """Pixel areas covered by good/fitted matches and their ratio."""

    area_good: int
    area_fitted: int
    q: float


def fitted_mask(pose: Pose, centered_xy: np.ndarray, positions: np.ndarray,
                threshold: float, metric: str = "ray") -> np.ndarray:
    """Boolean inlier mask over match arrays for one candidate pose.

    metric "ray" measures the world-space distance from each 3D point
    to the viewing ray of its feature (threshold in world units);
    "pixel" measures reprojection error (threshold in pixels).  Points
    behind the camera are never inliers.
    """
    if metric == "ray":
        d_cam = np.column_stack([
            centered_xy, np.full(len(centered_xy), pose.focal_px)])
        d_world = d_cam @ pose.rotation  # rows: R^T @ d_cam
        d_world /= np.linalg.norm(d_world, axis=1, keepdims=True)
        v = positions - pose.center
        along = np.einsum("ij,ij->i", v, d_world)
        perp = v - along[:, None] * d_world
        dist = np.linalg.norm(perp, axis=1)
        return (along > 0.0) & (dist < threshold)
    if metric == "pixel":
        pc = pose.world_to_camera(positions)
        depth = pc[:, 2]
        safe = np.where(depth > 0.0, depth, 1.0)
        proj = pose.focal_px * pc[:, :2] / safe[:, None]
        err = np.linalg.norm(proj - centered_xy, axis=1)
        return (depth > 0.0) & (err < threshold)
    raise ValueError(f"unknown inlier metric {metric!r}")


def coverage_window(width: int) -> int:
    """Half window size c: a fortieth of the image width, at least 1."""
    return max(1, width // 40)


def coverage_area_xy(xy: np.ndarray, width: int, height: int, c: int) -> int:
    """Distinct pixels under (2c+1)^2 windows centered at each coordinate.

    A window spans columns ceil(x - c)..floor(x + c) and rows
    ceil(y - c)..floor(y + c), clipped to the image.  Its row intervals,
    keyed row * width + column and taken in key order, add to the exact
    union whatever lies past the furthest end before them.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    lo = np.maximum(np.ceil(xy - c), 0.0)
    hi = np.minimum(np.floor(xy + c), [width - 1.0, height - 1.0])
    keep = np.flatnonzero((lo <= hi).all(axis=1))
    # windows by first column, so a stable sort by row orders them by key
    keep = keep[np.argsort(lo[keep, 0], kind="stable")]
    (x0, y0), (x1, y1) = lo[keep].astype(np.int64).T, hi[keep].astype(np.int64).T
    rows = y1 - y0 + 1
    row = np.arange(rows.sum()) + np.repeat(y0 + rows - np.cumsum(rows), rows)
    # rows that fit 16 bits take numpy's radix sort
    by_row = np.argsort(row.astype(np.uint16) if height <= 1 << 16 else row, kind="stable")
    start = (np.repeat(x0, rows) + row * width)[by_row]
    end = start + np.repeat(x1 + 1 - x0, rows)[by_row]
    reach = np.r_[0, np.maximum.accumulate(end)[:-1]]  # furthest end before
    return int(np.maximum(end - np.maximum(start, reach), 0).sum())
