"""Fitted-match (inlier) testing and the image-coverage quality score.

A candidate pose is judged not by how many matches it fits but by how
much of the image area its fitted matches cover relative to the area
covered by all good matches.  Each match stamps a (2c+1) x (2c+1) pixel
window around its feature; the score, computed per candidate by
``ransac_basic.MatchContext``, is the ratio of the two covered areas
and always lies in [0, 1].
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
