"""Fitted-match (inlier) testing and the image-coverage quality score.

The fitted-match test runs in the camera frame and takes a whole stack
of candidate poses at once, one mask row per candidate.

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

from .minimal_solvers import Candidates, Pose

# the fitted-match tests fitted_mask knows
METRICS = ("ray", "pixel")


@dataclass(frozen=True)
class CoverageStats:
    """Pixel areas covered by good/fitted matches and their ratio."""

    area_good: int
    area_fitted: int
    q: float


def fitted_mask(poses: Pose | Candidates, centered_xy: np.ndarray,
                positions: np.ndarray, threshold: float,
                metric: str = "ray") -> np.ndarray:
    """Boolean inlier masks over match arrays, one row per candidate pose.

    poses is a Pose, giving an (N,) mask, or a Candidates stack of K
    poses, giving (K, N).  Each point P is tested in the camera frame,
    pc = R (P - C), against the ray d = (x, y, f) of its feature.
    Metric "ray" bounds the world-space distance from the point to the
    ray (threshold in world units): |pc|^2 |d|^2 - (pc . d)^2 <
    threshold^2 |d|^2, with pc . d > 0; "pixel" bounds the reprojection
    error (threshold in pixels).  Points behind the camera are never
    inliers.  metric is one of METRICS; the params classes check it.
    """
    rotation = np.asarray(poses.rotation, dtype=float)
    shape = rotation.shape[:-2] + (len(positions),)
    rotation = rotation.reshape(-1, 3, 3)
    focal = np.asarray(poses.focal_px, dtype=float).reshape(-1, 1)
    offset = np.matmul(rotation, np.reshape(poses.center, (-1, 3, 1)))  # R C
    x, y = centered_xy[:, 0], centered_xy[:, 1]
    world = np.ascontiguousarray(np.asarray(positions, dtype=float).T)
    pc = np.matmul(rotation, world) - offset  # (K, 3, N)
    pcx, pcy, pcz = pc[:, 0], pc[:, 1], pc[:, 2]
    if metric == "ray":
        along = pcx * x + pcy * y + pcz * focal  # pc . d
        d2 = x * x + y * y + focal * focal
        perp2 = (pc * pc).sum(axis=1) * d2 - along * along
        out = (along > 0.0) & (perp2 < threshold * threshold * d2)
    else:
        safe = np.where(pcz > 0.0, pcz, 1.0)
        err = np.sqrt((focal * pcx / safe - x) ** 2 + (focal * pcy / safe - y) ** 2)
        out = (pcz > 0.0) & (err < threshold)
    return out.reshape(shape)


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
