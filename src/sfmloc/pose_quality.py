"""Fitted-match (inlier) testing and the image-coverage quality score.

The fitted-match test runs in the camera frame and takes a whole stack
of candidate poses at once, one mask row per candidate.

A candidate pose is judged not by how many matches it fits but by how
much of the image area its fitted matches cover relative to the area
covered by all good matches.  Each match stamps a (2c+1) x (2c+1) pixel
window around its feature; a covered area is the exact size of the
windows' union, summed from their row intervals a band of rows at a
time without an image, so a call holds about 1 MB whatever the
photo's size.  The score, computed per candidate by
``ransac_basic.MatchContext``, is the ratio of the two covered areas
and always lies in [0, 1].
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_setting
from .minimal_solvers import Candidates, Pose

# the fitted-match tests fitted_mask knows
METRICS = ("ray", "pixel")
# row intervals coverage_area_xy sums at once: its memory scales with this
_BAND_INTERVALS = 1 << 15


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
    inliers.  Raises InvalidParams unless metric is one of METRICS and
    threshold a finite number > 0.
    """
    check_setting("metric", metric, choices=METRICS)
    check_setting("threshold", threshold, float, positive=True)
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
    ceil(y - c)..floor(y + c), clipped to the image.  The rows are swept
    a band at a time, and the bands' areas add up.  A band's row
    intervals, keyed row * width + column and taken in key order, add
    to its union whatever lies past the furthest end before them.  A
    band holds about _BAND_INTERVALS intervals (more only when one row
    alone holds more), at most 2^16 rows and under 2^31 pixels, so its
    keys fit int32 and its rows a 16-bit radix sort.  A call holds one
    band's arrays, about 1 MB, beside one count per image row and a few
    per window, whatever the image's size.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    lo = np.maximum(np.ceil(xy - c), 0.0)
    hi = np.minimum(np.floor(xy + c), [width - 1.0, height - 1.0])
    keep = np.flatnonzero((lo <= hi).all(axis=1))
    # windows by first column, so a stable sort by row orders them by key
    keep = keep[np.argsort(lo[keep, 0], kind="stable")]
    (x0, y0), (span, past) = lo[keep].astype(np.int32).T, hi[keep].astype(np.int32).T + 1
    span -= x0  # each window's width
    # the intervals in rows 0..r, for each row r
    through = np.bincount(y0, minlength=height + 1)
    through -= np.bincount(past, minlength=height + 1)
    np.add.accumulate(np.add.accumulate(through, out=through), out=through)
    max_rows = min(1 << 16, (2**31 - 1) // width)
    area = start = before = 0
    while start < height:  # the band of rows start..stop - 1
        stop = int(np.searchsorted(through, before + _BAND_INTERVALS, side="right"))
        stop = min(max(stop, start + 1), start + max_rows, height)
        # each window's first row in the band and its rows there, 0 outside
        first = np.maximum(y0, start)
        rows = np.minimum(past, stop)
        rows -= first
        first -= start
        area += _band_area(x0, span, first, np.maximum(rows, 0, out=rows), width)
        start, before = stop, through[stop - 1]
    return area


def _band_area(x0, span, y0, rows, width: int) -> int:
    """coverage_area_xy over one band: windows by first column x0, each
    span columns wide and rows rows tall from band row y0.  Its arrays
    go when it returns, so a call never holds two bands' at once."""
    row = np.repeat(y0 + rows - np.cumsum(rows, dtype=np.int32), rows)
    row += np.arange(len(row), dtype=np.int32)
    by_row = np.argsort(row.astype(np.uint16), kind="stable")  # numpy's radix sort
    row *= width
    row += np.repeat(x0, rows)  # each interval's first key
    start, end = row[by_row], np.repeat(span, rows)[by_row]
    del row, by_row  # in place from here on: two arrays of one entry per interval
    end += start
    np.maximum.accumulate(end, out=end)  # the furthest end so far
    # where each interval's new part starts: past the furthest end before it
    np.maximum(start[1:], end[:-1], out=start[1:])
    return int(end.sum(dtype=np.int64) - start.sum(dtype=np.int64))
