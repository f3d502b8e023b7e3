"""The line-by-line bundle parser: the oracle of sfmloc's byte parser.

Each line is split with ``str.split`` and each number read with Python's
``int`` or ``float``, one record at a time, into ``array`` columns.  It
takes the same typed errors as ``sfm_data.parse_bundle``; its integer
grammar is Python's ``int``, wider than the byte parser's.
"""

from array import array

import numpy as np

from sfmloc.errors import IndexOutOfRange, MalformedHeader, TruncatedFile
from sfmloc.sfm_data import BUNDLE_MAGIC, CameraRecord, SfmModel


def _next_line(lines, what: str) -> str:
    line = next(lines, None)
    if line is None:
        raise TruncatedFile(f"unexpected end of file while reading {what}")
    return line


def _rows(values: array, *shape) -> np.ndarray:
    """An ``array`` of numbers as a numpy view of shape (-1, *shape)."""
    return np.frombuffer(values, dtype=values.typecode).reshape(-1, *shape) \
        if values else np.empty((0, *shape), dtype=values.typecode)


def oracle_parse_bundle(stream) -> SfmModel:
    """Parse bundler v0.3 text into an SfmModel, one line at a time."""
    lines = iter(stream)
    magic = _next_line(lines, "magic line").strip()
    if magic != BUNDLE_MAGIC:
        raise MalformedHeader(f"expected {BUNDLE_MAGIC!r}, got {magic!r}")
    counts = _next_line(lines, "camera/point counts").split()
    try:
        num_cameras, num_points = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise MalformedHeader(f"bad counts line: {counts!r}") from exc
    if num_cameras < 0 or num_points < 0:
        raise MalformedHeader(f"negative count in {counts!r}")

    cam_values = array("d")
    for ci in range(num_cameras):
        for _ in range(5):
            parts = _next_line(lines, f"camera {ci}").split()
            try:
                if len(parts) != 3:
                    raise ValueError
                cam_values.extend(map(float, parts))
            except ValueError as exc:
                raise TruncatedFile(f"short record for camera {ci}") from exc

    positions = array("d")
    colors = array("d")
    track_lens = []
    track_cams = array("q")
    track_keys = array("q")
    track_x = array("d")
    track_y = array("d")
    for pi in range(num_points):
        pos_parts = _next_line(lines, f"point {pi} position").split()
        col_parts = _next_line(lines, f"point {pi} color").split()
        view_parts = _next_line(lines, f"point {pi} view list").split()
        try:
            if len(pos_parts) != 3 or len(col_parts) != 3:
                raise ValueError
            positions.extend(map(float, pos_parts))
            colors.extend(map(float, col_parts))
            n_views = int(view_parts[0])
            if len(view_parts) != 1 + 4 * n_views:
                raise ValueError
            track_lens.append(n_views)
            track_cams.extend(map(int, view_parts[1::4]))
            track_keys.extend(map(int, view_parts[2::4]))
            track_x.extend(map(float, view_parts[3::4]))
            track_y.extend(map(float, view_parts[4::4]))
        except (ValueError, IndexError, OverflowError) as exc:
            raise TruncatedFile(f"short record for point {pi}") from exc

    cams_arr = _rows(track_cams)
    if len(cams_arr) and (cams_arr.max() >= num_cameras or cams_arr.min() < 0):
        raise IndexOutOfRange(
            f"view list references camera {int(cams_arr.max())} "
            f"of {num_cameras}")
    keys = _rows(track_keys)
    bad_keys = keys[(keys < 0) | (keys >= 2**31)]
    if len(bad_keys):
        raise TruncatedFile(f"view-list key {int(bad_keys[0])} outside 0..2**31-1")

    camera_rows = _rows(cam_values, 15)
    finite = np.isfinite(camera_rows).all(axis=1)
    if not finite.all():
        raise TruncatedFile(f"camera {np.argmin(finite)} holds a non-finite value")

    rgb = _rows(colors, 3)
    in_range = ((rgb >= 0) & (rgb <= 255)).all(axis=1)
    if not in_range.all():
        raise TruncatedFile(f"colour of point {np.argmin(in_range)} outside 0..255")

    offsets = np.concatenate([[0], np.cumsum(track_lens, dtype=np.int64)])
    pos, xy = _rows(positions, 3), np.column_stack([_rows(track_x), _rows(track_y)])
    finite = np.isfinite(pos).all(axis=1)
    bad_views = np.flatnonzero(~np.isfinite(xy).all(axis=1))
    finite[np.searchsorted(offsets, bad_views, side="right") - 1] = False
    if not finite.all():
        raise TruncatedFile(f"point {np.argmin(finite)} holds a non-finite value")

    cameras = [CameraRecord(f, k1, k2, np.reshape(v[:9], (3, 3)), np.array(v[9:]))
               for f, k1, k2, *v in camera_rows.tolist()]
    return SfmModel(cameras, pos, rgb.astype(np.uint8), offsets, cams_arr,
                    keys, xy)
