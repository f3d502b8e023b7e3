"""Bundler models, SIFT keyfiles and query lists.

Both file kinds start with header lines read as text; the rest, the
body, is read as bytes and decoded with a few vectorized numpy passes.
A bundle body is read and decoded a group of points at a time, so a
parse holds one group's lines and temporaries (a few MB at 2 048
points) and, while the groups are joined, the model's arrays twice; it
never holds the body's text.  A keyfile body is decoded whole.
A token is a run of bytes above 0x20; tokens are separated by ASCII
whitespace (space, tab, LF, VT, FF, CR), and any other byte below 0x21
is refused.  A float is a token in Python ``float`` syntax, cast through
one byte matrix per token width; at 0.2-0.3 us a 17-digit value, that
cast is most of a parse.

The bundler v0.3 text format carries cameras (focal, two radial
distortion coefficients, world-to-camera rotation, translation) and 3D
points (position, color, view list).  After the magic and counts lines,
each camera is five lines of three floats, and each point three lines:
three position floats, three colour floats in 0..255, and a view list
``n`` then ``n`` times ``camera key x y``.  Each line's token count is
checked from the newline positions.  Counts, cameras and keys are
integers of an optional ``-`` and one to eighteen ASCII digits (``7``,
``007``, ``-1``, but not ``+7``, ``1_0`` or a nineteenth digit), decoded
by digit arithmetic on the bytes.  Point data lands in columnar numpy
arrays.  The benchmark's street model (7 162 points, 47 946 views,
2.6 MB) parses in about 0.05 s on a 2-core x86 host, 7 us a point.
Every camera value, position and view-list coordinate must be finite.

Keyfiles follow Lowe's layout: a ``count 128`` header line, then per
feature ``row col scale orientation`` and 128 descriptor values wrapped
over several lines.  The body must be ASCII.  Each feature is 132
tokens: four floats, then 128 descriptor values of one to three ASCII
digits in 0..255 (``7``, ``07`` and ``007``, but not ``7.0``, ``+7`` or
``0007``).  The line layout is not checked, only the token count and
this grammar.  A parsed keyfile is one record array of
``KEYFILE_DTYPE``.

A parser that meets a byte its stream cannot decode raises
TruncatedFile.
"""

import sys
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import islice

import numpy as np

from .errors import (
    CameraListMismatch,
    DimensionMismatch,
    DuplicateQuery,
    EmptyTrack,
    IndexOutOfRange,
    MalformedHeader,
    TruncatedFile,
    UnknownQuery,
)

BUNDLE_MAGIC = "# Bundle file v0.3"
DESCRIPTOR_DIM = 128
# one keyfile feature; xy is (x, y) = (col, row), unlike the file's order
KEYFILE_DTYPE = np.dtype([("xy", np.float64, 2), ("scale", np.float64),
                          ("orientation", np.float64),
                          ("descriptor", np.uint8, DESCRIPTOR_DIM)])
# bundle points read and decoded together: the lines and index arrays a
# parse holds scale with this and not with the model
_GROUP_POINTS = 2048


@dataclass(frozen=True)
class CameraRecord:
    """One bundler camera: intrinsics plus world-to-camera extrinsics."""

    focal_px: float
    k1: float
    k2: float
    rotation: np.ndarray
    translation: np.ndarray


@dataclass
class QueryImage:
    """A query photograph: dimensions, features, optional EXIF focal.

    features is a keyfile record array (``KEYFILE_DTYPE``).
    """

    name: str
    width: int
    height: int
    features: np.recarray
    exif_focal_px: float | None = None


def _gather(offsets, values, rows) -> np.ndarray:
    """values[offsets[r]:offsets[r + 1]] for each r of rows, concatenated."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    return values[np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)]


class SfmModel:
    """Cameras plus columnar point data.

    Point attributes live in flat arrays (positions, colors, view-list
    segments indexed by ``track_offsets``) instead of per-point objects.
    The view lists are decoded here and nowhere else: ``track_points``
    (each entry's point) and ``camera_points`` (each camera's points) once
    on first use, ``view_bits``, ``cameras_of`` and ``points_of`` (chosen
    points' cameras, chosen cameras' points) on each call.
    Only perfbench/pipeline.py reads ``visibilities``, a set per point.
    Instances are immutable after construction.
    """

    def __init__(self, cameras, positions, colors, track_offsets,
                 track_cams, track_keys, track_xy, mean_descriptors=None):
        self.cameras = list(cameras)
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.colors = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
        self.track_offsets = np.asarray(track_offsets, dtype=np.int64)
        self.track_cams = np.asarray(track_cams, dtype=np.int32)
        self.track_keys = np.asarray(track_keys, dtype=np.int32)
        self.track_xy = np.asarray(track_xy, dtype=float).reshape(-1, 2)
        self.mean_descriptors = (
            None if mean_descriptors is None
            else np.asarray(mean_descriptors).reshape(-1, DESCRIPTOR_DIM))

    @property
    def num_cameras(self) -> int:
        return len(self.cameras)

    @property
    def num_points(self) -> int:
        return len(self.positions)

    def track_slice(self, i: int) -> slice:
        return slice(self.track_offsets[i], self.track_offsets[i + 1])

    @cached_property
    def track_points(self) -> np.ndarray:
        """Point index of every view-list entry."""
        return np.repeat(np.arange(self.num_points), np.diff(self.track_offsets))

    @cached_property
    def camera_points(self) -> tuple:
        """(offsets, points): camera c sees points[offsets[c]:offsets[c + 1]],
        ascending, each once however often its view list names c."""
        # widened first: an int32 product wraps past 2**31 under numpy 1.x
        pairs = np.unique(self.track_cams.astype(np.int64) * self.num_points
                          + self.track_points)
        cams, points = np.divmod(pairs, max(self.num_points, 1))
        return np.searchsorted(cams, np.arange(self.num_cameras + 1)), points

    def cameras_of(self, points) -> np.ndarray:
        """The distinct cameras that see any of points, ascending."""
        return np.unique(_gather(self.track_offsets, self.track_cams, points))

    def points_of(self, cameras) -> np.ndarray:
        """Each camera's camera_points in turn; a point two of them see comes twice."""
        return _gather(*self.camera_points, cameras)

    def view_bits(self, points) -> list:
        """Per entry of points, an int whose bit c is set when camera c sees
        that point; a camera its view list names twice sets one bit."""
        cams = _gather(self.track_offsets, self.track_cams, points)
        lens = self.track_offsets[np.asarray(points) + 1] - self.track_offsets[points]
        rows = np.repeat(np.arange(len(lens)), lens)
        packed = np.zeros((len(lens), (self.num_cameras + 7) // 8), dtype=np.uint8)
        np.bitwise_or.at(packed, (rows, cams >> 3), (1 << (cams & 7)).astype(np.uint8))
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    @cached_property
    def visibilities(self) -> np.ndarray:
        """Object array of every point's camera frozenset."""
        cams = self.track_cams.tolist()
        bounds = self.track_offsets.tolist()
        vis = np.empty(self.num_points, dtype=object)
        vis[:] = [frozenset(cams[a:b]) for a, b in zip(bounds, bounds[1:])]
        return vis

    def with_mean_descriptors(self, descriptors) -> "SfmModel":
        return SfmModel(self.cameras, self.positions, self.colors,
                        self.track_offsets, self.track_cams, self.track_keys,
                        self.track_xy, descriptors)


def scene_diameter(model: SfmModel) -> float:
    """Diagonal of the point-cloud bounding box."""
    if model.num_points == 0:
        return 0.0
    span = model.positions.max(axis=0) - model.positions.min(axis=0)
    return float(np.linalg.norm(span))


def _decoded(parse):
    """``parse`` with a stream that cannot be decoded raising TruncatedFile."""
    @wraps(parse)
    def checked(stream):
        try:
            return parse(stream)
        except UnicodeError as exc:  # a byte the codec refuses, a non-ASCII keyfile
            raise TruncatedFile(f"unreadable text: {exc}") from exc
    return checked


def _next_line(stream, what: str) -> str:
    line = stream.readline()
    if not line:
        raise TruncatedFile(f"unexpected end of file while reading {what}")
    return line


def _check_controls(buf, what: str) -> np.ndarray:
    """buf, refused when a byte below 33 is not whitespace."""
    # ASCII whitespace is 9..13 and 32; 14..31 wrap below 18
    stray = buf < 9
    stray |= buf - np.uint8(14) < 18
    if stray.any():
        raise TruncatedFile(f"control byte {buf[np.argmax(stray)]:#04x} in {what}")
    return buf


def _floats(buf, start, width) -> np.ndarray:
    """The tokens buf[start:start + width] as Python-syntax floats.

    Tokens of one width are cast together, read through an ``S{width}``
    view that starts at every byte of buf.
    """
    out = np.empty(len(start))
    # a stable sort of 16-bit keys is a radix sort
    order = np.argsort(width.astype(np.uint16) if width.max(initial=0) < 2**16
                       else width, kind="stable")
    counts = np.bincount(width)
    widths = np.flatnonzero(counts)
    try:
        for w, idx in zip(widths.tolist(), np.split(order, np.cumsum(counts[widths])[:-1])):
            chars = np.ndarray(len(buf) - w + 1, f"S{w}", buf, strides=(1,))
            out[idx] = chars[start[idx]].astype(np.float64)
    except ValueError as exc:
        raise TruncatedFile(f"non-numeric value: {exc}") from exc
    return out


def _ints(buf, start, end) -> np.ndarray:
    """The tokens buf[start:end] as int64: an optional "-", 1 to 18 digits."""
    neg = buf[start] == ord("-")
    n_digits = end - start - neg
    bad = (n_digits < 1) | (n_digits > 18)
    value = np.zeros(len(start), dtype=np.int64)
    # digit k from the right of every token, zeroed where the token has
    # fewer digits (its index then stays above -len(buf)); a byte below
    # "0" wraps above 9
    for k in range(int(n_digits.max(initial=0).clip(0, 18))):
        digit = buf[end - 1 - k] - np.uint8(ord("0"))
        digit *= n_digits > k
        bad |= digit > 9
        value += np.multiply(digit, 10**k, dtype=np.int64)
    if bad.any():
        i = np.argmax(bad)
        raise TruncatedFile(f"bad integer {buf[start[i]:end[i]].tobytes()!r}")
    return np.where(neg, -value, value)


def _line_tokens(buf, line_end):
    """(start, end, first): token t spans buf[start[t]:end[t]], and line i,
    ending at line_end[i], holds tokens first[i]:first[i + 1]."""
    buf = _check_controls(buf, "bundle")
    bounds = np.flatnonzero(np.diff(buf > 32, prepend=False, append=False))
    start, end = bounds[0::2], bounds[1::2]
    return start, end, np.searchsorted(start, np.concatenate([[0], line_end]))


def _read_lines(stream, n: int, what: str):
    """The next n lines of stream, the lines of what, as bytes, and each
    one's end within them.

    A non-ASCII character becomes "?", which no token allows, and the
    last line of the stream needs no final newline.
    """
    # a count too large for islice reads to the end, and fails the check
    lines = islice(stream, min(n, sys.maxsize))
    buf = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8)
    line_end = np.flatnonzero(buf == ord("\n"))
    if len(buf) and buf[-1] != ord("\n"):
        line_end = np.append(line_end, len(buf))
    if len(line_end) < n:
        raise TruncatedFile(
            f"unexpected end of file after {len(line_end)} of the {n} lines of {what}")
    return buf, line_end


def _point_records(buf, line_end, first_point):
    """Decode buf, the three lines of each point from first_point on.

    Returns each point's (position, colour) row and view count, and the
    camera, key and xy of each view-list entry.
    """
    start, end, first = _line_tokens(buf, line_end)
    per_line = np.diff(first).reshape(-1, 3)
    short = (per_line[:, :2] != 3).any(axis=1) | (per_line[:, 2] < 1)
    view_first = first[2:-1:3]
    if not short.any():
        n_views = _ints(buf, start[view_first], end[view_first])
        short = per_line[:, 2] != 1 + 4 * n_views
    if short.any():
        raise TruncatedFile(f"short record for point {first_point + np.argmax(short)}")
    # view-list entry e is the four tokens from entry[e]
    entry = (np.repeat(view_first + 1 - 4 * (np.cumsum(n_views) - n_views), n_views)
             + 4 * np.arange(n_views.sum()))
    tokens = np.concatenate([entry, entry + 1])
    cams, keys = _ints(buf, start[tokens], end[tokens]).reshape(2, -1)
    floats = np.concatenate([(first[:-1:3, None] + np.arange(6)).ravel(),
                             (entry[:, None] + [2, 3]).ravel()])
    values = _floats(buf, start[floats], end[floats] - start[floats])
    n = len(n_views)
    return (values[:6 * n].reshape(-1, 6), n_views, cams, keys,
            values[6 * n:].reshape(-1, 2))


@_decoded
def parse_bundle(stream) -> SfmModel:
    """Parse bundler v0.3 text into an SfmModel.

    The magic and counts lines are read as text, the records as the
    module docstring describes: the camera lines, then each group of
    _GROUP_POINTS points' lines, taken from the stream's lines and
    decoded apart, and then the groups joined.  No array is sized from
    the counts line, so a count larger than the file raises
    TruncatedFile.  Lines after the last record are not read.

    Raises MalformedHeader when the magic line is wrong or a count is
    negative, TruncatedFile when the input ends mid-record, a line holds
    the wrong number of tokens, a token breaks the grammar (a non-ASCII
    character breaks any), a record holds a control byte, a colour is
    outside 0..255, a view-list key outside 0..2**31-1, or a camera
    value, position or view-list coordinate is not finite, and
    IndexOutOfRange when a view list references a camera that does not
    exist.
    """
    magic = _next_line(stream, "magic line").strip()
    if magic != BUNDLE_MAGIC:
        raise MalformedHeader(f"expected {BUNDLE_MAGIC!r}, got {magic!r}")
    counts = _next_line(stream, "camera/point counts").split()
    try:
        num_cameras, num_points = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise MalformedHeader(f"bad counts line: {counts!r}") from exc
    if num_cameras < 0 or num_points < 0:
        raise MalformedHeader(f"negative count in {counts!r}")

    text, ends = _read_lines(stream, 5 * num_cameras, "the cameras")
    start, end, first = _line_tokens(text, ends)
    short = np.diff(first) != 3
    if short.any():
        raise TruncatedFile(f"short record for camera {np.argmax(short) // 5}")
    camera_rows = _floats(text, start, end - start).reshape(-1, 15)

    # a group of points at a time, so that neither the lines nor any
    # index array outgrows a group; a model without points still makes
    # one (empty) group
    groups = []
    for p in range(0, num_points or 1, _GROUP_POINTS):
        q = min(p + _GROUP_POINTS, num_points)
        groups.append(_point_records(
            *_read_lines(stream, 3 * (q - p), f"points {p}..{q - 1}"), p))
    point_rows, n_views, cams_arr, keys, xy = map(np.concatenate, zip(*groups))
    del groups
    offsets = np.concatenate([[0], np.cumsum(n_views)])

    if len(cams_arr) and (cams_arr.max() >= num_cameras or cams_arr.min() < 0):
        raise IndexOutOfRange(
            f"view list references camera {int(cams_arr.max())} "
            f"of {num_cameras}")
    bad_keys = keys[(keys < 0) | (keys >= 2**31)]  # SfmModel holds keys as int32
    if len(bad_keys):
        raise TruncatedFile(f"view-list key {int(bad_keys[0])} outside 0..2**31-1")

    finite = np.isfinite(camera_rows).all(axis=1)
    if not finite.all():
        raise TruncatedFile(f"camera {np.argmin(finite)} holds a non-finite value")

    rgb = point_rows[:, 3:]
    in_range = ((rgb >= 0) & (rgb <= 255)).all(axis=1)  # false for NaN too
    if not in_range.all():
        raise TruncatedFile(f"colour of point {np.argmin(in_range)} outside 0..255")

    pos = np.ascontiguousarray(point_rows[:, :3])
    finite = np.isfinite(pos).all(axis=1)
    bad_views = np.flatnonzero(~np.isfinite(xy).all(axis=1))
    finite[np.searchsorted(offsets, bad_views, side="right") - 1] = False
    if not finite.all():
        raise TruncatedFile(f"point {np.argmin(finite)} holds a non-finite value")

    cameras = [CameraRecord(f, k1, k2, np.reshape(v[:9], (3, 3)), np.array(v[9:]))
               for f, k1, k2, *v in camera_rows.tolist()]
    return SfmModel(cameras, pos, rgb.astype(np.uint8), offsets, cams_arr,
                    keys, xy)


def _f(x) -> str:
    """Shortest exact decimal of a float (plain, no numpy wrapper)."""
    return repr(float(x))


def write_bundle(model: SfmModel, stream) -> None:
    """Serialize a model back to bundler v0.3 text (exact float repr)."""
    w = stream.write
    w(BUNDLE_MAGIC + "\n")
    w(f"{model.num_cameras} {model.num_points}\n")
    for cam in model.cameras:
        w(f"{_f(cam.focal_px)} {_f(cam.k1)} {_f(cam.k2)}\n")
        for row in np.asarray(cam.rotation, dtype=float):
            w(f"{_f(row[0])} {_f(row[1])} {_f(row[2])}\n")
        t = np.asarray(cam.translation, dtype=float)
        w(f"{_f(t[0])} {_f(t[1])} {_f(t[2])}\n")
    for i in range(model.num_points):
        p = model.positions[i]
        c = model.colors[i]
        w(f"{_f(p[0])} {_f(p[1])} {_f(p[2])}\n")
        w(f"{int(c[0])} {int(c[1])} {int(c[2])}\n")
        sl = model.track_slice(i)
        cams = model.track_cams[sl]
        keys = model.track_keys[sl]
        xy = model.track_xy[sl]
        parts = [str(len(cams))]
        for cam, key, (x, y) in zip(cams, keys, xy):
            parts.append(f"{cam} {key} {_f(x)} {_f(y)}")
        w(" ".join(parts) + "\n")


def keyfile_records(xy, descriptor, scale=1.0, orientation=0.0) -> np.recarray:
    """A keyfile record array from (n, 2) (x, y) and (n, 128) descriptors."""
    keys = np.recarray(len(xy), dtype=KEYFILE_DTYPE)
    keys.xy = xy
    keys.scale = scale
    keys.orientation = orientation
    keys.descriptor = descriptor
    return keys


@_decoded
def parse_keyfile(stream) -> np.recarray:
    """Parse a Lowe keyfile into a record array of ``KEYFILE_DTYPE``.

    Stored (row, col) become xy = (col, row).  The header line is split
    as text; the body follows the byte grammar of the module docstring.
    Raises MalformedHeader for a bad or negative count, DimensionMismatch
    for a dimension other than 128, and TruncatedFile when the body is
    not 132 tokens per feature, holds a non-ASCII byte or a control
    byte other than whitespace, or a token breaks the grammar.
    """
    fields = stream.readline().split()
    try:
        num_features, dim = int(fields[0]), int(fields[1])
    except (ValueError, IndexError) as exc:
        raise MalformedHeader(f"bad keyfile header: {fields!r}") from exc
    if num_features < 0:
        raise MalformedHeader(f"negative feature count {num_features}")
    if dim != DESCRIPTOR_DIM:
        raise DimensionMismatch(f"descriptor dimension {dim}, expected {DESCRIPTOR_DIM}")

    per_feature = 4 + DESCRIPTOR_DIM
    buf = _check_controls(
        np.frombuffer(stream.read().encode("ascii"), dtype=np.uint8), "keyfile")
    # last[f, i] is the last byte of token i of feature f
    tok = buf > 32
    last = np.flatnonzero(tok[:-1] > tok[1:])
    if len(buf) and tok[-1]:
        last = np.append(last, len(buf) - 1)
    if len(last) != per_feature * num_features:
        raise TruncatedFile(
            f"{len(last)} values for {num_features} features of {per_feature}")
    last = last.reshape(num_features, per_feature)

    # each of the four numbers is cast with the whitespace before it,
    # which float syntax allows
    head_end = last[:, :4] + 1
    head_start = np.empty_like(head_end)
    head_start[:, 1:] = head_end[:, :-1]
    head_start[1:, 0] = last[:-1, -1] + 1
    head_start[:1, 0] = 0
    head = _floats(buf, head_start.ravel(), (head_end - head_start).ravel())
    head = head.reshape(-1, 4)

    # the last four bytes of every token, gathered by stepping last back
    # in place (a head column, dropped, may wrap to the body's end)
    tail = []
    for _ in range(4):
        tail.append(buf[last][:, 4:])
        last -= 1
    ones, tens, hundreds, before = tail
    # a byte below "0" wraps above 9, and any hundreds digit above 2
    # breaks the range, so only the ones and tens need a digit check
    zero = np.uint8(ord("0"))
    two = tens > 32
    three = two & (hundreds > 32)
    ones = ones - zero
    tens = (tens - zero) * two
    value = (ones + np.multiply(tens, 10, dtype=np.int16)
             + np.multiply((hundreds - zero) * three, 100, dtype=np.int16))
    ok = ~(three & (before > 32)) & (np.maximum(ones, tens) <= 9) & (value <= 255)
    if not ok.all():
        raise TruncatedFile(
            f"bad descriptor value in feature {np.argmin(ok.all(axis=1))}")
    return keyfile_records(head[:, 1::-1], value, head[:, 2], head[:, 3])


def write_keyfile(keys: np.recarray, stream) -> None:
    """Serialize a keyfile record array in Lowe layout (20 values per line)."""
    w = stream.write
    w(f"{len(keys)} {DESCRIPTOR_DIM}\n")
    heads = np.column_stack([keys.xy[:, ::-1], keys.scale, keys.orientation])
    for head, desc in zip(heads.tolist(), keys.descriptor.tolist()):
        w(" ".join(map(repr, head)) + "\n")
        for start in range(0, DESCRIPTOR_DIM, 20):
            w(" " + " ".join(map(str, desc[start:start + 20])) + "\n")


@_decoded
def parse_image_list(stream) -> list:
    """Newline-separated entries; blanks skipped, whitespace trimmed.

    Raises TruncatedFile for a name holding a NUL, which no file name can.
    """
    out = []
    for line in stream:
        name = line.strip()
        if "\0" in name:
            raise TruncatedFile(f"image name {name!r} holds a NUL")
        if name:
            out.append(name)
    return out


def split_golden(full: SfmModel, query_names, camera_names):
    """Remove query cameras from a model, keeping their records aside.

    Returns (info model, {query name: CameraRecord}).  View-list entries
    of query cameras are dropped, surviving cameras are re-indexed and
    points left with an empty visibility set are removed.  Raises
    CameraListMismatch unless camera_names names each camera's own image,
    UnknownQuery for a query it does not name, and DuplicateQuery for a
    query that query_names names twice.
    """
    if len(camera_names) != full.num_cameras:
        raise CameraListMismatch(
            f"the camera list names {len(camera_names)} images, the model "
            f"has {full.num_cameras} cameras")
    name_to_idx = {name: idx for idx, name in enumerate(camera_names)}
    for idx, name in enumerate(camera_names):
        if name_to_idx[name] != idx:  # a repeated name keeps its last index
            raise CameraListMismatch(f"the camera list names {name!r} twice")
    golden = {}
    keep_cam = np.ones(full.num_cameras, dtype=bool)
    for name in query_names:
        if name not in name_to_idx:
            raise UnknownQuery(f"query {name!r} not in camera list")
        if name in golden:
            raise DuplicateQuery(f"the query list names {name!r} twice")
        keep_cam[name_to_idx[name]] = False
        golden[name] = full.cameras[name_to_idx[name]]
    new_cam_idx = np.cumsum(keep_cam) - 1  # old index -> new index

    keep_entry = keep_cam[full.track_cams]
    new_lens = np.bincount(full.track_points[keep_entry], minlength=full.num_points)
    keep_point = new_lens > 0

    new_offsets = np.concatenate([[0], np.cumsum(new_lens[keep_point])]).astype(np.int64)
    entry_mask = keep_entry & keep_point[full.track_points]
    info = SfmModel(
        [cam for cam, k in zip(full.cameras, keep_cam) if k],
        full.positions[keep_point],
        full.colors[keep_point],
        new_offsets,
        new_cam_idx[full.track_cams[entry_mask]],
        full.track_keys[entry_mask],
        full.track_xy[entry_mask],
        None if full.mean_descriptors is None else full.mean_descriptors[keep_point],
    )
    return info, golden


def build_mean_descriptors(model: SfmModel, keyfile_for_camera) -> SfmModel:
    """Average per-view SIFT descriptors over each point's track.

    keyfile_for_camera(cam_idx) must return the (n, 128) descriptor
    matrix of that camera's keyfile, integers in 0..255; it is called
    once per camera with a view-list entry, in ascending camera order.
    Sums and the rounding stay in integers: each mean is
    floor(sum / count + 1/2), rounded half up, and it lies in 0..255.
    The sums take the narrowest of int16, int32 and int64 that holds
    511 times the longest track: 2 bytes a value for tracks of up to 64
    views.  Beside one camera's keyfile and rows, the peak is then about
    3 bytes a value: the sums and the returned means.
    Raises EmptyTrack, before any keyfile is read, when a point has no
    view-list entry, and IndexOutOfRange when a key is not a feature of
    its keyfile.  Returns a new model with mean_descriptors filled in.
    """
    counts = np.diff(model.track_offsets)
    if (counts == 0).any():
        raise EmptyTrack(f"{int((counts == 0).sum())} points have no descriptors")
    # the narrowest type that holds 2 * sum + count <= 511 * count
    longest = 511 * int(counts.max(initial=0))
    dtype = next(t for t in (np.int16, np.int32, np.int64) if longest <= np.iinfo(t).max)
    sums = np.zeros((model.num_points, DESCRIPTOR_DIM), dtype=dtype)
    # entries grouped by camera, each group in view-list order
    order = np.argsort(model.track_cams, kind="stable")
    cams, starts = np.unique(model.track_cams[order], return_index=True)
    for cam_idx, entries in zip(cams.tolist(), np.split(order, starts[1:])):
        descs = np.asarray(keyfile_for_camera(cam_idx))
        keys = model.track_keys[entries]
        bad = keys[(keys < 0) | (keys >= len(descs))]
        if len(bad):
            raise IndexOutOfRange(
                f"camera {cam_idx}: key {int(bad[0])} outside keyfile "
                f"of {len(descs)} features")
        points, rows = model.track_points[entries], descs[keys]
        if rows.dtype.kind == "f":  # += refuses to cast floats to the sums' ints
            rows = rows.astype(dtype)
        # a group's points ascend, so a point its camera sees twice shows as
        # equal neighbours; += would add it once, add.at adds every repeat
        if (points[1:] == points[:-1]).any():
            np.add.at(sums, points, rows)
        else:
            sums[points] += rows
    # floor(sum / c + 1/2) == (2 * sum + c) // (2 * c), in place
    c = counts.astype(dtype)[:, None]
    sums *= 2
    sums += c
    sums //= 2 * c
    return model.with_mean_descriptors(sums.astype(np.uint8))
