"""Bundler models, SIFT keyfiles and query lists.

The bundler v0.3 text format carries cameras (focal, two radial
distortion coefficients, world-to-camera rotation, translation) and 3D
points (position, color, view list).  Bundles are parsed line by line
so memory stays bounded per record; point data lands in columnar numpy
arrays, which keeps a two-million-point model loadable in seconds.
Every camera value, position and view-list coordinate must be finite.

Keyfiles follow Lowe's layout: a ``count 128`` header line, then per
feature ``row col scale orientation`` and 128 descriptor values wrapped
over several lines.  The body after the header line is read as ASCII
bytes.  A token is a run of bytes above 0x20; tokens are separated by
ASCII whitespace (space, tab, LF, VT, FF, CR), and any other byte below
0x21 is refused.  Each feature is 132 tokens: four numbers in Python
``float`` syntax, then 128 descriptor values of one to three ASCII
digits in 0..255 (``7``, ``07`` and ``007``, but not ``7.0``, ``+7`` or
``0007``).  The line layout is not checked, only the token count and
this grammar, and the whole body is decoded with a few vectorized numpy
passes.  A parsed keyfile is one record array of ``KEYFILE_DTYPE``.

A parser that meets a byte its stream cannot decode raises
TruncatedFile.
"""

from array import array
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .errors import (
    CameraListMismatch,
    DimensionMismatch,
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


class SfmModel:
    """Cameras plus columnar point data.

    Point attributes live in flat arrays (positions, colors, view-list
    segments indexed by ``track_offsets``) instead of per-point objects.
    The view lists are decoded here and nowhere else, each once on first
    use: ``track_points`` gives the point of every view-list entry and
    ``visibilities`` every point's camera set.  Instances are immutable
    after construction.
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


def _decoded(parse):
    """``parse`` with a stream that cannot be decoded raising TruncatedFile."""
    @wraps(parse)
    def checked(stream):
        try:
            return parse(stream)
        except UnicodeError as exc:  # a byte the codec refuses, a non-ASCII keyfile
            raise TruncatedFile(f"unreadable text: {exc}") from exc
    return checked


def _next_line(lines, what: str) -> str:
    line = next(lines, None)
    if line is None:
        raise TruncatedFile(f"unexpected end of file while reading {what}")
    return line


def _rows(values: array, *shape) -> np.ndarray:
    """An ``array`` of numbers as a numpy view of shape (-1, *shape)."""
    return np.frombuffer(values, dtype=values.typecode).reshape(-1, *shape) \
        if values else np.empty((0, *shape), dtype=values.typecode)


@_decoded
def parse_bundle(stream) -> SfmModel:
    """Parse bundler v0.3 text into an SfmModel.

    Raises MalformedHeader when the magic line is wrong, TruncatedFile
    when the input ends mid-record, a colour is outside 0..255 or a
    camera value, position or view-list coordinate is not finite, and
    IndexOutOfRange when a view list references a camera that does not
    exist.
    """
    lines = iter(stream)
    magic = _next_line(lines, "magic line").strip()
    if magic != BUNDLE_MAGIC:
        raise MalformedHeader(f"expected {BUNDLE_MAGIC!r}, got {magic!r}")
    counts = _next_line(lines, "camera/point counts").split()
    try:
        num_cameras, num_points = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise MalformedHeader(f"bad counts line: {counts!r}") from exc

    # five lines of three numbers per camera: focal k1 k2, the three
    # rotation rows, the translation
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

    camera_rows = _rows(cam_values, 15)
    finite = np.isfinite(camera_rows).all(axis=1)
    if not finite.all():
        raise TruncatedFile(f"camera {np.argmin(finite)} holds a non-finite value")

    rgb = _rows(colors, 3)
    in_range = ((rgb >= 0) & (rgb <= 255)).all(axis=1)  # false for NaN too
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
                    _rows(track_keys), xy)


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
    buf = np.frombuffer(stream.read().encode("ascii"), dtype=np.uint8)
    # ASCII whitespace is 9..13 and 32; no other byte below 33 may occur
    stray = (buf < 9) | ((buf > 13) & (buf < 32))
    if stray.any():
        raise TruncatedFile(f"control byte {buf[np.argmax(stray)]:#04x} in keyfile")
    # token i of feature f spans bytes bounds[f, i, 0] up to bounds[f, i, 1];
    # int32 halves the index arrays of any body under 2 GiB
    bounds = np.flatnonzero(np.diff(buf > 32, prepend=False, append=False))
    bounds = bounds.astype(np.int32 if len(buf) < 2**31 else np.int64)
    if len(bounds) != 2 * per_feature * num_features:
        raise TruncatedFile(
            f"{len(bounds) // 2} values for {num_features} features of {per_feature}")
    bounds = bounds.reshape(num_features, per_feature, 2)

    # descriptor values from the last three bytes of each token; a byte
    # below "0" wraps above 9, and any hundreds digit above 2 breaks the
    # range, so only the ones and tens need a digit check
    end = bounds[:, 4:, 1]
    length = end - bounds[:, 4:, 0]
    zero = np.uint8(ord("0"))
    ones = buf[end - 1] - zero
    tens = (buf[end - 2] - zero) * (length > 1)
    hundreds = (buf[end - 3] - zero) * (length > 2)
    value = (ones + np.multiply(tens, 10, dtype=np.int16)
             + np.multiply(hundreds, 100, dtype=np.int16))
    ok = (length <= 3) & (np.maximum(ones, tens) <= 9) & (value <= 255)
    if not ok.all():
        raise TruncatedFile(
            f"bad descriptor value in feature {np.argmin(ok.all(axis=1))}")

    # the four numbers per feature, cast from one (tokens, width) byte
    # matrix per token width, so no matrix outgrows the file
    start = bounds[:, :4, 0].ravel()
    width = bounds[:, :4, 1].ravel() - start
    head = np.empty(len(start))
    order = np.argsort(width)
    widths, first = np.unique(width[order], return_index=True)
    try:
        for w, idx in zip(widths.tolist(), np.split(order, first[1:])):
            chars = buf[start[idx, None] + np.arange(w)]
            head[idx] = chars.view(f"S{w}").ravel().astype(np.float64)
    except ValueError as exc:
        raise TruncatedFile(f"non-numeric keyfile value: {exc}") from exc
    head = head.reshape(-1, 4)
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
    points left with an empty visibility set are removed.
    """
    if len(camera_names) != full.num_cameras:
        raise CameraListMismatch(
            f"the camera list names {len(camera_names)} images, the model "
            f"has {full.num_cameras} cameras")
    name_to_idx = {}
    for idx, name in enumerate(camera_names):
        name_to_idx.setdefault(name, idx)
    golden = {}
    query_idx = set()
    for name in query_names:
        if name not in name_to_idx:
            raise UnknownQuery(f"query {name!r} not in camera list")
        idx = name_to_idx[name]
        query_idx.add(idx)
        golden[name] = full.cameras[idx]

    keep_cam = np.ones(full.num_cameras, dtype=bool)
    for idx in query_idx:
        keep_cam[idx] = False
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
    matrix of that camera's keyfile; it is called once per camera with
    a view-list entry, in ascending camera order.  Raises EmptyTrack,
    before any keyfile is read, when a point has no view-list entry, and
    IndexOutOfRange when a key is not a feature of its keyfile.
    Returns a new model with mean_descriptors filled in.
    """
    counts = np.diff(model.track_offsets)
    if (counts == 0).any():
        raise EmptyTrack(f"{int((counts == 0).sum())} points have no descriptors")
    sums = np.zeros((model.num_points, DESCRIPTOR_DIM), dtype=np.float64)
    # entries grouped by camera, each group in view-list order
    order = np.argsort(model.track_cams, kind="stable")
    cams, starts = np.unique(model.track_cams[order], return_index=True)
    for cam_idx, entries in zip(cams.tolist(), np.split(order, starts[1:])):
        descs = np.asarray(keyfile_for_camera(cam_idx), dtype=np.float64)
        keys = model.track_keys[entries]
        bad = keys[(keys < 0) | (keys >= len(descs))]
        if len(bad):
            raise IndexOutOfRange(
                f"camera {cam_idx}: key {int(bad[0])} outside keyfile "
                f"of {len(descs)} features")
        np.add.at(sums, model.track_points[entries], descs[keys])
    mean = sums / counts[:, None]
    return model.with_mean_descriptors(
        np.clip(np.floor(mean + 0.5), 0, 255).astype(np.uint8))
