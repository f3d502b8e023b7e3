"""Bundler models, SIFT keyfiles and query lists.

The bundler v0.3 text format carries cameras (focal, two radial
distortion coefficients, world-to-camera rotation, translation) and 3D
points (position, color, view list).  Bundles are parsed line by line
so memory stays bounded per record; point data lands in columnar numpy
arrays, which keeps a two-million-point model loadable in seconds.

Keyfiles follow Lowe's layout: a ``count 128`` header line, then per
feature ``row col scale orientation`` and 128 descriptor values wrapped
over several lines.  The tokens after the header are converted to
floats in blocks of whole lines and read as 132 values per feature, so
the line layout is not checked, only the token count and the value
ranges.  A parsed keyfile is one record array of ``KEYFILE_DTYPE``.
"""

from array import array
from dataclasses import dataclass

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
    segments indexed by ``track_offsets``) instead of per-point objects;
    ``visibilities`` holds each point's camera set, built once on first
    use.  Instances are immutable after construction and safe to share
    across threads.
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
        self._visibilities = None

    @property
    def num_cameras(self) -> int:
        return len(self.cameras)

    @property
    def num_points(self) -> int:
        return len(self.positions)

    def track_slice(self, i: int) -> slice:
        return slice(self.track_offsets[i], self.track_offsets[i + 1])

    def visibility(self, i: int) -> frozenset:
        return frozenset(self.track_cams[self.track_slice(i)].tolist())

    @property
    def visibilities(self) -> np.ndarray:
        """Object array of every point's camera frozenset."""
        if self._visibilities is None:
            vis = np.empty(self.num_points, dtype=object)
            vis[:] = [self.visibility(i) for i in range(self.num_points)]
            self._visibilities = vis
        return self._visibilities

    def with_mean_descriptors(self, descriptors) -> "SfmModel":
        return SfmModel(self.cameras, self.positions, self.colors,
                        self.track_offsets, self.track_cams, self.track_keys,
                        self.track_xy, descriptors)


def _next_line(lines, what: str) -> str:
    line = next(lines, None)
    if line is None:
        raise TruncatedFile(f"unexpected end of file while reading {what}")
    return line


def parse_bundle(stream) -> SfmModel:
    """Parse bundler v0.3 text into an SfmModel.

    Raises MalformedHeader when the magic line is wrong, TruncatedFile
    when the input ends mid-record or a colour is outside 0..255, and
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

    cameras = []
    for ci in range(num_cameras):
        try:
            f, k1, k2 = map(float, _next_line(lines, f"camera {ci}").split())
            rows = [tuple(map(float, _next_line(lines, f"camera {ci}").split()))
                    for _ in range(3)]
            rotation = np.array(rows, dtype=float).reshape(3, 3)
            tx, ty, tz = map(float, _next_line(lines, f"camera {ci}").split())
        except ValueError as exc:
            raise TruncatedFile(f"short record for camera {ci}") from exc
        cameras.append(CameraRecord(f, k1, k2, rotation,
                                    np.array([tx, ty, tz], dtype=float)))

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

    cams_arr = np.frombuffer(track_cams, dtype=np.int64) if track_cams else np.empty(0, np.int64)
    if len(cams_arr) and (cams_arr.max() >= num_cameras or cams_arr.min() < 0):
        raise IndexOutOfRange(
            f"view list references camera {int(cams_arr.max())} "
            f"of {num_cameras}")

    rgb = np.frombuffer(colors, dtype=float).reshape(-1, 3) if colors else np.empty((0, 3))
    in_range = ((rgb >= 0) & (rgb <= 255)).all(axis=1)  # false for NaN too
    if not in_range.all():
        raise TruncatedFile(f"colour of point {np.argmin(in_range)} outside 0..255")

    offsets = np.concatenate([[0], np.cumsum(track_lens, dtype=np.int64)]) \
        if track_lens else np.zeros(1, np.int64)
    if track_x:
        xy = np.column_stack([np.frombuffer(track_x, dtype=float),
                              np.frombuffer(track_y, dtype=float)])
    else:
        xy = np.empty((0, 2))
    return SfmModel(
        cameras,
        np.frombuffer(positions, dtype=float).reshape(-1, 3) if positions else np.empty((0, 3)),
        rgb.astype(np.uint8),
        offsets,
        cams_arr,
        np.frombuffer(track_keys, dtype=np.int64) if track_keys else np.empty(0, np.int64),
        xy,
    )


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


def parse_keyfile(stream) -> np.recarray:
    """Parse a Lowe keyfile into a record array of ``KEYFILE_DTYPE``.

    Stored (row, col) become xy = (col, row).  Raises MalformedHeader
    for a bad or negative count, DimensionMismatch for a dimension other
    than 128, and TruncatedFile when the body is not 132 numbers per
    feature or a descriptor value is not an integer in 0..255.
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
    blocks = []
    # about 64 KB of lines at a time, so the list of tokens stays small
    while lines := stream.readlines(1 << 16):
        try:
            blocks.append(np.array("".join(lines).split(), dtype=float))
        except ValueError as exc:
            raise TruncatedFile(f"non-numeric keyfile value: {exc}") from exc
    vals = np.concatenate(blocks) if blocks else np.empty(0)
    if len(vals) != per_feature * num_features:
        raise TruncatedFile(
            f"{len(vals)} values for {num_features} features of {per_feature}")
    vals = vals.reshape(num_features, per_feature)
    desc = vals[:, 4:]
    ok = ((desc >= 0) & (desc <= 255) & (desc == np.floor(desc))).all(axis=1)
    if not ok.all():  # NaN fails every comparison, inf the range
        raise TruncatedFile(f"bad descriptor value in feature {np.argmin(ok)}")
    return keyfile_records(vals[:, 1::-1], desc, vals[:, 2], vals[:, 3])


def write_keyfile(keys: np.recarray, stream) -> None:
    """Serialize a keyfile record array in Lowe layout (20 values per line)."""
    w = stream.write
    w(f"{len(keys)} {DESCRIPTOR_DIM}\n")
    heads = np.column_stack([keys.xy[:, ::-1], keys.scale, keys.orientation])
    for head, desc in zip(heads.tolist(), keys.descriptor.tolist()):
        w(" ".join(map(repr, head)) + "\n")
        for start in range(0, DESCRIPTOR_DIM, 20):
            w(" " + " ".join(map(str, desc[start:start + 20])) + "\n")


def parse_image_list(stream) -> list:
    """Newline-separated entries; blanks skipped, whitespace trimmed."""
    out = []
    for line in stream:
        name = line.strip()
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
    lens = np.diff(full.track_offsets)
    point_of_entry = np.repeat(np.arange(full.num_points), lens)
    new_lens = np.bincount(point_of_entry[keep_entry], minlength=full.num_points)
    keep_point = new_lens > 0

    new_offsets = np.concatenate([[0], np.cumsum(new_lens[keep_point])]).astype(np.int64)
    entry_mask = keep_entry & keep_point[point_of_entry]
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
    matrix of that camera's keyfile; each camera is requested once.
    Returns a new model with mean_descriptors filled in.
    """
    sums = np.zeros((model.num_points, DESCRIPTOR_DIM), dtype=np.float64)
    counts = np.zeros(model.num_points, dtype=np.int64)
    lens = np.diff(model.track_offsets)
    point_of_entry = np.repeat(np.arange(model.num_points), lens)
    for cam_idx in range(model.num_cameras):
        in_cam = model.track_cams == cam_idx
        if not in_cam.any():
            continue
        descs = np.asarray(keyfile_for_camera(cam_idx), dtype=np.float64)
        keys = model.track_keys[in_cam]
        if len(descs) and keys.max() >= len(descs):
            raise IndexOutOfRange(
                f"camera {cam_idx}: key {int(keys.max())} outside keyfile "
                f"of {len(descs)} features")
        pts = point_of_entry[in_cam]
        np.add.at(sums, pts, descs[keys])
        np.add.at(counts, pts, 1)
    if (counts == 0).any():
        raise EmptyTrack(f"{int((counts == 0).sum())} points have no descriptors")
    mean = sums / counts[:, None]
    return model.with_mean_descriptors(
        np.clip(np.floor(mean + 0.5), 0, 255).astype(np.uint8))
