"""Nearest-neighbor descriptor search and ratio-test match filtering.

DescriptorIndex is the only code that knows how 2-NN is computed: its
query gives each row's exact two nearest points (Euclidean metric on raw
SIFT values), nearest first.  It takes descriptors of any integer or
float type and computes in float64, exact for byte-valued descriptors
(each squared distance is an integer below 2^53, its root correctly
rounded).  The backend is a kd-tree built as one leaf, so each query row
is a plain scan in C over every point, with no tree to traverse.  In
128-D a tree prunes little, and traversal cost more than it saved: on a
7 162-point street model (2 cores) 1 400 rows took 0.82 s with 16-point
leaves, 0.61 s with 256 and 0.33 s with one leaf, with identical
results.  The index shares a C-contiguous float64 matrix with its
caller instead of copying it (a copy of the street model's means would
cost 7.3 MB at set-up), so the caller must not write to that matrix
while the index is in use; descriptors of any other type or layout are
converted into the index's own copy.  A multi-row query is split over
every CPU (rows are searched independently); a one-row query, as
backmatching issues per popped point, runs on the calling thread, where
starting threads would cost more than the search.  A match is a pair of indices,
a query feature and a model point; its position and camera views stay in
the model.
"""

import hashlib
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import DimensionMismatch, EmptyInput, check_setting
from .sfm_data import DESCRIPTOR_DIM, QueryImage

CACHE_VERSION = 1
# np.load's errors on a missing, foreign, cut or bit-flipped cache file
# (RuntimeError: an unsupported zip feature; TokenError: a bad array header)
_UNREADABLE_CACHE = (OSError, KeyError, ValueError, EOFError, RuntimeError,
                     zipfile.BadZipFile, zlib.error, tokenize.TokenError)


@dataclass(frozen=True, eq=False)
class Matches:
    """2D-feature-to-3D-point correspondences as two index arrays.

    Entry i matches query feature feature_idx[i] to model point
    point_idx[i].  A match's position and camera views are the model's,
    read through point_idx where they are used.
    """

    feature_idx: np.ndarray
    point_idx: np.ndarray

    def __post_init__(self):
        for name in ("feature_idx", "point_idx"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.intp))

    @classmethod
    def empty(cls) -> "Matches":
        return cls([], [])

    def __len__(self) -> int:
        return len(self.feature_idx)

    def take(self, index) -> "Matches":
        """The entries selected by an index array or a boolean mask."""
        return Matches(self.feature_idx[index], self.point_idx[index])

    def __add__(self, other: "Matches") -> "Matches":
        return Matches(np.concatenate([self.feature_idx, other.feature_idx]),
                       np.concatenate([self.point_idx, other.point_idx]))


class DescriptorIndex:
    """Exact 2-NN over (n, 128) descriptors, n > 0: a one-leaf kd-tree.

    It shares a C-contiguous float64 descriptors matrix, which the caller
    must then leave unchanged; any other matrix is converted to a copy.
    """

    def __init__(self, descriptors):
        mat = np.asarray(descriptors, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != DESCRIPTOR_DIM:
            raise DimensionMismatch(
                f"descriptors must be (n, {DESCRIPTOR_DIM}), got {mat.shape}")
        if len(mat) == 0:
            raise EmptyInput("cannot index zero descriptors")
        self._tree = cKDTree(mat, leafsize=len(mat))

    def __len__(self) -> int:
        return self._tree.n

    def query(self, vectors):
        """Distances and indices of the two nearest points per query row.

        vectors is one descriptor or a matrix of them.  Returns (dists,
        idx), each (rows, 2), nearest first.  An index of one point
        answers a second neighbor at distance inf with index len(self).
        """
        vecs = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        return self._tree.query(vecs, k=2, workers=-1 if len(vecs) > 1 else 1)


def build_index(points) -> DescriptorIndex:
    """DescriptorIndex(points), kept because perfbench/pipeline.py builds
    its index, and perfbench's tracer times that build, through this name."""
    return DescriptorIndex(points)


def ratio_test(d1, d2, ratio: float):
    """Lowe's test, elementwise: accept iff d2 != 0 and d1 < ratio * d2;
    InvalidParams unless ratio lies in (0, 1] (see check_setting)."""
    check_setting("ratio", ratio, ratio=True)
    return (d2 != 0) & (d1 < ratio * d2)


def find_good_matches(index: DescriptorIndex, query: QueryImage, ratio: float,
                      visibilities=None, positions=None) -> Matches:
    """Ratio-test filter of each query feature's 2-NN result.

    visibilities and positions are not read: perfbench/pipeline.py still
    passes the model's, and they go when it stops.
    """
    if len(query.features) == 0 or len(index) < 2:
        return Matches.empty()  # a single-point index has no second neighbor
    dists, idx = index.query(query.features.descriptor)
    feature_idx = np.flatnonzero(ratio_test(dists[:, 0], dists[:, 1], ratio))
    return Matches(feature_idx, idx[feature_idx, 0])


def descriptor_source_key(model, keyfile_paths) -> str:
    """Content hash of everything descriptor averaging reads.

    Covers the model's track layout (offsets, cameras, keys) and the
    bytes of every keyfile, so editing any of them invalidates an
    on-disk descriptor cache.
    """
    h = hashlib.sha256()
    for arr in (model.track_offsets, model.track_cams, model.track_keys):
        h.update(np.ascontiguousarray(arr).tobytes())
    for path in keyfile_paths:
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return h.hexdigest()


def save_index_cache(path, descriptors, checksum: str) -> None:
    """Write descriptors + checksum so a later run can skip averaging."""
    with open(path, "wb") as fh:  # numpy adds ".npz" to a path, not to a file
        np.savez_compressed(fh, version=np.int64(CACHE_VERSION),
                            checksum=np.bytes_(checksum.encode()),
                            descriptors=np.asarray(descriptors))


def load_index_cache(path, checksum: str, num_points: int):
    """Load cached descriptors; None when missing, stale, unreadable or
    not a (num_points, 128) uint8 array."""
    try:
        with np.load(path) as data:
            if int(data["version"]) != CACHE_VERSION:
                return None
            if bytes(data["checksum"]).decode() != checksum:
                return None
            descriptors = data["descriptors"]
    except _UNREADABLE_CACHE:
        return None
    if descriptors.shape != (num_points, DESCRIPTOR_DIM) or descriptors.dtype != np.uint8:
        return None
    return descriptors
