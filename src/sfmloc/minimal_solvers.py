"""Minimal absolute-pose solvers and the frame conventions around them.

Two solvers are provided: a three-point solver for cameras with known
focal length (parametrization of Kneip, Scaramuzza and Siegwart, CVPR
2011) and a four-point solver that additionally recovers the focal
length (Groebner-basis solver of Bujnak, Kukelova and Pajdla, CVPR
2008).  Each solves a batch of samples as one array computation: the
problems come stacked along a first axis, and every pose candidate of
the batch comes back in one Candidates stack that names the row it
solves.  A degenerate row (collinear or coincident points, coincident
or coplanar rays) or one without a physically valid root gives no
candidate and leaves the other rows unchanged.  Everything downstream
works in one internal frame: the camera looks along +Z, +X points to
the right and +Y to the top of the image, and image coordinates are
centered at the principal point.
"""

from dataclasses import dataclass

import numpy as np

# Rotation taking bundler's camera frame (looking along -Z) to the
# internal one (looking along +Z): a half turn about the camera X axis.
BUNDLER_FLIP = np.diag([1.0, -1.0, -1.0])

_REAL_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class Pose:
    """Camera pose in the internal convention.

    rotation maps world coordinates to camera coordinates, center is the
    camera position in world units, focal_px is the focal length in
    pixels (None when not determined by the producing solver).
    """

    rotation: np.ndarray
    center: np.ndarray
    focal_px: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        return (np.asarray(points, dtype=float) - self.center) @ self.rotation.T


@dataclass(frozen=True)
class Candidates:
    """Pose candidates of a batch of samples, stacked along a first axis.

    Candidate k solves batch row sample[k]; rows come in ascending order
    and, within a row, in the solver's order.  rotation (K, 3, 3),
    center (K, 3) and focal_px (K,) are those of Pose; focal_px is NaN
    where the solver does not determine it (P3P).
    """

    sample: np.ndarray
    rotation: np.ndarray
    center: np.ndarray
    focal_px: np.ndarray

    def __len__(self) -> int:
        return len(self.sample)

    def pose(self, k: int) -> Pose:
        return Pose(self.rotation[k], self.center[k], float(self.focal_px[k]))


def normalize_points(points, width: float, height: float) -> np.ndarray:
    """Shift pixel coordinates so the image center is the origin.

    Input (x, y) follow the parsed-keyfile convention (x to the right,
    y growing towards the bottom row); the output flips y so +Y points
    to the top of the image.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 0] - width / 2.0
    out[:, 1] = height / 2.0 - pts[:, 1]
    return out


def denormalize_points(points, width: float, height: float) -> np.ndarray:
    """Inverse of :func:`normalize_points`."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty_like(pts)
    out[:, 0] = pts[:, 0] + width / 2.0
    out[:, 1] = height / 2.0 - pts[:, 1]
    return out


def bearing_vectors(centered_xy: np.ndarray, focal_px: float) -> np.ndarray:
    """Unit rays (..., 3) through centered image points (..., 2) for a known focal length."""
    pts = np.atleast_2d(np.asarray(centered_xy, dtype=float))
    rays = np.concatenate([pts, np.full(pts.shape[:-1] + (1,), focal_px)], axis=-1)
    return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


def bundler_to_internal(record) -> Pose:
    """Convert a bundler camera record to the internal convention.

    The camera center comes from the original bundler rotation and
    translation (c = -R^T t); the rotation is then flipped onto the
    +Z-looking frame.
    """
    rot = np.asarray(record.rotation, dtype=float)
    trans = np.asarray(record.translation, dtype=float)
    center = -rot.T @ trans
    return Pose(BUNDLER_FLIP @ rot, center, float(record.focal_px))


def internal_to_bundler(pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation of ``pose`` in the bundler convention."""
    rot = BUNDLER_FLIP @ pose.rotation
    return rot, -rot @ pose.center


def _cross(u, v) -> np.ndarray:
    """np.cross of 3-vectors along the last axis, bit for bit, without its axis handling."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _dot(u, v) -> np.ndarray:
    """Dot products along the last axis, each rounded as the 1-D u @ v.

    Stacked np.matmul makes one BLAS call a matrix, so it rounds a row
    as the unbatched product does, whatever the batch around it; so do
    elementwise operations, and np.float_power(x, 2) rounds as a numpy
    scalar's x**2 (libm pow).  The solvers keep to these three.
    """
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _norm(u) -> np.ndarray:
    """np.linalg.norm of each vector along the last axis, as for a 1-D array."""
    return np.sqrt(_dot(u, u))


def _mv(a, v) -> np.ndarray:
    """a @ v for stacks of matrices a and vectors v."""
    return np.matmul(a, v[..., None])[..., 0]


def _sq(x) -> np.ndarray:
    """x**2, rounded as a numpy scalar's square (libm pow), not as x * x."""
    return np.float_power(x, 2.0)


def _well_posed(world: np.ndarray, triples, rel_tol: float = 1e-9) -> np.ndarray:
    """Rows of world (B, n, 3) in which no listed triple of points is
    collinear or coincident."""
    ok = np.ones(len(world), dtype=bool)
    for i, j, k in triples:
        u = world[:, j] - world[:, i]
        v = world[:, k] - world[:, i]
        scale = _norm(u) * _norm(v)
        ok &= (scale != 0.0) & (_norm(_cross(u, v)) >= rel_tol * scale)
    return ok


def _camera_frame(f: np.ndarray) -> np.ndarray:
    """Rows e1, e2, e3 of the frame on each row's first two rays (B, 3, 3)."""
    e3 = _cross(f[:, 0], f[:, 1])
    e3 = e3 / _norm(e3)[:, None]
    return np.stack([f[:, 0], _cross(e3, f[:, 0]), e3], axis=1)


def solve_p3p(bearings, world) -> Candidates:
    """Pose candidates of a batch of three-point problems.

    bearings (B, 3, 3) are unit rays in the internal camera frame, world
    (B, 3, 3) the matching 3D points.  A row gives up to four poses,
    each reprojecting its three correspondences exactly (up to
    numerical precision); focal_px is NaN.
    """
    f = np.asarray(bearings, dtype=float).reshape(-1, 3, 3)
    P = np.asarray(world, dtype=float).reshape(-1, 3, 3)
    ok = _well_posed(P, ((0, 1, 2),))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ok &= np.abs(_dot(f[:, i], f[:, j])) <= 1.0 - 1e-12  # else coincident rays
    rows = np.flatnonzero(ok)
    f, P = f[rows], P[rows]

    # Intermediate camera frame built on the first two rays; points are
    # relabeled where needed so the third ray has negative z in it (keeps
    # theta inside [0, pi]).
    T = _camera_frame(f)
    swap = _mv(T, f[:, 2])[:, 2] > 0.0
    f[swap] = f[swap][:, [1, 0, 2]]
    P[swap] = P[swap][:, [1, 0, 2]]
    T[swap] = _camera_frame(f[swap])
    f3 = _mv(T, f[:, 2])
    # coplanar rays would overflow f_1 and f_2 below, and f_2 divides
    ok = (np.abs(f3[:, 2]) >= 1e-12) & (f3[:, 1] != 0.0)
    rows, f, P, T, f3 = rows[ok], f[ok], P[ok], T[ok], f3[ok]

    # Intermediate world frame spanned by the three points.
    n1 = P[:, 1] - P[:, 0]
    d_12 = _norm(n1)
    n1 = n1 / d_12[:, None]
    n3 = _cross(n1, P[:, 2] - P[:, 0])
    n3 = n3 / _norm(n3)[:, None]
    N = np.stack([n1, _cross(n3, n1), n3], axis=1)

    P3 = _mv(N, P[:, 2] - P[:, 0])
    f_1 = f3[:, 0] / f3[:, 2]
    f_2 = f3[:, 1] / f3[:, 2]
    p_1, p_2 = P3[:, 0], P3[:, 1]

    cos_beta = _dot(f[:, 0], f[:, 1])
    b = np.sqrt(np.maximum(1.0 / (1.0 - _sq(cos_beta)) - 1.0, 0.0))
    b = np.where(cos_beta < 0.0, -b, b)

    f_1_pw2 = _sq(f_1)
    f_2_pw2 = _sq(f_2)
    p_1_pw2 = _sq(p_1)
    p_1_pw3 = p_1_pw2 * p_1
    p_1_pw4 = p_1_pw3 * p_1
    p_2_pw2 = _sq(p_2)
    p_2_pw3 = p_2_pw2 * p_2
    p_2_pw4 = p_2_pw3 * p_2
    d_12_pw2 = _sq(d_12)
    b_pw2 = _sq(b)

    # Quartic in cos(theta), highest power first.
    factors = np.array([
        -f_2_pw2 * p_2_pw4 - p_2_pw4 * f_1_pw2 - p_2_pw4,

        2.0 * p_2_pw3 * d_12 * b
        + 2.0 * f_2_pw2 * p_2_pw3 * d_12 * b
        - 2.0 * f_2 * p_2_pw3 * f_1 * d_12,

        -f_2_pw2 * p_2_pw2 * p_1_pw2
        - f_2_pw2 * p_2_pw2 * d_12_pw2 * b_pw2
        - f_2_pw2 * p_2_pw2 * d_12_pw2
        + f_2_pw2 * p_2_pw4
        + p_2_pw4 * f_1_pw2
        + 2.0 * p_1 * p_2_pw2 * d_12
        + 2.0 * f_1 * f_2 * p_1 * p_2_pw2 * d_12 * b
        - p_2_pw2 * p_1_pw2 * f_1_pw2
        + 2.0 * p_1 * p_2_pw2 * f_2_pw2 * d_12
        - p_2_pw2 * d_12_pw2 * b_pw2
        - 2.0 * p_1_pw2 * p_2_pw2,

        2.0 * p_1_pw2 * p_2 * d_12 * b
        + 2.0 * f_2 * p_2_pw3 * f_1 * d_12
        - 2.0 * f_2_pw2 * p_2_pw3 * d_12 * b
        - 2.0 * p_1 * p_2 * d_12_pw2 * b,

        -2.0 * f_2 * p_2_pw2 * f_1 * p_1 * d_12 * b
        + f_2_pw2 * p_2_pw2 * d_12_pw2
        + 2.0 * p_1_pw3 * d_12
        - p_1_pw2 * d_12_pw2
        + f_2_pw2 * p_2_pw2 * p_1_pw2
        - p_1_pw4
        - 2.0 * f_2_pw2 * p_2_pw2 * p_1 * d_12
        + p_2_pw2 * f_1_pw2 * p_1_pw2
        + f_2_pw2 * p_2_pw2 * d_12_pw2 * b_pw2,
    ])

    # Roots as np.roots finds them: eigenvalues of the companion matrix.
    # The leading factor is at most -p_2^4 < 0 for non-collinear points.
    companion = np.zeros((len(rows), 4, 4))
    companion[:, 0] = (-factors[1:] / factors[0]).T
    companion[:, (1, 2, 3), (0, 1, 2)] = 1.0
    roots = np.linalg.eigvals(companion)
    real = np.where(
        np.abs(roots.imag) <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots.real)),
        roots.real, np.inf)
    real.sort(axis=1)
    real[:, 1:][real[:, 1:] == real[:, :-1]] = np.inf  # a repeated root counts once
    r, c = np.nonzero(np.isfinite(real))

    cos_theta = np.clip(real[r, c], -1.0, 1.0)
    f_1, f_2, p_1, p_2, d_12, b = (a[r] for a in (f_1, f_2, p_1, p_2, d_12, b))
    denom = -f_1 * cos_theta * p_2 / f_2 + p_1 - d_12
    denom[denom == 0.0] = np.nan  # no pose: NaN fails the depth test below
    cot_alpha = (-f_1 * p_1 / f_2 - cos_theta * p_2 + d_12 * b) / denom
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - _sq(cos_theta)))
    sin_alpha = np.sqrt(1.0 / (_sq(cot_alpha) + 1.0))
    cos_alpha = np.sqrt(np.maximum(0.0, 1.0 - _sq(sin_alpha)))
    cos_alpha = np.where(cot_alpha < 0.0, -cos_alpha, cos_alpha)

    scale = d_12 * (sin_alpha * b + cos_alpha)
    C_eta = np.stack([scale * cos_alpha, scale * (cos_theta * sin_alpha),
                      scale * (sin_theta * sin_alpha)], axis=-1)
    Nt = np.swapaxes(N[r], 1, 2)
    center = P[r, 0] + _mv(Nt, C_eta)

    zero = np.zeros(len(r))
    R_eta = np.stack([
        np.stack([-cos_alpha, -sin_alpha * cos_theta, -sin_alpha * sin_theta], axis=-1),
        np.stack([sin_alpha, -cos_alpha * cos_theta, -cos_alpha * sin_theta], axis=-1),
        np.stack([zero, -sin_theta, cos_theta], axis=-1),
    ], axis=1)
    # camera-to-world orientation; the pose wants world-to-camera
    R_cw = np.matmul(np.matmul(Nt, np.swapaxes(R_eta, 1, 2)), T[r])
    rotation = np.swapaxes(R_cw, 1, 2)

    keep = (_mv(P[r] - center[:, None], rotation[:, 2]) > 0.0).all(axis=1)
    return Candidates(rows[r[keep]], rotation[keep], center[keep],
                      np.full(int(keep.sum()), np.nan))


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PI, _PJ = np.array(_PAIRS).T
# Polished roots of one row that agree to this relative tolerance in focal
# and depths are one root.  Gauss-Newton converges only linearly at a double
# root, and leaves its two copies up to about 1e-7 apart; at 1e-6, close
# but distinct roots would merge.
_P4PF_DUPLICATE_TOL = 1e-7


def solve_p4pf(image_pts, world) -> Candidates:
    """Pose and focal-length candidates of a batch of four-point problems.

    image_pts (B, 4, 2) are centered pixel coordinates, world (B, 4, 3)
    the matching 3D points.  A row gives up to ten candidates with
    positive focal length and positive depths; polished roots of a row
    that agree to _P4PF_DUPLICATE_TOL give one candidate, the first.
    """
    m2d = np.asarray(image_pts, dtype=float).reshape(-1, 4, 2).transpose(0, 2, 1)
    world = np.asarray(world, dtype=float).reshape(-1, 4, 3)
    ok = _well_posed(world, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    ok &= (np.linalg.norm(m2d[:, :, _PI] - m2d[:, :, _PJ], axis=1) >= 1e-12).all(axis=1)
    rows = np.flatnonzero(ok)
    m2d, world = m2d[rows], world[rows]

    # Condition the data: zero-mean unit-spread 3D, unit-spread 2D.
    M3d = world.transpose(0, 2, 1)
    mean3d = M3d.mean(axis=2)
    M3d = M3d - mean3d[:, :, None]
    var = np.linalg.norm(M3d, axis=1).sum(axis=1) / 4.0
    M3d = M3d / var[:, None, None]
    var2d = np.linalg.norm(m2d, axis=1).sum(axis=1) / 4.0
    m2d = m2d / var2d[:, None, None]

    gl = ((M3d[:, :, _PI] - M3d[:, :, _PJ]) ** 2).sum(axis=1)
    good = np.prod(gl, axis=1) >= 1e-15  # else coincident world points
    rows, world, m2d, M3d, mean3d, var, var2d, gl = (
        a[good] for a in (rows, world, m2d, M3d, mean3d, var, var2d, gl))

    roots, found = _p4pf_roots(gl, m2d)
    r, c = np.nonzero(found)
    x = roots[r, c]
    f = np.sqrt(x[:, 3])
    x[:, 3] = f * f
    x = _polish_depths(m2d[r], gl[r], x)
    sols = np.column_stack([np.sqrt(x[:, 3]), x[:, :3]])  # f, zb, zc, zd
    keep = (sols[:, 1:] > 0.0).all(axis=1)

    # a repeated root gives one candidate: keep the first of each row
    table = np.full(found.shape + (4,), np.nan)
    table[r[keep], c[keep]] = sols[keep]
    a, b = table[:, :, None], table[:, None]
    same = (np.abs(a - b) <= _P4PF_DUPLICATE_TOL * np.maximum(np.abs(a), np.abs(b))).all(axis=-1)
    keep &= ~np.tril(same, -1).any(axis=2)[r, c]
    r, (f, zb, zc, zd) = r[keep], sols[keep].T

    # Points in the camera frame from the recovered relative depths,
    # scaled by the mean ratio of the six pairwise distances.
    z = np.column_stack([np.ones(len(r)), zb, zc, zd])
    p3dc = np.concatenate([m2d[r], np.broadcast_to(f[:, None, None], (len(r), 1, 4))],
                          axis=1) * z[:, None]
    dd = ((p3dc[:, :, _PI] - p3dc[:, :, _PJ]) ** 2).sum(axis=1)
    keep = (dd > 0.0).all(axis=1)
    r, f, p3dc, dd = r[keep], f[keep], p3dc[keep], dd[keep]
    p3dc = p3dc * np.sqrt(gl[r] / dd).mean(axis=1)[:, None, None]

    rot, trans = _rigid_transform(M3d[r], p3dc)
    center = _mv(-np.swapaxes(rot, 1, 2), var[r, None] * trans - _mv(rot, mean3d[r]))
    keep = (_mv(world[r] - center[:, None], rot[:, 2]) > 0.0).all(axis=1)
    return Candidates(rows[r[keep]], rot[keep], center[keep], var2d[r[keep]] * f[keep])


def _depth_residuals(m2d, gl, x):
    """Residuals (K, 5) and Jacobians (K, 5, 4) of _polish_depths' unknowns."""
    u, v = m2d[:, 0], m2d[:, 1]
    z = np.column_stack([np.ones(len(x)), x[:, :3]])
    w = x[:, 3:]
    du = z[:, _PI] * u[:, _PI] - z[:, _PJ] * u[:, _PJ]
    dv = z[:, _PI] * v[:, _PI] - z[:, _PJ] * v[:, _PJ]
    dz = z[:, _PI] - z[:, _PJ]
    q = du * du + dv * dv + w * dz * dz  # squared distances of _PAIRS
    Jq = np.zeros((len(x), 6, 4))
    Jq[:, :, 3] = dz * dz
    di = 2.0 * (u[:, _PI] * du + v[:, _PI] * dv) + 2.0 * w * dz
    Jq[:, np.arange(3, 6), _PI[3:] - 1] = di[:, 3:]  # pairs whose first depth is not fixed
    Jq[:, range(6), _PJ - 1] = -2.0 * (u[:, _PJ] * du + v[:, _PJ] * dv) - 2.0 * w * dz
    rows = [0, 1, 3, 4, 5]  # every pair but (0, 3)
    r = gl[:, 2:3] * q[:, rows] - gl[:, rows] * q[:, 2:3]
    J = gl[:, 2, None, None] * Jq[:, rows] - gl[:, rows, None] * Jq[:, 2:3]
    return r, J


def _lstsq(J, b):
    """Minimum-norm least-squares solutions of the stacked systems J x = b,
    with np.linalg.lstsq's default cut of small singular values."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    kept = s > np.finfo(float).eps * max(J.shape[1:]) * s[:, :1]
    coef = np.matmul(np.swapaxes(U, 1, 2), b[..., None])[..., 0]
    coef = np.where(kept, coef / np.where(kept, s, 1.0), 0.0)
    return np.matmul(np.swapaxes(Vt, 1, 2), coef[..., None])[..., 0]


def _polish_depths(m2d, gl, x):
    """Gauss-Newton refinement of raw (focal, depth-ratio) roots, all at once.

    The elimination template can lose several digits; a few iterations
    on the exact pairwise-distance ratios restore close to machine
    precision.  The depth of the first point is fixed to one, so the
    squared distances are only determined up to a common scale; the
    residuals cross-multiply each pair against the (0, 3) pair to stay
    scale-free.  Row k of x (K, 4) holds the unknowns (zb, zc, zd, w),
    w = f^2, of the problem with image points m2d[k] (2, 4) and squared
    world distances gl[k] (6,).  A root stops after ten steps, at w <= 0,
    at a residual norm below 1e-16, or once a step moves no unknown by
    more than 1e-12 of its value (converged: with noisy points the norm
    stays above 1e-16); its best-norm iterate is returned.
    """
    best = x.copy()
    r, J = _depth_residuals(m2d, gl, x)
    best_norm = np.linalg.norm(r, axis=1)
    live = np.arange(len(x))
    for _ in range(10):
        if not len(live):
            break
        step = _lstsq(J, -r)
        x = x + step
        go = x[:, 3] > 0.0
        live, x, step = live[go], x[go], step[go]
        r, J = _depth_residuals(m2d[live], gl[live], x)
        norm = np.linalg.norm(r, axis=1)
        better = norm < best_norm[live]
        best[live[better]] = x[better]
        best_norm[live[better]] = norm[better]
        go = (norm >= 1e-16) & (np.abs(step) > 1e-12 * np.abs(x)).any(axis=1)
        live, x, r, J = live[go], x[go], r[go], J[go]
    return best


def _rigid_transform(p_from: np.ndarray, p_to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations and translations with p_to = R @ p_from + t, over stacks of 3 x N columns."""
    mean_from = p_from.mean(axis=2)
    mean_to = p_to.mean(axis=2)
    a = p_from - mean_from[:, :, None]
    b = p_to - mean_to[:, :, None]
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    U, _, Vt = np.linalg.svd(np.matmul(b, np.swapaxes(a, 1, 2)))
    s = np.ones((len(U), 1, 3))
    s[:, 0, 2] = np.sign(np.linalg.det(np.matmul(U, Vt)))
    rot = np.matmul(U * s, Vt)
    return rot, mean_to - _mv(rot, mean_from)


def _p4pf_roots(gl, m2d):
    """Raw roots of conditioned four-point problems, in eigenvector order.

    Returns a (B, 10, 4) table of (zb, zc, zd, f^2) and the (B, 10) mask
    of the entries that are real, finite and have f^2 > 0.  A row whose
    elimination template is singular has none.
    """
    M = _p4pf_template(gl, m2d).transpose(0, 2, 1)
    lhs, rhs = M[:, :, :78], M[:, :, 78:]
    try:
        Mr = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:  # some template is singular: find which
        Mr = np.full(rhs.shape, np.nan)
        for k in range(len(M)):
            try:
                Mr[k] = np.linalg.solve(lhs[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
    solved = np.isfinite(Mr).all(axis=(1, 2))

    # Action matrix of the quotient ring; eigenvectors encode the
    # monomial vector (1, zd, zc, zb, f^2, ...).
    A = np.zeros((len(M), 10, 10))
    A[:, range(5), (1, 5, 6, 7, 8)] = 1.0
    A[:, 5:] = np.where(solved[:, None, None], -Mr[:, 74:69:-1, ::-1], 0.0)
    V = np.linalg.eig(A)[1]

    lead = V[:, 0]
    found = solved[:, None] & (np.abs(lead) >= 1e-14)
    vals = V[:, 1:5] / np.where(found, lead, 1.0)[:, None]
    found &= (np.abs(vals.imag)
              <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(vals.real))).all(axis=1)
    zd, zc, zb, fsq = vals.real.transpose(1, 0, 2)
    found &= (fsq > 0.0) & np.isfinite(vals.real).all(axis=1)
    return np.stack([zb, zc, zd, fsq], axis=-1), found


# Flat indices of the 88 x 78 P4Pf elimination template's nonzero entries, one
# block per coefficient in _p4pf_depths_and_focal's order; no index repeats.
_P4PF_BLOCKS = (
    (71, 148, 519, 596, 751, 828, 1061, 1216, 1527, 1894, 2049, 2126, 2359, 2514, 2903, 3438, 3593, 3982, 4992),
    (383, 460, 987, 1298, 1453, 1608, 1685, 1840, 2829, 2984, 3139, 3294, 3371, 4218, 4373, 4606, 5538),
    (617, 928, 1923, 2234, 2389, 2544, 2777, 2932, 3243, 3453, 3608, 3841, 3996, 4307, 4842, 4997, 5230, 5850),
    (695, 1006, 2001, 2312, 2467, 2622, 2855, 3010, 3321, 3531, 3686, 3919, 4074, 4385, 4920, 5075, 5308, 5928),
    (773, 1084, 2079, 2390, 2545, 2700, 2933, 3088, 3454, 3609, 3764, 3997, 4152, 4463, 4998, 5153, 5386, 6006),
    (1007, 1318, 2313, 2857, 3012, 3167, 3322, 3399, 3921, 4076, 4231, 4386, 4619, 5309, 5542, 6162),
    (1475, 1708, 2859, 3170, 3325, 3401, 4234, 4389, 4544, 4621, 4776, 5544, 5699, 5776, 6396),
    (2333, 3949, 4104, 4259, 4414, 4647, 4935, 5090, 5322, 5555, 5933, 6166, 6474),
    (2411, 2800, 3483, 3872, 4027, 4182, 4337, 4492, 4725, 4858, 5013, 5168, 5245, 5400, 5633, 5856, 6011, 6244, 6552),
    (2489, 2878, 3561, 3950, 4105, 4415, 4570, 4803, 4936, 5091, 5323, 5478, 5711, 5934, 6089, 6322, 6630),
    (2879, 3190, 3951, 4262, 4417, 4572, 4649, 4804, 5325, 5480, 5557, 5712, 5789, 6168, 6323, 6400, 6708),
    (3971, 4282, 4965, 5353, 5508, 5585, 5740, 5817, 5949, 6104, 6181, 6336, 6413, 6480, 6635, 6712, 6786),
    (73, 228, 526, 681, 758, 835, 1146, 1223, 1612, 1979, 2056, 2133, 2444, 2521, 2598, 2987, 3519, 3596, 4063, 5071),
    (307, 462, 916, 1305, 1382, 1537, 1692, 1769, 2758, 2913, 3146, 3223, 3300, 3377, 4221, 4298, 4609, 5539),
    (619, 1008, 1930, 2319, 2396, 2551, 2862, 2939, 3328, 3460, 3615, 3926, 4003, 4080, 4391, 4923, 5000, 5311, 5929),
    (775, 1164, 2086, 2475, 2552, 2707, 3018, 3095, 3539, 3616, 3771, 4082, 4159, 4547, 5079, 5156, 5467, 6085),
    (931, 1320, 2242, 2786, 2941, 3174, 3251, 3406, 3850, 4005, 4238, 4315, 4392, 4625, 5234, 5545, 6163),
    (1399, 1710, 2788, 3177, 3254, 3408, 4241, 4318, 4473, 4628, 4705, 4782, 5547, 5624, 5779, 6397),
    (2257, 3878, 4033, 4266, 4343, 4654, 4864, 5019, 5251, 5328, 5561, 5858, 6169, 6475),
    (2413, 2880, 3490, 3957, 4034, 4189, 4422, 4499, 4810, 4943, 5020, 5175, 5330, 5407, 5484, 5717, 5937, 6014, 6325, 6631),
    (2803, 3192, 3880, 4269, 4346, 4501, 4656, 4733, 5254, 5409, 5564, 5641, 5718, 5795, 6171, 6248, 6403, 6709),
    (3895, 4284, 4894, 5282, 5437, 5592, 5669, 5824, 5878, 6033, 6188, 6265, 6342, 6419, 6483, 6560, 6715, 6787),
    (153, 308, 608, 919, 1074, 1385, 2219, 2374, 2529, 2762, 2917, 3228, 3834, 3989, 4300, 5228),
    (387, 464, 998, 1309, 1464, 1697, 2842, 2997, 3152, 3307, 3384, 4224, 4379, 4612, 5540),
    (621, 932, 1934, 2245, 2400, 2789, 3466, 3621, 3854, 4009, 4320, 4848, 5003, 5236, 5852),
    (1011, 1322, 2324, 2868, 3179, 3934, 4089, 4244, 4399, 4632, 5315, 5548, 6164),
    (1089, 1400, 2402, 2791, 2946, 3257, 3857, 4012, 4167, 4322, 4477, 4710, 5238, 5393, 5626, 6242),
    (1479, 1712, 2870, 3181, 3336, 3413, 4247, 4402, 4557, 4634, 4789, 5550, 5705, 5782, 6398),
    (2337, 3960, 4271, 4948, 5103, 5335, 5568, 5939, 6172, 6476),
    (2415, 2804, 3494, 3883, 4038, 4349, 4871, 5026, 5181, 5258, 5413, 5646, 5862, 6017, 6250, 6554),
    (2883, 3194, 3962, 4273, 4428, 4661, 5338, 5493, 5570, 5725, 5802, 6174, 6329, 6406, 6710),
    (3975, 4286, 4976, 5364, 5597, 5962, 6117, 6194, 6349, 6426, 6486, 6641, 6718, 6788),
    (233, 388, 693, 848, 1003, 1158, 1469, 1546, 1623, 2306, 2383, 2460, 2537, 2614, 2847, 2924, 3001, 3312, 3916, 3993, 4070, 4381, 5307),
    (389, 466, 1005, 1238, 1315, 1470, 1703, 1780, 1857, 2773, 2850, 2927, 3004, 3159, 3236, 3313, 3390, 4228, 4305, 4382, 4615, 5541),
    (701, 1012, 2019, 2174, 2329, 2484, 2873, 2950, 3027, 3475, 3552, 3629, 3706, 3939, 4016, 4093, 4404, 4930, 5007, 5084, 5317, 5931),
    (1013, 1324, 2331, 2564, 2874, 3185, 3262, 3339, 3865, 3942, 4019, 4096, 4251, 4328, 4405, 4638, 5241, 5318, 5551, 6165),
    (1169, 1480, 2487, 2720, 2875, 3030, 3341, 3944, 4021, 4098, 4175, 4407, 4484, 4561, 4794, 5320, 5397, 5474, 5707, 6321),
    (1481, 1714, 2877, 3110, 3187, 3342, 3419, 4256, 4333, 4410, 4487, 4564, 4641, 4718, 4795, 5554, 5631, 5708, 5785, 6399),
    (2339, 3656, 3966, 4277, 4354, 4431, 4879, 4956, 5033, 5110, 5264, 5341, 5574, 5865, 5942, 6175, 6477),
    (2495, 2884, 3579, 3812, 3967, 4122, 4433, 4510, 4587, 4958, 5035, 5112, 5189, 5343, 5420, 5497, 5730, 5944, 6021, 6098, 6331, 6633),
    (2885, 3196, 3969, 4202, 4279, 4434, 4667, 4744, 4821, 5269, 5346, 5423, 5500, 5577, 5654, 5731, 5808, 6178, 6255, 6332, 6409, 6711),
    (3977, 4288, 4983, 5216, 5370, 5603, 5680, 5757, 5893, 5970, 6047, 6124, 6201, 6278, 6355, 6432, 6490, 6567, 6644, 6721, 6789),
)
_P4PF_FLAT = np.concatenate(_P4PF_BLOCKS)
_P4PF_COUNTS = [len(block) for block in _P4PF_BLOCKS]


def _p4pf_template(gl, m2d) -> np.ndarray:
    """The (B, 88, 78) elimination templates of conditioned four-point problems.

    gl (B, 6) holds the squared world distances of _PAIRS and m2d
    (B, 2, 4) the image points.  The hidden-variable template is the
    published one; _P4PF_BLOCKS holds where each coefficient goes.
    """
    glab, glac, glad, glbc, glbd, glcd = gl.T
    (a1, b1, c1, d1), (a2, b2, c2, d2) = m2d.transpose(1, 2, 0)
    coefficients = np.broadcast_arrays(
        1,
        1 / 2 / glad * glbc - 1 / 2 * glab / glad - 1 / 2 * glac / glad,
        -1,
        -1,
        c2 * b2 + c1 * b1,
        glac / glad - 1 / glad * glbc + glab / glad,
        1 / 2 / glad * glbc * _sq(d2) - 1 / 2 * glab / glad * _sq(d2) - 1 / 2 * glac / glad * _sq(d2) - 1 / 2 * glac / glad * _sq(d1) + 1 / 2 / glad * glbc * _sq(d1) - 1 / 2 * glab / glad * _sq(d1),
        1 - 1 / 2 * glac / glad - 1 / 2 * glab / glad + 1 / 2 / glad * glbc,
        -b1 * a1 - a2 * b2,
        -c2 * a2 - c1 * a1,
        -a1 / glad * glbc * d1 + a1 * glac / glad * d1 + glac / glad * a2 * d2 + a1 * glab / glad * d1 - 1 / glad * glbc * a2 * d2 + glab / glad * a2 * d2,
        _sq(a2) + _sq(a1) - 1 / 2 * glac / glad * _sq(a2) - 1 / 2 * _sq(a1) * glac / glad + 1 / 2 / glad * glbc * _sq(a2) - 1 / 2 * _sq(a1) * glab / glad + 1 / 2 * _sq(a1) / glad * glbc - 1 / 2 * glab / glad * _sq(a2),
        1,
        -glac / glad,
        -2,
        _sq(c1) + _sq(c2),
        2 * glac / glad,
        -glac / glad * _sq(d1) - glac / glad * _sq(d2),
        -glac / glad + 1,
        -2 * c2 * a2 - 2 * c1 * a1,
        2 * a1 * glac / glad * d1 + 2 * glac / glad * a2 * d2,
        -glac / glad * _sq(a2) + _sq(a2) + _sq(a1) - _sq(a1) * glac / glad,
        1,
        1 / 2 / glad * glbd - 1 / 2 - 1 / 2 * glab / glad,
        -1,
        glab / glad - 1 / glad * glbd,
        d2 * b2 + b1 * d1,
        -1 / 2 * glab / glad * _sq(d2) - 1 / 2 * glab / glad * _sq(d1) + 1 / 2 / glad * glbd * _sq(d2) + 1 / 2 / glad * glbd * _sq(d1) - 1 / 2 * _sq(d2) - 1 / 2 * _sq(d1),
        -1 / 2 * glab / glad + 1 / 2 / glad * glbd + 1 / 2,
        -a2 * b2 - b1 * a1,
        -a1 / glad * glbd * d1 + a1 * glab / glad * d1 + glab / glad * a2 * d2 - 1 / glad * glbd * a2 * d2,
        1 / 2 / glad * glbd * _sq(a2) + 1 / 2 * _sq(a1) / glad * glbd - 1 / 2 * glab / glad * _sq(a2) - 1 / 2 * _sq(a1) * glab / glad + 1 / 2 * _sq(a1) + 1 / 2 * _sq(a2),
        1,
        -1 / 2 * glac / glad + 1 / 2 * glcd / glad - 1 / 2,
        -1,
        glac / glad - glcd / glad,
        c1 * d1 + c2 * d2,
        1 / 2 * glcd / glad * _sq(d1) - 1 / 2 * glac / glad * _sq(d2) - 1 / 2 * glac / glad * _sq(d1) - 1 / 2 * _sq(d1) - 1 / 2 * _sq(d2) + 1 / 2 * glcd / glad * _sq(d2),
        -1 / 2 * glac / glad + 1 / 2 + 1 / 2 * glcd / glad,
        -c1 * a1 - c2 * a2,
        glac / glad * a2 * d2 + a1 * glac / glad * d1 - glcd / glad * a2 * d2 - glcd * a1 / glad * d1,
        1 / 2 * _sq(a1) + 1 / 2 * _sq(a2) - 1 / 2 * glac / glad * _sq(a2) + 1 / 2 * glcd * _sq(a1) / glad - 1 / 2 * _sq(a1) * glac / glad + 1 / 2 * glcd / glad * _sq(a2),
    )
    M = np.zeros((len(gl), 88 * 78))
    M[:, _P4PF_FLAT] = np.repeat(np.array(coefficients), _P4PF_COUNTS, axis=0).T
    return M.reshape(-1, 88, 78)
