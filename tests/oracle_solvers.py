"""Scalar minimal solvers, one problem a call: the oracles of sfmloc's batched ones.

solve_p3p and solve_p4pf return a list of Pose, and raise
DegenerateConfiguration or NoRealSolution where the batched solver gives
the row no candidate.  P3P finds its quartic's roots with np.roots.  The
P4Pf elimination template is sfmloc's own (_p4pf_template on a batch of
one); the template solve, the eigen-decomposition, the Gauss-Newton
polish (Python floats, np.linalg.lstsq steps) and the rigid transform
run one problem and one root at a time.
"""

import math

import numpy as np

from sfmloc.errors import LocalizationError
from sfmloc.minimal_solvers import _REAL_ROOT_TOL, Pose, _p4pf_template


class DegenerateConfiguration(LocalizationError):
    """Input geometry is degenerate (collinear points, coincident rays)."""


class NoRealSolution(LocalizationError):
    """The solver polynomial has no physically valid real root."""


def _cross(u, v) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit, without its axis handling."""
    (u0, u1, u2), (v0, v1, v2) = u.tolist(), v.tolist()
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def _check_not_collinear(world: np.ndarray, rel_tol: float = 1e-9) -> None:
    for i, j, k in ((0, 1, 2),) if len(world) == 3 else (
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        u = world[j] - world[i]
        v = world[k] - world[i]
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        if scale == 0.0 or np.linalg.norm(_cross(u, v)) < rel_tol * scale:
            raise DegenerateConfiguration(
                f"world points {i},{j},{k} are collinear or coincident")


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    roots = np.roots(coeffs)
    keep = np.abs(roots.imag) <= _REAL_ROOT_TOL * np.maximum(1.0, np.abs(roots.real))
    return np.unique(roots[keep].real)


def solve_p3p(bearings, world) -> list[Pose]:
    """Pose candidates from three ray/point correspondences.

    bearings are unit vectors in the internal camera frame, world the
    matching 3D points.  Up to four poses are returned; each reprojects
    the three correspondences exactly (up to numerical precision).
    """
    f = np.asarray(bearings, dtype=float).reshape(3, 3).copy()
    P = np.asarray(world, dtype=float).reshape(3, 3).copy()
    _check_not_collinear(P)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(f[i] @ f[j]) > 1.0 - 1e-12:
                raise DegenerateConfiguration("coincident bearing vectors")

    # Intermediate camera frame built on the first two rays; points are
    # relabeled if needed so the third ray has negative z in it (keeps
    # theta inside [0, pi]).
    def camera_frame(f1, f2):
        e1 = f1
        e3 = _cross(f1, f2)
        e3 = e3 / np.linalg.norm(e3)
        e2 = _cross(e3, e1)
        return np.vstack([e1, e2, e3])

    T = camera_frame(f[0], f[1])
    if (T @ f[2])[2] > 0.0:
        f[[0, 1]] = f[[1, 0]]
        P[[0, 1]] = P[[1, 0]]
        T = camera_frame(f[0], f[1])
    f3 = T @ f[2]
    if abs(f3[2]) < 1e-12:  # f_1 and f_2 below would overflow
        raise DegenerateConfiguration("coplanar bearing vectors")

    # Intermediate world frame spanned by the three points.
    n1 = P[1] - P[0]
    n1 = n1 / np.linalg.norm(n1)
    n3 = _cross(n1, P[2] - P[0])
    n3 = n3 / np.linalg.norm(n3)
    n2 = _cross(n3, n1)
    N = np.vstack([n1, n2, n3])

    P3 = N @ (P[2] - P[0])
    d_12 = np.linalg.norm(P[1] - P[0])
    f_1 = f3[0] / f3[2]
    f_2 = f3[1] / f3[2]
    p_1, p_2 = P3[0], P3[1]

    cos_beta = f[0] @ f[1]
    b = 1.0 / (1.0 - cos_beta**2) - 1.0
    b = np.sqrt(max(b, 0.0))
    if cos_beta < 0.0:
        b = -b

    f_1_pw2 = f_1**2
    f_2_pw2 = f_2**2
    p_1_pw2 = p_1**2
    p_1_pw3 = p_1_pw2 * p_1
    p_1_pw4 = p_1_pw3 * p_1
    p_2_pw2 = p_2**2
    p_2_pw3 = p_2_pw2 * p_2
    p_2_pw4 = p_2_pw3 * p_2
    d_12_pw2 = d_12**2
    b_pw2 = b**2

    # Quartic in cos(theta).
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

    candidates = []
    for cos_theta in _real_roots(factors):
        cos_theta = min(1.0, max(-1.0, cos_theta))
        denom = -f_1 * cos_theta * p_2 / f_2 + p_1 - d_12
        if denom == 0.0:
            continue
        cot_alpha = (-f_1 * p_1 / f_2 - cos_theta * p_2 + d_12 * b) / denom
        sin_theta = np.sqrt(max(0.0, 1.0 - cos_theta**2))
        sin_alpha = np.sqrt(1.0 / (cot_alpha**2 + 1.0))
        cos_alpha = np.sqrt(max(0.0, 1.0 - sin_alpha**2))
        if cot_alpha < 0.0:
            cos_alpha = -cos_alpha

        C_eta = d_12 * (sin_alpha * b + cos_alpha) * np.array([
            cos_alpha, cos_theta * sin_alpha, sin_theta * sin_alpha])
        center = P[0] + N.T @ C_eta

        R_eta = np.array([
            [-cos_alpha, -sin_alpha * cos_theta, -sin_alpha * sin_theta],
            [sin_alpha, -cos_alpha * cos_theta, -cos_alpha * sin_theta],
            [0.0, -sin_theta, cos_theta],
        ])
        # camera-to-world orientation; the pose wants world-to-camera
        R_cw = N.T @ R_eta.T @ T
        rotation = R_cw.T

        depths = (P - center) @ rotation[2]
        if np.any(depths <= 0.0):
            continue
        candidates.append(Pose(rotation, center))

    if not candidates:
        raise NoRealSolution("p3p: no physically valid real root")
    return candidates


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def solve_p4pf(image_pts, world) -> list[Pose]:
    """Pose and focal-length candidates from four correspondences.

    image_pts are centered pixel coordinates, world the matching 3D
    points.  Up to ten (pose, focal) candidates with positive focal
    length and positive depths are returned.
    """
    candidates = [pose for _, pose in p4pf_roots(image_pts, world)]
    if not candidates:
        raise NoRealSolution("p4pf: no physically valid real root")
    return candidates


def p4pf_roots(image_pts, world) -> list[tuple[np.ndarray, Pose]]:
    """solve_p4pf's candidates, each after its polished root (f, zb, zc,
    zd) in conditioned units, the values the batched solver merges on;
    an empty list where solve_p4pf raises NoRealSolution."""
    m2d = np.asarray(image_pts, dtype=float).reshape(4, 2).T.copy()
    world = np.asarray(world, dtype=float).reshape(4, 3)
    _check_not_collinear(world)
    i, j = np.array(_PAIRS).T
    if np.any(np.linalg.norm(m2d[:, i] - m2d[:, j], axis=0) < 1e-12):
        raise DegenerateConfiguration("coincident image points")

    M3d = world.T.copy()

    # Condition the data: zero-mean unit-spread 3D, unit-spread 2D.
    mean3d = M3d.mean(axis=1)
    M3d = M3d - mean3d[:, None]
    var = np.linalg.norm(M3d, axis=0).sum() / 4.0
    M3d = M3d / var
    var2d = np.linalg.norm(m2d, axis=0).sum() / 4.0
    m2d = m2d / var2d

    gl = ((M3d[:, i] - M3d[:, j]) ** 2).sum(axis=0)
    if np.prod(gl) < 1e-15:
        raise DegenerateConfiguration("coincident world points")

    sols = [_polish_depths(m2d, gl, *sol)
            for sol in _p4pf_depths_and_focal(gl, m2d)]

    candidates = []
    for f, zb, zc, zd in sols:
        if zb <= 0.0 or zc <= 0.0 or zd <= 0.0:
            continue
        # Points in the camera frame from the recovered relative depths,
        # scaled by the mean ratio of the six pairwise distances.
        p3dc = np.vstack([m2d, np.full(4, f)]) * [1.0, zb, zc, zd]
        dd = ((p3dc[:, i] - p3dc[:, j]) ** 2).sum(axis=0)
        if np.any(dd <= 0.0):
            continue
        p3dc = p3dc * np.sqrt(gl / dd).mean()

        rot, trans = _rigid_transform(M3d, p3dc)
        center = -rot.T @ (var * trans - rot @ mean3d)
        if not np.any((world - center) @ rot[2] <= 0.0):  # positive depths
            candidates.append((np.array([f, zb, zc, zd]),
                               Pose(rot, center, float(var2d * f))))
    return candidates


def _polish_depths(m2d, gl, f, zb, zc, zd):
    """Gauss-Newton refinement of a raw (focal, depth-ratio) root.

    The elimination template can lose several digits; a few iterations
    on the exact pairwise-distance ratios restore close to machine
    precision.  The depth of the first point is fixed to one, so the
    squared distances are only determined up to a common scale; the
    residuals cross-multiply each pair against the (0, 3) pair to stay
    scale-free.  Unknowns are (zb, zc, zd, w) with w = f^2, as Python
    floats.  It stops after ten steps, at w <= 0, at a residual norm
    below 1e-16, or once a step moves no unknown by more than 1e-12 of
    its value (converged: with noisy points the norm stays above 1e-16),
    and returns the best-norm iterate.
    """
    (u, v), g = m2d.tolist(), gl.tolist()
    rows = (0, 1, 3, 4, 5)  # every pair but (0, 3)

    def residuals(x):
        z, w = (1.0, *x[:3]), x[3]
        q, Jq = [], []
        for i, j in _PAIRS:
            du, dv, dz = z[i] * u[i] - z[j] * u[j], z[i] * v[i] - z[j] * v[j], z[i] - z[j]
            q.append(du * du + dv * dv + w * dz * dz)
            Jq.append([0.0, 0.0, 0.0, dz * dz])
            if i > 0:
                Jq[-1][i - 1] = 2.0 * (u[i] * du + v[i] * dv) + 2.0 * w * dz
            if j > 0:
                Jq[-1][j - 1] = -2.0 * (u[j] * du + v[j] * dv) - 2.0 * w * dz
        return ([g[2] * q[n] - g[n] * q[2] for n in rows],
                [[g[2] * a - g[n] * b for a, b in zip(Jq[n], Jq[2])] for n in rows])

    x = [zb, zc, zd, f * f]
    r, J = residuals(x)
    best_x, best_norm = x, math.hypot(*r)
    for _ in range(10):
        step = np.linalg.lstsq(np.array(J), np.negative(r), rcond=None)[0].tolist()
        x = [a + b for a, b in zip(x, step)]
        if x[3] <= 0.0:
            break
        r, J = residuals(x)
        norm = math.hypot(*r)
        if norm < best_norm:
            best_x, best_norm = x, norm
        if norm < 1e-16 or all(abs(b) <= 1e-12 * abs(a) for a, b in zip(x, step)):
            break
    zb, zc, zd, w = best_x
    return math.sqrt(w), zb, zc, zd


def _rigid_transform(p_from: np.ndarray, p_to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation with p_to = R @ p_from + t (3xN columns)."""
    mean_from = p_from.mean(axis=1)
    mean_to = p_to.mean(axis=1)
    a = p_from - mean_from[:, None]
    b = p_to - mean_to[:, None]
    a = a / np.linalg.norm(a, axis=0)
    b = b / np.linalg.norm(b, axis=0)
    U, _, Vt = np.linalg.svd(b @ a.T)
    s = np.ones(3)
    s[2] = np.sign(np.linalg.det(U @ Vt))
    rot = U @ np.diag(s) @ Vt
    return rot, mean_to - rot @ mean_from


def _p4pf_depths_and_focal(gl, m2d):
    """Solve the four-point depth/focal polynomial system.

    Returns a list of (focal, zb, zc, zd) tuples in conditioned units.
    """
    M = _p4pf_template(gl[None], m2d[None])[0]
    M = M.T
    try:
        Mr = np.linalg.solve(M[:, 0:78], M[:, 78:])
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfiguration("p4pf elimination template is singular") from exc

    # Action matrix of the quotient ring; eigenvectors encode the
    # monomial vector (1, zd, zc, zb, f^2, ...).
    A = np.zeros((10, 10))
    A[range(5), (1, 5, 6, 7, 8)] = 1.0
    A[5:] = -Mr[74:69:-1, ::-1]

    _, V = np.linalg.eig(A)

    sols = []
    for col in range(10):
        lead = V[0, col]
        if abs(lead) < 1e-14:
            continue
        vals = V[1:5, col] / lead
        if np.any(np.abs(vals.imag) > _REAL_ROOT_TOL * np.maximum(1.0, np.abs(vals.real))):
            continue
        zd, zc, zb, fsq = vals.real
        if fsq <= 0.0 or not np.all(np.isfinite(vals.real)):
            continue
        sols.append((float(np.sqrt(fsq)), float(zb), float(zc), float(zd)))
    return sols
