"""Minimal absolute-pose solvers and the frame conventions around them.

Two solvers are provided: a three-point solver for cameras with known
focal length (parametrization of Kneip, Scaramuzza and Siegwart, CVPR
2011) and a four-point solver that additionally recovers the focal
length (Groebner-basis solver of Bujnak, Kukelova and Pajdla, CVPR
2008).  Everything downstream works in one internal frame: the camera
looks along +Z, +X points to the right and +Y to the top of the image,
and image coordinates are centered at the principal point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, NoRealSolution

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

    def with_focal(self, focal_px: float) -> "Pose":
        return Pose(self.rotation, self.center, focal_px)

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        return (np.asarray(points, dtype=float) - self.center) @ self.rotation.T


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
    """Unit rays through centered image points for a known focal length."""
    pts = np.atleast_2d(np.asarray(centered_xy, dtype=float))
    rays = np.column_stack([pts[:, 0], pts[:, 1], np.full(len(pts), focal_px)])
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


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


def _check_not_collinear(world: np.ndarray, rel_tol: float = 1e-9) -> None:
    for i, j, k in ((0, 1, 2),) if len(world) == 3 else (
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        u = world[j] - world[i]
        v = world[k] - world[i]
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        if scale == 0.0 or np.linalg.norm(np.cross(u, v)) < rel_tol * scale:
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
        e3 = np.cross(f1, f2)
        e3 = e3 / np.linalg.norm(e3)
        e2 = np.cross(e3, e1)
        return np.vstack([e1, e2, e3])

    T = camera_frame(f[0], f[1])
    if (T @ f[2])[2] > 0.0:
        f[[0, 1]] = f[[1, 0]]
        P[[0, 1]] = P[[1, 0]]
        T = camera_frame(f[0], f[1])
    f3 = T @ f[2]

    # Intermediate world frame spanned by the three points.
    n1 = P[1] - P[0]
    n1 = n1 / np.linalg.norm(n1)
    n3 = np.cross(n1, P[2] - P[0])
    n3 = n3 / np.linalg.norm(n3)
    n2 = np.cross(n3, n1)
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


def solve_p4pf(image_pts, world) -> list[Pose]:
    """Pose and focal-length candidates from four correspondences.

    image_pts are centered pixel coordinates, world the matching 3D
    points.  Up to ten (pose, focal) candidates with positive focal
    length and positive depths are returned.
    """
    m2d = np.asarray(image_pts, dtype=float).reshape(4, 2).T.copy()
    world = np.asarray(world, dtype=float).reshape(4, 3)
    _check_not_collinear(world)
    for i in range(4):
        for j in range(i + 1, 4):
            if np.linalg.norm(m2d[:, i] - m2d[:, j]) < 1e-12:
                raise DegenerateConfiguration("coincident image points")

    M3d = world.T.copy()

    # Condition the data: zero-mean unit-spread 3D, unit-spread 2D.
    mean3d = M3d.mean(axis=1)
    M3d = M3d - mean3d[:, None]
    var = np.linalg.norm(M3d, axis=0).sum() / 4.0
    M3d = M3d / var
    var2d = np.linalg.norm(m2d, axis=0).sum() / 4.0
    m2d = m2d / var2d

    glab = np.sum((M3d[:, 0] - M3d[:, 1]) ** 2)
    glac = np.sum((M3d[:, 0] - M3d[:, 2]) ** 2)
    glad = np.sum((M3d[:, 0] - M3d[:, 3]) ** 2)
    glbc = np.sum((M3d[:, 1] - M3d[:, 2]) ** 2)
    glbd = np.sum((M3d[:, 1] - M3d[:, 3]) ** 2)
    glcd = np.sum((M3d[:, 2] - M3d[:, 3]) ** 2)
    if glab * glac * glad * glbc * glbd * glcd < 1e-15:
        raise DegenerateConfiguration("coincident world points")

    sols = _p4pf_depths_and_focal(
        glab, glac, glad, glbc, glbd, glcd,
        m2d[0, 0], m2d[1, 0], m2d[0, 1], m2d[1, 1],
        m2d[0, 2], m2d[1, 2], m2d[0, 3], m2d[1, 3])
    gl = np.array([glab, glac, glad, glbc, glbd, glcd])
    sols = [_polish_depths(m2d, gl, f, zb, zc, zd) for f, zb, zc, zd in sols]

    candidates = []
    for f, zb, zc, zd in sols:
        if zb <= 0.0 or zc <= 0.0 or zd <= 0.0:
            continue
        # Points in the camera frame from the recovered relative depths.
        p3dc = np.column_stack([
            1.0 * np.array([m2d[0, 0], m2d[1, 0], f]),
            zb * np.array([m2d[0, 1], m2d[1, 1], f]),
            zc * np.array([m2d[0, 2], m2d[1, 2], f]),
            zd * np.array([m2d[0, 3], m2d[1, 3], f]),
        ])
        # Absolute scale from the six pairwise distances.
        d = np.empty(6)
        pairs = ((0, 1, glab), (0, 2, glac), (0, 3, glad),
                 (1, 2, glbc), (1, 3, glbd), (2, 3, glcd))
        ok = True
        for n, (i, j, g) in enumerate(pairs):
            dd = np.sum((p3dc[:, i] - p3dc[:, j]) ** 2)
            if dd <= 0.0:
                ok = False
                break
            d[n] = np.sqrt(g / dd)
        if not ok:
            continue
        p3dc = p3dc * d.mean()

        rot, trans = _rigid_transform(M3d, p3dc)
        trans = var * trans - rot @ mean3d
        focal = var2d * f
        center = -rot.T @ trans
        depths = (world - center) @ rot[2]
        if np.any(depths <= 0.0):
            continue
        candidates.append(Pose(rot, center, float(focal)))

    if not candidates:
        raise NoRealSolution("p4pf: no physically valid real root")
    return candidates


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _polish_depths(m2d, gl, f, zb, zc, zd):
    """Gauss-Newton refinement of a raw (focal, depth-ratio) root.

    The elimination template can lose several digits; a few iterations
    on the exact pairwise-distance ratios restore close to machine
    precision.  The depth of the first point is fixed to one, so the
    squared distances are only determined up to a common scale; the
    residuals cross-multiply each pair against the (0, 3) pair to stay
    scale-free.  Unknowns are (zb, zc, zd, w) with w = f^2.
    """
    x = np.array([zb, zc, zd, f * f])
    ref = 2  # index of pair (0, 3) in _PAIRS

    def distances(x):
        z = np.array([1.0, x[0], x[1], x[2]])
        w = x[3]
        q = np.empty(6)
        Jq = np.zeros((6, 4))
        for n, (i, j) in enumerate(_PAIRS):
            du = z[i] * m2d[:, i] - z[j] * m2d[:, j]
            dz = z[i] - z[j]
            q[n] = du @ du + w * dz * dz
            if i > 0:
                Jq[n, i - 1] = 2.0 * (m2d[:, i] @ du) + 2.0 * w * dz
            if j > 0:
                Jq[n, j - 1] = -2.0 * (m2d[:, j] @ du) - 2.0 * w * dz
            Jq[n, 3] = dz * dz
        return q, Jq

    def residuals(x):
        q, Jq = distances(x)
        rows = [n for n in range(6) if n != ref]
        r = gl[ref] * q[rows] - gl[rows] * q[ref]
        J = gl[ref] * Jq[rows] - np.outer(gl[rows], Jq[ref])
        return r, J

    r, J = residuals(x)
    best_x, best_norm = x, np.linalg.norm(r)
    for _ in range(10):
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        x = x + step
        if x[3] <= 0.0:
            break
        r, J = residuals(x)
        norm = np.linalg.norm(r)
        if norm < best_norm:
            best_x, best_norm = x, norm
        if norm < 1e-16:
            break
    zb, zc, zd, w = best_x
    return float(np.sqrt(w)), float(zb), float(zc), float(zd)


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


def _p4pf_depths_and_focal(glab, glac, glad, glbc, glbd, glcd,
                           a1, a2, b1, b2, c1, c2, d1, d2):
    """Solve the four-point depth/focal polynomial system.

    Returns a list of (focal, zb, zc, zd) tuples in conditioned units.
    The hidden-variable elimination template is the published one; the
    flat-index blocks below encode its sparse coefficient matrix.
    """
    M = np.zeros((88, 78))
    M.flat[[71, 148, 519, 596, 751, 828, 1061, 1216, 1527, 1894, 2049, 2126, 2359, 2514, 2903, 3438, 3593, 3982, 4992]] = 1
    M.flat[[383, 460, 987, 1298, 1453, 1608, 1685, 1840, 2829, 2984, 3139, 3294, 3371, 4218, 4373, 4606, 5538]] = \
        1 / 2 / glad * glbc - 1 / 2 * glab / glad - 1 / 2 * glac / glad
    M.flat[[617, 928, 1923, 2234, 2389, 2544, 2777, 2932, 3243, 3453, 3608, 3841, 3996, 4307, 4842, 4997, 5230, 5850]] = -1
    M.flat[[695, 1006, 2001, 2312, 2467, 2622, 2855, 3010, 3321, 3531, 3686, 3919, 4074, 4385, 4920, 5075, 5308, 5928]] = -1
    M.flat[[773, 1084, 2079, 2390, 2545, 2700, 2933, 3088, 3454, 3609, 3764, 3997, 4152, 4463, 4998, 5153, 5386, 6006]] = c2 * b2 + c1 * b1
    M.flat[[1007, 1318, 2313, 2857, 3012, 3167, 3322, 3399, 3921, 4076, 4231, 4386, 4619, 5309, 5542, 6162]] = \
        glac / glad - 1 / glad * glbc + glab / glad
    M.flat[[1475, 1708, 2859, 3170, 3325, 3401, 4234, 4389, 4544, 4621, 4776, 5544, 5699, 5776, 6396]] = \
        1 / 2 / glad * glbc * d2**2 - 1 / 2 * glab / glad * d2**2 - 1 / 2 * glac / glad * d2**2 \
        - 1 / 2 * glac / glad * d1**2 + 1 / 2 / glad * glbc * d1**2 - 1 / 2 * glab / glad * d1**2
    M.flat[[2333, 3949, 4104, 4259, 4414, 4647, 4935, 5090, 5322, 5555, 5933, 6166, 6474]] = \
        1 - 1 / 2 * glac / glad - 1 / 2 * glab / glad + 1 / 2 / glad * glbc
    M.flat[[2411, 2800, 3483, 3872, 4027, 4182, 4337, 4492, 4725, 4858, 5013, 5168, 5245, 5400, 5633, 5856, 6011, 6244, 6552]] = \
        -b1 * a1 - a2 * b2
    M.flat[[2489, 2878, 3561, 3950, 4105, 4415, 4570, 4803, 4936, 5091, 5323, 5478, 5711, 5934, 6089, 6322, 6630]] = \
        -c2 * a2 - c1 * a1
    M.flat[[2879, 3190, 3951, 4262, 4417, 4572, 4649, 4804, 5325, 5480, 5557, 5712, 5789, 6168, 6323, 6400, 6708]] = \
        -a1 / glad * glbc * d1 + a1 * glac / glad * d1 + glac / glad * a2 * d2 \
        + a1 * glab / glad * d1 - 1 / glad * glbc * a2 * d2 + glab / glad * a2 * d2
    M.flat[[3971, 4282, 4965, 5353, 5508, 5585, 5740, 5817, 5949, 6104, 6181, 6336, 6413, 6480, 6635, 6712, 6786]] = \
        a2**2 + a1**2 - 1 / 2 * glac / glad * a2**2 - 1 / 2 * a1**2 * glac / glad \
        + 1 / 2 / glad * glbc * a2**2 - 1 / 2 * a1**2 * glab / glad \
        + 1 / 2 * a1**2 / glad * glbc - 1 / 2 * glab / glad * a2**2
    M.flat[[73, 228, 526, 681, 758, 835, 1146, 1223, 1612, 1979, 2056, 2133, 2444, 2521, 2598, 2987, 3519, 3596, 4063, 5071]] = 1
    M.flat[[307, 462, 916, 1305, 1382, 1537, 1692, 1769, 2758, 2913, 3146, 3223, 3300, 3377, 4221, 4298, 4609, 5539]] = -glac / glad
    M.flat[[619, 1008, 1930, 2319, 2396, 2551, 2862, 2939, 3328, 3460, 3615, 3926, 4003, 4080, 4391, 4923, 5000, 5311, 5929]] = -2
    M.flat[[775, 1164, 2086, 2475, 2552, 2707, 3018, 3095, 3539, 3616, 3771, 4082, 4159, 4547, 5079, 5156, 5467, 6085]] = c1**2 + c2**2
    M.flat[[931, 1320, 2242, 2786, 2941, 3174, 3251, 3406, 3850, 4005, 4238, 4315, 4392, 4625, 5234, 5545, 6163]] = 2 * glac / glad
    M.flat[[1399, 1710, 2788, 3177, 3254, 3408, 4241, 4318, 4473, 4628, 4705, 4782, 5547, 5624, 5779, 6397]] = \
        -glac / glad * d1**2 - glac / glad * d2**2
    M.flat[[2257, 3878, 4033, 4266, 4343, 4654, 4864, 5019, 5251, 5328, 5561, 5858, 6169, 6475]] = -glac / glad + 1
    M.flat[[2413, 2880, 3490, 3957, 4034, 4189, 4422, 4499, 4810, 4943, 5020, 5175, 5330, 5407, 5484, 5717, 5937, 6014, 6325, 6631]] = \
        -2 * c2 * a2 - 2 * c1 * a1
    M.flat[[2803, 3192, 3880, 4269, 4346, 4501, 4656, 4733, 5254, 5409, 5564, 5641, 5718, 5795, 6171, 6248, 6403, 6709]] = \
        2 * a1 * glac / glad * d1 + 2 * glac / glad * a2 * d2
    M.flat[[3895, 4284, 4894, 5282, 5437, 5592, 5669, 5824, 5878, 6033, 6188, 6265, 6342, 6419, 6483, 6560, 6715, 6787]] = \
        -glac / glad * a2**2 + a2**2 + a1**2 - a1**2 * glac / glad
    M.flat[[153, 308, 608, 919, 1074, 1385, 2219, 2374, 2529, 2762, 2917, 3228, 3834, 3989, 4300, 5228]] = 1
    M.flat[[387, 464, 998, 1309, 1464, 1697, 2842, 2997, 3152, 3307, 3384, 4224, 4379, 4612, 5540]] = \
        1 / 2 / glad * glbd - 1 / 2 - 1 / 2 * glab / glad
    M.flat[[621, 932, 1934, 2245, 2400, 2789, 3466, 3621, 3854, 4009, 4320, 4848, 5003, 5236, 5852]] = -1
    M.flat[[1011, 1322, 2324, 2868, 3179, 3934, 4089, 4244, 4399, 4632, 5315, 5548, 6164]] = glab / glad - 1 / glad * glbd
    M.flat[[1089, 1400, 2402, 2791, 2946, 3257, 3857, 4012, 4167, 4322, 4477, 4710, 5238, 5393, 5626, 6242]] = d2 * b2 + b1 * d1
    M.flat[[1479, 1712, 2870, 3181, 3336, 3413, 4247, 4402, 4557, 4634, 4789, 5550, 5705, 5782, 6398]] = \
        -1 / 2 * glab / glad * d2**2 - 1 / 2 * glab / glad * d1**2 + 1 / 2 / glad * glbd * d2**2 \
        + 1 / 2 / glad * glbd * d1**2 - 1 / 2 * d2**2 - 1 / 2 * d1**2
    M.flat[[2337, 3960, 4271, 4948, 5103, 5335, 5568, 5939, 6172, 6476]] = -1 / 2 * glab / glad + 1 / 2 / glad * glbd + 1 / 2
    M.flat[[2415, 2804, 3494, 3883, 4038, 4349, 4871, 5026, 5181, 5258, 5413, 5646, 5862, 6017, 6250, 6554]] = -a2 * b2 - b1 * a1
    M.flat[[2883, 3194, 3962, 4273, 4428, 4661, 5338, 5493, 5570, 5725, 5802, 6174, 6329, 6406, 6710]] = \
        -a1 / glad * glbd * d1 + a1 * glab / glad * d1 + glab / glad * a2 * d2 - 1 / glad * glbd * a2 * d2
    M.flat[[3975, 4286, 4976, 5364, 5597, 5962, 6117, 6194, 6349, 6426, 6486, 6641, 6718, 6788]] = \
        1 / 2 / glad * glbd * a2**2 + 1 / 2 * a1**2 / glad * glbd - 1 / 2 * glab / glad * a2**2 \
        - 1 / 2 * a1**2 * glab / glad + 1 / 2 * a1**2 + 1 / 2 * a2**2
    M.flat[[233, 388, 693, 848, 1003, 1158, 1469, 1546, 1623, 2306, 2383, 2460, 2537, 2614, 2847, 2924, 3001, 3312, 3916, 3993, 4070, 4381, 5307]] = 1
    M.flat[[389, 466, 1005, 1238, 1315, 1470, 1703, 1780, 1857, 2773, 2850, 2927, 3004, 3159, 3236, 3313, 3390, 4228, 4305, 4382, 4615, 5541]] = \
        -1 / 2 * glac / glad + 1 / 2 * glcd / glad - 1 / 2
    M.flat[[701, 1012, 2019, 2174, 2329, 2484, 2873, 2950, 3027, 3475, 3552, 3629, 3706, 3939, 4016, 4093, 4404, 4930, 5007, 5084, 5317, 5931]] = -1
    M.flat[[1013, 1324, 2331, 2564, 2874, 3185, 3262, 3339, 3865, 3942, 4019, 4096, 4251, 4328, 4405, 4638, 5241, 5318, 5551, 6165]] = \
        glac / glad - glcd / glad
    M.flat[[1169, 1480, 2487, 2720, 2875, 3030, 3341, 3944, 4021, 4098, 4175, 4407, 4484, 4561, 4794, 5320, 5397, 5474, 5707, 6321]] = \
        c1 * d1 + c2 * d2
    M.flat[[1481, 1714, 2877, 3110, 3187, 3342, 3419, 4256, 4333, 4410, 4487, 4564, 4641, 4718, 4795, 5554, 5631, 5708, 5785, 6399]] = \
        1 / 2 * glcd / glad * d1**2 - 1 / 2 * glac / glad * d2**2 - 1 / 2 * glac / glad * d1**2 \
        - 1 / 2 * d1**2 - 1 / 2 * d2**2 + 1 / 2 * glcd / glad * d2**2
    M.flat[[2339, 3656, 3966, 4277, 4354, 4431, 4879, 4956, 5033, 5110, 5264, 5341, 5574, 5865, 5942, 6175, 6477]] = \
        -1 / 2 * glac / glad + 1 / 2 + 1 / 2 * glcd / glad
    M.flat[[2495, 2884, 3579, 3812, 3967, 4122, 4433, 4510, 4587, 4958, 5035, 5112, 5189, 5343, 5420, 5497, 5730, 5944, 6021, 6098, 6331, 6633]] = \
        -c1 * a1 - c2 * a2
    M.flat[[2885, 3196, 3969, 4202, 4279, 4434, 4667, 4744, 4821, 5269, 5346, 5423, 5500, 5577, 5654, 5731, 5808, 6178, 6255, 6332, 6409, 6711]] = \
        glac / glad * a2 * d2 + a1 * glac / glad * d1 - glcd / glad * a2 * d2 - glcd * a1 / glad * d1
    M.flat[[3977, 4288, 4983, 5216, 5370, 5603, 5680, 5757, 5893, 5970, 6047, 6124, 6201, 6278, 6355, 6432, 6490, 6567, 6644, 6721, 6789]] = \
        1 / 2 * a1**2 + 1 / 2 * a2**2 - 1 / 2 * glac / glad * a2**2 + 1 / 2 * glcd * a1**2 / glad \
        - 1 / 2 * a1**2 * glac / glad + 1 / 2 * glcd / glad * a2**2

    M = M.T
    try:
        Mr = np.linalg.solve(M[:, 0:78], M[:, 78:])
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfiguration("p4pf elimination template is singular") from exc

    # Action matrix of the quotient ring; eigenvectors encode the
    # monomial vector (1, zd, zc, zb, f^2, ...).
    A = np.zeros((10, 10))
    amcols = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
    A[0, 1] = 1.0
    A[1, 5] = 1.0
    A[2, 6] = 1.0
    A[3, 7] = 1.0
    A[4, 8] = 1.0
    A[5, :] = -Mr[74, amcols]
    A[6, :] = -Mr[73, amcols]
    A[7, :] = -Mr[72, amcols]
    A[8, :] = -Mr[71, amcols]
    A[9, :] = -Mr[70, amcols]

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
