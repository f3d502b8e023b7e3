"""Minimal absolute-pose solvers and the frame conventions around them.

Two solvers are provided: a three-point solver for cameras with known
focal length (parametrization of Kneip, Scaramuzza and Siegwart, CVPR
2011) and a four-point solver that additionally recovers the focal
length (Groebner-basis solver of Bujnak, Kukelova and Pajdla, CVPR
2008).  Everything downstream works in one internal frame: the camera
looks along +Z, +X points to the right and +Y to the top of the image,
and image coordinates are centered at the principal point.
"""

import math
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
            for sol in _p4pf_depths_and_focal(*gl, *m2d.T.ravel())]

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
            candidates.append(Pose(rot, center, float(var2d * f)))

    if not candidates:
        raise NoRealSolution("p4pf: no physically valid real root")
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


def _p4pf_depths_and_focal(glab, glac, glad, glbc, glbd, glcd,
                           a1, a2, b1, b2, c1, c2, d1, d2):
    """Solve the four-point depth/focal polynomial system.

    Returns a list of (focal, zb, zc, zd) tuples in conditioned units.
    The hidden-variable elimination template is the published one;
    _P4PF_BLOCKS holds where each of its coefficients goes.
    """
    M = np.zeros((88, 78))
    M.flat[_P4PF_FLAT] = np.repeat([
        1,
        1 / 2 / glad * glbc - 1 / 2 * glab / glad - 1 / 2 * glac / glad,
        -1,
        -1,
        c2 * b2 + c1 * b1,
        glac / glad - 1 / glad * glbc + glab / glad,
        1 / 2 / glad * glbc * d2**2 - 1 / 2 * glab / glad * d2**2 - 1 / 2 * glac / glad * d2**2 - 1 / 2 * glac / glad * d1**2 + 1 / 2 / glad * glbc * d1**2 - 1 / 2 * glab / glad * d1**2,
        1 - 1 / 2 * glac / glad - 1 / 2 * glab / glad + 1 / 2 / glad * glbc,
        -b1 * a1 - a2 * b2,
        -c2 * a2 - c1 * a1,
        -a1 / glad * glbc * d1 + a1 * glac / glad * d1 + glac / glad * a2 * d2 + a1 * glab / glad * d1 - 1 / glad * glbc * a2 * d2 + glab / glad * a2 * d2,
        a2**2 + a1**2 - 1 / 2 * glac / glad * a2**2 - 1 / 2 * a1**2 * glac / glad + 1 / 2 / glad * glbc * a2**2 - 1 / 2 * a1**2 * glab / glad + 1 / 2 * a1**2 / glad * glbc - 1 / 2 * glab / glad * a2**2,
        1,
        -glac / glad,
        -2,
        c1**2 + c2**2,
        2 * glac / glad,
        -glac / glad * d1**2 - glac / glad * d2**2,
        -glac / glad + 1,
        -2 * c2 * a2 - 2 * c1 * a1,
        2 * a1 * glac / glad * d1 + 2 * glac / glad * a2 * d2,
        -glac / glad * a2**2 + a2**2 + a1**2 - a1**2 * glac / glad,
        1,
        1 / 2 / glad * glbd - 1 / 2 - 1 / 2 * glab / glad,
        -1,
        glab / glad - 1 / glad * glbd,
        d2 * b2 + b1 * d1,
        -1 / 2 * glab / glad * d2**2 - 1 / 2 * glab / glad * d1**2 + 1 / 2 / glad * glbd * d2**2 + 1 / 2 / glad * glbd * d1**2 - 1 / 2 * d2**2 - 1 / 2 * d1**2,
        -1 / 2 * glab / glad + 1 / 2 / glad * glbd + 1 / 2,
        -a2 * b2 - b1 * a1,
        -a1 / glad * glbd * d1 + a1 * glab / glad * d1 + glab / glad * a2 * d2 - 1 / glad * glbd * a2 * d2,
        1 / 2 / glad * glbd * a2**2 + 1 / 2 * a1**2 / glad * glbd - 1 / 2 * glab / glad * a2**2 - 1 / 2 * a1**2 * glab / glad + 1 / 2 * a1**2 + 1 / 2 * a2**2,
        1,
        -1 / 2 * glac / glad + 1 / 2 * glcd / glad - 1 / 2,
        -1,
        glac / glad - glcd / glad,
        c1 * d1 + c2 * d2,
        1 / 2 * glcd / glad * d1**2 - 1 / 2 * glac / glad * d2**2 - 1 / 2 * glac / glad * d1**2 - 1 / 2 * d1**2 - 1 / 2 * d2**2 + 1 / 2 * glcd / glad * d2**2,
        -1 / 2 * glac / glad + 1 / 2 + 1 / 2 * glcd / glad,
        -c1 * a1 - c2 * a2,
        glac / glad * a2 * d2 + a1 * glac / glad * d1 - glcd / glad * a2 * d2 - glcd * a1 / glad * d1,
        1 / 2 * a1**2 + 1 / 2 * a2**2 - 1 / 2 * glac / glad * a2**2 + 1 / 2 * glcd * a1**2 / glad - 1 / 2 * a1**2 * glac / glad + 1 / 2 * glcd / glad * a2**2,
    ], _P4PF_COUNTS)

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
