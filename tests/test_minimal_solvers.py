"""Minimal solvers and frame conventions, checked against forward projection."""

import numpy as np
import pytest

from sfmloc import (
    BUNDLER_FLIP,
    Pose,
    bearing_vectors,
    bundler_to_internal,
    denormalize_points,
    internal_to_bundler,
    normalize_points,
    solve_p3p,
    solve_p4pf,
)
from sfmloc import minimal_solvers
from sfmloc.errors import DegenerateConfiguration, NoRealSolution
from sfmloc.minimal_solvers import _PAIRS
from sfmloc.sfm_data import CameraRecord

from conftest import random_rotation, rotation_angle


def random_pose(rng, focal=800.0):
    return Pose(random_rotation(rng), rng.uniform(-5, 5, 3), focal)


def forward_project(pose, n, rng, spread=0.4):
    """World points in front of the camera plus their exact projections."""
    depth = rng.uniform(4.0, 12.0, n)
    x = rng.uniform(-spread, spread, n) * depth
    y = rng.uniform(-spread, spread, n) * depth
    pc = np.column_stack([x, y, depth])
    world = pc @ pose.rotation + pose.center
    proj = pose.focal_px * pc[:, :2] / pc[:, 2:]
    return world, proj


def best_candidate(output, pose):
    return min(output,
               key=lambda c: rotation_angle(c.rotation, pose.rotation))


class TestNormalizePoints:
    def test_center_maps_to_origin(self):
        out = normalize_points([(200.0, 150.0)], 400, 300)
        assert np.allclose(out, [[0.0, 0.0]])

    def test_top_left_flips_up(self):
        out = normalize_points([(0.0, 0.0)], 400, 300)
        assert np.allclose(out, [[-200.0, 150.0]])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 300, size=(50, 2))
        back = denormalize_points(normalize_points(pts, 400, 300), 400, 300)
        assert np.allclose(back, pts, atol=1e-12)


class TestSolveP3P:
    def test_forward_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pose = random_pose(rng)
            world, proj = forward_project(pose, 3, rng)
            out = solve_p3p(bearing_vectors(proj, pose.focal_px), world)
            best = best_candidate(out, pose)
            assert rotation_angle(best.rotation, pose.rotation) < 1e-6
            assert np.linalg.norm(best.center - pose.center) < 1e-6

    def test_exact_reprojection_of_sample(self):
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        world, proj = forward_project(pose, 3, rng)
        bearings = bearing_vectors(proj, pose.focal_px)
        for cand in solve_p3p(bearings, world):
            pc = cand.world_to_camera(world)
            rays = pc / np.linalg.norm(pc, axis=1, keepdims=True)
            assert np.linalg.norm(rays - bearings) < 1e-9

    def test_collinear_world_points_raise(self):
        bearings = bearing_vectors([(0, 0), (10, 0), (0, 10)], 100.0)
        world = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            solve_p3p(bearings, world)

    def test_coincident_bearings_raise(self):
        bearings = np.array([[0, 0, 1], [0, 0, 1], [0.1, 0, 1]])
        bearings = bearings / np.linalg.norm(bearings, axis=1, keepdims=True)
        world = np.array([[0, 0, 5], [1, 0, 5], [0, 1, 5]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            solve_p3p(bearings, world)

    def test_coplanar_bearings_raise(self):
        # a subnormal focal puts all three rays in the image plane
        bearings = bearing_vectors([(10, 0), (0, 10), (-10, -5)], 1e-320)
        world = np.array([[0, 0, 5], [1, 0, 5], [0, 1, 5]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            solve_p3p(bearings, world)

    def test_identity_pose_recovered(self):
        pose = Pose(np.eye(3), np.zeros(3), 100.0)
        world = np.array([[1.0, 0.3, 5.0], [-0.8, 0.5, 6.0], [0.2, -1.0, 4.0]])
        proj = pose.focal_px * world[:, :2] / world[:, 2:]
        out = solve_p3p(bearing_vectors(proj, 100.0), world)
        best = best_candidate(out, pose)
        assert rotation_angle(best.rotation, np.eye(3)) < 1e-6
        assert np.linalg.norm(best.center) < 1e-6

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(9)
        pose = random_pose(rng)
        world, proj = forward_project(pose, 3, rng)
        bearings = bearing_vectors(proj, pose.focal_px)
        q = random_rotation(rng)
        shift = rng.uniform(-3, 3, 3)
        moved = world @ q.T + shift
        out = solve_p3p(bearings, world)
        out_moved = solve_p3p(bearings, moved)
        for cand in out:
            expected_center = q @ cand.center + shift
            match = min(np.linalg.norm(c.center - expected_center)
                        for c in out_moved)
            assert match < 1e-8


def test_cross_is_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(31)
    n = 200_000
    u, v = rng.normal(size=(2, n, 3)) * 10.0 ** rng.uniform(-8, 8, (2, n, 1))
    got = np.array([minimal_solvers._cross(a, b) for a, b in zip(u, v)])
    assert got.tobytes() == np.cross(u, v).tobytes()


class TestSolveP4Pf:
    def test_forward_oracle_with_focal(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            pose = random_pose(rng)
            world, proj = forward_project(pose, 4, rng)
            out = solve_p4pf(proj, world)
            best = best_candidate(out, pose)
            assert rotation_angle(best.rotation, pose.rotation) < 1e-6
            assert np.linalg.norm(best.center - pose.center) < 1e-6
            assert abs(best.focal_px - pose.focal_px) / pose.focal_px < 1e-4

    def test_candidate_reprojection_residual(self):
        rng = np.random.default_rng(18)
        pose = random_pose(rng)
        world, proj = forward_project(pose, 4, rng)
        best = best_candidate(solve_p4pf(proj, world), pose)
        pc = best.world_to_camera(world)
        reproj = best.focal_px * pc[:, :2] / pc[:, 2:]
        assert np.abs(reproj - proj).max() < 1e-6

    def test_focal_always_positive(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            pose = random_pose(rng)
            world, proj = forward_project(pose, 4, rng)
            for cand in solve_p4pf(proj, world):
                assert cand.focal_px > 0

    def test_coplanar_points_solvable(self):
        rng = np.random.default_rng(20)
        solved = 0
        for _ in range(50):
            pose = random_pose(rng)
            world = np.column_stack([rng.uniform(-3, 3, 4),
                                     rng.uniform(-3, 3, 4),
                                     np.zeros(4)])
            pc = pose.world_to_camera(world)
            if not np.all(pc[:, 2] > 1.0):
                continue
            proj = pose.focal_px * pc[:, :2] / pc[:, 2:]
            best = best_candidate(solve_p4pf(proj, world), pose)
            assert np.linalg.norm(best.center - pose.center) < 1e-5
            solved += 1
        assert solved >= 10

    def test_three_collinear_points_raise(self):
        world = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]],
                         dtype=float)
        proj = np.array([[0, 0], [10, 0], [20, 0], [0, 10]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            solve_p4pf(proj, world)


def oracle_polish_depths(m2d, gl, f, zb, zc, zd):
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


def close_poses(a, b, tol):
    """Rotation entries, centre and focal of a and b agree within tol (relative)."""
    return (np.abs(a.rotation - b.rotation).max() <= tol
            and np.linalg.norm(a.center - b.center) <= tol * max(1.0, np.linalg.norm(b.center))
            and abs(a.focal_px - b.focal_px) <= tol * b.focal_px)


@pytest.mark.parametrize("noise_px", [0.0, 0.5, 3.0])
def test_p4pf_polish_matches_the_oracle(monkeypatch, noise_px):
    """The float polish gives the oracle's candidates, in the same order.

    numpy's two-element dot products round differently from Python
    floats (fused multiply-add), and Gauss-Newton on an ill-conditioned
    root carries a one-ulp difference to about 1e-7; a candidate that
    reprojects noise-free points exactly matches to 1e-9.
    """
    rng = np.random.default_rng(23)
    problems = []
    for _ in range(200):
        pose = random_pose(rng, focal=rng.uniform(300.0, 1500.0))
        world, proj = forward_project(pose, 4, rng)
        problems.append((pose, proj + rng.normal(0.0, noise_px, proj.shape), world))

    def solve_all():
        out = []
        for _, proj, world in problems:
            try:
                out.append(solve_p4pf(proj, world))
            except NoRealSolution:
                out.append([])
        return out

    got = solve_all()
    monkeypatch.setattr(minimal_solvers, "_polish_depths", oracle_polish_depths)
    want = solve_all()
    assert sum(map(len, want)) >= 300
    exact = 0
    for (_, proj, world), cands, oracle in zip(problems, got, want):
        assert len(cands) == len(oracle)
        for c, o in zip(cands, oracle):
            pc = o.world_to_camera(world)
            if noise_px == 0.0 and np.abs(o.focal_px * pc[:, :2] / pc[:, 2:] - proj).max() < 1e-6:
                assert close_poses(c, o, 1e-9)
                exact += 1
            else:
                assert close_poses(c, o, 1e-6)
    assert noise_px > 0.0 or exact >= 200


class TestBundlerConversion:
    def test_identity_record(self):
        rec = CameraRecord(500.0, 0.0, 0.0, np.eye(3), np.zeros(3))
        pose = bundler_to_internal(rec)
        assert np.allclose(pose.center, 0.0)
        assert np.allclose(pose.rotation, BUNDLER_FLIP)
        assert pose.focal_px == 500.0

    def test_translated_camera_center(self):
        rec = CameraRecord(500.0, 0.0, 0.0, np.eye(3),
                           np.array([0.0, 0.0, -5.0]))
        pose = bundler_to_internal(rec)
        assert np.allclose(pose.center, [0.0, 0.0, 5.0])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pose = random_pose(rng)
            rot, trans = internal_to_bundler(pose)
            rec = CameraRecord(pose.focal_px, 0.0, 0.0, rot, trans)
            back = bundler_to_internal(rec)
            assert np.allclose(back.rotation, pose.rotation, atol=1e-12)
            assert np.allclose(back.center, pose.center, atol=1e-12)

    def test_pose_invariants_preserved(self):
        rng = np.random.default_rng(4)
        rec_rot = random_rotation(rng)
        rec = CameraRecord(500.0, 0.0, 0.0, rec_rot, rng.uniform(-1, 1, 3))
        pose = bundler_to_internal(rec)
        assert np.linalg.norm(pose.rotation @ pose.rotation.T - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9
