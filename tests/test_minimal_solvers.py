"""Minimal solvers and frame conventions, checked against forward projection
and against the scalar solvers in oracle_solvers."""

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
from sfmloc.sfm_data import CameraRecord

import oracle_solvers
from oracle_solvers import DegenerateConfiguration, NoRealSolution
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


def p3p_poses(bearings, world):
    """solve_p3p's poses for one problem, as a list."""
    found = solve_p3p(np.asarray(bearings)[None], np.asarray(world)[None])
    return [found.pose(k) for k in range(len(found))]


def p4pf_poses(image_pts, world):
    """solve_p4pf's poses for one problem, as a list."""
    found = solve_p4pf(np.asarray(image_pts)[None], np.asarray(world)[None])
    return [found.pose(k) for k in range(len(found))]


def oracle_poses(solve, *problem):
    """The scalar oracle's poses, an empty list where it raises."""
    try:
        return solve(*problem)
    except (DegenerateConfiguration, NoRealSolution):
        return []


def rows_of(found, n):
    """Candidates of a batch of n rows as n lists of Pose."""
    return [[found.pose(k) for k in np.flatnonzero(found.sample == i)] for i in range(n)]


def well_posed_problems(seed, n, noise_px=0.0):
    """n random (pose, image points, world points) with four points each."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(n):
        pose = random_pose(rng, focal=rng.uniform(300.0, 1500.0))
        world, proj = forward_project(pose, 4, rng)
        problems.append((pose, proj + rng.normal(0.0, noise_px, proj.shape), world))
    return problems


def close_poses(a, b, tol):
    """Rotation entries, centre and focal of a and b agree within tol (relative)."""
    return (np.abs(a.rotation - b.rotation).max() <= tol
            and np.linalg.norm(a.center - b.center) <= tol * max(1.0, np.linalg.norm(b.center))
            and (a.focal_px is None or abs(a.focal_px - b.focal_px) <= tol * b.focal_px))


def reprojects(pose, proj, world):
    pc = pose.world_to_camera(world)
    return np.abs(pose.focal_px * pc[:, :2] / pc[:, 2:] - proj).max() < 1e-6


class TestSolveP3P:
    def test_forward_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pose = random_pose(rng)
            world, proj = forward_project(pose, 3, rng)
            out = p3p_poses(bearing_vectors(proj, pose.focal_px), world)
            best = best_candidate(out, pose)
            assert rotation_angle(best.rotation, pose.rotation) < 1e-6
            assert np.linalg.norm(best.center - pose.center) < 1e-6

    def test_exact_reprojection_of_sample(self):
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        world, proj = forward_project(pose, 3, rng)
        bearings = bearing_vectors(proj, pose.focal_px)
        for cand in p3p_poses(bearings, world):
            pc = cand.world_to_camera(world)
            rays = pc / np.linalg.norm(pc, axis=1, keepdims=True)
            assert np.linalg.norm(rays - bearings) < 1e-9

    def test_collinear_world_points_raise(self):
        bearings = bearing_vectors([(0, 0), (10, 0), (0, 10)], 100.0)
        world = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            oracle_solvers.solve_p3p(bearings, world)
        assert p3p_poses(bearings, world) == []

    def test_coincident_bearings_raise(self):
        bearings = np.array([[0, 0, 1], [0, 0, 1], [0.1, 0, 1]])
        bearings = bearings / np.linalg.norm(bearings, axis=1, keepdims=True)
        world = np.array([[0, 0, 5], [1, 0, 5], [0, 1, 5]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            oracle_solvers.solve_p3p(bearings, world)
        assert p3p_poses(bearings, world) == []

    def test_coplanar_bearings_raise(self):
        # a subnormal focal puts all three rays in the image plane
        bearings = bearing_vectors([(10, 0), (0, 10), (-10, -5)], 1e-320)
        world = np.array([[0, 0, 5], [1, 0, 5], [0, 1, 5]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            oracle_solvers.solve_p3p(bearings, world)
        assert p3p_poses(bearings, world) == []

    def test_identity_pose_recovered(self):
        pose = Pose(np.eye(3), np.zeros(3), 100.0)
        world = np.array([[1.0, 0.3, 5.0], [-0.8, 0.5, 6.0], [0.2, -1.0, 4.0]])
        proj = pose.focal_px * world[:, :2] / world[:, 2:]
        out = p3p_poses(bearing_vectors(proj, 100.0), world)
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
        out = p3p_poses(bearings, world)
        out_moved = p3p_poses(bearings, moved)
        for cand in out:
            expected_center = q @ cand.center + shift
            match = min(np.linalg.norm(c.center - expected_center)
                        for c in out_moved)
            assert match < 1e-8

    def test_batch_equals_the_scalar_oracle_bit_for_bit(self):
        problems = well_posed_problems(41, 2000)
        bearings = np.array([bearing_vectors(proj[:3], pose.focal_px)
                             for pose, proj, _ in problems])
        world = np.array([w[:3] for _, _, w in problems])
        got = rows_of(solve_p3p(bearings, world), len(problems))
        total = 0
        for b, w, cands in zip(bearings, world, got):
            oracle = oracle_poses(oracle_solvers.solve_p3p, b, w)
            assert len(cands) == len(oracle)
            for c, o in zip(cands, oracle):
                assert c.rotation.tobytes() == o.rotation.tobytes()
                assert c.center.tobytes() == o.center.tobytes()
                assert np.isnan(c.focal_px)
            total += len(cands)
        assert total >= 3000


def test_cross_is_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(31)
    n = 200_000
    u, v = rng.normal(size=(2, n, 3)) * 10.0 ** rng.uniform(-8, 8, (2, n, 1))
    assert minimal_solvers._cross(u, v).tobytes() == np.cross(u, v).tobytes()
    assert minimal_solvers._cross(u[0], v[0]).tobytes() == np.cross(u[0], v[0]).tobytes()


class TestSolveP4Pf:
    def test_forward_oracle_with_focal(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            pose = random_pose(rng)
            world, proj = forward_project(pose, 4, rng)
            out = p4pf_poses(proj, world)
            best = best_candidate(out, pose)
            assert rotation_angle(best.rotation, pose.rotation) < 1e-6
            assert np.linalg.norm(best.center - pose.center) < 1e-6
            assert abs(best.focal_px - pose.focal_px) / pose.focal_px < 1e-4

    def test_candidate_reprojection_residual(self):
        rng = np.random.default_rng(18)
        pose = random_pose(rng)
        world, proj = forward_project(pose, 4, rng)
        best = best_candidate(p4pf_poses(proj, world), pose)
        pc = best.world_to_camera(world)
        reproj = best.focal_px * pc[:, :2] / pc[:, 2:]
        assert np.abs(reproj - proj).max() < 1e-6

    def test_focal_always_positive(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            pose = random_pose(rng)
            world, proj = forward_project(pose, 4, rng)
            for cand in p4pf_poses(proj, world):
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
            best = best_candidate(p4pf_poses(proj, world), pose)
            assert np.linalg.norm(best.center - pose.center) < 1e-5
            solved += 1
        assert solved >= 10

    def test_three_collinear_points_raise(self):
        world = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]],
                         dtype=float)
        proj = np.array([[0, 0], [10, 0], [20, 0], [0, 10]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            oracle_solvers.solve_p4pf(proj, world)
        assert p4pf_poses(proj, world) == []

    def test_true_pose_once_per_problem(self):
        """A double root polishes to two candidates up to about 1e-7 apart;
        they are merged, and the true pose stays."""
        for pose, proj, world in well_posed_problems(23, 200):
            true = [c for c in p4pf_poses(proj, world)
                    if rotation_angle(c.rotation, pose.rotation) < 1e-6
                    and np.linalg.norm(c.center - pose.center) < 1e-6
                    and abs(c.focal_px - pose.focal_px) / pose.focal_px < 1e-4]
            assert len(true) == 1


def assert_merges_the_oracle(cands, roots, proj, world, exact_tol, tol) -> int:
    """cands are the oracle's candidates in order, each within tol (within
    exact_tol when it reprojects the points exactly), less the ones the
    batch merges: an oracle candidate left out has a polished root within
    the merge tolerance of an earlier one's.  Returns the number of
    candidates that reproject exactly."""
    kept = exact = 0
    for i, (root, o) in enumerate(roots):
        if kept < len(cands) and close_poses(cands[kept], o, tol):
            if reprojects(o, proj, world):
                assert close_poses(cands[kept], o, exact_tol)
                exact += 1
            kept += 1
        else:
            assert any(np.all(np.abs(root - r) <= minimal_solvers._P4PF_DUPLICATE_TOL
                              * np.maximum(np.abs(root), np.abs(r)))
                       for r, _ in roots[:i])
    assert kept == len(cands)
    return exact


# min_exact: candidates checked at 1e-9.  One seed-23 true pose is a double
# root whose kept (first) copy reprojects to 1.4e-6 px, so 199 of 200.
@pytest.mark.parametrize("seed, n, noise_px, min_exact", [
    pytest.param(23, 200, 0.0, 199, id="0.0"),
    pytest.param(23, 200, 0.5, 0, id="0.5"),
    pytest.param(23, 200, 3.0, 0, id="3.0"),
    pytest.param(43, 2000, 0.0, 2000, id="2000-problems"),
])
def test_p4pf_polish_matches_the_oracle(seed, n, noise_px, min_exact):
    """The batch gives the scalar oracle's candidates, in the same order.

    The batch polishes every root at once, with an SVD least-squares
    step where the oracle calls np.linalg.lstsq and a norm where it
    calls math.hypot; Gauss-Newton on an ill-conditioned root carries
    that last-digit difference to about 1e-7.  A candidate that
    reprojects noise-free points exactly matches to 1e-9.
    """
    problems = well_posed_problems(seed, n, noise_px)
    proj = np.array([p for _, p, _ in problems])
    world = np.array([w for _, _, w in problems])
    got = rows_of(solve_p4pf(proj, world), n)
    total = exact = 0
    for (_, p, w), cands in zip(problems, got):
        roots = oracle_solvers.p4pf_roots(p, w)
        exact += assert_merges_the_oracle(cands, roots, p, w, 1e-9, 1e-6)
        total += len(roots)
    assert total >= 1.5 * n
    assert exact >= min_exact


def test_degenerate_rows_leave_the_others_unchanged():
    """Rows the oracle rejects give no candidate in a mixed batch, and each
    other row gives exactly what it gives alone."""
    problems = well_posed_problems(47, 12)
    proj = np.array([p for _, p, _ in problems])
    world = np.array([w for _, _, w in problems])
    bearings = np.array([bearing_vectors(p, pose.focal_px) for pose, p, _ in problems])
    bad = [1, 4, 5, 9]
    world[1, 2] = (world[1, 0] + world[1, 1]) / 2.0  # collinear (P3P and P4Pf)
    world[4, 1] = world[4, 0]                          # coincident points
    proj[5, 3] = proj[5, 0]                            # coincident image points
    bearings[5, 1] = bearings[5, 0]                    # coincident rays
    bearings[9] = bearing_vectors([(10, 0), (0, 10), (-10, -5), (3, 3)], 1e-320)  # coplanar
    world[9, 3] = world[9, 0] + 2.0 * (world[9, 2] - world[9, 0])  # collinear (P4Pf)
    for solve, oracle_solve, args, n in (
            (solve_p3p, oracle_solvers.solve_p3p, (bearings[:, :3], world[:, :3]), 3),
            (solve_p4pf, oracle_solvers.solve_p4pf, (proj, world), 4)):
        got = rows_of(solve(*args), len(problems))
        for i, cands in enumerate(got):
            alone = rows_of(solve(*(a[i:i + 1] for a in args)), 1)[0]
            if i in bad:
                with pytest.raises(DegenerateConfiguration):
                    oracle_solve(*(a[i] for a in args))
                assert cands == alone == []
                continue
            assert len(cands) == len(alone) > 0
            for c, a in zip(cands, alone):
                assert c.rotation.tobytes() == a.rotation.tobytes()
                assert c.center.tobytes() == a.center.tobytes()
                assert np.array_equal(c.focal_px, a.focal_px, equal_nan=True)


def test_singular_template_fails_only_its_row(monkeypatch):
    problems = well_posed_problems(53, 5)
    proj = np.array([p for _, p, _ in problems])
    world = np.array([w for _, _, w in problems])
    want = rows_of(solve_p4pf(proj, world), 5)
    template = minimal_solvers._p4pf_template

    def singular_third_row(gl, m2d):
        M = template(gl, m2d)
        M[2] = 0.0
        return M
    monkeypatch.setattr(minimal_solvers, "_p4pf_template", singular_third_row)
    got = rows_of(solve_p4pf(proj, world), 5)
    assert got[2] == [] and want[2] != []
    for i in (0, 1, 3, 4):
        assert [c.center.tobytes() for c in got[i]] == [c.center.tobytes() for c in want[i]]


def test_empty_batches_give_no_candidates():
    assert len(solve_p3p(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))) == 0
    assert len(solve_p4pf(np.zeros((0, 4, 2)), np.zeros((0, 4, 3)))) == 0


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
