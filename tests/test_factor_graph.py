import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from plbench.geometry import (
    CameraIntrinsics,
    GeometryError,
    Pose,
    Segments,
    orthonormal_from_plucker,
    orthonormal_update,
    plucker_from_endpoints,
    plucker_from_orthonormal,
    se3_exp_update,
    so3_exp,
)
from plbench.factor_graph import (
    FactorGraph,
    Factors,
    GraphConstructionError,
    Lines,
    Points,
    Poses,
    _line_residuals,
    _lines_to_camera,
    _point_residuals,
    _pose_jacobian,
    _project_points,
    build_covisibility_graph,
    line_residual,
    line_terms,
    point_residual,
    point_terms,
)
from plbench.simulator import NoiseParams, build_scene, build_trajectory, generate_sequence, load_preset

K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)


def random_pose(rng, rot_scale=0.4, t_scale=0.6) -> Pose:
    return Pose.from_rt(so3_exp(rng.normal(scale=rot_scale, size=3)),
                        rng.normal(scale=t_scale, size=3))


def random_point_config(rng):
    """Pose, world point in front of the camera, measured pixel nearby."""
    while True:
        T = random_pose(rng)
        P_w = rng.normal(scale=2.0, size=3) + np.array([0.0, 0.0, 4.0])
        P_c = T.transform(P_w)
        if P_c[2] > 0.5:
            _, _, _, proj = _project_points(np.eye(3)[None], np.zeros((1, 3)), P_c[None], K)
            return T, P_w, proj[0] + rng.normal(scale=3.0, size=2)


def random_line_config(rng):
    """Pose, orthonormal line state, measured endpoint pixels."""
    while True:
        T = random_pose(rng)
        A = rng.normal(scale=1.5, size=3) + np.array([0.0, 0.0, 5.0])
        B = A + rng.normal(scale=2.0, size=3)
        if np.linalg.norm(B - A) < 0.5:
            continue
        n, d = plucker_from_endpoints(A, B)
        if np.linalg.norm(n) < 1e-3:
            continue
        A_c, B_c = T.transform(A), T.transform(B)
        if A_c[2] < 0.5 or B_c[2] < 0.5:
            continue
        ua = np.array([K.fx * A_c[0] / A_c[2] + K.cx, K.fy * A_c[1] / A_c[2] + K.cy])
        ub = np.array([K.fx * B_c[0] / B_c[2] + K.cx, K.fy * B_c[1] / B_c[2] + K.cy])
        o = orthonormal_from_plucker(n, d)
        return T, o, ua + rng.normal(scale=2.0, size=2), ub + rng.normal(scale=2.0, size=2)


def stack_poses(poses):
    """(R, t) of each pose, stacked for the batched kernels."""
    return np.array([T.rotation() for T in poses]), np.array([T.t for T in poses])


def batch_point_jacobians(configs):
    """(J_pose, J_point) of each (T, P_w, u) through one ``point_terms`` call."""
    T, P_w, u = zip(*configs)
    _, J_pose, J_point, valid = point_terms(*stack_poses(T), np.array(P_w), np.array(u), K)
    assert valid.all()
    return J_pose, J_point


def batch_line_jacobians(configs):
    """(J_pose, J_line) of each (T, o, u_s, u_e) through one ``line_terms`` call."""
    T, o, u_s, u_e = zip(*configs)
    _, J_pose, J_line, valid = line_terms(
        *stack_poses(T), np.array([x.U for x in o]), np.array([x.W for x in o]),
        np.array(u_s), np.array(u_e), K,
    )
    assert valid.all()
    return J_pose, J_line


def rel_err(J_analytic, J_fd):
    return np.max(np.abs(J_analytic - J_fd)) / max(1.0, np.max(np.abs(J_analytic)))


# ---------------------------------------------------------------------------
# point residual


def test_point_residual_zero_when_measurement_matches():
    P_w = np.array([1.0, 2.0, 2.0])
    u = np.array([370.0, 340.0])
    np.testing.assert_allclose(point_residual(u, P_w, Pose.identity(), K), [0, 0], atol=1e-12)


def test_point_residual_hand_value():
    P_w = np.array([1.0, 2.0, 2.0])
    u = np.array([372.0, 340.0])
    np.testing.assert_allclose(point_residual(u, P_w, Pose.identity(), K), [2, 0], atol=1e-12)


def test_point_residual_behind_camera_raises():
    with pytest.raises(GeometryError):
        point_residual(np.zeros(2), np.array([0.0, 0.0, -1.0]), Pose.identity(), K)


def test_point_residual_gauge_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T, P_w, u = random_point_config(rng)
        G = random_pose(rng)
        r0 = point_residual(u, P_w, T, K)
        r1 = point_residual(u, G.transform(P_w), T.compose(G.inverse()), K)
        np.testing.assert_allclose(r1, r0, atol=1e-9)


# ---------------------------------------------------------------------------
# line projection and residual


def camera_line(L, T: Pose):
    """The Plucker pair L = (n, d) in the frame of T, by ``_lines_to_camera``."""
    n_c, _, d_c = _lines_to_camera(T.rotation()[None], T.t[None],
                                   np.asarray(L[0], dtype=float)[None], np.asarray(L[1], dtype=float)[None])
    return n_c[0], d_c[0]


def project_line(L, T: Pose, intr: CameraIntrinsics) -> np.ndarray:
    """The image line that ``_line_residuals`` measures the endpoints of a
    factor of the world line L = (n, d) against, normalized to Euclidean
    norm 1; raises GeometryError where the kernel marks it degenerate."""
    o = orthonormal_from_plucker(*L)
    _, valid, (_, _, l, *_) = _line_residuals(T.rotation()[None], T.t[None], o.U[None], o.W[None],
                                              np.zeros((1, 2)), np.zeros((1, 2)), intr)
    if not valid[0]:
        raise GeometryError("degenerate line projection")
    return l[0] / np.linalg.norm(l[0])


def project_line_by_endpoints(L, T: Pose, intr: CameraIntrinsics) -> np.ndarray:
    """Oracle for ``project_line``: the cross product of two projected
    points of the line, normalized."""
    n_c, d_c = camera_line(L, T)
    p1 = np.cross(d_c, n_c) / float(d_c @ d_c)  # closest point to the camera
    p2 = p1 + d_c
    K_matrix = np.array([[intr.fx, 0, intr.cx], [0, intr.fy, intr.cy], [0, 0, 1.0]])
    l = np.cross(K_matrix @ p1, K_matrix @ p2)
    norm = np.linalg.norm(l)
    if norm == 0.0:
        raise GeometryError("degenerate line projection")
    return l / norm


def test_project_line_hand_case():
    # the world line {y=0, z=1} seen by the identity camera maps to the
    # horizontal image line v = cy, i.e. (0, 1, -cy) normalized
    L = plucker_from_endpoints([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    l = project_line(L, Pose.identity(), K)
    expected = np.array([0.0, 1.0, -K.cy])
    expected = expected / np.linalg.norm(expected)
    # sign may flip jointly; compare as a projective entity
    if np.dot(l, expected) < 0:
        l = -l
    np.testing.assert_allclose(l, expected, atol=1e-12)


def test_project_line_scale_invariant():
    L = plucker_from_endpoints([0.5, -0.2, 2.0], [1.0, 0.8, 3.0])
    l1 = project_line(L, Pose.identity(), K)
    l2 = project_line((10.0 * L[0], 10.0 * L[1]), Pose.identity(), K)
    np.testing.assert_allclose(l1, l2, atol=1e-12)


def test_project_line_dual_formulation_agreement():
    rng = np.random.default_rng(1)
    count = 0
    while count < 1000:
        T = random_pose(rng)
        A = rng.normal(scale=2.0, size=3) + np.array([0.0, 0.0, 5.0])
        B = A + rng.normal(scale=2.0, size=3)
        if np.linalg.norm(B - A) < 0.2:
            continue
        L = plucker_from_endpoints(A, B)
        if np.linalg.norm(L[0]) < 1e-3:
            continue
        try:
            l_moment = project_line(L, T, K)
            l_cross = project_line_by_endpoints(L, T, K)
        except GeometryError:
            continue
        np.testing.assert_allclose(l_moment, l_cross, atol=1e-9)
        count += 1


def test_line_residual_zero_on_line_and_hand_distance():
    L = plucker_from_endpoints([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    # both endpoints on the projected line v = cy
    r = line_residual([10.0, K.cy], [600.0, K.cy], L, Pose.identity(), K)
    np.testing.assert_allclose(r, [0, 0], atol=1e-12)
    # an endpoint 2 px above the line is at signed distance 2
    r = line_residual([50.0, K.cy + 2.0], [60.0, K.cy], L, Pose.identity(), K)
    assert abs(abs(r[0]) - 2.0) <= 1e-12
    assert abs(r[1]) <= 1e-12


def test_line_residual_aperture_invariance():
    # sliding measured endpoints along the true line leaves the residual
    L = plucker_from_endpoints([0.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    r1 = line_residual([50.0, K.cy + 1.0], [100.0, K.cy - 1.0], L, Pose.identity(), K)
    r2 = line_residual([400.0, K.cy + 1.0], [633.0, K.cy - 1.0], L, Pose.identity(), K)
    np.testing.assert_allclose(r1, r2, atol=1e-12)


# ---------------------------------------------------------------------------
# Jacobians vs central finite differences


def fd_point_jacobians(u, P_w, T, h=1e-6):
    J_pose = np.zeros((2, 6))
    for i in range(6):
        d = np.zeros(6)
        d[i] = h
        rp = point_residual(u, P_w, se3_exp_update(T, d), K)
        rm = point_residual(u, P_w, se3_exp_update(T, -d), K)
        J_pose[:, i] = (rp - rm) / (2 * h)
    J_point = np.zeros((2, 3))
    for i in range(3):
        dP = np.zeros(3)
        dP[i] = h
        rp = point_residual(u, P_w + dP, T, K)
        rm = point_residual(u, P_w - dP, T, K)
        J_point[:, i] = (rp - rm) / (2 * h)
    return J_pose, J_point


def fd_line_jacobians(u_s, u_e, o, T, h=1e-6):
    L0 = plucker_from_orthonormal(o)
    J_pose = np.zeros((2, 6))
    for i in range(6):
        d = np.zeros(6)
        d[i] = h
        rp = line_residual(u_s, u_e, L0, se3_exp_update(T, d), K)
        rm = line_residual(u_s, u_e, L0, se3_exp_update(T, -d), K)
        J_pose[:, i] = (rp - rm) / (2 * h)
    J_line = np.zeros((2, 4))
    for i in range(4):
        d = np.zeros(4)
        d[i] = h
        rp = line_residual(u_s, u_e, plucker_from_orthonormal(orthonormal_update(o, d)), T, K)
        rm = line_residual(u_s, u_e, plucker_from_orthonormal(orthonormal_update(o, -d)), T, K)
        J_line[:, i] = (rp - rm) / (2 * h)
    return J_pose, J_line


def test_point_jacobians_match_finite_differences():
    rng = np.random.default_rng(2)
    configs = [random_point_config(rng) for _ in range(300)]
    for (T, P_w, u), J_pose, J_point in zip(configs, *batch_point_jacobians(configs)):
        F_pose, F_point = fd_point_jacobians(u, P_w, T)
        assert rel_err(J_pose, F_pose) <= 1e-5
        assert rel_err(J_point, F_point) <= 1e-5


def test_point_jacobian_hand_value_on_axis():
    # fronto-parallel point on the optical axis: d res / d t_x = (-fx/Z, 0)
    Z = 2.5
    J_pose, _ = batch_point_jacobians([(Pose.identity(), [0.0, 0.0, Z], [K.cx, K.cy])])
    np.testing.assert_allclose(J_pose[0, :, 3], [-K.fx / Z, 0.0], atol=1e-12)


def test_zero_residual_does_not_zero_jacobian():
    P_w = np.array([1.0, 2.0, 2.0])
    u = np.array([370.0, 340.0])
    assert np.allclose(point_residual(u, P_w, Pose.identity(), K), 0, atol=1e-12)
    J_pose, J_point = batch_point_jacobians([(Pose.identity(), P_w, u)])
    assert np.max(np.abs(J_pose)) > 1.0
    assert np.max(np.abs(J_point)) > 1.0


def test_pose_jacobian_equals_point_terms_bit_for_bit():
    # the Gauss-Newton refinement in tracking takes J_pose from
    # _pose_jacobian alone; it must be exactly point_terms's J_pose
    rng = np.random.default_rng(5)
    F = 60
    poses = [random_pose(rng) for _ in range(F)]
    R = np.array([T.rotation() for T in poses])
    t = np.array([T.t for T in poses])
    P_w = rng.uniform(-2.0, 2.0, size=(F, 3)) + np.array([0.0, 0.0, 1.5])
    u = rng.uniform(0.0, 640.0, size=(F, 2))
    res, J_pose, _, valid = point_terms(R, t, P_w, u, K)
    assert valid.any() and not valid.all()
    res_only, valid_only, (P_c, zs) = _point_residuals(R, t, P_w, u, K)
    J, _ = _pose_jacobian(P_c, zs, valid_only, K)
    assert np.array_equal(valid_only, valid)
    assert res_only.tobytes() == res.tobytes()
    assert J.tobytes() == J_pose.tobytes()
    assert not J[~valid].any()


def test_line_jacobians_match_finite_differences():
    rng = np.random.default_rng(3)
    configs = [random_line_config(rng) for _ in range(300)]
    for (T, o, u_s, u_e), J_pose, J_line in zip(configs, *batch_line_jacobians(configs)):
        F_pose, F_line = fd_line_jacobians(u_s, u_e, o, T)
        assert rel_err(J_pose, F_pose) <= 1e-5
        assert rel_err(J_line, F_line) <= 1e-5


def test_line_jacobian_rank_bound():
    rng = np.random.default_rng(4)
    for J_line in batch_line_jacobians([random_line_config(rng) for _ in range(20)])[1]:
        assert np.linalg.matrix_rank(J_line) <= 2


def test_line_jacobian_null_space_probe():
    # on a satisfied factor, stepping along a null direction of the 4-DOF
    # Jacobian changes the residual only at second order
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 10:
        T, o, _, _ = random_line_config(rng)
        L = plucker_from_orthonormal(o)
        n_c, d_c = camera_line(L, T)
        p1 = np.cross(d_c, n_c) / (d_c @ d_c)
        p2 = p1 + d_c
        if p1[2] < 0.5 or p2[2] < 0.5:
            continue
        u_s = np.array([K.fx * p1[0] / p1[2] + K.cx, K.fy * p1[1] / p1[2] + K.cy])
        u_e = np.array([K.fx * p2[0] / p2[2] + K.cx, K.fy * p2[1] / p2[2] + K.cy])
        r0 = line_residual(u_s, u_e, L, T, K)
        if np.max(np.abs(r0)) > 1e-9:
            continue
        _, J_line = batch_line_jacobians([(T, o, u_s, u_e)])
        _, _, Vt = np.linalg.svd(J_line[0])
        null_dir = Vt[-1]
        range_dir = Vt[0]

        def step_norm(direction, s):
            L_s = plucker_from_orthonormal(orthonormal_update(o, s * direction))
            return np.linalg.norm(line_residual(u_s, u_e, L_s, T, K))

        r_null = step_norm(null_dir, 1e-4)
        r_range = step_norm(range_dir, 1e-4)
        assert r_null <= 0.01 * max(r_range, 1e-12)
        # quadratic decay along the null direction
        assert step_norm(null_dir, 1e-5) <= r_null / 30.0
        checked += 1


# ---------------------------------------------------------------------------
# graph construction


NO_LINES = Segments([], [])


def toy_map(ids, positions):
    """An initial map of the given point landmarks and no lines."""
    return SimpleNamespace(points=Points(ids, positions), lines=NO_LINES)


def pack(frame_id, points):
    """FrameData holding the given point measurement records as arrays."""
    from plbench.simulator import FrameData

    return FrameData(frame_id, [p.landmark_id for p in points], [p.u for p in points],
                     [p.d for p in points], [], [], [])


def toy_sequence(n_frames=2):
    from plbench.geometry import PointMeasurement
    from plbench.simulator import Sequence

    P = np.array([0.2, -0.1, 3.0])
    traj = [Pose.identity()]
    for i in range(1, n_frames):
        traj.append(Pose(np.array([0.0, 0, 0, 1]), np.array([0.05 * i, 0.0, 0.0])))
    frames = []
    for i, T in enumerate(traj):
        P_c = T.transform(P)
        u = np.array([K.fx * P_c[0] / P_c[2] + K.cx, K.fy * P_c[1] / P_c[2] + K.cy])
        frames.append(pack(i, [PointMeasurement(0, u, float(P_c[2]))]))
    return Sequence(
        intrinsics=K,
        gt_trajectory=traj,
        frames=frames,
        gt_points=Points([0], [P]),
        gt_lines=NO_LINES,
        parallel_groups={},
    )


def test_build_graph_minimal_counts():
    seq = toy_sequence(2)
    graph = build_covisibility_graph(seq, seq.gt_trajectory, toy_map([0], [[0.2, -0.1, 3.0]]))
    assert len(graph.poses) == 2
    assert graph.fixed.tolist() == [0]
    assert len(graph.points) == 1
    assert len(graph.point_factors) == 2
    assert len(graph.line_factors) == 0


def test_build_graph_excludes_single_observation_landmarks():
    from plbench.geometry import PointMeasurement

    seq = toy_sequence(2)
    # landmark 1 appears only in frame 0
    P1 = np.array([0.5, 0.4, 4.0])
    seq.gt_points = Points([*seq.gt_points.id, 1], [*seq.gt_points.position, P1])
    u = np.array([K.fx * P1[0] / P1[2] + K.cx, K.fy * P1[1] / P1[2] + K.cy])
    seq.frames[0] = pack(0, seq.frames[0].points + [PointMeasurement(1, u, float(P1[2]))])
    graph = build_covisibility_graph(
        seq, seq.gt_trajectory, toy_map([0, 1], [[0.2, -0.1, 3.0], P1])
    )
    assert graph.points.id.tolist() == [0]
    assert len(graph.point_factors) == 2


def test_build_graph_missing_map_entry_raises():
    seq = toy_sequence(2)
    with pytest.raises(GraphConstructionError,
                       match="^point 0 observed but missing from the map$"):
        build_covisibility_graph(seq, seq.gt_trajectory, toy_map([], []))
    # a line two frames observe, left out of an otherwise complete map
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)[:3]
    seq = generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render)
    ids, counts = np.unique(np.concatenate([f.line_ids for f in seq.frames]), return_counts=True)
    lid = ids[counts >= 2][0]
    keep = scene.lines.id != lid
    initial = SimpleNamespace(points=scene.points,
                              lines=Segments(scene.lines.id[keep], scene.lines.endpoints[keep]))
    with pytest.raises(GraphConstructionError,
                       match=f"^line {lid} observed but missing from the map$"):
        build_covisibility_graph(seq, traj, initial)


def test_build_graph_trajectory_length_mismatch():
    seq = toy_sequence(3)
    with pytest.raises(GraphConstructionError):
        build_covisibility_graph(seq, seq.gt_trajectory[:2], toy_map([0], [[0.2, -0.1, 3.0]]))


def preset_graph(preset, frames, noise=None):
    """Graph over the first ``frames`` ground-truth poses of a preset, with
    ground-truth landmarks; ``noise`` defaults to the preset's."""
    cfg = load_preset(preset)
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)[:frames]
    noise = cfg.noise if noise is None else noise
    seq = generate_sequence(scene, traj, noise, cfg.intrinsics, cfg.render)
    return build_covisibility_graph(seq, traj, scene, cfg.noise.sigma_s)


def residuals(g: FactorGraph):
    """Every factor's residual through the single-factor operations."""
    poses = {i: Pose(q, t) for i, t, q in zip(g.poses.id.tolist(), g.poses.t, g.poses.q)}
    points = dict(zip(g.points.id.tolist(), g.points.position))
    lines = {i: (n, d) for i, n, d in zip(g.lines.id.tolist(), g.lines.n, g.lines.d)}
    out = []
    pf, lf = g.point_factors, g.line_factors
    for frame, point, u in zip(pf.frame.tolist(), pf.landmark.tolist(), pf.u):
        out.append(point_residual(u, points[point], poses[frame], g.intrinsics))
    for frame, line, (u_s, u_e) in zip(lf.frame.tolist(), lf.landmark.tolist(), lf.u):
        out.append(line_residual(u_s, u_e, lines[line], poses[frame], g.intrinsics))
    return np.array(out)


def poses_of(ids, poses):
    return Poses(ids, [T.t for T in poses], [T.q for T in poses])


def lines_of(ids, pluckers):
    return Lines(ids, [n for n, _ in pluckers], [d for _, d in pluckers])


def test_noiseless_graph_cost_is_zero_at_ground_truth():
    graph = preset_graph("box", 10, NoiseParams(enabled=False))
    assert len(graph.point_factors) > 500
    assert len(graph.line_factors) > 30
    assert graph.total_cost() <= 1e-18


def single_factor_cost(g: FactorGraph) -> float:
    weights = np.concatenate([g.point_factors.weight, g.line_factors.weight])
    return float(weights @ np.sum(residuals(g) ** 2, axis=1))


@pytest.mark.parametrize("preset", ["sphere", "box", "corridor"])
def test_total_cost_matches_single_factor_sum(preset):
    graph = preset_graph(preset, 10)
    assert len(graph.point_factors) > 100 and len(graph.line_factors) > 10
    expected = single_factor_cost(graph)
    assert expected > 0.0
    np.testing.assert_allclose(graph.total_cost(), expected, rtol=1e-12)


def test_total_cost_adds_zero_for_point_behind_its_camera():
    T1 = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, -4.0]))
    graph = FactorGraph(
        intrinsics=K,
        poses=poses_of([0, 1], [Pose.identity(), T1]),
        fixed=[0],
        points=Points([0, 1], [[0.2, -0.1, 8.0], [0.1, 0.3, 2.0]]),
        lines=lines_of([0], [plucker_from_endpoints([0.0, 0.0, 6.0], [1.0, 0.0, 6.0])]),
        point_factors=Factors([0, 1, 0], [0, 0, 1],
                              [[322.0, 239.0], [321.0, 233.0], [330.0, 250.0]], [0.5] * 3),
        line_factors=Factors([1], [0], [[[100.0, 243.0], [500.0, 238.0]]], [2.0]),
    )
    expected = single_factor_cost(graph)
    assert expected > 0.0
    behind = np.array([300.0, 200.0])  # landmark 1 is at z = -2 in camera 1
    with pytest.raises(GeometryError):
        point_residual(behind, graph.points.position[1], T1, K)
    pf = graph.point_factors
    graph = dataclasses.replace(graph, point_factors=Factors(
        [*pf.frame, 1], [*pf.landmark, 1], [*pf.u, behind], [*pf.weight, 0.5]))
    graph.check()
    np.testing.assert_allclose(graph.total_cost(), expected, rtol=1e-12)


def test_graph_gauge_invariance():
    graph = preset_graph("box", 5, NoiseParams(enabled=False))
    rng = np.random.default_rng(6)
    G = random_pose(rng)
    Ginv = G.inverse()
    n_c, _, d_c = _lines_to_camera(np.broadcast_to(Ginv.rotation(), (len(graph.lines.n), 3, 3)),
                                   np.broadcast_to(Ginv.t, (len(graph.lines.n), 3)),
                                   graph.lines.n, graph.lines.d)

    base = residuals(graph)
    moved = FactorGraph(
        intrinsics=graph.intrinsics,
        poses=poses_of(graph.poses.id,
                       [Pose(q, t).compose(G) for t, q in zip(graph.poses.t, graph.poses.q)]),
        fixed=graph.fixed,
        points=Points(graph.points.id, Ginv.transform(graph.points.position)),
        lines=Lines(graph.lines.id, n_c, d_c),
        point_factors=graph.point_factors,
        line_factors=graph.line_factors,
    )
    moved.check()
    np.testing.assert_allclose(residuals(moved), base, atol=1e-9)


def test_line_vertex_rejects_plucker_violation():
    # also at a scale where the bound of the test overflows
    for scale in (1.0, 1e160):
        g = FactorGraph(intrinsics=K, poses=poses_of([0], [Pose.identity()]), fixed=[0],
                        lines=Lines([0, 1], [[0.0, 0.0, 0.5], [scale, scale, 0.0]],
                                    [[0.0, 0.5, 0.0], [scale, 0.0, 0.0]]))
        with pytest.raises(GraphConstructionError, match="Plucker"):
            g.check()


def test_vertex_records_sort_by_id_and_reject_repeats():
    points = Points([7, 2, 5], [[7.0, 0.0, 0.0], [2.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    assert points.id.dtype == np.int64 and points.id.tolist() == [2, 5, 7]
    assert points.position[:, 0].tolist() == [2.0, 5.0, 7.0]
    with pytest.raises(GraphConstructionError, match="duplicate line id 3"):
        Lines([3, 1, 3], np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(GraphConstructionError, match="pose vertex columns differ in length"):
        Poses([0, 1], np.zeros((2, 3)), [[0.0, 0.0, 0.0, 1.0]])


def test_graph_is_frozen_and_holds_fixed_as_sorted_ids():
    g = FactorGraph(intrinsics=K, fixed={3, 0, 3})
    assert g.fixed.dtype == np.int64 and g.fixed.tolist() == [0, 3]
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.fixed = {1}


def test_graph_check_requires_gauge():
    g = FactorGraph(intrinsics=K, poses=poses_of([0], [Pose.identity()]))
    with pytest.raises(GraphConstructionError):
        g.check()


def dangling_graph(kind, unknown):
    """Two vertices of each kind and one factor of ``kind`` whose pose id
    (``unknown="pose"``) or landmark id is unknown."""
    frame, landmark = (7, 0) if unknown == "pose" else (0, 99)
    line = plucker_from_endpoints([0.0, 0.0, 6.0], [1.0, 0.0, 6.0])
    if kind == "point":
        factors = {"point_factors": Factors([frame], [landmark], [[322.0, 239.0]], [1.0])}
    else:
        factors = {"line_factors": Factors([frame], [landmark],
                                           [[[100.0, 240.0], [500.0, 240.0]]], [1.0])}
    return FactorGraph(intrinsics=K, poses=poses_of([10, 0], [Pose.identity()] * 2), fixed=[0],
                       points=Points([100, 0], [[0.1, 0.3, 2.0], [0.2, -0.1, 3.0]]),
                       lines=lines_of([100, 0], [line, line]), **factors)


@pytest.mark.parametrize("unknown", ["pose", "landmark"])
@pytest.mark.parametrize("kind", ["point", "line"])
def test_graph_check_dangling_factor(kind, unknown):
    what = "pose 7" if unknown == "pose" else f"{kind} 99"
    with pytest.raises(GraphConstructionError, match=f"dangling factor reference to {what}"):
        dangling_graph(kind, unknown).check()


@pytest.mark.parametrize("unknown", ["pose", "landmark"])
@pytest.mark.parametrize("kind", ["point", "line"])
def test_total_cost_of_unchecked_graph_rejects_dangling_id(kind, unknown):
    # the unknown ids 7 and 99 sort between the vertex ids 0 and 10 or 100,
    # where the search position is a neighbouring vertex's row
    what = "pose 7" if unknown == "pose" else f"{kind} 99"
    with pytest.raises(GraphConstructionError, match=f"dangling factor reference to {what}"):
        dangling_graph(kind, unknown).total_cost()


def test_factors_rejects_columns_of_different_length():
    with pytest.raises(GraphConstructionError, match="length"):
        Factors([0, 1], [0], [[1.0, 2.0]], [1.0])


def reference_factors(seq, weight):
    """The per-measurement builder loop the columns replaced: landmark
    tracks, then one factor per measurement of a landmark seen twice or
    more, as (frame, landmark, pixels, weight) per kind."""
    out = []
    for ids, pixels in (("point_ids", "point_pixels"), ("line_ids", "line_pixels")):
        tracks = {}
        for f in seq.frames:
            for lid in getattr(f, ids).tolist():
                tracks.setdefault(lid, []).append(f.frame_id)
        kept = {lid for lid, frames in tracks.items() if len(frames) >= 2}
        rows = []
        for f in seq.frames:
            for lid, u in zip(getattr(f, ids).tolist(), getattr(f, pixels)):
                if lid in kept:
                    rows.append((f.frame_id, lid, u.copy(), weight))
        out.append((sorted(kept), rows))
    return out


@pytest.mark.parametrize("preset", ["sphere", "box", "corridor"])
def test_build_graph_columns_equal_reference_loop(preset):
    cfg = load_preset(preset)
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)
    seq = generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render)
    graph = build_covisibility_graph(seq, traj, scene, cfg.noise.sigma_s)
    weight = 1.0 / (cfg.noise.sigma_s * cfg.noise.sigma_s)
    (points, point_rows), (lines, line_rows) = reference_factors(seq, weight)
    assert graph.points.id.tolist() == points and graph.lines.id.tolist() == lines
    for factors, rows, shape in ((graph.point_factors, point_rows, (2,)),
                                 (graph.line_factors, line_rows, (2, 2))):
        assert len(factors) == len(rows) > 0
        assert factors.frame.dtype == factors.landmark.dtype == np.int64
        assert factors.u.shape == (len(rows), *shape)
        assert factors.frame.tolist() == [r[0] for r in rows]
        assert factors.landmark.tolist() == [r[1] for r in rows]
        assert factors.u.tobytes() == np.array([r[2] for r in rows]).tobytes()
        assert factors.weight.tobytes() == np.array([r[3] for r in rows]).tobytes()
