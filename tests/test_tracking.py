import dataclasses
import functools
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from plbench import tracking
from plbench.dataset_io import read_sequence, write_sequence
from plbench.evaluation import ate
from plbench.factor_graph import (
    _point_residuals,
    _pose_jacobian,
    _project_points,
    build_covisibility_graph,
)
from plbench.geometry import (
    CameraIntrinsics,
    GeometryError,
    Pose,
    backproject,
    line_angles,
    rigid_fit,
    row_norms,
    se3_exp_update,
    so3_exp,
)
from plbench.simulator import NoiseParams, build_scene, build_trajectory, generate_sequence, load_preset
from plbench.tracking import (
    DegenerateGeometryError,
    InsufficientDataError,
    PnPResult,
    SparseMap,
    TrackingLostError,
    _epnp_control_points,
    _refine_poses,
    _solve_batch,
    solve_pnp,
    solve_pnp_batch,
    track_frame_to_frame,
    track_map_to_frame,
)

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
IDENTITY = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))


def random_pose(rng) -> Pose:
    return Pose.from_rt(so3_exp(rng.normal(scale=0.3, size=3)), rng.normal(scale=0.3, size=3))


def updated(T: Pose, delta) -> Pose:
    """T updated by the one 6-vector delta: ``se3_exp_update`` of one row."""
    q, _, t = se3_exp_update(T.rotation(), T.t, delta)
    return Pose(q[0], t[0])


def project(P_c, intr):
    """Pixels of camera points P_c (n, 3) in front of the camera:
    ``_project_points`` at the identity pose, which is the pinhole formula
    on P_c bit for bit."""
    n = len(P_c)
    _, valid, _, proj = _project_points(np.broadcast_to(np.eye(3), (n, 3, 3)), np.zeros((n, 3)),
                                        P_c, intr)
    assert valid.all()
    return proj


def observe(T: Pose, P_w):
    return project(T.transform(P_w), K)


def assert_same_pose(T, T_ref, atol):
    np.testing.assert_allclose(T.rotation(), T_ref.rotation(), atol=atol)
    np.testing.assert_allclose(T.t, T_ref.t, atol=atol)


def result_bytes(result: PnPResult):
    return result.pose.q.tobytes(), result.pose.t.tobytes(), result.mean_error


# ---------------------------------------------------------------------------
# references: the one-problem solver and the frame-by-frame tracker that
# the batches replaced, kept to hold the batches to their results bit for bit


def mean_error_per_try(T: Pose, P_w, u, intr):
    n = len(P_w)
    _, valid, _, proj = _project_points(np.broadcast_to(T.rotation(), (n, 3, 3)), T.t, P_w, intr)
    err = np.linalg.norm(proj - u, axis=1)
    err[~valid] = 1e9
    return float(np.mean(err))


def refine_pose_per_try(R, t, P_w, u, intr, iterations=10):
    """The former ``_refine_pose``: one ``Pose`` and one projection per
    backtracking try. Returns (pose, mean error, accepted tries)."""
    T = Pose.from_rt(R, t)
    err = mean_error_per_try(T, P_w, u, intr)
    n = len(P_w)
    accepted = 0
    for _ in range(iterations):
        R_all = np.broadcast_to(T.rotation(), (n, 3, 3))
        t_all = np.broadcast_to(T.t, (n, 3))
        res, valid, (P_c, zs) = _point_residuals(R_all, t_all, P_w, u, intr)
        if valid.sum() < 4:
            break
        J = _pose_jacobian(P_c, zs, valid, intr)[0].reshape(-1, 6)
        r = res.reshape(-1)
        try:
            delta = np.linalg.solve(J.T @ J + 1e-12 * np.eye(6), J.T @ r)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        step = 1.0
        for _try in range(6):
            T_new = updated(T, step * delta)
            err_new = mean_error_per_try(T_new, P_w, u, intr)
            if err_new <= err:
                T, err = T_new, err_new
                accepted += 1
                break
            step *= 0.5
        else:
            break
        if np.linalg.norm(step * delta) < 1e-14:
            break
    return T, err, accepted


def reference_control_points(P_w):
    c0 = P_w.mean(axis=0)
    centered = P_w - c0
    cov = centered.T @ centered / len(P_w)
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    if evals[0] <= 0 or evals[1] < 1e-12 * evals[0]:
        raise DegenerateGeometryError("points are collinear or coincident")
    planar = evals[2] < 1e-8 * evals[0]
    k = 2 if planar else 3
    ctrl = [c0]
    for i in range(k):
        ctrl.append(c0 + np.sqrt(evals[i]) * evecs[:, i])
    return np.array(ctrl)


def reference_candidates(P_w, u, intr):
    n = len(P_w)
    ctrl_w = reference_control_points(P_w)
    m = len(ctrl_w)

    B = (ctrl_w[1:] - ctrl_w[0]).T  # 3 x (m-1)
    rel = (P_w - ctrl_w[0]).T
    if m == 4:
        alpha_rest = np.linalg.solve(B, rel)
    else:
        alpha_rest = np.linalg.lstsq(B, rel, rcond=None)[0]
    alphas = np.empty((n, m))
    alphas[:, 1:] = alpha_rest.T
    alphas[:, 0] = 1.0 - alphas[:, 1:].sum(axis=1)

    M = np.zeros((2 * n, 3 * m))
    M[0::2, 0::3] = alphas * intr.fx
    M[0::2, 2::3] = alphas * (intr.cx - u[:, :1])
    M[1::2, 1::3] = alphas * intr.fy
    M[1::2, 2::3] = alphas * (intr.cy - u[:, 1:])
    _, vecs = np.linalg.eigh(M.T @ M)
    v1 = vecs[:, 0].reshape(m, 3)
    v2 = vecs[:, 1].reshape(m, 3)

    i, j = np.triu_indices(m, 1)
    dc = row_norms(ctrl_w[i] - ctrl_w[j])
    dv1 = v1[i] - v1[j]
    dv2 = v2[i] - v2[j]

    candidates = []
    norm1 = np.linalg.norm(dv1, axis=1)
    denom = float(norm1 @ norm1)
    if denom > 1e-18:
        beta = float(norm1 @ dc) / denom
        candidates.append(beta * v1)

    A = np.stack(
        [np.sum(dv1 * dv1, axis=1), 2.0 * np.sum(dv1 * dv2, axis=1), np.sum(dv2 * dv2, axis=1)],
        axis=1,
    )
    sol, *_ = np.linalg.lstsq(A, dc**2, rcond=None)
    b11, b12, b22 = sol
    b1 = np.sqrt(max(b11, 0.0))
    b2 = np.sqrt(max(b22, 0.0)) * (1.0 if b12 >= 0 else -1.0)
    if b1 > 1e-12:
        betas = np.array([b1, b2])
        for _ in range(5):
            dvc = betas[0] * dv1 + betas[1] * dv2
            r = np.sum(dvc * dvc, axis=1) - dc**2
            J = np.stack([2 * np.sum(dvc * dv1, axis=1), 2 * np.sum(dvc * dv2, axis=1)], axis=1)
            try:
                step = np.linalg.solve(J.T @ J + 1e-12 * np.eye(2), J.T @ r)
            except np.linalg.LinAlgError:
                break
            betas = betas - step
        candidates.append(betas[0] * v1 + betas[1] * v2)
    return alphas, [-x if np.mean(x[:, 2]) < 0 else x for x in candidates]


def reference_rigid_fit(src, dst):
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    H = (dst - mu_d).T @ (src - mu_s)
    U, _, Vt = np.linalg.svd(H)
    S = np.eye(3)
    if np.linalg.det(U @ Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    return R, mu_d - R @ mu_s


def reference_solve_pnp(world_points, pixels, intr, iterations=10, initial=None):
    """The one-problem ``solve_pnp``, with each start refined alone by the
    per-try loop."""
    P_w = np.asarray(world_points, dtype=float).reshape(-1, 3)
    u = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(P_w) != len(u):
        raise InsufficientDataError("points and pixels differ in length")
    if len(P_w) < 4:
        raise InsufficientDataError(f"need at least 4 correspondences, got {len(P_w)}")
    if not (np.isfinite(P_w).all() and np.isfinite(u).all()):
        raise InsufficientDataError("points and pixels must be finite")
    alphas, candidates = reference_candidates(P_w, u, intr)
    starts = [Pose.from_rt(*reference_rigid_fit(P_w, alphas @ x)) for x in candidates]
    if initial is not None:
        starts.append(initial)
    if not starts:
        raise DegenerateGeometryError("EPnP found no candidate pose")
    refined = [refine_pose_per_try(T.rotation(), T.t, P_w, u, intr, iterations)[:2]
               for T in starts]
    best = min(range(len(refined)), key=lambda s: refined[s][1])
    return PnPResult(*refined[best])


def frame_to_frame_problems(seq):
    """The frame-to-frame problems (P_prev, u) of frames 1, 2, ... up to the
    first frame sharing fewer than 4 landmarks, built frame by frame; the
    last entry is that frame's ``TrackingLostError``, or None."""
    problems = []
    for j in range(1, len(seq.frames)):
        prev, frame = seq.frames[j - 1], seq.frames[j]
        index = {lid: i for i, lid in enumerate(prev.point_ids.tolist())}
        shared = [(index[lid], i) for i, lid in enumerate(frame.point_ids.tolist()) if lid in index]
        if len(shared) < 4:
            return problems, TrackingLostError(j, f"only {len(shared)} shared landmarks")
        a, b = np.array(shared).T
        problems.append((backproject(prev.point_pixels[a], prev.point_depths[a], seq.intrinsics),
                         frame.point_pixels[b]))
    return problems, None


def reference_track_frame_to_frame(seq):
    """The frame-by-frame tracker: one one-problem solve per frame."""
    traj = [seq.gt_trajectory[0]]
    problems, lost = frame_to_frame_problems(seq)
    for j, (P_prev, u) in enumerate(problems, start=1):
        try:
            rel = reference_solve_pnp(P_prev, u, seq.intrinsics).pose
        except (DegenerateGeometryError, InsufficientDataError) as exc:
            raise TrackingLostError(j, str(exc)) from exc
        traj.append(rel.compose(traj[j - 1]))
    if lost is not None:
        raise lost
    return traj


# ---------------------------------------------------------------------------
# EPnP


def general_points(rng, n=12):
    return rng.uniform(-1.0, 1.0, size=(n, 3)) + np.array([0.0, 0.0, 5.0])


def planar_points(rng, n=12):
    P = np.zeros((n, 3))
    P[:, :2] = rng.uniform(-1.5, 1.5, size=(n, 2))
    P[:, 2] = 5.0
    return P


@pytest.mark.parametrize(
    "make_points, control_points", [(general_points, 4), (planar_points, 3)],
    ids=["general", "planar"],
)
def test_epnp_is_exact_on_noiseless_input(make_points, control_points, monkeypatch):
    # no Gauss-Newton: the closed-form EPnP step alone must be exact
    monkeypatch.setattr(tracking, "_ITERATIONS", 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = random_pose(rng)
        P_w = make_points(rng)
        _, planar, degenerate = _epnp_control_points(P_w, [len(P_w)])
        assert 4 - int(planar[0]) == len(reference_control_points(P_w)) == control_points
        assert not degenerate[0]
        (result,) = _solve_batch([(P_w, observe(T, P_w), None)], K, 0)
        assert_same_pose(result.pose, T, atol=1e-7)
        assert result.mean_error <= 1e-6


def test_rigid_fit_of_a_stack_equals_each_fit_alone():
    # pairs related by a rigid motion, some mirrored (the determinant guard
    # keeps R a rotation), with noise of three sizes
    rng = np.random.default_rng(11)
    src = rng.normal(size=(40, 7, 3))
    dst = np.empty_like(src)
    for i in range(40):
        mirror = -1.0 if i % 4 == 1 else 1.0
        dst[i] = mirror * random_pose(rng).transform(src[i]) + \
            rng.normal(scale=0.01 * (i % 3), size=(7, 3))
    R, t = rigid_fit(src, dst)
    R_split, t_split = rigid_fit(src.reshape(4, 10, 7, 3), dst.reshape(4, 10, 7, 3))
    assert R_split.reshape(R.shape).tobytes() == R.tobytes()
    assert t_split.reshape(t.shape).tobytes() == t.tobytes()
    for i in range(40):
        R_i, t_i = rigid_fit(src[i], dst[i])
        R_ref, t_ref = reference_rigid_fit(src[i], dst[i])
        assert R[i].tobytes() == R_i.tobytes() == R_ref.tobytes()
        assert t[i].tobytes() == t_i.tobytes() == t_ref.tobytes()
        assert np.linalg.det(R_i) == pytest.approx(1.0)


def test_collinear_points_raise_degenerate_geometry():
    P_w = np.outer(np.linspace(-1.0, 1.0, 6), [1.0, 0.5, 0.2]) + np.array([0.0, 0.0, 5.0])
    with pytest.raises(DegenerateGeometryError):
        solve_pnp(P_w, observe(IDENTITY, P_w), K)


def test_coincident_points_raise_degenerate_geometry():
    P_w = np.tile([0.1, 0.2, 5.0], (5, 1))
    with pytest.raises(DegenerateGeometryError):
        solve_pnp(P_w, observe(IDENTITY, P_w), K)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_fewer_than_four_correspondences_raise(n):
    P_w = general_points(np.random.default_rng(2), n)
    with pytest.raises(InsufficientDataError):
        solve_pnp(P_w, observe(IDENTITY, P_w), K)


def test_mismatched_lengths_raise():
    P_w = general_points(np.random.default_rng(3), 6)
    with pytest.raises(InsufficientDataError):
        solve_pnp(P_w, observe(IDENTITY, P_w)[:5], K)


def test_solve_pnp_without_a_start_raises_degenerate_geometry(monkeypatch):
    P_w = general_points(np.random.default_rng(4))
    u = observe(IDENTITY, P_w)
    epnp = tracking._epnp_candidates

    def no_candidates(*args):
        alphas, candidates, exists = epnp(*args)
        return alphas, candidates, np.zeros_like(exists)

    monkeypatch.setattr(tracking, "_epnp_candidates", no_candidates)
    with pytest.raises(DegenerateGeometryError, match="no candidate") as info:
        solve_pnp_batch([(P_w, u, IDENTITY), (P_w, u, None)], K)
    assert info.value.problem == 1
    # a motion prior alone is still a start
    assert solve_pnp_batch([(P_w, u, IDENTITY)], K)[0].mean_error <= 1e-6


def test_solve_pnp_keeps_the_first_of_tied_starts(monkeypatch):
    rng = np.random.default_rng(5)
    P_w = general_points(rng)
    refined = [random_pose(rng) for _ in range(6)]

    def tied(R, t, *args, **kwargs):
        # three starts per problem: errors 3, 1, 1 and then 2, 2, 5
        assert len(R) == 6
        errs = np.array([3.0, 1.0, 1.0, 2.0, 2.0, 5.0])
        return np.array([T.q for T in refined]), np.array([T.t for T in refined]), errs

    monkeypatch.setattr(tracking, "_refine_poses", tied)
    u = observe(IDENTITY, P_w)
    first, second = solve_pnp_batch([(P_w, u, IDENTITY)] * 2, K)
    assert first.pose.q.tobytes() == refined[1].q.tobytes()
    assert first.pose.t.tobytes() == refined[1].t.tobytes()
    assert first.mean_error == 1.0
    assert second.pose.q.tobytes() == refined[3].q.tobytes()
    assert second.mean_error == 2.0


@pytest.mark.parametrize(
    "kinds, error, problem",
    [
        (["good", "collinear", "good"], DegenerateGeometryError, 1),
        (["good", "three", "collinear"], InsufficientDataError, 1),
        (["collinear", "three"], DegenerateGeometryError, 0),
        (["good", "good", "mismatched", "three"], InsufficientDataError, 2),
        (["nan-point"], InsufficientDataError, 0),
        (["nan-pixel"], InsufficientDataError, 0),
        (["inf-point"], InsufficientDataError, 0),
        (["good", "good", "nan-pixel", "collinear"], InsufficientDataError, 2),
        (["good", "collinear", "inf-point"], DegenerateGeometryError, 1),
    ],
)
def test_solve_pnp_batch_raises_the_error_of_its_first_failing_problem(kinds, error, problem):
    rng = np.random.default_rng(9)
    problems = []
    for kind in kinds:
        if kind == "collinear":
            P_w = np.outer(np.linspace(-1.0, 1.0, 6), [1.0, 0.5, 0.2]) + np.array([0.0, 0.0, 5.0])
        else:
            P_w = general_points(rng, 3 if kind == "three" else 8)
        u = observe(IDENTITY, P_w)
        if kind == "nan-pixel":
            u[5, 1] = np.nan
        elif kind in ("nan-point", "inf-point"):
            P_w[2, 0] = np.nan if kind == "nan-point" else np.inf
        problems.append((P_w, u[:-1] if kind == "mismatched" else u, None))
    with pytest.raises(error) as info:
        solve_pnp_batch(problems, K)
    assert info.value.problem == problem
    with pytest.raises(error) as alone:
        reference_solve_pnp(*problems[problem][:2], K)
    assert str(info.value) == str(alone.value)
    if len(problems) == 1:
        with pytest.raises(error, match=f"^{alone.value}$"):
            solve_pnp(*problems[0][:2], K)


def test_solve_each_solves_the_others_when_one_system_is_singular():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(4, 6, 6))
    A[2] = 0.0
    b = rng.normal(size=(4, 6, 1))
    x, ok = tracking._solve_each(A, b)
    assert ok.tolist() == [True, True, False, True]
    assert np.isnan(x[2]).all()
    for i in (0, 1, 3):
        assert x[i].tobytes() == np.linalg.solve(A[i], b[i, :, 0]).tobytes()


def mixed_problems(rng):
    """General and planar problems of several sizes, some of one size, with
    exact or noisy pixels, with and without a motion prior."""
    problems = []
    for k in range(24):
        T = random_pose(rng)
        n = [6, 9, 9, 30, 55][k % 5]
        P_w = T.inverse().transform((planar_points if k % 3 == 0 else general_points)(rng, n))
        u = observe(T, P_w) + (k % 2) * rng.normal(scale=1.0, size=(n, 2))
        prior = updated(T, rng.normal(scale=0.02, size=6)) if k % 4 == 1 else None
        problems.append((P_w, u, prior))
    return problems


@pytest.mark.parametrize("budget", [None, 40], ids=["one-batch", "split"])
def test_solve_pnp_batch_equals_the_one_problem_solver(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(tracking, "_BATCH_ROWS", budget)
    problems = mixed_problems(np.random.default_rng(8))
    P_w = [P for P, _, _ in problems]
    _, planar, _ = _epnp_control_points(np.concatenate(P_w), [len(P) for P in P_w])
    assert planar.any() and not planar.all()
    results = solve_pnp_batch(iter(problems), K)
    assert len(results) == len(problems)
    for result, (P, x, prior) in zip(results, problems):
        assert result_bytes(result) == result_bytes(reference_solve_pnp(P, x, K, 10, prior))
    # EPnP alone, every problem in one batch
    monkeypatch.setattr(tracking, "_ITERATIONS", 0)
    for result, (P, x, prior) in zip(_solve_batch(problems, K, 0), problems):
        assert result_bytes(result) == result_bytes(reference_solve_pnp(P, x, K, 0, prior))


def shifted_sequence(preset, offset):
    cfg = load_preset(preset)
    scene = dataclasses.replace(cfg.scene, seed=cfg.scene.seed + offset)
    return generate_sequence(build_scene(scene), build_trajectory(cfg.trajectory),
                             cfg.noise, cfg.intrinsics, cfg.render)


@pytest.mark.parametrize("offset", [0, 1000])
@pytest.mark.parametrize("preset", ["sphere", "box", "corridor"])
def test_frame_to_frame_batches_equal_the_per_frame_tracker(preset, offset):
    seq = preset_sequence(preset)[1] if offset == 0 else shifted_sequence(preset, offset)
    problems, lost = frame_to_frame_problems(seq)
    assert lost is None
    results = solve_pnp_batch([(P_prev, u, None) for P_prev, u in problems], seq.intrinsics)
    traj = [seq.gt_trajectory[0]]
    for result, (P_prev, u) in zip(results, problems):
        reference = reference_solve_pnp(P_prev, u, seq.intrinsics)
        assert result_bytes(result) == result_bytes(reference)
        traj.append(reference.pose.compose(traj[-1]))
    assert poses_sha256(track_frame_to_frame(seq)) == poses_sha256(traj)


# ---------------------------------------------------------------------------
# trackers


def noiseless_sequence(frames=8):
    cfg = load_preset("box")
    traj = build_trajectory(cfg.trajectory)[:frames]
    return generate_sequence(
        build_scene(cfg.scene), traj, NoiseParams(enabled=False), cfg.intrinsics, cfg.render
    )


def test_trackers_reproduce_ground_truth_on_noiseless_input():
    seq = noiseless_sequence()
    m2f, smap = track_map_to_frame(seq)
    f2f = track_frame_to_frame(seq)
    for T, T_gt in zip(m2f, seq.gt_trajectory):
        assert_same_pose(T, T_gt, atol=1e-8)
    for T, T_gt in zip(f2f, seq.gt_trajectory):
        assert_same_pose(T, T_gt, atol=1e-8)
    for pid, mp in smap.points.items():
        np.testing.assert_allclose(mp.position, seq.gt_points[pid].position, atol=1e-8)


@functools.cache
def preset_sequence(preset):
    """The preset's sequence at its shipped seed; shared, do not mutate."""
    cfg = load_preset(preset)
    seq = generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory),
                            cfg.noise, cfg.intrinsics, cfg.render)
    return cfg, seq


# map-to-frame ATE recorded per preset at its shipped seed by the benchmark
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize("preset", ["sphere", "box", "corridor"])
def test_map_to_frame_ate_within_recorded_bound(preset):
    cfg, seq = preset_sequence(preset)
    recorded = json.loads(REFERENCE.read_text())["sequences"][preset]
    bound = recorded[f"{cfg.scene.seed}:{cfg.trajectory.frame_count}"]["ate_m2f_rmse_m"]
    m2f, _ = track_map_to_frame(seq)
    assert ate(m2f, seq.gt_trajectory).translation.rmse <= bound * (1.0 + 1e-9)


def poses_sha256(traj):
    h = hashlib.sha256()
    for T in traj:
        h.update(T.q.tobytes())
        h.update(T.t.tobytes())
    return h.hexdigest()


def map_sha256(smap: SparseMap):
    h = hashlib.sha256()
    for pid in sorted(smap.points):
        mp = smap.points[pid]
        h.update(np.int64(pid).tobytes())
        h.update(mp.position.tobytes())
        h.update(np.int64(mp.count).tobytes())
    for lid in sorted(smap.lines):
        h.update(np.int64(lid).tobytes())
        h.update(smap.lines[lid].endpoints.tobytes())
    return h.hexdigest()


# per preset at its shipped seed: sha256 of the map-to-frame poses, of the
# frame-to-frame poses and of the fused map, and the graph cost at the
# map-to-frame track; the poses recorded with the per-measurement tracker
# that the per-frame batches replaced, which they must reproduce bit for
# bit, the map and the cost with the scatter-eigenvector line refit
GOLDEN_TRACKING = {
    "sphere": (
        "21989b694441a86d9a8349bb3f2e7cc1b12049e73a6a4273af41e716689cd461",
        "be839fbb0932044501db700dc9c0d76ea19cea5bef32d09844fee4ee4232a781",
        "3696986adaa4aa4cfe32ceaec3e9259898ad68bbdcc211a5e800750517e6d516",
        129834.34061423449,
    ),
    "box": (
        "aed86ab9f2dcd1f4675ca8016788e4bae9330c368cef5ee90d367cc6745d1696",
        "b1cebfb1f2f2775a5e3ad919f8a1ee4eaf28068ebea9b2f4e6e45ad63760b911",
        "877486628906c5b01b8b2a9c6e11200ba60f3c28b0b1a3c58bc571580e3a7436",
        122690.84996911992,
    ),
    "corridor": (
        "3be2df1528c2f68a9f761f331bc5d9de55f33bad590bb66fc5b91f4ecfb752d8",
        "684a6fc4e4bf55389eba84d6406df9090dbd85c81fb53ac0598d6ce1d547eaa2",
        "c30ccc936b203286b89afd2999aae0caff41c0983f9eb28c28850bacf4518692",
        154002.7345375808,
    ),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_TRACKING))
def test_tracks_map_and_cost_match_golden(preset):
    cfg, seq = preset_sequence(preset)
    m2f, smap = track_map_to_frame(seq)
    f2f = track_frame_to_frame(seq)
    cost = build_covisibility_graph(seq, m2f, smap, cfg.noise.sigma_s).total_cost()
    assert (poses_sha256(m2f), poses_sha256(f2f), map_sha256(smap), cost) == \
        GOLDEN_TRACKING[preset]


def refine_problems(preset):
    """(tracker, R (k, 3, 3), t (k, 3), P_w, u, counts, intrinsics) of every
    batch of starts both trackers refine on the preset at its shipped seed,
    then the true pose with exact pixels, as a batch of one, for every tenth
    frame."""
    cfg, seq = preset_sequence(preset)
    problems = []

    def record(R, t, P_w, u, counts, intr):
        problems.append((tracker, R, t, P_w, u, counts, intr))
        return _refine_poses(R, t, P_w, u, counts, intr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracking, "_refine_poses", record)
        tracker = "map-to-frame"
        track_map_to_frame(seq)
        tracker = "frame-to-frame"
        track_frame_to_frame(seq)
    for frame, T in zip(seq.frames[::10], seq.gt_trajectory[::10]):
        P_w = np.array([seq.gt_points[pm.landmark_id].position for pm in frame.points])
        problems.append(("exact", T.rotation()[None], T.t[None], P_w,
                         project(T.transform(P_w), cfg.intrinsics), [len(P_w)], cfg.intrinsics))
    return problems


def segments(counts):
    """The row slice of each segment of counts[s] consecutive rows."""
    ends = np.cumsum(counts)
    return [slice(end - n, end) for end, n in zip(ends.tolist(), counts)]


def test_refine_pose_equals_the_per_try_loop():
    # accepted tries are rare (see _refine_poses): 1, 4 and 4 of the 495
    # tracker refinements per preset, one with two accepted steps, and the
    # exact-pixel problems, which move the pose by a few ulps
    accepted, widths = [], {}
    for preset in ("sphere", "box", "corridor"):
        for tracker, R, t, P_w, u, counts, intr in refine_problems(preset):
            q, t_ref, errs = _refine_poses(R, t, P_w, u, counts, intr)
            assert len(q) == len(t_ref) == len(errs) == len(R) == len(counts)
            for s, rows in enumerate(segments(counts)):
                T_ref, err_ref, tries = refine_pose_per_try(R[s], t[s], P_w[rows], u[rows], intr)
                assert (q[s].tobytes(), t_ref[s].tobytes(), errs[s]) == \
                    (T_ref.q.tobytes(), T_ref.t.tobytes(), err_ref)
                if tries:
                    accepted.append((tries, np.abs(t_ref[s] - Pose.from_rt(R[s], t[s]).t).max()))
            widths.setdefault(tracker, set()).add(len(R))
    # map-to-frame refines both EPnP candidates and the motion prior at once;
    # frame-to-frame refines the starts of many frames at once
    assert max(widths["map-to-frame"]) == 3
    assert min(widths["frame-to-frame"]) > 3
    assert max(tries for tries, _ in accepted) >= 2
    assert max(moved for _, moved in accepted) > 1e-3


def test_refine_poses_gives_each_start_its_result_alone():
    # one batch: a start with every point behind the camera (it leaves at
    # once), the true pose with exact pixels (it accepts a step), an offset
    # start (it accepts none) and a duplicate of the true pose, each against
    # the same points, then the true pose against a shorter segment
    rng = np.random.default_rng(1)
    T = random_pose(rng)
    P_w = T.inverse().transform(general_points(rng, 20))
    u = observe(T, P_w)
    flip = np.diag([1.0, -1.0, -1.0])
    starts = [Pose.from_rt(flip @ T.rotation(), flip @ T.t), T,
              updated(T, rng.normal(scale=0.05, size=6)), T, T]
    R, t = np.array([S.rotation() for S in starts]), np.array([S.t for S in starts])
    counts = [20, 20, 20, 20, 12]
    P_rows = np.concatenate([P_w[:n] for n in counts])
    u_rows = np.concatenate([u[:n] for n in counts])
    q, t_out, errs = _refine_poses(R, t, P_rows, u_rows, counts, K)
    accepted = []
    for s, rows in enumerate(segments(counts)):
        got = (q[s].tobytes(), t_out[s].tobytes(), errs[s])
        alone = _refine_poses(R[s:s + 1], t[s:s + 1], P_rows[rows], u_rows[rows], [counts[s]], K)
        assert got == (alone[0][0].tobytes(), alone[1][0].tobytes(), alone[2][0])
        T_ref, err_ref, tries = refine_pose_per_try(R[s], t[s], P_rows[rows], u_rows[rows], K)
        assert got == (T_ref.q.tobytes(), T_ref.t.tobytes(), err_ref)
        accepted.append(tries)
    assert errs[0] == 1e9
    assert q[0].tobytes() == starts[0].q.tobytes()
    assert accepted[:4] == [0, 1, 0, 1]


@pytest.mark.parametrize("tracker", [track_frame_to_frame, track_map_to_frame])
def test_tracking_lost_names_the_failing_frame(tracker):
    seq = noiseless_sequence(6)
    frame = seq.frames[4]
    seq.frames[4] = dataclasses.replace(frame, point_ids=frame.point_ids[:3],
                                        point_pixels=frame.point_pixels[:3],
                                        point_depths=frame.point_depths[:3])
    with pytest.raises(TrackingLostError) as info:
        tracker(seq)
    assert info.value.frame_id == 4
    assert "frame 4" in str(info.value)

    # a PnP failure of the third problem (frame 3) names frame 3 as well;
    # map-to-frame solves one problem per batch, frame-to-frame all of
    # frames 1 to 3 in one
    for error in (DegenerateGeometryError, InsufficientDataError):
        solved = []

        def failing(problems, *args, **kwargs):
            problems = list(problems)
            before = len(solved)
            solved.extend(problems)
            if before < 3 <= len(solved):
                raise error("injected", problem=2 - before)
            return solve_pnp_batch(problems, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracking, "solve_pnp_batch", failing)
            with pytest.raises(TrackingLostError) as info:
                tracker(seq)
        assert info.value.frame_id == 3
        assert str(info.value) == "tracking lost at frame 3: injected"
        assert isinstance(info.value.__cause__, error)


def with_coincident_points(seq, j):
    """Frame j with every point at frame j's first pixel and depth, so the
    points it hands to the next frame-to-frame problem coincide."""
    frame = seq.frames[j]
    n = len(frame.point_ids)
    seq.frames[j] = dataclasses.replace(
        frame, point_pixels=np.repeat(frame.point_pixels[:1], n, axis=0),
        point_depths=np.repeat(frame.point_depths[:1], n))


def with_three_points(seq, j):
    frame = seq.frames[j]
    seq.frames[j] = dataclasses.replace(frame, point_ids=frame.point_ids[:3],
                                        point_pixels=frame.point_pixels[:3],
                                        point_depths=frame.point_depths[:3])


@pytest.mark.parametrize(
    "coincident, short, frame_id, message, cause",
    [
        (2, 4, 3, "points are collinear or coincident", DegenerateGeometryError),
        (3, 2, 2, "only 3 shared landmarks", type(None)),
    ],
    ids=["degenerate-first", "short-first"],
)
def test_frame_to_frame_loses_tracking_at_the_earliest_failure(coincident, short, frame_id,
                                                                message, cause):
    seq = noiseless_sequence(7)
    with_coincident_points(seq, coincident)
    with_three_points(seq, short)
    outcomes = []
    for tracker in (track_frame_to_frame, reference_track_frame_to_frame):
        with pytest.raises(TrackingLostError) as info:
            tracker(seq)
        outcomes.append((info.value.frame_id, str(info.value), type(info.value.__cause__)))
    assert outcomes[0] == outcomes[1] == \
        (frame_id, f"tracking lost at frame {frame_id}: {message}", cause)


def box_with_depth(kind, depth):
    """The box sequence at its shipped seed with the depth of row 3 of
    frame 5's ``kind`` ("point" or "line", both ends) set to ``depth``, in
    a copy of its frame list."""
    seq = preset_sequence("box")[1]
    frame = seq.frames[5]
    depths = getattr(frame, f"{kind}_depths").copy()
    depths[3] = depth
    frames = list(seq.frames)
    frames[5] = dataclasses.replace(frame, **{f"{kind}_depths": depths})
    return dataclasses.replace(seq, frames=frames)


DEPTH_LOST = "tracking lost at frame 5: backprojection requires positive depth"


@pytest.mark.parametrize("depth", [-1.0, np.nan])
@pytest.mark.parametrize("kind", ["point", "line"])
def test_map_to_frame_names_the_frame_of_a_row_it_cannot_back_project(kind, depth):
    with pytest.raises(TrackingLostError) as info:
        track_map_to_frame(box_with_depth(kind, depth))
    assert (info.value.frame_id, str(info.value)) == (5, DEPTH_LOST)
    assert type(info.value.__cause__) is GeometryError


@pytest.mark.parametrize("depth", [-1.0, np.nan])
def test_frame_to_frame_names_the_frame_of_a_point_it_cannot_back_project(depth):
    # frame 5's points are back-projected for the problem of frame 6
    with pytest.raises(TrackingLostError) as info:
        track_frame_to_frame(box_with_depth("point", depth))
    assert (info.value.frame_id, str(info.value)) == (5, DEPTH_LOST)
    assert type(info.value.__cause__) is GeometryError
    # lines never enter the pose solver, so a line row's depth leaves the
    # track as it is
    assert poses_sha256(track_frame_to_frame(box_with_depth("line", depth))) == \
        poses_sha256(track_frame_to_frame(preset_sequence("box")[1]))


def test_frame_to_frame_reports_an_earlier_pnp_failure_before_a_depth():
    seq = noiseless_sequence(7)
    with_coincident_points(seq, 2)
    frame = seq.frames[5]
    seq.frames[5] = dataclasses.replace(frame, point_depths=-frame.point_depths)
    with pytest.raises(TrackingLostError) as info:
        track_frame_to_frame(seq)
    assert str(info.value) == "tracking lost at frame 3: points are collinear or coincident"
    assert isinstance(info.value.__cause__, DegenerateGeometryError)


def test_frame_to_frame_batches_bound_their_memory():
    # the whole corridor sequence in one batch peaks at about 5 MB (17 MB
    # with all line-search tries projected at once); the row budgets keep
    # the batches within 2 MB of solving frame by frame
    seq = preset_sequence("corridor")[1]
    peaks = []
    for tracker in (reference_track_frame_to_frame, track_frame_to_frame):
        tracemalloc.start()
        try:
            tracker(seq)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2e6


def test_read_sequence_frees_frame_arrays_batch_by_batch(tmp_path):
    # the reader checks the frame files' columns a few thousand rows at a
    # time and frees them as their frames are built: reading box peaks
    # about 0.2 MB above the sequence it returns, against 0.8 MB when every
    # file's arrays were held until the whole sequence was checked
    cfg, seq = preset_sequence("box")
    write_sequence(seq, tmp_path)
    tracemalloc.start()
    try:
        back = read_sequence(tmp_path, cfg.render.min_line_len)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back.frames) == len(seq.frames)
    assert peak - held <= 0.4e6


# ---------------------------------------------------------------------------
# map fusion gates


def test_fuse_point_known_id_inserts_then_averages_inside_the_gate():
    m = SparseMap()
    assert m.fuse_point([0.0, 0.0, 1.0], landmark_id=7) == 7
    assert m.fuse_point([0.06, 0.0, 1.0], landmark_id=7) == 7
    np.testing.assert_allclose(m.points[7].position, [0.03, 0.0, 1.0])
    assert m.points[7].count == 2


def test_fuse_point_known_id_keeps_estimate_outside_the_gate():
    m = SparseMap()
    m.fuse_point([0.0, 0.0, 1.0], landmark_id=7)
    assert m.fuse_point([0.8, 0.0, 1.0], landmark_id=7) == 7
    np.testing.assert_array_equal(m.points[7].position, [0.0, 0.0, 1.0])
    assert m.points[7].count == 1
    assert list(m.points) == [7]


def test_fuse_points_equals_sequential_fuse_point_bit_for_bit():
    rng = np.random.default_rng(6)
    radius = tracking._FUSE_RADIUS
    start = rng.uniform(-2.0, 2.0, size=(20, 3))

    def seeded_map():
        m = SparseMap()
        for k, p in enumerate(start):
            m.fuse_point(p, landmark_id=3 * k)
        return m

    batched, sequential = seeded_map(), seeded_map()
    merged = rejected = inserted = 0
    for _ in range(4):
        # mapped ids moved inside or outside the gate, and unseen ids,
        # interleaved in a random order
        ids = [3 * k for k in range(20)] + [100 + int(i) for i in rng.choice(50, 8, False)]
        rng.shuffle(ids)
        positions = np.empty((len(ids), 3))
        for i, lid in enumerate(ids):
            if lid in sequential.points:
                step = rng.normal(size=3)
                step *= rng.choice([0.4, 1.2]) * radius / np.linalg.norm(step)
                positions[i] = sequential.points[lid].position + step
            else:
                positions[i] = rng.uniform(-2.0, 2.0, size=3)
        counts = {lid: mp.count for lid, mp in sequential.points.items()}
        batched.fuse_points(positions, ids)
        for lid, p in zip(ids, positions):
            sequential.fuse_point(p, landmark_id=lid)
        for lid in ids:
            if lid not in counts:
                inserted += 1
            elif sequential.points[lid].count > counts[lid]:
                merged += 1
            else:
                rejected += 1
        assert list(batched.points) == list(sequential.points)
        for lid, mp in sequential.points.items():
            assert batched.points[lid].position.tobytes() == mp.position.tobytes()
            assert batched.points[lid].count == mp.count
    assert merged and rejected and inserted


def test_fuse_points_gate_is_exact_at_the_radius(monkeypatch):
    # with the gate set to the radius fuse_point measures, the candidate
    # merges; np.linalg.norm(axis=1) reads this step as just beyond it
    rng = np.random.default_rng(7)
    origin = np.array([0.5, -0.25, 2.0])
    while True:
        candidate = origin + rng.normal(size=3)
        step = candidate - origin
        radius = float(np.linalg.norm(step))
        if np.linalg.norm(step[None], axis=1)[0] > radius:
            break
    m = SparseMap()
    m.fuse_point(origin, landmark_id=1)
    monkeypatch.setattr(tracking, "_FUSE_RADIUS", radius)
    m.fuse_points([candidate], [1])
    assert m.points[1].count == 2


def test_fuse_points_rejects_an_id_repeated_in_the_batch():
    m = SparseMap()
    with pytest.raises(ValueError, match="repeat"):
        m.fuse_points([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0]], [4, 4])
    assert not m.points


SEGMENT = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 2.0]])


def test_fuse_line_known_id_merges_and_refits_over_all_samples():
    m = SparseMap()
    assert m.fuse_line(SEGMENT, landmark_id=4) == 4
    assert m.fuse_line(SEGMENT + [0.5, 0.0, 0.0], landmark_id=4) == 4
    ml = m.lines[4]
    assert ml.count == 2
    assert m.line_samples[4].shape == (4, 3)  # two segments, start and end each
    # collinear samples: the refit spans the union of both segments
    ends = ml.endpoints[np.argsort(ml.endpoints[:, 0])]
    np.testing.assert_allclose(ends, [[0.0, 0.0, 2.0], [1.5, 0.0, 2.0]], atol=1e-12)


@pytest.mark.parametrize(
    "candidate",
    [
        # direction 20 degrees off, beyond the 15 degree gate
        np.array([[0.0, 0.0, 2.0], [np.cos(0.35), np.sin(0.35), 2.0]]),
        # parallel but 0.8 m away, beyond the 0.5 m gate
        SEGMENT + [0.0, 0.8, 0.0],
    ],
    ids=["angle", "distance"],
)
def test_fuse_line_gates_reject(candidate):
    m = SparseMap()
    m.fuse_line(SEGMENT, landmark_id=4)
    # the landmark keeps its estimate
    assert m.fuse_line(candidate, landmark_id=4) == 4
    assert m.lines[4].count == 1
    np.testing.assert_array_equal(m.lines[4].endpoints, SEGMENT)


def line_candidate(ends, rng, angle_deg, offset):
    """A segment whose direction is ``angle_deg`` off that of ``ends`` (2, 3)
    and whose midpoint lies ``offset`` from its line, at a random place
    along it."""
    d = ends[1] - ends[0]
    d_hat = d / np.linalg.norm(d)
    p_hat = np.cross(d_hat, rng.normal(size=3))
    p_hat /= np.linalg.norm(p_hat)
    theta = np.radians(angle_deg)
    direction = np.cos(theta) * d_hat + np.sin(theta) * p_hat
    mid = ends.mean(axis=0) + rng.uniform(-0.5, 0.5) * d + offset * np.cross(d_hat, p_hat)
    return mid + np.outer([-0.5, 0.5], direction) * rng.uniform(0.5, 2.0)


def test_fuse_lines_equals_sequential_fuse_line_bit_for_bit():
    rng = np.random.default_rng(12)
    start = [line_candidate(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), rng,
                            rng.uniform(0.0, 180.0), rng.uniform(0.0, 2.0)) for _ in range(15)]

    def seeded_map():
        m = SparseMap()
        for k, ends in enumerate(start):
            m.fuse_line(ends, landmark_id=3 * k)
        return m

    # mapped ids moved inside both gates or beyond one of them, and unseen ids
    kinds = {"inside": (5.0, 0.1), "angle": (20.0, 0.0), "distance": (0.0, 0.8)}
    batched, sequential = seeded_map(), seeded_map()
    seen, mixed_batches = set(), 0
    for _ in range(6):
        ids = [3 * k for k in range(15)] + [100 + int(i) for i in rng.choice(50, 6, False)]
        rng.shuffle(ids)
        endpoints, expected = np.empty((len(ids), 2, 3)), []
        for i, lid in enumerate(ids):
            if lid in sequential.lines:
                kind = str(rng.choice(sorted(kinds)))
                endpoints[i] = line_candidate(sequential.lines[lid].endpoints, rng, *kinds[kind])
            else:
                kind = "new"
                endpoints[i] = line_candidate(start[0], rng, rng.uniform(0.0, 180.0), 1.0)
            expected.append((lid, kind))
        counts = {lid: ml.count for lid, ml in sequential.lines.items()}
        batched.fuse_lines(endpoints, ids)
        for lid, ends in zip(ids, endpoints):
            sequential.fuse_line(ends, landmark_id=lid)
        merged_counts = []
        for lid, kind in expected:
            merged = lid in counts and sequential.lines[lid].count > counts[lid]
            assert merged == (kind == "inside")
            seen.add(kind)
            if merged:
                merged_counts.append(sequential.lines[lid].count)
        # the batch refits lines of several sample counts in one call,
        # several of them with the same count
        sizes = np.unique(merged_counts, return_counts=True)[1]
        mixed_batches += len(sizes) >= 2 and sizes.max() >= 2
        assert list(batched.lines) == list(sequential.lines)
        for lid, ml in sequential.lines.items():
            got = batched.lines[lid]
            assert got.endpoints.tobytes() == ml.endpoints.tobytes()
            assert got.count == ml.count
            assert batched.line_samples[lid].shape == sequential.line_samples[lid].shape
            assert batched.line_samples[lid].tobytes() == sequential.line_samples[lid].tobytes()
    assert seen == {"inside", "angle", "distance", "new"}
    assert mixed_batches >= 2


def svd_line_fit(samples, stored):
    """The per-line principal-axis fit through samples (N, 3) by SVD, its
    axis turned along the end - start of the stored segment (2, 3), with
    the extreme projections onto that axis as start and end."""
    center = samples.mean(axis=0)
    centered = samples - center
    d_hat = np.linalg.svd(centered, full_matrices=False)[2][0]
    if d_hat @ (stored[1] - stored[0]) < 0:
        d_hat = -d_hat
    t = centered @ d_hat
    return center + np.outer([t.min(), t.max()], d_hat)


@pytest.mark.parametrize("preset", ["sphere", "box", "corridor"])
def test_refit_lines_matches_the_per_line_svd_fit(preset):
    # every refit of the map-to-frame tracker against the SVD fit of each
    # line alone: the scatter eigenvector gives the same axis to rounding,
    # and the fitted segment keeps the direction of the stored one
    _, seq = preset_sequence(preset)
    refit, calls = tracking._refit_lines, []

    def record(samples, sizes, stored):
        fitted = refit(samples, sizes, stored)
        calls.append((samples, sizes, stored, fitted))
        return fitted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracking, "_refit_lines", record)
        track_map_to_frame(seq)
    fits = 0
    for samples, sizes, stored, fitted in calls:
        assert sizes.sum() == len(samples)
        for rows, before, after in zip(segments(sizes), stored, fitted):
            np.testing.assert_allclose(after, svd_line_fit(samples[rows], before),
                                       rtol=0.0, atol=1e-13)
            assert (after[1] - after[0]) @ (before[1] - before[0]) > 0.0
        fits += len(sizes)
    assert len(calls) < len(seq.frames) < fits


def test_fuse_lines_refits_noiseless_collinear_samples_onto_their_line():
    rng = np.random.default_rng(14)
    origin, d_hat = rng.normal(size=3), rng.normal(size=3)
    d_hat /= np.linalg.norm(d_hat)
    ts = [np.array([-0.5, 0.5])] + [rng.uniform(-2.0, 2.0, 2) for _ in range(5)]
    m = SparseMap()
    for t in ts:
        m.fuse_line(origin + np.outer(t, d_hat), landmark_id=9)
    assert m.lines[9].count == len(ts)
    # start and end stay in the order of the first segment, at the extreme
    # samples along the line
    ts = np.concatenate(ts)
    np.testing.assert_allclose(m.lines[9].endpoints, origin + np.outer([ts.min(), ts.max()], d_hat),
                               rtol=0.0, atol=1e-12)


def test_fuse_lines_gates_are_exact_at_their_thresholds(monkeypatch):
    # with the gates set to the angle and the distance that fuse_line
    # measures (np.linalg.norm on one vector) the candidate merges, and one
    # ulp inside either threshold rejects it; np.linalg.norm(axis=1) reads
    # both as just beyond their threshold
    rng = np.random.default_rng(13)

    def norm_axis1_reads_more(v):
        return np.linalg.norm(v[None], axis=1)[0] > np.linalg.norm(v)

    while True:
        candidate = SEGMENT + rng.normal(scale=0.05, size=(2, 3))
        d_stored, d_new = SEGMENT[1] - SEGMENT[0], candidate[1] - candidate[0]
        cross = np.cross(d_stored, d_new)
        angle = np.degrees(np.arctan2(np.linalg.norm(cross), abs(d_stored @ d_new)))
        rel = candidate.mean(axis=0) - SEGMENT[0]
        d_hat = d_stored / np.linalg.norm(d_stored)
        off = rel - (rel @ d_hat) * d_hat
        if norm_axis1_reads_more(cross) and norm_axis1_reads_more(off):
            break
    assert angle == np.degrees(line_angles(d_stored[None], d_new[None])[0])
    dist = np.linalg.norm(off)
    for gates, merges in [
        ((angle, dist), True),
        ((np.nextafter(angle, 0.0), dist), False),
        ((angle, np.nextafter(dist, 0.0)), False),
    ]:
        m = SparseMap()
        m.fuse_line(SEGMENT, landmark_id=1)
        monkeypatch.setattr(tracking, "_FUSE_ANGLE_DEG", gates[0])
        monkeypatch.setattr(tracking, "_FUSE_DIST", gates[1])
        m.fuse_lines([candidate], [1])
        assert (m.lines[1].count == 2) == merges


def test_fuse_lines_rejects_an_id_repeated_in_the_batch():
    m = SparseMap()
    with pytest.raises(ValueError, match="repeat"):
        m.fuse_lines([SEGMENT, SEGMENT + [0.0, 0.01, 0.0]], [4, 4])
    assert not m.lines
