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
    Pose,
    backproject,
    line_angles,
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
    solve_pnp,
    solve_pnp_batch,
    track_frame_to_frame,
    track_map_to_frame,
)

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def random_pose(rng) -> Pose:
    return Pose.from_rt(so3_exp(rng.normal(scale=0.3, size=3)), rng.normal(scale=0.3, size=3))


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
            T_new = se3_exp_update(T, step * delta)
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


def reference_solve_pnp(world_points, pixels, intr, refine_iters=10, initial=None):
    """The one-problem ``solve_pnp``, with each start refined alone by the
    per-try loop."""
    P_w = np.asarray(world_points, dtype=float).reshape(-1, 3)
    u = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(P_w) != len(u):
        raise InsufficientDataError("points and pixels differ in length")
    if len(P_w) < 4:
        raise InsufficientDataError(f"need at least 4 correspondences, got {len(P_w)}")
    alphas, candidates = reference_candidates(P_w, u, intr)
    starts = [Pose.from_rt(*reference_rigid_fit(P_w, alphas @ x)) for x in candidates]
    if initial is not None:
        starts.append(initial)
    if not starts:
        raise DegenerateGeometryError("EPnP found no candidate pose")
    refined = [refine_pose_per_try(T.rotation(), T.t, P_w, u, intr, refine_iters)[:2]
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
def test_epnp_is_exact_on_noiseless_input(make_points, control_points):
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = random_pose(rng)
        P_w = make_points(rng)
        _, planar, degenerate = _epnp_control_points(P_w, [len(P_w)])
        assert 4 - int(planar[0]) == len(reference_control_points(P_w)) == control_points
        assert not degenerate[0]
        # no Gauss-Newton: the closed-form EPnP step alone must be exact
        result = solve_pnp(P_w, observe(T, P_w), K, refine_iters=0)
        assert_same_pose(result.pose, T, atol=1e-7)
        assert result.mean_error <= 1e-6


def test_collinear_points_raise_degenerate_geometry():
    P_w = np.outer(np.linspace(-1.0, 1.0, 6), [1.0, 0.5, 0.2]) + np.array([0.0, 0.0, 5.0])
    with pytest.raises(DegenerateGeometryError):
        solve_pnp(P_w, observe(Pose.identity(), P_w), K)


def test_coincident_points_raise_degenerate_geometry():
    P_w = np.tile([0.1, 0.2, 5.0], (5, 1))
    with pytest.raises(DegenerateGeometryError):
        solve_pnp(P_w, observe(Pose.identity(), P_w), K)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_fewer_than_four_correspondences_raise(n):
    P_w = general_points(np.random.default_rng(2), n)
    with pytest.raises(InsufficientDataError):
        solve_pnp(P_w, observe(Pose.identity(), P_w), K)


def test_mismatched_lengths_raise():
    P_w = general_points(np.random.default_rng(3), 6)
    with pytest.raises(InsufficientDataError):
        solve_pnp(P_w, observe(Pose.identity(), P_w)[:5], K)


def test_solve_pnp_without_a_start_raises_degenerate_geometry(monkeypatch):
    P_w = general_points(np.random.default_rng(4))
    u = observe(Pose.identity(), P_w)
    epnp = tracking._epnp_candidates

    def no_candidates(*args):
        alphas, candidates, exists = epnp(*args)
        return alphas, candidates, np.zeros_like(exists)

    monkeypatch.setattr(tracking, "_epnp_candidates", no_candidates)
    with pytest.raises(DegenerateGeometryError, match="no candidate") as info:
        solve_pnp_batch([(P_w, u, Pose.identity()), (P_w, u, None)], K)
    assert info.value.problem == 1
    # a motion prior alone is still a start
    assert solve_pnp_batch([(P_w, u, Pose.identity())], K)[0].mean_error <= 1e-6


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
    u = observe(Pose.identity(), P_w)
    first, second = solve_pnp_batch([(P_w, u, Pose.identity())] * 2, K)
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
        u = observe(Pose.identity(), P_w)
        problems.append((P_w, u[:-1] if kind == "mismatched" else u, None))
    with pytest.raises(error) as info:
        solve_pnp_batch(problems, K)
    assert info.value.problem == problem
    with pytest.raises(error) as alone:
        reference_solve_pnp(*problems[problem][:2], K)
    assert str(info.value) == str(alone.value)


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
        prior = se3_exp_update(T, rng.normal(scale=0.02, size=6)) if k % 4 == 1 else None
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
    for refine_iters in (10, 0):
        results = solve_pnp_batch(iter(problems), K, refine_iters)
        assert len(results) == len(problems)
        for result, (P, x, prior) in zip(results, problems):
            assert result_bytes(result) == \
                result_bytes(reference_solve_pnp(P, x, K, refine_iters, prior))


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
# map-to-frame track; recorded with the per-measurement tracker that the
# per-frame batches replaced, which they must reproduce bit for bit
GOLDEN_TRACKING = {
    "sphere": (
        "21989b694441a86d9a8349bb3f2e7cc1b12049e73a6a4273af41e716689cd461",
        "be839fbb0932044501db700dc9c0d76ea19cea5bef32d09844fee4ee4232a781",
        "ad58e1690deffd9a0875e894e7ab9a9a5e5903badeed62b3ea0fa39ae4b54fb4",
        129834.34061423445,
    ),
    "box": (
        "aed86ab9f2dcd1f4675ca8016788e4bae9330c368cef5ee90d367cc6745d1696",
        "b1cebfb1f2f2775a5e3ad919f8a1ee4eaf28068ebea9b2f4e6e45ad63760b911",
        "5e4a9972ce5c60410454cde440aa58d1712be9dd08cdf1898b36294d9bf91cfc",
        122690.84996911994,
    ),
    "corridor": (
        "3be2df1528c2f68a9f761f331bc5d9de55f33bad590bb66fc5b91f4ecfb752d8",
        "684a6fc4e4bf55389eba84d6406df9090dbd85c81fb53ac0598d6ce1d547eaa2",
        "dd635145a07fb74d82d9b2355d6b63ccd51958860c086f341605ea68121892aa",
        154002.73453758072,
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

    def record(R, t, P_w, u, counts, intr, iterations=10):
        problems.append((tracker, R, t, P_w, u, counts, intr))
        return _refine_poses(R, t, P_w, u, counts, intr, iterations)

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
              se3_exp_update(T, rng.normal(scale=0.05, size=6)), T, T]
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
    assert m.fuse_point([0.0, 0.0, 1.0], landmark_id=7, radius_thresh=0.1) == 7
    assert m.fuse_point([0.06, 0.0, 1.0], landmark_id=7, radius_thresh=0.1) == 7
    np.testing.assert_allclose(m.points[7].position, [0.03, 0.0, 1.0])
    assert m.points[7].count == 2


def test_fuse_point_known_id_keeps_estimate_outside_the_gate():
    m = SparseMap()
    m.fuse_point([0.0, 0.0, 1.0], landmark_id=7, radius_thresh=0.1)
    assert m.fuse_point([0.5, 0.0, 1.0], landmark_id=7, radius_thresh=0.1) == 7
    np.testing.assert_array_equal(m.points[7].position, [0.0, 0.0, 1.0])
    assert m.points[7].count == 1
    assert list(m.points) == [7]


def test_fuse_points_equals_sequential_fuse_point_bit_for_bit():
    rng = np.random.default_rng(6)
    radius = 0.3
    start = rng.uniform(-2.0, 2.0, size=(20, 3))

    def seeded_map():
        m = SparseMap()
        for k, p in enumerate(start):
            m.fuse_point(p, landmark_id=3 * k, radius_thresh=radius)
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
        batched.fuse_points(positions, ids, radius_thresh=radius)
        for lid, p in zip(ids, positions):
            sequential.fuse_point(p, landmark_id=lid, radius_thresh=radius)
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


def test_fuse_points_gate_is_exact_at_the_radius():
    # a candidate exactly at the radius fuse_point measures must merge;
    # np.linalg.norm(axis=1) reads this step as just beyond that radius
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
    m.fuse_points([candidate], [1], radius_thresh=radius)
    assert m.points[1].count == 2


def test_fuse_points_rejects_an_id_repeated_in_the_batch():
    m = SparseMap()
    with pytest.raises(ValueError, match="repeat"):
        m.fuse_points([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0]], [4, 4])
    assert not m.points


SEGMENT = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
NARROW = {"angle_thresh_deg": 5.0, "dist_thresh": 0.05}


def test_fuse_line_known_id_merges_and_refits_over_all_samples():
    m = SparseMap()
    assert m.fuse_line(SEGMENT, landmark_id=4, **NARROW) == 4
    assert m.fuse_line(SEGMENT + [0.5, 0.0, 0.0], landmark_id=4, **NARROW) == 4
    ml = m.lines[4]
    assert ml.count == 2
    assert len(m.line_samples[4]) == 2
    # collinear samples: the refit spans the union of both segments
    ends = ml.endpoints[np.argsort(ml.endpoints[:, 0])]
    np.testing.assert_allclose(ends, [[0.0, 0.0, 2.0], [1.5, 0.0, 2.0]], atol=1e-12)


@pytest.mark.parametrize(
    "candidate",
    [
        # direction 20 degrees off, beyond the 5 degree gate
        np.array([[0.0, 0.0, 2.0], [np.cos(0.35), np.sin(0.35), 2.0]]),
        # parallel but 0.2 m away, beyond the 0.05 m gate
        SEGMENT + [0.0, 0.2, 0.0],
    ],
    ids=["angle", "distance"],
)
def test_fuse_line_gates_reject(candidate):
    m = SparseMap()
    m.fuse_line(SEGMENT, landmark_id=4, **NARROW)
    # the landmark keeps its estimate
    assert m.fuse_line(candidate, landmark_id=4, **NARROW) == 4
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
    gates = {"angle_thresh_deg": 10.0, "dist_thresh": 0.2}
    start = [line_candidate(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), rng,
                            rng.uniform(0.0, 180.0), rng.uniform(0.0, 2.0)) for _ in range(15)]

    def seeded_map():
        m = SparseMap()
        for k, ends in enumerate(start):
            m.fuse_line(ends, landmark_id=3 * k, **gates)
        return m

    # mapped ids moved inside both gates or beyond one of them, and unseen ids
    kinds = {"inside": (5.0, 0.1), "angle": (20.0, 0.0), "distance": (0.0, 0.4)}
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
        batched.fuse_lines(endpoints, ids, **gates)
        for lid, ends in zip(ids, endpoints):
            sequential.fuse_line(ends, landmark_id=lid, **gates)
        merged_counts = []
        for lid, kind in expected:
            merged = lid in counts and sequential.lines[lid].count > counts[lid]
            assert merged == (kind == "inside")
            seen.add(kind)
            if merged:
                merged_counts.append(sequential.lines[lid].count)
        # the batch refits several lines of one sample count in one stack,
        # next to lines of other counts
        sizes = np.unique(merged_counts, return_counts=True)[1]
        mixed_batches += len(sizes) >= 2 and sizes.max() >= 2
        assert list(batched.lines) == list(sequential.lines)
        for lid, ml in sequential.lines.items():
            got = batched.lines[lid]
            assert got.endpoints.tobytes() == ml.endpoints.tobytes()
            assert got.count == ml.count
            assert [x.tobytes() for x in batched.line_samples[lid]] == \
                [x.tobytes() for x in sequential.line_samples[lid]]
    assert seen == {"inside", "angle", "distance", "new"}
    assert mixed_batches >= 2


def test_fuse_lines_gates_are_exact_at_their_thresholds():
    # a candidate exactly at the angle or the distance that fuse_line
    # measures (np.linalg.norm on one vector) merges, and one ulp inside
    # either threshold rejects it; np.linalg.norm(axis=1) reads both
    # candidates as just beyond their threshold
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
        m.fuse_lines([candidate], [1], *gates)
        assert (m.lines[1].count == 2) == merges


def test_fuse_lines_rejects_an_id_repeated_in_the_batch():
    m = SparseMap()
    with pytest.raises(ValueError, match="repeat"):
        m.fuse_lines([SEGMENT, SEGMENT + [0.0, 0.01, 0.0]], [4, 4])
    assert not m.lines
