import dataclasses
import functools

import numpy as np
import pytest

from plbench.geometry import Pose, Trajectory, rigid_fit, so3_exp
from plbench.evaluation import ErrorStats, align_se3, ate, ate_per_frame, rpe
from plbench.simulator import build_scene, build_trajectory, generate_sequence, load_preset
from plbench.tracking import track_frame_to_frame, track_map_to_frame


def pose_with_center(center, R=None) -> Pose:
    R = np.eye(3) if R is None else R
    return Pose.from_rt(R, -R @ np.asarray(center, dtype=float))


def record(poses) -> Trajectory:
    """The trajectory record of a list of poses."""
    return Trajectory([T.q for T in poses], [T.t for T in poses])


def straight_trajectory(n, step=0.1):
    return record([pose_with_center([i * step, 0.0, 0.0]) for i in range(n)])


def random_trajectory(rng, n):
    traj = []
    for i in range(n):
        w = rng.normal(scale=0.3, size=3)
        c = np.array([i * 0.2, 0.0, 1.0]) + rng.normal(scale=0.05, size=3)
        traj.append(pose_with_center(c, so3_exp(w)))
    return record(traj)


def rigidly_moved(traj, G: Pose):
    # right-composing with G^-1 moves every camera center by G
    Ginv = G.inverse()
    return record([T.compose(Ginv) for T in traj])


# ---------------------------------------------------------------------------
# independent oracle: plain Horn alignment + direct stats, kept free of any
# plbench.evaluation internals


def oracle_ate_stats(est, gt):
    P = np.array([T.center() for T in est])
    Q = np.array([T.center() for T in gt])
    Pc = P - P.mean(0)
    Qc = Q - Q.mean(0)
    C = Pc.T @ Qc / len(P)
    U, _, Vt = np.linalg.svd(C)
    D = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        D[2, 2] = -1
    R = (U @ D @ Vt).T
    aligned = (R @ Pc.T).T + Q.mean(0)
    err = np.sqrt(((aligned - Q) ** 2).sum(1))
    return (
        float(np.sqrt((err**2).mean())),
        float(np.median(err)),
        float(err.mean()),
        float(err.std()),
    )


# ---------------------------------------------------------------------------
# alignment


def test_align_identity_for_equal_trajectories():
    gt = straight_trajectory(10)
    G = align_se3(gt, gt)
    np.testing.assert_allclose(G.rotation(), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(G.t, 0, atol=1e-12)


def test_align_removes_rigid_offset():
    gt = random_trajectory(np.random.default_rng(0), 20)
    est = record([pose_with_center(T.center() + [0.1, 0, 0], T.rotation()) for T in gt])
    G = align_se3(est, gt)
    np.testing.assert_allclose(G.t, [-0.1, 0, 0], atol=1e-12)
    assert ate(est, gt).translation.rmse <= 1e-12


def test_align_removes_rotation():
    gt = random_trajectory(np.random.default_rng(1), 20)
    G = Pose.from_rt(so3_exp([0, 0, np.radians(10.0)]), np.zeros(3))
    est = rigidly_moved(gt, G)
    assert ate(est, gt).translation.rmse <= 1e-9


def test_align_rejects_length_mismatch():
    gt = straight_trajectory(5)
    with pytest.raises(ValueError):
        align_se3(gt[:-1], gt)


# ---------------------------------------------------------------------------
# ATE


def test_ate_zero_on_identical():
    gt = random_trajectory(np.random.default_rng(2), 15)
    m = ate(gt, gt)
    assert m.translation.rmse == pytest.approx(0.0, abs=1e-12)
    assert m.translation.median == pytest.approx(0.0, abs=1e-12)


def test_ate_alternating_offsets():
    # alternating +-1 cm along the path: alignment cannot remove them
    n = 40
    gt = straight_trajectory(n)
    est = record([pose_with_center([i * 0.1 + (0.01 if i % 2 == 0 else -0.01), 0, 0])
                  for i in range(n)])
    m = ate(est, gt)
    assert m.translation.rmse == pytest.approx(0.01, abs=1e-10)
    assert m.translation.median == pytest.approx(0.01, abs=1e-10)


def test_ate_invariant_to_global_rigid_motion_of_estimate():
    rng = np.random.default_rng(3)
    gt = random_trajectory(rng, 25)
    est = random_trajectory(rng, 25)
    base = ate(est, gt).translation.rmse
    for _ in range(5):
        q = rng.normal(size=4)
        G = Pose(q / np.linalg.norm(q), rng.normal(scale=5.0, size=3))
        moved = ate(rigidly_moved(est, G), gt).translation.rmse
        assert moved == pytest.approx(base, abs=1e-9)


def test_ate_matches_independent_oracle():
    rng = np.random.default_rng(4)
    gt = random_trajectory(rng, 30)
    est = random_trajectory(rng, 30)
    m = ate(est, gt).translation
    rmse, median, mean, std = oracle_ate_stats(est, gt)
    assert m.rmse == pytest.approx(rmse, rel=1e-9)
    assert m.median == pytest.approx(median, rel=1e-9)
    assert m.mean == pytest.approx(mean, rel=1e-9)
    assert m.std == pytest.approx(std, rel=1e-9, abs=1e-12)


def test_error_stats_definition_consistency():
    rng = np.random.default_rng(5)
    errors = np.abs(rng.normal(size=200))
    s = ErrorStats.from_errors(errors)
    assert s.rmse**2 == pytest.approx(s.mean**2 + s.std**2, abs=1e-12)
    assert s.median <= errors.max()
    assert s.rmse >= 0


# ---------------------------------------------------------------------------
# RPE


def test_rpe_zero_on_identical():
    gt = random_trajectory(np.random.default_rng(6), 15)
    m = rpe(gt, gt)
    assert m.translation.rmse == pytest.approx(0.0, abs=1e-12)
    assert m.rotation.rmse == pytest.approx(0.0, abs=1e-10)


def test_rpe_invariant_to_single_global_offset():
    rng = np.random.default_rng(7)
    gt = random_trajectory(rng, 20)
    est = random_trajectory(rng, 20)
    base = rpe(est, gt)
    q = rng.normal(size=4)
    G = Pose(q / np.linalg.norm(q), rng.normal(scale=3.0, size=3))
    moved = rpe(rigidly_moved(est, G), gt)
    assert moved.translation.rmse == pytest.approx(base.translation.rmse, abs=1e-12)
    assert moved.rotation.rmse == pytest.approx(base.rotation.rmse, abs=1e-10)


def test_rpe_single_corrupted_step():
    n = 26  # 25 relative steps
    gt = straight_trajectory(n)
    est = record([
        pose_with_center([i * 0.1 + (0.02 if i > 12 else 0.0), 0, 0]) for i in range(n)
    ])
    m = rpe(est, gt, delta=1)
    n_steps = n - 1
    assert m.translation.rmse == pytest.approx(0.02 / np.sqrt(n_steps), abs=1e-12)
    assert m.rotation.rmse == pytest.approx(0.0, abs=1e-10)


def test_rpe_rejects_bad_delta():
    gt = straight_trajectory(5)
    with pytest.raises(ValueError):
        rpe(gt, gt, delta=5)
    with pytest.raises(ValueError):
        rpe(gt, gt, delta=0)


@pytest.mark.parametrize("delta", [1.5, True, 0, 5], ids=["float", "bool", "zero", "n"])
def test_rpe_refuses_a_delta_that_is_not_an_integer_in_range(delta):
    gt = straight_trajectory(5)
    with pytest.raises(ValueError, match=r"^delta must be an integer in \[1, 4\], got "):
        rpe(gt, gt, delta)


def test_rpe_takes_a_numpy_integer_delta():
    rng = np.random.default_rng(9)
    gt, est = random_trajectory(rng, 8), random_trajectory(rng, 8)
    assert rpe(est, gt, np.int64(2)) == rpe(est, gt, 2)


def test_ate_per_frame_matches_summary():
    rng = np.random.default_rng(8)
    gt = random_trajectory(rng, 12)
    est = random_trajectory(rng, 12)
    per = ate_per_frame(est, gt)
    assert np.sqrt((per**2).mean()) == pytest.approx(ate(est, gt).translation.rmse, rel=1e-12)


# regression fixture: frozen stats for a deterministic trajectory pair; the
# expected values were produced by oracle_ate_stats at freeze time
def test_ate_frozen_fixture():
    rng = np.random.default_rng(42)
    gt = random_trajectory(rng, 20)
    est = random_trajectory(rng, 20)
    m = ate(est, gt).translation
    frozen = oracle_ate_stats(est, gt)
    assert m.rmse == pytest.approx(frozen[0], rel=1e-12)
    assert (m.rmse, m.median, m.mean, m.std) == pytest.approx(FROZEN_FIXTURE_STATS, rel=1e-6)


FROZEN_FIXTURE_STATS = (0.091637496284, 0.086299922328, 0.086644221692, 0.029836380017)


# ---------------------------------------------------------------------------
# the stacked metrics against the per-pose path: one Pose per frame, and one
# Pose composition and one matrix logarithm per frame pair


def oracle_rotation_angle(R):
    """The norm of the principal rotation vector of one matrix R, as the
    per-matrix logarithm gave it: the axial vector below 1e-8 rad, the
    arccos angle within 1e-6 of pi, else the arccos angle over its sine
    times the axial vector."""
    angle = float(np.arccos(np.clip(0.5 * (np.trace(R) - 1.0), -1.0, 1.0)))
    axial = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle < 1e-8:
        return float(np.linalg.norm(axial))
    if np.pi - angle < 1e-6:
        return angle
    return float(np.linalg.norm((angle / np.sin(angle)) * axial))


def oracle_rpe(est, gt, delta):
    """(translation, rotation in degrees) errors of each frame pair."""
    trans_err, rot_err = [], []
    for i in range(len(est) - delta):
        rel_est = est[i].compose(est[i + delta].inverse())
        rel_gt = gt[i].compose(gt[i + delta].inverse())
        E = rel_gt.inverse().compose(rel_est)
        trans_err.append(np.linalg.norm(E.t))
        rot_err.append(np.degrees(oracle_rotation_angle(E.rotation())))
    return np.array(trans_err), np.array(rot_err)


@functools.cache
def tracked(preset, offset, tracker):
    """(estimate, ground truth) of one tracker on the preset's sequence at
    its shipped scene seed plus ``offset``."""
    cfg = load_preset(preset)
    scene = dataclasses.replace(cfg.scene, seed=cfg.scene.seed + offset)
    seq = generate_sequence(build_scene(scene), build_trajectory(cfg.trajectory),
                            cfg.noise, cfg.intrinsics, cfg.render)
    est = track_map_to_frame(seq)[0] if tracker == "map-to-frame" else track_frame_to_frame(seq)
    return est, seq.gt_trajectory


TRACKED = [pytest.param(preset, offset, tracker, id=f"{preset}-{offset}-{tracker}")
           for preset in ("sphere", "box", "corridor") for offset in (0, 1000)
           for tracker in ("map-to-frame", "frame-to-frame")]


@pytest.mark.parametrize("preset, offset, tracker", TRACKED)
def test_stacked_ate_equals_the_per_pose_path(preset, offset, tracker):
    est, gt = tracked(preset, offset, tracker)
    P = np.array([T.center() for T in est])
    Q = np.array([T.center() for T in gt])
    G = Pose.from_rt(*rigid_fit(P, Q))
    aligned = align_se3(est, gt)
    assert (aligned.q.tobytes(), aligned.t.tobytes()) == (G.q.tobytes(), G.t.tobytes())
    per_frame = np.linalg.norm(P @ G.rotation().T + G.t - Q, axis=1)
    assert ate_per_frame(est, gt).tobytes() == per_frame.tobytes()


@pytest.mark.parametrize("delta", [1, 5])
@pytest.mark.parametrize("preset, offset, tracker", TRACKED)
def test_stacked_rpe_matches_the_per_pair_path(preset, offset, tracker, delta):
    est, gt = tracked(preset, offset, tracker)
    m = rpe(est, gt, delta)
    for got, errors in zip((m.translation, m.rotation), oracle_rpe(est, gt, delta)):
        want = ErrorStats.from_errors(errors)
        for name in ("rmse", "median", "mean", "std"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)


@pytest.mark.parametrize("preset, offset, tracker", TRACKED)
def test_rpe_of_a_trajectory_against_itself_is_exactly_zero(preset, offset, tracker):
    est, _ = tracked(preset, offset, tracker)
    for delta in (1, 5):
        m = rpe(est, est, delta)
        assert m.translation == m.rotation == ErrorStats(0.0, 0.0, 0.0, 0.0)
