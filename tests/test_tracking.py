import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from plbench import tracking
from plbench.evaluation import ate
from plbench.factor_graph import (
    _point_residuals,
    _pose_jacobian,
    _project_points,
    build_covisibility_graph,
)
from plbench.geometry import CameraIntrinsics, Pose, line_angle, project, se3_exp_update, so3_exp
from plbench.simulator import NoiseParams, build_scene, build_trajectory, generate_sequence, load_preset
from plbench.tracking import (
    DegenerateGeometryError,
    InsufficientDataError,
    SparseMap,
    TrackingLostError,
    _epnp_control_points,
    _refine_poses,
    solve_pnp,
    track_frame_to_frame,
    track_map_to_frame,
)

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def random_pose(rng) -> Pose:
    return Pose.from_rt(so3_exp(rng.normal(scale=0.3, size=3)), rng.normal(scale=0.3, size=3))


def observe(T: Pose, P_w):
    return project(T.transform(P_w), K)


def assert_same_pose(T, T_ref, atol):
    np.testing.assert_allclose(T.rotation(), T_ref.rotation(), atol=atol)
    np.testing.assert_allclose(T.t, T_ref.t, atol=atol)


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
        assert len(_epnp_control_points(P_w)) == control_points
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
    monkeypatch.setattr(tracking, "_epnp_candidates", lambda *args: (*epnp(*args)[:2], []))
    with pytest.raises(DegenerateGeometryError, match="no candidate"):
        solve_pnp(P_w, u, K)
    # a motion prior alone is still a start
    assert solve_pnp(P_w, u, K, initial=Pose.identity()).mean_error <= 1e-6


def test_solve_pnp_keeps_the_first_of_tied_starts(monkeypatch):
    rng = np.random.default_rng(5)
    P_w = general_points(rng)
    refined = [random_pose(rng) for _ in range(3)]

    def tied(R, t, *args, **kwargs):
        errs = np.ones(len(R))
        errs[0] = 3.0
        return refined[:len(R)], errs

    monkeypatch.setattr(tracking, "_refine_poses", tied)
    result = solve_pnp(P_w, observe(Pose.identity(), P_w), K, initial=Pose.identity())
    assert result.pose is refined[1]
    assert result.mean_error == 1.0


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


def refine_problems(preset):
    """(R (k, 3, 3), t (k, 3), P_w, u, intrinsics) of every batch of starts
    both trackers refine on the preset at its shipped seed, then the true
    pose with exact pixels, as a batch of one, for every tenth frame."""
    cfg, seq = preset_sequence(preset)
    problems = []

    def record(R, t, P_w, u, intr, iterations=10):
        problems.append((R, t, P_w, u, intr))
        return _refine_poses(R, t, P_w, u, intr, iterations)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracking, "_refine_poses", record)
        track_map_to_frame(seq)
        track_frame_to_frame(seq)
    for frame, T in zip(seq.frames[::10], seq.gt_trajectory[::10]):
        P_w = np.array([seq.gt_points[pm.landmark_id].position for pm in frame.points])
        problems.append((T.rotation()[None], T.t[None], P_w,
                         project(T.transform(P_w), cfg.intrinsics), cfg.intrinsics))
    return problems


def test_refine_pose_equals_the_per_try_loop():
    # accepted tries are rare (see _refine_poses): 1, 4 and 4 of the 495
    # tracker refinements per preset, one with two accepted steps, and the
    # exact-pixel problems, which move the pose by a few ulps
    accepted, widths = [], set()
    for preset in ("sphere", "box", "corridor"):
        for R, t, P_w, u, intr in refine_problems(preset):
            poses, errs = _refine_poses(R, t, P_w, u, intr)
            assert len(poses) == len(errs) == len(R)
            for T, err, R_s, t_s in zip(poses, errs, R, t):
                T_ref, err_ref, tries = refine_pose_per_try(R_s, t_s, P_w, u, intr)
                assert (T.q.tobytes(), T.t.tobytes(), err) == \
                    (T_ref.q.tobytes(), T_ref.t.tobytes(), err_ref)
                if tries:
                    accepted.append((tries, np.abs(T.t - Pose.from_rt(R_s, t_s).t).max()))
            widths.add(len(R))
    # map-to-frame refines both EPnP candidates and the motion prior at once
    assert max(widths) == 3
    assert max(tries for tries, _ in accepted) >= 2
    assert max(moved for _, moved in accepted) > 1e-3


def test_refine_poses_gives_each_start_its_result_alone():
    # one batch: a start with every point behind the camera (it leaves at
    # once), the true pose with exact pixels (it accepts a step), an offset
    # start (it accepts none) and a duplicate of the true pose
    rng = np.random.default_rng(1)
    T = random_pose(rng)
    P_w = T.inverse().transform(general_points(rng, 20))
    u = observe(T, P_w)
    flip = np.diag([1.0, -1.0, -1.0])
    starts = [Pose.from_rt(flip @ T.rotation(), flip @ T.t), T,
              se3_exp_update(T, rng.normal(scale=0.05, size=6)), T]
    R, t = np.array([S.rotation() for S in starts]), np.array([S.t for S in starts])
    poses, errs = _refine_poses(R, t, P_w, u, K)
    accepted = []
    for s in range(len(starts)):
        got = (poses[s].q.tobytes(), poses[s].t.tobytes(), errs[s])
        alone, err_alone = _refine_poses(R[s:s + 1], t[s:s + 1], P_w, u, K)
        assert got == (alone[0].q.tobytes(), alone[0].t.tobytes(), err_alone[0])
        T_ref, err_ref, tries = refine_pose_per_try(R[s], t[s], P_w, u, K)
        assert got == (T_ref.q.tobytes(), T_ref.t.tobytes(), err_ref)
        accepted.append(tries)
    assert errs[0] == 1e9
    assert poses[0].q.tobytes() == starts[0].q.tobytes()
    assert accepted == [0, 1, 0, 1]


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

    # a PnP failure at frame 3 (the third solve) names frame 3 as well
    for error in (DegenerateGeometryError, InsufficientDataError):
        solves = []

        def failing(*args, **kwargs):
            solves.append(args)
            if len(solves) == 3:
                raise error("injected")
            return solve_pnp(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracking, "solve_pnp", failing)
            with pytest.raises(TrackingLostError) as info:
                tracker(seq)
        assert info.value.frame_id == 3
        assert str(info.value) == "tracking lost at frame 3: injected"
        assert isinstance(info.value.__cause__, error)


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
    assert len(ml.samples) == 2
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
            assert [x.tobytes() for x in got.samples] == [x.tobytes() for x in ml.samples]
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
    assert angle == np.degrees(line_angle(d_stored, d_new))
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
