import dataclasses
import hashlib
import math
import re
from importlib import resources

import numpy as np
import pytest

from plbench import simulator
from plbench.dataset_io import write_sequence
from plbench.geometry import (
    CameraIntrinsics,
    GeometryError,
    Points,
    Pose,
    Segments,
    Trajectory,
    row_norms,
)
from plbench.simulator import (
    Box,
    ConfigError,
    FrameData,
    GenerationReport,
    NoiseParams,
    RenderConfig,
    Scene,
    SceneError,
    SceneSpec,
    TrajectorySpec,
    build_scene,
    build_trajectory,
    gaussian_noise,
    generate_sequence,
    load_preset,
    occluded,
    parse_config,
    perturb_depth,
    perturb_pixel,
    render_frame,
)

K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)
IDENTITY = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))


def unit_cube_spec(**kw):
    # centered away from the origin so no edge line crosses it
    box = Box(np.array([2.0, 0.9, 0.6]), np.array([0.5, 0.5, 0.5]))
    defaults = dict(boxes=(box,), points_per_face=4.0, lines_per_face=0, seed=1)
    defaults.update(kw)
    return SceneSpec(**defaults)


def new_rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# scene construction


def test_points_lie_exactly_on_faces():
    scene = build_scene(unit_cube_spec(points_per_face=20.0))
    box = scene.boxes[0]
    assert len(scene.points) > 0
    for p in scene.points.position:
        # exactly one coordinate sits bit-exactly on a face plane, the
        # others stay inside the box
        on_face = [
            p[k] == box.min[k] or p[k] == box.max[k] for k in range(3)
        ]
        assert any(on_face)
        assert np.all(p >= box.min) and np.all(p <= box.max)


def test_same_seed_reproduces_landmark_tables():
    a = build_scene(unit_cube_spec(points_per_face=15.0, lines_per_face=3))
    b = build_scene(unit_cube_spec(points_per_face=15.0, lines_per_face=3))
    assert len(a.points) == len(b.points)
    assert np.array_equal(a.points.id, b.points.id)
    assert np.array_equal(a.points.position, b.points.position)
    assert np.array_equal(a.lines.id, b.lines.id)
    assert np.array_equal(a.lines.endpoints, b.lines.endpoints)
    assert a.parallel_groups == b.parallel_groups


def test_cube_edges_form_three_groups_of_four():
    scene = build_scene(unit_cube_spec(points_per_face=0.4, lines_per_face=0))
    assert len(scene.lines) == 12
    assert sorted(len(ids) for ids in scene.parallel_groups.values()) == [4, 4, 4]
    for gid, ids in scene.parallel_groups.items():
        ends = scene.lines.endpoints[scene.lines.find(ids)[0]]
        dirs = [d / np.linalg.norm(d) for d in ends[:, 1] - ends[:, 0]]
        for d in dirs[1:]:
            assert np.array_equal(d, dirs[0])  # exact, by construction


def test_zero_densities_raise_empty_scene():
    with pytest.raises(SceneError):
        build_scene(unit_cube_spec(points_per_face=0.0, lines_per_face=0))


def test_box_containing_origin_rejected():
    with pytest.raises(SceneError):
        SceneSpec(boxes=(Box(np.zeros(3), np.ones(3)),))


def test_through_origin_edge_rejected():
    # faces at y=0 and z=0 put an x-edge straight through the origin
    with pytest.raises(SceneError):
        SceneSpec(boxes=(Box(np.array([3.0, 0.5, 0.5]), np.array([0.5, 0.5, 0.5])),))


@pytest.mark.parametrize("center", [(1.0, 1.0, 5.0), (-1.0, 1.0, -5.0)])
def test_edge_through_origin_is_refused_with_its_box(center):
    # faces at x = 0 and y = 0 meet in a z-edge whose line runs through the
    # world origin
    with pytest.raises(SceneError) as info:
        SceneSpec(boxes=(Box(center, (1.0, 1.0, 1.0)),))
    assert str(info.value) == "boxes[0] has an edge through the world origin; offset the box"


def test_edge_beside_origin_is_accepted():
    # 1e-8 m off the origin in x: above the 1e-9 bound
    SceneSpec(boxes=(Box((1.0 + 1e-8, 1.0, 5.0), (1.0, 1.0, 1.0)),))


# ---------------------------------------------------------------------------
# trajectories


def test_orbit_positions_and_lookat():
    spec = TrajectorySpec(kind="orbit", frame_count=10, radius=5.0, height=2.0,
                          target=(0.0, 0.0, 0.5))
    traj = build_trajectory(spec)
    assert len(traj) == 10
    for i, T in enumerate(traj):
        theta = 2 * np.pi * i / 10
        expected = np.array([5 * np.cos(theta), 5 * np.sin(theta), 2.0])
        np.testing.assert_allclose(T.center(), expected, atol=1e-12)
        # optical axis (camera z in world coordinates) points at the target
        forward = T.rotation().T @ np.array([0.0, 0.0, 1.0])
        to_target = np.array([0, 0, 0.5]) - expected
        np.testing.assert_allclose(
            forward, to_target / np.linalg.norm(to_target), atol=1e-12
        )


def test_corridor_legs_are_pure_translation():
    spec = TrajectorySpec(kind="corridor", frame_count=60, leg_x=8.0, leg_y=6.0,
                          turn_rate_deg=30.0, height=1.2, lookat="forward")
    traj = build_trajectory(spec)
    assert len(traj) == 60
    rotations = 0
    for a, b in zip(traj, traj[1:]):
        rel = b.compose(a.inverse())
        ang = np.degrees(np.arccos(np.clip((np.trace(rel.rotation()) - 1) / 2, -1, 1)))
        if ang > 1e-9:
            rotations += 1
        else:
            # leg frames: relative rotation is the identity
            np.testing.assert_allclose(rel.rotation(), np.eye(3), atol=1e-12)
    assert rotations == 12  # 4 corners x ceil(90/30) turning steps


def test_wave_zero_amplitude_is_straight():
    spec = TrajectorySpec(kind="wave", frame_count=20, amplitude=0.0,
                          start=(-3.0, -4.0, 1.0), end=(3.0, -4.0, 1.0))
    traj = build_trajectory(spec)
    centers = np.array([T.center() for T in traj])
    np.testing.assert_allclose(centers[:, 1], -4.0, atol=1e-12)
    np.testing.assert_allclose(centers[:, 2], 1.0, atol=1e-12)
    assert np.all(np.diff(centers[:, 0]) > 0)


def test_wave_respects_amplitude():
    spec = TrajectorySpec(kind="wave", frame_count=200, amplitude=0.7, wavelength=2.0,
                          start=(-5.0, -4.0, 1.0), end=(5.0, -4.0, 1.0))
    centers = np.array([T.center() for T in build_trajectory(spec)])
    assert np.max(np.abs(centers[:, 1] + 4.0)) == pytest.approx(0.7, abs=0.01)


def reference_lookat(position, target, up=(0.0, 0.0, 1.0)):
    """The per-camera look-at the stacked ``_lookat`` replaced."""
    position = np.asarray(position, dtype=float)
    f = np.asarray(target, dtype=float) - position
    nf = np.linalg.norm(f)
    if nf < 1e-12:
        raise ConfigError("look-at target coincides with the camera position")
    f = f / nf
    up = np.asarray(up, dtype=float)
    x = np.cross(f, up)
    if np.linalg.norm(x) < 1e-9:  # looking straight up/down
        x = np.cross(f, np.array([0.0, 1.0, 0.0]))
    x = x / np.linalg.norm(x)
    y = np.cross(f, x)
    R_cw = np.column_stack([x, y, f]).T
    return R_cw, -R_cw @ position


def reference_corridor_waypoints(spec):
    """(position, heading) per frame of the circuit, frame by frame."""
    hx, hy, z = spec.leg_x / 2.0, spec.leg_y / 2.0, spec.height
    corners = [np.array([-hx, -hy, z]), np.array([hx, -hy, z]),
               np.array([hx, hy, z]), np.array([-hx, hy, z])]
    headings = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                np.array([-1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0])]
    corner_frames = math.ceil(90.0 / spec.turn_rate_deg) if spec.turn_rate_deg > 0 else 0
    leg_budget = spec.frame_count - 4 * corner_frames
    if leg_budget < 4:
        raise ConfigError("frame_count too small for the corner turn rate")
    lengths = [spec.leg_x, spec.leg_y, spec.leg_x, spec.leg_y]
    leg_frames = [max(1, int(round(leg_budget * L / sum(lengths)))) for L in lengths]
    leg_frames[3] += leg_budget - sum(leg_frames)
    if leg_frames[3] < 1:
        raise ConfigError("frame_count too small for the corridor circuit")
    frames = []
    for leg in range(4):
        a, b, h = corners[leg], corners[(leg + 1) % 4], headings[leg]
        n = leg_frames[leg]
        frames += [(a + (b - a) * (k / n), h) for k in range(n)]
        for k in range(1, corner_frames + 1):
            ang = math.radians(min(k * spec.turn_rate_deg, 90.0))
            c, s = math.cos(ang), math.sin(ang)
            heading = np.array([c * h[0] - s * h[1], s * h[0] + c * h[1], 0.0])
            frames.append((b.copy(), headings[(leg + 1) % 4] if k == corner_frames else heading))
    return frames[: spec.frame_count]


def reference_build_trajectory(spec):
    """The per-frame trajectory builder the stacked one replaced: one
    look-at per camera."""
    n = spec.frame_count
    target = np.asarray(spec.target, dtype=float)
    views = []
    if spec.kind == "wave":
        start, end = np.asarray(spec.start, dtype=float), np.asarray(spec.end, dtype=float)
        path = end - start
        length = float(np.linalg.norm(path))
        if length < 1e-9:
            raise ConfigError("wave path start and end coincide")
        direction = path / length
        lateral = np.cross(np.array([0.0, 0.0, 1.0]), direction)
        if np.linalg.norm(lateral) < 1e-9:
            raise ConfigError("wave path must not be vertical")
        lateral = lateral / np.linalg.norm(lateral)
        for i in range(n):
            f = i / (n - 1)
            p = start + f * path + spec.amplitude * math.sin(
                2.0 * math.pi * (f * length) / spec.wavelength) * lateral
            views.append(reference_lookat(p, p + direction if spec.lookat == "forward" else target))
    elif spec.kind == "orbit":
        for i in range(n):
            theta = 2.0 * math.pi * i / n
            p = np.array([target[0] + spec.radius * math.cos(theta),
                          target[1] + spec.radius * math.sin(theta), spec.height])
            views.append(reference_lookat(p, target))
    else:
        for p, heading in reference_corridor_waypoints(spec):
            views.append(reference_lookat(p, target if spec.lookat == "center" else p + heading))
    R, t = zip(*views)
    return [Pose(q, t_i) for q, t_i in zip(simulator.matrix_to_quat(np.array(R)), t)]


# odd shapes of each kind: a slanted and a vertical-fallback wave, an
# off-center orbit, square, long-thin and short-wide circuits with
# instantaneous, exact, 90-degree and overshooting turn rates
TRAJECTORY_VARIANTS = {
    "wave": [dict(amplitude=0.8, wavelength=2.5, target=(0.4, 0.2, 0.7)),
             dict(amplitude=0.37, wavelength=0.7, start=(-3.1, 2.2, 0.4), end=(4.3, -1.9, 2.6),
                  target=(0.3, -0.1, 1.1)),
             dict(start=(0.0, 0.0, 0.0), end=(1.0, 0.0, 0.0), target=(0.0, 0.0, 5.0))],
    "orbit": [dict(), dict(radius=2.3, height=-0.7, target=(0.9, -1.3, 0.25))],
    "corridor": [dict(leg_x=lx, leg_y=ly, height=1.2, turn_rate_deg=r, target=(0.3, 0.2, 0.9))
                 for lx, ly in ((8.0, 6.0), (1.0, 13.0), (3.3, 0.7))
                 for r in (0.0, 18.0, 90.0, 7.0, 35.0, 120.0)],
}


@pytest.mark.parametrize("kind, lookat", [("wave", "center"), ("wave", "forward"),
                                          ("orbit", "center"), ("corridor", "center"),
                                          ("corridor", "forward")])
def test_stacked_trajectory_equals_per_frame_reference(kind, lookat):
    for frames in (2, 7, 24, 100, 333):
        for variant in TRAJECTORY_VARIANTS[kind]:
            spec = TrajectorySpec(kind, frames, lookat=lookat, **variant)
            try:
                expected = reference_build_trajectory(spec)
            except ConfigError as e:
                with pytest.raises(ConfigError, match=f"^{re.escape(str(e))}"):
                    build_trajectory(spec)
                continue
            got = build_trajectory(spec)
            assert len(got) == len(expected) == frames, spec
            for field in ("q", "t"):
                want = np.array([getattr(T, field) for T in expected]).tobytes()
                assert getattr(got, field).tobytes() == want, spec
                assert np.array([getattr(T, field) for T in got]).tobytes() == want, spec


@pytest.mark.parametrize(
    "spec, match",
    [
        pytest.param(TrajectorySpec("wave", 11, start=(-5.0, 0.0, 1.0), end=(5.0, 0.0, 1.0),
                                    target=(0.0, 0.0, 1.0)),
                     "^look-at target coincides with the camera position at frame 5$",
                     id="wave-through-target"),
        pytest.param(TrajectorySpec("corridor", 60, leg_x=8.0, leg_y=6.0, height=1.2,
                                    turn_rate_deg=30.0, target=(4.0, -3.0, 1.2)),
                     "^look-at target coincides with the camera position at frame 14$",
                     id="corridor-corner-on-target"),
        pytest.param(TrajectorySpec("wave", 10, start=(1.0, 2.0, 3.0), end=(1.0, 2.0, 3.0)),
                     "^wave path start and end coincide$", id="wave-start-is-end"),
        pytest.param(TrajectorySpec("wave", 10, start=(1.0, 2.0, 0.0), end=(1.0, 2.0, 3.0)),
                     "^wave path must not be vertical$", id="wave-vertical"),
        pytest.param(TrajectorySpec("corridor", 7, leg_x=1.0, leg_y=13.0, turn_rate_deg=90.0),
                     "^frame_count too small for the corner turn rate$",
                     id="corridor-turn-rate"),
        pytest.param(TrajectorySpec("corridor", 8, leg_x=1.0, leg_y=13.0, turn_rate_deg=90.0),
                     "^frame_count too small for the corridor circuit$", id="corridor-circuit"),
    ],
)
def test_trajectory_refusals_give_their_exact_text(spec, match):
    with pytest.raises(ConfigError, match=match):
        build_trajectory(spec)


def test_camera_looking_straight_up_takes_its_x_axis_from_world_y():
    spec = TrajectorySpec("wave", 5, start=(0.0, 0.0, 0.0), end=(1.0, 0.0, 0.0),
                          target=(0.0, 0.0, 5.0))
    R = build_trajectory(spec)[0].rotation()
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
    # the optical axis (camera z in world coordinates) points at the target
    np.testing.assert_allclose(R.T @ [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# rendering


def scene_with_points(points, boxes):
    return Scene(
        boxes=tuple(boxes),
        points=Points(np.arange(len(points)), points),
        lines=Segments([], []),
        parallel_groups={},
    )


def scene_with_lines(segments, boxes):
    return Scene(
        boxes=tuple(boxes),
        points=Points([], []),
        lines=Segments(np.arange(len(segments)), segments),
        parallel_groups={},
    )


# a box well away from every test segment below, so nothing is occluded
FAR_BOX = Box(np.array([0.0, 8.0, 10.0]), np.array([0.5, 0.5, 0.5]))


def test_point_behind_camera_not_observed():
    box = Box(np.array([0.0, 0.3, 2.5]), np.array([0.4, 0.4, 0.5]))
    scene = scene_with_points([[0.0, 0.0, -2.0]], [box])
    obs = render_frame(scene, IDENTITY, K)
    assert obs.points == []


def test_point_on_near_face_observed_far_face_occluded():
    box = Box(np.array([0.0, 0.3, 2.5]), np.array([0.4, 0.4, 0.5]))
    near = [0.0, 0.0, 2.0]  # on the z=2 face, facing the camera
    far = [0.0, 0.0, 3.0]  # on the z=3 face, behind the box body
    scene = scene_with_points([near, far], [box])
    obs = render_frame(scene, IDENTITY, K)
    ids = [p.landmark_id for p in obs.points]
    assert ids == [0]
    np.testing.assert_allclose(obs.points[0].u, [320.0, 240.0], atol=1e-9)
    assert obs.points[0].d == pytest.approx(2.0, abs=1e-12)


def test_point_outside_depth_window_not_observed():
    box = Box(np.array([0.0, 0.3, 30.0]), np.array([0.4, 0.4, 0.5]))
    scene = scene_with_points([[0.0, 0.0, 29.5]], [box])
    obs = render_frame(scene, IDENTITY, K, RenderConfig(z_far=20.0))
    assert obs.points == []


def test_line_behind_near_plane_dropped():
    # both endpoints at z < z_near: nothing of the segment is in view
    scene = scene_with_lines([[[0.1, 0.0, -1.0], [0.1, 0.0, 0.05]]], [FAR_BOX])
    assert render_frame(scene, IDENTITY, K, RenderConfig(z_near=0.1)).lines == []


def test_line_crossing_near_plane_clipped_at_plane():
    # x = 0.1, y = 0 for z in [-1, 3]; the part in front of z_near = 0.5
    # projects from u = 100 * 0.1 / 0.5 + 320 = 340 to 100 * 0.1 / 3 + 320
    scene = scene_with_lines([[[0.1, 0.0, -1.0], [0.1, 0.0, 3.0]]], [FAR_BOX])
    obs = render_frame(scene, IDENTITY, K, RenderConfig(z_near=0.5))
    assert len(obs.lines) == 1
    lm = obs.lines[0]
    assert lm.start.d == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(lm.start.u, [340.0, 240.0], atol=1e-9)
    assert lm.end.d == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(lm.end.u, [320.0 + 10.0 / 3.0, 240.0], atol=1e-9)


@pytest.mark.parametrize("axis", [0, 1])
def test_segment_parallel_to_image_edge(axis):
    # at depth 2 a segment along world axis `axis` keeps the other pixel
    # coordinate fixed, so two of its four clip constraints have p == 0;
    # offset 0.2 m puts it 10 px off the principal point (inside), offset
    # -10 m puts it 500 px off (outside the image on that side only)
    along, across = axis, 1 - axis
    cfg = RenderConfig(z_near=0.1, min_line_len=15.0)

    def segment(offset):
        a, b = np.zeros(3), np.zeros(3)
        a[2] = b[2] = 2.0
        a[along], b[along] = -1.0, 1.0
        a[across] = b[across] = offset
        return [a, b]

    outside = scene_with_lines([segment(-10.0)], [FAR_BOX])
    assert render_frame(outside, IDENTITY, K, cfg).lines == []
    obs = render_frame(scene_with_lines([segment(0.2)], [FAR_BOX]), IDENTITY, K, cfg)
    assert len(obs.lines) == 1
    c = np.array([320.0, 240.0])
    start, end = c.copy(), c.copy()
    start[along], end[along] = c[along] - 50.0, c[along] + 50.0
    start[across] = end[across] = c[across] + 10.0
    np.testing.assert_allclose(obs.lines[0].start.u, start, atol=1e-9)
    np.testing.assert_allclose(obs.lines[0].end.u, end, atol=1e-9)
    assert obs.lines[0].start.d == obs.lines[0].end.d == pytest.approx(2.0, abs=1e-12)


def reference_liang_barsky(u1, u2, lo, hi):
    d, t0, t1 = u2 - u1, 0.0, 1.0
    for p, q in ((-d[0], u1[0] - lo[0]), (d[0], hi[0] - u1[0]),
                 (-d[1], u1[1] - lo[1]), (d[1], hi[1] - u1[1])):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    return None if t0 >= t1 else (t0, t1)


def reference_render_lines(scene, pose, intr, cfg):
    """The per-line loop the batched renderer replaced: z_near clip,
    sequential Liang-Barsky with early exits, endpoint recompute, length
    gate, then one occlusion call per line. Returns (id, u_s, d_s, u_e,
    d_e) per observed line."""
    R, out = pose.rotation(), []
    lo, hi = np.array([1e-6, 1e-6]), np.array([intr.width - 1e-6, intr.height - 1e-6])
    for lid, (start, end) in zip(scene.lines.id.tolist(), scene.lines.endpoints):
        A, B = R @ start + pose.t, R @ end + pose.t
        if A[2] < cfg.z_near and B[2] < cfg.z_near:
            continue
        if A[2] < cfg.z_near or B[2] < cfg.z_near:
            P = A + (cfg.z_near - A[2]) / (B[2] - A[2]) * (B - A)
            A, B = (P, B) if A[2] < cfg.z_near else (A, P)
        u1 = np.array([intr.fx * A[0] / A[2] + intr.cx, intr.fy * A[1] / A[2] + intr.cy])
        u2 = np.array([intr.fx * B[0] / B[2] + intr.cx, intr.fy * B[1] / B[2] + intr.cy])
        clip = reference_liang_barsky(u1, u2, lo, hi)
        if clip is None:
            continue
        t0, t1 = clip
        ends = []
        for tau in (t0, t1):
            denom = B[2] + tau * (A[2] - B[2])
            if denom <= 0:
                break
            P = A + tau * A[2] / denom * (B - A)
            if not (cfg.z_near - 1e-9 <= P[2] <= cfg.z_far):
                break
            u = np.array([intr.fx * P[0] / P[2] + intr.cx, intr.fy * P[1] / P[2] + intr.cy])
            ends.append((u, P[2], R.T @ (P - pose.t)))
        if len(ends) < 2 or np.linalg.norm(ends[1][0] - ends[0][0]) < cfg.min_line_len:
            continue
        if np.any(occluded(pose.center(), np.array([ends[0][2], ends[1][2]]), scene.boxes)):
            continue
        out.append((lid, ends[0][0], ends[0][1], ends[1][0], ends[1][1]))
    return out


@pytest.mark.parametrize("z_near", [1.0, 2.5])
def test_batched_lines_equal_per_line_reference_bit_for_bit(z_near):
    # random poses in and around the box preset: lines cross the near
    # plane, leave the image on every side and hide behind boxes
    cfg = load_preset("box")
    render = RenderConfig(z_near=z_near, z_far=cfg.render.z_far, min_line_len=5.0)
    scene = build_scene(cfg.scene)
    rng = new_rng(4)
    poses = list(build_trajectory(cfg.trajectory)[::25])
    for _ in range(30):
        q = rng.normal(size=4)
        T = Pose(q / np.linalg.norm(q), np.zeros(3))
        poses.append(Pose(T.q, -T.rotation() @ rng.uniform(-6.0, 6.0, size=3)))
    observed = near_clipped = 0
    for pose in poses:
        got = [
            (lm.landmark_id, lm.start.u, lm.start.d, lm.end.u, lm.end.d)
            for lm in render_frame(scene, pose, cfg.intrinsics, render).lines
        ]
        expected = reference_render_lines(scene, pose, cfg.intrinsics, render)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[2] == e[2] and g[4] == e[4]
            assert np.array_equal(g[1], e[1]) and np.array_equal(g[3], e[3])
            near_clipped += g[2] == pytest.approx(z_near) or g[4] == pytest.approx(z_near)
        observed += len(got)
    assert observed > 100 and near_clipped > 0


def test_occluded_over_several_boxes_is_or_of_single_boxes():
    boxes = [
        Box(np.array([0.0, 0.0, 3.0]), np.array([0.5, 0.5, 0.5])),
        Box(np.array([2.0, 0.0, 3.0]), np.array([0.5, 0.5, 0.5])),
        Box(np.array([0.0, 2.0, 5.0]), np.array([0.3, 0.3, 0.3])),
    ]
    cam = np.zeros(3)
    # behind box 0, behind box 1, in front of box 0, clear of every box
    targets = np.array([[0.0, 0.0, 6.0], [4.0, 0.0, 6.0], [0.0, 0.0, 2.0], [-3.0, -3.0, 6.0]])
    np.testing.assert_array_equal(occluded(cam, targets, boxes), [True, True, False, False])

    rng = new_rng(3)
    targets = rng.uniform([-1.5, -1.0, 2.0], [3.0, 3.0, 7.0], size=(500, 3))
    single = [occluded(cam, targets, [box]) for box in boxes]
    expected = single[0] | single[1] | single[2]
    assert 50 < expected.sum() < 450
    np.testing.assert_array_equal(occluded(cam, targets, boxes), expected)
    assert occluded(cam, np.empty((0, 3)), boxes).shape == (0,)


def test_occluded_ray_outside_a_slab_misses_the_box():
    box = Box((5.0, 5.0, 0.0), (1.0, 1.0, 1.0))
    # y and z components are 0: the ray along x at y = 0 lies outside the
    # box's y slab [4, 6] for its whole length and passes beside the box
    assert not occluded(np.zeros(3), [[10.0, 0.0, 0.0]], [box]).any()
    # inside the y and z slabs for its whole length, it crosses the box
    assert occluded([0.0, 5.0, 0.0], [[10.0, 5.0, 0.0]], [box]).all()
    # outside on one axis and inside on the other: beside the box again
    assert not occluded([0.0, 5.0, 3.0], [[10.0, 5.0, 3.0]], [box]).any()


def test_occluded_with_a_center_per_target_equals_one_call_per_center(monkeypatch):
    boxes = [
        Box(np.array([0.0, 0.0, 3.0]), np.array([0.5, 0.5, 0.5])),
        Box(np.array([2.0, 0.0, 3.0]), np.array([0.5, 0.5, 0.5])),
        Box(np.array([0.0, 2.0, 5.0]), np.array([0.3, 0.3, 0.3])),
    ]
    rng = new_rng(12)
    centers = rng.uniform([-1.0, -1.0, -1.0], [1.0, 1.0, 0.5], size=(300, 3))
    targets = rng.uniform([-1.5, -1.0, 2.0], [3.0, 3.0, 7.0], size=(300, 3))
    # axis-parallel rays: some components exactly 0, inside and outside slabs
    targets[:40, :2] = centers[:40, :2]
    targets[40:80, 1] = centers[40:80, 1]
    one_by_one = np.array([occluded(c, t[None], boxes)[0] for c, t in zip(centers, targets)])
    assert 30 < one_by_one.sum() < 270 and one_by_one[:40].any() and not one_by_one[:40].all()
    np.testing.assert_array_equal(occluded(centers, targets, boxes), one_by_one)
    # the pair bound only splits the work: 4 pairs is one target at a time
    # over three boxes, 20 pairs six targets
    for pairs in (4, 20):
        monkeypatch.setattr(simulator, "_OCCLUSION_PAIRS", pairs)
        np.testing.assert_array_equal(occluded(centers, targets, boxes), one_by_one)


def first_face_hit(center, target, boxes, margin=1e-9):
    """Oracle: intersect the ray with every face rectangle directly.

    Hits must land strictly inside the rectangle; grazing contact along a
    face or edge does not cross the interior and does not occlude.
    """
    center = np.asarray(center, float)
    target = np.asarray(target, float)
    D = target - center
    best = np.inf
    for box in boxes:
        lo, hi = box.min, box.max
        for axis in range(3):
            for plane in (lo[axis], hi[axis]):
                if D[axis] == 0:
                    continue
                t = (plane - center[axis]) / D[axis]
                if t <= 0 or t >= best:
                    continue
                X = center + t * D
                b, c = (axis + 1) % 3, (axis + 2) % 3
                if (
                    lo[b] + margin < X[b] < hi[b] - margin
                    and lo[c] + margin < X[c] < hi[c] - margin
                ):
                    best = t
    return best


def test_occlusion_soundness_against_face_oracle():
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)
    checked = 0
    for pose in traj[::10]:
        obs = render_frame(scene, pose, cfg.intrinsics, cfg.render)
        cam = pose.center()
        for pm in obs.points:
            target = scene.points[pm.landmark_id].position
            assert first_face_hit(cam, target, scene.boxes) >= 1.0 - 1e-9
            checked += 1
        for lm in obs.lines:
            for rec in (lm.start, lm.end):
                # reconstruct the endpoint's world position from the record
                p_c = np.array(
                    [
                        (rec.u[0] - cfg.intrinsics.cx) / cfg.intrinsics.fx * rec.d,
                        (rec.u[1] - cfg.intrinsics.cy) / cfg.intrinsics.fy * rec.d,
                        rec.d,
                    ]
                )
                target = pose.rotation().T @ (p_c - pose.t)
                assert first_face_hit(cam, target, scene.boxes) >= 1.0 - 1e-6
                checked += 1
    assert checked > 500


def test_rendered_lines_meet_length_and_bounds():
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)
    seen = 0
    for pose in traj[::7]:
        obs = render_frame(scene, pose, cfg.intrinsics, cfg.render)
        for lm in obs.lines:
            assert np.linalg.norm(lm.end.u - lm.start.u) >= cfg.render.min_line_len
            assert cfg.intrinsics.contains(lm.start.u) and cfg.intrinsics.contains(lm.end.u)
            assert cfg.render.z_near - 1e-9 <= lm.start.d <= cfg.render.z_far
            seen += 1
    assert seen > 50


# ---------------------------------------------------------------------------
# noise model


def test_perturb_pixel_zero_sigma_identity():
    rng = new_rng(1)
    u = np.array([100.0, 200.0])
    np.testing.assert_array_equal(perturb_pixel(u, 0.0, rng), u)


def test_perturb_pixel_reproducible():
    a = perturb_pixel(np.zeros(2), 1.0, new_rng(5))
    b = perturb_pixel(np.zeros(2), 1.0, new_rng(5))
    assert np.array_equal(a, b)


def test_perturb_pixel_sample_std():
    rng = new_rng(6)
    draws = np.array([perturb_pixel(np.zeros(2), 1.0, rng) for _ in range(10**5)])
    for axis in range(2):
        assert 0.99 <= draws[:, axis].std() <= 1.01


def test_perturb_depth_bias_values():
    # alpha forced to zero via sigma_d = 0: d = m / (m / d_hat + 0.5)
    rng = new_rng(7)
    assert perturb_depth(2.0, 0.0, 35130.0, rng) == pytest.approx(1.999943, abs=1e-6)
    assert perturb_depth(1.0, 0.0, 35130.0, rng) == pytest.approx(0.9999858, abs=1e-7)
    # the +0.5 disparity offset biases every depth, even without noise
    for d_hat in (0.5, 1.0, 3.0, 10.0):
        assert perturb_depth(d_hat, 0.0, 35130.0, new_rng(8)) != d_hat


def test_perturb_depth_drops_invalid():
    # huge sigma eventually drives d_hat + alpha negative -> None
    rng = new_rng(9)
    out = [perturb_depth(0.05, 1.0, 35130.0, rng) for _ in range(200)]
    assert any(v is None for v in out)
    assert all(v is None or v > 0 for v in out)


# ---------------------------------------------------------------------------
# sequence generation


def test_noise_disabled_measurements_are_exact():
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)[:10]
    seq = generate_sequence(
        scene, traj, NoiseParams(enabled=False), cfg.intrinsics, cfg.render
    )
    for f in seq.frames:
        pose = seq.gt_trajectory[f.frame_id]
        R = pose.rotation()
        for pm in f.points:
            P_c = R @ seq.gt_points[pm.landmark_id].position + pose.t
            u = np.array(
                [
                    cfg.intrinsics.fx * P_c[0] / P_c[2] + cfg.intrinsics.cx,
                    cfg.intrinsics.fy * P_c[1] / P_c[2] + cfg.intrinsics.cy,
                ]
            )
            np.testing.assert_allclose(pm.u, u, atol=1e-9)
            assert pm.d == pytest.approx(P_c[2], abs=1e-12)


def test_frame_data_holds_checked_read_only_arrays():
    frame = FrameData(2, [4, 1], [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0],
                      [], [], [])
    assert frame.line_pixels.shape == (0, 2, 2) and frame.line_depths.shape == (0, 2)
    with pytest.raises(ValueError, match="read-only"):
        frame.point_pixels[0, 0] = 0.0
    with pytest.raises(ValueError, match="point_pixels must be float64 of shape"):
        FrameData(0, [4], [1.0, 2.0], [1.0], [], [], [])
    with pytest.raises(ValueError, match="point_ids must be int64"):
        FrameData(0, [4.5], [[1.0, 2.0]], [1.0], [], [], [])
    with pytest.raises(ValueError, match=r"point_pixels must be float64 of shape \(2, 2\)"):
        FrameData(0, [4, 5], [[1.0, 2.0]], [1.0, 2.0], [], [], [])
    # row values are not the record's to check: validate refuses them
    frame = FrameData(0, [0, 0], [[np.nan, 2.0], [1.0, 2.0]], [1.0, -0.5], [], [], [])
    assert frame.point_depths.tolist() == [1.0, -0.5]


def good_frame(frame_id):
    """A frame that passes ``validate``: point 0 and line 3."""
    return FrameData(frame_id, [0], [[1.0, 2.0]], [1.0],
                     [3], [[[1.0, 2.0], [5.0, 2.0]]], [[1.0, 1.0]])


def hand_built(*frames):
    """A sequence of ``frames`` on the camera ``K`` whose landmark
    records hold the ids 0-9."""
    identities = Trajectory(np.tile(IDENTITY.q, (len(frames), 1)), np.zeros((len(frames), 3)))
    return simulator.Sequence(K, identities, list(frames),
                              Points(range(10), np.ones((10, 3))),
                              Segments(range(10), [[[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]] * 10), {})


@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param(dict(point_depths=[-0.5]), "nonpositive depth", id="point-depth"),
        pytest.param(dict(line_depths=[[1.0, 0.0]]), "nonpositive depth", id="line-depth"),
        pytest.param(dict(line_pixels=[[[1.0, 2.0], [1.0, 2.0]]]),
                     "line measurement endpoints coincide", id="line-endpoints"),
        pytest.param(dict(point_pixels=[[np.nan, 2.0]]), "measurement must be finite",
                     id="point-finite"),
    ],
)
def test_validate_refuses_a_bad_row_and_names_its_frame(rows, message):
    seq = hand_built(good_frame(0), dataclasses.replace(good_frame(1), **rows), good_frame(2))
    with pytest.raises(ValueError, match=f"^{message} in frame 1$"):
        seq.validate()


def test_validate_reports_the_first_fault_in_frame_order():
    point_fault = dict(point_pixels=[[np.nan, 2.0]])
    line_fault = dict(line_pixels=[[[1.0, 2.0], [1.0, 2.0]]])
    # an earlier frame wins, whatever the kind
    seq = hand_built(good_frame(0), dataclasses.replace(good_frame(1), **line_fault),
                     dataclasses.replace(good_frame(2), **point_fault))
    with pytest.raises(ValueError, match="^line measurement endpoints coincide in frame 1$"):
        seq.validate()
    # within a frame, points come before lines
    seq.frames[1] = dataclasses.replace(good_frame(1), **point_fault, **line_fault)
    with pytest.raises(ValueError, match="^measurement must be finite in frame 1$"):
        seq.validate()
    # within a kind, the first faulty row wins, with the first check it
    # fails: a known id, no repeat, then the row checks
    seq.frames[1] = FrameData(1, [5, 0, 7, 7], [[-1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
                              [1.0, -0.5, 1.0, -0.5], [], [], [])
    with pytest.raises(ValueError, match="^point measurement outside the image in frame 1$"):
        seq.validate()
    seq.frames[1] = FrameData(1, [12, 0], [[1.0, 2.0]] * 2, [-0.5, -0.5], [], [], [])
    with pytest.raises(ValueError, match="^dangling point landmark id 12 in frame 1$"):
        seq.validate()
    seq.frames[1] = FrameData(1, [0, 0], [[1.0, 2.0]] * 2, [1.0, -0.5], [], [], [])
    with pytest.raises(ValueError, match="^point landmark id 0 repeats in frame 1$"):
        seq.validate()


def test_sequence_without_frames_validates():
    hand_built().validate(15.0)


@pytest.mark.parametrize("offset", [0, 1000])
@pytest.mark.parametrize("preset", simulator.PRESET_NAMES)
def test_generated_frames_pass_validate(preset, offset):
    # generation checks no row: its rows are valid by construction
    cfg = load_preset(preset)
    scene = build_scene(dataclasses.replace(cfg.scene, seed=cfg.scene.seed + offset))
    traj = build_trajectory(cfg.trajectory)
    for enabled in (True, False):
        noise = dataclasses.replace(cfg.noise, enabled=enabled)
        seq = generate_sequence(scene, traj, noise, cfg.intrinsics, cfg.render)
        seq.validate(cfg.render.min_line_len)
    rendered = [render_frame(scene, pose, cfg.intrinsics, cfg.render, i)
                for i, pose in enumerate(traj)]
    dataclasses.replace(seq, frames=rendered).validate(cfg.render.min_line_len)


def test_noisy_generation_builds_one_frame_per_frame(monkeypatch):
    built = []

    def counting_frame_data(frame_id, *columns):
        built.append(frame_id)
        return FrameData(frame_id, *columns)

    monkeypatch.setattr(simulator, "FrameData", counting_frame_data)
    cfg = load_preset("box")
    traj = build_trajectory(cfg.trajectory)
    seq = generate_sequence(build_scene(cfg.scene), traj, cfg.noise, cfg.intrinsics, cfg.render)
    assert cfg.noise.enabled and seq.report.dropped_lines > 0
    assert built == list(range(len(traj)))


def with_fault(frame, kind, fault):
    """A copy of ``frame`` whose first ``kind`` ("point" or "line") row has
    ``fault``."""
    columns = {f.name: getattr(frame, f.name).copy()
               for f in dataclasses.fields(frame) if f.name != "frame_id"}
    ids, pixels = columns[f"{kind}_ids"], columns[f"{kind}_pixels"]
    end = pixels[0] if kind == "point" else pixels[0, 1]
    if fault == "repeat":
        for name in (f"{kind}_ids", f"{kind}_pixels", f"{kind}_depths"):
            columns[name] = np.concatenate([columns[name][:1], columns[name]])
    elif fault == "dangling":
        ids[0] = 999999
    elif fault == "outside":
        end[0] = -1.0
    else:  # short
        end[:] = pixels[0, 0] + 1.0
    return FrameData(frame.frame_id, **columns)


@pytest.mark.parametrize(
    "kind, fault, match",
    [
        pytest.param("point", "repeat", r"^point landmark id \d+ repeats in frame 1$",
                     id="points"),
        pytest.param("line", "repeat", r"^line landmark id \d+ repeats in frame 1$", id="lines"),
        pytest.param("point", "dangling", "dangling point landmark id 999999 in frame 1",
                     id="points-dangling"),
        pytest.param("line", "dangling", "dangling line landmark id 999999 in frame 1",
                     id="lines-dangling"),
        pytest.param("point", "outside", "point measurement outside the image in frame 1",
                     id="points-outside"),
        pytest.param("line", "outside", "line measurement outside the image in frame 1",
                     id="lines-outside"),
        pytest.param("line", "short", "shorter than min_line_len in frame 1", id="lines-short"),
    ],
)
def test_validate_rejects_landmark_repeated_in_a_frame(kind, fault, match):
    # the frame takes any row; validate refuses it and names the frame
    cfg = load_preset("box")
    traj = build_trajectory(cfg.trajectory)[:2]
    seq = generate_sequence(build_scene(cfg.scene), traj, cfg.noise, cfg.intrinsics, cfg.render)
    seq.validate(cfg.render.min_line_len)
    seq.frames[1] = with_fault(seq.frames[1], kind, fault)
    with pytest.raises(ValueError, match=match):
        seq.validate(cfg.render.min_line_len)


def test_generation_is_deterministic():
    cfg = load_preset("box")
    seqs = []
    for _ in range(2):
        scene = build_scene(cfg.scene)
        traj = build_trajectory(cfg.trajectory)[:15]
        seqs.append(generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render))
    a, b = seqs
    for fa, fb in zip(a.frames, b.frames):
        assert len(fa.points) == len(fb.points) and len(fa.lines) == len(fb.lines)
        for pa, pb in zip(fa.points, fb.points):
            assert pa.landmark_id == pb.landmark_id
            assert np.array_equal(pa.u, pb.u) and pa.d == pb.d
        for la, lb in zip(fa.lines, fb.lines):
            assert la.landmark_id == lb.landmark_id
            assert np.array_equal(la.start.u, lb.start.u) and la.start.d == lb.start.d
            assert np.array_equal(la.end.u, lb.end.u) and la.end.d == lb.end.d


def files_sha256(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(f"{path.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


# sha256 over the files write_sequence writes for each shipped preset at its
# shipped seed, recorded with the per-measurement renderer and noise draws
# that the batched code replaced; any moved draw or changed bit fails here
GOLDEN_SHA256 = {
    "sphere": "2ea13e0c427bfa952f2e4c0b984e87e7df8eddc3a632cd7ec021e5fba14b5f7c",
    "box": "fa51aecf7ba4d836cbc5af4831fb55ad216fb1166ff0b53008e21aeacf992789",
    "corridor": "41c0676f301abc02b945cd04b6268f8e1094680afaa50c4173e82881693a34f8",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_SHA256))
def test_written_presets_match_golden_hash(preset, tmp_path):
    cfg = load_preset(preset)
    seq = generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory),
                            cfg.noise, cfg.intrinsics, cfg.render)
    write_sequence(seq, tmp_path)
    assert files_sha256(tmp_path) == GOLDEN_SHA256[preset]


# ---------------------------------------------------------------------------
# the batched renderer and noise against the per-frame oracle


def reference_render_frame(scene, pose, intr, cfg, frame_id):
    """The per-frame renderer the batched ``_render`` replaced: one pose's
    points and lines as arrays, one ``occluded`` call each."""
    R = pose.rotation()
    cam_center = pose.center()
    points, lines = scene.points, scene.lines
    seen_points = seen_lines = np.empty(0, dtype=np.intp)
    u, z = np.empty((0, 2)), np.empty(0)
    pixels, depths = np.empty((0, 2, 2)), np.empty((0, 2))

    if len(points):
        P_w = points.position
        P_c = P_w @ R.T + pose.t
        z = P_c[:, 2]
        ok = (z >= cfg.z_near) & (z <= cfg.z_far)
        u = np.full((len(P_w), 2), np.nan)
        np.divide(P_c[:, 0], z, out=u[:, 0], where=ok)
        np.divide(P_c[:, 1], z, out=u[:, 1], where=ok)
        u[:, 0] = intr.fx * u[:, 0] + intr.cx
        u[:, 1] = intr.fy * u[:, 1] + intr.cy
        ok &= intr.contains(u)
        if np.any(ok):
            idx = np.nonzero(ok)[0]
            seen_points = idx[~occluded(cam_center, P_w[idx], scene.boxes)]

    def matvec(M, V):  # one M @ v per row
        return (np.broadcast_to(M, (len(V), 3, 3)) @ V[:, :, None])[:, :, 0]

    if len(lines):
        E = lines.endpoints
        A_c = matvec(R, E[:, 0]) + pose.t
        B_c = matvec(R, E[:, 1]) + pose.t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ok, pixels, depths, ends = simulator._clip_lines(A_c, B_c, intr, cfg)
            ok &= ~(row_norms(pixels[:, 1] - pixels[:, 0]) < cfg.min_line_len)
        idx = np.nonzero(ok)[0]
        if len(idx):
            ends_w = matvec(R.T, ends[idx].reshape(-1, 3) - pose.t)
            occ = occluded(cam_center, ends_w, scene.boxes)
            seen_lines = idx[~occ.reshape(-1, 2).any(axis=1)]

    p, q = seen_points, seen_lines
    return FrameData(frame_id, points.id[p], u[p], z[p], lines.id[q], pixels[q], depths[q])


def reference_add_noise(frame, noise, intr, cfg, rng, report):
    """The per-frame noise model the chunked one replaced: one block of
    draws per frame, (x, y, depth) per point, then (sx, sy, sd, ex, ey, ed)
    per line."""
    s, sd = noise.sigma_s, noise.sigma_d
    n, m = len(frame.point_ids), len(frame.line_ids)
    a = gaussian_noise(rng, np.concatenate([np.tile([s, s, sd], n), np.tile([s, s, sd] * 2, m)]))
    P = np.column_stack([frame.point_pixels, frame.point_depths]) + a[: 3 * n].reshape(-1, 3)
    ends, ends_d = frame.line_pixels, frame.line_depths
    L = np.column_stack([ends[:, 0], ends_d[:, 0], ends[:, 1], ends_d[:, 1]])
    L += a[3 * n:].reshape(-1, 6)
    d = simulator._disparity_depth(P[:, 2], noise.m)
    keep_p = ~np.isnan(d) & intr.contains(P[:, :2])
    report.dropped_points += int(np.count_nonzero(~keep_p))
    d_s = simulator._disparity_depth(L[:, 2], noise.m)
    d_e = simulator._disparity_depth(L[:, 5], noise.m)
    keep_l = (~np.isnan(d_s) & ~np.isnan(d_e) & intr.contains(L[:, 0:2])
              & intr.contains(L[:, 3:5])
              & ~(row_norms(L[:, 3:5] - L[:, 0:2]) < cfg.min_line_len))
    report.dropped_lines += int(np.count_nonzero(~keep_l))
    return FrameData(frame.frame_id, frame.point_ids[keep_p], P[keep_p, :2], d[keep_p],
                     frame.line_ids[keep_l], L[keep_l][:, [0, 1, 3, 4]].reshape(-1, 2, 2),
                     np.column_stack([d_s, d_e])[keep_l])


def reference_generate_sequence(scene, trajectory, noise, intr, cfg):
    """(frames, report) of the per-frame generation loop."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=scene.seed, spawn_key=(1,))))
    report = GenerationReport()
    frames = []
    for frame_id, pose in enumerate(trajectory):
        frame = reference_render_frame(scene, pose, intr, cfg, frame_id)
        if noise.enabled:
            frame = reference_add_noise(frame, noise, intr, cfg, rng, report)
        if not (len(frame.point_ids) or len(frame.line_ids)):
            report.empty_frames.append(frame_id)
        frames.append(frame)
    return frames, report


FRAME_ARRAYS = ("point_ids", "point_pixels", "point_depths", "line_ids", "line_pixels",
                "line_depths")


def assert_same_frames(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.frame_id == e.frame_id
        for name in FRAME_ARRAYS:
            a, b = getattr(g, name), getattr(e, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (g.frame_id, name)


def assert_generation_matches_reference(scene, traj, noise, cfg):
    seq = generate_sequence(scene, traj, noise, cfg.intrinsics, cfg.render)
    frames, report = reference_generate_sequence(scene, traj, noise, cfg.intrinsics, cfg.render)
    assert_same_frames(seq.frames, frames)
    assert seq.report == report
    return seq


@pytest.mark.parametrize("offset", [0, 1000])
@pytest.mark.parametrize("preset", simulator.PRESET_NAMES)
def test_chunked_generation_equals_per_frame_reference(preset, offset):
    cfg = load_preset(preset)
    scene = build_scene(dataclasses.replace(cfg.scene, seed=cfg.scene.seed + offset))
    traj = build_trajectory(cfg.trajectory)
    # more than one chunk, the last one short
    assert len(traj) % max(1, simulator._CHUNK_ROWS // (len(scene.points) + len(scene.lines)))
    seq = assert_generation_matches_reference(scene, traj, cfg.noise, cfg)
    assert seq.report.dropped_points + seq.report.dropped_lines > 0
    for pose, frame in zip(traj[::9], seq.frames[::9]):
        exact = reference_render_frame(scene, pose, cfg.intrinsics, cfg.render, frame.frame_id)
        assert_same_frames([render_frame(scene, pose, cfg.intrinsics, cfg.render,
                                         frame.frame_id)], [exact])


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("frames, chunk_frames", [(10, 3), (10, 5), (1, 3), (7, 50), (4, 1)])
def test_chunk_boundaries_keep_the_per_frame_bits(monkeypatch, frames, chunk_frames, enabled):
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)[40:40 + frames]
    rows = len(scene.points) + len(scene.lines)
    monkeypatch.setattr(simulator, "_CHUNK_ROWS", chunk_frames * rows + rows // 2)
    monkeypatch.setattr(simulator, "_OCCLUSION_PAIRS", 50)
    noise = dataclasses.replace(cfg.noise, enabled=enabled)
    seq = assert_generation_matches_reference(scene, traj, noise, cfg)
    assert sum(len(f.point_ids) + len(f.line_ids) for f in seq.frames) > 50 * frames


def test_noise_disabled_frames_are_the_rendered_frames():
    cfg = load_preset("corridor")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)
    noise = dataclasses.replace(cfg.noise, enabled=False)
    seq = assert_generation_matches_reference(scene, traj, noise, cfg)
    assert seq.report.dropped_points == seq.report.dropped_lines == 0


def scene_without(kind):
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    if kind == "points":
        return dataclasses.replace(scene, points=Points([], np.empty((0, 3)))), cfg
    return dataclasses.replace(scene, lines=Segments([], np.empty((0, 2, 3))),
                               parallel_groups={}), cfg


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("kind", ["points", "lines"])
def test_scene_without_points_or_lines_renders_like_the_reference(kind, enabled):
    scene, cfg = scene_without(kind)
    traj = build_trajectory(cfg.trajectory)[::4]
    noise = dataclasses.replace(cfg.noise, enabled=enabled)
    seq = assert_generation_matches_reference(scene, traj, noise, cfg)
    other = "line_ids" if kind == "points" else "point_ids"
    assert all(len(getattr(f, f"{kind[:-1]}_ids")) == 0 for f in seq.frames)
    assert sum(len(getattr(f, other)) for f in seq.frames) > 0
    exact = reference_render_frame(scene, traj[3], cfg.intrinsics, cfg.render, 3)
    assert_same_frames([render_frame(scene, traj[3], cfg.intrinsics, cfg.render, 3)], [exact])


def test_one_draw_block_over_frames_equals_one_block_per_frame():
    # per frame: 3 slots per point, then 6 per line; some frames empty
    counts = [(5, 2), (0, 0), (17, 0), (0, 3), (1, 1), (250, 40)]
    s, sd = 1.5, 0.25
    rng = new_rng(21)
    per_frame = [gaussian_noise(rng, np.tile([s, s, sd], n + 2 * m)) for n, m in counts]
    block = gaussian_noise(new_rng(21), np.tile([s, s, sd], sum(n + 2 * m for n, m in counts)))
    assert block.tobytes() == np.concatenate(per_frame).tobytes()
    # and both leave the stream at the same place
    assert rng.standard_normal() == new_rng(21).standard_normal(len(block) + 1)[-1]


def test_empty_frame_recorded_as_warning():
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    looking_at_scene = build_trajectory(cfg.trajectory)[0]
    # second pose looks straight away from every landmark
    away = Pose.from_rt(np.eye(3), -np.array([0.0, -40.0, 1.0]))
    traj = Trajectory([looking_at_scene.q, away.q], [looking_at_scene.t, away.t])
    seq = generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render)
    assert seq.report.empty_frames == [1]
    assert len(seq.frames) == 2


def test_pixel_noise_statistics_on_sequence():
    # compare noisy measurements against exact re-projection of ground truth
    cfg = load_preset("box")
    spec = SceneSpec(boxes=cfg.scene.boxes, points_per_face=100.0, lines_per_face=0,
                     seed=cfg.scene.seed)
    scene = build_scene(spec)
    traj = build_trajectory(cfg.trajectory)
    seq = generate_sequence(scene, traj, NoiseParams(sigma_s=1.0), cfg.intrinsics,
                            cfg.render)
    errors = []
    for f in seq.frames:
        pose = seq.gt_trajectory[f.frame_id]
        R = pose.rotation()
        for pm in f.points:
            P_c = R @ seq.gt_points[pm.landmark_id].position + pose.t
            u = np.array(
                [
                    cfg.intrinsics.fx * P_c[0] / P_c[2] + cfg.intrinsics.cx,
                    cfg.intrinsics.fy * P_c[1] / P_c[2] + cfg.intrinsics.cy,
                ]
            )
            errors.append(pm.u - u)
    errors = np.array(errors)
    assert len(errors) >= 10**5
    for axis in range(2):
        assert 0.97 <= errors[:, axis].std() <= 1.03


# ---------------------------------------------------------------------------
# presets / config


def test_presets_parse_and_build():
    for name in ("sphere", "box", "corridor"):
        cfg = load_preset(name)
        assert cfg.trajectory.frame_count == 100
        scene = build_scene(cfg.scene)
        assert scene.points and scene.lines


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("camera.fx 460\n")  # missing '='
    with pytest.raises(ConfigError):
        parse_config("box = 1 2 3\n")  # box needs 6 numbers
    with pytest.raises(ConfigError):
        parse_config("")  # missing required keys


BOX_TEXT = resources.files("plbench").joinpath("presets/box.cfg").read_text()
BOX_END = len(BOX_TEXT.splitlines()) + 1  # the number of a line appended to it


def box_with(line):
    return lambda: parse_config(BOX_TEXT + line + "\n")


def corridor_with(line):
    text = resources.files("plbench").joinpath("presets/corridor.cfg").read_text()
    return lambda: parse_config(text + line + "\n")


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(box_with("box = 1 2 x 1 1 1"),
                     f"line {BOX_END}: bad box '1 2 x 1 1 1': could not convert", id="box-number"),
        pytest.param(box_with("box = 4 4 4 1 0 1"),
                     f"line {BOX_END}: bad box '4 4 4 1 0 1': box extents must be positive",
                     id="box-extent"),
        pytest.param(box_with("box = nan 4 4 1 1 1"),
                     f"line {BOX_END}: bad box 'nan 4 4 1 1 1': box center and extents must be finite",
                     id="box-nonfinite"),
        pytest.param(box_with("trajectory.target = 0 0 x"),
                     "bad value for 'trajectory.target': '0 0 x'", id="vec3-number"),
        pytest.param(box_with("trajectory.wavelength = 0"),
                     "wave wavelength must be positive, got 0.0", id="config-wavelength"),
        pytest.param(lambda: TrajectorySpec("wave", 5, wavelength=0.0),
                     "wave wavelength must be positive", id="spec-wavelength"),
        pytest.param(lambda: TrajectorySpec("wave", 5, wavelength=-1.0),
                     "wave wavelength must be positive", id="spec-negative-wavelength"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, radius=0.0),
                     "orbit radius must be positive, got 0.0", id="spec-orbit-radius"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, radius=-6.0),
                     "orbit radius must be positive, got -6.0", id="spec-negative-orbit-radius"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, radius=float("nan")),
                     "orbit radius must be positive, got nan", id="spec-nan-orbit-radius"),
        pytest.param(lambda: TrajectorySpec("corridor", 5, leg_x=0.0),
                     "corridor legs must be positive, got 0.0 x 6.0", id="spec-corridor-leg-x"),
        pytest.param(lambda: TrajectorySpec("corridor", 5, leg_y=-2.0),
                     "corridor legs must be positive, got 8.0 x -2.0", id="spec-corridor-leg-y"),
        pytest.param(box_with("camera.fx = inf"), "bad value for 'camera.fx': 'inf'",
                     id="camera-inf-focal"),
        pytest.param(box_with("camera.fx = -1"), r"camera.fx must lie in \(0, inf\), got -1.0",
                     id="camera-negative-focal"),
        pytest.param(box_with("camera.cx = 700"), r"camera.cx must lie in \(0, 640\), got 700.0",
                     id="camera-principal-point"),
        pytest.param(box_with("noise.sigma_s = nan"), "bad value for 'noise.sigma_s': 'nan'",
                     id="noise-nan-sigma"),
        pytest.param(box_with("noise.m = inf"), "bad value for 'noise.m': 'inf'", id="noise-inf-m"),
        pytest.param(corridor_with("noise.sigma_s = nan"),
                     "bad value for 'noise.sigma_s': 'nan'", id="corridor-noise-nan-sigma"),
        pytest.param(box_with("scene.points_per_face = nan"),
                     "bad value for 'scene.points_per_face': 'nan'", id="scene-nan-density"),
        pytest.param(box_with("trajectory.target = 0 inf 0"),
                     "bad value for 'trajectory.target': '0 inf 0'", id="vec3-inf"),
        pytest.param(lambda: NoiseParams(sigma_s=float("nan")), "invalid noise parameters",
                     id="spec-noise-nan-sigma"),
        pytest.param(lambda: NoiseParams(m=float("inf")), "invalid noise parameters",
                     id="spec-noise-inf-m"),
        pytest.param(box_with("noise.sigma = 5"), f"line {BOX_END}: unknown key 'noise.sigma'",
                     id="unknown-key"),
        pytest.param(box_with("trajectory.frame = 3"),
                     f"line {BOX_END}: unknown key 'trajectory.frame'", id="typo-key"),
        pytest.param(box_with("trajectory.frame_count = 3"),
                     f"line {BOX_END}: unknown key 'trajectory.frame_count'",
                     id="renamed-field-as-key"),
        pytest.param(box_with("box = 0 0 0 1 1 1"), r"scene.boxes\[3\] contains the world origin",
                     id="box-around-origin"),
        pytest.param(box_with("scene.lines_per_face = -1"),
                     "scene.lines_per_face must be finite and >= 0, got -1",
                     id="scene-negative-lines"),
        pytest.param(box_with("scene.seed = -1"), "scene.seed must be finite and >= 0, got -1",
                     id="scene-negative-seed"),
        pytest.param(box_with("render.z_near = 0"), "z_near must be finite and > 0, got 0.0",
                     id="render-zero-near"),
        pytest.param(box_with("render.z_near = -1"), "z_near must be finite and > 0, got -1.0",
                     id="render-negative-near"),
        pytest.param(box_with("render.z_near = nan"),
                     f"line {BOX_END}: bad value for 'render.z_near': 'nan'", id="render-nan-near"),
        pytest.param(box_with("render.z_far = 0.05"),
                     "z_far must be finite and > z_near = 0.1, got 0.05", id="render-far-below-near"),
        pytest.param(box_with("render.z_far = 0.1"),
                     "z_far must be finite and > z_near = 0.1, got 0.1", id="render-far-at-near"),
        pytest.param(box_with("render.min_line_len = -3"),
                     "min_line_len must be finite and >= 0, got -3.0", id="render-negative-length"),
        pytest.param(box_with("camera.width = inf"),
                     f"line {BOX_END}: bad value for 'camera.width': 'inf'", id="camera-inf-width"),
        pytest.param(box_with("camera.width = 0"), "camera.width must be an integer >= 1, got 0",
                     id="camera-zero-width"),
        pytest.param(box_with("noise.enabled = maybe"),
                     f"line {BOX_END}: bad value for 'noise.enabled': 'maybe'", id="noise-boolean"),
        pytest.param(box_with("trajectory.target = 1 2"),
                     f"line {BOX_END}: bad value for 'trajectory.target': '1 2'", id="vec3-count"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, height=float("nan")),
                     "height must be finite, got nan", id="spec-nan-height"),
        pytest.param(lambda: TrajectorySpec("corridor", 5, turn_rate_deg=float("nan")),
                     "turn_rate_deg must be finite, got nan", id="spec-nan-turn-rate"),
        pytest.param(lambda: TrajectorySpec("corridor", 60, turn_rate_deg=-18.0),
                     "^turn_rate_deg must be >= 0, got -18.0$", id="spec-negative-turn-rate"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, target=(0.0, 0.0)),
                     r"^target must be float64 of shape \(3,\), got float64 of shape \(2,\)$",
                     id="spec-two-number-target"),
        pytest.param(lambda: TrajectorySpec("wave", 5, start=(0.0, 0.0, 1.0, 2.0)),
                     r"^start must be float64 of shape \(3,\), got float64 of shape \(4,\)$",
                     id="spec-four-number-start"),
        pytest.param(lambda: TrajectorySpec("wave", 5, end="5 -4 1.3"),
                     r"^end must be float64 of shape \(3,\), got <U8 of shape \(\)$",
                     id="spec-string-end"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, target=("0", "0", "1")),
                     r"^target must be float64 of shape \(3,\), got <U1 of shape \(3,\)$",
                     id="spec-string-target"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, target=((1, 2), 3, 4)),
                     r"^target must be float64 of shape \(3,\), got a ragged sequence$",
                     id="spec-ragged-target"),
        pytest.param(lambda: TrajectorySpec("orbit", 5, lookat="forward"),
                     "^an orbit looks at its target: lookat must be 'center', got 'forward'$",
                     id="spec-orbit-forward"),
        pytest.param(corridor_with("trajectory.turn_rate = -18"),
                     "^turn_rate_deg must be >= 0, got -18.0$", id="corridor-negative-turn-rate"),
        pytest.param(lambda: NoiseParams(enabled="off"),
                     "^invalid noise parameters: enabled must be a bool, got 'off'$",
                     id="spec-noise-string-enabled"),
        pytest.param(lambda: NoiseParams(enabled=1),
                     "^invalid noise parameters: enabled must be a bool, got 1$",
                     id="spec-noise-int-enabled"),
        pytest.param(lambda: RenderConfig(z_near=float("nan")),
                     "z_near must be finite and > 0, got nan", id="spec-nan-near"),
        pytest.param(lambda: RenderConfig(z_near=2.0, z_far=1.0),
                     "z_far must be finite and > z_near = 2.0, got 1.0", id="spec-far-below-near"),
    ],
)
def test_config_mistakes_raise_config_error(build, match):
    with pytest.raises(ConfigError, match=match):
        build()


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(lambda box: build_scene(dataclasses.replace(box.scene, lines_per_face=2.5)),
                     SceneError, "^lines_per_face must be an integer >= 0, got 2.5$",
                     id="scene-float-lines"),
        pytest.param(lambda box: build_scene(dataclasses.replace(box.scene, lines_per_face=True)),
                     SceneError, "^lines_per_face must be an integer >= 0, got True$",
                     id="scene-bool-lines"),
        pytest.param(lambda box: build_scene(dataclasses.replace(box.scene, seed=1.5)),
                     SceneError, "^seed must be an integer >= 0, got 1.5$", id="scene-float-seed"),
        pytest.param(lambda box: build_trajectory(dataclasses.replace(box.trajectory,
                                                                      frame_count=5.5)),
                     ConfigError, "^frame_count must be an integer >= 2, got 5.5$",
                     id="trajectory-float-frames"),
        pytest.param(lambda box: build_trajectory(dataclasses.replace(box.trajectory,
                                                                      frame_count=1)),
                     ConfigError, "^frame_count must be an integer >= 2, got 1$",
                     id="trajectory-one-frame"),
        pytest.param(lambda box: dataclasses.replace(box.intrinsics, width=True, height=True),
                     GeometryError, "^width must be an integer >= 1, got True$",
                     id="camera-bool-size"),
    ],
)
def test_spec_integer_fields_refuse_floats_and_bools(build, error, match):
    # built directly, each spec refuses a float or a bool in an int field
    # with its own error type, and the message starts with the field
    with pytest.raises(error, match=match):
        build(load_preset("box"))


def test_required_keys_alone_give_each_specs_defaults():
    cfg = parse_config("camera.fx = 460\ncamera.fy = 460\ncamera.cx = 320\ncamera.cy = 240\n"
                       "camera.width = 640\ncamera.height = 480\nbox = 2 2 2 1 1 1\n"
                       "trajectory.kind = orbit\ntrajectory.frames = 10\n")
    assert cfg.intrinsics == CameraIntrinsics(460.0, 460.0, 320.0, 240.0, 640, 480)
    assert len(cfg.scene.boxes) == 1 and cfg.trajectory.frame_count == 10
    for spec in (cfg.scene, cfg.trajectory, cfg.noise, cfg.render):
        defaulted = [f for f in dataclasses.fields(spec) if f.default is not dataclasses.MISSING]
        assert defaulted
        for f in defaulted:
            assert getattr(spec, f.name) == f.default, f.name


def test_config_comments_and_overrides():
    cfg = load_preset("box")
    assert cfg.noise.sigma_s == 1.0
    assert cfg.noise.m == 35130.0
    assert cfg.render.min_line_len == 15.0


def test_orbit_density_band():
    # a full orbit with default densities keeps every frame populated
    cfg = load_preset("sphere")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)
    seq = generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render)
    counts = np.array([len(f.points) + len(f.lines) for f in seq.frames])
    assert counts.min() >= 5
    assert counts.max() <= len(scene.points) + len(scene.lines)
    assert seq.report.empty_frames == []
