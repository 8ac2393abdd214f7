"""Synthetic scene/trajectory generation and measurement rendering.

Scenes are collections of axis-aligned boxes with point landmarks scattered
on the faces and line landmarks along edges and faces. Every line is
axis-aligned, so lines fall into up to three exactly-parallel groups (one
per world axis). Observations are exact re-projections filtered by a
depth window, the image bounds and ray/box occlusion; measurements are
observations corrupted by pixel noise and a disparity-based depth noise.

Landmarks are records, not objects: a scene's ``points`` and ``lines``
are one ``geometry.Points`` (id, position) and one ``geometry.Segments``
(id, endpoints) record, frozen and sorted by id. The renderer reads their
columns, and a ``Sequence`` carries the same records as its ground truth.

Frames are arrays, not measurement objects: a ``FrameData`` holds its point
ids, pixels and depths and its line ids, endpoint pixels and endpoint
depths as read-only arrays, one row per measurement in ascending landmark
id. The renderer, the noise model, the writer and reader in
``dataset_io``, the trackers and the graph builder all work on these
arrays. ``FrameData.points``/``.lines`` give the rows as plain
namespaces only because the benchmark's sequence digest and output checks
still read rows; ROADMAP item 1 points them at the arrays and deletes both.

A ``FrameData`` only casts its columns; each frame row is checked once,
where it enters the library. ``dataset_io.read_sequence`` checks the rows
it reads, ``Sequence.validate`` checks hand-built sequences, and generated
rows are valid by construction: the renderer and the noise model keep only
finite rows inside the image with positive depths and, for lines, at least
min_line_len long, one row per landmark in ascending id.

Determinism: all sampling comes from a counter-based 64-bit Philox stream
(Gaussians via numpy's ziggurat). Within one build, identical specs and
seeds give byte-identical sequences. With noise enabled, each frame takes
3 P + 6 L draws for its P rendered points and L rendered lines, laid out
point-major as (x, y, depth) per point, then line-major as (sx, sy, sd,
ex, ey, ed) per line, each group in ascending landmark id; pixel slots are
scaled by sigma_s and depth slots by sigma_d. ``generate_sequence`` takes
one ``standard_normal`` block per chunk of frames, their slots in frame
order. The stream hands out draws in order, so that block equals one
block per frame bit for bit, and the sequence does not depend on the
chunk size. The draws are the ones one ``rng.normal`` call per slot in
that order would give. They are consumed even when the resulting
measurement is dropped.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np

from .geometry import (
    CameraIntrinsics,
    GeometryError,
    Points,
    Pose,
    Segments,
    Trajectory,
    _column,
    check_integers,
    line_angles,
    matrix_to_quat,
    normalizable,
    project,
    quat_to_matrix,
    row_norms,
)


class SceneError(ValueError):
    pass


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class Box:
    """Axis-aligned cuboid: center and half-extents, meters."""

    center: np.ndarray
    extents: np.ndarray

    def __post_init__(self):
        c = _column(self.center, float, (3,), "box center", SceneError)
        e = _column(self.extents, float, (3,), "box extents", SceneError)
        if not np.all(e > 0):
            raise SceneError("box extents must be positive")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(e))):
            raise SceneError("box center and extents must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "extents", e)

    @property
    def min(self) -> np.ndarray:
        return self.center - self.extents

    @property
    def max(self) -> np.ndarray:
        return self.center + self.extents

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(np.abs(p - self.center) <= self.extents))


@dataclass(frozen=True)
class SceneSpec:
    boxes: tuple[Box, ...]
    points_per_face: float = 12.0  # count per square meter of face area
    lines_per_face: int = 2  # sampled surface lines per face, plus 12 edges per box
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field at fault
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if not self.boxes:
            raise SceneError("boxes must hold at least one box")
        for name in ("points_per_face", "lines_per_face", "seed"):
            if not 0 <= getattr(self, name) < math.inf:
                raise SceneError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        check_integers(self, SceneError, 0)
        if self.points_per_face == 0 and self.lines_per_face == 0:
            raise SceneError("points_per_face and lines_per_face are both 0: empty scene")
        for k, box in enumerate(self.boxes):
            if box.contains(np.zeros(3)):
                raise SceneError(f"boxes[{k}] contains the world origin")
            # any box edge whose two transverse face coordinates are both
            # zero spans the world origin and would have a zero Plucker
            # moment; reject such layouts outright
            for axis, p0, _ in _box_edges(box):
                if (np.abs(np.delete(p0, axis)) < 1e-9).all():
                    raise SceneError(
                        f"boxes[{k}] has an edge through the world origin; offset the box")


@dataclass(frozen=True)
class TrajectorySpec:
    """Camera path description; fields beyond the chosen kind are ignored,
    but ``target``, ``start`` and ``end`` must be three numbers and every
    number must be finite.

    kinds:
      wave      sinusoidal lateral offset along the straight start->end path
      orbit     circle of ``radius`` around ``target`` at absolute ``height``;
                an orbit always looks at its target, so ``lookat`` must be
                "center"
      corridor  rectangular circuit (legs ``leg_x`` x ``leg_y``), pure
                translation on legs, in-place corner turns at
                ``turn_rate_deg`` >= 0 degrees per frame (0: instantaneous)

    ``lookat``: "center" points every camera at ``target``, "forward" along
    the direction of travel.
    """

    kind: str
    frame_count: int
    lookat: str = "center"  # center | forward
    target: tuple[float, float, float] = (0.0, 0.0, 0.0)
    start: tuple[float, float, float] = (-5.0, -4.0, 1.3)
    end: tuple[float, float, float] = (5.0, -4.0, 1.3)
    amplitude: float = 0.0
    wavelength: float = 2.0
    radius: float = 6.0
    height: float = 1.5
    leg_x: float = 8.0
    leg_y: float = 6.0
    turn_rate_deg: float = 18.0

    def __post_init__(self):
        if self.kind not in ("wave", "orbit", "corridor"):
            raise ConfigError(f"unknown trajectory kind {self.kind!r}")
        check_integers(self, ConfigError, 2)
        if self.lookat not in ("center", "forward"):
            raise ConfigError(f"unknown look-at policy {self.lookat!r}")
        if self.kind == "orbit" and self.lookat != "center":
            raise ConfigError(f"an orbit looks at its target: lookat must be 'center', "
                              f"got {self.lookat!r}")
        if self.kind == "wave" and not self.wavelength > 0:
            raise ConfigError(f"wave wavelength must be positive, got {self.wavelength}")
        if self.kind == "orbit" and not self.radius > 0:
            raise ConfigError(f"orbit radius must be positive, got {self.radius}")
        if self.kind == "corridor" and not (self.leg_x > 0 and self.leg_y > 0):
            raise ConfigError(f"corridor legs must be positive, got {self.leg_x} x {self.leg_y}")
        if self.kind == "corridor" and self.turn_rate_deg < 0:
            raise ConfigError(f"turn_rate_deg must be >= 0, got {self.turn_rate_deg}")
        for name in ("target", "start", "end"):
            _column(getattr(self, name), float, (3,), name, ConfigError, copy=False)
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, str) and not np.isfinite(v).all():
                raise ConfigError(f"{f.name} must be finite, got {v}")


@dataclass(frozen=True)
class NoiseParams:
    """Pixel noise N(0, sigma_s^2 I); depth noise through the disparity
    model d = m / (m / (d_hat + a) + 0.5) with a ~ N(0, sigma_d^2)."""

    sigma_s: float = 1.0
    sigma_d: float = 1.0 / 6.0
    m: float = 35130.0
    enabled: bool = True

    def __post_init__(self):
        for name in ("sigma_s", "sigma_d"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"invalid noise parameters: {name} must be finite and >= 0, "
                                  f"got {getattr(self, name)}")
        if not 0 < self.m < math.inf:
            raise ConfigError(f"invalid noise parameters: m must be finite and > 0, got {self.m}")
        if not isinstance(self.enabled, bool):
            raise ConfigError(f"invalid noise parameters: enabled must be a bool, "
                              f"got {self.enabled!r}")


@dataclass(frozen=True)
class RenderConfig:
    """Depth window [z_near, z_far] in meters, 0 < z_near < z_far."""

    z_near: float = 0.1
    z_far: float = 20.0
    min_line_len: float = 15.0  # px, minimum clipped segment length

    def __post_init__(self):
        if not 0 < self.z_near < math.inf:
            raise ConfigError(f"z_near must be finite and > 0, got {self.z_near}")
        if not self.z_near < self.z_far < math.inf:
            raise ConfigError(f"z_far must be finite and > z_near = {self.z_near}, "
                              f"got {self.z_far}")
        if not 0 <= self.min_line_len < math.inf:
            raise ConfigError(f"min_line_len must be finite and >= 0, got {self.min_line_len}")


# ---------------------------------------------------------------------------
# scene construction

_FACES = [(0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0), (2, -1.0), (2, 1.0)]


@dataclass
class Scene:
    """Boxes and landmarks of one scene: the frozen, id-sorted records
    ``points`` and ``lines``, whose columns the renderer reads, and the
    parallel groups of line ids. A ``Scene`` serves as the initial map of
    ``factor_graph.build_covisibility_graph``."""

    boxes: tuple[Box, ...]
    points: Points
    lines: Segments
    parallel_groups: dict[int, list[int]]  # group id -> line landmark ids
    seed: int = 0


def _box_edges(box: Box):
    """12 edges, canonical order, oriented along the positive axis."""
    lo, hi = box.min, box.max
    edges = []
    for axis in range(3):
        b, c = (axis + 1) % 3, (axis + 2) % 3
        for sb in (lo[b], hi[b]):
            for sc in (lo[c], hi[c]):
                p0 = np.empty(3)
                p1 = np.empty(3)
                p0[axis], p1[axis] = lo[axis], hi[axis]
                p0[b] = p1[b] = sb
                p0[c] = p1[c] = sc
                edges.append((axis, p0, p1))
    return edges


def build_scene(spec: SceneSpec) -> Scene:
    """Sample point/line landmarks on box surfaces from the seeded stream.

    Points lie exactly on faces. Lines are box edges plus axis-aligned
    segments sampled on faces; all direction vectors are exact unit axes,
    so the scene's parallel groups are exact by construction.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    points = [np.empty((0, 3))]
    lines: list[tuple[np.ndarray, np.ndarray]] = []
    groups: dict[int, list[int]] = {}

    for box in spec.boxes:
        lo, hi = box.min, box.max
        for axis, side in _FACES:
            b, c = (axis + 1) % 3, (axis + 2) % 3
            area = (hi[b] - lo[b]) * (hi[c] - lo[c])
            count = int(round(spec.points_per_face * area))
            if count > 0:
                uv = rng.uniform(size=(count, 2))
                p = np.empty((count, 3))
                p[:, axis] = hi[axis] if side > 0 else lo[axis]
                p[:, b] = lo[b] + uv[:, 0] * (hi[b] - lo[b])
                p[:, c] = lo[c] + uv[:, 1] * (hi[c] - lo[c])
                points.append(p)

    for box in spec.boxes:
        for axis, p0, p1 in _box_edges(box):
            groups.setdefault(axis, []).append(len(lines))
            lines.append((p0, p1))

    for box in spec.boxes:
        lo, hi = box.min, box.max
        for axis, side in _FACES:
            b, c = (axis + 1) % 3, (axis + 2) % 3
            for _ in range(spec.lines_per_face):
                for _attempt in range(16):
                    dir_axis, off_axis = (b, c) if rng.integers(2) == 0 else (c, b)
                    frac = rng.uniform(0.35, 0.9)
                    half = frac * (hi[dir_axis] - lo[dir_axis]) / 2.0
                    mid = rng.uniform(lo[dir_axis] + half, hi[dir_axis] - half)
                    off = rng.uniform(lo[off_axis], hi[off_axis])
                    p0 = np.empty(3)
                    p0[axis] = hi[axis] if side > 0 else lo[axis]
                    p0[dir_axis] = mid - half
                    p0[off_axis] = off
                    p1 = p0.copy()
                    p1[dir_axis] = mid + half
                    n = np.cross(p0, p1)
                    if np.linalg.norm(n) > 1e-9 * np.linalg.norm(p1 - p0):
                        groups.setdefault(dir_axis, []).append(len(lines))
                        lines.append((p0, p1))
                        break

    xyz = np.concatenate(points)
    return Scene(spec.boxes, Points(np.arange(len(xyz)), xyz),
                 Segments(np.arange(len(lines)), np.array(lines)), groups, seed=spec.seed)


# ---------------------------------------------------------------------------
# trajectories


def _lookat(P, T):
    """World-to-camera rotations R_cw (n, 3, 3) and translations t (n, 3)
    of the cameras at P (n, 3) whose optical axes pass through T (n, 3) or
    one target (3,), with the world z axis up. A camera that looks straight
    up or down takes its x axis from the world y axis instead.

    Camera axes: x right, y down, z forward.
    """
    f = T - P
    nf = row_norms(f)
    coincide = nf < 1e-12
    if coincide.any():
        raise ConfigError("look-at target coincides with the camera position at frame "
                          f"{np.argmax(coincide)}")
    f = f / nf[:, None]
    x = np.cross(f, (0.0, 0.0, 1.0))
    vertical = row_norms(x) < 1e-9
    x[vertical] = np.cross(f[vertical], (0.0, 1.0, 0.0))
    x = x / row_norms(x)[:, None]
    R_wc = np.stack([x, np.cross(f, x), f], axis=2)
    # one product per camera, on the transposed view: a stacked product
    # rounds the last bit of t differently
    t = np.array([-R.T @ p for R, p in zip(R_wc, P)])
    return np.ascontiguousarray(R_wc.transpose(0, 2, 1)), t


def _corridor_waypoints(spec: TrajectorySpec):
    """Camera positions (n, 3) and headings (n, 3) of the rectangular
    circuit: the frames of each leg, then its in-place turn at the far
    corner, whose last frame takes the next leg's heading."""
    hx, hy, z = spec.leg_x / 2.0, spec.leg_y / 2.0, spec.height
    corners = np.array([[-hx, -hy, z], [hx, -hy, z], [hx, hy, z], [-hx, hy, z]])
    headings = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    # 0 turns instantaneously
    corner_frames = math.ceil(90.0 / spec.turn_rate_deg) if spec.turn_rate_deg > 0 else 0
    leg_budget = spec.frame_count - 4 * corner_frames
    if leg_budget < 4:
        raise ConfigError("frame_count too small for the corner turn rate")
    lengths = [spec.leg_x, spec.leg_y, spec.leg_x, spec.leg_y]
    leg_frames = [max(1, int(round(leg_budget * L / sum(lengths)))) for L in lengths]
    leg_frames[3] += leg_budget - sum(leg_frames)
    if leg_frames[3] < 1:
        raise ConfigError("frame_count too small for the corridor circuit")

    angles = [math.radians(min(k * spec.turn_rate_deg, 90.0)) for k in range(1, corner_frames + 1)]
    c, s = np.array([[math.cos(a), math.sin(a)] for a in angles]).reshape(-1, 2).T
    positions, forward = [], []
    for leg, n in enumerate(leg_frames):
        a, b = corners[leg], corners[(leg + 1) % 4]
        h = headings[leg]
        turn = np.column_stack([c * h[0] - s * h[1], s * h[0] + c * h[1], np.zeros(corner_frames)])
        turn[-1:] = headings[(leg + 1) % 4]
        positions += [a + (b - a) * (np.arange(n) / n)[:, None], np.tile(b, (corner_frames, 1))]
        forward += [np.tile(h, (n, 1)), turn]
    return np.concatenate(positions), np.concatenate(forward)


def build_trajectory(spec: TrajectorySpec) -> Trajectory:
    """The poses of the cameras of ``spec``: their positions and, for the
    forward look-at, their directions of travel, through one stacked
    look-at."""
    n = spec.frame_count
    target = np.asarray(spec.target, dtype=float)

    if spec.kind == "wave":
        start = np.asarray(spec.start, dtype=float)
        path = np.asarray(spec.end, dtype=float) - start
        length = float(np.linalg.norm(path))
        if length < 1e-9:
            raise ConfigError("wave path start and end coincide")
        forward = path / length
        lateral = np.cross(np.array([0.0, 0.0, 1.0]), forward)
        if np.linalg.norm(lateral) < 1e-9:
            raise ConfigError("wave path must not be vertical")
        lateral = lateral / np.linalg.norm(lateral)
        f = np.arange(n) / (n - 1)
        offset = np.array([spec.amplitude * math.sin(2.0 * math.pi * (fi * length) / spec.wavelength)
                           for fi in f.tolist()])
        P = start + f[:, None] * path + offset[:, None] * lateral

    elif spec.kind == "orbit":
        theta = (2.0 * math.pi * np.arange(n) / n).tolist()
        circle = np.array([[math.cos(a), math.sin(a)] for a in theta])
        P = np.column_stack([target[:2] + spec.radius * circle, np.full(n, spec.height)])

    else:
        P, forward = _corridor_waypoints(spec)

    R, t = _lookat(P, target if spec.lookat == "center" else P + forward)
    return Trajectory(matrix_to_quat(R), t)


# ---------------------------------------------------------------------------
# visibility


# generate_sequence walks a trajectory in chunks of at least one frame and at
# most about _CHUNK_ROWS landmark x frame rows, and occluded tests at most
# about _OCCLUSION_PAIRS box x target pairs at a time: one batch over a whole
# trajectory costs more memory than it saves time
_CHUNK_ROWS = 8192
_OCCLUSION_PAIRS = 2048


def occluded(centers, targets, boxes) -> np.ndarray:
    """True where the open segment camera->target crosses any box interior,
    for one camera center (3,) or one center per target row (N, 3).

    One slab test over (boxes, targets, axes), at most about
    ``_OCCLUSION_PAIRS`` box x target pairs at a time: a target is
    occluded when the interior chord its ray covers strictly before
    reaching it, in units of the segment center->target, exceeds 1e-9 for
    some box. A zero direction component means the ray lies inside or
    outside that slab for its whole length; outside, it misses the box.
    Every step is elementwise or per target, so a target's bit does not
    depend on the other targets of the call.
    """
    T = np.atleast_2d(np.asarray(targets, dtype=float))
    C = np.broadcast_to(np.asarray(centers, dtype=float), T.shape)
    # axis-major: (axis, box, target), so the reductions over the axes are
    # elementwise min/max of three contiguous planes
    boxes_lo = np.array([box.min for box in boxes]).reshape(-1, 3).T[:, :, None]  # (3, B, 1)
    boxes_hi = np.array([box.max for box in boxes]).reshape(-1, 3).T[:, :, None]
    out = np.empty(len(T), dtype=bool)
    step = max(1, _OCCLUSION_PAIRS // max(1, len(boxes)))
    for s in range(0, len(T), step):
        c = C[s:s + step].T[:, None]  # (3, 1, n)
        D = T[s:s + step].T[:, None] - c
        lo, hi = boxes_lo - c, boxes_hi - c  # (3, B, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = lo / D
            t2 = hi / D
        zero = D == 0.0
        inside = (lo <= 0.0) & (hi >= 0.0)
        t1 = np.where(zero, np.where(inside, -np.inf, np.inf), t1)
        t2 = np.where(zero, np.inf, t2)
        near, far = np.minimum(t1, t2), np.maximum(t1, t2)
        t_enter = np.maximum(np.maximum(np.maximum(near[0], near[1]), near[2]), 0.0)  # (B, n)
        t_exit = np.minimum(np.minimum(np.minimum(far[0], far[1]), far[2]), 1.0 - 1e-9)
        out[s:s + step] = (t_exit - t_enter > 1e-9).any(axis=0)
    return out


def _stacked_matvec(M, V) -> np.ndarray:
    """M @ v for every row v of V (..., 3), with M (3, 3) or one matrix
    per row (..., 3, 3) broadcast against V; bit-identical to one
    ``M @ v`` per row, which ``V @ M.T`` is not."""
    return (M @ V[..., None])[..., 0]


def _clip_lines(A_c, B_c, intr: CameraIntrinsics, cfg: RenderConfig):
    """Clip camera-frame segments [A_c, B_c] (n, 3) against the z_near
    plane and the image rectangle, all at once.

    Returns (ok (n,), pixels (n, 2, 2), depths (n, 2), camera points
    (n, 2, 3)) for the clipped start and end; rows where ``ok`` is False
    hold no meaningful values.
    """
    near_A = A_c[:, 2] < cfg.z_near
    near_B = B_c[:, 2] < cfg.z_near
    ok = ~(near_A & near_B)
    s = (cfg.z_near - A_c[:, 2]) / (B_c[:, 2] - A_c[:, 2])
    P_near = A_c + s[:, None] * (B_c - A_c)
    A_c = np.where(near_A[:, None], P_near, A_c)
    B_c = np.where(near_B[:, None], P_near, B_c)
    zA, zB = A_c[:, 2], B_c[:, 2]
    # rows behind the camera belong to segments the clip rejects
    u1 = project(A_c, zA, intr)
    d = project(B_c, zB, intr) - u1

    # Liang-Barsky on every segment; the clip box is shrunk by a margin on
    # every side because endpoint pixels are re-projected from the 3D clip
    # points and drift by ~1e-13 px. Taking the running max/min below and
    # testing t0 < t1 once at the end rejects exactly the segments the
    # sequential algorithm rejects early.
    xmin = ymin = 1e-6
    xmax = intr.width - 1e-6
    ymax = intr.height - 1e-6
    t0 = np.zeros(len(u1))
    t1 = np.ones(len(u1))
    for p, q in (
        (-d[:, 0], u1[:, 0] - xmin),
        (d[:, 0], xmax - u1[:, 0]),
        (-d[:, 1], u1[:, 1] - ymin),
        (d[:, 1], ymax - u1[:, 1]),
    ):
        ok &= ~((p == 0.0) & (q < 0.0))
        r = q / p
        t0 = np.where((p < 0.0) & (r > t0), r, t0)
        t1 = np.where((p > 0.0) & (r < t1), r, t1)
    ok &= t0 < t1

    # endpoints at both clip parameters: the depth-corrected point on the
    # 3D segment and its pixel
    pixels, depths, ends = [], [], []
    for tau in (t0, t1):
        denom = zB + tau * (zA - zB)
        ok &= ~(denom <= 0)
        s = tau * zA / denom
        P_cs = A_c + s[:, None] * (B_c - A_c)
        zs = P_cs[:, 2]
        ok &= (cfg.z_near - 1e-9 <= zs) & (zs <= cfg.z_far)
        pixels.append(project(P_cs, zs, intr))
        depths.append(zs)
        ends.append(P_cs)
    return ok, np.stack(pixels, 1), np.stack(depths, 1), np.stack(ends, 1)


def _render(scene: Scene, poses: Trajectory, intr: CameraIntrinsics, cfg: RenderConfig):
    """Exact observations of the scene from each pose of ``poses``, as flat
    frame-major rows: for the points (frame (n,), landmark id (n,), pixels
    (n, 2), depths (n,)), for the lines (frame (m,), landmark id (m,),
    pixels (m, 2, 2), depths (m, 2)) with start and end. A row's frame is
    the index of its pose; within a frame the rows ascend in landmark id.

    A point is observed when its depth lies in [z_near, z_far], its
    projection falls inside the image and no box interior blocks the ray.
    Line segments are clipped against the z_near plane and the image
    rectangle (depths recomputed at clip points); both clipped endpoints
    must pass the point test and the clipped 2D length must reach
    min_line_len. The rotations come from one ``quat_to_matrix`` of the
    poses' quaternions. Every test runs on all (pose, landmark) rows at
    once, with one ``occluded`` call for the points and one for the line
    endpoints. Each step is elementwise, per row or, for the projection,
    one matrix product per pose, so a row's values do not depend on the
    other poses rendered with it.
    """
    R, t = quat_to_matrix(poses.q), poses.t  # (k, 3, 3), (k, 3)
    centers = -_stacked_matvec(R.transpose(0, 2, 1), t)
    points, lines = scene.points, scene.lines

    P_w = points.position
    P_c = (P_w @ R.transpose(0, 2, 1) + t[:, None]).reshape(-1, 3)  # frame-major
    z = P_c[:, 2]
    ok = (z >= cfg.z_near) & (z <= cfg.z_far)
    u = np.full((len(z), 2), np.nan)
    np.divide(P_c[:, 0], z, out=u[:, 0], where=ok)
    np.divide(P_c[:, 1], z, out=u[:, 1], where=ok)
    u[:, 0] = intr.fx * u[:, 0] + intr.cx
    u[:, 1] = intr.fy * u[:, 1] + intr.cy
    ok &= intr.contains(u)
    rows = np.flatnonzero(ok)
    frame, which = np.divmod(rows, len(points))
    seen = ~occluded(centers[frame], P_w[which], scene.boxes)
    rows = rows[seen]
    seen_points = frame[seen], points.id[which[seen]], u[rows], z[rows]

    E = lines.endpoints
    A_c = (_stacked_matvec(R[:, None], E[:, 0]) + t[:, None]).reshape(-1, 3)
    B_c = (_stacked_matvec(R[:, None], E[:, 1]) + t[:, None]).reshape(-1, 3)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ok, pixels, depths, ends = _clip_lines(A_c, B_c, intr, cfg)
        ok &= ~(row_norms(pixels[:, 1] - pixels[:, 0]) < cfg.min_line_len)
    rows = np.flatnonzero(ok)
    frame, which = np.divmod(rows, len(lines))
    # each row's R.T, laid out as the transposed view of its pose's R
    ends_w = _stacked_matvec(R[frame].transpose(0, 2, 1)[:, None], ends[rows] - t[frame][:, None])
    occ = occluded(np.repeat(centers[frame], 2, axis=0), ends_w.reshape(-1, 3), scene.boxes)
    seen = ~occ.reshape(-1, 2).any(axis=1)
    rows = rows[seen]
    seen_lines = frame[seen], lines.id[which[seen]], pixels[rows], depths[rows]
    return seen_points, seen_lines


def _frames(frame_ids, points, lines) -> list[FrameData]:
    """One ``FrameData`` per entry of ``frame_ids`` from flat frame-major
    point and line rows as ``_render`` gives them, whose frame column
    indexes ``frame_ids``."""
    cuts = np.arange(len(frame_ids) + 1)
    p_cut = np.searchsorted(points[0], cuts).tolist()
    l_cut = np.searchsorted(lines[0], cuts).tolist()
    return [
        FrameData(frame_id, *(c[p_cut[i]:p_cut[i + 1]] for c in points[1:]),
                  *(c[l_cut[i]:l_cut[i + 1]] for c in lines[1:]))
        for i, frame_id in enumerate(frame_ids)
    ]


def render_frame(
    scene: Scene,
    pose: Pose,
    intr: CameraIntrinsics,
    cfg: RenderConfig = RenderConfig(),
    frame_id: int = 0,
) -> FrameData:
    """Exact observations of the scene from one pose, as frame ``frame_id``
    with its rows in ascending landmark id: ``_render`` of that one pose."""
    poses = Trajectory(pose.q[None], pose.t[None])
    return _frames([frame_id], *_render(scene, poses, intr, cfg))[0]


# ---------------------------------------------------------------------------
# noise model


def gaussian_noise(rng, scales) -> np.ndarray:
    """One N(0, scale^2) draw per entry of ``scales``, in order.

    ``0.0 + z * scale`` over one ``standard_normal`` block equals one
    ``rng.normal(0.0, scale)`` call per entry, bit for bit.
    """
    scales = np.asarray(scales, dtype=float)
    if np.any(scales < 0):
        raise ConfigError("noise scales must be nonnegative")
    return 0.0 + rng.standard_normal(scales.shape) * scales


def _disparity_depth(shifted, m_const: float) -> np.ndarray:
    """d = m / (m / shifted + 0.5) for shifted = d_hat + a; NaN where
    shifted or the result is not a positive finite depth."""
    shifted = np.asarray(shifted, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = m_const / shifted + 0.5
        d = m_const / denom
    ok = (shifted > 0) & (denom > 0) & np.isfinite(d) & (d > 0)
    return np.where(ok, d, np.nan)


def perturb_pixel(u, sigma_s: float, rng) -> np.ndarray:
    """u + alpha with alpha ~ N(0, sigma_s^2 I); draws x then y."""
    return np.asarray(u, dtype=float) + gaussian_noise(rng, (sigma_s, sigma_s))


def perturb_depth(d_hat: float, sigma_d: float, m_const: float, rng) -> float | None:
    """Disparity-domain depth noise d = m / (m / (d_hat + a) + 0.5).

    One Gaussian draw is always consumed; returns None when the noisy
    depth is nonpositive or nonfinite (the caller drops the measurement).
    """
    if d_hat <= 0:
        raise GeometryError("depth must be positive")
    d = _disparity_depth(d_hat + gaussian_noise(rng, (sigma_d,))[0], m_const)
    return None if np.isnan(d) else float(d)


# ---------------------------------------------------------------------------
# sequences


def _all_rows(b) -> np.ndarray:
    """Whether each row of the bool array b (n, ...) is all True. numpy
    reduces short rows one at a time, about ten times slower than it
    reduces their columns, so the rows are reduced as columns."""
    return np.logical_and.reduce(b.reshape(len(b), math.prod(b.shape[1:])).T.copy())


def _repeats(group, ids) -> np.ndarray:
    """Which rows (n,) hold an id that an earlier row of their group
    holds, for ascending group labels (n,) and ids (n,)."""
    if ((group[1:] != group[:-1]) | (ids[1:] > ids[:-1])).all():
        return np.zeros(len(ids), dtype=bool)  # each group's ids ascend, as written
    order = np.lexsort((ids, group))
    group, ids = group[order], ids[order]
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[order[1:]] = (group[1:] == group[:-1]) & (ids[1:] == ids[:-1])
    return repeat


def _row_faults(group, ids, pixels, depths, known, intr: CameraIntrinsics,
                min_line_len: float):
    """The checks on point rows (ids (n,), pixels (n, 2), depths (n,)) or
    line rows (ids (m,), pixels (m, 2, 2), depths (m, 2)), each row in the
    group that labels it in ``group`` (a frame, or a file), in the order
    they apply to a row, as (failing rows, message) pairs: an id in
    ``known``, no id twice in its group, finite values, positive depths,
    for lines distinct endpoints, inside the image of ``intr`` and, for
    lines, at least ``min_line_len`` long."""
    lines = pixels.ndim == 3
    kind = "line" if lines else "point"
    ends, depths = (pixels, depths) if lines else (pixels[:, None], depths[:, None])
    faults = [
        (~np.isin(ids, known), lambda r: f"dangling {kind} landmark id {ids[r]}"),
        (_repeats(group, ids), lambda r: f"{kind} landmark id {ids[r]} repeats"),
        (~_all_rows(np.isfinite(ends)) | ~_all_rows(np.isfinite(depths)),
         "measurement must be finite"),
        (~_all_rows(depths > 0), "nonpositive depth"),
        (~_all_rows(intr.contains(ends)), f"{kind} measurement outside the image"),
    ]
    if lines:
        faults.insert(4, (_all_rows(pixels[:, 0] == pixels[:, 1]),
                          "line measurement endpoints coincide"))
        faults.append((row_norms(pixels[:, 1] - pixels[:, 0]) < min_line_len,
                       "line measurement shorter than min_line_len"))
    return faults


def _first_fault(faults) -> tuple[int, str] | None:
    """(row, message) for the first row failing any of ``faults``, a list
    of (failing rows (n,), message or row -> message) in the order the
    checks apply to one row; the message is that of the first check the
    row fails. None when every row passes."""
    masks = np.array([mask for mask, _ in faults])
    bad = masks.any(axis=0)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    message = faults[int(np.argmax(masks[:, row]))][1]
    return row, message(row) if callable(message) else message


@dataclass(frozen=True, eq=False)
class FrameData:
    """One frame's measurements as read-only arrays, one row per
    measurement, in ascending landmark id for generated frames:

      point_ids (n,) int64, point_pixels (n, 2) px, point_depths (n,) meters;
      line_ids (m,) int64, line_pixels (m, 2, 2) start and end pixel,
      line_depths (m, 2) start and end depth.

    A plain record: construction copies each array through
    ``geometry._column``, which refuses a wrong shape and a value its
    dtype does not hold exactly, such as a float id (ValueError naming the
    array), and checks nothing else. Row values and ids are checked where
    the rows enter the library (see the module docstring), for a
    hand-built sequence by ``Sequence.validate``.

    ``points`` and ``lines`` give the rows as namespaces for the
    benchmark's readers.
    """

    frame_id: int
    point_ids: np.ndarray
    point_pixels: np.ndarray
    point_depths: np.ndarray
    line_ids: np.ndarray
    line_pixels: np.ndarray
    line_depths: np.ndarray

    def __post_init__(self):
        n, m = len(self.point_ids), len(self.line_ids)
        for name, dtype, shape in (
            ("point_ids", np.int64, (n,)),
            ("point_pixels", float, (n, 2)),
            ("point_depths", float, (n,)),
            ("line_ids", np.int64, (m,)),
            ("line_pixels", float, (m, 2, 2)),
            ("line_depths", float, (m, 2)),
        ):
            object.__setattr__(self, name, _column(getattr(self, name), dtype, shape, name))

    @property
    def points(self) -> list[SimpleNamespace]:
        """The point rows as namespaces (landmark_id, u, d), built on each
        access."""
        return [SimpleNamespace(landmark_id=i, u=u, d=d) for i, u, d in
                zip(self.point_ids.tolist(), self.point_pixels, self.point_depths.tolist())]

    @property
    def lines(self) -> list[SimpleNamespace]:
        """The line rows as namespaces (landmark_id, start, end), each
        endpoint a namespace (u, d), built on each access."""
        return [SimpleNamespace(landmark_id=i, start=SimpleNamespace(u=u[0], d=d[0]),
                                end=SimpleNamespace(u=u[1], d=d[1])) for i, u, d in
                zip(self.line_ids.tolist(), self.line_pixels, self.line_depths.tolist())]


def _frame_rows(frames, kind: str):
    """The ``kind`` ("point" or "line") rows of ``frames`` in one
    frame-major gather: (frame id (n,), then the frames' ``kind`` ids,
    pixels and depths, joined in the shapes ``FrameData`` holds them)."""
    columns = [f"{kind}_{c}" for c in ("ids", "pixels", "depths")]
    frames = frames or [FrameData(0, [], [], [], [], [], [])]  # no frames give no rows
    frame = np.repeat([f.frame_id for f in frames], [len(getattr(f, columns[0])) for f in frames])
    return frame, *(np.concatenate([getattr(f, c) for f in frames]) for c in columns)


@dataclass
class GenerationReport:
    dropped_points: int = 0
    dropped_lines: int = 0
    empty_frames: list[int] = field(default_factory=list)


@dataclass(eq=False)
class Sequence:
    """A generated benchmark sequence: calibration, ground truth and
    per-frame measurements. The ground-truth poses are one ``Trajectory``
    record, ``gt_trajectory``, with pose i the pose of ``frames[i]``; the
    ground-truth landmarks are the records ``gt_points`` (``Points``) and
    ``gt_lines`` (``Segments``). ``generate_sequence`` shares its
    trajectory and its scene's landmark records. ``report`` is generation
    metadata and is not serialized."""

    intrinsics: CameraIntrinsics
    gt_trajectory: Trajectory
    frames: list[FrameData]
    gt_points: Points
    gt_lines: Segments
    parallel_groups: dict[int, list[int]]
    report: GenerationReport | None = None

    def validate(self, min_line_len: float = 0.0) -> None:
        """Check every frame row against the calibration and the landmark
        records, and the parallel groups, in one pass over all frames.

        A row's checks are ``_row_faults`` grouped by frame, with the
        calibration and ``min_line_len``, the checks the reader makes
        grouped by file. The first faulty row of the earliest frame is
        reported, a frame's points before its lines, with the first check
        it fails, in a ValueError naming the frame."""
        self.check_frames()
        faults = []
        for kind, known in (("point", self.gt_points.id), ("line", self.gt_lines.id)):
            frame, ids, pixels, depths = _frame_rows(self.frames, kind)
            fault = _first_fault(
                _row_faults(frame, ids, pixels, depths, known, self.intrinsics, min_line_len))
            if fault is not None:
                faults.append((frame[fault[0]], kind == "line", fault[1]))
        if faults:
            frame_id, _, message = min(faults)
            raise ValueError(f"{message} in frame {frame_id}")
        self.check_parallel_groups()

    def check_frames(self) -> None:
        """There is one frame per ground-truth pose, and every frame's
        ``frame_id`` is its index in ``frames``, which names its file."""
        if len(self.frames) != len(self.gt_trajectory):
            raise ValueError("frame count does not match trajectory length")
        for i, f in enumerate(self.frames):
            if f.frame_id != i:
                raise ValueError(f"frame {i} has frame_id {f.frame_id}")

    def check_parallel_groups(self) -> None:
        """Every parallel group names known lines of one direction, each
        with a direction that can be normalized."""
        for gid, ids in self.parallel_groups.items():
            rows, found = self.gt_lines.find(ids)
            if not found.all():
                raise ValueError(f"dangling line id {ids[int(np.argmin(found))]} "
                                 f"in parallel group {gid}")
            with np.errstate(over="ignore", invalid="ignore"):
                ends = self.gt_lines.endpoints[rows]
                d = ends[:, 1] - ends[:, 0]
                bad = ~normalizable(d)
                if bad.any():
                    raise ValueError(f"line {ids[int(np.argmax(bad))]} in parallel group {gid} "
                                     "has no finite direction")
                dirs = d / row_norms(d)[:, None]
                if (line_angles(dirs[:1], dirs[1:]) > 1e-9).any():
                    raise ValueError(f"parallel group {gid} members disagree in direction")


def _add_noise(points, lines, noise: NoiseParams, intr, cfg: RenderConfig, rng, report):
    """The noisy copy of exact observation rows, flat and frame-major as
    ``_render`` gives them, from one block of draws laid out frame by
    frame: (x, y, depth) per point, then (sx, sy, sd, ex, ey, ed) per line.
    Measurements the noise moves out of the image, out of positive depth
    or below min_line_len are dropped and counted in ``report``."""
    (p_frame, p_ids, u, z), (l_frame, l_ids, ends, ends_d) = points, lines
    n, m = len(p_frame), len(l_frame)
    frames = 1 + max(p_frame.max(initial=-1), l_frame.max(initial=-1))
    # the block's slots per frame: 3 per point, then 6 per line
    slots = np.column_stack([3 * np.bincount(p_frame, minlength=frames),
                             6 * np.bincount(l_frame, minlength=frames)])
    of_point = np.repeat(np.tile([True, False], frames), slots.ravel())
    a = gaussian_noise(rng, np.tile([noise.sigma_s, noise.sigma_s, noise.sigma_d], n + 2 * m))
    P = np.column_stack([u, z]) + a[of_point].reshape(-1, 3)
    L = np.column_stack([ends[:, 0], ends_d[:, 0], ends[:, 1], ends_d[:, 1]])
    L += a[~of_point].reshape(-1, 6)

    d = _disparity_depth(P[:, 2], noise.m)
    keep_p = ~np.isnan(d) & intr.contains(P[:, :2])
    report.dropped_points += int(np.count_nonzero(~keep_p))

    d_s = _disparity_depth(L[:, 2], noise.m)
    d_e = _disparity_depth(L[:, 5], noise.m)
    keep_l = (
        ~np.isnan(d_s)
        & ~np.isnan(d_e)
        & intr.contains(L[:, 0:2])
        & intr.contains(L[:, 3:5])
        & ~(row_norms(L[:, 3:5] - L[:, 0:2]) < cfg.min_line_len)
    )
    report.dropped_lines += int(np.count_nonzero(~keep_l))
    return (
        (p_frame[keep_p], p_ids[keep_p], P[keep_p, :2], d[keep_p]),
        (l_frame[keep_l], l_ids[keep_l], L[keep_l][:, [0, 1, 3, 4]].reshape(-1, 2, 2),
         np.column_stack([d_s, d_e])[keep_l]),
    )


def generate_sequence(
    scene: Scene,
    trajectory: Trajectory,
    noise: NoiseParams,
    intr: CameraIntrinsics,
    cfg: RenderConfig = RenderConfig(),
) -> Sequence:
    """Render every frame and corrupt surviving observations with noise.

    The trajectory is walked in chunks of consecutive frames, at most about
    ``_CHUNK_ROWS`` landmark x frame rows each. A chunk is rendered in one
    ``_render`` call; with noise enabled, one block of draws covers the
    chunk's exact rows. Then one ``FrameData`` is built per frame, from the
    rows it keeps. The noise stream is a child of the scene seed, so
    one top-level seed reproduces the whole sequence. Noisy measurements
    that leave the image, lose positive depth or shrink below min_line_len
    are dropped and counted in the report.
    """
    seed_seq = np.random.SeedSequence(entropy=scene.seed, spawn_key=(1,))
    rng = np.random.Generator(np.random.Philox(seed_seq))

    step = max(1, _CHUNK_ROWS // max(1, len(scene.points) + len(scene.lines)))
    report = GenerationReport()
    frames: list[FrameData] = []
    for start in range(0, len(trajectory), step):
        poses = trajectory[start:start + step]
        rows = _render(scene, poses, intr, cfg)
        if noise.enabled:
            rows = _add_noise(*rows, noise, intr, cfg, rng, report)
        frames += _frames(range(start, start + len(poses)), *rows)
    report.empty_frames = [f.frame_id for f in frames
                           if not (len(f.point_ids) or len(f.line_ids))]

    return Sequence(
        intrinsics=intr,
        gt_trajectory=trajectory,
        frames=frames,
        gt_points=scene.points,
        gt_lines=scene.lines,
        parallel_groups={g: list(ids) for g, ids in scene.parallel_groups.items()},
        report=report,
    )


# ---------------------------------------------------------------------------
# presets / config files


@dataclass(frozen=True)
class BenchmarkConfig:
    intrinsics: CameraIntrinsics
    scene: SceneSpec
    trajectory: TrajectorySpec
    noise: NoiseParams
    render: RenderConfig


def _finite_float(text: str) -> float:
    """float(text), refusing inf and nan: no config number may be either."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text!r} is not finite")
    return v


def _vec3(text: str) -> tuple[float, float, float]:
    x, y, z = map(_finite_float, text.split())  # a ValueError unless three numbers
    return x, y, z


def _boolean(text: str) -> bool:
    v = text.lower()
    if v in ("on", "true", "1", "yes"):
        return True
    if v in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


# config section -> the spec it builds, in the order of BenchmarkConfig's fields
_SECTIONS = {"camera": CameraIntrinsics, "scene": SceneSpec, "trajectory": TrajectorySpec,
             "noise": NoiseParams, "render": RenderConfig}
# the keys not spelled section.field
_RENAMED_KEYS = {"trajectory.frames": "trajectory.frame_count",
                 "trajectory.turn_rate": "trajectory.turn_rate_deg"}
_CONVERTERS = {float: _finite_float, int: int, str: str, bool: _boolean,
               tuple[float, float, float]: _vec3}


def _config_keys() -> dict:
    """Config key -> (section, spec field, text-to-value converter), one
    key per spec field but ``scene.boxes``, which the ``box`` lines fill."""
    names = {field_name: key for key, field_name in _RENAMED_KEYS.items()}
    keys = {}
    for section, spec in _SECTIONS.items():
        types = get_type_hints(spec)
        for f in fields(spec):
            if f.name != "boxes":
                key = f"{section}.{f.name}"
                keys[names.get(key, key)] = section, f, _CONVERTERS[types[f.name]]
    return keys


_CONFIG_KEYS = _config_keys()


def parse_config(text: str) -> BenchmarkConfig:
    """Parse the plain-text ``key = value`` preset format ('#' comments).

    A key is ``section.field``: the sections ``camera``, ``scene``,
    ``trajectory``, ``noise`` and ``render`` build ``CameraIntrinsics``,
    ``SceneSpec``, ``TrajectorySpec``, ``NoiseParams`` and ``RenderConfig``,
    and each field's annotation gives its value's type. Two keys are
    named otherwise: ``trajectory.frames`` sets ``frame_count`` and
    ``trajectory.turn_rate`` sets ``turn_rate_deg``. A missing key takes
    the field's default; a field without one must be given. A later line
    overrides an earlier one with the same key. An unknown key is refused.
    The ``box`` key may repeat; each of its values, six floats
    ``cx cy cz ex ey ez`` (center and half-extents), adds one box to
    ``scene.boxes``.

    The parser only converts text; each spec checks its own values, and
    any error a spec or box raises is a ``ConfigError`` here.
    """
    values = {section: {} for section in _SECTIONS}
    boxes: list[Box] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "box":
            parts = value.split()
            if len(parts) != 6:
                raise ConfigError(f"line {lineno}: box needs 6 numbers")
            try:
                nums = [float(p) for p in parts]
                boxes.append(Box(np.array(nums[:3]), np.array(nums[3:])))
            except ValueError as exc:  # a bad number, or a SceneError from Box
                raise ConfigError(f"line {lineno}: bad box {value!r}: {exc}") from exc
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, f, convert = _CONFIG_KEYS[key]
        try:
            values[section][f.name] = convert(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    values["scene"]["boxes"] = tuple(boxes)

    for key, (section, f, _) in _CONFIG_KEYS.items():
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values[section]:
            raise ConfigError(f"missing config key {key!r}")
    specs = []
    for section, spec in _SECTIONS.items():
        try:
            specs.append(spec(**values[section]))
        except ConfigError:
            raise
        except ValueError as exc:  # a GeometryError or SceneError, which starts with the field
            raise ConfigError(f"{section}.{exc}") from exc
    return BenchmarkConfig(*specs)


PRESET_NAMES = ("sphere", "box", "corridor")


def load_preset(name_or_path: str) -> BenchmarkConfig:
    """Load a shipped preset by name or any config file by path."""
    if name_or_path in PRESET_NAMES:
        text = (
            resources.files("plbench").joinpath(f"presets/{name_or_path}.cfg").read_text()
        )
    else:
        try:
            with open(name_or_path, "rb") as fh:
                text = fh.read().decode("utf-8", errors="replace")
        except OSError as exc:
            raise ConfigError(f"cannot read preset {name_or_path!r}: {exc}") from exc
    return parse_config(text)
