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
arrays; ``FrameData.points``/``.lines`` build measurement records from
them for callers that want one object per measurement.

Determinism: all sampling comes from a counter-based 64-bit Philox stream
(Gaussians via numpy's ziggurat). Within one build, identical specs and
seeds give byte-identical sequences. Each frame with noise enabled takes
one ``standard_normal`` block of 3 P + 6 L draws for its P rendered points
and L rendered lines, laid out point-major as (x, y, depth) per point,
then line-major as (sx, sy, sd, ex, ey, ed) per line, each group in
ascending landmark id; pixel slots are scaled by sigma_s and depth slots
by sigma_d. The draws are the ones one ``rng.normal`` call per slot in
that order would give. They are consumed even when the resulting
measurement is dropped.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from typing import get_type_hints

import numpy as np

from .geometry import (
    CameraIntrinsics,
    GeometryError,
    LineMeasurement,
    PointMeasurement,
    Points,
    Pose,
    Segments,
    check_integers,
    line_angles,
    matrix_to_quat,
    normalizable,
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
        c = np.asarray(self.center, dtype=float).reshape(3).copy()
        e = np.asarray(self.extents, dtype=float).reshape(3).copy()
        if not np.all(e > 0):
            raise SceneError("box extents must be positive")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(e))):
            raise SceneError("box center and extents must be finite")
        c.flags.writeable = False
        e.flags.writeable = False
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
            for axis in range(3):
                b, c = (axis + 1) % 3, (axis + 2) % 3
                for sb in (-1.0, 1.0):
                    for sc in (-1.0, 1.0):
                        fb = box.center[b] + sb * box.extents[b]
                        fc = box.center[c] + sc * box.extents[c]
                        if abs(fb) < 1e-9 and abs(fc) < 1e-9:
                            raise SceneError(
                                f"boxes[{k}] has an edge through the world origin; offset the box"
                            )


@dataclass(frozen=True)
class TrajectorySpec:
    """Camera path description; fields beyond the chosen kind are ignored,
    but every number must be finite.

    kinds:
      wave      sinusoidal lateral offset along the straight start->end path
      orbit     circle of ``radius`` around ``target`` at absolute ``height``
      corridor  rectangular circuit (legs ``leg_x`` x ``leg_y``), pure
                translation on legs, in-place corner turns at
                ``turn_rate_deg`` degrees per frame
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
        if self.kind == "wave" and not self.wavelength > 0:
            raise ConfigError(f"wave wavelength must be positive, got {self.wavelength}")
        if self.kind == "orbit" and not self.radius > 0:
            raise ConfigError(f"orbit radius must be positive, got {self.radius}")
        if self.kind == "corridor" and not (self.leg_x > 0 and self.leg_y > 0):
            raise ConfigError(f"corridor legs must be positive, got {self.leg_x} x {self.leg_y}")
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


def _lookat(position, target, up=(0.0, 0.0, 1.0)):
    """World-to-camera rotation R_cw and translation t with the optical
    axis through ``target``.

    Camera axes: x right, y down, z forward.
    """
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
    R_wc = np.column_stack([x, y, f])
    R_cw = R_wc.T
    return R_cw, -R_cw @ position


def _corridor_waypoints(spec: TrajectorySpec):
    """(position, heading) per frame for the rectangular circuit."""
    hx, hy = spec.leg_x / 2.0, spec.leg_y / 2.0
    z = spec.height
    corners = [
        np.array([-hx, -hy, z]),
        np.array([hx, -hy, z]),
        np.array([hx, hy, z]),
        np.array([-hx, hy, z]),
    ]
    headings = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([-1.0, 0.0, 0.0]),
        np.array([0.0, -1.0, 0.0]),
    ]
    if spec.turn_rate_deg > 0:
        corner_frames = int(math.ceil(90.0 / spec.turn_rate_deg))
    else:
        corner_frames = 0  # instantaneous turns
    leg_budget = spec.frame_count - 4 * corner_frames
    if leg_budget < 4:
        raise ConfigError("frame_count too small for the corner turn rate")
    lengths = [spec.leg_x, spec.leg_y, spec.leg_x, spec.leg_y]
    total = sum(lengths)
    leg_frames = [max(1, int(round(leg_budget * L / total))) for L in lengths]
    leg_frames[3] += leg_budget - sum(leg_frames)
    if leg_frames[3] < 1:
        raise ConfigError("frame_count too small for the corridor circuit")

    frames = []
    for leg in range(4):
        a = corners[leg]
        bpt = corners[(leg + 1) % 4]
        h = headings[leg]
        n = leg_frames[leg]
        for k in range(n):
            frames.append((a + (bpt - a) * (k / n), h))
        # in-place turn at the far corner
        h_next = headings[(leg + 1) % 4]
        for k in range(1, corner_frames + 1):
            ang = math.radians(min(k * spec.turn_rate_deg, 90.0))
            c, s = math.cos(ang), math.sin(ang)
            heading = np.array(
                [c * h[0] - s * h[1], s * h[0] + c * h[1], 0.0]
            )
            if k == corner_frames:
                heading = h_next
            frames.append((bpt.copy(), heading))
    return frames[: spec.frame_count]


def build_trajectory(spec: TrajectorySpec) -> list[Pose]:
    n = spec.frame_count
    target = np.asarray(spec.target, dtype=float)
    views = []  # (R_cw, t) per frame

    if spec.kind == "wave":
        start = np.asarray(spec.start, dtype=float)
        end = np.asarray(spec.end, dtype=float)
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
            arc = f * length
            p = start + f * path + spec.amplitude * math.sin(
                2.0 * math.pi * arc / spec.wavelength
            ) * lateral
            if spec.lookat == "forward":
                views.append(_lookat(p, p + direction))
            else:
                views.append(_lookat(p, target))

    elif spec.kind == "orbit":
        for i in range(n):
            theta = 2.0 * math.pi * i / n
            p = np.array(
                [
                    target[0] + spec.radius * math.cos(theta),
                    target[1] + spec.radius * math.sin(theta),
                    spec.height,
                ]
            )
            views.append(_lookat(p, target))

    else:  # corridor
        for p, heading in _corridor_waypoints(spec):
            if spec.lookat == "center":
                views.append(_lookat(p, target))
            else:
                views.append(_lookat(p, p + heading))

    R, t = zip(*views)
    return [Pose(q, t_i) for q, t_i in zip(matrix_to_quat(np.array(R)), t)]


# ---------------------------------------------------------------------------
# visibility


def occluded(center, targets, boxes) -> np.ndarray:
    """True where the open segment camera->target crosses any box interior.

    One slab test over (boxes, targets, axes): a target is occluded when
    the interior chord its ray covers strictly before reaching it, in
    units of the segment center->target, exceeds 1e-9 for some box. A
    zero direction component means the ray lies inside or outside that
    slab for its whole length.
    """
    C = np.asarray(center, dtype=float)
    D = np.atleast_2d(np.asarray(targets, dtype=float)) - C  # (N, 3)
    lo = np.array([box.min for box in boxes]).reshape(-1, 1, 3) - C  # (B, 1, 3)
    hi = np.array([box.max for box in boxes]).reshape(-1, 1, 3) - C
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = lo / D
        t2 = hi / D
    zero = D == 0.0
    inside = (lo <= 0.0) & (hi >= 0.0)
    t1 = np.where(zero, np.where(inside, -np.inf, np.inf), t1)
    t2 = np.where(zero, np.where(inside, np.inf, -np.inf), t2)
    t_enter = np.maximum(np.max(np.minimum(t1, t2), axis=-1), 0.0)  # (B, N)
    t_exit = np.minimum(np.min(np.maximum(t1, t2), axis=-1), 1.0 - 1e-9)
    return np.any(t_exit - t_enter > 1e-9, axis=0)


def _stacked_matvec(M, V) -> np.ndarray:
    """M @ v for every row v of V (n, 3); bit-identical to one ``M @ v``
    per row, which ``V @ M.T`` is not."""
    return (np.broadcast_to(M, (len(V), 3, 3)) @ V[:, :, None])[:, :, 0]


def _line_pixels(P_c, intr: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection of camera points P_c (n, 3) to pixels, without a
    depth check: rows behind the camera belong to segments the clip
    rejects, and are masked out."""
    z = P_c[:, 2]
    return np.stack(
        [intr.fx * P_c[:, 0] / z + intr.cx, intr.fy * P_c[:, 1] / z + intr.cy], axis=1
    )


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
    u1 = _line_pixels(A_c, intr)
    d = _line_pixels(B_c, intr) - u1

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
        pixels.append(_line_pixels(P_cs, intr))
        depths.append(zs)
        ends.append(P_cs)
    return ok, np.stack(pixels, 1), np.stack(depths, 1), np.stack(ends, 1)


def render_frame(
    scene: Scene,
    pose: Pose,
    intr: CameraIntrinsics,
    cfg: RenderConfig = RenderConfig(),
    frame_id: int = 0,
) -> FrameData:
    """Exact observations of the scene from one pose, as frame ``frame_id``
    with its rows in ascending landmark id.

    A point is observed when its depth lies in [z_near, z_far], its
    projection falls inside the image and no box interior blocks the ray.
    Line segments are clipped against the z_near plane and the image
    rectangle (depths recomputed at clip points); both clipped endpoints
    must pass the point test and the clipped 2D length must reach
    min_line_len. Every test runs on all landmarks at once, with one
    ``occluded`` call for the points and one for the line endpoints.
    """
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

    if len(lines):
        E = lines.endpoints
        A_c = _stacked_matvec(R, E[:, 0]) + pose.t
        B_c = _stacked_matvec(R, E[:, 1]) + pose.t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ok, pixels, depths, ends = _clip_lines(A_c, B_c, intr, cfg)
            ok &= ~(row_norms(pixels[:, 1] - pixels[:, 0]) < cfg.min_line_len)
        idx = np.nonzero(ok)[0]
        if len(idx):
            ends_w = _stacked_matvec(R.T, ends[idx].reshape(-1, 3) - pose.t)
            occ = occluded(cam_center, ends_w, scene.boxes)
            seen_lines = idx[~occ.reshape(-1, 2).any(axis=1)]

    # the records' rows, and so the seen rows, are in ascending landmark id
    p, q = seen_points, seen_lines
    return FrameData(frame_id, points.id[p], u[p], z[p], lines.id[q], pixels[q], depths[q])


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


def _frozen(a, dtype, shape, name: str) -> np.ndarray:
    """A read-only ``dtype`` copy of ``a``, which must have ``shape`` or be
    empty, and hold values that ``dtype`` represents exactly."""
    a = np.asarray(a)
    if a.size == 0:
        a = a.reshape(shape)
    if a.shape != shape or (a.size and not np.can_cast(a.dtype, dtype)):
        raise ValueError(f"{name} must be {np.dtype(dtype)} of shape {shape}, "
                         f"got {a.dtype} of shape {a.shape}")
    a = a.astype(dtype)
    a.flags.writeable = False
    return a


def _point_faults(pixels, depths):
    """The checks on point rows (pixels (n, 2), depths (n,)), in the
    order they apply to a row, as (failing rows, message) pairs."""
    return [
        (~np.isfinite(pixels).all(axis=1) | ~np.isfinite(depths), "measurement must be finite"),
        (~(depths > 0), "nonpositive depth"),
    ]


def _line_faults(pixels, depths):
    """``_point_faults`` for line rows (pixels (m, 2, 2), depths (m, 2)),
    then distinct endpoints."""
    return [
        (~np.isfinite(pixels).all(axis=(1, 2)) | ~np.isfinite(depths).all(axis=1),
         "measurement must be finite"),
        (~(depths > 0).all(axis=1), "nonpositive depth"),
        ((pixels[:, 0] == pixels[:, 1]).all(axis=1), "line measurement endpoints coincide"),
    ]


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

    Construction copies the arrays and checks them once: their shapes,
    finite values, positive depths and distinct line endpoints
    (GeometryError), and no landmark id twice among the points or among
    the lines (ValueError). Image bounds, landmark ids and line lengths
    need the sequence and are checked by ``Sequence.validate``.
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
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, shape, name))
        for kind, ids, faults in (
            ("point", self.point_ids, _point_faults(self.point_pixels, self.point_depths)),
            ("line", self.line_ids, _line_faults(self.line_pixels, self.line_depths)),
        ):
            fault = _first_fault(faults)
            if fault is not None:
                raise GeometryError(fault[1])
            ids = np.sort(ids)
            repeats = ids[1:][ids[1:] == ids[:-1]]
            if len(repeats):
                raise ValueError(
                    f"{kind} landmark id {repeats[0]} repeats in frame {self.frame_id}"
                )

    @property
    def points(self) -> list[PointMeasurement]:
        """The point rows as measurement records, built on each access."""
        return [
            PointMeasurement(i, u, d)
            for i, u, d in zip(self.point_ids.tolist(), self.point_pixels,
                               self.point_depths.tolist())
        ]

    @property
    def lines(self) -> list[LineMeasurement]:
        """The line rows as measurement records, built on each access."""
        return [
            LineMeasurement(i, PointMeasurement(i, u[0], d[0]), PointMeasurement(i, u[1], d[1]))
            for i, u, d in zip(self.line_ids.tolist(), self.line_pixels,
                               self.line_depths.tolist())
        ]


@dataclass
class GenerationReport:
    dropped_points: int = 0
    dropped_lines: int = 0
    empty_frames: list[int] = field(default_factory=list)


@dataclass(eq=False)
class Sequence:
    """A generated benchmark sequence: calibration, ground truth and
    per-frame measurements. The ground-truth landmarks are the records
    ``gt_points`` (``Points``) and ``gt_lines`` (``Segments``), which
    ``generate_sequence`` shares with its scene. ``report`` is generation
    metadata and is not serialized."""

    intrinsics: CameraIntrinsics
    gt_trajectory: list[Pose]
    frames: list[FrameData]
    gt_points: Points
    gt_lines: Segments
    parallel_groups: dict[int, list[int]]
    report: GenerationReport | None = None

    def validate(self, min_line_len: float = 0.0) -> None:
        """Check every frame against the calibration and the landmark
        records (each error names the frame), and the parallel groups."""
        if len(self.frames) != len(self.gt_trajectory):
            raise ValueError("frame count does not match trajectory length")
        self.check_frame_ids()
        known_points, known_lines = self.gt_points.id, self.gt_lines.id
        for f in self.frames:
            pid, lid, ends = f.point_ids, f.line_ids, f.line_pixels
            for faults in (
                [(~np.isin(pid, known_points), lambda r: f"dangling point landmark id {pid[r]}"),
                 (~self.intrinsics.contains(f.point_pixels), "point measurement outside the image")],
                [(~np.isin(lid, known_lines), lambda r: f"dangling line landmark id {lid[r]}"),
                 (~self.intrinsics.contains(ends).all(axis=1), "line measurement outside the image"),
                 (row_norms(ends[:, 1] - ends[:, 0]) < min_line_len,
                  "line measurement shorter than min_line_len")],
            ):
                fault = _first_fault(faults)
                if fault is not None:
                    raise ValueError(f"{fault[1]} in frame {f.frame_id}")
        self.check_parallel_groups()

    def check_frame_ids(self) -> None:
        """Every frame's ``frame_id`` is its index in ``frames``, which
        names its file."""
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


def _add_noise(frame: FrameData, noise: NoiseParams, intr, cfg: RenderConfig, rng, report):
    """The noisy copy of one frame's exact observations, from one block of
    draws: (x, y, depth) per point, then (sx, sy, sd, ex, ey, ed) per line.
    Measurements the noise moves out of the image, out of positive depth
    or below min_line_len are dropped and counted in ``report``."""
    s, sd = noise.sigma_s, noise.sigma_d
    n, m = len(frame.point_ids), len(frame.line_ids)
    a = gaussian_noise(rng, np.concatenate([np.tile([s, s, sd], n), np.tile([s, s, sd] * 2, m)]))
    P = np.column_stack([frame.point_pixels, frame.point_depths]) + a[: 3 * n].reshape(-1, 3)
    ends, ends_d = frame.line_pixels, frame.line_depths
    L = np.column_stack([ends[:, 0], ends_d[:, 0], ends[:, 1], ends_d[:, 1]])
    L += a[3 * n:].reshape(-1, 6)

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
    return FrameData(
        frame.frame_id,
        frame.point_ids[keep_p], P[keep_p, :2], d[keep_p],
        frame.line_ids[keep_l], L[keep_l][:, [0, 1, 3, 4]].reshape(-1, 2, 2),
        np.column_stack([d_s, d_e])[keep_l],
    )


def generate_sequence(
    scene: Scene,
    trajectory: list[Pose],
    noise: NoiseParams,
    intr: CameraIntrinsics,
    cfg: RenderConfig = RenderConfig(),
) -> Sequence:
    """Render every frame and corrupt surviving observations with noise.

    The noise stream is a child of the scene seed, so one top-level seed
    reproduces the whole sequence. Noisy measurements that leave the image,
    lose positive depth or shrink below min_line_len are dropped and counted
    in the report.
    """
    seed_seq = np.random.SeedSequence(entropy=scene.seed, spawn_key=(1,))
    rng = np.random.Generator(np.random.Philox(seed_seq))

    report = GenerationReport()
    frames: list[FrameData] = []
    for frame_id, pose in enumerate(trajectory):
        frame = render_frame(scene, pose, intr, cfg, frame_id)
        if noise.enabled:
            frame = _add_noise(frame, noise, intr, cfg, rng, report)
        if not (len(frame.point_ids) or len(frame.line_ids)):
            report.empty_frames.append(frame_id)
        frames.append(frame)

    return Sequence(
        intrinsics=intr,
        gt_trajectory=list(trajectory),
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
