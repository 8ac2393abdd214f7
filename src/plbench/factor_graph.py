"""Co-visibility factor graph: vertices, point/line residuals, Jacobians.

Residuals are purely 2D. A point factor compares the measured pixel with
the re-projected landmark; a line factor stacks the signed distances of
the two measured endpoints from the re-projected infinite line. Measured
depths never appear here; they only seed initial landmark values.

Vertices and factors are columns. ``poses`` is a ``geometry.Trajectory``:
pose vertex i is its row i, the pose of frame i. ``Points`` (the landmark
record of ``geometry``) and ``Lines`` hold one row per vertex, sorted by
int64 ``id``; ``fixed`` is the sorted array of gauge pose ids.
``point_factors`` and ``line_factors`` each hold one ``Factors`` record,
one row per measurement: ``frame`` (F,) int64 pose ids, ``landmark`` (F,)
int64 landmark ids, ``u`` the measured pixels, (F, 2) for points and
(F, 2, 2) start/end endpoint pixels for lines, and ``weight`` (F,)
1/sigma^2. Like the vertex columns, the factor columns are read-only
copies cast by ``geometry._column``, and their pixels and weights are
finite. ``fixed`` goes through the same cast, and a graph is built or
read only with a ``sigma_s`` that is finite and > 0.

A graph is checked when it is built, and refuses there every graph that
``dataset_io.read_graph`` refuses: each record checks its own rows, and
``FactorGraph`` checks how they fit together. So every ``FactorGraph``
is valid, and no caller checks one again.

Pose increments are left-multiplicative with delta = (rotation 3-vector,
translation 3-vector). Line increments are the 4-DOF orthonormal update.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    CameraIntrinsics,
    GeometryError,
    Points,
    Pose,
    Trajectory,
    _column,
    _Vertices,
    orthonormal_from_plucker,
    plucker_from_endpoints,
    plucker_from_orthonormal,
    project,
    quat_to_matrix,
    row_dots,
    row_norms,
    skew,
)
from .simulator import Sequence, _frame_rows

_DEPTH_EPS = 1e-9
_LINE_EPS = 1e-12


class GraphConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class Factors:
    """Factors of one kind as read-only columns, one row per factor (see
    the module docstring for the column layout). Construction raises
    GraphConstructionError for a column of the wrong type or row shape,
    for columns of different lengths, for a non-finite pixel or weight and
    for a weight <= 0."""

    frame: np.ndarray
    landmark: np.ndarray
    u: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        pixel = (2, 2) if np.ndim(self.u) == 3 else (2,)
        for name, dtype, shape in (("frame", np.int64, ()), ("landmark", np.int64, ()),
                                   ("u", float, pixel), ("weight", float, ())):
            object.__setattr__(self, name, _column(getattr(self, name), dtype, (None, *shape),
                                                   f"factor {name}", GraphConstructionError))
        if not len(self.frame) == len(self.landmark) == len(self.u) == len(self.weight):
            raise GraphConstructionError("factor columns differ in length")
        for name in ("u", "weight"):
            if not np.isfinite(getattr(self, name)).all():
                raise GraphConstructionError(f"factor {name} must be finite")
        if (self.weight <= 0).any():
            raise GraphConstructionError("factor weight must be > 0")

    def __len__(self) -> int:
        return len(self.frame)


def _plucker_violations(n, d) -> np.ndarray:
    """Rows of Plucker pairs n, d (m, 3) whose |n . d| exceeds
    1e-10 (|n| |d| + 1), or where either side overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        dots = np.abs(row_dots(n, d))
        bounds = 1e-10 * (row_norms(n) * row_norms(d) + 1.0)
    return ~(dots <= bounds) | np.isinf(bounds)


@dataclass(frozen=True)
class Lines(_Vertices):
    """Line landmark vertices: Plucker moment ``n`` and direction ``d`` (N, 3).
    Construction also refuses, as ``read_graph`` does, a zero direction and
    a pair off the Plucker constraint (``_plucker_violations``)."""

    id: np.ndarray
    n: np.ndarray
    d: np.ndarray
    kind, _COLUMNS = "line", (("n", float, (3,)), ("d", float, (3,)))
    _error = GraphConstructionError

    def __post_init__(self):
        super().__post_init__()
        with np.errstate(over="ignore"):
            if (row_norms(self.d) == 0.0).any():
                raise GraphConstructionError("line direction must be nonzero")
        if _plucker_violations(self.n, self.d).any():
            raise GraphConstructionError("line vertex violates the Plucker constraint")


@dataclass(frozen=True)
class FactorGraph:
    """A co-visibility factor graph, checked when it is built (see the
    module docstring for its columns). Construction raises
    GraphConstructionError for a graph with a pose or a factor but no
    fixed pose (the gauge), a fixed id that is not a pose row, point
    factors whose pixels are not (F, 2) or line factors whose pixels are
    not (F, 2, 2), and a factor on a pose row or landmark id the graph does
    not hold; ``Lines`` refuses its own bad rows."""

    intrinsics: CameraIntrinsics
    poses: Trajectory = field(default_factory=lambda: Trajectory([], []))
    fixed: np.ndarray = ()
    points: Points = field(default_factory=lambda: Points([], []))
    lines: Lines = field(default_factory=lambda: Lines([], [], []))
    point_factors: Factors = field(default_factory=lambda: Factors([], [], np.empty((0, 2)), []))
    line_factors: Factors = field(default_factory=lambda: Factors([], [], np.empty((0, 2, 2)), []))

    def __post_init__(self):
        fixed = np.unique(_column(list(self.fixed), np.int64, (None,), "fixed",
                                  GraphConstructionError, copy=False))
        fixed.flags.writeable = False
        object.__setattr__(self, "fixed", fixed)
        if not len(fixed):
            if len(self.poses) or len(self.point_factors) or len(self.line_factors):
                raise GraphConstructionError("graph needs at least one fixed pose (gauge)")
        elif fixed[0] < 0 or fixed[-1] >= len(self.poses):
            raise GraphConstructionError("fixed flag on unknown pose vertex")
        for factors, landmarks, pixel in ((self.point_factors, self.points, (2,)),
                                          (self.line_factors, self.lines, (2, 2))):
            # Factors takes its pixel shape from its pixels; the slot fixes it
            _column(factors.u, float, (None, *pixel), f"{landmarks.kind} factor u",
                    GraphConstructionError, copy=False)
            # pose ids index the rows, where numpy would read -1 as the last
            outside = (factors.frame < 0) | (factors.frame >= len(self.poses))
            if outside.any():
                raise GraphConstructionError(
                    f"dangling factor reference to pose {factors.frame[outside][0]}")
            _, found = landmarks.find(factors.landmark)
            if not found.all():
                raise GraphConstructionError(
                    f"dangling factor reference to {landmarks.kind} {factors.landmark[~found][0]}")

    def total_cost(self) -> float:
        """Weighted squared residual sum over all valid factors.

        The residual halves of ``point_terms`` and ``line_terms`` evaluate
        every factor, without Jacobians; a factor the kernels mark invalid
        (point behind its camera, degenerate line projection) adds 0.
        """
        R = quat_to_matrix(self.poses.q)
        t = self.poses.t
        cost = 0.0
        fs = self.point_factors
        if len(fs):
            P = self.points.position[self.points.find(fs.landmark)[0]]
            res, _, _ = _point_residuals(R[fs.frame], t[fs.frame], P, fs.u, self.intrinsics)
            cost += float(fs.weight @ np.sum(res * res, axis=1))
        fs = self.line_factors
        if len(fs):
            U, W, _ = orthonormal_from_plucker(self.lines.n, self.lines.d)
            m, _ = self.lines.find(fs.landmark)
            res, _, _ = _line_residuals(
                R[fs.frame], t[fs.frame], U[m], W[m], fs.u[:, 0], fs.u[:, 1], self.intrinsics
            )
            cost += float(fs.weight @ np.sum(res * res, axis=1))
        return cost


# ---------------------------------------------------------------------------
# vectorized evaluation core: every residual and projection in this module
# and in tracking goes through these functions


def _project_points(R, t, P_w, intr: CameraIntrinsics):
    """Pinhole projection of world points, batched over axis 0.

    Returns (P_c (F,3), valid (F,), zs (F,), proj (F,2)). Points at or
    behind the camera are invalid; their depth in ``zs`` is replaced by 1
    so that ``proj`` stays finite.
    """
    P_c = np.einsum("fij,fj->fi", R, np.asarray(P_w, dtype=float))
    P_c += t  # in place: one (F, 3) array less at the peak
    z = P_c[:, 2]
    valid = z > _DEPTH_EPS
    zs = np.where(valid, z, 1.0)
    return P_c, valid, zs, project(P_c, zs, intr)


def _point_residuals(R, t, P_w, u, intr: CameraIntrinsics):
    """Residual half of ``point_terms``: (res (F,2), valid (F,), aux),
    invalid rows zeroed; ``aux`` = (P_c, zs) feeds the Jacobians."""
    P_c, valid, zs, proj = _project_points(
        np.asarray(R, dtype=float), np.asarray(t, dtype=float), P_w, intr
    )
    res = np.asarray(u, dtype=float) - proj
    res[~valid] = 0.0
    return res, valid, (P_c, zs)


def point_terms(R, t, P_w, u, intr: CameraIntrinsics):
    """Residuals and Jacobians for point factors, batched over axis 0.

    Returns (res (F,2), J_pose (F,2,6), J_point (F,2,3), valid (F,)).
    Factors whose landmark falls behind the camera are invalid; their rows
    are zeroed.
    """
    R = np.asarray(R, dtype=float)
    res, valid, (P_c, zs) = _point_residuals(R, t, P_w, u, intr)
    J_pose, A = _pose_jacobian(P_c, zs, valid, intr)
    J_point = -np.einsum("fij,fjk->fik", A, R)
    J_point[~valid] = 0.0
    return res, J_pose, J_point, valid


def _pose_jacobian(P_c, zs, valid, intr: CameraIntrinsics):
    """Pose half of the point Jacobians, from the ``aux`` and ``valid`` of
    ``_point_residuals``: (J_pose (F,2,6), A (F,2,3)) with invalid rows of
    J_pose zeroed; A = d proj / d P_c is what ``J_point`` is built from."""
    F = len(P_c)
    A = np.zeros((F, 2, 3))
    zs2 = zs**2
    A[:, 0, 0] = intr.fx / zs
    A[:, 0, 2] = -intr.fx * P_c[:, 0] / zs2
    A[:, 1, 1] = intr.fy / zs
    A[:, 1, 2] = -intr.fy * P_c[:, 1] / zs2

    # the product first, so that skew(P_c) is freed before J_pose is made
    rot = np.einsum("fij,fjk->fik", A, skew(P_c))  # -A @ (-[P_c]x)
    J_pose = np.empty((F, 2, 6))
    J_pose[:, :, :3] = rot
    del rot
    np.negative(A, out=J_pose[:, :, 3:])
    J_pose[~valid] = 0.0
    return J_pose, A


def _lines_to_camera(R, t, n_w, d_w):
    """World Plucker lines n_w, d_w (F, 3) in the camera frames R (F, 3, 3),
    t (F, 3): (n_c, R n_w, d_c) with d_c = R d_w and n_c = R n_w + t x d_c."""
    Rn = np.einsum("fij,fj->fi", R, n_w)
    Rd = np.einsum("fij,fj->fi", R, d_w)
    return Rn + np.cross(t, Rd), Rn, Rd


def _line_residuals(R, t, U, W, u_s, u_e, intr: CameraIntrinsics):
    """Residual half of ``line_terms``: (res (F,2), valid (F,), aux),
    invalid rows zeroed; ``aux`` holds the intermediates the Jacobians
    reuse."""
    R = np.asarray(R, dtype=float)
    t = np.asarray(t, dtype=float)
    u_s = np.asarray(u_s, dtype=float)
    u_e = np.asarray(u_e, dtype=float)
    F = len(R)

    n_c, Rn, Rd = _lines_to_camera(R, t, *plucker_from_orthonormal(U, W))
    l = n_c @ intr.line_matrix().T  # (F, 3) homogeneous image line, unnormalized
    denom2 = l[:, 0] ** 2 + l[:, 1] ** 2
    valid = denom2 > _LINE_EPS
    denom = np.sqrt(np.where(valid, denom2, 1.0))

    ub_s = np.concatenate([u_s, np.ones((F, 1))], axis=1)
    ub_e = np.concatenate([u_e, np.ones((F, 1))], axis=1)
    res = np.stack(
        [np.sum(ub_s * l, axis=1) / denom, np.sum(ub_e * l, axis=1) / denom], axis=1
    )
    res[~valid] = 0.0
    return res, valid, (Rn, Rd, l, denom2, denom, ub_s, ub_e)


def line_terms(R, t, U, W, u_s, u_e, intr: CameraIntrinsics):
    """Residuals and Jacobians for line factors, batched over axis 0.

    The Plucker pair is reconstructed from the orthonormal state (U, W)
    by ``plucker_from_orthonormal``, so derivatives w.r.t. the 4-DOF
    update probe exactly the composition
    ``plucker_from_orthonormal(*orthonormal_update(U[i], W[i], delta))``.

    Returns (res (F,2), J_pose (F,2,6), J_line (F,2,4), valid (F,)).
    """
    R = np.asarray(R, dtype=float)
    t = np.asarray(t, dtype=float)
    U = np.asarray(U, dtype=float)
    W = np.asarray(W, dtype=float)
    res, valid, (Rn, Rd, l, denom2, denom, ub_s, ub_e) = _line_residuals(
        R, t, U, W, u_s, u_e, intr
    )
    F = len(R)
    w1 = W[:, 0, 0]
    w2 = W[:, 1, 0]
    u1 = U[:, :, 0]
    u2 = U[:, :, 1]
    u3 = U[:, :, 2]

    # d res_i / d l = ub_i / denom - (ub_i . l) (l0, l1, 0) / denom^3
    #               = ub_i / denom - res_i (l0, l1, 0) / denom^2
    lxy = np.zeros((F, 3))
    lxy[:, :2] = l[:, :2]
    dres_dl = np.empty((F, 2, 3))
    dres_dl[:, 0] = ub_s / denom[:, None] - (res[:, 0] / denom2)[:, None] * lxy
    dres_dl[:, 1] = ub_e / denom[:, None] - (res[:, 1] / denom2)[:, None] * lxy

    G = np.einsum("fij,jk->fik", dres_dl, intr.line_matrix())  # d res / d n_c, (F, 2, 3)

    # pose: d n_c / d omega = -[R n_w]x + [(R d_w) x t]x ; d n_c / d rho = -[R d_w]x
    dnc_domega = -skew(Rn) + skew(np.cross(Rd, t))
    dnc_drho = -skew(Rd)
    J_pose = np.empty((F, 2, 6))
    J_pose[:, :, :3] = np.einsum("fij,fjk->fik", G, dnc_domega)
    J_pose[:, :, 3:] = np.einsum("fij,fjk->fik", G, dnc_drho)

    # orthonormal 4-DOF: columns are d(n_w,d_w)/d delta
    dn_w = np.zeros((F, 3, 4))
    dn_w[:, :, 1] = -w1[:, None] * u3
    dn_w[:, :, 2] = w1[:, None] * u2
    dn_w[:, :, 3] = -w2[:, None] * u1
    dd_w = np.zeros((F, 3, 4))
    dd_w[:, :, 0] = w2[:, None] * u3
    dd_w[:, :, 2] = -w2[:, None] * u1
    dd_w[:, :, 3] = w1[:, None] * u2
    t_hat = skew(t)
    dnc_ddelta = np.einsum("fij,fjk->fik", R, dn_w) + np.einsum(
        "fij,fjk->fik", t_hat, np.einsum("fij,fjk->fik", R, dd_w)
    )
    J_line = np.einsum("fij,fjk->fik", G, dnc_ddelta)

    J_pose[~valid] = 0.0
    J_line[~valid] = 0.0
    return res, J_pose, J_line, valid


# ---------------------------------------------------------------------------
# single-factor operations: thin wrappers over a batch of one


def point_residual(u, P_w, T: Pose, intr: CameraIntrinsics) -> np.ndarray:
    """Eq.-style 2D re-projection residual u - pi(P_w, T); raises
    GeometryError when the point is not in front of the camera."""
    res, valid, _ = _point_residuals(
        T.rotation()[None], T.t[None], np.asarray(P_w, float)[None],
        np.asarray(u, float)[None], intr,
    )
    if not valid[0]:
        raise GeometryError("point behind the camera")
    return res[0]


def line_residual(u_s, u_e, L, T: Pose, intr: CameraIntrinsics) -> np.ndarray:
    """Signed distances of both measured endpoints from the re-projected
    Plucker line L = (n, d); raises GeometryError on a degenerate line
    projection."""
    U, W, _ = orthonormal_from_plucker(np.reshape(L[0], (1, 3)), np.reshape(L[1], (1, 3)))
    res, valid, _ = _line_residuals(
        T.rotation()[None], T.t[None], U, W,
        np.asarray(u_s, float)[None], np.asarray(u_e, float)[None], intr,
    )
    if not valid[0]:
        raise GeometryError("degenerate line projection")
    return res[0]


# ---------------------------------------------------------------------------
# construction


def _factor_weight(sigma_s: float) -> float:
    """The weight 1/sigma_s^2 of a factor with pixel noise ``sigma_s``,
    which must be finite and > 0."""
    if not 0 < sigma_s < np.inf:
        raise GraphConstructionError(f"sigma_s must be finite and > 0, got {sigma_s}")
    return 1.0 / (sigma_s * sigma_s)


def build_covisibility_graph(
    seq: Sequence,
    trajectory: Trajectory,
    initial_map,
    sigma_s: float = 1.0,
) -> FactorGraph:
    """One pose vertex per frame (first fixed): ``trajectory`` itself, as
    the graph's ``poses``; one vertex per landmark observed at least twice;
    one factor per measurement of those landmarks, on the pose of its
    frame. A sequence that ``Sequence.check_frames`` refuses (a frame count
    other than its pose count, or a frame whose ``frame_id`` is not its
    index) is refused. The graph is checked as ``FactorGraph`` builds it.

    ``initial_map`` provides the initial values as two records:
    ``initial_map.points``, a ``geometry.Points``, and
    ``initial_map.lines``, a ``geometry.Segments``, each holding every
    landmark the graph takes. A ``simulator.Scene``, a
    ``tracking.SparseMap`` or a namespace of a sequence's ``gt_points`` and
    ``gt_lines`` satisfies this. Measurements enter as 2D pixels only.
    """
    if len(trajectory) != len(seq.frames):
        raise GraphConstructionError("trajectory length does not match frame count")
    if not seq.frames:
        raise GraphConstructionError("sequence has no frames")
    try:  # the factors' frame ids are pose rows
        seq.check_frames()
    except ValueError as exc:
        raise GraphConstructionError(str(exc)) from None
    weight = _factor_weight(sigma_s)
    point_ids, point_factors = _covisible(seq.frames, "point", weight)
    line_ids, line_factors = _covisible(seq.frames, "line", weight)

    rows = []
    for ids, record in ((point_ids, initial_map.points), (line_ids, initial_map.lines)):
        r, found = record.find(ids)
        if not found.all():
            raise GraphConstructionError(
                f"{record.kind} {ids[~found][0]} observed but missing from the map")
        rows.append(r)
    n, d = plucker_from_endpoints(*initial_map.lines.endpoints[rows[1]].swapaxes(0, 1))
    s = np.sqrt(row_dots(n, n) + row_dots(d, d))[:, None]
    return FactorGraph(
        intrinsics=seq.intrinsics,
        poses=trajectory, fixed=[0], points=Points(point_ids, initial_map.points.position[rows[0]]),
        lines=Lines(line_ids, n / s, d / s),
        point_factors=point_factors, line_factors=line_factors,
    )


def _covisible(frames, kind: str, weight: float):
    """(sorted ids of the landmarks two or more frames observe, the
    factors of their measurements in frame order), from the ``kind``
    ("point" or "line") rows of ``frames``."""
    frame, landmark, u, _ = _frame_rows(frames, kind)
    seen, counts = np.unique(landmark, return_counts=True)
    covisible = seen[counts >= 2]
    keep = np.isin(landmark, covisible)
    return covisible, Factors(frame[keep], landmark[keep], u[keep],
                              np.full(np.count_nonzero(keep), weight))
