"""SE(3), pinhole and 3D-line primitives shared by every other module.

Conventions:
  * ``Pose`` stores the world-to-camera transform T_cw: X_c = R @ X_w + t.
  * A trajectory is one ``Trajectory`` record, the poses of frames 0..n-1
    as (q (n, 4), t (n, 3)) stacks, from ``simulator.build_trajectory``
    through the trackers, the sequence files and the factor graph, whose
    pose vertex i is its row i, to the metrics. ``Pose`` serves where one
    pose's math runs.
  * Quaternions are (qx, qy, qz, qw), unit norm.
  * Pixels: u right, v down, origin at the top-left image corner.
  * A 3D line in Plucker form is the pair (n, d) with moment n = Ps x Pe and
    direction d = Pe - Ps for any two points Ps, Pe on the line; n . d = 0.
  * The orthonormal line representation is the pair (U in SO(3), W in SO(2));
    minimal updates are 4-vectors (3 for U, 1 for W).

All values are immutable after construction and every function is pure.

Landmarks are records of columns: ``Points`` (id, position) and
``Segments`` (id, endpoints) hold one row per landmark, sorted by int64
id, from the scene through the sequence files and the fused map to the
factor graph, whose line vertex record shares their base, ``_Vertices``.
That base is the one check of a landmark or vertex row, and the reader
of ``dataset_io`` builds a record rather than check its rows again. Its
fault table, ``_first_fault`` over ``_repeats`` and ``_all_rows``, is the
same one ``simulator`` checks frame rows with.

Every id and value column of a record (the landmark and vertex records,
``Trajectory``, ``simulator.FrameData``, ``factor_graph.Factors`` and the
graph's gauge ids), and every array that a lookup or a map fusion takes,
goes through one cast, ``_column``. It refuses a wrong row shape and a
value that the column's dtype does not hold exactly, such as a float or a
string as an id, with a ValueError that names the column. It truncates
nothing, and reshapes only an empty column.

Each piece of math has one kernel. The rotation kernels (``skew``,
``so3_exp``, ``quat_to_matrix``, ``matrix_to_quat``, ``rotation_angles``),
``rigid_fit``, ``plucker_from_orthonormal`` and ``Pose.transform`` take
one item or a stack of them along leading axes, and one item's result
equals its row of a stack bit for bit, so a caller may batch any set of
them without changing a single output bit. ``se3_exp_update`` and
``orthonormal_from_plucker`` take a stack; one item is a stack of one.
The orthonormal line state is the pair of arrays (U, W).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric input (nonpositive depth, degenerate line, ...)."""


class DegenerateLineError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# rotation helpers


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]x of v (3,), or of each row of v (..., 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def row_dots(a, b) -> np.ndarray:
    """``a[i] @ b[i]`` for each row of a, b (n, k), bit for bit: a stack of
    1-D dot products, not a sum over ``a * b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(v) -> np.ndarray:
    """``np.linalg.norm`` of each row of v (n, k), bit for bit (it is
    sqrt(v @ v) on one vector; ``norm(axis=1)`` rounds differently)."""
    return np.sqrt(row_dots(v, v))


def normalizable(v) -> np.ndarray:
    """Whether each row of v (n, k) has a finite nonzero ``row_norms``, so
    that the row over its norm is a unit vector. The norm overflows once a
    component passes about 1e154 and underflows below about 1e-154."""
    norms = row_norms(v)
    return np.isfinite(norms) & (norms > 0)


_EYE3 = np.eye(3)


def _so3_exp_and_jacobian(omega):
    """Rodrigues exponential and SO(3) left Jacobian of each row of omega
    (m, 3), as two (m, 3, 3) stacks; a row below 1e-8 rad takes the
    second-order series of both, which is formed only when a row needs
    it."""
    angle = row_norms(omega)
    small = angle < 1e-8
    series = small.any()
    # 1 on the series rows keeps their unused branch finite
    a = np.where(small, 1.0, angle) if series else angle
    sin, cos = np.sin(a), np.cos(a)
    a2 = a * a
    c1 = ((1.0 - cos) / a2)[:, None, None]
    K = skew(omega)
    KK = K @ K
    R = _EYE3 + (sin / a)[:, None, None] * K + c1 * KK
    J = _EYE3 + c1 * K + ((a - sin) / (a2 * a))[:, None, None] * KK
    if series:
        small = small[:, None, None]
        R = np.where(small, _EYE3 + K + 0.5 * KK, R)
        J = np.where(small, _EYE3 + 0.5 * K + KK / 6.0, J)
    return R, J


def so3_exp(omega) -> np.ndarray:
    """Rotation matrix of the rotation vector omega (3,), or of each row of
    omega (..., 3): Rodrigues formula, series expansion below 1e-8 rad."""
    omega = np.asarray(omega, dtype=float)
    R, _ = _so3_exp_and_jacobian(omega.reshape(-1, 3))
    return R.reshape(omega.shape + (3,))


def rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_angles(R) -> np.ndarray:
    """Geodesic angle in radians, in [0, pi], of the rotation matrix R
    (3, 3) or of each matrix of R (..., 3, 3): atan2(|a|, (tr R - 1) / 2)
    with the axial vector a = (R21 - R12, R02 - R20, R10 - R01) / 2, which
    is exact near 0 and near pi, where arccos of the trace is not."""
    R = np.asarray(R, dtype=float)
    r = R.reshape(-1, 9)
    axial = 0.5 * (r[:, [7, 2, 3]] - r[:, [5, 6, 1]])
    cos = 0.5 * ((r[:, 0] + r[:, 4] + r[:, 8]) - 1.0)
    return np.arctan2(row_norms(axial), cos).reshape(R.shape[:-2])


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of the unit quaternion q (4,), or of each row of q
    (..., 4). Each product of two components is formed once."""
    q = np.asarray(q, dtype=float)
    x, y, z, w = q.T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    xw, yw, zw = x * w, y * w, z * w
    R = np.array([
        1 - 2 * (yy + zz), 2 * (xy - zw), 2 * (xz + yw),
        2 * (xy + zw), 1 - 2 * (xx + zz), 2 * (yz - xw),
        2 * (xz - yw), 2 * (yz + xw), 1 - 2 * (xx + yy),
    ])
    return np.ascontiguousarray(R.T).reshape(q.shape[:-1] + (3, 3))


# Shepperd's method, per branch k: k = 3 (qw) if the trace is positive,
# else the axis of the largest diagonal entry. With s = 4 |q_k|, each other
# component c is (a_c + b_c) / s for the entries a_c, b_c of R whose flat
# indices row k lists, where index 9 + i stands for -R.flat[i], 18 for the
# trace and 19 for 0; the last three entries sum to 4 q_k^2 - 1: for k < 3
# that is R_kk - R_ii - R_jj, where i and j are the axes after k, and for
# k = 3 the trace, plus two zeros that leave it as it is. Slot k is unused.
_SHEPPERD = np.array([
    #  a_0..a_3      b_0..b_3     diagonal
    [0, 1, 2, 7, 0, 3, 6, 14, 0, 13, 17],
    [1, 0, 5, 2, 3, 0, 7, 15, 4, 17, 9],
    [2, 5, 0, 3, 6, 7, 0, 10, 8, 9, 13],
    [7, 2, 3, 0, 14, 15, 10, 0, 18, 19, 19],
])


def matrix_to_quat(R) -> np.ndarray:
    """(qx, qy, qz, qw) with qw >= 0 of the rotation matrix R (3, 3), or of
    each matrix of R (..., 3, 3), by Shepperd's branch selection.

    Each quaternion is divided by its computed norm n, so its own norm is
    within 4 u of 1 (u = eps / 2: u from each division, 3 u from n) and
    the norm that ``Pose`` computes of it within 7 u, below the 8 u
    (4 eps) past which ``Pose`` and ``Trajectory`` would normalize it
    again: both store every result as it is."""
    R = np.asarray(R, dtype=float)
    r = R.reshape(-1, 9)
    rows = np.arange(len(r))
    diagonal = r[:, ::4]
    tr = np.add.reduce(diagonal, axis=1)  # np.trace's sum
    k = np.where(tr > 0.0, 3, diagonal.argmax(axis=1))
    g = np.concatenate([r, -r, tr[:, None], np.zeros((len(r), 1))], axis=1)[rows[:, None],
                                                                          _SHEPPERD[k]]
    s = np.sqrt(((g[:, 8] + g[:, 9]) + g[:, 10]) + 1.0) * 2.0
    q = (g[:, :4] + g[:, 4:8]) / s[:, None]
    q[rows, k] = 0.25 * s
    norm = row_norms(q)[:, None]  # that of q and of -q
    return (q / np.where(q[:, 3:] < 0.0, -norm, norm)).reshape(R.shape[:-2] + (4,))


def quat_multiply(q1, q2) -> np.ndarray:
    x1, y1, z1, w1 = q1
    x2, y2, z2, w2 = q2
    return np.array(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ]
    )


# ---------------------------------------------------------------------------
# camera


def check_integers(spec, error, minimum: int) -> None:
    """Raise ``error``, starting with the field's name, for the first field
    of the dataclass ``spec`` annotated ``int`` that does not hold an
    integer >= ``minimum``. A float or a bool is not an integer."""
    types = get_type_hints(type(spec))
    for f in fields(spec):
        v = getattr(spec, f.name)
        if types[f.name] is int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                                     or v < minimum):
            raise error(f"{f.name} must be an integer >= {minimum}, got {v}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        # each message starts with the field at fault
        check_integers(self, GeometryError, 1)
        for name, v, upper in (("fx", self.fx, math.inf), ("fy", self.fy, math.inf),
                               ("cx", self.cx, self.width), ("cy", self.cy, self.height)):
            if not 0 < v < upper:
                raise GeometryError(f"{name} must lie in (0, {upper}), got {v}")

    def line_matrix(self) -> np.ndarray:
        """Maps a camera-frame line moment to the homogeneous image line.

        Equals det(K) * inv(K).T, so that line_matrix @ (P1 x P2) equals
        (K P1) x (K P2) exactly for any camera points P1, P2.
        """
        fx, fy, cx, cy = self.fx, self.fy, self.cx, self.cy
        return np.array([[fy, 0, 0], [0, fx, 0], [-fy * cx, -fx * cy, fx * fy]])

    def contains(self, u) -> np.ndarray:
        """Half-open image-bounds test for pixels of shape (..., 2)."""
        u = np.asarray(u, dtype=float)
        return (
            (u[..., 0] >= 0.0)
            & (u[..., 0] < self.width)
            & (u[..., 1] >= 0.0)
            & (u[..., 1] < self.height)
        )


def project(P_c, z, intr: CameraIntrinsics) -> np.ndarray:
    """Pixels (n, 2) of camera points P_c (n, 3) at depths z (n,):
    fx x / z + cx, fy y / z + cy, with no depth check."""
    u = np.empty((len(z), 2))  # filled in place: np.stack costs more on few points
    np.divide(intr.fx * P_c[:, 0], z, out=u[:, 0])
    np.divide(intr.fy * P_c[:, 1], z, out=u[:, 1])
    u[:, 0] += intr.cx
    u[:, 1] += intr.cy
    return u


def backproject(u, d, intr: CameraIntrinsics) -> np.ndarray:
    """Pixel (..., 2) plus depth (...) -> camera-frame point (..., 3). A
    depth that is not positive, NaN included, raises GeometryError, and so
    does, after it, an infinite depth or a pixel that is not finite."""
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0):
        raise GeometryError("backprojection requires positive depth")
    if not (np.all(d < np.inf) and np.isfinite(u).all()):
        raise GeometryError("backprojection requires finite pixels and depths")
    x = (u[..., 0] - intr.cx) / intr.fx * d
    y = (u[..., 1] - intr.cy) / intr.fy * d
    return np.stack([x, y, np.broadcast_to(d, x.shape)], axis=-1)


# ---------------------------------------------------------------------------
# poses


# the refusals of ``Pose``, in the order it checks a pose; ``Trajectory``
# makes the same checks on each row
_POSE_FAULTS = ("quaternion must be nonzero and finite", "pose t must be finite")
# how far from 1 the norm of a quaternion ``Pose`` stores as it is may be
_UNIT_TOLERANCE = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class Pose:
    """Rigid transform T_cw as unit quaternion (qx, qy, qz, qw) + translation."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = _column(self.q, float, (4,), "pose q", GeometryError)
        t = _column(self.t, float, (3,), "pose t", GeometryError)
        with np.errstate(over="ignore"):  # a component past ~1e154 overflows its square
            norm = math.sqrt(q @ q)  # np.linalg.norm(q), without its per-call set-up
        if norm == 0.0 or not math.isfinite(norm):
            raise GeometryError(_POSE_FAULTS[0])
        if not all(map(math.isfinite, t.tolist())):  # cheaper than np.isfinite on 3 values
            raise GeometryError(_POSE_FAULTS[1])
        # only touch the stored values when actually off the manifold, so
        # that already-unit quaternions survive round-trips bit-exactly; the
        # bound is a few ulps, since quat_to_matrix is only orthogonal to
        # about |q|^2 - 1 and that error scales every composed translation
        if abs(norm - 1.0) > _UNIT_TOLERANCE:
            q = q / norm
            q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @staticmethod
    def from_rt(R, t) -> "Pose":
        return Pose(matrix_to_quat(R), np.asarray(t, dtype=float))

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def compose(self, other: "Pose") -> "Pose":
        """self o other: apply ``other`` first, then ``self``."""
        q = quat_multiply(self.q, other.q)
        t = self.rotation() @ other.t + self.t
        return Pose(q, t)

    def inverse(self) -> "Pose":
        Rt = self.rotation().T
        return Pose(np.array([-self.q[0], -self.q[1], -self.q[2], self.q[3]]), -Rt @ self.t)

    def transform(self, p) -> np.ndarray:
        """Apply to world points of shape (3,) or (N, 3), or to each block
        (k, 3) of a stack (..., k, 3). ``R.T`` is broadcast over the leading
        axes, so each block's result equals transforming it alone bit for
        bit; one product over the stack's rows as a flat (N, 3) array would
        not be (for k = 1 about half of the rows round differently)."""
        p = np.asarray(p, dtype=float)
        return p @ np.broadcast_to(self.rotation().T, p.shape[:-2] + (3, 3)) + self.t

    def center(self) -> np.ndarray:
        """Camera center in world coordinates, -R^T t."""
        return -(self.rotation().T @ self.t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The poses T_cw of frames 0..n-1 as read-only columns: quaternions
    ``q`` (n, 4) and translations ``t`` (n, 3).

    Each column goes through ``_column``; then every row of ``q`` more
    than 4 ulps off unit norm is normalized, so that each row holds the
    bits ``Pose`` stores. A zero or non-finite quaternion, or a non-finite
    translation, raises ``Pose``'s GeometryError with the index of the
    first bad pose.

    ``len`` counts the poses; ``trajectory[i]`` is pose i as a ``Pose``
    and a slice is a ``Trajectory``. Iterating, which goes through the int
    index, gives the ``Pose`` rows.
    """

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = _column(self.q, float, (None, 4), "pose q", GeometryError, copy=False)
        t = _column(self.t, float, (len(q), 3), "pose t", GeometryError)
        with np.errstate(over="ignore", invalid="ignore"):
            faults = np.column_stack([~normalizable(q), ~np.isfinite(t).all(axis=1)])
        for i, check in np.argwhere(faults)[:1].tolist():  # the first bad pose's first fault
            raise GeometryError(f"{_POSE_FAULTS[check]} at pose {i}")
        norm = row_norms(q)
        q = np.where((np.abs(norm - 1.0) > _UNIT_TOLERANCE)[:, None], q / norm[:, None], q)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    def __len__(self) -> int:
        return len(self.q)

    def __getitem__(self, key):
        return (Trajectory if isinstance(key, slice) else Pose)(self.q[key], self.t[key])


def se3_exp_update(R, t, deltas):
    """The left-multiplicative on-manifold update T <- Exp(delta) o T of a
    pose by each row of ``deltas`` (m, 6), rotation 3-vector first and
    translation second.

    ``R`` must be the pose's ``rotation()`` and ``t`` its translation:
    either one pose, (3, 3) and (3,), for every row, or one pose per row,
    (m, 3, 3) and (m, 3). Returns (q (m, 4), R (m, 3, 3), t (m, 3)): per
    row the ``q`` and ``t`` that ``Pose`` stores for the updated pose and
    its ``rotation()``, with the branches of ``so3_exp``,
    ``matrix_to_quat`` and ``Pose`` taken row by row.
    """
    deltas = np.asarray(deltas, dtype=float).reshape(-1, 6)
    R_inc, J = _so3_exp_and_jacobian(deltas[:, :3])
    t = np.asarray(t, dtype=float)[..., None]
    t_new = (R_inc @ t)[:, :, 0] + (J @ deltas[:, 3:, None])[:, :, 0]
    q = matrix_to_quat(R_inc @ R)  # as Pose stores it
    return q, quat_to_matrix(q), t_new


# ---------------------------------------------------------------------------
# vertex records


def _column(a, dtype, shape: tuple, name: str, error=ValueError, copy: bool = True) -> np.ndarray:
    """``a`` as a ``dtype`` array of ``shape``, where a leading None takes
    any length and an empty ``a`` any shape: a read-only copy, or with
    ``copy=False`` a plain cast that may share ``a``'s memory. Raises
    ``error``, naming the column ``name``, for a wrong shape or for values
    that ``dtype`` does not hold exactly (a float or a string as an int),
    and for a ragged sequence, which no array holds."""
    def refusal(got):
        return error(f"{name} must be {np.dtype(dtype)} of shape {shape}, "
                     f"got {got}".replace("None", "n"))

    try:
        a = np.asarray(a)
    except ValueError:
        raise refusal("a ragged sequence") from None
    if a.size == 0:
        a = a.reshape((0,) + shape[1:])
    if (a.ndim != len(shape) or a.shape[1:] != shape[1:] or shape[0] not in (None, len(a))
            or a.size and a.dtype != dtype and not np.can_cast(a.dtype, dtype)):
        raise refusal(f"{a.dtype} of shape {a.shape}")
    if not copy:
        return a.astype(dtype, copy=False)
    a = a.astype(dtype)
    a.flags.writeable = False
    return a


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


def _first_fault(faults) -> tuple[int, int, str] | None:
    """(row, check, message) for the first row failing any of ``faults``,
    a list of (failing rows (n,), message or row -> message) in the order
    the checks apply to one row; ``check`` indexes the first check the row
    fails and the message is that check's. None when every row passes."""
    masks = np.array([mask for mask, _ in faults])
    bad = masks.any(axis=0)
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    check = int(np.argmax(masks[:, row]))
    message = faults[check][1]
    return row, check, message(row) if callable(message) else message


class _Vertices(Mapping):
    """A frozen record of one kind of vertex: int64 ``id`` (N,) and the
    columns of ``_COLUMNS`` (name, dtype, row shape), one row per vertex,
    sorted by id and read-only. It is the one check of a landmark or graph
    vertex row, whether the row is generated, fused, read or built by hand.

    Every column goes through ``_column``, and construction raises
    ``_error`` for a column of the wrong type or row shape and for columns
    of different lengths. Then the rows are checked as a fault table in
    input order (``_first_fault``): an id that an earlier row holds, a
    non-finite value (column by column), then the kind's own faults
    (``_faults``), which raise ``_fault_error``. The refusal is the first
    bad row's first fault, and carries that row's input index as ``row``.

    The record is also a read-only mapping: iterating it gives the ids, and
    ``record[i]`` gives the row of id i as a namespace of its columns.
    """

    _error = _fault_error = GeometryError

    def __post_init__(self):
        ids = _column(self.id, np.int64, (None,), f"{self.kind} id", self._error, copy=False)
        columns = [_column(getattr(self, name), dtype, (None, *shape), f"{self.kind} {name}",
                           self._error, copy=False) for name, dtype, shape in self._COLUMNS]
        if any(len(column) != len(ids) for column in columns):
            raise self._error(f"{self.kind} vertex columns differ in length")
        shared = [(_repeats(np.zeros_like(ids), ids),
                   lambda r: f"duplicate {self.kind} id {ids[r]}")]
        shared += [(~_all_rows(np.isfinite(column)), f"{self.kind} {name} must be finite")
                   for column, (name, _, _) in zip(columns, self._COLUMNS)]
        with np.errstate(over="ignore", invalid="ignore"):
            fault = _first_fault(shared + self._faults(*columns))
        if fault is not None:
            row, check, message = fault
            error = (self._error if check < len(shared) else self._fault_error)(message)
            error.row = row
            raise error
        order = np.argsort(ids, kind="stable")
        for name, column in zip(["id"] + [name for name, _, _ in self._COLUMNS], [ids] + columns):
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def _faults(self, *columns) -> list:
        """The kind's own checks on its rows, given its cast columns in
        input order, as (failing rows, message) pairs; none by default."""
        return []

    def find(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """The row of each of ``ids`` (n,) and whether the record holds that
        id; the row of an id it does not hold is meaningless."""
        ids = _column(ids, np.int64, (None,), f"{self.kind} id", self._error, copy=False)
        rows = np.searchsorted(self.id, ids)
        found = rows < len(self.id)
        found[found] = self.id[rows[found]] == ids[found]
        return rows, found

    def __len__(self) -> int:
        return len(self.id)

    def __iter__(self):
        return iter(self.id.tolist())

    def __getitem__(self, key):
        row = int(np.searchsorted(self.id, key))
        if row == len(self.id) or self.id[row] != key:
            raise KeyError(key)
        names = ["id"] + [name for name, _, _ in self._COLUMNS]
        values = [getattr(self, name)[row] for name in names]
        return SimpleNamespace(**{n: v if v.ndim else v.item() for n, v in zip(names, values)})


@dataclass(frozen=True)
class Points(_Vertices):
    """Point landmarks: world position ``position`` (N, 3)."""

    id: np.ndarray
    position: np.ndarray
    kind, _COLUMNS = "point", (("position", float, (3,)),)


@dataclass(frozen=True)
class Segments(_Vertices):
    """Line landmarks: world-frame segments between two distinct
    endpoints, ``endpoints`` (L, 2, 3) start and end. Construction raises
    ``DegenerateLineError`` for a row whose endpoints coincide, and for
    one whose direction, end minus start, cannot be normalized
    (``normalizable``): its norm overflows or underflows."""

    id: np.ndarray
    endpoints: np.ndarray
    kind, _COLUMNS = "line", (("endpoints", float, (2, 3)),)
    _fault_error = DegenerateLineError

    def _faults(self, endpoints, *_) -> list:
        return [(_all_rows(endpoints[:, 0] == endpoints[:, 1]), "line endpoints coincide"),
                (~normalizable(endpoints[:, 1] - endpoints[:, 0]),
                 "line direction cannot be normalized")]


# ---------------------------------------------------------------------------
# Plucker lines


def plucker_from_endpoints(ps, pe) -> tuple[np.ndarray, np.ndarray]:
    """Moment n = Ps x Pe and direction d = Pe - Ps, of one line or of
    each row of ps, pe (m, 3)."""
    ps = np.asarray(ps, dtype=float)
    pe = np.asarray(pe, dtype=float)
    if (ps == pe).all(axis=-1).any():
        raise DegenerateLineError("coincident endpoints define no line")
    return np.cross(ps, pe), pe - ps


# ---------------------------------------------------------------------------
# orthonormal line representation


def orthonormal_from_plucker(n, d):
    """The orthonormal state of each line n[i], d[i] (m, 3): U (m, 3, 3)
    with columns [n/|n|, d/|d|, (n x d)/(|n||d|)], W (m, 2, 2) and the
    degenerate flags (m,). A degenerate row is a line through the origin
    (zero moment); its normal is d/|d| crossed with the axis least aligned
    with d, an arbitrary but deterministic choice."""
    n = np.asarray(n, dtype=float)
    d = np.asarray(d, dtype=float)
    nn, nd = row_norms(n), row_norms(d)
    if (nd == 0.0).any():
        raise DegenerateLineError("line direction must be nonzero")
    d_hat = d / nd[:, None]
    degenerate = nn < 1e-12 * np.maximum(nd, 1.0)
    normal = np.cross(d_hat, np.eye(3)[np.argmin(np.abs(d_hat), axis=1)])
    u1 = np.where(degenerate[:, None], normal / row_norms(normal)[:, None],
                  n / np.where(degenerate, 1.0, nn)[:, None])
    nn = np.where(degenerate, 0.0, nn)
    u3 = np.cross(u1, d_hat)
    u3 = u3 / row_norms(u3)[:, None]
    s = np.hypot(nn, nd)
    W = np.stack([nn / s, -nd / s, nd / s, nn / s], axis=1).reshape(-1, 2, 2)
    return np.stack([u1, d_hat, u3], axis=2), W, degenerate


def plucker_from_orthonormal(U, W) -> tuple[np.ndarray, np.ndarray]:
    """Inverse map of one state U (3, 3), W (2, 2) or of a stack (..., 3, 3),
    (..., 2, 2): n = W00 * U[:, 0], d = W10 * U[:, 1] (unit joint scale)."""
    U = np.asarray(U, dtype=float)
    W = np.asarray(W, dtype=float)
    return W[..., 0, 0, None] * U[..., :, 0], W[..., 1, 0, None] * U[..., :, 1]


def orthonormal_update(U, W, delta) -> tuple[np.ndarray, np.ndarray]:
    """Right-multiplicative update of one state U (3, 3), W (2, 2):
    U <- U Exp(delta[:3]), W <- W Rot2(delta[3])."""
    delta = np.asarray(delta, dtype=float).reshape(4)
    return U @ so3_exp(delta[:3]), W @ rot2(delta[3])


_REFLECT = np.diag([1.0, 1.0, -1.0])


def rigid_fit(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation/translation with dst ~ R @ src + t (no scale)
    of one pair of point sets (n, 3), or of each pair src[i], dst[i]
    (..., n, 3); the leading axes broadcast. Returns R (..., 3, 3) and
    t (..., 3).

    Horn's closed form via SVD with a determinant guard against
    reflections. Every step is a mean down the rows or one BLAS or LAPACK
    call per pair, so each fit equals a fit of its pair alone bit for bit.
    """
    return _rigid_from_moments(*_rigid_moments(src, dst))


def _rigid_moments(src, dst):
    """The part of ``rigid_fit`` that reads the points: the centroids
    mu_s (..., 3), mu_d (..., 3) and the cross-covariance H (..., 3, 3)."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    # the means down the rows as np.mean forms them, without its set-up
    mu_s = np.add.reduce(src, axis=-2) / src.shape[-2]
    mu_d = np.add.reduce(dst, axis=-2) / dst.shape[-2]
    H = (dst - mu_d[..., None, :]).swapaxes(-1, -2) @ (src - mu_s[..., None, :])
    return mu_s, mu_d, H


def _rigid_from_moments(mu_s, mu_d, H):
    """``rigid_fit``'s R and t from ``_rigid_moments``. The stacks may join
    the moments of point sets of different sizes: each pair's fit is one
    LAPACK or BLAS call on its own moments."""
    U, _, Vt = np.linalg.svd(H)
    S = np.where((np.linalg.det(U @ Vt) < 0)[..., None, None], _REFLECT, _EYE3)
    R = U @ S @ Vt
    return R, mu_d - (R @ mu_s[..., None])[..., 0]


def line_angles(d1, d2) -> np.ndarray:
    """Undirected angle between the directions of each row pair of d1, d2
    (n, 3), exact at zero: ``row_norms`` and ``row_dots`` equal
    ``np.linalg.norm`` and ``@`` on one pair, bit for bit.

    atan2 of the cross-product norm keeps tiny angles meaningful where the
    arccos form would collapse to ~1e-8.
    """
    return np.arctan2(row_norms(np.cross(d1, d2)), np.abs(row_dots(d1, d2)))
