"""SE(3), pinhole and 3D-line primitives shared by every other module.

Conventions:
  * ``Pose`` stores the world-to-camera transform T_cw: X_c = R @ X_w + t.
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
factor graph, whose vertex records share their base, ``_Vertices``.

Every id and value column of a record (the landmark and vertex records,
``simulator.FrameData``, ``factor_graph.Factors`` and the graph's gauge
ids), and every array that a lookup or a map fusion takes, goes through
one cast, ``_column``. It refuses a wrong row shape and a value that the
column's dtype does not hold exactly, such as a float or a string as an
id, with a ValueError that names the column. It truncates nothing, and
reshapes only an empty column.

Each piece of math has one kernel. The rotation kernels (``skew``,
``so3_exp``, ``quat_to_matrix``, ``matrix_to_quat``, ``rotation_angles``),
``rigid_fit``, ``plucker_from_orthonormal`` and ``Pose.transform`` take
one item or a stack of them along leading axes, and one item's result
equals its row of a stack bit for bit, so a caller may batch any set of
them without changing a single output bit. ``se3_exp_update``,
``pose_quat_batch`` and ``orthonormal_from_plucker`` take a stack; one
item is a stack of one.
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


def _so3_exp_and_jacobian(omega):
    """Rodrigues exponential and SO(3) left Jacobian of each row of omega
    (m, 3), as two (m, 3, 3) stacks; a row below 1e-8 rad takes the
    second-order series of both."""
    angle = row_norms(omega)
    small = angle < 1e-8
    a = np.where(small, 1.0, angle)  # keeps the series rows' unused branch finite
    sin, cos = np.sin(a), np.cos(a)
    a2 = a * a
    c1 = ((1.0 - cos) / a2)[:, None, None]
    K = skew(omega)
    KK = K @ K
    eye = np.eye(3)
    small = small[:, None, None]
    R = np.where(small, eye + K + 0.5 * KK, eye + (sin / a)[:, None, None] * K + c1 * KK)
    J = np.where(small, eye + 0.5 * K + KK / 6.0,
                 eye + c1 * K + ((a - sin) / (a2 * a))[:, None, None] * KK)
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
# indices row k lists, where index 9 + i stands for -R.flat[i]; for k < 3
# the last three entries sum to 4 q_k^2 - 1 = R_kk - R_ii - R_jj, where i
# and j are the axes after k. Slot k and the trace row's sum are unused.
_SHEPPERD = np.array([
    #  a_0..a_3      b_0..b_3     diagonal
    [0, 1, 2, 7, 0, 3, 6, 14, 0, 13, 17],
    [1, 0, 5, 2, 3, 0, 7, 15, 4, 17, 9],
    [2, 5, 0, 3, 6, 7, 0, 10, 8, 9, 13],
    [7, 2, 3, 0, 14, 15, 10, 0, 0, 4, 8],
])


def matrix_to_quat(R) -> np.ndarray:
    """(qx, qy, qz, qw) with qw >= 0 of the rotation matrix R (3, 3), or of
    each matrix of R (..., 3, 3), by Shepperd's branch selection."""
    R = np.asarray(R, dtype=float)
    r = R.reshape(-1, 9)
    rows = np.arange(len(r))
    tr = np.trace(R.reshape(-1, 3, 3), axis1=1, axis2=2)
    k = np.where(tr > 0, 3, np.argmax(r[:, ::4], axis=1))
    g = np.concatenate([r, -r], axis=1)[rows[:, None], _SHEPPERD[k]]
    s = np.sqrt(np.where(k == 3, tr, (g[:, 8] + g[:, 9]) + g[:, 10]) + 1.0) * 2.0
    q = (g[:, :4] + g[:, 4:8]) / s[:, None]
    q[rows, k] = 0.25 * s
    q = np.where(q[:, 3:] < 0, -q, q)
    return (q / row_norms(q)[:, None]).reshape(R.shape[:-2] + (4,))


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
    return np.stack([intr.fx * P_c[:, 0] / z + intr.cx, intr.fy * P_c[:, 1] / z + intr.cy],
                    axis=1)


def backproject(u, d, intr: CameraIntrinsics) -> np.ndarray:
    """Pixel (..., 2) plus depth (...) -> camera-frame point (..., 3); a
    depth that is not positive, NaN included, raises GeometryError."""
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    if not np.all(d > 0):
        raise GeometryError("backprojection requires positive depth")
    x = (u[..., 0] - intr.cx) / intr.fx * d
    y = (u[..., 1] - intr.cy) / intr.fy * d
    return np.stack([x, y, np.broadcast_to(d, x.shape)], axis=-1)


# ---------------------------------------------------------------------------
# poses


@dataclass(frozen=True)
class Pose:
    """Rigid transform T_cw as unit quaternion (qx, qy, qz, qw) + translation."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = _column(self.q, float, (4,), "pose q", GeometryError)
        t = _column(self.t, float, (3,), "pose t", GeometryError)
        norm = float(np.linalg.norm(q))
        if norm == 0.0 or not np.isfinite(norm):
            raise GeometryError("quaternion must be nonzero and finite")
        if not all(map(math.isfinite, t.tolist())):  # cheaper than np.isfinite on 3 values
            raise GeometryError("pose t must be finite")
        # only touch the stored values when actually off the manifold, so
        # that already-unit quaternions survive round-trips bit-exactly; the
        # bound is a few ulps, since quat_to_matrix is only orthogonal to
        # about |q|^2 - 1 and that error scales every composed translation
        if abs(norm - 1.0) > 4 * np.finfo(float).eps:
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


def pose_quat_batch(q) -> np.ndarray:
    """The quaternion ``Pose`` stores for each row of q (m, 4), bit for bit:
    rows more than 4 ulps off unit norm are normalized. Unlike ``Pose`` it
    does not reject a zero or non-finite norm."""
    q = np.asarray(q, dtype=float)
    norm = row_norms(q)
    off = np.abs(norm - 1.0) > 4 * np.finfo(float).eps
    return np.where(off[:, None], q / norm[:, None], q)


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
    q = pose_quat_batch(matrix_to_quat(R_inc @ R))
    return q, quat_to_matrix(q), t_new


# ---------------------------------------------------------------------------
# vertex records


def _column(a, dtype, shape: tuple, name: str, error=ValueError, copy: bool = True) -> np.ndarray:
    """``a`` as a ``dtype`` array of ``shape``, where a leading None takes
    any length and an empty ``a`` any shape: a read-only copy, or with
    ``copy=False`` a plain cast that may share ``a``'s memory. Raises
    ``error``, naming the column ``name``, for a wrong shape or for values
    that ``dtype`` does not hold exactly (a float or a string as an int)."""
    a = np.asarray(a)
    if a.size == 0:
        a = a.reshape((0,) + shape[1:])
    if (a.ndim != len(shape) or a.shape[1:] != shape[1:] or shape[0] not in (None, len(a))
            or a.size and a.dtype != dtype and not np.can_cast(a.dtype, dtype)):
        raise error(f"{name} must be {np.dtype(dtype)} of shape {shape}, "
                    f"got {a.dtype} of shape {a.shape}".replace("None", "n"))
    if not copy:
        return a.astype(dtype, copy=False)
    a = a.astype(dtype)
    a.flags.writeable = False
    return a


class _Vertices(Mapping):
    """A frozen record of one kind of vertex: int64 ``id`` (N,) and the
    columns of ``_COLUMNS`` (name, dtype, row shape), one row per vertex,
    sorted by id and read-only. Every column goes through ``_column``.
    Construction raises ``_error`` for a column of the wrong type or row
    shape, for a repeated id, for columns of different lengths and for a
    non-finite value, and ``DegenerateLineError`` for a row of
    ``endpoints`` whose two endpoints coincide.

    The record is also a read-only mapping: iterating it gives the ids, and
    ``record[i]`` gives the row of id i as a namespace of its columns.
    """

    _error = GeometryError

    def __post_init__(self):
        ids = _column(self.id, np.int64, (None,), f"{self.kind} id", self._error, copy=False)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        repeats = ids[1:][ids[1:] == ids[:-1]]
        if len(repeats):
            raise self._error(f"duplicate {self.kind} id {repeats[0]}")
        ids.flags.writeable = False
        object.__setattr__(self, "id", ids)
        for name, dtype, shape in self._COLUMNS:
            column = _column(getattr(self, name), dtype, (None, *shape), f"{self.kind} {name}",
                             self._error, copy=False)
            if len(column) != len(ids):
                raise self._error(f"{self.kind} vertex columns differ in length")
            if not np.isfinite(column).all():
                raise self._error(f"{self.kind} {name} must be finite")
            if name == "endpoints" and (column[:, 0] == column[:, 1]).all(axis=1).any():
                raise DegenerateLineError(f"{self.kind} endpoints coincide")
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

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
    endpoints, ``endpoints`` (L, 2, 3) start and end."""

    id: np.ndarray
    endpoints: np.ndarray
    kind, _COLUMNS = "line", (("endpoints", float, (2, 3)),)


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


def rigid_fit(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation/translation with dst ~ R @ src + t (no scale)
    of one pair of point sets (n, 3), or of each pair src[i], dst[i]
    (..., n, 3); the leading axes broadcast. Returns R (..., 3, 3) and
    t (..., 3).

    Horn's closed form via SVD with a determinant guard against
    reflections. Every step is a mean down the rows or one BLAS or LAPACK
    call per pair, so each fit equals a fit of its pair alone bit for bit.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s = src.mean(axis=-2)
    mu_d = dst.mean(axis=-2)
    H = (dst - mu_d[..., None, :]).swapaxes(-1, -2) @ (src - mu_s[..., None, :])
    U, _, Vt = np.linalg.svd(H)
    S = np.zeros(H.shape)
    S[..., 0, 0] = S[..., 1, 1] = 1.0
    S[..., 2, 2] = np.where(np.linalg.det(U @ Vt) < 0, -1.0, 1.0)
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
