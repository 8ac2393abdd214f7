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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric input (nonpositive depth, degenerate line, ...)."""


class DegenerateLineError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# rotation helpers


def skew(v) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def skew_batch(v) -> np.ndarray:
    """``skew`` of every row of v (..., 3)."""
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


def so3_exp(omega) -> np.ndarray:
    """Rodrigues formula, series expansion below 1e-8 rad."""
    omega = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(omega))
    K = skew(omega)
    if angle < 1e-8:
        return np.eye(3) + K + 0.5 * (K @ K)
    s = np.sin(angle) / angle
    c = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + s * K + c * (K @ K)


def so3_log(R) -> np.ndarray:
    """Rotation vector of R; principal branch, angle in [0, pi]."""
    R = np.asarray(R, dtype=float)
    cos_angle = np.clip(0.5 * (np.trace(R) - 1.0), -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    axial = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle < 1e-8:
        return axial
    if np.pi - angle < 1e-6:
        # near pi the axial part vanishes; recover the axis from R + I
        M = 0.5 * (R + np.eye(3))
        k = int(np.argmax(np.diag(M)))
        axis = M[:, k] / np.sqrt(max(M[k, k], 1e-12))
        axis = axis / np.linalg.norm(axis)
        if np.dot(axis, axial) < 0:
            axis = -axis
        return angle * axis
    return (angle / np.sin(angle)) * axial


def _so3_left_jacobian(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(omega))
    K = skew(omega)
    if angle < 1e-8:
        return np.eye(3) + 0.5 * K + (K @ K) / 6.0
    a2 = angle * angle
    c1 = (1.0 - np.cos(angle)) / a2
    c2 = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) + c1 * K + c2 * (K @ K)


def rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_angle(R) -> float:
    """Geodesic angle of a rotation matrix in radians."""
    return float(np.linalg.norm(so3_log(R)))


def quat_to_matrix(q) -> np.ndarray:
    x, y, z, w = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(R) -> np.ndarray:
    """(qx, qy, qz, qw) with qw >= 0, Shepperd's branch selection."""
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s, 0.25 * s]
        )
    else:
        k = int(np.argmax(np.diag(R)))
        i, j = (k + 1) % 3, (k + 2) % 3
        s = np.sqrt(R[k, k] - R[i, i] - R[j, j] + 1.0) * 2.0
        q = np.empty(4)
        q[k] = 0.25 * s
        q[i] = (R[i, k] + R[k, i]) / s
        q[j] = (R[j, k] + R[k, j]) / s
        q[3] = (R[j, i] - R[i, j]) / s
    if q[3] < 0:
        q = -q
    return q / np.linalg.norm(q)


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
        if not (self.fx > 0 and self.fy > 0):
            raise GeometryError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise GeometryError("principal point must lie inside the image")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0, self.cx], [0, self.fy, self.cy], [0, 0, 1.0]])

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


def project(p_cam, intr: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection of camera-frame points (..., 3) -> pixels (..., 2).

    Raises GeometryError on nonpositive depth.
    """
    p_cam = np.asarray(p_cam, dtype=float)
    z = p_cam[..., 2]
    if np.any(z <= 0):
        raise GeometryError("projection requires positive depth")
    u = intr.fx * p_cam[..., 0] / z + intr.cx
    v = intr.fy * p_cam[..., 1] / z + intr.cy
    return np.stack([u, v], axis=-1)


def backproject(u, d, intr: CameraIntrinsics) -> np.ndarray:
    """Pixel (..., 2) plus depth (...) -> camera-frame point (..., 3)."""
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
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
        q = np.asarray(self.q, dtype=float).reshape(4).copy()
        t = np.asarray(self.t, dtype=float).reshape(3).copy()
        norm = float(np.linalg.norm(q))
        if norm == 0.0 or not np.isfinite(norm):
            raise GeometryError("quaternion must be nonzero and finite")
        # only touch the stored values when actually off the manifold, so
        # that already-unit quaternions survive round-trips bit-exactly; the
        # bound is a few ulps, since quat_to_matrix is only orthogonal to
        # about |q|^2 - 1 and that error scales every composed translation
        if abs(norm - 1.0) > 4 * np.finfo(float).eps:
            q = q / norm
        q.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))

    @staticmethod
    def from_rt(R, t) -> "Pose":
        return Pose(matrix_to_quat(R), np.asarray(t, dtype=float))

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation()
        T[:3, 3] = self.t
        return T

    def compose(self, other: "Pose") -> "Pose":
        """self o other: apply ``other`` first, then ``self``."""
        q = quat_multiply(self.q, other.q)
        t = self.rotation() @ other.t + self.t
        return Pose(q, t)

    def inverse(self) -> "Pose":
        Rt = self.rotation().T
        return Pose(np.array([-self.q[0], -self.q[1], -self.q[2], self.q[3]]), -Rt @ self.t)

    def transform(self, p) -> np.ndarray:
        """Apply to world points of shape (3,) or (N, 3)."""
        p = np.asarray(p, dtype=float)
        return p @ self.rotation().T + self.t

    def center(self) -> np.ndarray:
        """Camera center in world coordinates, -R^T t."""
        return -(self.rotation().T @ self.t)


def se3_exp_update(T: Pose, delta) -> Pose:
    """Left-multiplicative on-manifold update T <- Exp(delta) o T.

    delta is (omega, rho): rotation 3-vector first, translation second.
    """
    delta = np.asarray(delta, dtype=float).reshape(6)
    omega, rho = delta[:3], delta[3:]
    R_inc = so3_exp(omega)
    t_inc = _so3_left_jacobian(omega) @ rho
    R = R_inc @ T.rotation()
    t = R_inc @ T.t + t_inc
    return Pose.from_rt(R, t)


def matrix_to_quat_batch(R) -> np.ndarray:
    """``matrix_to_quat`` of every matrix of R (m, 3, 3), bit for bit."""
    R = np.asarray(R, dtype=float)
    tr = np.trace(R, axis1=1, axis2=2)
    pos = tr > 0
    r = np.flatnonzero(~pos)
    Rp, s = (R[pos], tr[pos]) if len(r) else (R, tr)
    s = np.sqrt(s + 1.0) * 2.0
    q = np.stack(
        [(Rp[:, 2, 1] - Rp[:, 1, 2]) / s, (Rp[:, 0, 2] - Rp[:, 2, 0]) / s,
         (Rp[:, 1, 0] - Rp[:, 0, 1]) / s, 0.25 * s],
        axis=1,
    )
    if len(r):  # Shepperd's other branch, on the rows with trace <= 0
        q_pos, q = q, np.empty((len(R), 4))
        q[pos] = q_pos
        k = np.argmax(np.diagonal(R[r], axis1=1, axis2=2), axis=1)
        i, j = (k + 1) % 3, (k + 2) % 3
        s = np.sqrt(R[r, k, k] - R[r, i, i] - R[r, j, j] + 1.0) * 2.0
        q[r, k] = 0.25 * s
        q[r, i] = (R[r, i, k] + R[r, k, i]) / s
        q[r, j] = (R[r, j, k] + R[r, k, j]) / s
        q[r, 3] = (R[r, j, i] - R[r, i, j]) / s
    q = np.where(q[:, 3:] < 0, -q, q)
    return q / row_norms(q)[:, None]


def quat_to_matrix_batch(q) -> np.ndarray:
    """``quat_to_matrix`` of every row of q (m, 4), bit for bit: each
    product of two components is formed once, as ``quat_to_matrix`` forms
    the same product."""
    x, y, z, w = np.asarray(q, dtype=float).T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    xw, yw, zw = x * w, y * w, z * w
    return np.stack(
        [
            1 - 2 * (yy + zz), 2 * (xy - zw), 2 * (xz + yw),
            2 * (xy + zw), 1 - 2 * (xx + zz), 2 * (yz - xw),
            2 * (xz - yw), 2 * (yz + xw), 1 - 2 * (xx + yy),
        ],
        axis=1,
    ).reshape(-1, 3, 3)


def pose_quat_batch(q) -> np.ndarray:
    """The quaternion ``Pose`` stores for each row of q (m, 4), bit for bit:
    rows more than 4 ulps off unit norm are normalized. Unlike ``Pose`` it
    does not reject a zero or non-finite norm."""
    q = np.asarray(q, dtype=float)
    norm = row_norms(q)
    off = np.abs(norm - 1.0) > 4 * np.finfo(float).eps
    return np.where(off[:, None], q / norm[:, None], q)


def se3_exp_update_batch(R, t, deltas):
    """``se3_exp_update`` of a pose by each row of ``deltas`` (m, 6).

    ``R`` must be the pose's ``rotation()`` and ``t`` its translation:
    either one pose, (3, 3) and (3,), for every row, or one pose per row,
    (m, 3, 3) and (m, 3). Returns (q (m, 4), R (m, 3, 3), t (m, 3)): per
    row the ``q`` and ``t`` that the updated ``Pose`` stores and its
    ``rotation()``, bit for bit, with the branches of ``so3_exp``,
    ``_so3_left_jacobian``, ``matrix_to_quat`` and ``Pose`` taken row by row.
    """
    deltas = np.asarray(deltas, dtype=float).reshape(-1, 6)
    omega, rho = deltas[:, :3], deltas[:, 3:]
    angle = row_norms(omega)
    small = angle < 1e-8
    a = np.where(small, 1.0, angle)  # keeps the series rows' unused branch finite
    sin, cos = np.sin(a), np.cos(a)
    a2 = a * a
    c1 = ((1.0 - cos) / a2)[:, None, None]
    K = skew_batch(omega)
    KK = K @ K
    eye = np.eye(3)
    small = small[:, None, None]
    R_inc = np.where(small, eye + K + 0.5 * KK, eye + (sin / a)[:, None, None] * K + c1 * KK)
    J = np.where(small, eye + 0.5 * K + KK / 6.0,
                 eye + c1 * K + ((a - sin) / (a2 * a))[:, None, None] * KK)
    t = np.asarray(t, dtype=float)[..., None]
    t_new = (R_inc @ t)[:, :, 0] + (J @ rho[:, :, None])[:, :, 0]
    q = pose_quat_batch(matrix_to_quat_batch(R_inc @ R))
    return q, quat_to_matrix_batch(q), t_new


# ---------------------------------------------------------------------------
# measurements and landmarks


@dataclass(frozen=True)
class PointMeasurement:
    """One observed point: pixel position (px) and depth (m).

    Image-bounds checks need the calibration and are enforced by the
    simulator and the sequence reader, not here.
    """

    landmark_id: int
    u: np.ndarray
    d: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(2).copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", float(self.d))
        if not (math.isfinite(u[0]) and math.isfinite(u[1]) and math.isfinite(self.d)):
            raise GeometryError("measurement must be finite")
        if self.d <= 0:
            raise GeometryError("nonpositive depth")


@dataclass(frozen=True)
class LineMeasurement:
    """One observed segment: start/end endpoint records sharing the line id."""

    landmark_id: int
    start: PointMeasurement
    end: PointMeasurement

    def __post_init__(self):
        if np.array_equal(self.start.u, self.end.u):
            raise GeometryError("line measurement endpoints coincide")

    def length(self) -> float:
        return float(row_norms((self.end.u - self.start.u)[None])[0])


@dataclass(frozen=True)
class PointLandmark:
    id: int
    position: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3).copy()
        if not np.all(np.isfinite(p)):
            raise GeometryError("landmark position must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class LineLandmark:
    """World-frame 3D segment between two distinct endpoints."""

    id: int
    endpoints: np.ndarray  # (2, 3), start/end
    group_id: int | None = None

    def __post_init__(self):
        e = np.asarray(self.endpoints, dtype=float).reshape(2, 3).copy()
        if not np.all(np.isfinite(e)):
            raise GeometryError("line endpoints must be finite")
        if np.array_equal(e[0], e[1]):
            raise DegenerateLineError("line endpoints coincide")
        e.flags.writeable = False
        object.__setattr__(self, "endpoints", e)

    def direction(self) -> np.ndarray:
        d = self.endpoints[1] - self.endpoints[0]
        return d / np.linalg.norm(d)


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


def transform_plucker(T: Pose, n, d) -> tuple[np.ndarray, np.ndarray]:
    """Map a Plucker pair through T: n' = R n + [t]x R d, d' = R d."""
    R = T.rotation()
    Rd = R @ np.asarray(d, dtype=float)
    return R @ np.asarray(n, dtype=float) + np.cross(T.t, Rd), Rd


# ---------------------------------------------------------------------------
# orthonormal line representation


@dataclass(frozen=True)
class OrthonormalLine:
    """Minimal 4-DOF line state: U in SO(3), W in SO(2).

    ``degenerate`` marks lines through the origin (zero moment), for which
    the first column of U is an arbitrary but deterministic unit normal.
    """

    U: np.ndarray
    W: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float).reshape(3, 3).copy()
        W = np.asarray(self.W, dtype=float).reshape(2, 2).copy()
        U.flags.writeable = False
        W.flags.writeable = False
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "W", W)


def orthonormal_from_plucker(n, d) -> OrthonormalLine:
    """(U, W) with U columns [n/|n|, d/|d|, (n x d)/(|n||d|)]:
    ``orthonormal_from_plucker_batch`` of one line.

    A zero moment (line through the origin) yields a flagged degenerate
    frame with a deterministic substitute normal.
    """
    U, W, degenerate = orthonormal_from_plucker_batch(
        np.asarray(n, dtype=float).reshape(1, 3), np.asarray(d, dtype=float).reshape(1, 3)
    )
    return OrthonormalLine(U[0], W[0], bool(degenerate[0]))


def orthonormal_from_plucker_batch(n, d):
    """``orthonormal_from_plucker`` of each pair n[i], d[i] (m, 3): U
    (m, 3, 3), W (m, 2, 2) and the degenerate flags (m,). A degenerate
    row's normal is d/|d| crossed with the axis least aligned with d."""
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


def plucker_from_orthonormal(o: OrthonormalLine) -> tuple[np.ndarray, np.ndarray]:
    """Inverse map: n = W00 * U[:,0], d = W10 * U[:,1] (unit joint scale)."""
    return o.W[0, 0] * o.U[:, 0], o.W[1, 0] * o.U[:, 1]


def orthonormal_update(o: OrthonormalLine, delta) -> OrthonormalLine:
    """Right-multiplicative update U <- U Exp(delta[:3]), W <- W Rot2(delta[3])."""
    delta = np.asarray(delta, dtype=float).reshape(4)
    return OrthonormalLine(o.U @ so3_exp(delta[:3]), o.W @ rot2(delta[3]), o.degenerate)


def rigid_fit(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation/translation with dst ~ R @ src + t (no scale):
    ``rigid_fit_batch`` of one pair of point sets (n, 3)."""
    R, t = rigid_fit_batch(np.asarray(src, dtype=float)[None], np.asarray(dst, dtype=float)[None])
    return R[0], t[0]


def rigid_fit_batch(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation/translation with dst[i] ~ R[i] @ src[i] + t[i]
    for each pair of point sets src[i], dst[i] (..., n, 3); the leading
    axes broadcast. Returns R (..., 3, 3) and t (..., 3).

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
