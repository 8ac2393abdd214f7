import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbench.factor_graph import _lines_to_camera, _project_points
from plbench.geometry import (
    CameraIntrinsics,
    DegenerateLineError,
    GeometryError,
    LineMeasurement,
    PointMeasurement,
    Points,
    Pose,
    Segments,
    backproject,
    line_angles,
    matrix_to_quat,
    orthonormal_from_plucker,
    orthonormal_from_plucker_batch,
    orthonormal_update,
    plucker_from_endpoints,
    plucker_from_orthonormal,
    pose_quat_batch,
    quat_to_matrix,
    rot2,
    se3_exp_update,
    se3_exp_update_batch,
    skew,
    so3_exp,
    so3_log,
)

K_VGA = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)


def random_pose(rng) -> Pose:
    q = rng.normal(size=4)
    return Pose(q / np.linalg.norm(q), rng.normal(scale=2.0, size=3))


finite_coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
vec3 = st.tuples(finite_coord, finite_coord, finite_coord).map(np.array)
quat = (
    st.tuples(*[st.floats(min_value=-1, max_value=1) for _ in range(4)])
    .map(np.array)
    .filter(lambda q: np.linalg.norm(q) > 1e-3)
)


# ---------------------------------------------------------------------------
# scalar references: the former one-item kernels, which the library's
# kernels must equal bit for bit on one item and on every row of a stack


def reference_skew(v):
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def reference_so3_exp(omega):
    omega = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(omega))
    K = reference_skew(omega)
    if angle < 1e-8:
        return np.eye(3) + K + 0.5 * (K @ K)
    s = np.sin(angle) / angle
    c = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + s * K + c * (K @ K)


def reference_so3_left_jacobian(omega):
    omega = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(omega))
    K = reference_skew(omega)
    if angle < 1e-8:
        return np.eye(3) + 0.5 * K + (K @ K) / 6.0
    a2 = angle * angle
    c1 = (1.0 - np.cos(angle)) / a2
    c2 = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) + c1 * K + c2 * (K @ K)


def reference_quat_to_matrix(q):
    x, y, z, w = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def reference_matrix_to_quat(R):
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


def reference_se3_exp_update(T: Pose, delta) -> Pose:
    delta = np.asarray(delta, dtype=float).reshape(6)
    omega, rho = delta[:3], delta[3:]
    R_inc = reference_so3_exp(omega)
    t_inc = reference_so3_left_jacobian(omega) @ rho
    R = R_inc @ reference_quat_to_matrix(T.q)
    return Pose(reference_matrix_to_quat(R), R_inc @ T.t + t_inc)


def assert_rows_match(kernel, reference, items):
    """kernel(items) equals reference(item) bit for bit in every row, and so
    does kernel(item), on a stack of an even number of items (m, ...) and
    on the same stack split along two leading axes."""
    stack = kernel(items)
    split = kernel(items.reshape((2, -1) + items.shape[1:])).reshape(stack.shape)
    for item, row, split_row in zip(items, stack, split):
        ref = reference(item).tobytes()
        assert (kernel(item).tobytes(), row.tobytes(), split_row.tobytes()) == (ref, ref, ref)


# ---------------------------------------------------------------------------
# projection


def project(p_cam, intr):
    """``_project_points`` of camera points (..., 3) at the identity pose:
    (pixels (..., 2), whether each point is in front of the camera)."""
    p = np.asarray(p_cam, dtype=float).reshape(-1, 3)
    _, valid, _, proj = _project_points(np.broadcast_to(np.eye(3), (len(p), 3, 3)),
                                        np.zeros((len(p), 3)), p, intr)
    shape = np.shape(p_cam)[:-1]
    return proj.reshape(shape + (2,)), valid.reshape(shape)


def test_project_optical_axis_hits_principal_point():
    np.testing.assert_allclose(project(np.array([0.0, 0.0, 1.0]), K_VGA)[0], [320.0, 240.0])


def test_project_hand_values():
    np.testing.assert_allclose(project(np.array([1.0, 2.0, 2.0]), K_VGA)[0], [370.0, 340.0])
    # sign flip in x mirrors about the principal point
    np.testing.assert_allclose(project(np.array([-1.0, 2.0, 2.0]), K_VGA)[0], [270.0, 340.0])


def test_project_rejects_nonpositive_depth():
    assert not project(np.array([0.0, 0.0, 0.0]), K_VGA)[1]
    assert project(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, -2.0]]), K_VGA)[1].tolist() == [True, False]


def test_backproject_hand_values():
    np.testing.assert_allclose(backproject(np.array([320.0, 240.0]), 2.0, K_VGA), [0, 0, 2])
    np.testing.assert_allclose(backproject(np.array([370.0, 340.0]), 2.0, K_VGA), [1, 2, 2])
    with pytest.raises(GeometryError):
        backproject(np.array([10.0, 10.0]), 0.0, K_VGA)


@given(
    u=st.tuples(
        st.floats(min_value=0, max_value=639.99), st.floats(min_value=0, max_value=479.99)
    ).map(np.array),
    d=st.floats(min_value=1e-3, max_value=1e3),
)
def test_project_backproject_roundtrip(u, d):
    np.testing.assert_allclose(project(backproject(u, d, K_VGA), K_VGA)[0], u, atol=1e-9)


def test_intrinsics_invariants():
    with pytest.raises(GeometryError):
        CameraIntrinsics(-1.0, 1.0, 320.0, 240.0, 640, 480)
    with pytest.raises(GeometryError):
        CameraIntrinsics(100.0, 100.0, 0.0, 240.0, 640, 480)
    with pytest.raises(GeometryError):
        CameraIntrinsics(100.0, 100.0, 320.0, 500.0, 640, 480)
    # non-finite values; the message names the field
    for field, value in (("fx", np.inf), ("fy", np.nan), ("cx", np.nan), ("cy", np.inf)):
        with pytest.raises(GeometryError, match=f"^{field} must lie in"):
            CameraIntrinsics(**{**dict(fx=100.0, fy=100.0, cx=320.0, cy=240.0,
                                       width=640, height=480), field: value})
    # the image size is a positive integer
    for field, value in (("width", np.inf), ("height", 0), ("width", 640.0)):
        with pytest.raises(GeometryError, match=f"^{field} must be an integer >= 1"):
            CameraIntrinsics(**{**dict(fx=100.0, fy=100.0, cx=320.0, cy=240.0,
                                       width=640, height=480), field: value})


# ---------------------------------------------------------------------------
# poses


def test_transform_point_examples():
    np.testing.assert_allclose(
        Pose.identity().transform(np.array([1.0, 2.0, 3.0])), [1, 2, 3]
    )
    quarter_turn_z = Pose.from_rt(so3_exp([0, 0, np.pi / 2]), np.zeros(3))
    np.testing.assert_allclose(
        quarter_turn_z.transform(np.array([1.0, 0.0, 0.0])), [0, 1, 0], atol=1e-12
    )
    shift = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, 5.0]))
    np.testing.assert_allclose(shift.transform(np.array([1.0, 2.0, 3.0])), [1, 2, 8])


@given(q=quat, t=vec3)
def test_pose_inverse_composes_to_identity(q, t):
    T = Pose(q, t)
    I = T.compose(T.inverse())
    np.testing.assert_allclose(I.rotation(), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(I.t, 0, atol=1e-10)


def test_pose_composition_associative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A, B, C = (random_pose(rng) for _ in range(3))
        left = A.compose(B).compose(C)
        right = A.compose(B.compose(C))
        np.testing.assert_allclose(left.rotation(), right.rotation(), atol=1e-12)
        np.testing.assert_allclose(left.t, right.t, atol=1e-12)


def test_pose_quaternion_stays_unit():
    rng = np.random.default_rng(4)
    T = random_pose(rng)
    for _ in range(200):
        T = T.compose(random_pose(rng))
        assert abs(np.linalg.norm(T.q) - 1.0) <= 1e-12


def test_se3_exp_update_identity_and_consistency():
    rng = np.random.default_rng(5)
    T = random_pose(rng)
    same = se3_exp_update(T, np.zeros(6))
    np.testing.assert_allclose(same.rotation(), T.rotation(), atol=1e-15)
    np.testing.assert_allclose(same.t, T.t, atol=1e-15)
    # small update moves points by approximately rho + omega x p
    delta = 1e-6 * rng.normal(size=6)
    p = rng.normal(size=3)
    moved = se3_exp_update(T, delta).transform(p)
    base = T.transform(p)
    predicted = base + np.cross(delta[:3], base) + delta[3:]
    np.testing.assert_allclose(moved, predicted, atol=1e-11)


def quat_branch(R):
    """Which ``matrix_to_quat`` branch R takes: the trace, or the index of
    the largest diagonal entry."""
    return "trace" if np.trace(R) > 0 else int(np.argmax(np.diag(R)))


def test_se3_exp_update_batch_equals_the_scalar_update():
    rng = np.random.default_rng(9)
    poses = [Pose.identity(), random_pose(rng), random_pose(rng)]
    deltas = [
        np.array([0.0, 0.0, 0.0, 0.1, -0.2, 0.3]),  # no rotation: series branch
        np.array([3e-9, -4e-9, 1e-9, 0.5, 0.1, 0.0]),  # angle 5e-9: series branch
        np.array([9.9e-9, 0.0, 0.0, 0.0, 0.0, 1.0]),  # just below the series bound
        np.array([0.0, -1.01e-8, 0.0, 1.0, 0.0, 0.0]),  # just above it, then below
        np.concatenate([rng.normal(scale=1e-9, size=3), rng.normal(size=3)]),
        rng.normal(size=6),
        rng.normal(scale=1e-3, size=6),
        # three radians about each axis: from the identity, a negative trace
        # with the largest diagonal entry on that axis
        np.array([3.0, 0.0, 0.0, 0.2, 0.0, 0.0]),
        np.array([0.0, 3.0, 0.0, 0.0, 0.2, 0.0]),
        np.array([0.0, 0.0, 3.0, 0.0, 0.0, 0.2]),
        # just short of a half turn about the diagonal: a trace near -1
        np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) * (np.pi - 1e-6) / np.sqrt(3.0),
    ]
    steps = 0.5 ** np.arange(6)
    exp_branches, quat_branches = set(), set()
    for T in poses:
        for delta in deltas:
            q, R, t = se3_exp_update_batch(T.rotation(), T.t, steps[:, None] * delta)
            for k, step in enumerate(steps):
                ref = reference_se3_exp_update(T, step * delta)
                one = se3_exp_update(T, step * delta)
                assert q[k].tobytes() == one.q.tobytes() == ref.q.tobytes()
                assert R[k].tobytes() == reference_quat_to_matrix(ref.q).tobytes()
                assert t[k].tobytes() == one.t.tobytes() == ref.t.tobytes()
                exp_branches.add(np.linalg.norm(step * delta[:3]) < 1e-8)
                quat_branches.add(quat_branch(so3_exp(step * delta[:3]) @ T.rotation()))
    assert exp_branches == {True, False}
    assert quat_branches == {"trace", 0, 1, 2}

    # one base pose per row: every pose and step above in one call
    rows = [(T, step * delta) for T in poses for delta in deltas for step in steps]
    q, R, t = se3_exp_update_batch(np.array([T.rotation() for T, _ in rows]),
                                   np.array([T.t for T, _ in rows]),
                                   np.array([d for _, d in rows]))
    for k, (T, d) in enumerate(rows):
        ref = reference_se3_exp_update(T, d)
        assert (q[k].tobytes(), R[k].tobytes(), t[k].tobytes()) == \
            (ref.q.tobytes(), reference_quat_to_matrix(ref.q).tobytes(), ref.t.tobytes())

    # the kernels the update is made of, on the same rotations
    omegas = np.array([d[:3] for _, d in rows])
    rotated = np.array([reference_so3_exp(d[:3]) @ T.rotation() for T, d in rows])
    assert_rows_match(so3_exp, reference_so3_exp, omegas)
    assert {quat_branch(R) for R in rotated} == {"trace", 0, 1, 2}
    assert_rows_match(matrix_to_quat, reference_matrix_to_quat, rotated)
    assert_rows_match(quat_to_matrix, reference_quat_to_matrix, matrix_to_quat(rotated))
    # and the pose rotations, one quaternion and a stack
    assert_rows_match(quat_to_matrix, reference_quat_to_matrix, q)

    # many random rotations, and rotations whose trace 1 + 2 cos(angle)
    # lies just above or below 0, where Shepperd's branch changes
    quats = rng.normal(size=(2000, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    axes = rng.normal(size=(8, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    traces = np.array([1e-2, 1e-3, 1e-9, 1e-15, -1e-15, -1e-9, -1e-3, -1e-2])
    angles = np.arccos((traces - 1.0) / 2.0)
    mats = np.concatenate([[reference_quat_to_matrix(x) for x in quats],
                           [reference_so3_exp(a * axis) for a, axis in zip(angles, axes)]])
    tr = np.trace(mats, axis1=1, axis2=2)
    assert ((0 < tr) & (tr <= 1e-3)).any() and ((-1e-3 <= tr) & (tr <= 0)).any()
    assert_rows_match(quat_to_matrix, reference_quat_to_matrix, quats)
    assert_rows_match(matrix_to_quat, reference_matrix_to_quat, mats)


def test_pose_quat_batch_renormalizes_as_pose_does():
    unit = matrix_to_quat(so3_exp([0.3, -0.2, 0.1]))
    q = np.array([
        unit,
        unit * (1.0 + 2 * np.finfo(float).eps),  # within 4 ulps: kept as is
        [0.0, 1.0, 0.0, 1e-6],  # norm 1 + 5e-13: normalized
        [0.5, -1.0, 2.0, 0.25],
    ])
    out = pose_quat_batch(q)
    for row, got in zip(q, out):
        assert got.tobytes() == Pose(row, np.zeros(3)).q.tobytes()
    changed = [a.tobytes() != b.tobytes() for a, b in zip(q, out)]
    assert changed == [False, False, True, True]


def test_so3_log_inverts_exp():
    rng = np.random.default_rng(6)
    for scale in (1e-7, 0.1, 1.0, 3.0):
        w = rng.normal(size=3)
        w = w / np.linalg.norm(w) * scale
        np.testing.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-9)
    # near-pi branch
    w = np.array([0.0, 0.0, np.pi - 1e-9])
    np.testing.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-7)


# ---------------------------------------------------------------------------
# Plucker lines


def test_plucker_from_endpoints_examples():
    n, d = plucker_from_endpoints([1.0, 0, 0], [1.0, 1, 0])
    np.testing.assert_allclose(n, [0, 0, 1])
    np.testing.assert_allclose(d, [0, 1, 0])

    # a line through the origin has an exactly zero moment
    n, d = plucker_from_endpoints([0, 0, 1.0], [0, 0, 2.0])
    np.testing.assert_allclose(n, [0, 0, 0])
    np.testing.assert_allclose(d, [0, 0, 1])

    # doubling the separation doubles both views
    n, d = plucker_from_endpoints([1.0, 0, 0], [1.0, 2, 0])
    np.testing.assert_allclose(n, [0, 0, 2])
    np.testing.assert_allclose(d, [0, 2, 0])

    with pytest.raises(DegenerateLineError):
        plucker_from_endpoints([1.0, 2, 3], [1.0, 2, 3])


def transform_plucker(T: Pose, n, d):
    """The Plucker pair (n, d) in the frame of T, as ``_lines_to_camera``
    maps each line of a residual: n' = R n + t x R d, d' = R d."""
    n_c, _, d_c = _lines_to_camera(T.rotation()[None], T.t[None],
                                   np.asarray(n, dtype=float)[None], np.asarray(d, dtype=float)[None])
    return n_c[0], d_c[0]


def test_transform_plucker_examples():
    n0 = np.array([0.0, 0, 1])
    d0 = np.array([0.0, 1, 0])
    n, d = transform_plucker(Pose.identity(), n0, d0)
    np.testing.assert_allclose(n, n0)
    np.testing.assert_allclose(d, d0)

    quarter_turn_z = Pose.from_rt(so3_exp([0, 0, np.pi / 2]), np.zeros(3))
    n, d = transform_plucker(quarter_turn_z, n0, d0)
    np.testing.assert_allclose(n, [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(d, [-1, 0, 0], atol=1e-15)

    lift = Pose(np.array([0.0, 0, 0, 1]), np.array([0.0, 0, 1]))
    n, d = transform_plucker(lift, n0, d0)
    np.testing.assert_allclose(n, [-1, 0, 1])
    np.testing.assert_allclose(d, [0, 1, 0])


def test_transform_plucker_matches_transformed_endpoints():
    # property over 1000 random lines/poses: transforming the Plucker pair
    # agrees with rebuilding it from transformed endpoints up to +scale
    rng = np.random.default_rng(7)
    for _ in range(1000):
        T = random_pose(rng)
        ps, pe = rng.normal(scale=3.0, size=(2, 3))
        if np.allclose(ps, pe):
            continue
        n1, d1 = transform_plucker(T, *plucker_from_endpoints(ps, pe))
        n2, d2 = plucker_from_endpoints(T.transform(ps), T.transform(pe))
        np.testing.assert_allclose(n1, n2, atol=1e-9)
        np.testing.assert_allclose(d1, d2, atol=1e-10)
        assert abs(n1 @ d1) <= 1e-10 * (np.linalg.norm(n1) * np.linalg.norm(d1) + 1)


# ---------------------------------------------------------------------------
# orthonormal representation


def test_orthonormal_from_plucker_hand_case():
    o = orthonormal_from_plucker([0.0, 0, 1], [0.0, 1, 0])
    np.testing.assert_allclose(o.U[:, 0], [0, 0, 1])
    np.testing.assert_allclose(o.U[:, 1], [0, 1, 0])
    np.testing.assert_allclose(o.U[:, 2], [-1, 0, 0])
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(o.W, [[r, -r], [r, r]])
    assert not o.degenerate


def test_orthonormal_scale_invariance():
    a = orthonormal_from_plucker([0.0, 0, 1], [0.0, 1, 0])
    b = orthonormal_from_plucker([0.0, 0, 2], [0.0, 2, 0])
    np.testing.assert_allclose(a.U, b.U)
    np.testing.assert_allclose(a.W, b.W)


def test_orthonormal_roundtrip_preserves_projective_line():
    rng = np.random.default_rng(8)
    for _ in range(500):
        ps, pe = rng.normal(scale=3.0, size=(2, 3))
        if np.linalg.norm(pe - ps) < 1e-6:
            continue
        n, d = plucker_from_endpoints(ps, pe)
        if np.linalg.norm(n) < 1e-9:
            continue
        n2, d2 = plucker_from_orthonormal(orthonormal_from_plucker(n, d))
        # compare after normalizing |d| = 1
        np.testing.assert_allclose(n / np.linalg.norm(d), n2 / np.linalg.norm(d2), atol=1e-9)
        np.testing.assert_allclose(d / np.linalg.norm(d), d2 / np.linalg.norm(d2), atol=1e-9)
        assert abs(n2 @ d2) <= 1e-12


def test_orthonormal_degenerate_line_through_origin():
    o = orthonormal_from_plucker([0.0, 0, 0], [0.0, 0, 2])
    assert o.degenerate
    np.testing.assert_allclose(o.U.T @ o.U, np.eye(3), atol=1e-12)
    assert np.linalg.det(o.U) == pytest.approx(1.0)
    n, d = plucker_from_orthonormal(o)
    np.testing.assert_allclose(n, 0, atol=1e-15)
    np.testing.assert_allclose(d / np.linalg.norm(d), [0, 0, 1])


def reference_orthonormal_from_plucker(n, d):
    """The former one-line conversion: (U, W, degenerate)."""
    nn, nd = float(np.linalg.norm(n)), float(np.linalg.norm(d))
    d_hat = d / nd
    degenerate = nn < 1e-12 * max(nd, 1.0)
    if degenerate:
        e = np.zeros(3)
        e[int(np.argmin(np.abs(d_hat)))] = 1.0
        u1 = np.cross(d_hat, e)
        u1 = u1 / np.linalg.norm(u1)
        nn = 0.0
    else:
        u1 = n / nn
    u3 = np.cross(u1, d_hat)
    u3 = u3 / np.linalg.norm(u3)
    s = np.hypot(nn, nd)
    return (np.column_stack([u1, d_hat, u3]),
            np.array([[nn / s, -nd / s], [nd / s, nn / s]]), degenerate)


def test_orthonormal_batch_equals_the_one_line_reference():
    rng = np.random.default_rng(10)
    ps, pe = rng.normal(scale=3.0, size=(2, 300, 3))
    n, d = np.cross(ps, pe), pe - ps
    # lines through the origin, one with a tied least-aligned axis, and
    # moments just above and below the degenerate threshold
    n[:40] *= 1e-14
    n[40:60] *= 1e-9
    n[60] = 0.0
    d[60] = [1.0, 0.0, 0.0]
    # short directions: the threshold scales with max(|d|, 1)
    d[61:70] *= 0.1 / np.linalg.norm(d[61:70], axis=1, keepdims=True)
    n[61:70] *= 5e-13 / np.linalg.norm(n[61:70], axis=1, keepdims=True)
    U, W, degenerate = orthonormal_from_plucker_batch(n, d)
    assert degenerate[:40].all() and not degenerate[40:60].any() and degenerate[60:70].all()
    for i in range(len(n)):
        U_i, W_i, degenerate_i = reference_orthonormal_from_plucker(n[i], d[i])
        assert U[i].tobytes() == U_i.tobytes() and W[i].tobytes() == W_i.tobytes()
        assert degenerate[i] == degenerate_i
        o = orthonormal_from_plucker(n[i], d[i])
        assert o.U.tobytes() == U_i.tobytes() and o.W.tobytes() == W_i.tobytes()
        assert o.degenerate == degenerate_i
    with pytest.raises(DegenerateLineError, match="direction must be nonzero"):
        orthonormal_from_plucker_batch(n[:2], np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_orthonormal_update_identity_and_so2_composition():
    o = orthonormal_from_plucker([0.0, 0, 1], [0.0, 1, 0])
    same = orthonormal_update(o, np.zeros(4))
    np.testing.assert_allclose(same.U, o.U)
    np.testing.assert_allclose(same.W, o.W)

    twice_quarter = orthonormal_update(
        orthonormal_update(o, [0, 0, 0, np.pi / 2]), [0, 0, 0, np.pi / 2]
    )
    once_half = orthonormal_update(o, [0, 0, 0, np.pi])
    np.testing.assert_allclose(twice_quarter.W, once_half.W, atol=1e-12)


def test_orthonormal_update_stays_orthonormal():
    rng = np.random.default_rng(9)
    for _ in range(200):
        ps, pe = rng.normal(scale=2.0, size=(2, 3))
        if np.linalg.norm(pe - ps) < 1e-3:
            continue
        o = orthonormal_from_plucker(*plucker_from_endpoints(ps, pe))
        delta = rng.normal(size=4)
        o2 = orthonormal_update(o, delta)
        assert o2.U.tobytes() == (o.U @ reference_so3_exp(delta[:3])).tobytes()
        np.testing.assert_allclose(o2.U.T @ o2.U, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(o2.W.T @ o2.W, np.eye(2), atol=1e-12)
        n, d = plucker_from_orthonormal(o2)
        assert abs(n @ d) <= 1e-12


# ---------------------------------------------------------------------------
# measurement/landmark records


def test_point_measurement_validation():
    with pytest.raises(GeometryError):
        PointMeasurement(0, np.array([1.0, 2.0]), -0.5)
    with pytest.raises(GeometryError):
        PointMeasurement(0, np.array([np.nan, 2.0]), 1.0)


def test_line_measurement_rejects_coincident_endpoints():
    a = PointMeasurement(3, np.array([10.0, 10.0]), 1.0)
    with pytest.raises(GeometryError):
        LineMeasurement(3, a, a)


def test_line_landmark_plucker_consistency():
    lines = Segments([0], [[[1.0, 0, 0], [1.0, 1, 0]]])
    n, d = plucker_from_endpoints(*lines.endpoints[0])
    np.testing.assert_allclose(n, [0, 0, 1])
    np.testing.assert_allclose(d, [0, 1, 0])
    assert abs(n @ d) <= 1e-10


SEGMENT_ROW = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "record, ids, rows, error, match",
    [
        pytest.param(Points, [3, 1, 3], [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0]],
                     GeometryError, "^duplicate point id 3$", id="point-repeated-id"),
        pytest.param(Points, [0, 1], [[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]],
                     GeometryError, "^point position must be finite$", id="point-nan"),
        pytest.param(Points, [0], [[0.0, np.inf, 1.0]],
                     GeometryError, "^point position must be finite$", id="point-inf"),
        pytest.param(Segments, [4, 4], [SEGMENT_ROW, SEGMENT_ROW],
                     GeometryError, "^duplicate line id 4$", id="segment-repeated-id"),
        pytest.param(Segments, [0, 1], [SEGMENT_ROW, [[0.0, 0.0, 1.0], [-np.inf, 0.0, 1.0]]],
                     GeometryError, "^line endpoints must be finite$", id="segment-inf"),
        pytest.param(Segments, [0, 1], [SEGMENT_ROW, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]],
                     DegenerateLineError, "^line endpoints coincide$", id="segment-coincident"),
    ],
)
def test_landmark_records_refuse_bad_rows(record, ids, rows, error, match):
    with pytest.raises(error, match=match):
        record(ids, rows)


def test_landmark_record_is_id_sorted_read_only_mapping():
    lines = Segments([7, 2], [SEGMENT_ROW, np.add(SEGMENT_ROW, 1.0)])
    assert lines.id.tolist() == [2, 7]
    assert lines.endpoints.tobytes() == np.array([np.add(SEGMENT_ROW, 1.0), SEGMENT_ROW]).tobytes()
    for column in (lines.id, lines.endpoints):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    # the mapping view: ids in ascending order, one namespace per row
    assert list(lines) == [2, 7] and len(lines) == 2
    row = lines[7]
    assert row.id == 7 and type(row.id) is int
    assert row.endpoints.tolist() == SEGMENT_ROW
    assert 2 in lines and 3 not in lines and 8 not in lines
    with pytest.raises(KeyError):
        lines[3]
    rows, found = lines.find([7, 3, 2, 9])
    assert found.tolist() == [True, False, True, False]
    assert rows[found].tolist() == [1, 0]


def test_line_angle_exact_at_zero():
    d = np.array([[0.3, -1.2, 0.7]])
    assert line_angles(d, d)[0] == 0.0
    assert line_angles(d, -d)[0] == 0.0  # undirected
    assert line_angles(d, 2.5 * d)[0] <= 1e-15  # rounding of the scaled copy
    e = np.eye(3)
    assert line_angles(e[:1], e[1:2])[0] == pytest.approx(np.pi / 2)


def test_skew_and_rot2():
    v = np.array([1.0, 2.0, 3.0])
    w = np.array([-2.0, 0.5, 4.0])
    np.testing.assert_allclose(skew(v) @ w, np.cross(v, w))
    vs = np.concatenate([np.random.default_rng(11).normal(size=(8, 3)),
                         [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]])
    assert_rows_match(skew, reference_skew, vs)
    np.testing.assert_allclose((skew(vs) @ w[:, None])[:, :, 0], np.cross(vs, w))
    np.testing.assert_allclose(rot2(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)
