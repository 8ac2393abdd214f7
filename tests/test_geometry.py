import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plbench.factor_graph import (
    FactorGraph,
    Factors,
    Lines,
    _lines_to_camera,
    _project_points,
)
from plbench.geometry import (
    CameraIntrinsics,
    DegenerateLineError,
    GeometryError,
    Points,
    Pose,
    Segments,
    Trajectory,
    backproject,
    line_angles,
    matrix_to_quat,
    orthonormal_from_plucker,
    orthonormal_update,
    plucker_from_endpoints,
    plucker_from_orthonormal,
    quat_to_matrix,
    rot2,
    rotation_angles,
    row_norms,
    se3_exp_update,
    skew,
    so3_exp,
)
from plbench.simulator import Box, FrameData, Sequence
from plbench.tracking import MapPoints, MapSegments, SparseMap

K_VGA = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)
IDENTITY = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))


def random_pose(rng) -> Pose:
    q = rng.normal(size=4)
    return Pose(q / np.linalg.norm(q), rng.normal(scale=2.0, size=3))


def updated(T: Pose, delta) -> Pose:
    """T updated by the one 6-vector delta: ``se3_exp_update`` of one row."""
    q, _, t = se3_exp_update(T.rotation(), T.t, delta)
    return Pose(q[0], t[0])


def line_state(n, d):
    """(U, W, degenerate) of the one line n, d (3,): ``orthonormal_from_plucker``
    of a stack of one."""
    U, W, degenerate = orthonormal_from_plucker([n], [d])
    return U[0], W[0], bool(degenerate[0])


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
    for depth in (0.0, -1.0, np.nan):
        with pytest.raises(GeometryError, match="requires positive depth"):
            backproject(np.array([[10.0, 10.0], [20.0, 20.0]]), [2.0, depth], K_VGA)


@pytest.mark.parametrize("pixel, depth", [([20.0, np.nan], 2.0), ([np.inf, 20.0], 2.0),
                                          ([20.0, -np.inf], 2.0), ([20.0, 20.0], np.inf)],
                         ids=["nan-v", "inf-u", "minus-inf-v", "inf-depth"])
def test_backproject_refuses_a_pixel_or_depth_that_is_not_finite(pixel, depth):
    with pytest.raises(GeometryError, match="requires finite pixels and depths"):
        backproject(np.array([[10.0, 10.0], pixel]), [2.0, depth], K_VGA)
    # a depth that is not positive is named first
    with pytest.raises(GeometryError, match="requires positive depth"):
        backproject(np.array([[10.0, 10.0], pixel]), [-2.0, depth], K_VGA)


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
    np.testing.assert_allclose(IDENTITY.transform(np.array([1.0, 2.0, 3.0])), [1, 2, 3])
    quarter_turn_z = Pose.from_rt(so3_exp([0, 0, np.pi / 2]), np.zeros(3))
    np.testing.assert_allclose(
        quarter_turn_z.transform(np.array([1.0, 0.0, 0.0])), [0, 1, 0], atol=1e-12
    )
    shift = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, 5.0]))
    np.testing.assert_allclose(shift.transform(np.array([1.0, 2.0, 3.0])), [1, 2, 8])


def test_transform_of_blocks_equals_each_block_alone():
    # a stack (n, k, 3) transformed in one call equals one call per block
    # (k, 3), bit for bit, and a flat (N, 3) array is the one product
    # p @ R.T + t
    rng = np.random.default_rng(13)
    for _ in range(20):
        T = random_pose(rng)
        for k in (1, 2, 5):
            V = rng.normal(scale=4.0, size=(30, k, 3))
            stack = T.transform(V)
            assert stack.shape == V.shape
            for block, got in zip(V, stack):
                assert got.tobytes() == T.transform(block).tobytes()
            split = T.transform(V.reshape(3, 10, k, 3)).reshape(V.shape)
            assert split.tobytes() == stack.tobytes()
        P = rng.normal(scale=4.0, size=(40, 3))
        assert T.transform(P).tobytes() == (P @ T.rotation().T + T.t).tobytes()
        assert T.transform(P[0]).tobytes() == (P[0] @ T.rotation().T + T.t).tobytes()


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


@pytest.mark.parametrize("t", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]],
                         ids=["nan", "inf", "-inf"])
def test_pose_refuses_a_non_finite_translation(t):
    with pytest.raises(GeometryError, match="^pose t must be finite$"):
        Pose([0.0, 0.0, 0.0, 1.0], t)


def test_se3_exp_update_identity_and_consistency():
    rng = np.random.default_rng(5)
    T = random_pose(rng)
    same = updated(T, np.zeros(6))
    np.testing.assert_allclose(same.rotation(), T.rotation(), atol=1e-15)
    np.testing.assert_allclose(same.t, T.t, atol=1e-15)
    # small update moves points by approximately rho + omega x p
    delta = 1e-6 * rng.normal(size=6)
    p = rng.normal(size=3)
    moved = updated(T, delta).transform(p)
    base = T.transform(p)
    predicted = base + np.cross(delta[:3], base) + delta[3:]
    np.testing.assert_allclose(moved, predicted, atol=1e-11)


def quat_branch(R):
    """Which ``matrix_to_quat`` branch R takes: the trace, or the index of
    the largest diagonal entry."""
    return "trace" if np.trace(R) > 0 else int(np.argmax(np.diag(R)))


def test_se3_exp_update_of_a_stack_equals_the_scalar_update():
    rng = np.random.default_rng(9)
    poses = [IDENTITY, random_pose(rng), random_pose(rng)]
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
            q, R, t = se3_exp_update(T.rotation(), T.t, steps[:, None] * delta)
            for k, step in enumerate(steps):
                ref = reference_se3_exp_update(T, step * delta)
                one = updated(T, step * delta)
                assert q[k].tobytes() == one.q.tobytes() == ref.q.tobytes()
                assert R[k].tobytes() == reference_quat_to_matrix(ref.q).tobytes()
                assert t[k].tobytes() == one.t.tobytes() == ref.t.tobytes()
                exp_branches.add(np.linalg.norm(step * delta[:3]) < 1e-8)
                quat_branches.add(quat_branch(so3_exp(step * delta[:3]) @ T.rotation()))
    assert exp_branches == {True, False}
    assert quat_branches == {"trace", 0, 1, 2}

    # one base pose per row: every pose and step above in one call
    rows = [(T, step * delta) for T in poses for delta in deltas for step in steps]
    q, R, t = se3_exp_update(np.array([T.rotation() for T, _ in rows]),
                             np.array([T.t for T, _ in rows]), np.array([d for _, d in rows]))
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


def test_trajectory_renormalizes_as_pose_does():
    unit = matrix_to_quat(so3_exp([0.3, -0.2, 0.1]))
    q = np.array([
        unit,
        unit * (1.0 + 2 * np.finfo(float).eps),  # within 4 ulps: kept as is
        [0.0, 1.0, 0.0, 1e-6],  # norm 1 + 5e-13: normalized
        [0.5, -1.0, 2.0, 0.25],
    ])
    out = Trajectory(q, np.zeros((len(q), 3))).q
    for row, got in zip(q, out):
        assert got.tobytes() == Pose(row, np.zeros(3)).q.tobytes()
    changed = [a.tobytes() != b.tobytes() for a, b in zip(q, out)]
    assert changed == [False, False, True, True]

    # matrix_to_quat's rows lie within the 4 eps of unit norm that Pose
    # keeps, so they are stored as they are (the trackers rely on this and
    # skip the cast): rotations of every angle up to a half turn, of every
    # Shepperd branch
    rng = np.random.default_rng(13)
    axes = rng.normal(size=(20000, 3))
    axes /= row_norms(axes)[:, None]
    angles = np.concatenate([rng.uniform(0.0, np.pi, 18000),
                             np.pi - 10 ** rng.uniform(-12, -1, 2000)])
    mats = so3_exp(axes * angles[:, None])
    assert {quat_branch(R) for R in mats[::50]} | {quat_branch(R) for R in mats[-2000:]} == \
        {"trace", 0, 1, 2}
    quats = matrix_to_quat(mats)
    assert Trajectory(quats, np.zeros((len(quats), 3))).q.tobytes() == quats.tobytes()


def pose_rows():
    """Quaternion and translation rows of each kind the cast meets: unit,
    within 4 ulps of unit norm (kept) and beyond it (normalized)."""
    unit = matrix_to_quat(so3_exp([0.3, -0.2, 0.1]))
    q = np.array([
        unit,
        unit * (1.0 + 2 * np.finfo(float).eps),
        unit * (1.0 - 3 * np.finfo(float).eps),
        unit * (1.0 + 8 * np.finfo(float).eps),
        [0.0, 1.0, 0.0, 1e-6],
        [0.5, -1.0, 2.0, 0.25],
        [-1e-3, 2e-3, 0.0, 5e-3],
    ])
    t = np.random.default_rng(12).normal(scale=3.0, size=(len(q), 3))
    return q, t


def test_trajectory_cast_equals_pose_row_by_row():
    q, t = pose_rows()
    old = [Pose(q_i, t_i) for q_i, t_i in zip(q, t)]  # the list a trajectory was
    traj = Trajectory(q, t)
    changed = [a.tobytes() != b.tobytes() for a, b in zip(q, traj.q)]
    assert changed == [False, False, False, True, True, True, True]
    assert traj.q.tobytes() == np.array([T.q for T in old]).tobytes()
    assert traj.t.tobytes() == np.array([T.t for T in old]).tobytes() == t.tobytes()
    assert not traj.q.flags.writeable and not traj.t.flags.writeable
    assert len(traj) == len(old) == 7
    # int index, slice and iteration give the old list's bits
    for i in [*range(len(old)), -1, -7]:
        assert isinstance(traj[i], Pose)
        assert (traj[i].q.tobytes(), traj[i].t.tobytes()) == (old[i].q.tobytes(), old[i].t.tobytes())
    for key in (slice(1, 4), slice(None, None, 3), slice(5, None), slice(2, 2)):
        part = traj[key]
        assert isinstance(part, Trajectory)
        assert part.q.tobytes() == np.array([T.q for T in old[key]]).reshape(-1, 4).tobytes()
        assert part.t.tobytes() == np.array([T.t for T in old[key]]).reshape(-1, 3).tobytes()
    rows = list(traj)
    assert len(rows) == len(old) and all(isinstance(T, Pose) for T in rows)
    for T, T_old in zip(rows, old):
        assert (T.q.tobytes(), T.t.tobytes()) == (T_old.q.tobytes(), T_old.t.tobytes())
    # a record of the record's own columns keeps every bit
    again = Trajectory(traj.q, traj.t)
    assert again.q.tobytes() == traj.q.tobytes() and again.t.tobytes() == traj.t.tobytes()


def test_trajectory_copies_its_input():
    q, t = pose_rows()
    traj = Trajectory(q, t)
    q[0, 3], t[0, 0] = 0.5, 99.0
    assert traj.q[0, 3] != 0.5 and traj.t[0, 0] != 99.0
    empty = Trajectory([], [])
    assert len(empty) == 0 and empty.q.shape == (0, 4) and empty.t.shape == (0, 3)


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param({("q", 2): [0.0, 0.0, 0.0, 0.0]},
                     "quaternion must be nonzero and finite at pose 2", id="zero-q"),
        pytest.param({("q", 4): [np.nan, 0.0, 0.0, 1.0]},
                     "quaternion must be nonzero and finite at pose 4", id="nan-q"),
        pytest.param({("q", 1): [1e200, 0.0, 0.0, 1.0]},
                     "quaternion must be nonzero and finite at pose 1", id="overflowing-q"),
        pytest.param({("q", 6): [1e-200, 0.0, 0.0, 0.0]},
                     "quaternion must be nonzero and finite at pose 6", id="underflowing-q"),
        pytest.param({("t", 3): [0.0, np.inf, 0.0]}, "pose t must be finite at pose 3",
                     id="inf-t"),
        pytest.param({("t", 0): [np.nan, 0.0, 0.0]}, "pose t must be finite at pose 0",
                     id="nan-t"),
        pytest.param({("q", 5): [0.0, 0.0, 0.0, 0.0], ("t", 2): [0.0, 0.0, -np.inf]},
                     "pose t must be finite at pose 2", id="first-bad-pose-wins"),
        pytest.param({("q", 3): [0.0, 0.0, 0.0, 0.0], ("t", 3): [np.nan, 0.0, 0.0]},
                     "quaternion must be nonzero and finite at pose 3", id="q-before-t"),
    ],
)
def test_trajectory_refusal_names_the_first_bad_pose(bad, message):
    q, t = pose_rows()
    for (column, i), row in bad.items():
        (q if column == "q" else t)[i] = row
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        Trajectory(q, t)
    # each row alone is refused by Pose with the same text, less the index
    text, i = message.rsplit(" at pose ", 1)
    with pytest.raises(GeometryError, match=f"^{re.escape(text)}$"):
        Pose(q[int(i)], t[int(i)])


@pytest.mark.parametrize(
    "q, t, match",
    [
        pytest.param(np.zeros((2, 3)), np.zeros((2, 3)), "^pose q must be float64 of shape \\(n, 4\\)",
                     id="q-row-shape"),
        pytest.param([[0.0, 0.0, 0.0, 1.0]] * 2, np.zeros((3, 3)),
                     "^pose t must be float64 of shape \\(2, 3\\)", id="t-length"),
        pytest.param([[0.0, 0.0, 0.0, 1.0]], [["1", "2", "3"]], "^pose t must be float64",
                     id="t-strings"),
    ],
)
def test_trajectory_refuses_a_wrong_column(q, t, match):
    with pytest.raises(GeometryError, match=match):
        Trajectory(q, t)


def test_rotation_angles_recover_the_angle_from_zero_to_pi():
    rng = np.random.default_rng(6)
    norms = np.array([1e-12, 1e-7, 0.1, 1.0, 3.0, np.pi - 1e-9, np.pi])
    axes = rng.normal(size=(len(norms), 3))
    w = axes / row_norms(axes)[:, None] * norms[:, None]
    R = so3_exp(w)
    angles = rotation_angles(R)
    np.testing.assert_allclose(angles, norms, rtol=4 * np.finfo(float).eps, atol=1e-15)
    for one, row in zip(R, angles):
        assert rotation_angles(one).tobytes() == row.tobytes()


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
    n, d = transform_plucker(IDENTITY, n0, d0)
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
    U, W, degenerate = line_state([0.0, 0, 1], [0.0, 1, 0])
    np.testing.assert_allclose(U[:, 0], [0, 0, 1])
    np.testing.assert_allclose(U[:, 1], [0, 1, 0])
    np.testing.assert_allclose(U[:, 2], [-1, 0, 0])
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(W, [[r, -r], [r, r]])
    assert not degenerate


def test_orthonormal_scale_invariance():
    U_a, W_a, _ = line_state([0.0, 0, 1], [0.0, 1, 0])
    U_b, W_b, _ = line_state([0.0, 0, 2], [0.0, 2, 0])
    np.testing.assert_allclose(U_a, U_b)
    np.testing.assert_allclose(W_a, W_b)


def test_orthonormal_roundtrip_preserves_projective_line():
    rng = np.random.default_rng(8)
    for _ in range(500):
        ps, pe = rng.normal(scale=3.0, size=(2, 3))
        if np.linalg.norm(pe - ps) < 1e-6:
            continue
        n, d = plucker_from_endpoints(ps, pe)
        if np.linalg.norm(n) < 1e-9:
            continue
        n2, d2 = plucker_from_orthonormal(*line_state(n, d)[:2])
        # compare after normalizing |d| = 1
        np.testing.assert_allclose(n / np.linalg.norm(d), n2 / np.linalg.norm(d2), atol=1e-9)
        np.testing.assert_allclose(d / np.linalg.norm(d), d2 / np.linalg.norm(d2), atol=1e-9)
        assert abs(n2 @ d2) <= 1e-12


def test_orthonormal_degenerate_line_through_origin():
    U, W, degenerate = line_state([0.0, 0, 0], [0.0, 0, 2])
    assert degenerate
    np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)
    assert np.linalg.det(U) == pytest.approx(1.0)
    n, d = plucker_from_orthonormal(U, W)
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
    U, W, degenerate = orthonormal_from_plucker(n, d)
    assert degenerate[:40].all() and not degenerate[40:60].any() and degenerate[60:70].all()
    for i in range(len(n)):
        U_i, W_i, degenerate_i = reference_orthonormal_from_plucker(n[i], d[i])
        assert U[i].tobytes() == U_i.tobytes() and W[i].tobytes() == W_i.tobytes()
        assert degenerate[i] == degenerate_i
        U_1, W_1, degenerate_1 = line_state(n[i], d[i])  # a stack of one
        assert U_1.tobytes() == U_i.tobytes() and W_1.tobytes() == W_i.tobytes()
        assert degenerate_1 == degenerate_i
    with pytest.raises(DegenerateLineError, match="direction must be nonzero"):
        orthonormal_from_plucker(n[:2], np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_plucker_from_orthonormal_of_a_stack_equals_it_line_by_line():
    rng = np.random.default_rng(12)
    ps, pe = rng.normal(scale=3.0, size=(2, 50, 3))
    n, d = np.cross(ps, pe), pe - ps
    n[:5] = 0.0  # lines through the origin
    U, W, _ = orthonormal_from_plucker(n, d)
    stack = plucker_from_orthonormal(U, W)
    split = plucker_from_orthonormal(U.reshape(2, 25, 3, 3), W.reshape(2, 25, 2, 2))
    for i in range(len(n)):
        n_i, d_i = plucker_from_orthonormal(U[i], W[i])
        alone = (n_i.tobytes(), d_i.tobytes())
        assert (stack[0][i].tobytes(), stack[1][i].tobytes()) == alone
        assert (split[0].reshape(-1, 3)[i].tobytes(), split[1].reshape(-1, 3)[i].tobytes()) == alone
        # the one-line inverse map: n = W00 u1, d = W10 u2
        assert n_i.tobytes() == (W[i, 0, 0] * U[i, :, 0]).tobytes()
        assert d_i.tobytes() == (W[i, 1, 0] * U[i, :, 1]).tobytes()


def test_orthonormal_update_identity_and_so2_composition():
    U, W, _ = line_state([0.0, 0, 1], [0.0, 1, 0])
    U_same, W_same = orthonormal_update(U, W, np.zeros(4))
    np.testing.assert_allclose(U_same, U)
    np.testing.assert_allclose(W_same, W)

    _, twice_quarter = orthonormal_update(*orthonormal_update(U, W, [0, 0, 0, np.pi / 2]),
                                          [0, 0, 0, np.pi / 2])
    _, once_half = orthonormal_update(U, W, [0, 0, 0, np.pi])
    np.testing.assert_allclose(twice_quarter, once_half, atol=1e-12)


def test_orthonormal_update_stays_orthonormal():
    rng = np.random.default_rng(9)
    for _ in range(200):
        ps, pe = rng.normal(scale=2.0, size=(2, 3))
        if np.linalg.norm(pe - ps) < 1e-3:
            continue
        U, W, _ = line_state(*plucker_from_endpoints(ps, pe))
        delta = rng.normal(size=4)
        U2, W2 = orthonormal_update(U, W, delta)
        assert U2.tobytes() == (U @ reference_so3_exp(delta[:3])).tobytes()
        np.testing.assert_allclose(U2.T @ U2, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(W2.T @ W2, np.eye(2), atol=1e-12)
        n, d = plucker_from_orthonormal(U2, W2)
        assert abs(n @ d) <= 1e-12


# ---------------------------------------------------------------------------
# landmark records


def validate_frame(frame):
    """``Sequence.validate`` of ``frame`` as the one frame of a sequence
    whose landmark records hold the ids 0-4."""
    Sequence(K_VGA, Trajectory([IDENTITY.q], [IDENTITY.t]), [frame],
             Points(range(5), np.ones((5, 3))),
             Segments(range(5), [SEGMENT_ROW] * 5), {}).validate()


def test_point_measurement_validation():
    with pytest.raises(ValueError, match="^nonpositive depth in frame 0$"):
        validate_frame(FrameData(0, [0], [[1.0, 2.0]], [-0.5], [], [], []))
    with pytest.raises(ValueError, match="^measurement must be finite in frame 0$"):
        validate_frame(FrameData(0, [0], [[np.nan, 2.0]], [1.0], [], [], []))


def test_line_measurement_rejects_coincident_endpoints():
    with pytest.raises(ValueError, match="^line measurement endpoints coincide in frame 0$"):
        validate_frame(FrameData(0, [], [], [], [3], [[[10.0, 10.0], [10.0, 10.0]]], [[1.0, 1.0]]))


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


# Each site that casts an id or value column: a builder taking the ids
# and whether to give the shaped column a wrong row shape, and the names
# of its id column and of its shaped column.
CAST_SITES = {
    "points": (lambda ids, bad: Points(ids, np.ones((1, 2 if bad else 3))),
               "point id", "point position"),
    "segments": (lambda ids, bad: Segments(ids, [SEGMENT_ROW[:1] if bad else SEGMENT_ROW]),
                 "line id", "line endpoints"),
    # a graph's pose ids are the rows of its Trajectory: the gauge names them
    "poses": (lambda ids, bad: FactorGraph(K_VGA, Trajectory(np.ones((2, 3 if bad else 4)),
                                                             np.zeros((2, 3))), ids).poses,
              "fixed", "pose q"),
    "lines": (lambda ids, bad: Lines(ids, [[1.0, -1.0, 0.0]], np.ones((1, 2 if bad else 3))),
              "line id", "line d"),
    "map-points": (lambda ids, bad: MapPoints(ids, np.ones((1, 3)), [[1]] if bad else [1]),
                   "point id", "point count"),
    "map-segments": (lambda ids, bad: MapSegments(ids, [SEGMENT_ROW], [[1]] if bad else [1]),
                     "line id", "line count"),
    "frame": (lambda ids, bad: FrameData(0, ids, np.ones((1, 3 if bad else 2)), [1.0], [], [], []),
              "point_ids", "point_pixels"),
    "factors": (lambda ids, bad: Factors(ids, [0], np.ones((1, 3 if bad else 2)), [1.0]),
                "factor frame", "factor u"),
    "fixed": (lambda ids, bad: FactorGraph(K_VGA, Trajectory(np.ones((2, 4)), np.zeros((2, 3))),
                                           [ids] if bad else ids), "fixed", "fixed"),
    "find": (lambda ids, bad: Points([1], np.ones((1, 3))).find([ids] if bad else ids),
             "point id", "point id"),
    "fuse-points": (lambda ids, bad: SparseMap().fuse_points(np.ones((1, 2 if bad else 3)), ids),
                    "landmark_ids", "positions"),
    "fuse-lines": (lambda ids, bad: SparseMap().fuse_lines([SEGMENT_ROW[:1] if bad else SEGMENT_ROW],
                                                           ids),
                   "landmark_ids", "endpoints"),
}


@pytest.mark.parametrize("site", CAST_SITES)
def test_columns_refuse_inexact_values_and_wrong_row_shapes(site):
    build, id_column, shaped_column = CAST_SITES[site]
    for ids, bad, column in (([4.5], False, id_column), (["3"], False, id_column),
                             ([1], True, shaped_column)):
        with pytest.raises(ValueError, match=f"^{column} must be "):
            build(ids, bad)
    built = build(np.array([1], dtype=np.int32), False)
    for value in getattr(built, "__dict__", {}).values():
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(lambda: Points([0, 1], [[0, 0, 1], [1, 2]]), GeometryError,
                     r"^point position must be float64 of shape \(n, 3\), got a ragged sequence$",
                     id="points"),
        pytest.param(lambda: FrameData(0, [4, 5], [[1.0, 2.0], [3.0]], [1.0, 2.0], [], [], []),
                     ValueError,
                     r"^point_pixels must be float64 of shape \(2, 2\), got a ragged sequence$",
                     id="frame"),
    ],
)
def test_columns_name_themselves_for_ragged_rows(build, error, match):
    # numpy holds ragged rows in no array; the cast says which column
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: Points([4.5, 7.9], np.zeros((2, 3))), "point id", id="points-float"),
        pytest.param(lambda: Points(["3"], np.zeros((1, 3))), "point id", id="points-str"),
        pytest.param(lambda: Points([4], np.zeros((1, 3))).find([4.5]), "point id", id="find"),
        pytest.param(lambda: SparseMap().fuse_points(np.zeros((1, 3)), [2.7]), "landmark_ids",
                     id="fuse-points"),
        pytest.param(lambda: FactorGraph(K_VGA, fixed=[0.5, 2.9]), "fixed", id="fixed"),
        pytest.param(lambda: Factors([0.7], [0.2], [[np.nan, 1.0]], [1.0]), "factor frame",
                     id="factors-float"),
        pytest.param(lambda: Factors([0], [0], [[np.nan, 1.0]], [1.0]), "factor u must be finite",
                     id="factors-nan"),
        pytest.param(lambda: Factors([0], [0], [[1.0, 1.0]], [1.0]).u.__setitem__(0, 0.0),
                     "read-only", id="factors-write"),
        pytest.param(lambda: Pose([[0.0, 0.0], [0.0, 1.0]], [[1.0, 2.0, 3.0]]), "^pose q must be ",
                     id="pose-q"),
        pytest.param(lambda: Pose([0.0, 0.0, 0.0, 1.0], [[1.0, 2.0, 3.0]]), "^pose t must be ",
                     id="pose-t"),
        pytest.param(lambda: Box([[2.0, 0.9, 0.6]], [[[0.5, 0.5, 0.5]]]), "^box center must be ",
                     id="box-center"),
        pytest.param(lambda: Box([2.0, 0.9, 0.6], [[[0.5, 0.5, 0.5]]]), "^box extents must be ",
                     id="box-extents"),
    ],
)
def test_calls_that_lenient_casts_let_through_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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
