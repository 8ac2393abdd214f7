import dataclasses
import hashlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from plbench import dataset_io
from plbench.dataset_io import (
    FrameStats,
    ParseError,
    compute_stats,
    read_graph,
    read_sequence,
    read_trajectory,
    write_graph,
    write_sequence,
    write_stats_csv,
    write_trajectory,
)
from plbench.factor_graph import (
    FactorGraph,
    Factors,
    Lines,
    Points,
    Poses,
    build_covisibility_graph,
)
from plbench.geometry import (
    CameraIntrinsics,
    LineMeasurement,
    PointMeasurement,
    Pose,
    Segments,
    so3_exp,
)
from plbench.simulator import (
    FrameData,
    NoiseParams,
    Sequence,
    build_scene,
    build_trajectory,
    generate_sequence,
    load_preset,
)
from plbench.tracking import track_frame_to_frame, track_map_to_frame

K = CameraIntrinsics(460.0, 460.0, 320.0, 240.0, 640, 480)


@pytest.fixture(scope="module")
def small_sequence():
    cfg = load_preset("box")
    scene = build_scene(cfg.scene)
    traj = build_trajectory(cfg.trajectory)[:3]
    return generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render)


def assert_sequences_identical(a: Sequence, b: Sequence):
    assert a.intrinsics == b.intrinsics
    assert len(a.gt_trajectory) == len(b.gt_trajectory)
    for Ta, Tb in zip(a.gt_trajectory, b.gt_trajectory):
        assert np.array_equal(Ta.q, Tb.q) and np.array_equal(Ta.t, Tb.t)
    assert np.array_equal(a.gt_points.id, b.gt_points.id)
    assert np.array_equal(a.gt_points.position, b.gt_points.position)
    assert np.array_equal(a.gt_lines.id, b.gt_lines.id)
    assert np.array_equal(a.gt_lines.endpoints, b.gt_lines.endpoints)
    assert a.parallel_groups == b.parallel_groups
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.frame_id == fb.frame_id
        assert len(fa.points) == len(fb.points) and len(fa.lines) == len(fb.lines)
        for pa, pb in zip(fa.points, fb.points):
            assert pa.landmark_id == pb.landmark_id
            assert np.array_equal(pa.u, pb.u) and pa.d == pb.d
        for la, lb in zip(fa.lines, fb.lines):
            assert la.landmark_id == lb.landmark_id
            for ra, rb in ((la.start, lb.start), (la.end, lb.end)):
                assert np.array_equal(ra.u, rb.u) and ra.d == rb.d


# ---------------------------------------------------------------------------
# sequence round-trip


def test_sequence_roundtrip_field_identical(small_sequence, tmp_path):
    write_sequence(small_sequence, tmp_path / "seq")
    back = read_sequence(tmp_path / "seq")
    assert_sequences_identical(small_sequence, back)


def test_sequence_double_roundtrip_byte_identical(small_sequence, tmp_path):
    write_sequence(small_sequence, tmp_path / "a")
    back = read_sequence(tmp_path / "a")
    write_sequence(back, tmp_path / "b")
    for rel in ["calib.txt", "groundtruth.txt", "landmarks.txt", "parallel_groups.txt"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    for f in sorted((tmp_path / "a" / "frames").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / "frames" / f.name).read_bytes()


def test_frame_whose_id_is_not_its_index_is_refused(small_sequence, tmp_path):
    # frame ids [0, 2, 2] would write 000002.txt twice and no file for frame 1
    f = small_sequence.frames[1]
    frames = list(small_sequence.frames)
    frames[1] = FrameData(2, f.point_ids, f.point_pixels, f.point_depths,
                          f.line_ids, f.line_pixels, f.line_depths)
    seq = dataclasses.replace(small_sequence, frames=frames)
    with pytest.raises(ValueError, match="frame 1 has frame_id 2"):
        seq.validate()
    with pytest.raises(ValueError, match="frame 1 has frame_id 2"):
        write_sequence(seq, tmp_path / "seq")
    assert not (tmp_path / "seq").exists()


def write_toy_sequence_dir(tmp_path, frame_rows):
    d = tmp_path / "seq"
    (d / "frames").mkdir(parents=True)
    (d / "calib.txt").write_text("460.0 460.0 320.0 240.0 640 480\n")
    (d / "groundtruth.txt").write_text("0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n")
    (d / "landmarks.txt").write_text("MP 7 1.0 2.0 3.0\nML 3 0.0 0.0 2.0 1.0 0.0 2.0\n")
    (d / "parallel_groups.txt").write_text("PG 0 3\n")
    (d / "frames" / "000000.txt").write_text(frame_rows)
    return d


@pytest.mark.parametrize(
    "rows, match",
    [
        pytest.param("P 7 10.0 20.0 -1.0\n", "nonpositive depth", id="depth"),
        # a bad value on the third line, after a comment and a good record
        pytest.param("# header\nP 7 10.0 20.0 1.0\nL 3 10.0 20.0 1.0 40.0 20.0 -1.0\n",
                     "000000.txt:3: nonpositive depth", id="end-depth-line-3"),
        pytest.param("# header\nP 7 10.0 20.0 1.0\nL 3 10.0 20.0 1.0 4O.0 20.0 1.0\n",
                     "000000.txt:3: bad measurement value: '4O.0'", id="bad-float-line-3"),
        pytest.param("# header\nL 3 10.0 20.0 1.0 40.0 20.0 1.0\nP 7 10.0 inf 1.0\n",
                     "000000.txt:3: nonfinite measurement value: 'inf'", id="nonfinite-line-3"),
    ],
)
def test_parse_error_nonpositive_depth(tmp_path, rows, match):
    d = write_toy_sequence_dir(tmp_path, rows)
    with pytest.raises(ParseError, match=match):
        read_sequence(d)


def test_parse_error_unknown_tag(tmp_path):
    d = write_toy_sequence_dir(tmp_path, "Q 7 10.0 20.0 1.0\n")
    with pytest.raises(ParseError, match="000000.txt:1"):
        read_sequence(d)


def test_parse_error_dangling_landmark(tmp_path):
    d = write_toy_sequence_dir(tmp_path, "P 99 10.0 20.0 1.0\n")
    with pytest.raises(ParseError, match="dangling"):
        read_sequence(d)


@pytest.mark.parametrize(
    "rows",
    [
        "P 7 10.0 20.0 1.0\nP 7 30.0 20.0 1.0\n",
        "L 3 10.0 20.0 1.0 40.0 20.0 1.0\nL 3 10.0 30.0 1.0 40.0 30.0 1.0\n",
    ],
    ids=["point", "line"],
)
def test_parse_error_landmark_repeated_in_frame(tmp_path, rows):
    d = write_toy_sequence_dir(tmp_path, rows)
    with pytest.raises(ParseError, match="000000.txt:2: .* repeats in the frame") as info:
        read_sequence(d)
    assert info.value.line == 2


def test_parallel_group_of_two_directions_is_rejected(small_sequence, tmp_path):
    groups = sorted(small_sequence.parallel_groups.values())
    seq = dataclasses.replace(small_sequence, parallel_groups={0: [groups[0][0], groups[1][0]]})
    with pytest.raises(ValueError, match="parallel group 0 members disagree in direction"):
        seq.validate()
    write_sequence(seq, tmp_path / "seq")
    with pytest.raises(ParseError, match="parallel group 0 members disagree in direction"):
        read_sequence(tmp_path / "seq")


def test_parallel_group_with_dangling_line_is_rejected(small_sequence, tmp_path):
    # neither 9001 nor 9000 is a line id; the error names the first of them
    lid = int(small_sequence.gt_lines.id[0])
    seq = dataclasses.replace(small_sequence, parallel_groups={0: [lid, 9001, 9000]})
    with pytest.raises(ValueError, match="^dangling line id 9001 in parallel group 0$"):
        seq.validate()
    write_sequence(seq, tmp_path / "seq")
    with pytest.raises(ParseError, match="parallel_groups.txt:2: dangling line id 9001$"):
        read_sequence(tmp_path / "seq")


def test_parse_error_pixel_outside_image(tmp_path):
    d = write_toy_sequence_dir(tmp_path, "P 7 990.0 20.0 1.0\n")
    with pytest.raises(ParseError, match="outside"):
        read_sequence(d)


def test_parse_error_short_line(tmp_path):
    d = write_toy_sequence_dir(
        tmp_path, "L 3 10.0 20.0 1.0 12.0 20.0 1.0\n"
    )
    with pytest.raises(ParseError, match="min_line_len"):
        read_sequence(d, min_line_len=15.0)


POSE_RECORD = " 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"


@pytest.mark.parametrize(
    "files, message",
    [
        # the first bad line of the first bad file in frame order, and the
        # first failing check on that line
        pytest.param({"frames/000000.txt": "P 99 10.0 x 1.0\n"},
                     "000000.txt:1: dangling landmark_id 99", id="dangling-before-bad-value"),
        pytest.param({"frames/000000.txt": "P 7 10.0 20.0 1.0\nP 7 10.0 nan 1.0\n"},
                     "000000.txt:2: point landmark_id 7 repeats in the frame",
                     id="repeat-before-nonfinite"),
        pytest.param({"frames/000000.txt": "P -1 10.0 20.0 1.0\n"},
                     "000000.txt:1: landmark id must be >= 0: -1", id="negative-before-dangling"),
        pytest.param({"frames/000000.txt": "P 7 10.0 20.0 -1.0\nQ 1\n"},
                     "000000.txt:1: nonpositive depth", id="depth-before-unknown-tag"),
        pytest.param({"frames/000000.txt": "L 3 10.0 20.0 1.0 10.0 20.0 1.0\n"},
                     "000000.txt:1: line measurement endpoints coincide", id="coincident-ends"),
        pytest.param({"landmarks.txt": "MP 7 1.0 2.0 3.0\nMP 7 x 0.0 0.0\n"},
                     "landmarks.txt:2: duplicate point landmark id 7",
                     id="landmark-duplicate-before-bad-value"),
        pytest.param({"landmarks.txt": "ML 3 0.0 0.0 2.0 0.0 0.0 2.0\nMP 7 1.0 x 3.0\n"},
                     "landmarks.txt:1: line endpoints coincide",
                     id="landmark-coincident-before-bad-value"),
        pytest.param({"groundtruth.txt": "0" + POSE_RECORD + "1" + POSE_RECORD,
                      "frames/000000.txt": "P 7 10.0 20.0 -1.0\n"},
                     "000000.txt:1: nonpositive depth", id="frame-before-missing-frame"),
    ],
)
def test_frame_and_landmark_errors_name_file_and_line(tmp_path, files, message):
    d = write_toy_sequence_dir(tmp_path, "")
    for name, text in files.items():
        (d / name).write_text(text)
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        read_sequence(d)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    traj = []
    for i in range(25):
        traj.append(
            Pose.from_rt(so3_exp(rng.normal(scale=0.8, size=3)), rng.normal(size=3) * 4)
        )
    write_trajectory(traj, tmp_path / "traj.txt")
    back = read_trajectory(tmp_path / "traj.txt")
    assert len(back) == len(traj)
    for Ta, Tb in zip(traj, back):
        assert np.array_equal(Ta.q, Tb.q)
        assert np.array_equal(Ta.t, Tb.t)


def test_trajectory_identity_record(tmp_path):
    write_trajectory([Pose.identity()], tmp_path / "t.txt")
    back = read_trajectory(tmp_path / "t.txt")
    np.testing.assert_array_equal(back[0].t, np.zeros(3))
    np.testing.assert_array_equal(back[0].q, [0.0, 0.0, 0.0, 1.0])


def test_trajectory_non_monotonic_frame_ids(tmp_path):
    (tmp_path / "t.txt").write_text(
        "1 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"
    )
    with pytest.raises(ParseError, match="non-monotonic"):
        read_trajectory(tmp_path / "t.txt")


def test_trajectory_non_unit_quaternion(tmp_path):
    (tmp_path / "t.txt").write_text("0 0.0 0.0 0.0 0.0 0.0 0.0 1.1\n")
    with pytest.raises(ParseError, match="unit norm"):
        read_trajectory(tmp_path / "t.txt")


# ---------------------------------------------------------------------------
# graphs


def test_empty_graph_roundtrip(tmp_path):
    g = FactorGraph(intrinsics=K)
    write_graph(g, tmp_path / "g.txt")
    back = read_graph(tmp_path / "g.txt", K)
    assert not back.poses and not back.points and not back.lines
    assert not back.point_factors and not back.line_factors


def test_toy_graph_roundtrip(tmp_path):
    T = [Pose.identity(), Pose.from_rt(so3_exp([0.01, 0.02, -0.01]), np.array([0.1, 0.0, 0.02]))]
    g = FactorGraph(
        intrinsics=K,
        poses=Poses([0, 1], [T_i.t for T_i in T], [T_i.q for T_i in T]),
        fixed=[0],
        points=Points([5], [[0.3, -0.2, 4.0]]),
        lines=Lines([2], [[0.0, 0.0, 0.5]], [[0.0, 0.5, 0.0]]),
        point_factors=Factors([0, 1], [5, 5], [[312.5, 248.25], [300.0, 251.0]], [1.0, 1.0]),
        line_factors=Factors([0], [2], [[[10.0, 20.0], [90.0, 20.0]]], [1.0]),
    )
    write_graph(g, tmp_path / "g.txt")
    back = read_graph(tmp_path / "g.txt", K)

    for a, b in ((g.poses, back.poses), (g.points, back.points), (g.lines, back.lines)):
        for name in [f.name for f in dataclasses.fields(a)]:
            assert np.array_equal(getattr(b, name), getattr(a, name))
    assert np.array_equal(back.fixed, g.fixed)
    assert len(back.point_factors) == 2 and len(back.line_factors) == 1
    for fa, fb in ((g.point_factors, back.point_factors), (g.line_factors, back.line_factors)):
        assert np.array_equal(fa.frame, fb.frame) and np.array_equal(fa.landmark, fb.landmark)
        assert np.array_equal(fa.u, fb.u) and np.array_equal(fa.weight, fb.weight)


def test_graph_plucker_violation(tmp_path):
    (tmp_path / "g.txt").write_text(
        "VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\nFIX 0\n"
        "VERTEX_LINE 1 1.0 0.0 0.0 0.5 0.0 0.0\n"
    )
    with pytest.raises(ParseError, match="Plucker"):
        read_graph(tmp_path / "g.txt", K)


def test_graph_dangling_edge(tmp_path):
    (tmp_path / "g.txt").write_text(
        "VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\nFIX 0\n"
        "EDGE_POINT 0 42 100.0 100.0\n"
    )
    with pytest.raises(ParseError, match="dangling"):
        read_graph(tmp_path / "g.txt", K)


@pytest.mark.parametrize(
    "text, match",
    [
        pytest.param("VERTEX_POINT 2 0.0 0.0 1.0\nEDGE_POINT 5 2 1.0 2.0\n",
                     "g.txt: graph needs at least one fixed pose", id="edge-without-pose"),
        pytest.param("FIX 3\n", "g.txt: fixed flag on unknown pose vertex", id="fix-without-pose"),
    ],
)
def test_graph_without_pose_vertex_is_checked(tmp_path, text, match):
    (tmp_path / "g.txt").write_text(text)
    with pytest.raises(ParseError, match=match):
        read_graph(tmp_path / "g.txt", K)


GRAPH_HEAD = ("VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\nFIX 0\n"
              "VERTEX_LINE 1 0.0 0.0 0.5 0.0 0.5 0.0\n")


@pytest.mark.parametrize(
    "edge, match",
    [
        pytest.param("EDGE_LINE 0 1 10.0 2O.0 90.0 20.0", "g.txt:4: bad pixel: '2O.0'",
                     id="bad-pixel"),
        pytest.param("EDGE_LINE 0 1 10.0 20.0 90.0", "g.txt:4: expected 7 fields, got 6",
                     id="field-count"),
        pytest.param("EDGE_LINE 0 9223372036854775808 10.0 20.0 90.0 20.0",
                     "g.txt:4: line id does not fit in int64", id="id-past-int64"),
        # the first bad line in the file, and the first bad field on it,
        # whichever record kinds the lines hold
        pytest.param("EDGE_LINE 0 1 10.0 20.0 nan 20.0\nBOGUS 1",
                     "g.txt:4: nonfinite pixel: 'nan'", id="edge-before-unknown-tag"),
        pytest.param("EDGE_POINT 0 -1 1.0 2.0\nVERTEX_POINT 2 x 0.0 1.0",
                     "g.txt:4: point id must be >= 0: -1", id="edge-before-vertex"),
        pytest.param("VERTEX_POINT 2 x 0.0 1.0\nEDGE_POINT 0 2 1.0 nan",
                     "g.txt:4: bad coordinate: 'x'", id="vertex-before-edge"),
        pytest.param("EDGE_LINE 0 1 10.0 20.0 90.0 20.0\nEDGE_POINT x 2 inf 2.0\n"
                     "EDGE_LINE 0 1 1.0 2.0 3.0 x",
                     "g.txt:5: bad frame id: 'x'", id="point-before-line"),
        pytest.param("EDGE_POINT 0 2 1.0 2.0\nEDGE_LINE 0 99999999999999999999 x 1.0 2.0 3.0\n"
                     "EDGE_POINT 0 2 1.0 x",
                     "g.txt:5: line id does not fit in int64: 99999999999999999999",
                     id="line-before-point"),
        pytest.param("EDGE_POINT 0 2 1.0 1e400\nEDGE_LINE 0 1 1.0",
                     "g.txt:4: nonfinite pixel: '1e400'", id="value-before-field-count"),
    ],
)
def test_graph_edge_errors_name_file_and_line(tmp_path, edge, match):
    (tmp_path / "g.txt").write_text(GRAPH_HEAD + edge + "\n")
    with pytest.raises(ParseError, match=match):
        read_graph(tmp_path / "g.txt", K)


@pytest.mark.parametrize(
    "vertices, match",
    [
        pytest.param("VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0",
                     "g.txt:4: duplicate pose id 0", id="duplicate-pose"),
        pytest.param("VERTEX_POINT 2 0.0 0.0 1.0\nVERTEX_POINT 2 0.0 0.0 1.0",
                     "g.txt:5: duplicate point id 2", id="duplicate-point"),
        pytest.param("VERTEX_LINE 1 0.0 0.0 0.5 0.0 0.5 0.0",
                     "g.txt:4: duplicate line id 1", id="duplicate-line"),
        pytest.param("VERTEX_POSE 3 0.0 0.0 0.0 0.0 0.0 0.0 1.1",
                     "g.txt:4: quaternion is not unit norm", id="non-unit-quaternion"),
        pytest.param("VERTEX_LINE 2 0.0 0.0 0.5 0.0 0.0 0.0",
                     "g.txt:4: line direction must be nonzero", id="zero-direction"),
        pytest.param("VERTEX_LINE 2 1.0 0.0 0.0 0.5 0.0 0.0",
                     "g.txt:4: Plucker constraint violated", id="plucker-violation"),
        pytest.param("VERTEX_LINE 2 1e160 1e160 0.0 1e160 0.0 0.0",
                     "g.txt:4: Plucker constraint violated", id="plucker-bound-overflows"),
        pytest.param("VERTEX_POINT 2 0.0 inf 1.0",
                     "g.txt:4: nonfinite coordinate: 'inf'", id="nonfinite-coordinate"),
        pytest.param("VERTEX_POSE 3 nan 0.0 0.0 0.0 0.0 0.0 1.0",
                     "g.txt:4: nonfinite pose component: 'nan'", id="nonfinite-pose"),
        # the first bad line in the file, and the first failing check on it
        pytest.param("VERTEX_POINT 2 0.0 0.0 1.0\nVERTEX_POINT 2 x 0.0 1.0",
                     "g.txt:5: duplicate point id 2", id="duplicate-before-bad-value"),
        pytest.param("VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.1",
                     "g.txt:4: duplicate pose id 0", id="duplicate-before-quaternion"),
        pytest.param("VERTEX_POSE -3 0.0 0.0 0.0 0.0 0.0 0.0 1.1",
                     "g.txt:4: pose id must be >= 0: -3", id="id-before-quaternion"),
        pytest.param("FIX 9223372036854775808\nVERTEX_POINT 2 0.0 0.0 1.0\n"
                     "VERTEX_POINT 2 0.0 0.0 1.0",
                     "g.txt:4: pose id does not fit in int64", id="fix-id-before-duplicate"),
        pytest.param("VERTEX_POSE 3 0.0 0.0 0.0 0.0 0.0 0.0 1.1\nEDGE_POINT 0 x 1.0 2.0",
                     "g.txt:4: quaternion is not unit norm", id="vertex-before-malformed-edge"),
        pytest.param("EDGE_POINT 0 2 1.0 nan\nVERTEX_LINE 1 0.0 0.0 0.5 0.0 0.5 0.0",
                     "g.txt:4: nonfinite pixel: 'nan'", id="malformed-edge-before-vertex"),
        pytest.param("VERTEX_LINE 2 1.0 0.0 0.0 0.5 0.0 0.0\n"
                     "VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0",
                     "g.txt:4: Plucker constraint violated", id="line-before-pose"),
        pytest.param("VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"
                     "VERTEX_LINE 2 1.0 0.0 0.0 0.5 0.0 0.0",
                     "g.txt:4: duplicate pose id 0", id="pose-before-line"),
    ],
)
def test_graph_vertex_errors_name_file_and_line(tmp_path, vertices, match):
    (tmp_path / "g.txt").write_text(GRAPH_HEAD + vertices + "\n")
    with pytest.raises(ParseError, match=match):
        read_graph(tmp_path / "g.txt", K)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, text, message",
    [
        pytest.param("g.txt", "VERTEX_POSE 0 0.0 0.0 0.0 1e200 0.0 0.0 1.0",
                     "g.txt:1: quaternion is not unit norm", id="graph-pose"),
        pytest.param("g.txt", "VERTEX_LINE 1 1e200 0.0 0.5 0.0 1e200 0.0",
                     "g.txt:1: Plucker constraint violated", id="graph-line"),
        pytest.param("groundtruth.txt", "0 0.0 0.0 0.0 1e200 0.0 0.0 1.0",
                     "groundtruth.txt:1: quaternion is not unit norm", id="trajectory"),
    ],
)
def test_huge_values_raise_parse_error_not_overflow_warnings(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text + "\n")
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        read_graph(path, K) if name == "g.txt" else read_trajectory(path)


@pytest.mark.filterwarnings("error")
def test_parallel_group_of_huge_lines_raises_parse_error_not_overflow_warnings(tmp_path):
    # line 4's direction norm overflows, so its direction would be the zero
    # vector, and a group led by it would take lines of any direction
    d = write_toy_sequence_dir(tmp_path, "")
    (d / "landmarks.txt").write_text("ML 3 0.0 0.0 2.0 1.0 0.0 2.0\n"
                                     "ML 4 0.0 0.0 2.0 1e200 0.0 2.0\n"
                                     "ML 5 0.0 0.0 2.0 0.0 1.0 2.0\n")
    for group in ("PG 0 3 4 5\n", "PG 0 4 3 5\n"):
        (d / "parallel_groups.txt").write_text(group)
        with pytest.raises(ParseError, match=re.escape(
                "landmarks.txt:2: line direction cannot be normalized") + "$"):
            read_sequence(d)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "group, bad",
    [
        pytest.param([9002, 9001, 9003], 9002, id="overflow-leads"),
        pytest.param([9001, 9002, 9003], 9002, id="overflow-second"),
        pytest.param([9004, 9001], 9004, id="underflow-leads"),
    ],
)
def test_parallel_group_member_without_finite_direction_is_rejected(small_sequence, group, bad):
    # along x, along x to 1e200 (the norm overflows), along y, and along x
    # by 1e-200 (the norm underflows to zero)
    ends = {9001: [[0.0, 0.0, 2.0], [1.0, 0.0, 2.0]], 9002: [[0.0, 0.0, 2.0], [1e200, 0.0, 2.0]],
            9003: [[0.0, 0.0, 2.0], [0.0, 1.0, 2.0]], 9004: [[0.0, 0.0, 2.0], [1e-200, 0.0, 2.0]]}
    lines = small_sequence.gt_lines
    gt_lines = Segments(np.concatenate([lines.id, list(ends)]),
                        np.concatenate([lines.endpoints, list(ends.values())]))
    seq = dataclasses.replace(small_sequence, gt_lines=gt_lines, parallel_groups={0: group})
    with pytest.raises(ValueError, match=f"^line {bad} in parallel group 0 has no finite direction$"):
        seq.validate()


def test_graph_edge_pixels_whose_sum_overflows_are_read(tmp_path):
    # each pixel is finite, only their sum is not
    (tmp_path / "g.txt").write_text(GRAPH_HEAD + "VERTEX_POINT 2 0.0 0.0 1.0\n"
                                    "EDGE_POINT 0 2 1.7e308 1.7e308\n")
    back = read_graph(tmp_path / "g.txt", K)
    assert back.point_factors.u.tolist() == [[1.7e308, 1.7e308]]


# sha256 of write_graph over the map-to-frame graph of each preset's full
# sequence at its shipped seed
GOLDEN_GRAPH_SHA256 = {
    "sphere": "0bbb8a58e151e089b39ade5c9fb562b157692eab0cbe3acf97f263b599cca74f",
    "box": "1df7314140bacd5f8cbd3af94a164b745e1504a5c4d10f9d9d7906d3f4b87393",
    "corridor": "c5f8c0827e473f6fdde82de3c18237ecf824326bdf0fc3cc5ab14f25991f6258",
}
# total_cost() of those graphs, bit for bit
GOLDEN_GRAPH_COST = {
    "sphere": 129834.34061423445,
    "box": 122690.84996911994,
    "corridor": 154002.73453758072,
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_GRAPH_SHA256))
def test_graph_file_matches_golden_and_rewrites_byte_identical(preset, tmp_path):
    cfg = load_preset(preset)
    seq = generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory),
                            cfg.noise, cfg.intrinsics, cfg.render)
    m2f, smap = track_map_to_frame(seq)
    graph = build_covisibility_graph(seq, m2f, smap, cfg.noise.sigma_s)
    write_graph(graph, tmp_path / "a.txt")
    data = (tmp_path / "a.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_GRAPH_SHA256[preset]
    back = read_graph(tmp_path / "a.txt", seq.intrinsics, cfg.noise.sigma_s)
    write_graph(back, tmp_path / "b.txt")
    assert (tmp_path / "b.txt").read_bytes() == data
    assert graph.total_cost() == GOLDEN_GRAPH_COST[preset]
    assert back.total_cost() == GOLDEN_GRAPH_COST[preset]


def test_graph_roundtrip_from_pipeline(small_sequence, tmp_path):
    gt_map = SimpleNamespace(points=small_sequence.gt_points, lines=small_sequence.gt_lines)
    g = build_covisibility_graph(small_sequence, small_sequence.gt_trajectory, gt_map)
    write_graph(g, tmp_path / "g.txt")
    back = read_graph(tmp_path / "g.txt", small_sequence.intrinsics)
    assert np.array_equal(back.poses.id, g.poses.id)
    assert np.array_equal(back.points.id, g.points.id)
    assert np.array_equal(back.lines.id, g.lines.id)
    assert len(back.point_factors) == len(g.point_factors)
    assert len(back.line_factors) == len(g.line_factors)
    for fa, fb in ((g.point_factors, back.point_factors), (g.line_factors, back.line_factors)):
        assert np.array_equal(fa.frame, fb.frame) and np.array_equal(fa.landmark, fb.landmark)
        assert np.array_equal(fa.u, fb.u)


# ---------------------------------------------------------------------------
# statistics


def frame_sequence(frames):
    return Sequence(
        intrinsics=K,
        gt_trajectory=[Pose.identity()] * len(frames),
        frames=frames,
        gt_points=Points([], []),
        gt_lines=Segments([], []),
        parallel_groups={},
    )


def pm(pid, x, y, d=1.0):
    return PointMeasurement(pid, np.array([x, y]), d)


def pack(frame_id, points, lines):
    """FrameData holding the given measurement records as arrays."""
    return FrameData(
        frame_id,
        [p.landmark_id for p in points], [p.u for p in points], [p.d for p in points],
        [l.landmark_id for l in lines], [(l.start.u, l.end.u) for l in lines],
        [(l.start.d, l.end.d) for l in lines],
    )


def test_stats_single_point():
    seq = frame_sequence([pack(0, [pm(0, 5.0, 5.0)], [])])
    s = compute_stats(seq)[0]
    assert (s.num_points, s.num_lines, s.occupied_cells) == (1, 0, 1)


def test_stats_line_endpoints_only():
    # interior pixels of the segment do not occupy cells
    line = LineMeasurement(0, pm(0, 5.0, 5.0), pm(0, 95.0, 5.0))
    seq = frame_sequence([pack(0, [], [line])])
    s = compute_stats(seq)[0]
    assert (s.num_points, s.num_lines, s.occupied_cells) == (0, 1, 2)


def test_stats_shared_cell():
    seq = frame_sequence([pack(0, [pm(0, 3.0, 3.0), pm(1, 9.0, 9.0)], [])])
    assert compute_stats(seq)[0].occupied_cells == 1


def test_stats_boundary_pixels_belong_to_next_cell():
    seq = frame_sequence([pack(0, [pm(0, 9.999, 5.0), pm(1, 10.0, 5.0)], [])])
    assert compute_stats(seq)[0].occupied_cells == 2


def test_stats_invariant_rejects_impossible_counts():
    with pytest.raises(ValueError):
        FrameStats(0, 1, 0, 5)


def oracle_stats(frame, width, height):
    """Independent oracle: mark a dense boolean grid instead of hashing."""
    gw = -(-width // 10)
    gh = -(-height // 10)
    grid = np.zeros((gw, gh), dtype=bool)
    for p in frame.points:
        grid[int(p.u[0] // 10), int(p.u[1] // 10)] = True
    for l in frame.lines:
        for u in (l.start.u, l.end.u):
            grid[int(u[0] // 10), int(u[1] // 10)] = True
    return int(grid.sum())


def test_stats_match_grid_oracle_on_random_frames():
    rng = np.random.default_rng(1)
    frames = []
    for i in range(300):
        pts = [
            pm(j, rng.uniform(0, 639.9), rng.uniform(0, 479.9)) for j in range(rng.integers(0, 40))
        ]
        lns = []
        for j in range(rng.integers(0, 15)):
            a = np.array([rng.uniform(0, 639.9), rng.uniform(0, 479.9)])
            b = np.array([rng.uniform(0, 639.9), rng.uniform(0, 479.9)])
            if np.linalg.norm(a - b) < 1.0:
                continue
            lns.append(LineMeasurement(j, PointMeasurement(j, a, 1.0), PointMeasurement(j, b, 1.0)))
        frames.append(pack(i, pts, lns))
    seq = frame_sequence(frames)
    stats = compute_stats(seq)
    for f, s in zip(frames, stats):
        assert s.occupied_cells == oracle_stats(f, 640, 480)
        assert s.occupied_cells <= 64 * 48


def test_stats_csv(tmp_path, small_sequence):
    stats = compute_stats(small_sequence)
    write_stats_csv(stats, tmp_path / "stats.csv")
    rows = (tmp_path / "stats.csv").read_text().splitlines()
    assert rows[0] == "frame_id,num_points,num_lines,occupied_cells"
    assert len(rows) == len(stats) + 1
    first = rows[1].split(",")
    assert int(first[0]) == stats[0].frame_id
    assert int(first[3]) == stats[0].occupied_cells


# ---------------------------------------------------------------------------
# the pipeline works on the frame arrays


def test_pipeline_never_builds_measurement_records(tmp_path, monkeypatch):
    def refuse(frame):
        raise AssertionError("measurement records built from frame arrays")

    monkeypatch.setattr(FrameData, "points", property(refuse))
    monkeypatch.setattr(FrameData, "lines", property(refuse))
    cfg = load_preset("box")
    seq = generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory)[:8],
                            cfg.noise, cfg.intrinsics, cfg.render)
    write_sequence(seq, tmp_path / "seq")
    back = read_sequence(tmp_path / "seq", cfg.render.min_line_len)
    traj, smap = track_map_to_frame(back)
    track_frame_to_frame(back)
    graph = build_covisibility_graph(back, traj, smap, cfg.noise.sigma_s)
    assert graph.point_factors and graph.line_factors
    assert len(compute_stats(back)) == 8


# ---------------------------------------------------------------------------
# numpy's C reader and the record-by-record parse read every file alike


def outcome(read):
    """The ParseError text of ``read()``, or a digest of every array of the
    sequence or graph it returns, with their dtypes and shapes."""
    try:
        x = read()
    except ParseError as exc:
        return str(exc)
    h = hashlib.sha256()
    if isinstance(x, Sequence):
        arrays = [a for f in x.frames for a in (f.point_ids, f.point_pixels, f.point_depths,
                                                f.line_ids, f.line_pixels, f.line_depths)]
        arrays += [np.array(list(x.gt_points)), np.array(list(x.gt_lines))]
        arrays += [p.position for p in x.gt_points.values()]
        arrays += [l.endpoints for l in x.gt_lines.values()]
        h.update(repr(sorted(x.parallel_groups.items())).encode())
    else:
        arrays = [x.fixed] + [getattr(part, f.name)
                              for part in (x.poses, x.points, x.lines, x.point_factors, x.line_factors)
                              for f in dataclasses.fields(part)]
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# tokens and separators that Python's int and float and numpy's loadtxt
# may read differently, or that only one of them accepts
SWAP_TOKENS = ["PX", "+5", "-0", "01", "1_0", "\u0661", "\uff11", "5.0", "5e0", "0x1p3", "1e400",
               "nan", "infinity", str(2**63), "-1"]
SWAP_SEPARATORS = ["\xa0", "\u3000", "\x1c", "\t"]


def swap_token(text, rng):
    """``text`` with one record line changed by a token or separator swap."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    i = rows[int(rng.integers(len(rows)))]
    tokens = lines[i].split(" ")
    j = 1 if rng.random() < 0.4 else int(rng.integers(len(tokens)))  # often the first id
    kind = max(int(rng.integers(-6, 8)), 0)  # half of them token swaps
    if kind == 0:
        tokens[j] = SWAP_TOKENS[int(rng.integers(len(SWAP_TOKENS)))]
    elif kind == 1:
        k = int(rng.integers(1, len(tokens)))
        sep = SWAP_SEPARATORS[int(rng.integers(len(SWAP_SEPARATORS)))]
        tokens[k - 1:k + 1] = [tokens[k - 1] + sep + tokens[k]]
    elif kind == 2:
        tokens[0] = " " + tokens[0]  # a leading blank
    elif kind == 3:
        tokens[-1] += "\r"
    elif kind == 4:
        tokens[j] += "#glued"
    elif kind == 5:
        tokens = tokens[:1]  # the tag alone
    elif kind == 6:
        return "# nothing but a comment\n"
    else:
        tokens[:2] = [tokens[0] + "\t" + tokens[1]]  # a tab after the tag
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


def test_fuzz_readers_never_crash(small_sequence, tmp_path, monkeypatch):
    # each mutated file is read by numpy's C reader where it takes the file,
    # and again by the record-by-record parse alone: same error, same arrays.
    # Two frames cut to 20 points and 8 lines keep each read short.
    points = small_sequence.frames[0].point_ids[:20]
    lines = small_sequence.frames[0].line_ids[:8]

    def cut(f):
        p, l = np.isin(f.point_ids, points), np.isin(f.line_ids, lines)
        return FrameData(f.frame_id, f.point_ids[p], f.point_pixels[p], f.point_depths[p],
                         f.line_ids[l], f.line_pixels[l], f.line_depths[l])

    groups = {g: [i for i in ids if i in lines] for g, ids in small_sequence.parallel_groups.items()}
    gt_points, gt_lines = small_sequence.gt_points, small_sequence.gt_lines
    seq = dataclasses.replace(
        small_sequence, gt_trajectory=small_sequence.gt_trajectory[:2],
        frames=[cut(f) for f in small_sequence.frames[:2]],
        gt_points=Points(points, gt_points.position[gt_points.find(points)[0]]),
        gt_lines=Segments(lines, gt_lines.endpoints[gt_lines.find(lines)[0]]),
        parallel_groups={g: ids for g, ids in groups.items() if ids})
    write_sequence(seq, tmp_path / "seq")

    g = build_covisibility_graph(seq, seq.gt_trajectory,
                                 SimpleNamespace(points=seq.gt_points, lines=seq.gt_lines))
    write_graph(g, tmp_path / "seq" / "graph.txt")

    targets = [
        tmp_path / "seq" / "calib.txt",
        tmp_path / "seq" / "groundtruth.txt",
        tmp_path / "seq" / "landmarks.txt",
        tmp_path / "seq" / "parallel_groups.txt",
        tmp_path / "seq" / "frames" / "000000.txt",
        tmp_path / "seq" / "graph.txt",
    ]
    record_files = [targets[2], targets[4], targets[5]]
    originals = {p: p.read_bytes() for p in targets}

    loaded = []  # the mutated files numpy's C reader took
    load_columns = dataset_io._load_columns

    def spy(path, *args):
        columns = load_columns(path, *args)
        if columns is not None and path == victim:
            loaded.append(path)
        return columns

    monkeypatch.setattr(dataset_io, "_load_columns", spy)
    rng = np.random.default_rng(2)
    for trial in range(1200):
        if trial % 3 == 0:
            victim = targets[int(rng.integers(len(targets)))]
            data = bytearray(originals[victim])
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(len(data)))
                data[pos] = int(rng.integers(256))
        else:
            victim = record_files[int(rng.integers(len(record_files)))]
            data = swap_token(originals[victim].decode(), rng).encode()
        victim.write_bytes(bytes(data))
        if victim.name == "graph.txt":
            def read():
                return read_graph(victim, seq.intrinsics)
        else:
            def read():
                return read_sequence(tmp_path / "seq")
        try:
            with monkeypatch.context() as m:
                m.setattr(dataset_io, "_load_columns", lambda *args: None)
                by_record = outcome(read)
            assert outcome(read) == by_record, (victim.name, bytes(data))
        finally:
            victim.write_bytes(originals[victim])
    assert len(loaded) >= 100
    # pristine input still reads fine afterwards
    read_sequence(tmp_path / "seq")


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param("P 7 10.0 20.0 1.0\nL 3 10.0 20.0 1.0 40.0 20.0 1.0\n", id="good"),
        pytest.param("P 7 10.0 20.0 -1.0\n", id="nonpositive-depth"),
        pytest.param("P 7.0 10.0 20.0 1.0\n", id="float-id"),
    ],
)
def test_loadtxt_warning_refuses_the_file(tmp_path, monkeypatch, rows):
    # numpy 1.24-1.26 read an int field such as 7.0 as 7 with a
    # DeprecationWarning; a stand-in that warns and returns wrong values
    # must leave every file to the record-by-record parse
    d = write_toy_sequence_dir(tmp_path, rows)
    with monkeypatch.context() as m:
        m.setattr(dataset_io, "_load_columns", lambda *args: None)
        expected = outcome(lambda: read_sequence(d))
    calls = []
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        calls.append(args)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        rows = loadtxt(*args, **kwargs)
        rows["values"] += 1.0
        return rows

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    assert outcome(lambda: read_sequence(d)) == expected
    assert calls
