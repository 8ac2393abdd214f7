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
    GraphConstructionError,
    Lines,
    Points,
    build_covisibility_graph,
)
from plbench.geometry import (
    CameraIntrinsics,
    Pose,
    Segments,
    Trajectory,
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
IDENTITY = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))


def identities(n):
    """The trajectory record of n identity poses."""
    return Trajectory(np.tile(IDENTITY.q, (n, 1)), np.zeros((n, 3)))


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


@pytest.mark.parametrize("spacing", [" ", "  "], ids=["c-reader", "record-parse"])
def test_unsorted_landmark_file_reads_back_sorted_by_id(small_sequence, tmp_path, spacing):
    # a hand-written landmarks.txt may list its records in any order; double
    # spaces send the file to the record-by-record parse
    write_sequence(small_sequence, tmp_path / "seq")
    path = tmp_path / "seq" / "landmarks.txt"
    lines = path.read_text().splitlines()
    records = [line.replace(" ", spacing) for line in lines if not line.startswith("#")]
    path.write_text("\n".join([line for line in lines if line.startswith("#")]
                              + records[::-1]) + "\n")
    back = read_sequence(tmp_path / "seq")
    assert_sequences_identical(small_sequence, back)
    for column in (back.gt_points.id, back.gt_points.position, back.gt_lines.id,
                   back.gt_lines.endpoints):
        assert not column.flags.writeable
    assert back.gt_points.id.dtype == back.gt_lines.id.dtype == np.int64


def written_with_short_lines(directory):
    """The box preset rendered with ``min_line_len = 5`` px, written to
    ``directory``; it holds lines shorter than 15 px."""
    cfg = load_preset("box")
    render = dataclasses.replace(cfg.render, min_line_len=5.0)
    seq = generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory),
                            cfg.noise, cfg.intrinsics, render)
    seq.validate(render.min_line_len)
    write_sequence(seq, directory)
    return seq


def test_sequence_with_short_lines_round_trips_with_the_defaults(tmp_path):
    seq = written_with_short_lines(tmp_path / "seq")
    assert_sequences_identical(seq, read_sequence(tmp_path / "seq"))


def test_sequence_with_short_lines_is_refused_at_a_longer_min_line_len(tmp_path):
    written_with_short_lines(tmp_path / "seq")
    with pytest.raises(ParseError, match=r"frames/\d{6}\.txt:\d+: "
                                         "line measurement shorter than min_line_len$"):
        read_sequence(tmp_path / "seq", min_line_len=15.0)


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


@pytest.mark.parametrize("frames, poses", [(3, 4), (4, 3)])
def test_frame_count_other_than_pose_count_is_refused(frames, poses, tmp_path):
    # read_sequence would refuse either directory: a missing frame file,
    # or a frame file with no ground-truth pose
    cfg = load_preset("corridor")
    scene, traj = build_scene(cfg.scene), build_trajectory(cfg.trajectory)[:4]
    seq = generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render)
    seq = dataclasses.replace(seq, gt_trajectory=traj[:poses], frames=seq.frames[:frames])
    for call in (seq.validate, lambda: write_sequence(seq, tmp_path / "seq"),
                 lambda: build_covisibility_graph(seq, traj[:frames], scene)):
        with pytest.raises(ValueError, match="^frame count does not match trajectory length$"):
            call()
    assert not any(tmp_path.iterdir())


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
    with pytest.raises(ParseError, match="000000.txt:2: (point landmark id 7|line landmark id 3) "
                                         "repeats$") as info:
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


@pytest.mark.parametrize("kind, fault", [("point", "outside"), ("line", "outside"),
                                         ("line", "short"), ("point", "dangling"),
                                         ("line", "dangling"), ("point", "repeat"),
                                         ("line", "repeat")],
                         ids=["point-outside", "line-outside", "line-short", "point-dangling",
                              "line-dangling", "point-repeat", "line-repeat"])
def test_frame_file_fault_reads_as_validate_words_it(small_sequence, tmp_path, kind, fault):
    # the reader and Sequence.validate share one list of frame-row checks:
    # a frame file's fault reads ``file:line: <text>`` where validate says
    # ``<text> in frame N`` for the same row
    f = small_sequence.frames[1]
    columns = {c: getattr(f, f"{kind}_{c}").copy() for c in ("ids", "pixels", "depths")}
    end = columns["pixels"][0] if kind == "point" else columns["pixels"][0, 1]
    if fault == "outside":
        end[0] = -1.0
    elif fault == "short":
        end[:] = columns["pixels"][0, 0] + 1.0
    elif fault == "dangling":
        columns["ids"][0] = 999999
    else:  # the first row twice: the second one repeats
        columns = {c: np.concatenate([a[:1], a]) for c, a in columns.items()}
    frames = list(small_sequence.frames)
    frames[1] = dataclasses.replace(f, **{f"{kind}_{c}": a for c, a in columns.items()})
    seq = dataclasses.replace(small_sequence, frames=frames)
    with pytest.raises(ValueError, match=" in frame 1$") as validated:
        seq.validate(min_line_len=15.0)
    text = str(validated.value).removesuffix(" in frame 1")
    write_sequence(seq, tmp_path / "seq")
    with pytest.raises(ParseError) as read:
        read_sequence(tmp_path / "seq", min_line_len=15.0)
    # after the header and the P lines, and for a repeat its second line
    lineno = (2 if kind == "point" else 2 + len(f.point_ids)) + (fault == "repeat")
    assert str(read.value) == f"{tmp_path / 'seq' / 'frames' / '000001.txt'}:{lineno}: {text}"


POSE_RECORD = " 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"


@pytest.mark.parametrize(
    "files, message",
    [
        # the first bad line of the first bad file in frame order, and on
        # that line a syntax fault before the first failing check
        pytest.param({"frames/000000.txt": "P 99 10.0 x 1.0\n"},
                     "000000.txt:1: bad measurement value: 'x'", id="dangling-before-bad-value"),
        pytest.param({"frames/000000.txt": "P 7 10.0 20.0 1.0\nP 7 10.0 nan 1.0\n"},
                     "000000.txt:2: nonfinite measurement value: 'nan'",
                     id="repeat-before-nonfinite"),
        pytest.param({"frames/000000.txt": "P -1 10.0 20.0 1.0\n"},
                     "000000.txt:1: landmark id must be >= 0: -1", id="negative-before-dangling"),
        pytest.param({"frames/000000.txt": "P 7 10.0 20.0 -1.0\nQ 1\n"},
                     "000000.txt:1: nonpositive depth", id="depth-before-unknown-tag"),
        pytest.param({"frames/000000.txt": "L 3 10.0 20.0 1.0 10.0 20.0 1.0\n"},
                     "000000.txt:1: line measurement endpoints coincide", id="coincident-ends"),
        pytest.param({"landmarks.txt": "MP 7 1.0 2.0 3.0\nMP 7 x 0.0 0.0\n"},
                     "landmarks.txt:2: bad coordinate: 'x'",
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


@pytest.fixture(scope="module")
def box_sequence():
    cfg = load_preset("box")
    return generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory),
                             cfg.noise, cfg.intrinsics, cfg.render)


@pytest.mark.parametrize(
    "poses, extra, named",
    [
        pytest.param(50, (), "000050.txt", id="half"),
        pytest.param(1, (), "000001.txt", id="one"),
        pytest.param(99, (), "000099.txt", id="all-but-one"),
        pytest.param(100, ("000107.txt",), "000107.txt", id="past-the-end"),
        pytest.param(100, ("000130.txt", "0000101.txt"), "0000101.txt", id="lowest-number"),
    ],
)
def test_frame_files_past_a_cut_ground_truth_are_refused(box_sequence, tmp_path, poses, extra,
                                                          named):
    # groundtruth.txt cut to its first poses: the error names the frame file
    # with the lowest number past them, however many files follow it
    write_sequence(box_sequence, tmp_path / "seq")
    path = tmp_path / "seq" / "groundtruth.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1 + poses]))  # the header, then the first poses
    frames = tmp_path / "seq" / "frames"
    for name in extra:
        (frames / name).write_text((frames / "000000.txt").read_text())
    (frames / "notes.txt").write_text("not a frame file\n")
    assert len(list(frames.glob("0*.txt"))) == 100 + len(extra)
    message = (f"{frames / named}: no ground-truth pose for frame {int(named[:-4])}: "
               f"groundtruth.txt holds {poses} poses")
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        read_sequence(tmp_path / "seq")
    path.write_text("".join(lines))
    for name in extra:
        (frames / name).unlink()
    assert_sequences_identical(box_sequence, read_sequence(tmp_path / "seq"))


def test_shorter_sequence_written_over_a_longer_one_reads_back(tmp_path):
    # the 20-frame sequence's frame files 10 to 19 go, and no other file
    cfg = load_preset("box")
    scene, traj = build_scene(cfg.scene), build_trajectory(cfg.trajectory)
    long, short = (generate_sequence(scene, traj[:n], cfg.noise, cfg.intrinsics, cfg.render)
                   for n in (20, 10))
    write_sequence(long, tmp_path)
    (tmp_path / "frames" / "notes.txt").write_text("not a frame file\n")
    write_sequence(short, tmp_path)
    back = read_sequence(tmp_path)
    assert_sequences_identical(short, back)
    assert (back.gt_trajectory.q.tobytes(), back.gt_trajectory.t.tobytes()) == \
        (short.gt_trajectory.q.tobytes(), short.gt_trajectory.t.tobytes())
    fields = [f.name for f in dataclasses.fields(FrameData) if f.name != "frame_id"]
    for a, b in zip(short.frames, back.frames, strict=True):
        assert [getattr(a, name).tobytes() for name in fields] == \
            [getattr(b, name).tobytes() for name in fields]
    assert sorted(p.name for p in (tmp_path / "frames").iterdir()) == \
        [f"{i:06d}.txt" for i in range(10)] + ["notes.txt"]


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    poses = []
    for i in range(25):
        poses.append(
            Pose.from_rt(so3_exp(rng.normal(scale=0.8, size=3)), rng.normal(size=3) * 4)
        )
    traj = Trajectory([T.q for T in poses], [T.t for T in poses])
    write_trajectory(traj, tmp_path / "traj.txt")
    back = read_trajectory(tmp_path / "traj.txt")
    assert len(back) == len(traj)
    for Ta, Tb in zip(traj, back):
        assert np.array_equal(Ta.q, Tb.q)
        assert np.array_equal(Ta.t, Tb.t)
    assert back.q.tobytes() == traj.q.tobytes() and back.t.tobytes() == traj.t.tobytes()
    # numpy's C reader takes the written file; with double spaces it goes to
    # the record-by-record parse, which reads the same columns
    path = tmp_path / "traj.txt"
    assert dataset_io._load_columns(path, dataset_io._POSE_RECORDS) is not None
    path.write_text(path.read_text().replace(" ", "  "))
    assert dataset_io._load_columns(path, dataset_io._POSE_RECORDS) is None
    again = read_trajectory(path)
    assert again.q.tobytes() == traj.q.tobytes() and again.t.tobytes() == traj.t.tobytes()


def test_trajectory_identity_record(tmp_path):
    write_trajectory(identities(1), tmp_path / "t.txt")
    back = read_trajectory(tmp_path / "t.txt")
    np.testing.assert_array_equal(back[0].t, np.zeros(3))
    np.testing.assert_array_equal(back[0].q, [0.0, 0.0, 0.0, 1.0])


def test_writers_refuse_a_trajectory_or_sequence_without_poses(tmp_path):
    # read_trajectory refuses an empty groundtruth.txt, so neither is written
    with pytest.raises(ValueError, match="^cannot write an empty trajectory$"):
        write_trajectory(identities(0), tmp_path / "t.txt")
    seq = Sequence(K, identities(0), [], Points([], np.empty((0, 3))),
                   Segments([], np.empty((0, 2, 3))), {})
    seq.validate()
    with pytest.raises(ValueError, match="^cannot write a sequence without poses$"):
        write_sequence(seq, tmp_path / "seq")
    assert not any(tmp_path.iterdir())


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


GOOD_POSE = "0.0 0.0 0.0 0.0 0.0 0.0 1.0"


@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param(f"0 {GOOD_POSE}\n1 0.0 0.0 0.0 0.0 0.0 1.0\n",
                     "groundtruth.txt:3: expected 8 fields, got 7", id="field-count"),
        pytest.param(f"0 {GOOD_POSE}\n1 0.0 x 0.0 0.0 0.0 0.0 1.0\n",
                     "groundtruth.txt:3: bad pose component: 'x'", id="bad-float"),
        pytest.param(f"0 {GOOD_POSE}\n1 0.0 0.0 inf 0.0 0.0 0.0 1.0\n",
                     "groundtruth.txt:3: nonfinite pose component: 'inf'", id="nonfinite-float"),
        pytest.param(f"-1 {GOOD_POSE}\n", "groundtruth.txt:2: frame_id must be >= 0: -1",
                     id="negative-id"),
        pytest.param(f"0.0 {GOOD_POSE}\n", "groundtruth.txt:2: bad frame_id: '0.0'",
                     id="float-id"),
        pytest.param(f"9223372036854775808 {GOOD_POSE}\n",
                     "groundtruth.txt:2: frame_id does not fit in int64: 9223372036854775808",
                     id="id-past-int64"),
        pytest.param(f"0 {GOOD_POSE}\n# a comment\n1 {GOOD_POSE}\n3 {GOOD_POSE}\n",
                     "groundtruth.txt:5: non-monotonic frame_id: 3", id="non-monotonic"),
        pytest.param(f"0 {GOOD_POSE}\n1 0.0 0.0 0.0 0.0 0.0 0.0 1.1\n",
                     "groundtruth.txt:3: quaternion is not unit norm", id="non-unit"),
        pytest.param(f"0 {GOOD_POSE}\n1 {GOOD_POSE}\n2 0.0 0.0 0.0 0.0 0.0 0.0 0.0\n",
                     "groundtruth.txt:4: quaternion is not unit norm", id="zero-quaternion"),
        pytest.param(f"0 {GOOD_POSE}\n1 0.0 0.0 0.0 0.0 0.0 0.0 1.1\n2 0.0 x\n",
                     "groundtruth.txt:3: quaternion is not unit norm",
                     id="non-unit-before-field-count"),
        # as in every record file, a line's syntax fault comes before its
        # failing checks: here the out-of-order id
        pytest.param(f"0 {GOOD_POSE}\n5 0.0 x 0.0 0.0 0.0 0.0 1.0\n",
                     "groundtruth.txt:3: bad pose component: 'x'",
                     id="syntax-fault-before-check-on-one-line"),
        pytest.param("", "groundtruth.txt: empty trajectory", id="empty"),
        pytest.param("# only a comment\n\n", "groundtruth.txt: empty trajectory",
                     id="comments-only"),
    ],
)
def test_trajectory_errors_name_file_and_line(tmp_path, rows, message):
    # line 1 is the header comment the writer puts first
    (tmp_path / "groundtruth.txt").write_text("# frame_id tx ty tz qx qy qz qw\n" + rows)
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        read_trajectory(tmp_path / "groundtruth.txt")



# ---------------------------------------------------------------------------
# graphs


def test_empty_graph_roundtrip(tmp_path):
    g = FactorGraph(intrinsics=K)
    write_graph(g, tmp_path / "g.txt")
    back = read_graph(tmp_path / "g.txt", K)
    assert not back.poses and not back.points and not back.lines
    assert not back.point_factors and not back.line_factors


@pytest.mark.parametrize("graph, message", [
    (lambda: FactorGraph(intrinsics=K, poses=identities(3)),
     "graph needs at least one fixed pose"),
    (lambda: FactorGraph(intrinsics=K, poses=identities(2), fixed=[0],
                         point_factors=Factors([1], [5], [[312.5, 248.25]], [1.0])),
     "dangling factor reference to point 5"),
], ids=["no-gauge", "dangling-factor"])
def test_write_graph_refuses_a_graph_that_read_graph_refuses(graph, message, tmp_path):
    # such a graph is refused when it is built, so it never reaches the writer
    with pytest.raises(GraphConstructionError, match=message):
        write_graph(graph(), tmp_path / "g.txt")
    assert not any(tmp_path.iterdir())


def toy_graph():
    """Two poses with pose 0 fixed, one point and one line vertex, two
    point factors and one line factor."""
    T = [IDENTITY, Pose.from_rt(so3_exp([0.01, 0.02, -0.01]), np.array([0.1, 0.0, 0.02]))]
    return FactorGraph(
        intrinsics=K,
        poses=Trajectory([T_i.q for T_i in T], [T_i.t for T_i in T]),
        fixed=[0],
        points=Points([5], [[0.3, -0.2, 4.0]]),
        lines=Lines([2], [[0.0, 0.0, 0.5]], [[0.0, 0.5, 0.0]]),
        point_factors=Factors([0, 1], [5, 5], [[312.5, 248.25], [300.0, 251.0]], [1.0, 1.0]),
        line_factors=Factors([0], [2], [[[10.0, 20.0], [90.0, 20.0]]], [1.0]),
    )


def test_toy_graph_roundtrip(tmp_path):
    g = toy_graph()
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


# a valid graph file: two poses, point 0, line 0 and one factor of each kind
FAULT_BASE = ("VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"
              "VERTEX_POSE 1 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"
              "VERTEX_POINT 0 0.0 0.0 5.0\nVERTEX_LINE 0 -5.0 0.0 0.0 0.0 1.0 0.0\nFIX 0\n"
              "EDGE_POINT 0 0 322.0 239.0\nEDGE_LINE 0 0 321.0 100.0 323.0 300.0\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param("FIX 0\n", "", "g.txt: graph needs at least one fixed pose (gauge)",
                     id="no-gauge"),
        pytest.param("FIX 0", "FIX -1", "g.txt:5: pose id must be >= 0: -1", id="fixed--1"),
        pytest.param("FIX 0", "FIX 2", "g.txt: fixed flag on unknown pose vertex", id="fixed-n"),
        pytest.param("EDGE_POINT 0", "EDGE_POINT -1", "g.txt:6: frame id must be >= 0: -1",
                     id="dangling-pose--1"),
        pytest.param("EDGE_LINE 0", "EDGE_LINE 2", "g.txt: dangling factor reference to pose 2",
                     id="dangling-pose-n"),
        pytest.param("EDGE_POINT 0 0", "EDGE_POINT 0 99",
                     "g.txt: dangling factor reference to point 99", id="dangling-point"),
        pytest.param("EDGE_LINE 0 0", "EDGE_LINE 0 99",
                     "g.txt: dangling factor reference to line 99", id="dangling-line"),
        pytest.param("-5.0 0.0 0.0 0.0 1.0 0.0", "1.0 0.0 0.0 0.5 0.0 0.0",
                     "g.txt:4: Plucker constraint violated", id="plucker-violation"),
        pytest.param("-5.0 0.0 0.0 0.0 1.0 0.0", "0.0 0.0 0.5 0.0 0.0 0.0",
                     "g.txt:4: line direction must be nonzero", id="zero-direction"),
        pytest.param("322.0 239.0", "320.0 320.0 320.0 320.0", "g.txt:6: expected 5 fields, got 7",
                     id="point-pixels-of-a-line"),
        pytest.param("321.0 100.0 323.0 300.0", "320.0 240.0", "g.txt:7: expected 7 fields, got 5",
                     id="line-pixels-of-a-point"),
    ],
)
def test_read_graph_refuses_each_fault_a_graph_refuses(tmp_path, old, new, message):
    # each fault of test_graph_refuses_at_construction as a file can hold it
    (tmp_path / "g.txt").write_text(FAULT_BASE)
    assert 0.0 < read_graph(tmp_path / "g.txt", K).total_cost() < np.inf
    (tmp_path / "g.txt").write_text(FAULT_BASE.replace(old, new, 1))
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
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
        pytest.param(GRAPH_HEAD + "VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0",
                     "g.txt:4: non-monotonic frame_id: 0", id="duplicate-pose"),
        # pose ids count up from 0 in file order, as in groundtruth.txt
        pytest.param(GRAPH_HEAD + "VERTEX_POSE 2 0.0 0.0 0.0 0.0 0.0 0.0 1.0",
                     "g.txt:4: non-monotonic frame_id: 2", id="pose-id-skips"),
        pytest.param("VERTEX_POSE 1 0.0 0.0 0.0 0.0 0.0 0.0 1.0\nFIX 1",
                     "g.txt:1: non-monotonic frame_id: 1", id="pose-ids-start-at-1"),
        pytest.param(GRAPH_HEAD + "VERTEX_POINT 2 0.0 0.0 1.0\nVERTEX_POINT 2 0.0 0.0 1.0",
                     "g.txt:5: duplicate point id 2", id="duplicate-point"),
        pytest.param(GRAPH_HEAD + "VERTEX_LINE 1 0.0 0.0 0.5 0.0 0.5 0.0",
                     "g.txt:4: duplicate line id 1", id="duplicate-line"),
        pytest.param(GRAPH_HEAD + "VERTEX_POSE 1 0.0 0.0 0.0 0.0 0.0 0.0 1.1",
                     "g.txt:4: quaternion is not unit norm", id="non-unit-quaternion"),
        pytest.param(GRAPH_HEAD + "VERTEX_LINE 2 0.0 0.0 0.5 0.0 0.0 0.0",
                     "g.txt:4: line direction must be nonzero", id="zero-direction"),
        pytest.param(GRAPH_HEAD + "VERTEX_LINE 2 1.0 0.0 0.0 0.5 0.0 0.0",
                     "g.txt:4: Plucker constraint violated", id="plucker-violation"),
        pytest.param(GRAPH_HEAD + "VERTEX_LINE 2 1e160 1e160 0.0 1e160 0.0 0.0",
                     "g.txt:4: Plucker constraint violated", id="plucker-bound-overflows"),
        pytest.param(GRAPH_HEAD + "VERTEX_POINT 2 0.0 inf 1.0",
                     "g.txt:4: nonfinite coordinate: 'inf'", id="nonfinite-coordinate"),
        pytest.param(GRAPH_HEAD + "VERTEX_POSE 3 nan 0.0 0.0 0.0 0.0 0.0 1.0",
                     "g.txt:4: nonfinite pose component: 'nan'", id="nonfinite-pose"),
        # the first bad line in the file, and on it a syntax fault before
        # the first failing check
        pytest.param(GRAPH_HEAD + "VERTEX_POINT 2 0.0 0.0 1.0\nVERTEX_POINT 2 x 0.0 1.0",
                     "g.txt:5: bad coordinate: 'x'", id="duplicate-before-bad-value"),
        pytest.param(GRAPH_HEAD + "VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.1",
                     "g.txt:4: non-monotonic frame_id: 0", id="duplicate-before-quaternion"),
        pytest.param(GRAPH_HEAD + "VERTEX_POSE -3 0.0 0.0 0.0 0.0 0.0 0.0 1.1",
                     "g.txt:4: frame_id must be >= 0: -3", id="id-before-quaternion"),
        pytest.param(GRAPH_HEAD + "FIX 9223372036854775808\nVERTEX_POINT 2 0.0 0.0 1.0\n"
                     "VERTEX_POINT 2 0.0 0.0 1.0",
                     "g.txt:4: pose id does not fit in int64", id="fix-id-before-duplicate"),
        pytest.param(GRAPH_HEAD + "VERTEX_POSE 1 0.0 0.0 0.0 0.0 0.0 0.0 1.1\n"
                     "EDGE_POINT 0 x 1.0 2.0",
                     "g.txt:4: quaternion is not unit norm", id="vertex-before-malformed-edge"),
        pytest.param(GRAPH_HEAD + "EDGE_POINT 0 2 1.0 nan\nVERTEX_LINE 1 0.0 0.0 0.5 0.0 0.5 0.0",
                     "g.txt:4: nonfinite pixel: 'nan'", id="malformed-edge-before-vertex"),
        pytest.param(GRAPH_HEAD + "VERTEX_LINE 2 1.0 0.0 0.0 0.5 0.0 0.0\n"
                     "VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0",
                     "g.txt:4: Plucker constraint violated", id="line-before-pose"),
        pytest.param(GRAPH_HEAD + "VERTEX_POSE 0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n"
                     "VERTEX_LINE 2 1.0 0.0 0.0 0.5 0.0 0.0",
                     "g.txt:4: non-monotonic frame_id: 0", id="pose-before-line"),
    ],
)
def test_graph_vertex_errors_name_file_and_line(tmp_path, vertices, match):
    (tmp_path / "g.txt").write_text(vertices + "\n")
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
    "sphere": "9e5003082478cdc2137ee80a76bf13d124a4c74a162584eaaa6de1e7ee4c437c",
    "box": "d00bf15e980bef62cb160a4f866c9c9fdce3a435b448734c69e5cb4f8cd3fcf5",
    "corridor": "33f717cde87be6583b0206eb592204a2457dd7fc0f57bb0241225558f7f22a75",
}
# total_cost() of those graphs, bit for bit
GOLDEN_GRAPH_COST = {
    "sphere": 129834.34061423449,
    "box": 122690.84996911992,
    "corridor": 154002.7345375808,
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


@pytest.mark.parametrize("source", ["sphere", "box", "corridor", "toy"])
def test_written_graph_reads_back_at_the_same_cost(source, tmp_path):
    # each preset's map-to-frame graph at its shipped seed, and the toy graph
    if source == "toy":
        graph, sigma_s = toy_graph(), 1.0
    else:
        cfg = load_preset(source)
        seq = generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory),
                                cfg.noise, cfg.intrinsics, cfg.render)
        m2f, smap = track_map_to_frame(seq)
        sigma_s = cfg.noise.sigma_s
        graph = build_covisibility_graph(seq, m2f, smap, sigma_s)
    cost = graph.total_cost()
    assert 0.0 < cost < np.inf
    write_graph(graph, tmp_path / "g.txt")
    assert read_graph(tmp_path / "g.txt", graph.intrinsics, sigma_s).total_cost() == cost


def test_graph_roundtrip_from_pipeline(small_sequence, tmp_path):
    gt_map = SimpleNamespace(points=small_sequence.gt_points, lines=small_sequence.gt_lines)
    g = build_covisibility_graph(small_sequence, small_sequence.gt_trajectory, gt_map)
    write_graph(g, tmp_path / "g.txt")
    back = read_graph(tmp_path / "g.txt", small_sequence.intrinsics)
    assert back.poses.q.tobytes() == g.poses.q.tobytes()
    assert back.poses.t.tobytes() == g.poses.t.tobytes()
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
        gt_trajectory=identities(len(frames)),
        frames=frames,
        gt_points=Points([], []),
        gt_lines=Segments([], []),
        parallel_groups={},
    )


def test_stats_single_point():
    seq = frame_sequence([FrameData(0, [0], [[5.0, 5.0]], [1.0], [], [], [])])
    s = compute_stats(seq)[0]
    assert (s.num_points, s.num_lines, s.occupied_cells) == (1, 0, 1)


def test_stats_line_endpoints_only():
    # interior pixels of the segment do not occupy cells
    seq = frame_sequence([FrameData(0, [], [], [], [0], [[[5.0, 5.0], [95.0, 5.0]]], [[1.0, 1.0]])])
    s = compute_stats(seq)[0]
    assert (s.num_points, s.num_lines, s.occupied_cells) == (0, 1, 2)


def test_stats_shared_cell():
    seq = frame_sequence([FrameData(0, [0, 1], [[3.0, 3.0], [9.0, 9.0]], [1.0, 1.0], [], [], [])])
    assert compute_stats(seq)[0].occupied_cells == 1


def test_stats_boundary_pixels_belong_to_next_cell():
    seq = frame_sequence([FrameData(0, [0, 1], [[9.999, 5.0], [10.0, 5.0]], [1.0, 1.0],
                                    [], [], [])])
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
        n = rng.integers(0, 40)
        pts = [(rng.uniform(0, 639.9), rng.uniform(0, 479.9)) for _ in range(n)]
        line_ids, lns = [], []
        for j in range(rng.integers(0, 15)):
            a = np.array([rng.uniform(0, 639.9), rng.uniform(0, 479.9)])
            b = np.array([rng.uniform(0, 639.9), rng.uniform(0, 479.9)])
            if np.linalg.norm(a - b) < 1.0:
                continue
            line_ids.append(j)
            lns.append((a, b))
        frames.append(FrameData(i, np.arange(n), pts, np.ones(n), line_ids, lns,
                                np.ones((len(lns), 2))))
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


FRAME_RECORDS = {"P": (("landmark id",), 3, "measurement value", None),
                 "L": (("landmark id",), 6, "measurement value", None)}


@pytest.mark.parametrize(
    "rows, ids, message",
    [
        pytest.param("P 99 10.0 20.0 1.0\n", [99], "000000.txt:1: dangling point landmark id 99",
                     id="dangling-point"),
        pytest.param("P 7 10.0 20.0 1.0\nP 7 30.0 20.0 1.0\n", [7, 7],
                     "000000.txt:2: point landmark id 7 repeats", id="repeated-point"),
        pytest.param("P 7 10.0 20.0 1.0\nL 5 10.0 20.0 1.0 40.0 20.0 1.0\n", [7],
                     "000000.txt:2: dangling line landmark id 5", id="dangling-line"),
    ],
)
def test_c_reader_takes_a_frame_file_whose_ids_fail_their_checks(tmp_path, monkeypatch, rows,
                                                                  ids, message):
    # the parse checks syntax only: numpy's C reader reads the file's ids,
    # and the checks after it raise the same error as after the
    # record-by-record parse
    d = write_toy_sequence_dir(tmp_path, rows)
    columns = dataset_io._load_columns(d / "frames" / "000000.txt", FRAME_RECORDS)
    assert columns is not None and columns["P"][0][:, 0].tolist() == ids
    with pytest.raises(ParseError, match=re.escape(message) + "$") as by_loadtxt:
        read_sequence(d)
    with monkeypatch.context() as m:
        m.setattr(dataset_io, "_load_columns", lambda *args: None)
        with pytest.raises(ParseError) as by_record:
            read_sequence(d)
    assert str(by_record.value) == str(by_loadtxt.value)


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
