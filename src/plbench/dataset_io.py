"""Plain-text serialization of sequences, trajectories, factor graphs and
per-frame statistics.

Formats are line-oriented, space-separated, with '#' comments. Floats are
written with ``repr`` (shortest exact form), so read(write(x)) recovers
every field bit-exactly. All pose records store the world-to-camera
transform (tx ty tz qx qy qz qw), the same convention used in memory.

Directory layout of a sequence:

    calib.txt            fx fy cx cy width height
    groundtruth.txt      frame_id tx ty tz qx qy qz qw
    frames/%06d.txt      P id ux uy d | L id sx sy sd ex ey ed
    landmarks.txt        MP id X Y Z | ML id sx sy sz ex ey ez
    parallel_groups.txt  PG gid id...
    stats.csv            (optional, via write_stats_csv)
    graph.txt            (optional, via write_graph)
                         VERTEX_POSE id tx ty tz qx qy qz qw | FIX id
                         VERTEX_POINT id X Y Z | VERTEX_LINE id nx ny nz dx dy dz
                         EDGE_POINT frame point px py | EDGE_LINE frame line sx sy ex ey

Every file but ``parallel_groups.txt`` and ``stats.csv`` is written by
one formatter, ``_records`` (``%d`` for ids and image sizes, ``%r`` for
values): ``calib.txt`` and ``groundtruth.txt`` as untagged lines, and the
frame, landmark and graph columns as tagged ones.
Frame files map row for row onto the arrays of ``simulator.FrameData``.
``read_sequence`` is where a read frame row is checked, once: its checks
are ``simulator._row_faults``, the checks and texts of
``Sequence.validate``, grouped by file where ``validate`` groups them by
frame. The ``FrameData`` built from the checked rows only casts them.
``landmarks.txt`` maps row for row onto the columns of the ground-truth
records, ``MP`` lines onto ``geometry.Points`` (id, position) and ``ML``
lines onto ``geometry.Segments`` (id, endpoints, start then end), in
ascending id as the records hold them. ``groundtruth.txt`` and the
``VERTEX_POSE`` lines of a graph file each map row for row onto a
``geometry.Trajectory``, frame i in its record i: in both, pose ids count
up from 0 in file order.

Readers are total: malformed input of any kind raises ParseError naming
the file and line, never an unhandled exception. The record files (the
tagged frame files, ``landmarks.txt`` and graph files, and the untagged
``groundtruth.txt``) share one error contract, and are read in two phases
(``_read_records``). The first parses each file for syntax only: the tag,
the field count, int64 ids >= 0 and finite values. numpy's C reader
(``np.loadtxt``) parses the clean files; every other file, and the text
of every syntax error, goes through the record-by-record parse, so which
of the two read a file never shows in the result. The second checks every
row read once, as columns: repeated, unknown and, for poses, out-of-order
ids and the values. The error names the first bad file, in frame order
for a sequence's frame files, then the first bad line in it, then on that
line a syntax fault before the first failing check.
"""
from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .factor_graph import FactorGraph, Factors, Lines, _factor_weight, _plucker_violations
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    Points,
    Segments,
    Trajectory,
    normalizable,
    row_norms,
)
from .simulator import FrameData, Sequence, _first_fault, _repeats, _row_faults


class ParseError(ValueError):
    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _iter_records(path):
    """Yield (lineno, tokens) for every non-comment, non-blank line.

    The file is decoded permissively; byte garbage becomes replacement
    characters that fail token parsing with a clean ParseError.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(path, None, f"cannot read: {exc}") from exc
    text = data.decode("utf-8", errors="replace")
    del data  # only the lines stay alive while the caller parses them
    lines = text.splitlines()
    del text
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if tokens:
            yield lineno, tokens


def _parse_float(tok: str, path, lineno, what: str) -> float:
    try:
        v = float(tok)
    except ValueError as exc:
        raise ParseError(path, lineno, f"bad {what}: {tok!r}") from exc
    if not math.isfinite(v):
        raise ParseError(path, lineno, f"nonfinite {what}: {tok!r}")
    return v


_INT64_MAX = 2**63 - 1


def _parse_int(tok: str, path, lineno, what: str, minimum: int = 0) -> int:
    try:
        v = int(tok)
    except ValueError as exc:
        raise ParseError(path, lineno, f"bad {what}: {tok!r}") from exc
    if v < minimum:
        raise ParseError(path, lineno, f"{what} must be >= {minimum}: {v}")
    if v > _INT64_MAX:  # ids are held in int64 arrays
        raise ParseError(path, lineno, f"{what} does not fit in int64: {v}")
    return v


def _expect(tokens, n, path, lineno):
    if len(tokens) != n:
        raise ParseError(path, lineno, f"expected {n} fields, got {len(tokens)}")


def _read_records(paths, table) -> list[dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Each of the record files ``paths`` as {tag: (ids (n,
    len(names)) int64, values (n, k))}, once every row of every file passes
    the table's checks.

    ``table`` maps each tag to (names of its ids, value count k, name of a
    value in errors, None or the checks on the rows of every file: a
    function of (file index (n,), ids, values) that gives (failing rows,
    message or row -> message) pairs in the order they apply to a row).
    A table whose one tag is None reads untagged files, in which every
    line that is not a comment is a record.

    The files are read in two phases, and the first fault in (file, line)
    order is raised as a ParseError naming them.
    - Syntax: numpy's C reader parses a clean file (``_load_columns``),
      and every other file goes through the record-by-record parse
      (``_parse_records``), which alone raises a ParseError for a line:
      an unknown tag, a wrong field count, an id that is not an int64
      >= 0, or a value that is not a finite float. No file after the
      first such line is read.
    - Checks: the rows read are checked once, as the columns of all files
      joined, tag by tag. Every row read comes before the syntax fault, so
      the first failing row wins over it, and its line is found again in
      its file.
    """
    files, stop = [], None
    for path in paths:
        columns = _load_columns(path, table)
        if columns is None:
            columns, stop = _parse_records(path, table)
        files.append(columns)
        if stop is not None:
            break
    faults = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tag, (_, _, _, checks) in table.items():
            if checks is None:
                continue
            counts = [len(columns[tag][0]) for columns in files]
            file = np.repeat(np.arange(len(files)), counts)
            ids, values = (np.concatenate([columns[tag][j] for columns in files]) for j in (0, 1))
            fault = _first_fault(checks(file, ids, values))
            if fault is not None:
                row, message = fault
                i = int(file[row])
                row -= sum(counts[:i])
                lineno = [n for n, tok in _iter_records(paths[i]) if tag in (None, tok[0])][row]
                faults.append((i, lineno, message))
    if faults:
        i, lineno, message = min(faults)
        raise ParseError(paths[i], lineno, message)
    if stop is not None:
        raise stop
    return files


def _distinct(what: str, file, ids):
    """The check, for a table of ``_read_records``, that no record's
    first id repeats in its file, as a (failing rows, message) pair."""
    return _repeats(file, ids[:, 0]), lambda r: f"duplicate {what} {ids[r, 0]}"


_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\n"


def _load_columns(path, table):
    """The columns of a clean file, parsed by numpy's C reader, or None
    for any other file.

    A clean file holds printable ASCII lines only, each a comment or a
    record of a tag in ``table`` whose ids are all >= 0 and whose values
    are all finite. Its lines are grouped by their exact text before the
    first space (in an untagged file, every line but a comment is one
    group), each tag's in file order, and each tag's fields go
    through one ``np.loadtxt`` call whose structured dtype takes exactly
    the record's fields, split at single spaces. A call that raises or
    warns refuses the file: numpy below 2 reads ``5.0`` as an int with a
    DeprecationWarning. The values it accepts are those ``float`` gives:
    both go through Python's own string-to-double conversion. So a file
    read here is one the record-by-record parse reads to the same
    columns, and its rows are checked alike.
    """
    try:
        with open(path, "rb") as f:  # a Path's read_bytes costs twice as much
            data = f.read()
    except OSError:
        return None  # the record-by-record parse raises its ParseError
    if data.translate(None, _PRINTABLE):
        return None
    text = data.decode("ascii")
    del data  # the file is held once at a time: bytes, text, lines, fields
    lines = text.splitlines()
    del text
    blocks = {}  # tag -> the fields after it on each of its lines
    for line in lines:
        tag, _, fields = line.partition(" ")
        if None in table and not tag.startswith("#"):
            tag, fields = None, line
        blocks.setdefault(tag, []).append(fields)
    del lines
    if any(tag not in table and not tag.startswith("#") for tag in blocks):
        return None
    columns = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a block of blank fields warns too
        for tag, (names, k, _, _) in table.items():
            block = blocks.pop(tag, [])
            dtype = [("ids", np.int64, (len(names),)), ("values", float, (k,))]
            try:
                rows = np.loadtxt(block, dtype, comments=None, delimiter=" ", ndmin=1) \
                    if block else np.empty(0, dtype)
            except (ValueError, Warning):
                return None
            if len(rows) != len(block):  # a tag alone on its line reads as no row
                return None
            ids, values = rows["ids"].copy(), rows["values"].copy()
            if (ids < 0).any() or not np.isfinite(values).all():
                return None
            columns[tag] = ids, values
    return columns


def _parse_records(path, table):
    """The record-by-record parse of one file: its rows up to the first
    line with a syntax fault as columns (see ``_read_records``), and that
    line's ParseError or None."""
    rows = {tag: ([], []) for tag in table}  # ids, values
    stop = None
    try:
        for lineno, tokens in _iter_records(path):
            tag = None if None in table else tokens[0]
            if tag not in table:
                raise ParseError(path, lineno, f"unknown record tag {tag!r}")
            names, k, what, _ = table[tag]
            first = int(tag is not None)  # the field after the tag
            _expect(tokens, first + len(names) + k, path, lineno)
            ids = [_parse_int(tok, path, lineno, name) for tok, name in zip(tokens[first:], names)]
            values = [_parse_float(tok, path, lineno, what) for tok in tokens[first + len(names):]]
            rows[tag][0].append(ids)
            rows[tag][1].append(values)
    except ParseError as exc:
        stop = exc
    columns = {}
    for tag, (ids, values) in rows.items():
        names, k = table[tag][:2]
        columns[tag] = (np.array(ids, dtype=np.int64).reshape(len(ids), len(names)),
                        np.array(values, dtype=float).reshape(len(values), k))
    return columns, stop


# ---------------------------------------------------------------------------
# trajectories


def write_trajectory(traj: Trajectory, path) -> None:
    """One line per frame: ``frame_id tx ty tz qx qy qz qw`` (T_cw). An
    empty trajectory, which ``read_trajectory`` refuses, is refused before
    anything is written."""
    if not len(traj):
        raise ValueError("cannot write an empty trajectory")
    _atomic_write(path, "# frame_id tx ty tz qx qy qz qw (world-to-camera)\n" + _records(
        None, np.arange(len(traj)), traj.t, traj.q))


# the untagged groundtruth.txt line as the one entry of _read_records' table
_POSE_RECORDS = {None: (("frame_id",), 7, "pose component", lambda file, ids, v: [
    (ids[:, 0] != np.arange(len(ids)), lambda r: f"non-monotonic frame_id: {ids[r, 0]}"),
    (np.abs(row_norms(v[:, 3:]) - 1.0) > 1e-6, "quaternion is not unit norm")])}


def read_trajectory(path) -> Trajectory:
    """The poses of a file ``write_trajectory`` writes, whose frame ids
    count up from 0 and whose quaternions lie within 1e-6 of unit norm,
    read in ``_read_records``' two phases."""
    (columns,) = _read_records([path], _POSE_RECORDS)
    ids, values = columns[None]
    if not len(ids):
        raise ParseError(path, None, "empty trajectory")
    return Trajectory(values[:, 3:], values[:, :3])


# ---------------------------------------------------------------------------
# sequences


def _frame_files_from(frames_dir: Path, first: int) -> list[tuple[int, Path]]:
    """(number, path) of each frame file in ``frames_dir`` numbered
    ``first`` or more, lowest number first: a ``*.txt`` whose stem is ASCII
    digits. With ``first`` the number of poses, these are the files that
    ``read_sequence`` refuses and ``write_sequence`` removes."""
    return sorted((int(p.stem), p) for p in frames_dir.glob("*.txt")
                  if p.stem.isascii() and p.stem.isdigit() and int(p.stem) >= first)


def write_sequence(seq: Sequence, directory) -> None:
    """Write a sequence directory; a sequence without poses, or one that
    ``Sequence.check_frames`` refuses (a frame count other than its pose
    count, or a frame whose ``frame_id`` is not its index), is refused
    before any file is written. Frame files that an earlier, longer
    sequence left past the last frame are removed, so that
    ``read_sequence`` reads the directory back; any other file is left
    alone."""
    if not len(seq.gt_trajectory):
        raise ValueError("cannot write a sequence without poses")
    seq.check_frames()
    directory = Path(directory)
    (directory / "frames").mkdir(parents=True, exist_ok=True)

    intr = seq.intrinsics
    _atomic_write(directory / "calib.txt", "# fx fy cx cy width height\n" + _records(
        None, np.array([[intr.fx, intr.fy, intr.cx, intr.cy]], dtype=float),
        np.array([[intr.width, intr.height]])))
    write_trajectory(seq.gt_trajectory, directory / "groundtruth.txt")

    points, lines = seq.gt_points, seq.gt_lines
    _atomic_write(directory / "landmarks.txt", "".join([
        "# MP id X Y Z | ML id sx sy sz ex ey ez\n",
        _records("MP", points.id, points.position),
        _records("ML", lines.id, lines.endpoints),
    ]))

    pg_lines = ["# PG group_id line_id..."]
    for gid in sorted(seq.parallel_groups):
        ids = seq.parallel_groups[gid]
        pg_lines.append("PG " + str(gid) + " " + " ".join(str(i) for i in ids))
    _atomic_write(directory / "parallel_groups.txt", "\n".join(pg_lines) + "\n")

    for f in seq.frames:
        ends, ends_d = f.line_pixels, f.line_depths
        _atomic_write(directory / "frames" / f"{f.frame_id:06d}.txt", "".join([
            "# P id ux uy d | L id sx sy sd ex ey ed\n",
            _records("P", f.point_ids, f.point_pixels, f.point_depths),
            _records("L", f.line_ids, ends[:, 0], ends_d[:, 0], ends[:, 1], ends_d[:, 1]),
        ]))
    for _, path in _frame_files_from(directory / "frames", len(seq.frames)):
        path.unlink()


def _read_calib(path) -> CameraIntrinsics:
    records = list(_iter_records(path))
    if len(records) != 1:
        raise ParseError(path, None, "calib.txt must hold exactly one record")
    lineno, tokens = records[0]
    _expect(tokens, 6, path, lineno)
    fx = _parse_float(tokens[0], path, lineno, "fx")
    fy = _parse_float(tokens[1], path, lineno, "fy")
    cx = _parse_float(tokens[2], path, lineno, "cx")
    cy = _parse_float(tokens[3], path, lineno, "cy")
    width = _parse_int(tokens[4], path, lineno, "width", minimum=1)
    height = _parse_int(tokens[5], path, lineno, "height", minimum=1)
    try:
        return CameraIntrinsics(fx, fy, cx, cy, width, height)
    except GeometryError as exc:
        raise ParseError(path, lineno, str(exc)) from exc


# frame files read and checked in one ``_read_records`` call: a read holds
# one group's columns beside the frames built so far, about 0.2 MB above
# the sequence on box, where one call over every file holds 1.1 MB more
_FRAME_FILES = 16


def read_sequence(directory, min_line_len: float = 0.0) -> Sequence:
    """Read a sequence directory, making each check of ``validate`` once,
    with the same default ``min_line_len``, so that a written valid
    sequence reads back whatever length its lines were rendered at. The
    frame files are read ``_FRAME_FILES`` at a time, and each group's frames
    are built from its checked rows. There must be one frame file per
    ground-truth pose: a missing one, or one numbered past the last pose,
    raises a ParseError naming it."""
    directory = Path(directory)
    intr = _read_calib(directory / "calib.txt")
    traj = read_trajectory(directory / "groundtruth.txt")

    (landmarks,) = _read_records([directory / "landmarks.txt"], {
        "MP": (("landmark id",), 3, "coordinate",
               lambda file, ids, v: [_distinct("point landmark id", file, ids)]),
        "ML": (("landmark id",), 6, "coordinate", lambda file, ids, v: [
            _distinct("line landmark id", file, ids),
            ((v[:, :3] == v[:, 3:]).all(axis=1), "line endpoints coincide"),
            (~normalizable(v[:, 3:] - v[:, :3]), "line direction cannot be normalized")]),
    })
    (point_ids, positions), (line_ids, endpoints) = landmarks["MP"], landmarks["ML"]
    gt_points = Points(point_ids[:, 0], positions)
    gt_lines = Segments(line_ids[:, 0], endpoints.reshape(-1, 2, 3))

    pg_path = directory / "parallel_groups.txt"
    parallel_groups: dict[int, list[int]] = {}
    if pg_path.exists():
        for lineno, tokens in _iter_records(pg_path):
            if tokens[0] != "PG":
                raise ParseError(pg_path, lineno, f"unknown record tag {tokens[0]!r}")
            if len(tokens) < 3:
                raise ParseError(pg_path, lineno, "PG needs a group id and at least one line id")
            gid = _parse_int(tokens[1], pg_path, lineno, "group id")
            if gid in parallel_groups:
                raise ParseError(pg_path, lineno, f"duplicate group id {gid}")
            ids = [_parse_int(t, pg_path, lineno, "line id") for t in tokens[2:]]
            _, found = gt_lines.find(ids)
            if not found.all():
                raise ParseError(pg_path, lineno, f"dangling line id {ids[int(np.argmin(found))]}")
            parallel_groups[gid] = ids

    frames_dir = directory / "frames"
    if not frames_dir.is_dir():
        raise ParseError(frames_dir, None, "missing frames directory")
    paths = [frames_dir / f"{frame_id:06d}.txt" for frame_id in range(len(traj))]
    present = list(itertools.takewhile(Path.exists, paths))

    def points(v):
        return v[:, :2], v[:, 2]

    def lines(v):
        return v[:, [0, 1, 3, 4]].reshape(-1, 2, 2), v[:, [2, 5]]

    table = {
        "P": (("landmark id",), 3, "measurement value", lambda file, ids, v: _row_faults(
            file, ids[:, 0], *points(v), gt_points.id, intr, min_line_len)),
        "L": (("landmark id",), 6, "measurement value", lambda file, ids, v: _row_faults(
            file, ids[:, 0], *lines(v), gt_lines.id, intr, min_line_len)),
    }
    frames = []
    for start in range(0, len(present), _FRAME_FILES):
        files = _read_records(present[start:start + _FRAME_FILES], table)
        for frame_id, f in enumerate(files, start):
            frames.append(FrameData(frame_id, f["P"][0][:, 0], *points(f["P"][1]),
                                    f["L"][0][:, 0], *lines(f["L"][1])))
        del files  # freed before the next group is read
    if len(present) < len(paths):
        raise ParseError(paths[len(present)], None,
                         f"missing frame file for frame {len(present)}")
    for frame_id, path in _frame_files_from(frames_dir, len(traj))[:1]:
        raise ParseError(path, None, f"no ground-truth pose for frame {frame_id}: "
                                     f"groundtruth.txt holds {len(traj)} poses")

    seq = Sequence(
        intrinsics=intr,
        gt_trajectory=traj,
        frames=frames,
        gt_points=gt_points,
        gt_lines=gt_lines,
        parallel_groups=parallel_groups,
    )
    # the frame records and the loop above checked all but the group directions
    try:
        seq.check_parallel_groups()
    except ValueError as exc:
        raise ParseError(directory, None, str(exc)) from exc
    return seq


# ---------------------------------------------------------------------------
# per-frame statistics


CELL_SIZE = 10  # px, grid anchored at pixel (0, 0); half-open cells


@dataclass(frozen=True)
class FrameStats:
    frame_id: int
    num_points: int
    num_lines: int
    occupied_cells: int

    def __post_init__(self):
        if self.occupied_cells > self.num_points + 2 * self.num_lines:
            raise ValueError("more occupied cells than feature endpoints")


def compute_stats(seq: Sequence) -> list[FrameStats]:
    """Count features and occupied 10x10 px cells per frame.

    Only point positions and line endpoints occupy cells; line interiors
    do not. Cell index is (floor(x/10), floor(y/10)); each cell gets one
    integer code per frame, and the distinct codes are counted.
    """
    out = []
    for f in seq.frames:
        cells = (np.concatenate([f.point_pixels, f.line_pixels.reshape(-1, 2)])
                 // CELL_SIZE).astype(np.int64)
        rows = cells[:, 1].max(initial=0) - cells[:, 1].min(initial=0) + 1
        codes = cells[:, 0] * rows + cells[:, 1]
        out.append(FrameStats(f.frame_id, len(f.point_ids), len(f.line_ids),
                              len(np.unique(codes))))
    return out


def write_stats_csv(stats: list[FrameStats], path) -> None:
    rows = ["frame_id,num_points,num_lines,occupied_cells"]
    for s in stats:
        rows.append(f"{s.frame_id},{s.num_points},{s.num_lines},{s.occupied_cells}")
    _atomic_write(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# factor graphs


def write_graph(graph: FactorGraph, path) -> None:
    """Write vertices, pose i with id i, the gauge and factor
    measurements. Factor weights are not stored; ``read_graph`` rebuilds
    them from ``sigma_s``. A ``FactorGraph`` is checked when it is built,
    so every graph written is one that ``read_graph`` reads back."""
    poses, points, lines = graph.poses, graph.points, graph.lines
    pf, lf = graph.point_factors, graph.line_factors
    _atomic_write(path, "".join([
        "# VERTEX_POSE id tx ty tz qx qy qz qw (world-to-camera)\n"
        "# VERTEX_POINT id X Y Z | VERTEX_LINE id nx ny nz dx dy dz\n"
        "# EDGE_POINT frame point px py | EDGE_LINE frame line sx sy ex ey | FIX id\n",
        _records("VERTEX_POSE", np.arange(len(poses)), poses.t, poses.q),
        _records("VERTEX_POINT", points.id, points.position),
        _records("VERTEX_LINE", lines.id, lines.n, lines.d),
        _records("FIX", graph.fixed),
        _records("EDGE_POINT", pf.frame, pf.landmark, pf.u),
        _records("EDGE_LINE", lf.frame, lf.landmark, lf.u),
    ]))


def _records(tag: str | None, *columns) -> str:
    """One ``tag value...`` line per row of the columns (``value...`` for
    ``tag=None``), formatted by a single ``%`` over their Python values:
    ``%d`` for the values of int columns, ``%r`` for those of float
    columns."""
    n = len(columns[0])
    columns = [c.reshape(n, math.prod(c.shape[1:])) for c in columns]
    fields = ["%d" if c.dtype.kind == "i" else "%r" for c in columns for _ in range(c.shape[1])]
    row = " ".join(([] if tag is None else [tag]) + fields) + "\n"
    table = np.concatenate(columns, axis=1, dtype=object)
    return (row * n) % tuple(table.ravel().tolist())


# graph record tag -> the entry of _read_records' table
_GRAPH_RECORDS = {
    "VERTEX_POSE": _POSE_RECORDS[None],
    "VERTEX_POINT": (("point id",), 3, "coordinate",
                     lambda file, ids, v: [_distinct("point id", file, ids)]),
    "VERTEX_LINE": (("line id",), 6, "coordinate", lambda file, ids, v: [
        _distinct("line id", file, ids),
        (row_norms(v[:, 3:]) == 0.0, "line direction must be nonzero"),
        (_plucker_violations(v[:, :3], v[:, 3:]), "Plucker constraint violated")]),
    "FIX": (("pose id",), 0, None, None),
    "EDGE_POINT": (("frame id", "point id"), 2, "pixel", None),
    "EDGE_LINE": (("frame id", "line id"), 4, "pixel", None),
}


def read_graph(path, intrinsics: CameraIntrinsics, sigma_s: float = 1.0) -> FactorGraph:
    """Graph files carry no calibration and no factor weights; the caller
    supplies the calibration, and every factor gets the weight
    1/sigma_s^2, whatever weights the written graph had; ``sigma_s`` must
    be finite and > 0. The ``VERTEX_POSE`` lines are checked as
    ``read_trajectory`` checks its lines: ids count up from 0, and each
    quaternion lies within 1e-6 of unit norm. The records that pass their
    checks are built into a ``FactorGraph``, and any refusal of its
    construction (the gauge, a dangling reference) is raised as a
    ParseError naming the file."""
    weight = _factor_weight(sigma_s)
    (columns,) = _read_records([path], _GRAPH_RECORDS)
    _, pose = columns["VERTEX_POSE"]
    point_ids, point = columns["VERTEX_POINT"]
    line_ids, line = columns["VERTEX_LINE"]
    point_edges, point_u = columns["EDGE_POINT"]
    line_edges, line_u = columns["EDGE_LINE"]
    try:
        return FactorGraph(
            intrinsics=intrinsics,
            poses=Trajectory(pose[:, 3:], pose[:, :3]),
            fixed=columns["FIX"][0][:, 0],
            points=Points(point_ids[:, 0], point),
            lines=Lines(line_ids[:, 0], line[:, :3], line[:, 3:]),
            point_factors=Factors(*point_edges.T, point_u, np.full(len(point_u), weight)),
            line_factors=Factors(*line_edges.T, line_u.reshape(-1, 2, 2),
                                 np.full(len(line_u), weight)),
        )
    except ValueError as exc:
        raise ParseError(path, None, str(exc)) from exc
