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

Frame files map row for row onto the arrays of ``simulator.FrameData``:
``write_sequence`` formats each frame's arrays, like the landmark and
graph columns, through ``_records`` (``%d`` for ids, ``%r`` for values),
and ``read_sequence`` parses each frame file into those arrays.
``landmarks.txt`` maps row for row onto the columns of the ground-truth
records, ``MP`` lines onto ``geometry.Points`` (id, position) and ``ML``
lines onto ``geometry.Segments`` (id, endpoints, start then end), in
ascending id as the records hold them.

Readers are total: malformed input of any kind raises ParseError naming
the file and line, never an unhandled exception. The tagged record files
(frame files, ``landmarks.txt`` and graph files) share one error
contract: the error names the first bad file, in frame order for a
sequence's frame files, then the first bad line in it, then the first
failing check on that line, as a record-by-record parse would. numpy's C
reader (``np.loadtxt``) parses the clean ones; every other file, and the
text of every error, goes through the record-by-record parse, so which
of the two read a file never shows in the result.
"""
from __future__ import annotations

import itertools
import math
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .factor_graph import FactorGraph, Factors, Lines, Poses, _plucker_violations
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    Points,
    Pose,
    Segments,
    normalizable,
    pose_quat_batch,
    row_norms,
)
from .simulator import FrameData, Sequence, _first_fault, _line_faults, _point_faults


class ParseError(ValueError):
    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


def _fmt(x: float) -> str:
    return repr(float(x))


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


def _parse_record(tokens, path, lineno, spec, seen) -> tuple[list[int], list[float]]:
    """Parse one record of a known tag and field count into its ids and
    values, record by record: raise the ParseError of the first id that is
    not an int64 >= 0, an unknown first id or one in ``seen``, or the
    first value that is not a finite float (see ``_read_records`` for
    ``spec``)."""
    names, _, what, known, repeat, _ = spec
    ids = [_parse_int(tok, path, lineno, name) for tok, name in zip(tokens[1:], names)]
    if known is not None and ids[0] not in known:
        raise ParseError(path, lineno, f"dangling landmark_id {ids[0]}")
    if ids[0] in seen:
        raise ParseError(path, lineno, repeat.format(ids[0]))
    return ids, [_parse_float(tok, path, lineno, what) for tok in tokens[1 + len(names):]]


def _read_records(paths, table) -> Iterator[dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Parse tagged record files in the order of ``paths``, and yield each
    file's {tag: (ids (n, len(names)) int64, values (n, k))} once it
    passes every check.

    ``table`` maps each tag to (names of its ids, value count k, name of a
    value in errors, the known first ids or None, the message for a first
    id repeated in one file or None, and None or the checks on its values
    (n, k) as (failing rows, message) pairs in the order they apply).

    numpy's C reader parses a clean file (``_load_columns``). Every other
    file goes through the record-by-record parse (``_parse_records``),
    which alone raises a ParseError for a line: an unknown tag, a wrong
    field count, a bad id, an unknown or repeated first id, or a bad or
    nonfinite value. The rows read are then checked as columns, a batch
    of consecutive files at a time (``_check_columns``): ids >= 0, finite
    values, then the table's checks. The first fault in file order is
    raised, with the text of a record-by-record parse: ``_parse_record``
    runs over the faulty row's line, found again in its file, before the
    check's message is raised. A batch's files are yielded once it passes,
    so a caller that keeps only what it builds from each file holds the
    arrays of one batch at a time.
    """
    known = {tag: frozenset(spec[3]) for tag, spec in table.items() if spec[3] is not None}
    batch, rows = [], 0  # the files read since the last check, and their rows
    for i, path in enumerate(paths):
        stop = None
        columns = _load_columns(path, table, known)
        if columns is None:
            columns, stop = _parse_records(path, table)
        batch.append((path, columns))
        rows += sum(len(ids) for ids, _ in columns.values())
        if stop is not None or rows >= _CHECK_ROWS or i == len(paths) - 1:
            _check_columns(batch, table)
            if stop is not None:
                raise stop
            for _, columns in batch:
                yield columns
            batch, rows = [], 0


# rows of consecutive files checked as one batch: few numpy calls per row,
# and a sequence's frame arrays are freed batch by batch as frames are built
_CHECK_ROWS = 4096


_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\n"


def _load_columns(path, table, known):
    """The columns of a clean file, parsed by numpy's C reader, or None
    for any other file.

    A clean file holds printable ASCII lines only, each a comment or a
    record of a tag in ``table`` whose first ids are all in ``known`` and,
    where the table gives a repeat message, distinct. Its lines are grouped
    by their exact text before the first space, each tag's in file order,
    and each tag's fields go through one ``np.loadtxt`` call whose
    structured dtype takes exactly the record's fields, split at single
    spaces. A call that raises or warns refuses the file: numpy below 2
    reads ``5.0`` as an int with a DeprecationWarning. The values it
    accepts are those ``float`` gives: both go through Python's own
    string-to-double conversion.
    """
    try:
        data = Path(path).read_bytes()
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
        blocks.setdefault(tag, []).append(fields)
    del lines
    if any(tag not in table and not tag.startswith("#") for tag in blocks):
        return None
    columns = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a block of blank fields warns too
        for tag, (names, k, _, _, repeat, _) in table.items():
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
            first = ids[:, 0].tolist()
            if tag in known and not known[tag].issuperset(first):
                return None
            if repeat is not None and len(set(first)) < len(first):
                return None
            columns[tag] = ids, values
    return columns


def _parse_records(path, table):
    """The record-by-record parse of one file: its rows up to the first
    bad line as columns (see ``_read_records``), and that line's
    ParseError or None."""
    rows = {tag: ([], [], set()) for tag in table}  # ids, values, first ids seen
    stop = None
    try:
        for lineno, tokens in _iter_records(path):
            if tokens[0] not in table:
                raise ParseError(path, lineno, f"unknown record tag {tokens[0]!r}")
            names, k, _, _, repeat, _ = spec = table[tokens[0]]
            _expect(tokens, 1 + len(names) + k, path, lineno)
            ids, values, seen = rows[tokens[0]]
            record_ids, record_values = _parse_record(tokens, path, lineno, spec, seen)
            if repeat is not None:
                seen.add(record_ids[0])
            ids.append(record_ids)
            values.append(record_values)
    except ParseError as exc:
        stop = exc
    columns = {}
    for tag, (ids, values, _) in rows.items():
        names, k = table[tag][:2]
        columns[tag] = (np.array(ids, dtype=np.int64).reshape(len(ids), len(names)),
                        np.array(values, dtype=float).reshape(len(values), k))
    return columns, stop


def _check_columns(batch, table) -> None:
    """Raise the first fault among the rows of a batch of (path, columns)
    of consecutive files, in file order: ids >= 0, finite values, then the
    table's checks (see ``_read_records``)."""
    faults = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tag, spec in table.items():
            ids = np.concatenate([c[tag][0] for _, c in batch])
            values = np.concatenate([c[tag][1] for _, c in batch])
            checks = spec[5](values) if spec[5] else []
            fault = _first_fault([((ids < 0).any(axis=1), None),
                                  (~np.isfinite(values).all(axis=1), None)] + checks)
            if fault is not None:
                row, message = fault
                i = 0
                while row >= len(batch[i][1][tag][0]):
                    row -= len(batch[i][1][tag][0])
                    i += 1
                lineno, tokens = [r for r in _iter_records(batch[i][0]) if r[1][0] == tag][row]
                faults.append((i, lineno, tokens, spec, message))
    if faults:
        i, lineno, tokens, spec, message = min(faults, key=lambda fault: fault[:2])
        _parse_record(tokens, batch[i][0], lineno, spec, ())
        raise ParseError(batch[i][0], lineno, message)


# ---------------------------------------------------------------------------
# trajectories


def write_trajectory(traj: list[Pose], path) -> None:
    """One line per frame: ``frame_id tx ty tz qx qy qz qw`` (T_cw)."""
    lines = ["# frame_id tx ty tz qx qy qz qw (world-to-camera)"]
    for i, T in enumerate(traj):
        fields = [str(i)] + [_fmt(v) for v in (*T.t, *T.q)]
        lines.append(" ".join(fields))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trajectory(path) -> list[Pose]:
    traj: list[Pose] = []
    expected = 0
    for lineno, tokens in _iter_records(path):
        _expect(tokens, 8, path, lineno)
        frame_id = _parse_int(tokens[0], path, lineno, "frame_id")
        if frame_id != expected:
            raise ParseError(path, lineno, f"non-monotonic frame_id: {frame_id}")
        expected += 1
        vals = [_parse_float(t, path, lineno, "pose component") for t in tokens[1:]]
        q = np.array(vals[3:])
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(q)
        if abs(norm - 1.0) > 1e-6:
            raise ParseError(path, lineno, "quaternion is not unit norm")
        try:
            traj.append(Pose(q, np.array(vals[:3])))
        except GeometryError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
    if not traj:
        raise ParseError(path, None, "empty trajectory")
    return traj


# ---------------------------------------------------------------------------
# sequences


def write_sequence(seq: Sequence, directory) -> None:
    """Write a sequence directory; a frame whose ``frame_id`` is not its
    index is refused before any file is written."""
    seq.check_frame_ids()
    directory = Path(directory)
    (directory / "frames").mkdir(parents=True, exist_ok=True)

    intr = seq.intrinsics
    _atomic_write(
        directory / "calib.txt",
        "# fx fy cx cy width height\n"
        + " ".join(
            [_fmt(intr.fx), _fmt(intr.fy), _fmt(intr.cx), _fmt(intr.cy),
             str(intr.width), str(intr.height)]
        )
        + "\n",
    )
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


def read_sequence(directory, min_line_len: float = 15.0) -> Sequence:
    """Read a sequence directory, making each check of ``validate`` once."""
    directory = Path(directory)
    intr = _read_calib(directory / "calib.txt")
    traj = read_trajectory(directory / "groundtruth.txt")

    (landmarks,) = _read_records([directory / "landmarks.txt"], {
        "MP": (("landmark id",), 3, "coordinate", None, "duplicate point landmark id {}", None),
        "ML": (("landmark id",), 6, "coordinate", None, "duplicate line landmark id {}",
               lambda v: [((v[:, :3] == v[:, 3:]).all(axis=1), "line endpoints coincide"),
                          (~normalizable(v[:, 3:] - v[:, :3]),
                           "line direction cannot be normalized")]),
    })
    gt_points, gt_lines = Points(*landmarks["MP"]), Segments(*landmarks["ML"])

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

    def point_checks(v):
        return _point_faults(*points(v)) + [(~intr.contains(v[:, :2]), "pixel outside the image")]

    def line_checks(v):
        pixels, depths = lines(v)
        return _line_faults(pixels, depths) + [
            (~intr.contains(pixels).all(axis=1), "endpoint pixel outside the image"),
            (row_norms(pixels[:, 1] - pixels[:, 0]) < min_line_len,
             f"line shorter than min_line_len={min_line_len}")]

    records = _read_records(present, {
        "P": (("landmark id",), 3, "measurement value", gt_points.id.tolist(),
              "point landmark_id {} repeats in the frame", point_checks),
        "L": (("landmark id",), 6, "measurement value", gt_lines.id.tolist(),
              "line landmark_id {} repeats in the frame", line_checks),
    })
    # the reader yields the files of one checked batch at a time, and each
    # file's arrays are freed once its frame is built
    frames = [FrameData(frame_id, f["P"][0][:, 0], *points(f["P"][1]),
                        f["L"][0][:, 0], *lines(f["L"][1]))
              for frame_id, f in enumerate(records)]
    if len(present) < len(paths):
        raise ParseError(paths[len(present)], None,
                         f"missing frame file for frame {len(present)}")

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
    """Write vertices, the gauge and factor measurements. Factor weights
    are not stored; ``read_graph`` rebuilds them from ``sigma_s``."""
    poses, points, lines = graph.poses, graph.points, graph.lines
    pf, lf = graph.point_factors, graph.line_factors
    _atomic_write(path, "".join([
        "# VERTEX_POSE id tx ty tz qx qy qz qw (world-to-camera)\n"
        "# VERTEX_POINT id X Y Z | VERTEX_LINE id nx ny nz dx dy dz\n"
        "# EDGE_POINT frame point px py | EDGE_LINE frame line sx sy ex ey | FIX id\n",
        _records("VERTEX_POSE", poses.id, poses.t, poses.q),
        _records("VERTEX_POINT", points.id, points.position),
        _records("VERTEX_LINE", lines.id, lines.n, lines.d),
        _records("FIX", graph.fixed),
        _records("EDGE_POINT", pf.frame, pf.landmark, pf.u),
        _records("EDGE_LINE", lf.frame, lf.landmark, lf.u),
    ]))


def _records(tag: str, *columns) -> str:
    """One ``tag value...`` line per row of the columns, formatted by a
    single ``%`` over their Python values: ``%d`` for the values of int
    columns, ``%r`` for those of float columns."""
    n = len(columns[0])
    columns = [c.reshape(n, math.prod(c.shape[1:])) for c in columns]
    row = tag + "".join((" %d" if c.dtype.kind == "i" else " %r") * c.shape[1]
                        for c in columns) + "\n"
    table = np.concatenate(columns, axis=1, dtype=object)
    return (row * n) % tuple(table.ravel().tolist())


# graph record tag -> the entry of _read_records' table
_GRAPH_RECORDS = {
    "VERTEX_POSE": (("pose id",), 7, "pose component", None, "duplicate pose id {}", lambda v: [
        (np.abs(row_norms(v[:, 3:]) - 1.0) > 1e-6, "quaternion is not unit norm")]),
    "VERTEX_POINT": (("point id",), 3, "coordinate", None, "duplicate point id {}", None),
    "VERTEX_LINE": (("line id",), 6, "coordinate", None, "duplicate line id {}", lambda v: [
        (row_norms(v[:, 3:]) == 0.0, "line direction must be nonzero"),
        (_plucker_violations(v[:, :3], v[:, 3:]), "Plucker constraint violated")]),
    "FIX": (("pose id",), 0, None, None, None, None),
    "EDGE_POINT": (("frame id", "point id"), 2, "pixel", None, None, None),
    "EDGE_LINE": (("frame id", "line id"), 4, "pixel", None, None, None),
}


def read_graph(path, intrinsics: CameraIntrinsics, sigma_s: float = 1.0) -> FactorGraph:
    """Graph files carry no calibration and no factor weights; the caller
    supplies the calibration, and every factor gets the weight
    1/sigma_s^2, whatever weights the written graph had."""
    (columns,) = _read_records([path], _GRAPH_RECORDS)
    weight = 1.0 / (sigma_s * sigma_s)
    pose_ids, pose = columns["VERTEX_POSE"]
    line_ids, line = columns["VERTEX_LINE"]
    point_edges, point_u = columns["EDGE_POINT"]
    line_edges, line_u = columns["EDGE_LINE"]
    graph = FactorGraph(
        intrinsics=intrinsics,
        poses=Poses(pose_ids, pose[:, :3], pose_quat_batch(pose[:, 3:])),
        fixed=columns["FIX"][0][:, 0],
        points=Points(*columns["VERTEX_POINT"]),
        lines=Lines(line_ids, line[:, :3], line[:, 3:]),
        point_factors=Factors(*point_edges.T, point_u, np.full(len(point_u), weight)),
        line_factors=Factors(*line_edges.T, line_u.reshape(-1, 2, 2),
                             np.full(len(line_u), weight)),
    )
    if len(graph.poses) or len(graph.fixed) or len(point_u) or len(line_u):
        try:
            graph.check()
        except ValueError as exc:
            raise ParseError(path, None, str(exc)) from exc
    return graph
