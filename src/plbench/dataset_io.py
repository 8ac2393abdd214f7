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
``write_sequence`` formats each frame's arrays with ``%r`` over
``.tolist()``, and ``read_sequence`` parses each frame file into those
arrays in one pass.

Readers are total: malformed input of any kind raises ParseError naming
the file and line, never an unhandled exception. For a frame file the
error names the first bad line, and on that line the first failing
check, as a record-by-record parse would.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .factor_graph import FactorGraph, Factors, Lines, Points, Poses, _plucker_violations
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    LineLandmark,
    PointLandmark,
    Pose,
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
    lines = data.decode("utf-8", errors="replace").splitlines()
    del data  # only the lines stay alive while the caller parses them
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
        if abs(np.linalg.norm(q) - 1.0) > 1e-6:
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

    lm_lines = ["# MP id X Y Z | ML id sx sy sz ex ey ez"]
    for pid in sorted(seq.gt_points):
        p = seq.gt_points[pid]
        lm_lines.append("MP " + str(pid) + " " + " ".join(_fmt(v) for v in p.position))
    for lid in sorted(seq.gt_lines):
        l = seq.gt_lines[lid]
        lm_lines.append(
            "ML "
            + str(lid)
            + " "
            + " ".join(_fmt(v) for v in (*l.endpoints[0], *l.endpoints[1]))
        )
    _atomic_write(directory / "landmarks.txt", "\n".join(lm_lines) + "\n")

    pg_lines = ["# PG group_id line_id..."]
    for gid in sorted(seq.parallel_groups):
        ids = seq.parallel_groups[gid]
        pg_lines.append("PG " + str(gid) + " " + " ".join(str(i) for i in ids))
    _atomic_write(directory / "parallel_groups.txt", "\n".join(pg_lines) + "\n")

    for f in seq.frames:
        points = np.column_stack([f.point_pixels, f.point_depths]).tolist()
        ends, ends_d = f.line_pixels, f.line_depths
        lines = np.column_stack([ends[:, 0], ends_d[:, 0], ends[:, 1], ends_d[:, 1]]).tolist()
        rows = ["# P id ux uy d | L id sx sy sd ex ey ed"]
        rows += ["P %d %r %r %r" % (i, *v) for i, v in zip(f.point_ids.tolist(), points)]
        rows += ["L %d %r %r %r %r %r %r" % (i, *v) for i, v in zip(f.line_ids.tolist(), lines)]
        _atomic_write(directory / "frames" / f"{f.frame_id:06d}.txt", "\n".join(rows) + "\n")


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


# frame record tag -> (fields per record, landmark kind)
_FRAME_RECORDS = {"P": (5, "point"), "L": (8, "line")}


def _floats(tokens) -> np.ndarray:
    """``float`` of every token, NaN for a token that is not a number."""
    try:
        return np.array(list(map(float, tokens)), dtype=float)
    except ValueError:
        values = np.empty(len(tokens))
        for i, tok in enumerate(tokens):
            try:
                values[i] = float(tok)
            except ValueError:
                values[i] = np.nan
        return values


def _value_fault(values, tokens, k: int):
    """The number check of ``_parse_float`` on rows of k values: (failing
    rows, message naming the row's first bad or nonfinite token)."""
    bad = ~np.isfinite(values).reshape(-1, k)

    def message(row):
        tok = tokens[row * k + int(np.argmax(bad[row]))]
        try:
            float(tok)
        except ValueError:
            return f"bad measurement value: {tok!r}"
        return f"nonfinite measurement value: {tok!r}"

    return bad.any(axis=1), message


def _read_frame(fpath, frame_id, intr, gt_points, gt_lines, min_line_len) -> FrameData:
    """Parse one frame file into the arrays of a ``FrameData``.

    Tags, field counts, landmark ids (known, not repeated in the frame)
    are checked line by line up to the first malformed line; the values
    of the lines before it are then checked as arrays. The ParseError
    names the first bad line and its first failing check, in the order
    of a record-by-record parse.
    """
    known = {"P": gt_points, "L": gt_lines}
    records = {tag: ([], [], []) for tag in _FRAME_RECORDS}  # linenos, ids, value tokens
    seen = {tag: set() for tag in _FRAME_RECORDS}
    malformed = None
    try:
        for lineno, tokens in _iter_records(fpath):
            tag = tokens[0]
            if tag not in _FRAME_RECORDS:
                raise ParseError(fpath, lineno, f"unknown record tag {tag!r}")
            fields, kind = _FRAME_RECORDS[tag]
            _expect(tokens, fields, fpath, lineno)
            lid = _parse_int(tokens[1], fpath, lineno, "landmark id")
            if lid not in known[tag]:
                raise ParseError(fpath, lineno, f"dangling landmark_id {lid}")
            if lid in seen[tag]:
                raise ParseError(fpath, lineno, f"{kind} landmark_id {lid} repeats in the frame")
            seen[tag].add(lid)
            linenos, ids, values = records[tag]
            linenos.append(lineno)
            ids.append(lid)
            values += tokens[2:]
    except ParseError as exc:
        malformed = exc

    arrays, faults = {}, []
    for tag, (linenos, ids, tokens) in records.items():
        k = _FRAME_RECORDS[tag][0] - 2
        values = _floats(tokens).reshape(-1, k)
        if tag == "P":
            pixels, depths = values[:, :2], values[:, 2]
            checks = _point_faults(pixels, depths)
            checks.append((~intr.contains(pixels), "pixel outside the image"))
        else:
            pixels = values[:, [0, 1, 3, 4]].reshape(-1, 2, 2)
            depths = values[:, [2, 5]]
            checks = _line_faults(pixels, depths)
            with np.errstate(invalid="ignore", over="ignore"):
                short = row_norms(pixels[:, 1] - pixels[:, 0]) < min_line_len
            checks += [(~intr.contains(pixels).all(axis=1), "endpoint pixel outside the image"),
                       (short, f"line shorter than min_line_len={min_line_len}")]
        fault = _first_fault([_value_fault(values, tokens, k)] + checks)
        if fault is not None:
            faults.append(ParseError(fpath, linenos[fault[0]], fault[1]))
        arrays[tag] = (ids, pixels, depths)
    if faults:
        raise min(faults, key=lambda exc: exc.line)
    if malformed is not None:
        raise malformed
    return FrameData(frame_id, *arrays["P"], *arrays["L"])


def read_sequence(directory, min_line_len: float = 15.0) -> Sequence:
    """Read a sequence directory, making each check of ``validate`` once."""
    directory = Path(directory)
    intr = _read_calib(directory / "calib.txt")
    traj = read_trajectory(directory / "groundtruth.txt")

    lm_path = directory / "landmarks.txt"
    gt_points: dict[int, PointLandmark] = {}
    gt_lines: dict[int, LineLandmark] = {}
    for lineno, tokens in _iter_records(lm_path):
        tag = tokens[0]
        if tag == "MP":
            _expect(tokens, 5, lm_path, lineno)
            pid = _parse_int(tokens[1], lm_path, lineno, "landmark id")
            if pid in gt_points:
                raise ParseError(lm_path, lineno, f"duplicate point landmark id {pid}")
            vals = [_parse_float(t, lm_path, lineno, "coordinate") for t in tokens[2:]]
            try:
                gt_points[pid] = PointLandmark(pid, np.array(vals))
            except GeometryError as exc:
                raise ParseError(lm_path, lineno, str(exc)) from exc
        elif tag == "ML":
            _expect(tokens, 8, lm_path, lineno)
            lid = _parse_int(tokens[1], lm_path, lineno, "landmark id")
            if lid in gt_lines:
                raise ParseError(lm_path, lineno, f"duplicate line landmark id {lid}")
            vals = [_parse_float(t, lm_path, lineno, "coordinate") for t in tokens[2:]]
            try:
                gt_lines[lid] = LineLandmark(lid, np.array(vals).reshape(2, 3))
            except GeometryError as exc:
                raise ParseError(lm_path, lineno, str(exc)) from exc
        else:
            raise ParseError(lm_path, lineno, f"unknown record tag {tag!r}")

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
            for lid in ids:
                if lid not in gt_lines:
                    raise ParseError(pg_path, lineno, f"dangling line id {lid}")
            parallel_groups[gid] = ids

    frames_dir = directory / "frames"
    if not frames_dir.is_dir():
        raise ParseError(frames_dir, None, "missing frames directory")
    frames: list[FrameData] = []
    for frame_id in range(len(traj)):
        fpath = frames_dir / f"{frame_id:06d}.txt"
        if not fpath.exists():
            raise ParseError(fpath, None, f"missing frame file for frame {frame_id}")
        frames.append(_read_frame(fpath, frame_id, intr, gt_points, gt_lines, min_line_len))

    seq = Sequence(
        intrinsics=intr,
        gt_trajectory=traj,
        frames=frames,
        gt_points=gt_points,
        gt_lines=gt_lines,
        parallel_groups=parallel_groups,
    )
    # _read_frame checked the frames and the loop above the group ids
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
        _records("VERTEX_POINT", points.id, points.xyz),
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


# graph record tag -> (names of its ids, number of values, name of a value,
# a vertex's checks on its values (n, k) after the repeated id check)
_GRAPH_RECORDS = {
    "VERTEX_POSE": (("pose id",), 7, "pose component", lambda v: [
        (np.abs(row_norms(v[:, 3:]) - 1.0) > 1e-6, "quaternion is not unit norm")]),
    "VERTEX_POINT": (("point id",), 3, "coordinate", lambda v: []),
    "VERTEX_LINE": (("line id",), 6, "coordinate", lambda v: [
        (row_norms(v[:, 3:]) == 0.0, "line direction must be nonzero"),
        (_plucker_violations(v[:, :3], v[:, 3:]), "Plucker constraint violated")]),
    "FIX": (("pose id",), 0, None, None),
    "EDGE_POINT": (("frame id", "point id"), 2, "pixel", None),
    "EDGE_LINE": (("frame id", "line id"), 4, "pixel", None),
}


def read_graph(path, intrinsics: CameraIntrinsics, sigma_s: float = 1.0) -> FactorGraph:
    """Graph files carry no calibration and no factor weights; the caller
    supplies the calibration, and every factor gets the weight
    1/sigma_s^2, whatever weights the written graph had.

    A line is converted with one ``int`` per id and one ``map(float)`` over
    its values, and passes when its ids fit in int64 and the sum of its
    values is finite. Only a line that fails this goes through the checks
    of ``_parse_int``, the repeated vertex id check and ``_parse_float``,
    which raise its ParseError or, for finite values whose sum overflows,
    accept it; reading stops at the first line that raises. The records
    are packed into columns once, and the vertex columns are checked as
    arrays. Of several faults, the first line's is raised, and of a line's
    faults the one a record-by-record parse meets first. A file with a
    pose, a FIX or an edge must then pass ``FactorGraph.check``.
    """
    records = {tag: ([], [], []) for tag in _GRAPH_RECORDS}  # vertex line numbers, ids, values
    errors = []
    try:
        for lineno, tokens in _iter_records(path):
            tag = tokens[0]
            if tag not in records:
                raise ParseError(path, lineno, f"unknown record tag {tag!r}")
            names, k, what, checks = _GRAPH_RECORDS[tag]
            m = 1 + len(names)
            _expect(tokens, m + k, path, lineno)
            linenos, ids, values = records[tag]
            try:  # a record with one id converts it twice
                first, last = int(tokens[1]), int(tokens[m - 1])
                new_values = list(map(float, tokens[m:]))
                valid = (0 <= first <= _INT64_MAX and 0 <= last <= _INT64_MAX
                         and math.isfinite(sum(new_values)))
            except ValueError:
                valid = False
            if not valid:
                new_ids = [_parse_int(t, path, lineno, name)
                           for t, name in zip(tokens[1:m], names)]
                first, last = new_ids[0], new_ids[-1]
                if checks is not None and first in ids[::2]:
                    raise ParseError(path, lineno, f"duplicate {names[0]} {first}")
                new_values = [_parse_float(t, path, lineno, what) for t in tokens[m:]]
            if checks is not None:
                linenos.append(lineno)
            ids += (first, last)
            values += new_values
    except ParseError as exc:
        errors.append(exc)

    columns = {}
    for tag, (linenos, ids, values) in records.items():
        names, k, _, checks = _GRAPH_RECORDS[tag]
        ids = np.array(ids, dtype=np.int64).reshape(-1, 2)[:, :len(names)]
        values = np.array(values, dtype=float).reshape(len(ids), k)
        columns[tag] = ids, values
        if checks is not None:
            repeat = np.ones(len(ids), dtype=bool)
            repeat[np.unique(ids, return_index=True)[1]] = False
            message = lambda row: f"duplicate {names[0]} {ids[row, 0]}"
            fault = _first_fault([(repeat, message)] + checks(values))
            if fault is not None:
                errors.append(ParseError(path, linenos[fault[0]], fault[1]))
    if errors:
        raise min(errors, key=lambda exc: exc.line)

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
