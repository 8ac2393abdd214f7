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

from .factor_graph import FactorGraph, Factors, LineVertex
from .geometry import (
    CameraIntrinsics,
    GeometryError,
    LineLandmark,
    PointLandmark,
    Pose,
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
    rows = [
        "# VERTEX_POSE id tx ty tz qx qy qz qw (world-to-camera)",
        "# VERTEX_POINT id X Y Z | VERTEX_LINE id nx ny nz dx dy dz",
        "# EDGE_POINT frame point px py | EDGE_LINE frame line sx sy ex ey | FIX id",
    ]
    rows += ["VERTEX_POSE %d %r %r %r %r %r %r %r" % (i, *T.t.tolist(), *T.q.tolist())
             for i, T in sorted(graph.poses.items())]
    rows += ["VERTEX_POINT %d %r %r %r" % (i, *P.tolist()) for i, P in sorted(graph.points.items())]
    rows += ["VERTEX_LINE %d %r %r %r %r %r %r" % (i, *v.n.tolist(), *v.d.tolist())
             for i, v in sorted(graph.lines.items())]
    rows += ["FIX %d" % i for i in sorted(graph.fixed)]
    text = "\n".join(rows) + "\n"
    text += _edge_rows("EDGE_POINT", graph.point_factors)
    text += _edge_rows("EDGE_LINE", graph.line_factors)
    _atomic_write(path, text)


def _edge_rows(tag: str, factors: Factors) -> str:
    """One ``tag frame landmark pixels...`` line per factor, formatted by a
    single ``%`` over the columns' Python values: ``%d`` ids, ``%r`` pixels."""
    n, u = len(factors), factors.u
    table = np.concatenate([factors.frame[:, None], factors.landmark[:, None],
                            u.reshape(n, math.prod(u.shape[1:]))], axis=1, dtype=object)
    row = tag + " %d %d" + " %r" * (table.shape[1] - 2) + "\n"
    return (row * n) % tuple(table.ravel().tolist())


# graph edge tag -> (FactorGraph field, landmark kind, pixel shape per factor)
_EDGES = {"EDGE_POINT": ("point_factors", "point id", (2,)),
          "EDGE_LINE": ("line_factors", "line id", (2, 2))}


def read_graph(path, intrinsics: CameraIntrinsics, sigma_s: float = 1.0) -> FactorGraph:
    """Graph files carry no calibration and no factor weights; the caller
    supplies the calibration, and every factor gets the weight
    1/sigma_s^2, whatever weights the written graph had.

    An edge line is converted with one ``int`` per id and one ``map(float)``
    over its pixels, and passes when its ids fit in int64 and the sum of its
    pixels is finite. Only a line that fails this goes through the checks of
    ``_parse_int`` and ``_parse_float``, which raise its ParseError or, for
    finite pixels whose sum overflows, accept it. The values are packed into
    columns once, after the last line. A file with a pose, a FIX or an edge
    must then pass ``FactorGraph.check``; one with none of them (the empty
    graph) has nothing to check.
    """
    graph = FactorGraph(intrinsics=intrinsics)
    weight = 1.0 / (sigma_s * sigma_s)
    edges = {tag: ([], []) for tag in _EDGES}  # frame and landmark ids, pixel values
    fields = {tag: 3 + math.prod(shape) for tag, (_, _, shape) in _EDGES.items()}
    for lineno, tokens in _iter_records(path):
        tag = tokens[0]
        if tag in _EDGES:
            _expect(tokens, fields[tag], path, lineno)
            try:
                frame, landmark = int(tokens[1]), int(tokens[2])
                pixels = list(map(float, tokens[3:]))
                valid = (0 <= frame <= _INT64_MAX and 0 <= landmark <= _INT64_MAX
                         and math.isfinite(sum(pixels)))
            except ValueError:
                valid = False
            if not valid:
                frame = _parse_int(tokens[1], path, lineno, "frame id")
                landmark = _parse_int(tokens[2], path, lineno, _EDGES[tag][1])
                pixels = [_parse_float(t, path, lineno, "pixel") for t in tokens[3:]]
            ids, values = edges[tag]
            ids += (frame, landmark)
            values += pixels
        elif tag == "VERTEX_POSE":
            _expect(tokens, 9, path, lineno)
            pid = _parse_int(tokens[1], path, lineno, "pose id")
            if pid in graph.poses:
                raise ParseError(path, lineno, f"duplicate pose id {pid}")
            vals = [_parse_float(t, path, lineno, "pose component") for t in tokens[2:]]
            q = np.array(vals[3:])
            if abs(np.linalg.norm(q) - 1.0) > 1e-6:
                raise ParseError(path, lineno, "quaternion is not unit norm")
            graph.poses[pid] = Pose(q, np.array(vals[:3]))
        elif tag == "VERTEX_POINT":
            _expect(tokens, 5, path, lineno)
            pid = _parse_int(tokens[1], path, lineno, "point id")
            if pid in graph.points:
                raise ParseError(path, lineno, f"duplicate point id {pid}")
            vals = [_parse_float(t, path, lineno, "coordinate") for t in tokens[2:]]
            graph.points[pid] = np.array(vals)
        elif tag == "VERTEX_LINE":
            _expect(tokens, 8, path, lineno)
            lid = _parse_int(tokens[1], path, lineno, "line id")
            if lid in graph.lines:
                raise ParseError(path, lineno, f"duplicate line id {lid}")
            vals = [_parse_float(t, path, lineno, "coordinate") for t in tokens[2:]]
            n, d = np.array(vals[:3]), np.array(vals[3:])
            if np.linalg.norm(d) == 0.0:
                raise ParseError(path, lineno, "line direction must be nonzero")
            try:
                graph.lines[lid] = LineVertex(n, d)
            except ValueError as exc:
                raise ParseError(path, lineno, "Plucker constraint violated") from exc
        elif tag == "FIX":
            _expect(tokens, 2, path, lineno)
            graph.fixed.add(_parse_int(tokens[1], path, lineno, "pose id"))
        else:
            raise ParseError(path, lineno, f"unknown record tag {tag!r}")
    for tag, (ids, values) in edges.items():
        name, _, shape = _EDGES[tag]
        u = np.array(values, dtype=float).reshape(-1, *shape)
        setattr(graph, name, Factors(ids[0::2], ids[1::2], u, np.full(len(u), weight)))
    if graph.poses or graph.fixed or len(graph.point_factors) or len(graph.line_factors):
        try:
            graph.check()
        except ValueError as exc:
            raise ParseError(path, None, str(exc)) from exc
    return graph
