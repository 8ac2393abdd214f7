"""Workloads of the plbench benchmark, their inputs and their output checks.

Every workload is a closed loop in one process and one thread: the next
sequence unit starts when the previous one has returned. A run repeats
whole rounds, one unit per preset, so each round carries the same mix of
sphere, box and corridor work.

Seeds. ``offset`` (the ``--seed`` argument) is added to each preset's own
``scene.seed``; offset 0 keeps the shipped seeds (sphere 11, box 7,
corridor 13). ``HELD_OUT_OFFSET`` names one held-out seed per preset
(sphere 1011, box 1007, corridor 1013), kept back for confirming a claim
on inputs that were not used while the change was written.

Checks. A unit whose outputs are wrong raises ``CheckError``, which fails
the run. Typed tracking and geometry errors (``FAILURES``) are failures of
one sequence, not of the run: the caller counts them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from plbench import factor_graph, simulator, tracking
from plbench.dataset_io import (
    compute_stats,
    read_graph,
    read_sequence,
    write_graph,
    write_sequence,
    write_stats_csv,
)
from plbench.evaluation import ate, rpe
from plbench.factor_graph import build_covisibility_graph
from plbench.geometry import GeometryError
from plbench.simulator import build_scene, build_trajectory, generate_sequence, load_preset
from plbench.tracking import (
    DegenerateGeometryError,
    InsufficientDataError,
    SparseMap,
    TrackingLostError,
    track_frame_to_frame,
    track_map_to_frame,
)
from tracing import NullTracer

PRESETS = ("sphere", "box", "corridor")
HELD_OUT_OFFSET = 1000
FAILURES = (TrackingLostError, InsufficientDataError, DegenerateGeometryError, GeometryError)
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckError(Exception):
    """An output of the program is not what it must be."""


# ---------------------------------------------------------------------------
# inputs


def preset_config(preset: str, offset: int, frames: int | None = None):
    """The preset with its scene seed shifted by ``offset``; ``frames``
    shortens the trajectory for smoke-size runs."""
    if offset < 0:
        raise ValueError("the seed offset must be nonnegative")
    cfg = load_preset(preset)
    scene = dataclasses.replace(cfg.scene, seed=cfg.scene.seed + offset)
    traj = cfg.trajectory
    if frames is not None:
        traj = dataclasses.replace(traj, frame_count=frames)
    return dataclasses.replace(cfg, scene=scene, trajectory=traj)


def reference_key(cfg) -> str:
    return f"{cfg.scene.seed}:{cfg.trajectory.frame_count}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# fingerprints


def sequence_digest(seq) -> str:
    """sha256 over every serialized field of a sequence, bit for bit."""
    h = hashlib.sha256()

    def put(tag: str, *values):
        h.update(tag.encode())
        for v in values:
            h.update(np.asarray(v, dtype=float).tobytes())

    intr = seq.intrinsics
    put("K", intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height)
    for T in seq.gt_trajectory:
        put("T", T.q, T.t)
    for f in seq.frames:
        put(f"F{f.frame_id}")
        for pm in f.points:
            put(f"P{pm.landmark_id}", pm.u, pm.d)
        for lm in f.lines:
            put(f"L{lm.landmark_id}", lm.start.u, lm.start.d, lm.end.u, lm.end.d)
    for pid in sorted(seq.gt_points):
        put(f"MP{pid}", seq.gt_points[pid].position)
    for lid in sorted(seq.gt_lines):
        put(f"ML{lid}", seq.gt_lines[lid].endpoints)
    for gid in sorted(seq.parallel_groups):
        put(f"PG{gid}:" + ",".join(map(str, seq.parallel_groups[gid])))
    return h.hexdigest()


def files_fingerprint(directory) -> str:
    """sha256 over the relative names and bytes of every file below."""
    root = Path(directory)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(f"{p.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    for T in traj:
        h.update(np.asarray(T.q, dtype=float).tobytes())
        h.update(np.asarray(T.t, dtype=float).tobytes())
    return h.hexdigest()


def files_size(directory) -> tuple[int, int]:
    files = [p for p in Path(directory).rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def check_finite(traj, what: str) -> None:
    for i, T in enumerate(traj):
        if not (np.all(np.isfinite(T.q)) and np.all(np.isfinite(T.t))):
            raise CheckError(f"{what}: pose {i} is not finite")


def check_files(directory, expected: str, what: str) -> None:
    got = files_fingerprint(directory)
    if got != expected:
        raise CheckError(f"{what}: written files changed (sha256 {got}, expected {expected})")


def check_read_back(seq, directory, min_line_len: float, what: str) -> None:
    """``read_sequence`` must give back the sequence bit for bit."""
    back = read_sequence(directory, min_line_len)
    if sequence_digest(back) != sequence_digest(seq):
        raise CheckError(f"{what}: read_sequence does not reproduce the sequence")


# ---------------------------------------------------------------------------
# tracing hooks


def _count_rendered(tracer, args, obs):
    tracer.count("rendered_points", len(obs.points))
    tracer.count("rendered_lines", len(obs.lines))


def _count_targets(tracer, args, mask):
    tracer.count("occlusion_targets", len(mask))


def _observe_pnp(tracer, args, result):
    tracer.count("pnp_correspondences", len(np.asarray(args[0]).reshape(-1, 3)))
    tracer.sample("pnp_error_px", result.mean_error)


def install_tracing(tracer) -> None:
    """Wrap the library functions each layer's metrics come from, in the
    namespace that calls them. ``tracer.restore()`` undoes it."""
    tracer.wrap(simulator, "render_frame", "simulator.render_frame", _count_rendered)
    tracer.wrap(simulator, "occluded", "simulator.occluded", _count_targets)
    tracer.wrap(simulator, "perturb_pixel", "simulator.perturb_pixel")
    tracer.wrap(simulator, "perturb_depth", "simulator.perturb_depth")
    tracer.wrap(tracking, "solve_pnp", "tracking.solve_pnp", _observe_pnp)
    tracer.wrap(tracking, "backproject", "geometry.backproject")
    tracer.wrap(SparseMap, "fuse_point", "tracking.fuse_point")
    tracer.wrap(SparseMap, "fuse_line", "tracking.fuse_line")
    tracer.wrap(factor_graph, "point_residual", "factor_graph.point_residual")
    tracer.wrap(factor_graph, "line_residual", "factor_graph.line_residual")


# ---------------------------------------------------------------------------
# workloads


def produce(cfg, directory: Path, tracer):
    """The dataset-producer path: scene, trajectory, sequence, then the
    sequence files and their statistics."""
    with tracer.span("simulator.build_scene"):
        scene = build_scene(cfg.scene)
    with tracer.span("simulator.build_trajectory"):
        traj = build_trajectory(cfg.trajectory)
    with tracer.span("simulator.generate_sequence"):
        seq = generate_sequence(scene, traj, cfg.noise, cfg.intrinsics, cfg.render)
    with tracer.span("dataset_io.write_sequence"):
        write_sequence(seq, directory)
    with tracer.span("dataset_io.compute_stats"):
        stats = compute_stats(seq)
    with tracer.span("dataset_io.write_stats_csv"):
        write_stats_csv(stats, directory / "stats.csv")
    return seq


def accuracy(ate_m2f, ate_f2f, rpe_m2f) -> dict[str, float]:
    return {
        "ate_m2f_rmse_m": ate_m2f.translation.rmse,
        "ate_f2f_rmse_m": ate_f2f.translation.rmse,
        "rpe_m2f_trans_rmse_m": rpe_m2f.translation.rmse,
        "rpe_m2f_rot_rmse_deg": rpe_m2f.rotation.rmse,
    }


class Workload:
    """Shared state: configs, working directory, the reference, and the
    first outputs per preset that later units must repeat exactly."""

    name = ""
    presets = PRESETS
    # set-up samples per run; setup_s is their median
    setup_repeats = 3

    def __init__(self, offset: int, workdir: Path, frames: int | None = None):
        self.offset = offset
        self.frames = frames
        self.workdir = Path(workdir)
        self.reference = load_reference()
        self.configs: dict = {}
        self.first: dict[str, dict] = {}
        self.accuracy: dict[str, dict[str, float]] = {}
        self._dirs = 0

    def seeds(self) -> dict[str, int]:
        return {p: cfg.scene.seed for p, cfg in self.configs.items()}

    def fresh_dir(self) -> Path:
        self._dirs += 1
        d = self.workdir / f"{self.name}-{self._dirs}"
        d.mkdir()
        return d

    def load_configs(self) -> None:
        self.configs = {p: preset_config(p, self.offset, self.frames) for p in self.presets}

    def recorded(self, preset: str) -> dict | None:
        return self.reference["sequences"][preset].get(reference_key(self.configs[preset]))

    def check_sequence(self, preset: str, seq, directory: Path) -> None:
        """Validate a produced sequence and its files. The first sequence
        per preset is checked in full; later ones must repeat it."""
        digest = sequence_digest(seq)
        fingerprint = files_fingerprint(directory)
        first = self.first.get(preset)
        if first is not None:
            if digest != first["digest"] or fingerprint != first["files"]:
                raise CheckError(f"{preset}: sequence differs from the run's first one")
            return
        cfg = self.configs[preset]
        seq.validate(cfg.render.min_line_len)
        check_finite(seq.gt_trajectory, f"{preset} ground truth")
        check_read_back(seq, directory, cfg.render.min_line_len, preset)
        ref = self.recorded(preset)
        if ref is not None:
            check_files(directory, ref["files_sha256"], preset)
        self.first[preset] = {"digest": digest, "files": fingerprint, "seq": seq}

    def check_accuracy(self, preset: str, acc: dict[str, float]) -> None:
        """ATE may not exceed the value recorded for these inputs, or the
        ceiling for inputs with no record."""
        ref = self.recorded(preset)
        for key in ("ate_m2f_rmse_m", "ate_f2f_rmse_m"):
            limit = ref[key] if ref is not None else self.reference["ate_ceiling_m"][key]
            if not (acc[key] <= limit * (1.0 + 1e-9)):
                raise CheckError(f"{preset}: {key} = {acc[key]!r} exceeds {limit!r}")
        if preset in self.accuracy and self.accuracy[preset] != acc:
            raise CheckError(f"{preset}: accuracy differs from the run's first sequence")
        self.accuracy[preset] = acc

    def check_setup(self) -> None:
        """Checks on what ``setup`` produced; outside any timing."""

    def finish(self) -> None:
        """Checks that need the whole run; outside any timing."""


class Generate(Workload):
    """Dataset producer: generate and write each preset sequence."""

    name = "generate"
    # a set-up here is mostly imports, about a second: cheap to repeat
    setup_repeats = 7

    def setup(self) -> None:
        self.load_configs()

    def unit(self, preset: str, tracer):
        directory = self.fresh_dir()
        return produce(self.configs[preset], directory, tracer), directory

    def check(self, preset: str, out) -> dict[str, float]:
        seq, directory = out
        self.check_sequence(preset, seq, directory)
        nbytes, nfiles = files_size(directory)
        shutil.rmtree(directory)
        return {
            "kept_points": sum(len(f.points) for f in seq.frames),
            "kept_lines": sum(len(f.lines) for f in seq.frames),
            "empty_frames": len(seq.report.empty_frames),
            "bytes_written": nbytes,
            "files_written": nfiles,
        }

    def finish(self) -> None:
        """Track each generated sequence once, untimed, and hold its ATE
        to the reference: the produced data must stay trackable."""
        for preset in self.presets:
            seq = self.first[preset]["seq"]
            try:
                m2f, _ = track_map_to_frame(seq)
                f2f = track_frame_to_frame(seq)
            except FAILURES:
                continue
            check_finite(m2f, f"{preset} map-to-frame track")
            check_finite(f2f, f"{preset} frame-to-frame track")
            gt = seq.gt_trajectory
            self.check_accuracy(preset, accuracy(ate(m2f, gt), ate(f2f, gt), rpe(m2f, gt)))


class Evaluate(Workload):
    """Stored-dataset user: read each written sequence, track it, build
    and cost its graph, round-trip the graph file, score the tracks."""

    name = "evaluate"

    def __init__(self, offset: int, workdir: Path, frames: int | None = None):
        super().__init__(offset, workdir, frames)
        self.dirs: dict[str, Path] = {}
        self.sequences: dict = {}
        self.graph_dir = self.fresh_dir()

    def setup(self) -> None:
        self.load_configs()
        for d in self.dirs.values():
            shutil.rmtree(d)
        for preset in self.presets:
            self.dirs[preset] = self.fresh_dir()
            self.sequences[preset] = produce(self.configs[preset], self.dirs[preset],
                                             NullTracer())

    def check_setup(self) -> None:
        for preset in self.presets:
            self.check_sequence(preset, self.sequences[preset], self.dirs[preset])

    def unit(self, preset: str, tracer):
        cfg = self.configs[preset]
        with tracer.span("dataset_io.read_sequence"):
            seq = read_sequence(self.dirs[preset], cfg.render.min_line_len)
        with tracer.span("tracking.track_map_to_frame"):
            m2f, smap = track_map_to_frame(seq)
        with tracer.span("tracking.track_frame_to_frame"):
            f2f = track_frame_to_frame(seq)
        with tracer.span("factor_graph.build_covisibility_graph"):
            graph = build_covisibility_graph(seq, m2f, smap, cfg.noise.sigma_s)
        with tracer.span("factor_graph.total_cost"):
            cost = graph.total_cost()
        path = self.graph_dir / f"{preset}.txt"
        with tracer.span("dataset_io.write_graph"):
            write_graph(graph, path)
        with tracer.span("dataset_io.read_graph"):
            graph_back = read_graph(path, seq.intrinsics, cfg.noise.sigma_s)
        gt = seq.gt_trajectory
        with tracer.span("evaluation.ate"):
            ate_m2f = ate(m2f, gt)
            ate_f2f = ate(f2f, gt)
        with tracer.span("evaluation.rpe"):
            rpe_m2f = rpe(m2f, gt)
        return seq, m2f, f2f, smap, graph, cost, graph_back, accuracy(ate_m2f, ate_f2f, rpe_m2f)

    def check(self, preset: str, out) -> dict[str, float]:
        seq, m2f, f2f, smap, graph, cost, graph_back, acc = out
        first = self.first[preset]
        if sequence_digest(seq) != first["digest"]:
            raise CheckError(f"{preset}: read_sequence does not reproduce the sequence")
        check_finite(m2f, f"{preset} map-to-frame track")
        check_finite(f2f, f"{preset} frame-to-frame track")
        tracks = trajectory_digest(m2f) + trajectory_digest(f2f)
        if "tracks" not in first:
            cost_back = graph_back.total_cost()
            if cost_back != cost:
                raise CheckError(f"{preset}: read_graph changes the cost {cost!r} -> {cost_back!r}")
            first["tracks"], first["cost"] = tracks, cost
        elif tracks != first["tracks"] or cost != first["cost"]:
            raise CheckError(f"{preset}: tracks or cost differ from the run's first sequence")
        self.check_accuracy(preset, acc)
        seq_bytes = files_size(self.dirs[preset])[0] - (self.dirs[preset] / "stats.csv").stat().st_size
        graph_bytes = (self.graph_dir / f"{preset}.txt").stat().st_size
        return {
            "map_points": len(smap.points),
            "map_lines": len(smap.lines),
            "point_merges": sum(p.count - 1 for p in smap.points.values()),
            "line_merges": sum(l.count - 1 for l in smap.lines.values()),
            "point_factors": len(graph.point_factors),
            "line_factors": len(graph.line_factors),
            "cost": cost,
            "bytes_written": graph_bytes,
            "files_written": 1,
            "bytes_read": seq_bytes + graph_bytes,
        }


WORKLOADS = {w.name: w for w in (Generate, Evaluate)}

