"""Run one workload of the plbench benchmark and print its metrics.

    python3 bench/run.py --workload generate|evaluate [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
The run sets up, runs one warm-up unit that is not timed, then repeats
whole rounds (one sequence unit per preset) until the timed units add up
to ``--seconds``, checking every unit's outputs. More set-ups run
between rounds; ``setup_s`` reports their median, each timed with the
imports of a fresh interpreter.
It prints a table of metrics (name, value, unit, better direction) and,
as its last line, one JSON object. ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, in reference seconds: wall time scaled by a
machine-speed probe that runs inside every timed window (``probe.py``).
``--trace 1`` reports the per-layer metrics: it runs every unit untraced
and traced, without the probe, takes the layers from the traced runs and
the tracing overhead from the difference of their wall times. Reports and
spans go to ``bench/out/``. A failed output check exits with status 1.
"""
import os
import sys
import time

_START = time.perf_counter()
if __name__ == "__main__":
    # before numpy loads: one BLAS thread, so timings do not depend on
    # how many threads OpenBLAS starts on a shared machine
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    import plbench  # noqa: E402
except ModuleNotFoundError:
    sys.exit(f"bench: cannot import plbench from {ROOT / 'src'}")
if Path(plbench.__file__).resolve().parent != (ROOT / "src" / "plbench").resolve():
    sys.exit(f"bench: plbench was imported from {plbench.__file__}, not from src/")

from plbench.tracking import TrackingLostError  # noqa: E402
from probe import NullProbe, SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import FAILURES, WORKLOADS, CheckError, install_tracing  # noqa: E402

IMPORT_S = time.perf_counter() - _START

# The import part of a set-up sample, run in a fresh interpreter: it times
# its imports and then samples the probe on its own core, and prints the
# import time in reference seconds.
IMPORT_SAMPLES = 20
IMPORT_SCRIPT = f"""
import sys, time
t0 = time.perf_counter()
import numpy, scipy.spatial, plbench.simulator, plbench.tracking
import plbench.factor_graph, plbench.dataset_io, plbench.evaluation
wall = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
from probe import reference_seconds
print(reference_seconds(wall, {IMPORT_SAMPLES}))
"""
WARMUP_PRESET = "corridor"  # the cheapest unit
TAIL_BEYOND = 10
OUT = BENCH / "out"


def tail(units) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest nearest-rank
    percentile of the unit times (reference seconds) with at least
    TAIL_BEYOND samples above it. Below 2 * TAIL_BEYOND samples no
    percentile above the median can be estimated, and the median
    (``typical``) stands in."""
    xs = sorted(u.ref_s for u in units)
    rank = len(xs) - TAIL_BEYOND
    if rank < len(xs) / 2:
        return typical(units), 50.0, len(xs) // 2
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seeds: dict[str, int]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seeds": seeds,
    }


@dataclass
class Unit:
    """One timed sequence unit and what the run learnt from it.
    ``ref_s`` is its time in reference seconds; without the probe (the
    traced run) it equals ``wall_s``."""

    preset: str
    wall_s: float
    ref_s: float
    traced: bool
    seq_id: int
    values: dict = field(default_factory=dict)
    failure: dict | None = None


def run_unit(wl, preset: str, tracer, probe) -> Unit:
    seq_id = tracer.begin_sequence()
    failure = out = None
    try:
        with probe.window() as w, tracer.span("sequence"):
            out = wl.unit(preset, tracer)
    except FAILURES as exc:
        failure = {"preset": preset, "error": type(exc).__name__, "message": str(exc),
                   "frame_id": getattr(exc, "frame_id", None)}
        if isinstance(exc, TrackingLostError):
            tracer.count("lost_frames")
    finally:
        tracer.end_sequence()
    unit = Unit(preset, w.wall_s, w.ref_s, tracer.enabled, seq_id, failure=failure)
    if failure is None:
        unit.values = wl.check(preset, out)
    return unit


def run_traced(wl, preset: str, tracer) -> Unit:
    try:
        install_tracing(tracer)
        return run_unit(wl, preset, tracer, NullProbe())
    finally:
        tracer.restore()


def run_rounds(wl, seconds: float, tracer, setups: list[float], probe) -> list[Unit]:
    """Whole rounds, one unit per preset, until the timed units add up to
    ``seconds`` and at least two rounds (one traced round) have run. The
    set-ups not yet done run between rounds.

    With a tracer each unit runs twice, untraced and traced, in an order
    that alternates, so the tracing overhead comes from adjacent pairs;
    neither runs the probe, so both are plain wall times."""
    units: list[Unit] = []
    null = NullTracer()
    min_rounds = 2 if tracer is None else 1  # a traced round runs each unit twice
    rounds = 0
    while True:
        for i, preset in enumerate(wl.presets):
            if tracer is None:
                units.append(run_unit(wl, preset, null, probe))
            elif (rounds + i) % 2 == 0:
                units += [run_unit(wl, preset, null, probe), run_traced(wl, preset, tracer)]
            else:
                units += [run_traced(wl, preset, tracer), run_unit(wl, preset, null, probe)]
        rounds += 1
        done = rounds >= min_rounds and sum(u.wall_s for u in units) >= seconds
        if len(setups) < wl.setup_repeats:
            setup(wl, setups, probe)
        if done:
            while len(setups) < wl.setup_repeats:
                setup(wl, setups, probe)
            return units


def import_seconds() -> float:
    """Import time of numpy, scipy and plbench in a fresh interpreter, in
    reference seconds: the import part of one set-up sample. This process
    imports only once, so repeated samples need fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, str(BENCH)], env=env,
                         check=True, capture_output=True, text=True)
    return float(out.stdout)


def setup(wl, setups: list[float], probe) -> None:
    """One set-up sample in reference seconds: the imports, then the
    workload's own set-up in this process, sampled on the timer."""
    imports = import_seconds()
    with probe.window() as own:
        wl.setup()
    setups.append(imports + own.ref_s)
    wl.check_setup()


def typical(units, attr: str = "ref_s") -> float:
    """Median unit time per preset, averaged over the presets: a median
    over the pooled units would jump between the fast corridor units and
    the slower sphere and box ones."""
    times: dict[str, list[float]] = {}
    for u in units:
        times.setdefault(u.preset, []).append(getattr(u, attr))
    return statistics.fmean(statistics.median(t) for t in times.values())


def end_to_end(units, setup_s, frames_per_unit) -> tuple[dict, dict]:
    ok = [u for u in units if u.failure is None]
    value, pct, beyond = tail(ok)
    metrics = {
        "setup_s": setup_s,
        "seq_time_s_p50": typical(ok),
        "seq_time_s_tail": value,
        "frames_per_s": sum(frames_per_unit[u.preset] for u in ok) / sum(u.ref_s for u in units),
        "peak_rss_mb": peak_rss_mb(),
        "completed_ratio": len(ok) / len(units),
    }
    notes = {"seq_time_s_tail": {"percentile": pct, "samples": len(ok), "beyond": beyond},
             "seq_wall_s_p50": typical(ok, "wall_s")}
    return metrics, notes


def per_layer(wl, units, tracer) -> dict:
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced and u.failure is None]
    ok = [u for u in traced if u.failure is None]
    n = max(len(traced), 1)
    selfs = tracer.self_times()

    def span(name):
        """(self time per sequence, calls per sequence)."""
        t = c = 0.0
        for u in traced:
            got = selfs.get(u.seq_id, {}).get(name)
            if got:
                t += got[0]
                c += got[1]
        return t / n, c / n

    def count(name):
        return sum(tracer.counts.get(u.seq_id, {}).get(name, 0.0) for u in traced) / n

    def value(name):
        return sum(u.values.get(name, 0.0) for u in ok) / max(len(ok), 1)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    errors = [e for u in traced for e in tracer.samples.get(u.seq_id, {}).get("pnp_error_px", [])]
    pixel_s, pixel_calls = span("simulator.perturb_pixel")
    depth_s, depth_calls = span("simulator.perturb_depth")
    fuse_point_s, fuse_point_calls = span("tracking.fuse_point")
    fuse_line_s, fuse_line_calls = span("tracking.fuse_line")
    kept = value("kept_points") + value("kept_lines")
    rendered = count("rendered_points") + count("rendered_lines")
    traced_p50 = typical(ok, "wall_s") if ok else 0.0
    plain_p50 = typical(plain, "wall_s") if plain else 0.0
    acc = {k: statistics.fmean(a[k] for a in wl.accuracy.values()) if wl.accuracy else 0.0
           for k in ("ate_m2f_rmse_m", "ate_f2f_rmse_m",
                     "rpe_m2f_trans_rmse_m", "rpe_m2f_rot_rmse_deg")}
    return {
        "simulator.generate_sequence_s": span("simulator.generate_sequence")[0],
        "simulator.render_frame_s": span("simulator.render_frame")[0],
        "simulator.occluded_s": span("simulator.occluded")[0],
        "simulator.occluded_calls": span("simulator.occluded")[1],
        "simulator.occlusion_targets": count("occlusion_targets"),
        "simulator.noise_s": pixel_s + depth_s,
        "simulator.noise_draws": 2 * pixel_calls + depth_calls,
        "simulator.rendered_points": count("rendered_points"),
        "simulator.rendered_lines": count("rendered_lines"),
        "simulator.kept_ratio": ratio(kept, rendered),
        "simulator.empty_frames": value("empty_frames"),
        "geometry.backproject_s": span("geometry.backproject")[0],
        "geometry.backproject_calls": span("geometry.backproject")[1],
        "tracking.track_map_to_frame_s": span("tracking.track_map_to_frame")[0],
        "tracking.track_frame_to_frame_s": span("tracking.track_frame_to_frame")[0],
        "tracking.solve_pnp_s": span("tracking.solve_pnp")[0],
        "tracking.solve_pnp_calls": span("tracking.solve_pnp")[1],
        "tracking.pnp_correspondences": count("pnp_correspondences"),
        "tracking.pnp_error_px_p50": statistics.median(errors) if errors else 0.0,
        "tracking.pnp_error_px_max": max(errors, default=0.0),
        "tracking.fuse_point_s": fuse_point_s,
        "tracking.fuse_line_s": fuse_line_s,
        "tracking.fuse_point_calls": fuse_point_calls,
        "tracking.fuse_line_calls": fuse_line_calls,
        "tracking.point_fuse_accept_ratio": ratio(
            value("point_merges"), fuse_point_calls - value("map_points")),
        "tracking.line_fuse_accept_ratio": ratio(
            value("line_merges"), fuse_line_calls - value("map_lines")),
        "tracking.map_points": value("map_points"),
        "tracking.map_lines": value("map_lines"),
        "tracking.lost_frames": count("lost_frames"),
        "factor_graph.build_s": span("factor_graph.build_covisibility_graph")[0],
        "factor_graph.total_cost_s": span("factor_graph.total_cost")[0],
        "factor_graph.point_residual_s": span("factor_graph.point_residual")[0],
        "factor_graph.line_residual_s": span("factor_graph.line_residual")[0],
        "factor_graph.point_factors": value("point_factors"),
        "factor_graph.line_factors": value("line_factors"),
        "factor_graph.cost": value("cost"),
        "dataset_io.write_sequence_s": span("dataset_io.write_sequence")[0],
        "dataset_io.bytes_written": value("bytes_written"),
        "dataset_io.files_written": value("files_written"),
        "dataset_io.read_sequence_s": span("dataset_io.read_sequence")[0],
        "dataset_io.bytes_read": value("bytes_read"),
        "dataset_io.write_graph_s": span("dataset_io.write_graph")[0],
        "dataset_io.read_graph_s": span("dataset_io.read_graph")[0],
        "evaluation.ate_s": span("evaluation.ate")[0],
        "evaluation.rpe_s": span("evaluation.rpe")[0],
        **acc,
        "trace.overhead_s": traced_p50 - plain_p50,
        "trace.overhead_ratio": ratio(traced_p50 - plain_p50, plain_p50),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="added to each preset's scene.seed; 0 keeps the shipped seeds")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None, frames: int | None = None) -> int:
    """``frames`` shortens every preset trajectory (smoke-size runs)."""
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[section]}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tracer = Tracer() if args.trace else None
    probe = NullProbe() if args.trace else SpeedProbe()
    attempted = failed = 0
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, frames)
        setups: list[float] = []
        setup(wl, setups, probe)
        run_unit(wl, WARMUP_PRESET, NullTracer(), probe)
        units = run_rounds(wl, args.seconds, tracer, setups, probe)
        attempted = len(units)
        failed = sum(u.failure is not None for u in units)
        wl.finish()
        if args.trace:
            metrics, notes = per_layer(wl, units, tracer), {}
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        else:
            frames_per_unit = {p: c.trajectory.frame_count for p, c in wl.configs.items()}
            metrics, notes = end_to_end(units, statistics.median(setups), frames_per_unit)
    except CheckError as exc:
        print(f"bench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    env = environment(wl.seeds())
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "import_s": IMPORT_S,
        "setup_samples_s": setups, "notes": notes,
        "units": [{"preset": u.preset, "wall_s": u.wall_s, "ref_s": u.ref_s,
                   "traced": u.traced, "failure": u.failure} for u in units],
        "metrics": {k: {"value": v, "unit": declared[k]["unit"],
                        "better": declared[k]["better"]} for k, v in metrics.items()},
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"# plbench {args.workload}: seed {args.seed} {env['seeds']}, "
          f"{args.seconds:g} s, trace {args.trace}, {attempted} sequences, {failed} failed")
    print(f"# environment: {json.dumps({k: v for k, v in env.items() if k != 'seeds'})}")
    for f in (u.failure for u in units if u.failure):
        print(f"# failed: {f['preset']} {f['error']} at frame {f['frame_id']}: {f['message']}")
    width = max(map(len, metrics))
    for name, m in declared.items():
        print(f"{name:<{width}}  {metrics[name]:>14.6g}  {m['unit']:<6}  {m['better']}")
    if notes:
        note = notes["seq_time_s_tail"]
        print(f"# seq_time_s_tail: p{note['percentile']:.1f} of {note['samples']} sequences, "
              f"{note['beyond']} beyond")
        print(f"# seq_wall_s_p50 (wall seconds, not scaled by the probe): "
              f"{notes['seq_wall_s_p50']:.6g}")
    print(f"# report: {os.path.relpath(report_path)}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": m["unit"]} for k, m in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
