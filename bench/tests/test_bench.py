"""Tests of the benchmark harness itself (inputs, tracing, output, checks)."""
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from plbench import factor_graph, simulator, tracking  # noqa: E402
from probe import PROBE_REF_S, SpeedProbe, Window, reference_seconds  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

# the shortest corridor trajectory that still fits its corner turns
SMOKE_FRAMES = 24


def produce(tmp_path, name, preset="corridor", offset=0):
    cfg = workloads.preset_config(preset, offset, SMOKE_FRAMES)
    directory = tmp_path / name
    return cfg, workloads.produce(cfg, directory, NullTracer()), directory


def test_workload_inputs_are_deterministic_for_a_seed(tmp_path):
    _, a, dir_a = produce(tmp_path, "a", offset=5)
    _, b, dir_b = produce(tmp_path, "b", offset=5)
    _, c, dir_c = produce(tmp_path, "c", offset=6)
    assert workloads.sequence_digest(a) == workloads.sequence_digest(b)
    assert workloads.files_fingerprint(dir_a) == workloads.files_fingerprint(dir_b)
    assert workloads.sequence_digest(a) != workloads.sequence_digest(c)
    assert workloads.files_fingerprint(dir_a) != workloads.files_fingerprint(dir_c)


def test_seed_offset_shifts_each_preset_seed():
    shipped = {p: simulator.load_preset(p).scene.seed for p in workloads.PRESETS}
    for p in workloads.PRESETS:
        assert workloads.preset_config(p, 0).scene.seed == shipped[p]
        assert workloads.preset_config(p, 4).scene.seed == shipped[p] + 4
    with pytest.raises(ValueError):
        workloads.preset_config("box", -1)


def _namespaces():
    return {owner: dict(vars(owner)) for owner in
            (simulator, tracking, factor_graph, tracking.SparseMap)}


class _FailsWhenTraced:
    """Workload stand-in whose unit raises inside the first traced round."""

    presets = ("corridor",)
    setup_repeats = 1

    def unit(self, preset, tracer):
        if tracer.enabled:
            raise RuntimeError("boom")
        return None

    def check(self, preset, out):
        return {}


def test_traced_run_restores_every_wrapped_attribute():
    before = _namespaces()
    tracer = Tracer()
    workloads.install_tracing(tracer)
    wrapped = [(o, a) for o, ns in before.items() for a, v in ns.items() if vars(o)[a] is not v]
    assert len(wrapped) == 10
    tracer.restore()
    after = _namespaces()
    for owner, ns in before.items():
        assert all(after[owner][a] is v for a, v in ns.items())

    # an exception in a traced round still restores the originals
    with pytest.raises(RuntimeError):
        run.run_rounds(_FailsWhenTraced(), 0.0, Tracer(), [0.0],
                       run.NullProbe())
    after = _namespaces()
    for owner, ns in before.items():
        assert all(after[owner][a] is v for a, v in ns.items())


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.begin_sequence()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    tracer.end_sequence()
    times = tracer.self_times()[0]
    outer = tracer.end[0] - tracer.start[0]
    inner = tracer.end[1] - tracer.start[1]
    assert times["inner"] == (pytest.approx(inner), 1)
    assert times["outer"][0] == pytest.approx(outer - inner)


def test_window_scales_by_probe_speed():
    # the probe ran at twice its reference duration: the work took half
    # as long in reference seconds as on the wall clock
    w = Window(wall_s=2.5, overhead_s=0.5, probe_s=10 * 2 * PROBE_REF_S, samples=10)
    assert w.ref_s == pytest.approx(1.0)
    assert Window(wall_s=2.0).ref_s == 2.0
    assert 0.0 < reference_seconds(2.0, 3) < float("inf")


def test_probe_window_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedProbe(interval_s=0.005)
    with speed.window() as w:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
    assert w.samples > 0 and 0.0 < w.overhead_s < w.wall_s
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before

    with pytest.raises(RuntimeError), speed.window():
        raise RuntimeError("boom")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def _units(walls, preset="box"):
    return [run.Unit(preset, w, w, False, -1) for w in walls]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(_units(range(1, 31))) == (20, pytest.approx(200 / 3), 10)
    # too few samples for a percentile above the median: the median
    units = _units([3.0, 1.0, 2.0]) + _units([5.0, 7.0], "corridor")
    assert run.tail(units) == (run.typical(units), 50.0, 2)
    assert run.typical(units) == (2.0 + 6.0) / 2


@pytest.mark.parametrize("workload,trace", [("generate", 0), ("evaluate", 1)])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys, monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", workload, "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, frames=SMOKE_FRAMES) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = [line.split() for line in lines if line.split()[:1] == [m["name"]]]
        assert row and row[0][2:] == [m["unit"], m["better"]]


def test_output_check_rejects_one_tampered_byte(tmp_path):
    cfg, seq, directory = produce(tmp_path, "seq")
    expected = workloads.files_fingerprint(directory)
    workloads.check_files(directory, expected, "corridor")
    workloads.check_read_back(seq, directory, cfg.render.min_line_len, "corridor")

    frame = directory / "frames" / "000003.txt"
    data = bytearray(frame.read_bytes())
    i = data.index(b".", data.index(b"\nP ")) + 1  # first decimal of a point record
    data[i] = ord("1") if data[i] == ord("0") else ord("0")
    frame.write_bytes(bytes(data))
    with pytest.raises(workloads.CheckError):
        workloads.check_files(directory, expected, "corridor")
    with pytest.raises(workloads.CheckError):
        workloads.check_read_back(seq, directory, cfg.render.min_line_len, "corridor")
