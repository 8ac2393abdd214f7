"""Machine-speed probe for the untraced run's timings.

This benchmark runs on a shared host whose speed drifts by up to 1.6x
from one minute to the next, as other tenants load the cores. A wall time
taken in a slow spell reads as a regression of the program. To cancel
that, a small fixed loop (the probe) is timed inside the measured process
while a timing window is open, and the window's time is scaled by how fast
the probe ran. The probe does the kinds of work plbench does: Python
integer and dict work, small numpy array operations, and float formatting
and parsing. Each sample runs the probe twice and times the second run,
so the sample measures the core, not how cold the program left the caches.

A window's time is its wall time less the time the samples took, scaled
by ``PROBE_REF_S / mean sample``: the wall time the same work takes on a
core where the probe takes ``PROBE_REF_S``. That is a reference second.
``PROBE_REF_S`` is about the probe's duration on an idle core of the
2-vCPU Xeon host where the benchmark was defined; only ratios of reference
seconds mean anything. Measured there over a few minutes, the unit times
of one run vary by about 4% (cv) in reference seconds against 13 to 24%
in wall seconds, and a unit's wall time follows the probe's mean duration
with slope 1.0 on a log scale.

``SpeedProbe.window`` takes one sample on an interval timer (``SIGALRM``,
every ``INTERVAL_S``) for as long as the window is open. Python runs a
signal handler between bytecodes of the main thread, so a sample never
runs inside a C call of the program. ``reference_seconds`` instead takes
its samples right after the work, for work that cannot run under the
timer, such as the imports of a fresh interpreter before numpy is loaded.
"""
from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.04
PROBE_REF_S = 2.7e-4

_rng = np.random.default_rng(0)
_R = np.linalg.qr(_rng.standard_normal((3, 3)))[0]
_P = _rng.standard_normal((40, 3))


def probe() -> float:
    """The fixed loop; about 0.27 ms on an idle core."""
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(400):
        x = (i * 2654435761) % 97
        counts[x] = counts.get(x, 0) + 1
        acc += x * 0.5
    for i in range(12):
        q = _P @ _R.T + 0.001 * i
        acc += float(np.linalg.norm(q[:, :2] / np.abs(q[:, 2:3] + 3.0), axis=1).sum())
    for col in (0, 1):
        text = " ".join(f"{v:.9f}" for v in _P[:, col])
        acc += sum(float(t) for t in text.split())
    return acc


@dataclass
class Window:
    """One timed interval: wall time, time spent sampling inside it, and
    the summed duration and count of the samples."""

    wall_s: float = 0.0
    overhead_s: float = 0.0
    probe_s: float = 0.0
    samples: int = 0

    @property
    def ref_s(self) -> float:
        """Work time in reference seconds; the wall time if no sample ran."""
        work = self.wall_s - self.overhead_s
        if self.samples == 0:
            return work
        return work * PROBE_REF_S * self.samples / self.probe_s


def sample(w: Window) -> None:
    """Run the probe twice and add the second run to ``w``."""
    t0 = perf_counter()
    probe()
    t1 = perf_counter()
    probe()
    t2 = perf_counter()
    w.overhead_s += t2 - t0
    w.probe_s += t2 - t1
    w.samples += 1


def reference_seconds(wall_s: float, samples: int) -> float:
    """``wall_s`` of work that has just ended, in reference seconds,
    scaled by ``samples`` samples taken now on the same core."""
    w = Window(wall_s=wall_s)
    for _ in range(samples):
        sample(w)
    w.overhead_s = 0.0  # the samples ran after the work, not inside it
    return w.ref_s


class SpeedProbe:
    """Samples the probe on the interval timer into the open window."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._window: Window | None = None

    def _tick(self, signum, frame) -> None:
        if self._window is not None:
            sample(self._window)

    @contextmanager
    def window(self):
        """Time the body; the yielded ``Window`` is filled in on exit. The
        timer and the previous handler are restored on every way out."""
        w = Window()
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._window = w
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield w
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            w.wall_s = perf_counter() - t0
            self._window = None
            signal.signal(signal.SIGALRM, previous)


class NullProbe:
    """Stands in for the probe in the traced run: wall time only."""

    @contextmanager
    def window(self):
        w = Window()
        t0 = perf_counter()
        try:
            yield w
        finally:
            w.wall_s = perf_counter() - t0
