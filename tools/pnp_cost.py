"""Per-solve cost of the PnP solver on the map-to-frame problems of presets,
and the cost of frame-to-frame tracking.

Records every ``solve_pnp`` call that ``track_map_to_frame`` makes on a
preset's sequence (its points, pixels and motion prior), then replays the
calls: the mean time per solve at full size and with every problem cut to
its first 12 correspondences, and the function calls per solve that
cProfile counts in one full-size replay. Each solve is timed once in
each of k replays and its minimum kept: a disturbance spoils only the
timings of the solves it overlaps in one replay, and the other replays
time those solves again. The cut problems show the fixed cost a solve
pays whatever its size. Beside them: the time of one
``track_frame_to_frame`` of the sequence, best of k runs, and the peak
of the memory it allocates, which tracemalloc traces in one more run.
Every time is the CPU time of this process (``time.process_time``), not
wall time, so that the time other processes on a shared host take from
it does not count. Uses the standard library and numpy only; BLAS runs
on one thread.

Usage: python tools/pnp_cost.py [PRESET ...] [--repeat K]
       (default: sphere box corridor, K = 5)
"""
import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import cProfile  # noqa: E402
import pstats  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plbench import tracking  # noqa: E402
from plbench.simulator import (  # noqa: E402
    PRESET_NAMES,
    build_scene,
    build_trajectory,
    generate_sequence,
    load_preset,
)

_CUT = 12  # correspondences per problem in the fixed-cost replay


def preset_sequence(preset: str):
    """The preset's sequence at its shipped seed."""
    cfg = load_preset(preset)
    return generate_sequence(build_scene(cfg.scene), build_trajectory(cfg.trajectory),
                             cfg.noise, cfg.intrinsics, cfg.render)


def map_to_frame_solves(seq):
    """The (points, pixels, initial) of each ``solve_pnp`` call that
    ``track_map_to_frame`` makes on ``seq``."""
    calls, solve = [], tracking.solve_pnp

    def recording(world_points, pixels, intr, initial=None):
        calls.append((world_points, pixels, initial))
        return solve(world_points, pixels, intr, initial=initial)

    tracking.solve_pnp = recording
    try:
        tracking.track_map_to_frame(seq)
    finally:
        tracking.solve_pnp = solve
    return calls


def replay(calls, intr) -> None:
    for P, u, initial in calls:
        tracking.solve_pnp(P, u, intr, initial=initial)


def ms_per_solve(calls, intr, repeat: int) -> float:
    """Mean over ``calls`` of each solve's CPU time, ms: the minimum of
    ``repeat`` timings of that solve, one in each of ``repeat`` replays."""
    best = [float("inf")] * len(calls)
    for _ in range(repeat):
        for i, (P, u, initial) in enumerate(calls):
            start = time.process_time()
            tracking.solve_pnp(P, u, intr, initial=initial)
            best[i] = min(best[i], time.process_time() - start)
    return 1e3 * sum(best) / len(calls)


def frame_to_frame_cost(seq, repeat: int) -> tuple[float, float]:
    """CPU time of one ``track_frame_to_frame`` of ``seq``, best of
    ``repeat`` runs, ms, and the peak of the memory traced in one run, MB."""
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        tracking.track_frame_to_frame(seq)
        best = min(best, time.process_time() - start)
    tracemalloc.start()
    try:
        tracking.track_frame_to_frame(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * best, peak / 1e6


def calls_per_solve(calls, intr) -> float:
    """Function calls per solve that cProfile counts in one replay."""
    profile = cProfile.Profile()
    profile.runcall(replay, calls, intr)
    return pstats.Stats(profile).total_calls / len(calls)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("presets", nargs="*", metavar="PRESET",
                        help=f"one of {', '.join(PRESET_NAMES)} (default: all)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timings of each solve, and runs of frame-to-frame tracking; "
                             "the minimum counts")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for preset in args.presets:
        if preset not in PRESET_NAMES:
            parser.error(f"unknown preset {preset!r}; choose from {', '.join(PRESET_NAMES)}")
    print(f"{'preset':<10}{'solves':>7}{'points':>8}{'ms/solve':>10}"
          f"{f'ms/solve <={_CUT}':>15}{'calls/solve':>13}{'f2f ms':>9}{'f2f peak MB':>13}")
    for preset in args.presets or PRESET_NAMES:
        seq = preset_sequence(preset)
        calls, intr = map_to_frame_solves(seq), seq.intrinsics
        cut = [(P[:_CUT], u[:_CUT], initial) for P, u, initial in calls]
        replay(calls, intr)  # warm-up
        full, small = ms_per_solve(calls, intr, args.repeat), ms_per_solve(cut, intr, args.repeat)
        points = sum(len(P) for P, _, _ in calls) / len(calls)
        f2f_ms, f2f_peak = frame_to_frame_cost(seq, args.repeat)
        print(f"{preset:<10}{len(calls):>7}{points:>8.1f}{full:>10.3f}{small:>15.3f}"
              f"{calls_per_solve(calls, intr):>13.1f}{f2f_ms:>9.1f}{f2f_peak:>13.2f}")


if __name__ == "__main__":
    main()
