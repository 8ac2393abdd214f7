"""Record bench/reference.json: for the shipped seeds and the held-out seeds
of every preset, the sha256 fingerprint of the written sequence files and
the ATE of both trackers, which later runs must not exceed.

    python3 bench/record_reference.py

Run it only in a change that is allowed to move these outputs; the
fingerprints are the byte-identical rule for generated sequences.
"""
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from plbench.evaluation import ate  # noqa: E402
from plbench.tracking import track_frame_to_frame, track_map_to_frame  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import (  # noqa: E402
    HELD_OUT_OFFSET,
    PRESETS,
    REFERENCE_PATH,
    files_fingerprint,
    load_reference,
    preset_config,
    produce,
    reference_key,
)


def main() -> None:
    reference = load_reference()
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for preset in PRESETS:
            entries = reference["sequences"][preset] = {}
            for offset in (0, HELD_OUT_OFFSET):
                cfg = preset_config(preset, offset)
                directory = Path(tmp) / f"{preset}-{offset}"
                seq = produce(cfg, directory, NullTracer())
                m2f, _ = track_map_to_frame(seq)
                f2f = track_frame_to_frame(seq)
                entries[reference_key(cfg)] = {
                    "files_sha256": files_fingerprint(directory),
                    "ate_m2f_rmse_m": ate(m2f, seq.gt_trajectory).translation.rmse,
                    "ate_f2f_rmse_m": ate(f2f, seq.gt_trajectory).translation.rmse,
                }
                print(preset, reference_key(cfg), entries[reference_key(cfg)], flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
