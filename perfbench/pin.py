"""Write ``pins.json``: the output hashes of one pass of every workload at
the default seed.

Usage (from the repository root): ``python3 perfbench/pin.py``.

Re-pinning is a behaviour change of the library, not a benchmark tweak:
run it only when a change is meant to alter output bytes, and say so.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the thread pins before numpy is imported)

run.pin_environment()
import workloads  # noqa: E402


def main() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, workloads.DEFAULT_SEED)
        result = workloads.run_pass(ops, run.OUT / workload)
        if result.failures:
            print(f"{workload}: {result.failures}", file=sys.stderr)
            return 1
        pins[workload] = result.hashes
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
