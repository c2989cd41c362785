"""One pass over one workload, in a fresh process.

    python3 perfbench/onepass.py --workload NAME --seed N --trace 0|1
        --spawned T --limit S [--setup-only]

Imports ``toruspoly`` from ``src/`` of the checkout, builds the seeded
inputs, runs the workload's operations once and prints one JSON line:
set-up time (from ``--spawned``, the parent's ``time.monotonic()`` just
before it started this process, to the first timed operation), the pass's
wall time, the checks attempted and failed, and with ``--trace 1`` the
per-span statistics.  Each pass is a fresh process so that every pass pays
for the program's ``lru_cache`` entries, as a command-line call does.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, default=None)
    ap.add_argument("--limit", type=int, default=170,
                    help="seconds before the pass is killed")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the set-up; report only setup_s")
    args = ap.parse_args()
    spawned = time.monotonic() if args.spawned is None else args.spawned
    signal.alarm(max(args.limit, 1))

    sys.path.insert(0, str(ROOT / "src"))
    import toruspoly
    if Path(toruspoly.__file__).resolve().parent != ROOT / "src" / "toruspoly":
        print(f"toruspoly imported from {toruspoly.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    setup, ops = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    tracer = Tracer().install() if args.trace else None
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "setup_s": setup_s, "attempted": 0, "failed": 0,
                          "failures": []}), flush=True)
        return 0

    attempted = 0
    failures = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            checks = op(inputs)
        except Exception as exc:  # a crash or BudgetExceeded is a failure
            traceback.print_exc()
            checks = [(f"{op.__name__} raised {exc!r}", False)]
        attempted += len(checks)
        failures += [label for label, ok in checks if not ok]
    wall_s = time.perf_counter() - t0

    out = {"workload": args.workload, "seed": args.seed,
           "setup_s": setup_s, "wall_s": wall_s,
           "attempted": attempted, "failed": len(failures),
           "failures": failures[:20]}
    if tracer is not None:
        tracer.uninstall()
        out["glue_s"] = wall_s - tracer.covered_s
        out["spans"] = {name: vars(stat) for name, stat in tracer.stats.items()}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
