"""Benchmark of toruspoly: exact answers, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  For ``--seconds`` seconds (and at least
three passes) the benchmark starts one fresh process per pass
(``onepass.py``, ``threads=1``), which imports ``toruspoly`` from ``src/``,
builds the seeded inputs and runs and checks the workload's operations.

``--trace 0`` reports the end-to-end metrics, medians over the passes:
``wall_s`` (one pass), ``setup_s`` (process start to the first timed
operation) and ``peak_rss_mb`` (peak RSS of the pass process, from
``wait4``).  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer span statistics of the traced ones (see spans.py) and
``trace.overhead_s``, the traced minus the untraced median wall time.
``--workload all`` runs every workload both ways.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check, an
exception or a crashed pass makes the exit code 1; a checkout without
``src/toruspoly`` makes it 2, with no result line.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import GLUE, OVERHEAD, metric_names  # noqa: E402

WORKLOAD_NAMES = ("roots-scan", "big-table", "headline-exact", "cube-groups")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_PASSES = 3
# Every run ends within this many seconds, however slow a pass gets.
RUN_LIMIT_S = 170
# Single-threaded numeric libraries, and a fixed hash seed for the passes.
PASS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# host record: explains drift, normalises nothing


def _probe_s() -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _steal_ticks() -> int | None:
    """Steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def _numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


class HostRecord:
    def __init__(self):
        self.start = {"probe_s": _probe_s(), "steal": _steal_ticks()}

    def finish(self) -> dict:
        steal = _steal_ticks()
        start_steal = self.start["steal"]
        return {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "probe_s_start": self.start["probe_s"],
            "probe_s_end": _probe_s(),
            "steal_ticks": None if steal is None or start_steal is None
            else steal - start_steal,
        }


# ---------------------------------------------------------------------------
# passes


def run_pass(workload: str, seed: int, trace: int, limit: int,
             setup_only: bool = False) -> dict:
    """One pass in a fresh process; adds its peak RSS and CPU time from
    wait4."""
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--limit", str(limit)] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, **PASS_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        res = {"crashed": proc.returncode, "attempted": 1, "failed": 1,
               "failures": [f"pass exited with {proc.returncode}"]}
    else:
        res = json.loads(lines[-1])
        res["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        res["cpu_s"] = usage.ru_utime + usage.ru_stime
    res["duration_s"] = time.monotonic() - spawned
    res["setup_only"] = setup_only
    return res


def measure(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    """Passes for `seconds` seconds.  Without trace, each pass is followed
    by a set-up-only process, so that setup_s has twice the samples, spread
    over the run; with trace, untraced and traced passes alternate.  Stops
    early on a crashed pass."""
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        full = [p for p in passes if not p["setup_only"]]
        done = len(full) >= (2 if trace else MIN_PASSES)
        if full and (done and elapsed >= seconds
                     or elapsed + full[-1]["duration_s"] > RUN_LIMIT_S - 5):
            return passes
        mode = trace and len(full) % 2
        steps = [False] if trace else [False, True]
        for setup_only in steps:
            limit = int(RUN_LIMIT_S - (time.monotonic() - start))
            res = run_pass(workload, seed, mode, limit, setup_only)
            res["traced"] = bool(mode)
            passes.append(res)
            if "crashed" in res:
                return passes


def metrics_of(passes: list[dict], trace: int) -> dict:
    plain = [p for p in passes if not p["traced"] and not p["setup_only"]]
    if not trace:
        samples = {"wall_s": plain, "peak_rss_mb": plain,
                   "setup_s": [p for p in passes if not p["traced"]]}
        return {name: {"value": statistics.median(
                    [p[name] for p in samples[name]]), "unit": unit}
                for name, unit in END_TO_END}
    traced = [p for p in passes if p["traced"]]
    units = dict(metric_names())
    out = {}
    for name, unit in metric_names():
        if name in (GLUE, OVERHEAD):
            continue
        span, stat = name.rsplit(".", 1)
        out[name] = {"value": statistics.median(
            [p["spans"][span][stat] for p in traced]), "unit": unit}
    out[GLUE] = {"value": statistics.median([p["glue_s"] for p in traced]),
                 "unit": units[GLUE]}
    out[OVERHEAD] = {"value": statistics.median([p["wall_s"] for p in traced])
                     - statistics.median([p["wall_s"] for p in plain]),
                     "unit": units[OVERHEAD]}
    return out


def report(workload: str, passes: list[dict], metrics: dict, trace: int,
           prefix: str = "") -> None:
    """Human-readable lines: passes, failures, metrics, self-time shares."""
    full = [p for p in passes if not p["setup_only"] or "crashed" in p]
    for i, p in enumerate(full):
        if "crashed" in p:
            print(f"{workload} pass {i}: CRASHED, exit {p['crashed']}")
            continue
        print(f"{workload} pass {i}{' traced' if p['traced'] else ''}: "
              f"wall {p['wall_s']:.4f} s, setup {p['setup_s']:.4f} s, "
              f"process cpu {p['cpu_s']:.3f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB, "
              f"{p['attempted']} checks, {p['failed']} failed")
        for label in p["failures"]:
            print(f"  FAILED: {label}")
    extra = [p["setup_s"] for p in passes
             if p["setup_only"] and "crashed" not in p]
    if extra:
        print(f"{workload} set-up-only samples: "
              + ", ".join(f"{v:.4f}" for v in extra) + " s")
    for name, m in metrics.items():
        if not trace or m["value"]:
            print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")
    if trace and metrics:
        wall = statistics.median([p["wall_s"] for p in passes if p["traced"]])
        shares = sorted(((m["value"] / wall, name[:-len(".self_s")])
                         for name, m in metrics.items()
                         if name.endswith(".self_s") and m["value"] > 0),
                        reverse=True)
        print(f"{workload} self-time shares of traced wall {wall:.4f} s:")
        for share, span in shares:
            print(f"  {100 * share:5.1f}%  {span}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "toruspoly" / "__init__.py").is_file():
        print(f"no toruspoly sources under {ROOT / 'src'}; run from the root "
              "of a toruspoly checkout", file=sys.stderr)
        return 2

    host = HostRecord()
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOAD_NAMES for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for workload, trace in runs:
        passes = measure(workload, args.seed, args.seconds, trace)
        attempted += sum(p["attempted"] for p in passes)
        failed += sum(p["failed"] for p in passes)
        # a crashed pass leaves no metrics, only the failure
        crashed = any("crashed" in p for p in passes)
        found = {} if crashed else metrics_of(passes, trace)
        prefix = f"{workload}/" if args.workload == "all" else ""
        report(workload, passes, found, trace, prefix)
        metrics.update({prefix + name: m for name, m in found.items()})
    print("host " + json.dumps(host.finish()))
    print(f"error_rate = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} checks)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
