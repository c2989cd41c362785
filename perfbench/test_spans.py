"""Tests of the benchmark itself: spans still attach to the program, the
self times add up, and the metric lists agree with BENCHMARK.json."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import SPANS, Tracer, metric_names  # noqa: E402


def _traced_pass(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
         "--seed", "5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_pass_exercises_its_spans(workload):
    res = _traced_pass(workload)
    assert res["failed"] == 0, res["failures"]
    spans = res["spans"]
    silent = [name for name, homes, _ in SPANS
              if workload in homes and spans[name]["calls"] == 0]
    assert not silent, f"spans without calls on {workload}: {silent}"
    # self times plus the benchmark's own code make up the traced wall time
    selfs = [s["self_s"] for s in spans.values()]
    assert min(selfs) >= -1e-9 and res["glue_s"] >= -1e-9
    assert sum(selfs) + res["glue_s"] == pytest.approx(res["wall_s"],
                                                       rel=1e-9, abs=1e-9)
    assert res["glue_s"] < 0.05 * res["wall_s"]


def test_tracer_rebinds_every_import_and_restores():
    import toruspoly
    from toruspoly import poly, suites

    original = poly.interpolate_tables
    with Tracer():
        assert suites.interpolate_tables is poly.interpolate_tables
        assert poly.interpolate_tables.__wrapped__ is original
        assert toruspoly.bias is toruspoly.forms.bias is toruspoly.norms.bias
        assert toruspoly.bias.__wrapped__ is not None
    assert poly.interpolate_tables is original
    assert suites.interpolate_tables is original
    assert not hasattr(toruspoly.bias, "__wrapped__")


def test_metric_lists_match_benchmark_json():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        metric_names()
