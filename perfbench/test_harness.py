"""Tests of the benchmark's own plumbing (run: python3 -m pytest perfbench).

The metric list in BENCHMARK.json must match what the tracer reports, and a
check must fail on a non-finite value.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_benchmark_json():
    names = list(Tracer().layer_metrics()) + ["trace.overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == names
    for m in SPEC["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"])


def test_end_to_end_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_worst_propagates_nan():
    assert math.isnan(workloads._worst([0.0, math.nan, 1.0]))
    assert math.isnan(workloads._worst([]))
    assert workloads._worst([0.5, 2.0]) == 2.0


def test_checks_fail_on_non_finite_values():
    assert not workloads._at_most("x", math.nan, 1.0).ok
    assert not workloads._at_most("x", math.inf, math.inf).ok
    assert workloads._at_most("x", 0.5, 1.0).ok
    report = SimpleNamespace(
        rows=[{"a": 1.0, "b": [2.0, math.nan]}],
        summary=[{"check": "c", "measured": 0.0, "threshold": math.inf, "verdict": "pass"}])
    assert not workloads._report_sound("exp", report).ok
    report.rows = [{"a": 1.0}]
    assert workloads._report_sound("exp", report).ok
    report.summary[0]["measured"] = math.nan
    assert not workloads._report_sound("exp", report).ok


def test_configs_are_pinned_and_seeded():
    for name in workloads.WORKLOADS:
        a = workloads.configs(name, 1)
        b = workloads.configs(name, 2)
        assert [c["experiment"] for c in a] == [c["experiment"] for c in b]
        for ca, cb in zip(a, b):
            assert ca["quadrature"].pop("seed") == 1 and cb["quadrature"].pop("seed") == 2
            assert ca == cb
