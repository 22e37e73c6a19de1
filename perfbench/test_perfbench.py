"""Reduced-size self-test of the benchmark.

    python3 -m pytest perfbench -q

Runs every workload in-process at tiny sizes, with tracing off and on, and
checks that every metric BENCHMARK.json names is emitted with its unit, that
failures are counted, and that the comparison rules and the tracer's self
time behave as documented.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import compare  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = bench.Sizes(
    cold_n=16, cold_m=3, cold_rays=2, cold_points=6,
    re_n=8, re_m=6, re_rays=2, re_points=5, re_scatter=4,
    pr_n=16, pr_rays=1, pr_points=4, pr_verify=1,
    starts=1, check_rows=2,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, detail = bench.run(workload, 5, 0, trace, tmp_path, sizes=TINY)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail["errors"]
    assert detail["checks"] and all(c["passed"] for c in detail["checks"])
    assert detail["machine"]["thread_env"].keys() == set(bench.THREAD_VARS)


def _raise(*args, **kwargs):
    raise OSError("injected failure")


@pytest.mark.parametrize(
    "workload, target, attr",
    [
        ("reanalyze", bench.estimator, "dsff_point"),  # exception in a library call
        ("cold-figure", bench.cli, "render_loglog"),  # CLI exits nonzero, SVG check fails
        ("predict", bench, "real_axis_correction_integral"),  # output check raises
    ],
)
def test_failed_operations_are_counted(workload, target, attr, tmp_path, monkeypatch):
    monkeypatch.setattr(target, attr, _raise)
    result, detail = bench.run(workload, 5, 0, 0, tmp_path, sizes=TINY)
    assert 1 <= result["failed"] <= result["attempted"]
    assert not result["correct"]
    assert detail["errors"]


def test_wrong_output_fails_a_check(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "_double_sum_k", lambda sset, t, s: 1.0e6)
    result, detail = bench.run("reanalyze", 5, 0, 0, tmp_path, sizes=TINY)
    assert result["failed"] >= 1
    assert any(not c["passed"] for c in detail["checks"])


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    assert compare.verdict(base, {s: 50.0 + s for s in range(10)}, "lower", 0.1)[0] == "gain"
    assert compare.verdict(base, {s: 130.0 + s for s in range(10)}, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, {s: 101.0 + s for s in range(10)}, "lower", 0.1)[0] == "no change"
    wide = {s: 100.0 * (1 + s) for s in range(10)}
    assert compare.verdict(wide, {s: 99.0 * (1 + s) for s in range(10)}, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, {s: 50.0 + s for s in range(10)}, "higher", None)[0] == "loss"


def test_spread_fails_on_any_wide_metric(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    with open(results, "w") as fh:
        for seed in range(1, 11):
            metrics = {"wall_s": {"value": 1.0 + 0.001 * seed, "unit": "s"},
                       "setup_s": {"value": float(seed), "unit": "s"}}
            fh.write(json.dumps({"workload": "predict", "seed": seed, "result": {"metrics": metrics}}) + "\n")
    assert compare.spread(results) == 1
    assert "setup_s" in next(line for line in capsys.readouterr().out.splitlines() if "TOO WIDE" in line)


def test_self_time_counts_parallel_children_once():
    tracer = Tracer()

    def child():
        with tracer.span("child"):
            time.sleep(0.05)

    with tracer.span("parent"):
        threads = [threading.Thread(target=child) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    rows = tracer.summary()
    parent = next(s for s in tracer.spans if s.name == "parent")
    assert all(s.parent == parent.id for s in tracer.spans if s.name == "child")
    assert rows["child"]["calls"] == 2 and rows["child"]["busy_s"] >= 0.1
    assert rows["parent"]["self_s"] < rows["parent"]["busy_s"] - 0.04
