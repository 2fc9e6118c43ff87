"""Tests of the benchmark's own plumbing, on smoke-sized inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
from tracer import SPAN_NAMES, Tracer

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _bench(*args, cwd=run.ROOT):
    out = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return out


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_smoke_untraced_reports_every_end_to_end_metric():
    result = _result(_bench("--workload", "all", "--smoke", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for name, unit in run.END_TO_END:
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0


def test_smoke_traced_reports_every_per_layer_metric_and_covers_every_span():
    out = _bench("--workload", "all", "--smoke", "--trace", "1")
    result = _result(out)
    assert result["correct"] and result["failed"] == 0, out.stdout
    names = [f"{span}.{suffix}" for span, suffix, _, _ in run.PER_LAYER] + [run.OVERHEAD[0]]
    for workload in run.WORKLOADS:
        for name in names:
            assert result["metrics"][f"{workload}/{name}"]["unit"] == run.PER_LAYER_UNITS[name]
    assert result["metrics"]["grid-ex3/categorize.kmeans_fit.calls"]["value"] == 8
    assert result["metrics"]["select-ex4/categorize.kmeans_fit.calls"]["value"] == 0
    assert result["metrics"]["grid-ex3/categorize.product_categories.calls"]["value"] == 0


def test_single_workload_prints_one_result_line():
    result = _result(_bench("--workload", "grid-ex3", "--smoke", "--seed", "3"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS.items())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "select-ex4", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_hi_sample_leaves_ten_samples_above():
    values = [float(v) for v in range(25)]
    assert run.hi_sample(values) == (14.0, 60)
    assert run.hi_sample([3.0, 1.0, 2.0]) == (3.0, 100)


def test_trimmed_mean_drops_the_lowest_and_the_highest():
    assert run.trimmed_mean([100.0, 1.0, 3.0, 2.0]) == 2.5
    assert run.trimmed_mean([2.0, 4.0]) == 3.0


def test_install_wraps_every_binding_site():
    code = (
        "import json, sys; sys.path.insert(0, 'bench');"
        "from tracer import Tracer; t = Tracer(); t.install(); print(json.dumps(t.sites))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=run.ROOT,
        env=run.child_env(), timeout=60, check=True,
    )
    sites = json.loads(out.stdout)
    assert set(sites) == set(SPAN_NAMES)
    for module in ("tabulate", "nullsim", "protocol", "cli"):
        assert f"ceda.{module}.crosstab" in sites["tabulate.crosstab"]


def test_self_time_is_per_thread_under_contention():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.0005))

    def outer_body():
        for _ in range(3):
            inner()

    outer = tracer.wrap("outer", outer_body)
    workers = [threading.Thread(target=lambda: [outer() for _ in range(50)]) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    stats = tracer.snapshot()["spans"]
    assert stats["outer"]["calls"] == 300 and stats["inner"]["calls"] == 900
    assert stats["inner"]["leaf_calls"] == 900 and stats["outer"]["leaf_calls"] == 0
    assert 0 <= stats["outer"]["s"] < stats["outer"]["incl_s"]
    assert stats["outer"]["incl_s"] == pytest.approx(stats["outer"]["s"] + stats["inner"]["incl_s"])
