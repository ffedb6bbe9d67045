"""Tests of the benchmark itself (tiny sizes; about a minute).

  python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the library's default test collection.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = ["--seconds", "1", "--instances", "1", "--max-len", "2"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result, lines[:-1]


def expect_printed(lines, metrics):
    """Every metric is also printed as a 'name value unit' line."""
    for name, m in metrics.items():
        assert any(l.split()[::2] == [name, m["unit"]] for l in lines
                   if len(l.split()) == 3), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, lines = result_of(bench("--workload", workload, "--seed", "0",
                                    "--trace", "0", *TINY))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    expect_printed(lines, result["metrics"])
    assert any(l.startswith("fail_ratio ") for l in lines)
    assert any(l.startswith("digest ") for l in lines)


def test_tiny_unlisted_sweep_q_reports_its_metrics():
    result, lines = result_of(bench("--workload", "sweep-q", "--seed", "4",
                                    "--trace", "0", *TINY))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    expect_printed(lines, result["metrics"])


def test_capped_isomorphism_search_shows_as_failures():
    """Seed 15 over F3 at max_len 4: the capped search in is_isomorphic
    gives up at hom dimension 12 and the sweep reports a cone-oracle FAIL.
    Seed 15 has dimension 20, above the caps of the sweep-fp workload,
    so the window is built with wider caps."""
    from biserial.fields import Field
    from workloads import Sweep

    wl = Sweep(15, Field(3), instances=1, max_len=4, dim_cap=20,
               strings_cap=80)
    assert [i.seed for i in wl.instances] == [15]
    res = wl.run_pass()
    assert res.failed / res.attempted > 0
    assert any("cone-oracle" in f for f in res.failures)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_layers_within_wall_time(workload):
    result, lines = result_of(bench("--workload", workload, "--seed", "0",
                                    "--trace", "1", *TINY))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    expect_printed(lines, result["metrics"])
    # every computed metric, listed or not, is printed as 'name value unit'
    printed = {l.split()[0]: float(l.split()[1]) for l in lines
               if len(l.split()) == 3 and "." in l.split()[0]}
    wall, self_sum = printed["trace.wall_s"], printed["trace.self_sum_s"]
    layer_sum = sum(v for k, v in printed.items()
                    if k.count(".") == 1 and k.endswith(".self_s"))
    assert 0 < self_sum <= wall
    assert layer_sum == pytest.approx(self_sum, rel=1e-6)
    assert self_sum + printed["trace.outside_s"] == pytest.approx(wall)
    assert printed["trace.overhead_ratio"] > 0
    assert printed["trace.spans"] > 0


def test_tracer_rebinds_imported_names_and_restores_them():
    import biserial.cli
    import biserial.sweep
    import biserial.translate
    import workloads
    from tracer import Tracer

    orig = biserial.translate.tau
    assert biserial.sweep.tau is orig and biserial.cli.tau is orig
    tr = Tracer()
    tr.install()
    try:
        assert biserial.sweep.tau is biserial.translate.tau is biserial.cli.tau
        assert biserial.sweep.tau is not orig
        # the timed bundle is traced, the calculus round-trip check is not
        assert workloads.tau is biserial.translate.tau
        assert workloads._CHECK["tau"] is orig
    finally:
        tr.uninstall()
    assert biserial.sweep.tau is orig and biserial.cli.tau is orig


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           SPEC["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
