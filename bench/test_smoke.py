"""Smoke test of the benchmark at a tiny size, so the script cannot rot.

Kept out of the package's test suite (``testpaths`` there is ``tests``).
Run from the repository root with ``python -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed, work_dir):
    if name == "power_burr":
        return workloads.PowerWorkload(seed, work_dir, mc_reps=1, B=10)
    w = workloads.make(name, seed, work_dir)
    w.B, w.digest_rounds = 5, 1
    return w


def metric_spec(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    metrics, info, passes, problems = run.per_layer(tiny(name, 3, str(tmp_path)), 3)
    total = workloads.merge(passes)
    assert problems == [] and total.problems == [] and total.failed == 0
    assert {k: unit for k, (_, unit) in metrics.items()} == metric_spec("per_layer")
    assert metrics["bootstrap.useful_ratio"][0] == 1.0
    if name == "test_l2":
        assert metrics["estimation.burr_mle.calls"][0] == 0
        assert metrics["gof.generic_L2.incl_frac"][0] > 0.5
    else:
        assert metrics["gof.generic_L2.calls"][0] == 0
    if name == "test_burr":
        assert metrics["gof.edf.calls"][0] == 0
    assert list(tmp_path.glob("spans-*.npz"))


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    metrics, info, passes, problems = run.end_to_end(tiny("test_burr", 4, str(tmp_path)), 0.0)
    assert problems == [] and workloads.merge(passes).failed == 0
    assert {k: unit for k, (_, unit) in metrics.items()} == metric_spec("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert len(info["digest"]) == 64


def test_checks_reject_a_wrong_statistic(tmp_path):
    w = tiny("test_l2", 5, str(tmp_path))
    x = w.data(workloads._round_rng(5, 0), "normal", 0)
    path = tmp_path / "x.txt"
    workloads._write_values(str(path), x)
    argv = ["test", "--data", str(path), "--family", "normal", "--stat", "L2", "--a", "1",
            "--B", "5", "--seed", "1"]
    rc, out, _, _ = workloads.invoke(argv)
    doc = json.loads(out)
    assert rc == 0 and checks.check_test_outcome(doc, x, "normal", "L2", 1.0, 5) == []
    doc["statistic_value"] *= 1 + 1e-6
    assert checks.check_test_outcome(doc, x, "normal", "L2", 1.0, 5)
    doc["effective_B"] -= 1
    assert len(checks.check_test_outcome(doc, x, "normal", "L2", 1.0, 5)) == 2


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "test_burr", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
