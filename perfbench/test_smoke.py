"""Smoke test for the benchmark: every workload at a tiny size, through the
one command, prints every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, env=None):
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(cmd + list(args), cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--max-ops", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
        report = [ln.split() for ln in lines[:-1]]
        assert any(ln[:1] == [m["name"]] and m["unit"] in ln for ln in report), m["name"]
    if not trace:
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        assert any(ln.split()[:1] == ["failed_ratio"] for ln in lines)
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_oscilla_tol():
    env = dict(os.environ, OSCILLA_TOL="1e-8")
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", env=env)
    assert proc.returncode != 0
    assert "OSCILLA_TOL" in proc.stderr
    assert proc.stdout.strip() == ""


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
