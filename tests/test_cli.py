"""Command line interface: exit codes, output formats, determinism."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from oscilla import cli


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(list(args), out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def test_sigma_output():
    rc, out, err = run_cli("sigma", "--kmax", "3")
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert float(lines[0]) == pytest.approx(4.493409457909063, abs=1e-12)
    assert float(lines[2]) == pytest.approx(10.904121659428899, abs=1e-12)
    # 17 significant digits: the printed string round-trips exactly
    for line in lines:
        assert f"{float(line):.17g}" == line


def test_eval_value_and_error_column():
    rc, out, _ = run_cli("eval", "--density", "kuttner:2,1",
                         "--kind", "cosine", "--x", "4.4934094579090642")
    assert rc == 0
    assert rc == 0
    val, est = out.split()
    # sigma_1 is the first zero of this transform
    assert abs(float(val)) < 1e-12
    assert float(est) < 1e-6


def test_eval_matches_closed_form():
    x = 7.3
    rc, out, _ = run_cli("eval", "--density", "kuttner:2,1", "--x", str(x))
    want = 2.0 * (math.sin(x) - x * math.cos(x)) / x ** 3
    assert float(out.split()[0]) == pytest.approx(want, abs=1e-12)


def test_zeros_csv():
    rc, out, _ = run_cli("zeros", "--density", "beta:0.5,2",
                         "--kind", "cosine", "--kmax", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "density,kind,k,lo,hi,abscissa,residual,simple"
    rows = list(csv.reader(lines[1:]))
    # scan horizon is (kmax+1) pi, so every completed band below it shows up
    assert len(rows) >= 4
    for row in rows:
        assert row[0] == "beta:0.5,2" and row[1] == "cosine"
        k = int(row[2])
        z = float(row[5])
        assert (k - 0.5) * math.pi < z < k * math.pi


def test_verify_auto_pass():
    rc, out, _ = run_cli("verify", "--density", "beta:0.5,2", "--kmax", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["label"] == "Pc_star"
    assert doc["pass"] is True
    assert set(doc["kinds"]) == {"cosine", "sine"}
    assert all(v["status"] == "pass" for v in doc["kinds"].values())


def test_verify_unknown_is_indeterminate():
    rc, out, _ = run_cli("verify", "--density", "beta:3,2.5")
    assert rc == 3
    doc = json.loads(out)
    assert doc["label"] == "unknown"
    assert doc["pass"] is None


def test_verify_forced_wrong_prediction_fails():
    # beta(0.5,2) transforms vanish infinitely often, so forcing the
    # all-positive Pc prediction must fail
    rc, out, _ = run_cli("verify", "--density", "beta:0.5,2",
                         "--prediction", "Pc", "--kmax", "5")
    assert rc == 2
    doc = json.loads(out)
    assert doc["pass"] is False
    assert any(v["violations"] for v in doc["kinds"].values())


def test_verify_kind_filter():
    rc, out, _ = run_cli("verify", "--density", "beta:0.5,2",
                         "--kind", "sine", "--kmax", "4")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc["kinds"]) == ["sine"]


def test_verify_shape_route_for_named_family():
    rc, out, _ = run_cli("verify", "--density", "kuttner:2,1", "--kmax", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True


def test_steinerberger_csv():
    rc, out, _ = run_cli("steinerberger", "--beta", "3", "--kmax", "4")
    assert rc == 0
    assert out.strip().splitlines() == ["k,sign", "1,+1", "2,-1", "3,+1",
                                        "4,-1"]


def test_sweep_stream(tmp_path):
    dest = tmp_path / "cells.jsonl"
    rc, out, _ = run_cli("sweep", "--alpha", "0.5:1.5:0.5",
                         "--beta", "0.5:1.0:0.5", "--kmax", "3",
                         "--jobs", "1", "--out", str(dest))
    assert rc == 0
    lines = dest.read_text().strip().splitlines()
    assert len(lines) == 6
    docs = [json.loads(l) for l in lines]
    assert [(d["alpha"], d["beta"]) for d in docs] == [
        (0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (1.5, 0.5),
        (1.5, 1.0)]
    assert all(d["pass"] in (True, None) for d in docs)


def test_sweep_jobs_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli("sweep", "--alpha", "0.5:1.5:0.5", "--beta", "0.5:1.0:0.5",
            "--kmax", "3", "--jobs", "1", "--out", str(a))
    run_cli("sweep", "--alpha", "0.5:1.5:0.5", "--beta", "0.5:1.0:0.5",
            "--kmax", "3", "--jobs", "2", "--out", str(b))
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_writes_the_library_records(jobs):
    # the CLI and atlas.sweep share one driver, atlas.iter_sweep
    from oscilla import atlas
    rc, out, _ = run_cli("sweep", "--alpha", "0.5:2.5:1", "--beta",
                         "0.5:3.5:1.5", "--kmax", "4", "--jobs", str(jobs))
    assert rc == 0
    want = [r.to_json() for r in atlas.sweep([0.5, 1.5, 2.5],
                                             [0.5, 2.0, 3.5], k_max=4)]
    assert out.splitlines() == want


def test_repeat_runs_are_byte_identical():
    first = run_cli("verify", "--density", "beta:0.5,2", "--kmax", "4")
    second = run_cli("verify", "--density", "beta:0.5,2", "--kmax", "4")
    assert first == second


@pytest.mark.parametrize("args", [
    ("eval",),                                      # missing required
    ("eval", "--density", "beta:0.5,2"),            # missing --x
    ("eval", "--density", "nosuch:1", "--x", "1"),  # bad family
    ("eval", "--density", "beta:0.5", "--x", "1"),  # bad arity
    ("zeros", "--density", "beta:0.5,2", "--kmax", "zero"),
    ("verify", "--density", "beta:0.5,2", "--prediction", "Nope"),
    ("sweep", "--alpha", "1:2", "--beta", "1:2:1"),
    ("frobnicate",),
    ("sweep", "--alpha", "0:1:0.5", "--beta", "1:2:1"),  # grid value 0
])
def test_usage_errors(args):
    rc, out, err = run_cli(*args)
    assert rc == 64
    assert "usage" in err.lower()


def test_prediction_flag_rejected_for_named_family():
    rc, _, err = run_cli("verify", "--density", "kuttner:2,1",
                         "--prediction", "Pc")
    assert rc == 64


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "oscilla.cli", "sigma", "--kmax", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(
        4.493409457909063, abs=1e-12)
