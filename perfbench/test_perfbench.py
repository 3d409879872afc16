"""Tests of the benchmark itself, on tiny workloads.

Run with ``python -m pytest perfbench``. Each run is a subprocess,
because the benchmark re-imports the package on every set-up.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import speed
from workloads import WORKLOADS, check_dexp_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)


def bench(*args, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def tiny(workload, trace):
    return ("--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    p = bench(*tiny(workload, trace))
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in want] == list(result["metrics"])
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in lines)
    record = json.loads(lines[-2][len("record "):])
    for key in ("seed", "python", "nproc", "commit", "src_sha256",
                "fail_ratio", "op_tail_percentile"):
        assert key in record
    if not trace:
        assert all(result["metrics"][m]["value"] > 0
                   for m in result["metrics"])


def test_a_wrong_reference_fails_the_run(tmp_path):
    script = tmp_path / "wrong_reference.py"
    script.write_text(textwrap.dedent("""
        import sys
        sys.path.insert(0, %r)
        import run, workloads
        right = workloads.tm_reference
        workloads.tm_reference = lambda *a: not right(*a)
        sys.exit(run.main(sys.argv[1:]))
    """ % HERE))
    p = bench(*tiny("tm-decide", 0), script=str(script))
    assert p.returncode != 0
    result = json.loads(p.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED" in p.stderr


def test_dexp_check_rejects_a_wrong_set():
    good = "{<1: 0, 2: 0>, <1: 0, 2: 1>, <1: 1, 2: 0>, <1: 1, 2: 1>}\n"
    assert check_dexp_output(1, (0, good)) is None
    assert check_dexp_output(1, (0, good.replace("2: 1>}", "2: 0>}")))
    assert check_dexp_output(1, (0, good.replace("<1: 0, 2: 0>, ", "")))
    assert check_dexp_output(1, (2, good))


def test_scaling_takes_out_the_handler_and_uses_nearby_samples():
    m = speed.Meter()
    m.starts, m.ends = [1.0, 2.0, 5.0], [1.01, 2.01, 5.01]
    m.cal = [0.001, 0.004, 0.002]
    assert m.raw(1.5, 2.5) == pytest.approx(0.99)
    # only the samples at 1.0 and 2.0 lie within WINDOW_S of [1.5, 2.5]
    assert m.scaled(1.5, 2.5) == pytest.approx(
        0.99 * speed.REFERENCE_S / 0.0025)


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = bench(*tiny("oracle-mix", 0), cwd=str(tmp_path),
              script=str(tmp_path / "perfbench" / "run.py"))
    assert p.returncode != 0
    assert p.stdout == ""
