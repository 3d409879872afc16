"""Smoke runs of the scripts in scripts/ on small inputs. oracle_sweep.py
is left out: it runs the full randomized suites, which the acceptance
tests already cover."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["size_law.py", "--k-max", "3"],
    ["tm_demo.py", "--k", "1", "--machine", "rejector"],
    ["growth_demo.py", "--m-max", "2"],
    ["tm_demo.py", "--k", "2", "--machine", "rejector"],
])
def test_script_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]),
                        *args[1:]],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
    if args[0] == "growth_demo.py":
        # a header, then m, query size, |result|, eval and print times
        # and the peak RSS so far for each level
        lines = r.stdout.splitlines()
        assert lines[0].split()[-3:] == ["eval", "print", "peak_rss"]
        rows = [line.split() for line in lines[1:]]
        assert [row[0] for row in rows] == [str(m) for m in range(3)]
        assert [row[2] for row in rows] == ["2", "4", "16"]
        assert all(t.endswith("s") for row in rows for t in row[3:5])
        rss = [float(row[5][:-2]) for row in rows if row[5].endswith("MB")]
        assert len(rss) == 3 and 0 < rss[0] <= rss[1] <= rss[2]
    if args[0] == "tm_demo.py":
        # each decision agrees with the simulation, and gives its time
        # and the time of its plan
        lines = r.stdout.splitlines()
        assert all(" ok (" in line for line in lines)
        col = re.compile(r" ok \((\d+\.\d{3})s, plan (\d+\.\d{3})s, ")
        assert all(col.search(line) for line in lines), lines
