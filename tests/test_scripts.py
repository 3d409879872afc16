"""Smoke runs of the scripts in scripts/ on small inputs. oracle_sweep.py
is left out: it runs the full randomized suites, which the acceptance
tests already cover."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["size_law.py", "--k-max", "3"],
    ["tm_demo.py", "--k", "1", "--machine", "rejector"],
    ["growth_demo.py", "--m-max", "2"],
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
