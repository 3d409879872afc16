"""Run the benchmark over several seeds and summarise its steadiness.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs the command in BENCHMARK.json once per workload and seed, one run
at a time, untraced. For every end-to-end metric it reports the median,
the quartiles (statistics.quantiles with n=4) and the spread: the
distance between the quartiles as a share of the median, flagged when it
is not below a third of the metric's bound. With --out it writes the
summary, with each run's record (seed, Python version, CPU count,
commit, and how long the run took), as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    elapsed = time.perf_counter() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s" % (
            workload, seed, p.returncode, p.stderr[-2000:]))
    record = json.loads(lines[-2][len("record "):])
    record["elapsed_s"] = elapsed
    return json.loads(lines[-1]), record


def summarise(bench, runs):
    out = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        out[m["name"]] = {
            "unit": m["unit"], "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
            "steady": spread < m["bound"] / 3, "values": values}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--workloads")
    p.add_argument("--out")
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = (a.workloads.split(",") if a.workloads
             else [w["name"] for w in bench["workloads"]])
    summary = {}
    for name in names:
        runs = []
        for seed in a.seeds:
            runs.append(run_once(bench, name, seed))
            print("%s seed %d done in %.1f s" % (
                name, seed, runs[-1][1]["elapsed_s"]), file=sys.stderr)
        summary[name] = {"metrics": summarise(bench, runs),
                         "runs": [rec for _, rec in runs]}
        for metric, s in summary[name]["metrics"].items():
            print("%-11s %-12s median %12.6g %-4s spread %6.2f%% "
                  "(bound %g)%s" % (
                      name, metric, s["median"], s["unit"],
                      100 * s["spread"], s["bound"],
                      "" if s["steady"] else "  NOT STEADY"))
    if a.out:
        with open(a.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
