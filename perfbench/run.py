"""Closed-loop benchmark of the nestql workbench.

    python3 perfbench/run.py --workload tm-decide --seed 1 --seconds 15 --trace 0

One client sends one operation at a time, on one thread. The
workload's inputs are generated from --seed; the operations run in
rounds, each round the whole fixed set of operations, until the timed
operations add up to --seconds (at least one round). The rounds run in
worker processes started one after another, each with its own fixed
hash seed (see timed_run). The workers scale every time they measure to
a reference speed of the machine (see speed.py). Every output is checked
against a reference outside the timing. The last line of standard output
is the result as JSON; the line before it is a record with the seed,
Python version, CPU count, commit and the details behind each metric.
The exit code is 0 only when every operation passed.

With --trace 1 one process alternates untraced and traced rounds, and
the result holds per-layer metrics from spans around the package's
layer functions (see spans.py), per traced operation, plus the tracing
overhead: traced minus untraced round time. The spans are written to
perfbench/out/spans-<workload>.jsonl.gz.

--size tiny shrinks every workload to a few small operations; the
benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

import spans
import speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MODULES = ("values", "ma", "ma_text", "detree", "lp", "xmlxq", "bridge",
           "gen", "reductions", "checks", "cli")
SETUPS = 10       # set-ups per worker process; setup_s is their median
WORKER_SHARE = 4  # a worker process runs for this share of --seconds
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile


class MissingSources(Exception):
    pass


def load_nestql():
    """Import the package afresh from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "nestql" or n.startswith("nestql.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("nestql")
    except ImportError as e:
        raise MissingSources("cannot import nestql from %s: %s" % (SRC, e))
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(SRC, "nestql"):
        raise MissingSources("nestql was imported from %s, not from %s"
                             % (where, SRC))
    return SimpleNamespace(**{m: importlib.import_module("nestql." + m)
                              for m in MODULES})


def set_up(workload, seed, size):
    """Import plus input generation, timed together; returns the start
    and end times."""
    t0 = time.perf_counter()
    nq = load_nestql()
    inputs = workload.generate(nq, random.Random(seed), size)
    return (t0, time.perf_counter()), nq, inputs


def run_round(ops, tracer, first_op):
    """Run every operation once; returns (start, end, output, error)
    each."""
    if tracer is not None:
        tracer.install()
    results = []
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = first_op + i
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception:
                out, err = None, traceback.format_exc()
            results.append((t0, time.perf_counter(), out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results


def check_round(ops, results):
    """Number of operations that failed; each failure goes to stderr."""
    failed = 0
    for op, (_, _, out, err) in zip(ops, results):
        if err is None:
            try:
                err = op.check(out)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            failed += 1
            print("FAILED %s: %s" % (op.label, err), file=sys.stderr)
    return failed


def tail(latencies, per_round):
    """(value, percentile): the latency at the highest percentile that
    has at least TAIL_BEYOND samples beyond it within one round, so that
    every run, whatever its number of rounds, measures the same
    percentile. When that percentile would lie below the median (a round
    of at most 2 * TAIL_BEYOND operations), the maximum is reported,
    with percentile 100."""
    s = sorted(latencies)
    if per_round <= 2 * TAIL_BEYOND:
        return s[-1], 100.0
    pct = 100.0 * (per_round - TAIL_BEYOND) / per_round
    return s[math.ceil(pct / 100 * len(s)) - 1], pct


def end_to_end(setups, rounds, rss_mb):
    lat = [x for r in rounds for x in r]
    value, pct = tail(lat, len(rounds[0]))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(r) for r in rounds), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {"rounds": len(rounds), "ops_timed": len(lat),
               "round_s": [sum(r) for r in rounds],
               "op_tail_percentile": pct,
               "op_tail_samples_beyond": sum(x > value for x in lat)}
    return metrics, details


def per_layer(tracer, traced, untraced):
    """Layer metrics per traced operation, and the tracing overhead."""
    n = sum(len(r) for r in traced)
    summary = tracer.summary()
    metrics = {}
    for name in spans.span_names():
        s = summary[name]
        metrics[name + ".calls"] = (s["calls"] / n, "count/op")
        metrics[name + ".busy_s"] = (s["busy_s"] / n, "s/op")
        metrics[name + ".self_s"] = (s["self_s"] / n, "s/op")
    for layer in spans.TRACED:
        metrics[layer + ".self_s"] = (sum(
            s["self_s"] for name, s in summary.items()
            if name.startswith(layer + ".")) / n, "s/op")
    for name, key in spans.COUNTED:
        metrics["%s.%s" % (name, key)] = (
            tracer.counts[name, key] / n, "count/op")
    facts = tracer.counts["lp.eval_lp", "facts"]
    metrics["lp.goal_ratio"] = (
        tracer.counts["lp.eval_lp", "goal_facts"] / facts if facts else 0.0,
        "ratio")
    metrics["trace.counting_s"] = (
        summary[spans.COUNTING]["busy_s"] / n, "s/op")
    traced_wall = statistics.median(sum(r) for r in traced)
    untraced_wall = statistics.median(sum(r) for r in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def commit():
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the package sources: names the code under test even
    where there is no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nestql")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed operation seconds to run, in whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


class WorkerFailed(Exception):
    """A worker process exited without measurements; carries its code."""


def prepare(a, setups_n, clock):
    """Set up setups_n times, keep the last, and build the operations."""
    workload = WORKLOADS[a.workload]
    sys.path.insert(0, SRC)
    setups = []
    for _ in range(setups_n):
        (t0, t1), nq, inputs = set_up(workload, a.seed, a.size)
        setups.append(clock.scaled(t0, t1))
    return setups, nq, workload.ops(nq, inputs)


def run_rounds(ops, seconds, clock, tracer=None):
    """Whole rounds until the timed operations add up to seconds of
    unscaled time; with a tracer, every second round is traced. Returns
    the untraced and the traced rounds' latencies, as the clock scales
    them, each round's unscaled seconds and the number of failed
    operations."""
    rounds, traced, raw, failed = [], [], [], 0
    while True:
        gc.collect()
        ran = len(rounds) + len(traced)
        on = tracer is not None and ran % 2 == 1
        results = run_round(ops, tracer if on else None, ran * len(ops))
        (traced if on else rounds).append(
            [clock.scaled(t0, t1) for t0, t1, _, _ in results])
        raw.append(sum(clock.raw(t0, t1) for t0, t1, _, _ in results))
        failed += check_round(ops, results)
        # free the outputs before the next round adds to peak memory
        del results
        if sum(raw) >= seconds and (tracer is None or traced):
            return rounds, traced, raw, failed


def worker(a):
    """Measure in this process and print the numbers as JSON. Times are
    scaled to the reference speed by a speed.Meter sampling throughout."""
    meter = speed.Meter()
    meter.start()
    try:
        setups, _, ops = prepare(a, SETUPS, meter)
        rounds, _, raw, failed = run_rounds(ops, a.seconds, meter)
    finally:
        meter.stop()
    print(json.dumps({"setups": setups, "rounds": rounds, "raw_s": raw,
                      "failed": failed,
                      "calibration_s": statistics.median(meter.cal)}))
    return 0


def timed_run(a):
    """Run worker processes one after another, worker i with
    PYTHONHASHSEED=i, each for 1/WORKER_SHARE of --seconds, until their
    timed rounds add up to --seconds, and pool what they measured.

    The hash seed alone moves the speed of a whole process by up to a
    third, as it decides set and dict iteration orders. Every run pools
    the same hash seeds, so runs differ only in their inputs and in
    machine noise, and no single hash seed decides the result."""
    setups, rounds, raw, cal, failed = [], [], [], [], 0
    while not rounds or sum(raw) < a.seconds:
        i = len(setups) // SETUPS
        cmd = [sys.executable, sys.argv[0], "--workload", a.workload,
               "--seed", str(a.seed), "--size", a.size,
               "--seconds", repr(a.seconds / WORKER_SHARE),
               "--worker", str(i)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=str(i)))
        if p.returncode != 0:
            raise WorkerFailed(p.returncode)
        w = json.loads(p.stdout.splitlines()[-1])
        setups += w["setups"]
        rounds += w["rounds"]
        raw += w["raw_s"]
        cal.append(w["calibration_s"])
        failed += w["failed"]
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return setups, rounds, [], failed, None, {
        "workers": i + 1, "round_unscaled_s": raw,
        "calibration_s": cal}, rss


def traced_run(a):
    """One process alternating untraced and traced rounds."""
    clock = speed.Plain()
    setups, nq, ops = prepare(a, 1, clock)
    tracer = spans.Tracer(nq, [m for n, m in sys.modules.items()
                               if n.startswith("nestql.")])
    rounds, traced, _, failed = run_rounds(ops, a.seconds, clock, tracer)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return setups, rounds, traced, failed, tracer, {}, rss


def main(argv=None):
    a = parse_args(argv)
    try:
        if a.worker is not None:
            return worker(a)
        setups, rounds, traced, failed, tracer, details, rss = (
            traced_run(a) if a.trace else timed_run(a))
    except MissingSources as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except WorkerFailed as e:
        return e.args[0]

    attempted = sum(len(r) for r in rounds + traced)
    e2e, more = end_to_end(setups, rounds, rss)
    details.update(more)
    if a.trace:
        metrics = per_layer(tracer, traced, rounds)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "spans-%s.jsonl.gz" % a.workload))
        details["spans"] = len(tracer.spans)
    else:
        metrics = e2e
    record = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "size": a.size, "trace": a.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(), "src_sha256": source_digest(),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "setups_s": setups,
        "end_to_end": {k: v for k, (v, _) in e2e.items()}, **details,
    }
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
