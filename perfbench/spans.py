"""Span tracing of the nestql layers, applied from outside the package.

A Tracer replaces each layer-boundary function listed in TRACED with a
wrapper, under every name that refers to it in any nestql module (so
``cli.print_value`` and ``cli.parse_ma``, imported directly, are caught
as well as ``values.print_value``). While a wrapped function runs, its
names point back at the original, so only the outermost call of a
recursive function (``eval_ma``, ``eval_det``, ``eval_xq``,
``print_value``, ``infer_type``, ...) records a span, and the recursion
itself runs at full speed.

Each span is ``[name, start, end, parent, op]``: the layer function,
perf_counter times, the index of the enclosing span (-1 at top level)
and the benchmark operation it belongs to. Spans stay in memory until
the run ends; a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

# module -> layer-boundary functions that get a span
TRACED = {
    "ma_text": ("parse_ma", "print_ma"),
    "values": ("print_value",),
    "ma": ("eval_ma", "infer_type", "desugar"),
    "detree": ("encode_det", "eval_det", "decode_det"),
    "lp": ("compile_lp", "eval_lp"),
    "xmlxq": ("parse_xq", "print_xq", "eval_xq"),
    "bridge": ("xq_to_ma", "ma_to_xq", "encode_C", "encode_T"),
    "reductions": ("gen_tm_query", "gen_doubly_exp", "gen_vprime",
                   "flat_encode"),
    "cli": ("main",),
}

# the two bridge encodings (tree -> value, value -> tree) share one name
SPAN_NAME = {("bridge", "encode_C"): "bridge.encode",
             ("bridge", "encode_T"): "bridge.encode"}


def traced():
    """(module, function, span name) for every traced function."""
    for mod, fns in TRACED.items():
        for fn in fns:
            yield mod, fn, SPAN_NAME.get((mod, fn), "%s.%s" % (mod, fn))


def span_names():
    return list(dict.fromkeys(name for _, _, name in traced()))


def _lp_facts(nq, args, kwargs, out):
    bin_rels, un_rels = out
    facts = kwargs.get("facts", args[1] if len(args) > 1 else None) or {}
    given = sum(len(fs) for fs in facts.values())
    derived = (sum(len(r) for r in bin_rels.values())
               + sum(len(r) for r in un_rels.values()) - given)
    goal = len(bin_rels.get(args[0].goal, ()))
    return {"facts": derived, "goal_facts": goal}


# counts taken from a traced call's arguments and result, outside its span
COUNTING = "trace.counting"
COUNTERS = {
    "ma.eval_ma": lambda nq, a, k, out: {
        "out_nodes": nq.values.value_nodes(out)},
    "values.print_value": lambda nq, a, k, out: {"chars": len(out)},
    "lp.compile_lp": lambda nq, a, k, out: {"rules": len(out.rules)},
    "lp.eval_lp": _lp_facts,
    "detree.eval_det": lambda nq, a, k, out: {"paths_out": len(out)},
    "ma.desugar": lambda nq, a, k, out: {"ast_out": nq.ma.ast_size(out)},
    "xmlxq.eval_xq": lambda nq, a, k, out: {
        "out_nodes": sum(nq.xmlxq.tree_nodes(t) for t in out)},
}


# the counts reported per operation; lp.eval_lp's goal facts only enter
# the goal ratio
COUNTED = (("ma.eval_ma", "out_nodes"), ("values.print_value", "chars"),
           ("lp.compile_lp", "rules"), ("lp.eval_lp", "facts"),
           ("detree.eval_det", "paths_out"), ("ma.desugar", "ast_out"),
           ("xmlxq.eval_xq", "out_nodes"))


class Tracer:
    def __init__(self, nq, modules):
        """nq holds the nestql modules by short name; modules lists every
        loaded nestql module, searched for names bound to a traced
        function."""
        self.nq = nq
        self.modules = modules
        self.spans = []
        self.counts = defaultdict(int)   # (span name, counter) -> total
        self.op = -1
        self._stack = []
        self._patches = []

    def install(self):
        for mod, fn, name in traced():
            orig = getattr(getattr(self.nq, mod), fn)
            aliases = [(m, attr) for m in self.modules
                       for attr, val in vars(m).items() if val is orig]
            wrapper = self._wrap(name, orig, aliases)
            for m, attr in aliases:
                setattr(m, attr, wrapper)
            self._patches.append((aliases, orig))

    def uninstall(self):
        for aliases, orig in self._patches:
            for m, attr in aliases:
                setattr(m, attr, orig)
        self._patches = []

    def _wrap(self, name, orig, aliases):
        tracer = self
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            for m, attr in aliases:
                setattr(m, attr, orig)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                for m, attr in aliases:
                    setattr(m, attr, wrapper)
            if counter is not None:
                # a span of its own, so that counting is not charged to
                # the caller's self time
                c0 = clock()
                for key, n in counter(tracer.nq, args, kwargs, out).items():
                    tracer.counts[name, key] += n
                tracer.spans.append(
                    [COUNTING, c0, clock(), span[3], tracer.op])
            return out

        return wrapper

    def summary(self):
        """Per span name: calls, busy seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["busy_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
