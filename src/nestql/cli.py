"""Command-line entry point. Every pipeline is exposed as a subcommand
with file-based input and canonical text output; identical invocations
produce byte-identical output.

Exit codes: 0 on success, 1 when a decide- or check- command finds its
property false, 2 on parse, type, or runtime errors (reported on
standard error).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bridge, checks, detree, lp, ma, reductions, xmlxq
from .ma_text import parse_ma, print_ma
from .values import (
    BAG, LIST, SET, UNIT, ValueError_, parse_type, parse_value,
    print_chunks, value_nodes,
)

DEFAULT_MAX_NODES = 10 ** 7


class GuardError(Exception):
    pass


def _max_nodes() -> int:
    raw = os.environ.get("NESTQL_MAX_VALUE_NODES", "")
    if not raw:
        return DEFAULT_MAX_NODES
    try:
        return int(raw)
    except ValueError:
        raise GuardError("NESTQL_MAX_VALUE_NODES is not an integer: %r"
                         % raw)


def _guard(predicted: int, what: str):
    limit = _max_nodes()
    if predicted > limit:
        raise GuardError(
            "%s needs about %d value nodes, over the limit %d "
            "(raise NESTQL_MAX_VALUE_NODES to override)"
            % (what, predicted, limit))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _out(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _out_value(v):
    """Print a value's text, made whole before any of it is written, so
    a failure while printing leaves stdout empty. A value's text never
    ends in a newline."""
    chunks = print_chunks(v)
    chunks.append("\n")
    sys.stdout.writelines(chunks)


# ---------------------------------------------------------------------------
# Subcommand bodies. Each returns the process exit code.

def cmd_eval_ma(a) -> int:
    q = parse_ma(_read(a.query))
    v = parse_value(_read(a.input)) if a.input else UNIT
    out = ma.eval_ma(q, v, a.semantics)
    _guard(value_nodes(out), "the result")
    _out_value(out)
    return 0


def cmd_eval_xq(a) -> int:
    q = xmlxq.parse_xq(_read(a.query))
    doc = xmlxq.parse_xml(_read(a.doc))
    trees = xmlxq.eval_xq(q, (doc,))
    _guard(sum(map(xmlxq.tree_nodes, trees)), "the result")
    _out("\n".join(xmlxq.print_xml(t) for t in trees) if trees else "")
    return 0


def cmd_decide_xq(a) -> int:
    q = xmlxq.parse_xq(_read(a.query))
    doc = xmlxq.parse_xml(_read(a.doc))
    ok = xmlxq.decide_xq(q, doc)
    _out("true" if ok else "false")
    return 0 if ok else 1


def cmd_xq2ma(a) -> int:
    q = xmlxq.parse_xq(_read(a.query))
    _out(print_ma(bridge.xq_to_ma(q)))
    return 0


def cmd_ma2xq(a) -> int:
    q = parse_ma(_read(a.query))
    t = parse_type(a.type)
    _out(xmlxq.print_xq(bridge.ma_to_xq(q, t)))
    return 0


def _core(q, t):
    """Desugar extended operators; t is the input type to check against,
    or None for an open input given without one."""
    if ma.is_core(q):
        return q
    if t is None:
        raise GuardError("query uses extended operators; pass --type to "
                         "desugar against an input type")
    return ma.desugar(q, t, LIST)


def cmd_ma2lp(a) -> int:
    q = parse_ma(_read(a.query))
    t = parse_type(a.type) if a.type else None if a.open else ma.UNIT_T
    prog = lp.compile_lp(_core(q, t), closed=not a.open,
                         input_pred=a.input_pred,
                         empty_markers=a.empty_markers)
    _out(lp.print_lp(prog))
    return 0


def cmd_eval_lp(a) -> int:
    q = parse_ma(_read(a.query))
    v = parse_value(_read(a.input)) if a.input else None
    t = ma.type_of(v, LIST) if v is not None else ma.UNIT_T
    paths = lp.run_lp(_core(q, t), v, empty_markers=a.empty_markers)
    _out(detree.print_pathset(paths))
    return 0


def cmd_detree_encode(a) -> int:
    v = parse_value(_read(a.input))
    _out(detree.print_pathset(detree.encode_det(v)))
    return 0


def cmd_detree_eval(a) -> int:
    q = parse_ma(_read(a.query))
    if a.paths:
        V = detree.parse_pathset(_read(a.paths))
        t = parse_type(a.type) if a.type else None
        out = detree.eval_det(_core(q, t), V, empty_markers=a.empty_markers)
    else:
        out = detree.eval_closed(_core(q, ma.UNIT_T),
                                 empty_markers=a.empty_markers)
    _out(detree.print_pathset(out))
    return 0


def cmd_detree_decode(a) -> int:
    V = detree.parse_pathset(_read(a.paths))
    t = parse_type(a.type) if a.type else None
    _out_value(detree.decode_det(V, t))
    return 0


def _load_tm(spec: str) -> reductions.TMSpec:
    if spec in reductions.BUNDLED:
        return reductions.BUNDLED[spec]
    return reductions.parse_tm(_read(spec))


def _parse_word(raw: str):
    return tuple(s for s in raw.split(",") if s)


def cmd_gen_tm(a) -> int:
    tm = _load_tm(a.machine)
    word = _parse_word(a.word)
    q = reductions.gen_tm_query(tm, word, a.k, expand_eq=a.expand_eq)
    if not a.decide:
        _out(print_ma(q))
        return 0
    if a.expand_eq:
        # the plan lifts the atomic conjuncts of the spelled-out
        # equalities into selections (join keys at K=1), but at K >= 2
        # the zoom's keep branches still filter by a nested equality,
        # not a selection, so the branches are not distributed over the
        # product and every configuration pair is built. The filters
        # run that equality once per distinct labels it reads, not once
        # per pair, so the pairs are what this guard bounds
        _guard(reductions.tm_config_space(tm, a.k), "the configuration space")
    else:
        # the plan joins the pairs on their equalities and builds the
        # configuration set
        _guard(reductions.tm_config_nodes(tm, a.k), "the configuration set")
    ok = bool(ma.eval_ma(q, UNIT, SET).elems)
    _out("true" if ok else "false")
    return 0 if ok else 1


def cmd_gen_dexp(a) -> int:
    q = reductions.gen_doubly_exp(a.m)
    if not a.eval:
        _out(print_ma(q))
        return 0
    # 2^(2^m) nested pairs of depth m, each a full binary tree of
    # 2^(m+1) - 1 nodes, inside one set node.
    _guard(2 ** (2 ** a.m) * (2 ** (a.m + 1) - 1) + 1,
           "the doubly exponential result")
    _out_value(ma.eval_ma(q, UNIT, SET))
    return 0


def cmd_flat(a) -> int:
    v = parse_value(_read(a.input))
    _out(reductions.print_flat(reductions.flat_encode(v)))
    return 0


def cmd_vtau(a) -> int:
    t = parse_type(a.type)
    q = (reductions.gen_vprime(t) if a.prime
         else reductions.gen_vtau(t))
    _out(print_ma(q))
    return 0


def _run_suites(results) -> int:
    bad = False
    for r in results:
        _out(r.summary())
        for f in r.failures:
            _out("  " + f)
        bad = bad or not r.ok
    return 1 if bad else 0


def cmd_check_thm62(a) -> int:
    return _run_suites([checks.suite_thm62(a.seed, a.cases)])


def cmd_check_thm63(a) -> int:
    return _run_suites([checks.suite_thm63(a.seed, a.cases)])


def cmd_check_oracles(a) -> int:
    return _run_suites([
        checks.suite_oracles(a.seed, a.cases, min(a.cases, 200))])


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nestql",
        description="Workbench for monad algebra on complex values and "
                    "a core XML query language.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("eval-ma", cmd_eval_ma, "evaluate an algebra query")
    sp.add_argument("--query", required=True, help="query file")
    sp.add_argument("--input", help="input value file (default: unit)")
    sp.add_argument("--semantics", choices=(SET, LIST, BAG),
                    default=SET)

    sp = add("eval-xq", cmd_eval_xq, "evaluate a tree query on a document")
    sp.add_argument("--query", required=True)
    sp.add_argument("--doc", required=True, help="document file")

    sp = add("decide-xq", cmd_decide_xq,
             "Boolean reading of a tree query (exit 1 when false)")
    sp.add_argument("--query", required=True)
    sp.add_argument("--doc", required=True)

    sp = add("xq2ma", cmd_xq2ma, "translate a tree query to the algebra")
    sp.add_argument("--query", required=True)

    sp = add("ma2xq", cmd_ma2xq,
             "translate a tuple/list algebra query to a tree query")
    sp.add_argument("--query", required=True)
    sp.add_argument("--type", required=True,
                    help="input type, e.g. '{<A: Dom, B: Dom>}'")

    sp = add("ma2lp", cmd_ma2lp,
             "compile an algebra query to a logic program")
    sp.add_argument("--query", required=True)
    sp.add_argument("--open", action="store_true",
                    help="omit the base fact; input facts come later")
    sp.add_argument("--input-pred", default="input")
    sp.add_argument("--type",
                    help="input type used to desugar extended operators")
    sp.add_argument("--empty-markers", action="store_true",
                    help="forward empty-collection markers")

    sp = add("eval-lp", cmd_eval_lp,
             "compile and run the logic program, print the goal paths")
    sp.add_argument("--query", required=True)
    sp.add_argument("--input", help="input value file (default: closed)")
    sp.add_argument("--empty-markers", action="store_true")

    sp = add("detree-encode", cmd_detree_encode,
             "encode a value as its path set")
    sp.add_argument("--input", required=True)

    sp = add("detree-eval", cmd_detree_eval,
             "evaluate an algebra query on path sets")
    sp.add_argument("--query", required=True)
    sp.add_argument("--paths", help="input path set file (default: unit)")
    sp.add_argument("--type",
                    help="input type used to desugar extended operators")
    sp.add_argument("--empty-markers", action="store_true")

    sp = add("detree-decode", cmd_detree_decode,
             "decode a path set back to a value")
    sp.add_argument("--paths", required=True)
    sp.add_argument("--type",
                    help="target type; restores sets and bags, computed "
                         "empties and numeral tuple labels (without it, "
                         "collections decode as lists)")

    sp = add("gen-tm", cmd_gen_tm,
             "generate the machine acceptance query")
    sp.add_argument("--machine", required=True,
                    help="bundled name (%s) or a spec file"
                    % ", ".join(sorted(reductions.BUNDLED)))
    sp.add_argument("--word", default="",
                    help="comma-separated input symbols")
    sp.add_argument("--k", type=int, required=True,
                    help="time bound exponent: 2^k steps")
    sp.add_argument("--expand-eq", action="store_true",
                    help="expand structural equality componentwise")
    sp.add_argument("--decide", action="store_true",
                    help="evaluate instead of printing (exit 1 on reject)")

    sp = add("gen-dexp", cmd_gen_dexp,
             "generate the doubly exponential query")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--eval", action="store_true",
                    help="evaluate instead of printing")

    sp = add("flat", cmd_flat,
             "encode a set/pair value as position relations")
    sp.add_argument("--input", required=True)

    sp = add("vtau", cmd_vtau, "generate the flat-relation reassembly query")
    sp.add_argument("--type", required=True)
    sp.add_argument("--prime", action="store_true",
                    help="the {v}-computing pipeline instead of the pairs")

    for name, fn, help_ in (
            ("check-thm62", cmd_check_thm62,
             "random tree queries vs their algebra translations"),
            ("check-thm63", cmd_check_thm63,
             "random algebra queries vs their tree translations"),
            ("check-oracles", cmd_check_oracles,
             "direct, path-set, and logic-program evaluation agree")):
        sp = add(name, fn, help_)
        sp.add_argument("--seed", type=int,
                        default={"check-thm62": 62, "check-thm63": 63,
                                 "check-oracles": 42}[name])
        sp.add_argument("--cases", type=int, default=200)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError_, ma.MATypeError, GuardError, OSError,
            RecursionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (the input or the result is too large "
              "for the memory this process may use)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
