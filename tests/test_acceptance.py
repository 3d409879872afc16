"""End-to-end acceptance suite. Each test is one criterion and prints
one pass/fail line; time budgets are pinned per criterion.
"""

import time

import pytest

from nestql import checks, detree, lp, ma, reductions, xmlxq
from nestql.ma_text import parse_ma
from nestql.values import (
    ATOMIC, DEEP, SET, UNIT, parse_type, parse_value, print_value,
)


def report(name, ok, elapsed, budget):
    print("criterion %s: %s (%.2fs, budget %.0fs)"
          % (name, "pass" if ok else "FAIL", elapsed, budget))
    assert ok
    assert elapsed < budget, "over the %.0fs budget: %.2fs" % (budget,
                                                              elapsed)


def test_c01_path_set_evaluation_golden():
    t0 = time.monotonic()
    q = parse_ma("union('0' ; sng, '1' ; sng) ; tup[A = id, B = id] ; "
                 "pairwith[A] ; map(pairwith[B]) ; flatten")
    got = detree.print_pathset(detree.eval_closed(q))
    want = """\
((1.s).1.s).A.0
((1.s).1.s).B.0
((1.s).2.s).A.0
((1.s).2.s).B.1
((2.s).1.s).A.1
((2.s).1.s).B.0
((2.s).2.s).A.1
((2.s).2.s).B.1"""
    report("1 path-set golden", got == want, time.monotonic() - t0, 1)


def test_c02_compiled_program_golden():
    t0 = time.monotonic()
    q = parse_ma("tup[1 = '0' ; sng, 2 = '1' ; sng] ; union")
    prog = lp.compile_lp(q)
    want = """\
input(e, dummy).  % base fact
p1(X, 0) :- input(X, v).  % constant 0
p2(X, s.v) :- p1(X, v).  % sng
p3(X, 1) :- input(X, v).  % constant 1
p4(X, s.v) :- p3(X, v).  % sng
p5(X, 1.v) :- p2(X, v).  % create_tuple
p5(X, 2.v) :- p4(X, v).  % create_tuple
p6(X, (1.i).v) :- p5(X, 1.i.v).  % union
p6(X, (2.i).v) :- p5(X, 2.i.v).  % union
% goal: p6
"""
    rels, _ = lp.eval_lp(prog)
    goal = detree.print_pathset(lp.goal_paths(prog, rels))
    ok = lp.print_lp(prog) == want and goal == "(1.s).0\n(2.s).1"
    report("2 compiled program golden", ok, time.monotonic() - t0, 1)


def test_c03_flat_relation_reassembly_golden():
    t0 = time.monotonic()
    t = parse_type("{<1: Dom, 2: Dom>}")
    v = parse_value("{<1: a, 2: b>, <1: c, 2: d>}")
    db = reductions.flat_encode(v)
    positions = reductions.print_flat(db) == """\
atomic(3, a).
atomic(5, b).
atomic(9, c).
atomic(11, d).
set(1, 2).
set(1, 8).
pair(2, 3, 5).
pair(8, 9, 11).
"""
    pairs = print_value(ma.eval_ma(reductions.gen_vtau(t), db, SET)) \
        == "{<1: 1, 2: {{<1: a, 2: b>, <1: c, 2: d>}}>}"
    ok = positions and pairs
    report("3 flat reassembly golden", ok, time.monotonic() - t0, 1)


def test_c04_doubly_exponential_growth():
    t0 = time.monotonic()
    ok = all(
        len(ma.eval_ma(reductions.gen_doubly_exp(m), UNIT, SET).elems)
        == 2 ** 2 ** m for m in range(5))
    report("4 doubly exponential growth", ok, time.monotonic() - t0, 10)


def test_c05_tree_to_algebra_translation():
    t0 = time.monotonic()
    res = checks.suite_thm62(seed=62, cases=200)
    report("5 tree-to-algebra translation", res.ok,
           time.monotonic() - t0, 60)


def test_c06_algebra_to_tree_translation():
    t0 = time.monotonic()
    res = checks.suite_thm63(seed=63, cases=200)
    report("6 algebra-to-tree translation", res.ok,
           time.monotonic() - t0, 60)


def test_c07_triple_oracle_agreement():
    t0 = time.monotonic()
    res = checks.suite_oracles(seed=42, cases=300, bool_cases=200)
    report("7 triple oracle agreement", res.ok,
           time.monotonic() - t0, 120)


def test_c08_machine_acceptance_queries():
    ok = True
    total0 = time.monotonic()
    for name, tm in reductions.BUNDLED.items():
        t0 = time.monotonic()
        for w in checks.TM_WORDS[name]:
            got = reductions.decide_tm_query(tm, w, 1)
            want = reductions.simulate_ntm(tm, w, 2)
            ok = ok and got == want
        assert time.monotonic() - t0 < 60, "%s at K=1" % name
    for name, tm in reductions.BUNDLED.items():
        if reductions.tm_config_space(tm, 2) > reductions.MAX_CONFIG_PAIRS:
            continue
        for w in checks.TM_WORDS[name]:
            got = reductions.decide_tm_query(tm, w, 2)
            want = reductions.simulate_ntm(tm, w, 4)
            ok = ok and got == want
    report("8 machine acceptance", ok, time.monotonic() - total0, 600)


def test_c09_query_size_law():
    t0 = time.monotonic()
    res = checks.suite_size_law(tolerance=1.5)
    report("9 query size law", res.ok, time.monotonic() - t0, 5)


def test_c10_result_size_bound():
    t0 = time.monotonic()
    res = checks.suite_size_bound(seed=34, cases=300)
    report("10 result size bound", res.ok, time.monotonic() - t0, 60)


def test_c11_expanded_equality():
    t0 = time.monotonic()
    res = checks.suite_mon_eq(seed=31, types=20, per_type=15)
    report("11 expanded equality", res.ok, time.monotonic() - t0, 10)


def test_c12_tree_semantics_rules():
    t0 = time.monotonic()
    X = xmlxq
    doc = X.parse_xml("<r><a><c/></a><b/><a/></r>")
    flat = X.parse_xml("<r><a/><a/><b/></r>")

    def run(q, d=doc):
        return X.eval_xq(q, (d,))

    def show(trees):
        return [X.print_xml(t) for t in trees]

    rules = [
        lambda: show(run(X.EmptyElem("a"))) == ["<a/>"],
        lambda: show(run(X.Elem("x", X.Seq(X.EmptyElem("a"),
                                           X.EmptyElem("b"))))) ==
        ["<x><a/><b/></x>"],
        lambda: run(X.EmptySeq()) == [],
        lambda: show(run(X.Seq(X.EmptyElem("b"), X.EmptyElem("a")))) ==
        ["<b/>", "<a/>"],
        lambda: show(run(X.For(X.AxisStep(1, X.CHILD, "*"),
                               X.Var(2)))) ==
        ["<a><c/></a>", "<b/>", "<a/>"],
        lambda: show(run(X.Let(X.Elem("w", X.Var(1)), X.Var(2)))) ==
        ["<w><r><a><c/></a><b/><a/></r></w>"],
        lambda: run(X.Var(1)) == [doc],
        lambda: show(run(X.AxisStep(1, X.DESCENDANT, "c"))) == ["<c/>"],
        lambda: (show(run(X.If(X.EmptyElem("t"), X.EmptyElem("a")))) ==
                 ["<a/>"] and
                 run(X.If(X.EmptySeq(), X.EmptyElem("a"))) == []),
        lambda: (show(run(X.For(X.AxisStep(1, X.CHILD, "a"),
                                X.For(X.AxisStep(1, X.CHILD, "a"),
                                      X.VarEq(2, 3, DEEP))),
                          flat)) == ["<yes/>"] * 4 and
                 run(X.For(X.AxisStep(1, X.CHILD, "a"),
                           X.For(X.AxisStep(1, X.CHILD, "b"),
                                 X.VarEq(2, 3, DEEP))), flat) == []),
    ]
    ok = all(rule() for rule in rules)
    report("12 tree semantics rules", ok, time.monotonic() - t0, 1)
