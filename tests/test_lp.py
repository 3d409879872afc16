import random

import pytest
from hypothesis import given, settings, strategies as st

from nestql import gen
from nestql.detree import decode_det, listify_type
from nestql.lp import (
    compile_lp, eval_lp, goal_paths, goal_true, parse_lp, print_lp,
    run_lp,
)
from nestql.ma import UNIT_T, eval_ma, infer_type
from nestql.ma_text import parse_ma
from nestql.values import (
    LIST, SET, UNIT, parse_type, parse_value, print_atom,
)


def test_closed_program_text_is_stable():
    q = parse_ma("'a' ; sng ; tup[1 = id, 2 = id]")
    got = print_lp(compile_lp(q))
    assert got == """\
input(e, dummy).  % base fact
p1(X, a) :- input(X, v).  % constant a
p2(X, s.v) :- p1(X, v).  % sng
p3(X, 1.v) :- p2(X, v).  % create_tuple
p3(X, 2.v) :- p2(X, v).  % create_tuple
% goal: p3
"""


def test_program_print_parse_roundtrip():
    rng = random.Random(8)
    for _ in range(50):
        q = gen.gen_closed_query(rng, 4, LIST)
        prog = compile_lp(q, empty_markers=True)
        again = parse_lp(print_lp(prog))
        assert print_lp(again) == print_lp(prog)
        assert goal_paths(again, eval_lp(again)[0]) == \
            goal_paths(prog, eval_lp(prog)[0])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_goal_paths_decode_to_the_direct_result(seed):
    rng = random.Random(seed)
    q = gen.gen_closed_query(rng, 4, LIST)
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    got = decode_det(run_lp(q, empty_markers=True), lt)
    assert got == eval_ma(q, UNIT, LIST)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_negation_goal_truth_matches_direct(seed):
    rng = random.Random(seed)
    q = gen.gen_bool_query(rng, 3, LIST)
    direct = bool(eval_ma(q, UNIT, LIST).elems)
    prog = compile_lp(q, empty_markers=True)
    rels, _ = eval_lp(prog)
    assert goal_true(prog, rels) == direct


def test_open_program_reads_supplied_input():
    v = parse_value("{<A: a, B: b>, <A: c, B: c>}")
    q = parse_ma("map(eqatom[A, B]) ; flatten")
    t = parse_type("{<A: Dom, B: Dom>}")
    lt = listify_type(infer_type(q, t, SET))
    got = decode_det(run_lp(q, v, empty_markers=True), lt)
    want = eval_ma(q, v, LIST)
    assert got == want


def test_predicate_dependencies_are_acyclic():
    rng = random.Random(12)
    for _ in range(30):
        q = gen.gen_closed_query(rng, 5, LIST)
        prog = compile_lp(q, empty_markers=True)
        # evaluation orders predicates topologically and raises on cycles
        eval_lp(prog)


def test_constant_spelled_like_a_marker_stays_an_atom():
    q = parse_ma("'\"[]\"' ; sng")
    text = print_lp(compile_lp(q))
    assert 'p1(X, "[]") :- input(X, v).' in text
    prog = parse_lp(text)
    rels, _ = eval_lp(prog)
    assert decode_det(goal_paths(prog, rels)) == eval_ma(q, UNIT, LIST)


@pytest.mark.parametrize("c", ["i", "v", "w1", "X", "ok", "a b"])
def test_constant_spelled_like_a_variable_roundtrips(c):
    """Constants and field labels spelled like rule variables print
    quoted, so the printed program reads back with the same meaning; so
    do labels that need quotes, also where a step variable excludes
    them."""
    a = print_atom(c)
    q = parse_ma("tup[%s = '%s' ; sng, B = 'b'] ; pairwith[%s]" % (a, a, a))
    prog = parse_lp(print_lp(compile_lp(q)))
    rels, _ = eval_lp(prog)
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    assert decode_det(goal_paths(prog, rels), lt) == eval_ma(q, UNIT, LIST)
