import ast
import gc
import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nestql import gen, lp
from nestql.detree import (
    decode_det, encode_det, eval_det, listify_type, print_path,
)
from nestql.lp import (
    compile_lp, eval_lp, goal_paths, goal_true, parse_lp, print_lp,
    run_lp,
)
from nestql.ma import UNIT_T, desugar, eval_ma, infer_type
from nestql.ma_text import parse_ma, print_ma
from nestql.reductions import (
    BUNDLED, flat_encode, gen_doubly_exp, gen_tm_query, gen_vprime,
)
from nestql.values import (
    BAG, LIST, SET, UNIT, CollType, ValueError_, make_coll, parse_type,
    parse_value, print_atom,
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


def test_every_compile_branch_prints_its_rules():
    """One program, with empty markers, that reaches every operator
    compile_lp knows: constants, sng, pi, tup, pairwith, map, multi-step
    eqatom paths, union, flatten and not."""
    q = parse_ma("tup[A = tup[B = 'b', C = 'b'], S = 'x' ; sng, U = tup[]]"
                 " ; pairwith[S] ; map(tup[E = eqatom[A.B, A.C], U = pi[U]]"
                 " ; pi[E]) ; union(id, empty) ; flatten ; not")
    got = print_lp(compile_lp(q, empty_markers=True))
    assert got == """\
input(e, dummy).  % base fact
p1(X, b) :- input(X, v).  % constant b
p2(X, b) :- input(X, v).  % constant b
p3(X, B.v) :- p1(X, v).  % create_tuple
p3(X, C.v) :- p2(X, v).  % create_tuple
p4(X, x) :- input(X, v).  % constant x
p5(X, s.v) :- p4(X, v).  % sng
p6(X, <>) :- input(X, v).  % constant unit
p7(X, A.v) :- p3(X, v).  % create_tuple
p7(X, S.v) :- p5(X, v).  % create_tuple
p7(X, U.v) :- p6(X, v).  % create_tuple
p8(X, i.S.v) :- p7(X, S.i.v).  % pairwith_S
p8(X, i.k\\S.w) :- p7(X, S.i.v), p7(X, k\\S.w).  % pairwith_S
p8(X, []) :- p7(X, S.[]).  % pairwith_S over empty
p9(X.i, v) :- p8(X, i.v).  % begin_map
p10(X, s.<>) :- p9(X, A.B.v), p9(X, A.C.v).  % eqatom
p10(X, []) :- p9(X, A.B.v), p9(X, A.C.w).  % eqatom possibly false
p11(X, v) :- p9(X, U.v).  % pi_U
p12(X, E.v) :- p10(X, v).  % create_tuple
p12(X, U.v) :- p11(X, v).  % create_tuple
p13(X, v) :- p12(X, E.v).  % pi_E
p14(X, i.v) :- p13(X.i, v).  % end_map
p14(X, []) :- p8(X, []).  % map over empty
p15(X, []) :- input(X, v).  % constant empty
p16(X, 1.v) :- p14(X, v).  % create_tuple
p16(X, 2.v) :- p15(X, v).  % create_tuple
p17(X, (1.i).v) :- p16(X, 1.i.v).  % union
p17(X, (2.i).v) :- p16(X, 2.i.v).  % union
p17(X, []) :- p16(X, 1.[]), p16(X, 2.[]).  % union of empties
p18(X, (i.j).v) :- p17(X, i.j.v).  % flatten
p18(X, []) :- p17(X, []).  % flatten of empty
p18(X, []) :- p17(X, i.[]).  % flatten of empty member
set_p18(X) :- input(X, v).  % set witness
ne_p18(X) :- p18(X, i.v).  % nonempty
p19(X, s.<>) :- set_p18(X), not ne_p18(X).  % not
p19(X, []) :- ne_p18(X).  % not of nonempty
% goal: p19
"""


def test_rule_comments_show_labels_as_printed_before():
    """A constant's comment prints its label as an atom, quoted where it
    must be; pi and pairwith comments write theirs bare."""
    q = parse_ma("""'"x y"' ; sng ; tup["x y" = id] ; pairwith["x y"]"""
                 """ ; map(pi["x y"])""")
    got = print_lp(compile_lp(q, empty_markers=True))
    assert got == """\
input(e, dummy).  % base fact
p1(X, "x y") :- input(X, v).  % constant "x y"
p2(X, s.v) :- p1(X, v).  % sng
p3(X, "x y".v) :- p2(X, v).  % create_tuple
p4(X, i."x y".v) :- p3(X, "x y".i.v).  % pairwith_x y
p4(X, i.k\\"x y".w) :- p3(X, "x y".i.v), p3(X, k\\"x y".w).  % pairwith_x y
p4(X, []) :- p3(X, "x y".[]).  % pairwith_x y over empty
p5(X.i, v) :- p4(X, i.v).  % begin_map
p6(X, v) :- p5(X, "x y".v).  % pi_x y
p7(X, i.v) :- p6(X.i, v).  % end_map
p7(X, []) :- p4(X, []).  % map over empty
% goal: p7
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


def test_predicate_names_that_need_quotes_round_trip():
    text = ('"a b"(e, x).\n"c d"(e).\n'
            'h(X, v) :- "a b"(X, v), not "c d"(X).\n% goal: h\n')
    prog = parse_lp(text)
    assert print_lp(prog) == text
    assert eval_lp(parse_lp(print_lp(prog)))[0] == eval_lp(prog)[0]
    # a quoted input predicate, as ma2lp --input-pred gives it
    prog = compile_lp(parse_ma("sng ; map(tup[A = id])"), input_pred="a b")
    assert print_lp(prog).startswith('"a b"(e, dummy).')
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


# two negations of one input, which once emitted its witness rules twice
DOUBLE_NOTS = ["sng ; tup[1 = not, 2 = not]", "sng ; union(not, not)"]


def test_predicate_dependencies_are_acyclic():
    """A compiled program's rules are in evaluation order, which parse_lp
    checks: every rule comes before the rules that read its head."""
    rng = random.Random(12)
    queries = [gen.gen_closed_query(rng, 5, LIST) for _ in range(30)]
    for q in queries + [parse_ma(text) for text in DOUBLE_NOTS]:
        prog = compile_lp(q, empty_markers=True)
        assert parse_lp(print_lp(prog)).rules == prog.rules


@pytest.mark.parametrize("text", DOUBLE_NOTS)
@pytest.mark.parametrize("markers", [False, True])
def test_two_negations_of_one_input_share_its_witnesses(text, markers):
    q = parse_ma(text)
    prog = compile_lp(q, empty_markers=markers)
    printed = print_lp(prog)
    for witness in ("set witness", "nonempty"):
        assert printed.count("% " + witness + "\n") == 1, printed
    # eval_det has no negation, so eval_ma is the one other route
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    got = decode_det(goal_paths(prog, eval_lp(prog)[0]), lt)
    assert got == eval_ma(q, UNIT, LIST)


def test_a_rule_after_a_reader_of_its_head_is_rejected():
    """The evaluator runs rules in their order, so a rule for a predicate
    that an earlier rule read would come too late for it."""
    with pytest.raises(ValueError_, match="predicate b is read by an "
                       "earlier rule, so 'b\\(e, y\\).' is out of "
                       "evaluation order"):
        parse_lp("a(e, x).\nh(X, v) :- a(X, v), b(X, w).\nb(e, y).\n")


def test_constant_spelled_like_a_marker_stays_an_atom():
    q = parse_ma("'\"[]\"' ; sng")
    text = print_lp(compile_lp(q))
    assert 'p1(X, "[]") :- input(X, v).' in text
    prog = parse_lp(text)
    rels, _ = eval_lp(prog)
    assert decode_det(goal_paths(prog, rels)) == eval_ma(q, UNIT, LIST)


@pytest.mark.parametrize("c", ["i", "v", "w1", "X", "ok", "a b", "a%b",
                               "a:-b"])
def test_constant_spelled_like_a_variable_roundtrips(c):
    """Constants and field labels spelled like rule variables print
    quoted, so the printed program reads back with the same meaning; so
    do labels that need quotes, also where a step variable excludes
    them, and labels holding the comment and rule separators."""
    a = print_atom(c)
    q = parse_ma("tup[%s = '%s' ; sng, B = 'b'] ; pairwith[%s]" % (a, a, a))
    prog = parse_lp(print_lp(compile_lp(q)))
    rels, _ = eval_lp(prog)
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    assert decode_det(goal_paths(prog, rels), lt) == eval_ma(q, UNIT, LIST)


def test_recursive_predicate_is_rejected():
    with pytest.raises(ValueError_, match="recursive predicate p"):
        eval_lp(parse_lp("a(e, x).\np(X, v) :- a(X, v), p(X, v).\n"))


def test_predicate_with_two_arities_is_rejected():
    """g is unary in its head and binary in h's body; its binary reading
    was silently empty, so h came out empty."""
    with pytest.raises(ValueError_, match="predicate g is used both as "
                       "unary and as binary"):
        parse_lp("a(e, x).\ng(X) :- a(X, v).\nh(X, v) :- g(X, v).\n")


def test_evaluators_leave_no_cyclic_garbage():
    """Each evaluation frees what it built by reference counting alone:
    with the cyclic collector off, it finds nothing afterwards."""
    q = gen_doubly_exp(2)
    core = desugar(q, UNIT_T, LIST)
    gc.collect()
    gc.disable()
    try:
        prog = compile_lp(core)
        assert gc.collect() == 0
        eval_lp(prog)
        assert gc.collect() == 0
        eval_det(core, encode_det(UNIT))
        assert gc.collect() == 0
        eval_ma(q, UNIT, SET)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_det_with_markers_leaves_no_cyclic_garbage():
    """The same for the path-set evaluator on a flat reassembly with empty
    markers on, which runs map, pairwith, flatten and the marker merges."""
    t = parse_type("<1: {Dom}, 2: {Dom}>")
    q = desugar(gen_vprime(t), parse_type(FLAT_DB_TYPE), LIST)
    v = gen.gen_flat_value(random.Random(5), t)
    paths = encode_det(flat_encode(v))
    gc.collect()
    gc.disable()
    try:
        out = eval_det(q, paths, empty_markers=True)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert decode_det(out, CollType(SET, t)) == make_coll(SET, [v])


# ---------------------------------------------------------------------------
# Join planning. The first six programs' derived relations were recorded
# with the nested-loop evaluator that the planned hash join replaced; the
# other four were worked out by hand, and the fact-by-fact matcher that
# the generated rule functions replaced derived the same.

def _fact_text(pred, pre, path=None) -> str:
    where = ".".join(["e"] + ([print_path(pre)] if pre else []))
    if path is None:
        return "%s(%s)" % (pred, where)
    return "%s(%s, %s)" % (pred, where, print_path(path))


def _printed_facts(rels) -> list:
    bin_rels, un_rels = rels
    return sorted([_fact_text(p, pre, path) for p, fs in bin_rels.items()
                   for pre, path in fs]
                  + [_fact_text(p, pre) for p, fs in un_rels.items()
                     for pre in fs])


PLANNER_CASES = {
    # a later atom whose prefix variable no earlier atom binds
    "unbound prefix": ("""\
a(e, 1.x).
a(e.p, 2.y).
a(e.p.q, 3.z).
b(e, m.n).
r(X, v) :- b(X, w), a(u, v).
s(u, k.v) :- b(X, k.w), a(u, v).
""", ["a(e, 1.x)", "a(e.p, 2.y)", "a(e.p.q, 3.z)", "b(e, m.n)",
      "r(e, 1.x)", "r(e, 2.y)", "r(e, 3.z)",
      "s(e, m.1.x)", "s(e.p, m.2.y)", "s(e.p.q, m.3.z)"]),
    # a prefix extension, after a bound prefix variable and as first atom
    "extended prefix": ("""\
a(e, 1.x).
a(e.p, 2.y).
a(e.p.q, 3.z).
b(e, m).
c(X, i.v) :- b(X, w), a(X.i, v).
d(X, i.v) :- a(X.i, v).
""", ["a(e, 1.x)", "a(e.p, 2.y)", "a(e.p.q, 3.z)", "b(e, m)",
      "c(e, p.2.y)", "d(e, p.2.y)", "d(e.p, q.3.z)"]),
    # a step variable shared by two atoms
    "shared step": ("""\
a(e, 1.x.o).
a(e, 2.y.o).
a(e.p, 1.z.o).
b(e, 1.t).
b(e, 3.t).
b(e.p, 1.y).
s(X, i.j.w) :- a(X, i.j.v), b(X, i.w).
""", ["a(e, 1.x.o)", "a(e, 2.y.o)", "a(e.p, 1.z.o)",
      "b(e, 1.t)", "b(e, 3.t)", "b(e.p, 1.y)",
      "s(e, 1.x.t)", "s(e.p, 1.z.y)"]),
    # k\1 in a first atom, unbound in a later one, and bound
    "exclusion": ("""\
a(e, 1.x).
a(e, 2.y).
a(e, c.z).
b(e, 1.p).
b(e, 2.q).
t1(X, k.w) :- a(X, k\\1.w).
t2(X, i.k.w) :- a(X, i.v), b(X, k\\1.w).
t3(X, k.w) :- a(X, k.v), b(X, k\\1.w).
""", ["a(e, 1.x)", "a(e, 2.y)", "a(e, c.z)", "b(e, 1.p)", "b(e, 2.q)",
      "t1(e, 2.y)", "t1(e, c.z)",
      "t2(e, 1.2.q)", "t2(e, 2.2.q)", "t2(e, c.2.q)", "t3(e, 2.q)"]),
    # unary atoms: positive and negated with a bound prefix, positive as
    # a first atom, and a unary head
    "unary": ("""\
a(e, 1.x).
a(e.p, 2.y).
a(e.p.q, 3.z).
has(e.p).
pos(X, v) :- a(X, v), has(X).
neg(X, v) :- a(X, v), not has(X).
some(u, ok) :- has(u).
seen(X) :- a(X, 2.v).
""", ["a(e, 1.x)", "a(e.p, 2.y)", "a(e.p.q, 3.z)", "has(e.p)",
      "neg(e, 1.x)", "neg(e.p.q, 3.z)", "pos(e.p, 2.y)", "seen(e.p)",
      "some(e.p, ok)"]),
    # v is dead after the first atom: its two bindings under i = 1 must
    # not derive the head facts twice
    "dead variable": ("""\
a(e, 1.x).
a(e, 1.y).
a(e, 2.z).
b(e, m).
b(e, n).
dup(X, i.w) :- a(X, i.v), b(X, w).
""", ["a(e, 1.x)", "a(e, 1.y)", "a(e, 2.z)", "b(e, m)", "b(e, n)",
      "dup(e, 1.m)", "dup(e, 1.n)", "dup(e, 2.m)", "dup(e, 2.n)"]),
    # the join variable v is dead after the second of three atoms: u = x
    # reaches the third atom once per binding of v, u = y not at all
    "dead join variable": ("""\
a(e, x.1).
a(e, x.2).
a(e, y.3).
b(e, 1).
b(e, 2).
c(e, x.z).
h(X, u.w) :- a(X, u.v), b(X, v), c(X, u.w).
""", ["a(e, x.1)", "a(e, x.2)", "a(e, y.3)", "b(e, 1)", "b(e, 2)",
      "c(e, x.z)", "h(e, x.z)"]),
    # pair steps built by a head and taken apart by bodies, one holding
    # a label
    "pair steps": ("""\
a(e, 1.x.o).
a(e, 2.y.o).
a(e.p, (1.z).o).
f(X, (i.j).v) :- a(X, i.j.v).
g(X, i.j.v) :- f(X, (i.j).v).
h(X, j.v) :- a(X, (1.j).v).
""", ["a(e, 1.x.o)", "a(e, 2.y.o)", "a(e.p, (1.z).o)",
      "f(e, (1.x).o)", "f(e, (2.y).o)", "g(e, 1.x.o)", "g(e, 2.y.o)",
      "h(e.p, z.o)"]),
    # a variable twice in one atom, as two steps and inside a pair
    "repeated variable": ("""\
a(e, 1.1.x).
a(e, 1.2.y).
a(e.p, 3.3.z).
a(e, (1.1).o).
a(e, (1.2).o).
r(X, i.v) :- a(X, i.i.v).
q(X, i.v) :- a(X, (i.i).v).
""", ["a(e, (1.1).o)", "a(e, (1.2).o)", "a(e, 1.1.x)", "a(e, 1.2.y)",
      "a(e.p, 3.3.z)", "q(e, 1.o)", "r(e, 1.x)", "r(e.p, 3.z)"]),
    # extensions of a prefix variable an earlier atom binds, by a
    # variable and a label in the body and in the head
    "extension of a bound prefix": ("""\
a(e, 1.x).
a(e.p, 2.y).
a(e.p.q, 3.z).
a(e.r.q, 4.o).
b(e, m).
b(e.p, n).
c(X, i.v) :- b(X, w), a(X.i.q, v).
d(X.i, v) :- b(X, w), a(X.i, v).
""", ["a(e, 1.x)", "a(e.p, 2.y)", "a(e.p.q, 3.z)", "a(e.r.q, 4.o)",
      "b(e, m)", "b(e.p, n)", "c(e, p.3.z)", "c(e, r.4.o)", "d(e.p, 2.y)",
      "d(e.p.q, 3.z)"]),
    # labels and predicates that are not Python identifiers, or name the
    # locals of a rule function
    "constants that are not identifiers": ("""\
"x\\"); y"(e, "\\\\".C0).
"x\\"); y"(e, K.out).
"x\\"); y"(e, "v0".C0).
out(X, K.v) :- "x\\"); y"(X, "\\\\".v).
add(X, "v0".k.v) :- "x\\"); y"(X, k\\K.v), out(X, K.v).
C0(X) :- add(X, "v0"."v0".C0).
""", ["C0(e)", 'add(e, v0."\\\\".C0)', "add(e, v0.v0.C0)", "out(e, K.C0)",
      'x"); y(e, "\\\\".C0)', 'x"); y(e, K.out)', 'x"); y(e, v0.C0)']),
}


@pytest.mark.parametrize("case", sorted(PLANNER_CASES))
def test_join_plan_derives_the_recorded_facts(case):
    text, want = PLANNER_CASES[case]
    assert _printed_facts(eval_lp(parse_lp(text))) == want


# the names a generated rule function may use: its parameters, the
# builtins it calls and numbered locals
_RULE_NAMES = re.compile(
    r"(bin_rels|un_rels|index|out|consts|add|len|type|tuple"
    r"|(c|p|s|x|t|d|rel|ix|un)[0-9]+)$")


def test_generated_rules_splice_in_no_constant():
    """Constants reach a rule function as data: its source holds no
    string literal and no name but its own, whatever the rule's labels,
    predicates and variables are called."""
    texts = [text for text, _ in PLANNER_CASES.values()]
    texts.append(print_lp(compile_lp(
        gen.gen_bool_query(random.Random(4), 3, LIST), empty_markers=True)))
    for text in texts:
        for r in parse_lp(text).rules:
            source = lp._RuleSource(r.shape).source()
            for node in ast.walk(ast.parse(source)):
                assert not (isinstance(node, ast.Constant)
                            and isinstance(node.value, str)), source
                if isinstance(node, (ast.Name, ast.arg)):
                    name = getattr(node, "id", None) or node.arg
                    assert _RULE_NAMES.match(name), (name, source)
            assert 'x"); y' not in source


def test_a_rule_joining_more_atoms_than_python_nests_loops():
    """Every variable stays live, so 24 atoms would be 24 nested loops;
    CPython compiles at most 20 nested blocks."""
    n = 24
    text = "a(e, 1.x).\na(e, 2.y).\nh(X, %s.v) :- %s.\n" % (
        ".".join("i%d" % k for k in range(n)),
        ", ".join("a(X, i%d.v)" % k for k in range(n)))
    rels, _ = eval_lp(parse_lp(text))
    assert rels["h"] == {((), ("1",) * n + ("x",)), ((), ("2",) * n + ("y",))}


def test_a_seen_rule_shape_generates_no_new_function():
    """Programs of one flat type share their rule shapes, so the second
    program evaluated finds every function made."""
    t = parse_type("<1: {Dom}, 2: <1: Dom, 2: Dom>>")
    q = desugar(gen_vprime(t), parse_type(FLAT_DB_TYPE), LIST)
    rng = random.Random(6)
    sizes = []
    for _ in range(2):
        prog = compile_lp(q, closed=False)
        paths = encode_det(flat_encode(gen.gen_flat_value(rng, t)))
        eval_lp(prog, {prog.input_pred: {((), p) for p in paths}})
        sizes.append(len(lp._RULES))
    assert sizes[1] == sizes[0]
    shapes = {r.shape for r in prog.rules}
    assert shapes <= set(lp._RULES) and len(shapes) < len(prog.rules) / 10


def _closed_programs(markers):
    for seed in range(200):
        q = gen.gen_closed_query(random.Random(seed), 4, LIST)
        yield compile_lp(q, empty_markers=markers), None


def _bool_programs():
    for seed in range(200):
        q = gen.gen_bool_query(random.Random(seed), 3, LIST)
        yield compile_lp(q, empty_markers=True), None


# the flat-encodable types up to depth 2, and the list reading of
# flat_encode's relations, the reassembly programs' input type
FLAT_TYPES = [
    "Dom", "<1: Dom, 2: Dom>", "{Dom}",
    "<1: <1: Dom, 2: Dom>, 2: Dom>", "<1: <1: Dom, 2: Dom>, 2: {Dom}>",
    "<1: <1: Dom, 2: Dom>, 2: <1: Dom, 2: Dom>>",
    "<1: Dom, 2: <1: Dom, 2: Dom>>", "<1: Dom, 2: {Dom}>",
    "<1: {Dom}, 2: Dom>", "<1: {Dom}, 2: <1: Dom, 2: Dom>>",
    "<1: {Dom}, 2: {Dom}>", "{<1: Dom, 2: Dom>}", "{{Dom}}",
]
FLAT_DB_TYPE = ("<atomic: [<1: Dom, 2: Dom>], set: [<1: Dom, 2: Dom>], "
                "pair: [<1: Dom, 2: Dom, 3: Dom>]>")


def _flat_programs():
    rng = random.Random(5)
    db_type = parse_type(FLAT_DB_TYPE)
    for text in FLAT_TYPES:
        t = parse_type(text)
        v = gen.gen_flat_value(rng, t)
        prog = compile_lp(desugar(gen_vprime(t), db_type, LIST),
                          closed=False)
        paths = encode_det(flat_encode(v))
        yield prog, {prog.input_pred: {((), p) for p in paths}}


# sha256 of the printed desugared forms of the reassembly query of each
# flat type, the K=1 acceptance query of each bundled machine with both
# equalities, and gen_typed_query seeds 0-99 under each semantics,
# recorded when desugar typed each composition level anew
DESUGAR_DIGEST = (
    "2e5651d6c093877a0d8af2aae728e6bf"
    "bcebd23c00493c4c8e7c1af3c3491996")


def test_desugared_queries_are_pinned():
    db = parse_type(FLAT_DB_TYPE)
    lines = [print_ma(desugar(gen_vprime(parse_type(t)), db, LIST))
             for t in FLAT_TYPES]
    for name, word in (("acceptor", ["1"]), ("guesser", ["1"]),
                       ("rejector", [])):
        for expand in (False, True):
            q = gen_tm_query(BUNDLED[name], word, 1, expand)
            lines.append(print_ma(desugar(q, UNIT_T, SET)))
    for sem in (SET, LIST, BAG):
        for seed in range(100):
            rng = random.Random(seed)
            t = gen.gen_type(rng, 3, sem)
            lines.append(print_ma(desugar(gen.gen_typed_query(rng, t, 3, sem),
                                          t, sem)))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == DESUGAR_DIGEST


PINNED_FACTS = {
    "closed": (
        lambda: _closed_programs(False),
        "9386b422cdd57e2680fe38dd1b8603abd93369b4a93df308824948565be74839"),
    "closed with empty markers": (
        lambda: _closed_programs(True),
        "3cb238e3195044eea5786b3a301dd0e6d82b77a1749b8e4fa10debb8dee1a038"),
    "bool": (
        _bool_programs,
        "5e55435dd34a44be488b652bcaec2ffa89db505af9df7b88a1fdece316e23f50"),
    "flat reassembly": (
        _flat_programs,
        "94259fa2b86864e55ce8bdba6a4ace1273022d87da0b61e399f83598872a1a33"),
}


# sha256 over print_lp of every program of the PINNED_FACTS families, in
# sorted family order, recorded when rules were built from pattern objects
COMPILED_TEXT_DIGEST = (
    "9280ec87ccf8a23b28c2b80ce44d1878"
    "796c1e59ff78e114de3644bdd29108be")


def test_compiled_program_text_is_pinned():
    h = hashlib.sha256()
    for family in sorted(PINNED_FACTS):
        for prog, _ in PINNED_FACTS[family][0]():
            h.update((print_lp(prog) + "--\n").encode())
    assert h.hexdigest() == COMPILED_TEXT_DIGEST


@pytest.mark.parametrize("family", sorted(PINNED_FACTS))
def test_every_derived_fact_is_pinned(family):
    """A sha256 over the printed facts of every relation eval_lp returns,
    program by program, recorded with the nested-loop evaluator."""
    programs, want = PINNED_FACTS[family]
    h = hashlib.sha256()
    for prog, facts in programs():
        h.update(("\n".join(_printed_facts(eval_lp(prog, facts)))
                  + "\n--\n").encode())
    assert h.hexdigest() == want


@pytest.mark.parametrize("text", [
    "<1: <1: Dom, 2: <1: Dom, 2: Dom>>, 2: <1: <1: Dom, 2: Dom>, 2: Dom>>",
    "{{{Dom}}}",
    "<1: {<1: Dom, 2: Dom>}, 2: {Dom}>",
    "{<1: {Dom}, 2: Dom>}",
    "<1: {{Dom}}, 2: <1: Dom, 2: Dom>>",
])
def test_depth3_flat_reassembly_through_both_path_routes(text):
    """The reassembly query rebuilds {v} from v's flat relations, on path
    sets and as a compiled program."""
    t = parse_type(text)
    v = gen.gen_flat_value(random.Random(3), t)
    q = desugar(gen_vprime(t), parse_type(FLAT_DB_TYPE), LIST)
    paths = encode_det(flat_encode(v))
    prog = compile_lp(q, closed=False)
    rels, _ = eval_lp(prog, {prog.input_pred: {((), p) for p in paths}})
    want = make_coll(SET, [v])
    for got in (eval_det(q, paths), goal_paths(prog, rels)):
        assert decode_det(got, CollType(SET, t)) == want


@pytest.mark.parametrize("rule, error", [
    ("h(X, w) :- a(X, v).", "head variable w is bound by no positive"),
    ("h(X, v) :- a(X, v), not b(u), a(u, w).",
     "variable u of a negated atom is bound by no earlier positive"),
    ("h(X, i.w) :- a(X, w.i).",
     "variable i is used both as a sequence of steps and as a single"),
    # a prefix may be empty, a rest may not: this rule derived h = {((), ())}
    ("h(u, u) :- a(u, v).",
     "variable u is used both as a prefix and as a rest"),
])
def test_unsafe_rules_are_rejected(rule, error):
    with pytest.raises(ValueError_, match=error):
        parse_lp("a(e, x.y.z).\nb(e).\n%s\n" % rule)


@pytest.mark.parametrize("family", sorted(PINNED_FACTS))
def test_compiled_programs_pass_the_safety_check(family):
    """Every compiled program of the pinned families (gen_closed_query
    seeds 0-199 among them) prints to text that parse_lp accepts."""
    programs, _ = PINNED_FACTS[family]
    for prog, _ in programs():
        assert parse_lp(print_lp(prog)).rules == prog.rules
