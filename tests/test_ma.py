import random

import pytest
from hypothesis import given, settings, strategies as st

from nestql import gen
from nestql.ma import (
    CartProd, Compose, Const, EqAtomic, Flatten, Id, MAExpr, MATypeError,
    Map, PairWith, Proj, Proj_chain, Sng, TupleCons, Union, UnitTuple,
    ast_size, compose, desugar, eval_ma, expand_mon_eq, infer_type,
    is_core, size_bound, type_of,
)
from nestql.ma_text import parse_ma, print_ma
from nestql.values import (
    BAG, LIST, MON, SET, UNIT, UNIT_T, Atom, make_coll, make_tuple,
    parse_type, parse_value, print_value, value_equal, value_nodes,
)


def ev(text, v=UNIT, sem=SET):
    return eval_ma(parse_ma(text), v, sem)


def test_singleton_and_flatten():
    assert ev("'a' ; sng ; sng ; flatten") == parse_value("{a}")


def test_map_applies_per_element():
    out = ev("map(tup[X = id])", parse_value("{a, b}"))
    assert out == parse_value("{<X: a>, <X: b>}")


def test_pairwith_copies_the_other_fields():
    v = parse_value("<A: {a, b}, B: c>")
    out = ev("pairwith[A]", v)
    assert out == parse_value("{<A: a, B: c>, <A: b, B: c>}")


def test_union_set_deduplicates_list_concatenates():
    q = "union('a' ; sng, 'a' ; sng)"
    assert ev(q) == parse_value("{a}")
    assert ev(q, sem=LIST) == parse_value("[a, a]")


def test_eqatomic_is_boolean():
    v = parse_value("<A: a, B: a>")
    assert ev("eqatom[A, B]", v) == parse_value("{<>}")
    assert ev("eqatom[A, B]", parse_value("<A: a, B: b>")) == \
        parse_value("{}")


def test_type_error_on_missing_projection_field():
    with pytest.raises(MATypeError):
        infer_type(Proj("A"), UNIT_T, SET)


def test_infer_type_tracks_semantics():
    t = infer_type(parse_ma("'a' ; sng"), UNIT_T, LIST)
    assert "[" in str(t) or t.kind == LIST


@given(st.integers(0, 10 ** 6))
def test_eval_matches_inferred_type(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, SET)
    q = gen.gen_typed_query(rng, t, 3, SET)
    v = gen.gen_value(rng, t)
    from nestql.values import type_ok
    assert type_ok(eval_ma(q, v, SET), infer_type(q, t, SET))


@given(st.integers(0, 10 ** 6))
def test_desugar_preserves_meaning(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, SET)
    q = gen.gen_typed_query(rng, t, 3, SET)
    v = gen.gen_value(rng, t)
    core = desugar(q, t, SET)
    assert is_core(core)
    assert eval_ma(core, v, SET) == eval_ma(q, v, SET)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_result_size_within_bound(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, SET)
    q = gen.gen_typed_query(rng, t, 3, SET)
    v = gen.gen_value(rng, t)
    n = value_nodes(v)
    assert value_nodes(eval_ma(q, v, SET)) <= size_bound(q, n)


@given(st.integers(0, 10 ** 6))
def test_query_print_parse_roundtrip(seed):
    """Reparsing may reassociate composition chains, so the check is
    that the printed form is a fixpoint and the meaning is unchanged."""
    rng = random.Random(seed)
    q = gen.gen_closed_query(rng, 4, LIST)
    q2 = parse_ma(print_ma(q))
    assert print_ma(q2) == print_ma(q)
    assert eval_ma(q2, UNIT, LIST) == eval_ma(q, UNIT, LIST)


def test_expanded_equality_on_pairs():
    rng = random.Random(5)
    t = gen.gen_type(rng, 2, SET, set_free=True)
    eq = expand_mon_eq(t)
    v = gen.gen_value(rng, t)
    w = gen.gen_value(rng, t)
    inp = make_tuple((("A", v), ("B", w)))
    got = bool(eval_ma(eq, inp, SET).elems)
    assert got == value_equal(v, w, MON)


def test_ast_size_counts_nodes():
    assert ast_size(Id()) == 1
    assert ast_size(compose(Id(), Sng())) == 3


# Direct meaning of the nonmonotone operators that compare members by
# structural equality: (query, input, semantics, printed result).
NONMONOTONE_CASES = [
    ("diff", "<1: {a, b, c}, 2: {b, d}>", SET, "{a, c}"),
    ("diff", "<1: {{a}, {a, b}, {}}, 2: {{b, a}, {c}}>", SET, "{{}, {a}}"),
    ("diff",
     "<1: {<A: a, B: {b}>, <A: a, B: {}>}, 2: {<A: a, B: {b}>}>", SET,
     "{<A: a, B: {}>}"),
    ("diff", "<1: [a, b, a, c, b], 2: [a, d]>", LIST, "[b, c, b]"),
    ("diff",
     "<1: [[a, b], [b, a], [a, b]], 2: [[b, a]]>", LIST,
     "[[a, b], [a, b]]"),
    ("diff", "<1: {|a, a, b, c|}, 2: {|a, c, c|}>", BAG, "{|b|}"),
    ("cap", "<1: {a, b, c}, 2: {c, a, d}>", SET, "{a, c}"),
    ("cap",
     "<1: {<A: a, B: {b}>, <A: b, B: {}>}, 2: {<A: b, B: {}>, <A: a, "
     "B: {}>}>", SET,
     "{<A: b, B: {}>}"),
    ("cap", "<1: [c, b, a, b], 2: [a, b, b]>", LIST, "[b, a, b]"),
    ("cap", "<1: [[a], [a, a], [a]], 2: [[a]]>", LIST, "[[a], [a]]"),
    ("cap", "<1: {|a, a, b, c|}, 2: {|a, c, c|}>", BAG, "{|a, a, c|}"),
    ("subseteq[A, B]", "<A: {a, b}, B: {a, b, c}>", SET, "{<>}"),
    ("subseteq[A, B]", "<A: {a, d}, B: {a, b, c}>", SET, "{}"),
    ("subseteq[A, B]", "<A: {}, B: {}>", SET, "{<>}"),
    ("subseteq[A.C, B]",
     "<A: <C: {{a}, {}}>, B: {{}, {a}, {b}}>", SET,
     "{<>}"),
    ("subseteq[A, B]", "<A: [a, a, b], B: [b, a]>", LIST, "[<>]"),
    ("subseteq[A, B]", "<A: [<C: a>], B: [<C: b>]>", LIST, "[]"),
    ("subseteq[A, B]", "<A: {|a, a|}, B: {|a|}>", BAG, "{|<>|}"),
    ("in[A, B]", "<A: {a}, B: {{a}, {b}}>", SET, "{<>}"),
    ("in[A, B]", "<A: {c}, B: {{a}, {b}}>", SET, "{}"),
    ("in[A, B]",
     "<A: <C: a, D: [b]>, B: [<C: a, D: [b, b]>, <C: a, D: [b]>]>", LIST,
     "[<>]"),
    ("in[A, B]", "<A: a, B: []>", LIST, "[]"),
    ("in[A, B]", "<A: {|a, b|}, B: {|{|b, a|}, {|a|}|}>", BAG, "{|<>|}"),
    ("nest[C = (B)]",
     "{<A: a, B: b>, <A: a, B: c>, <A: b, B: b>}", SET,
     "{<A: a, C: {<B: b>, <B: c>}>, <A: b, C: {<B: b>}>}"),
    ("nest[D = (B)]",
     "{<A: {a}, B: b, C: c>, <A: {a}, B: c, C: c>, <A: {}, B: b, C: c>}", SET,
     "{<A: {}, C: c, D: {<B: b>}>, <A: {a}, C: c, D: {<B: b>, <B: c>}>}"),
    ("nest[C = (A, B)]",
     "{<A: a, B: b>, <A: b, B: c>}", SET,
     "{<C: {<A: a, B: b>, <A: b, B: c>}>}"),
    ("nest[C = (B)]",
     "[<A: b, B: c>, <A: a, B: b>, <A: b, B: c>, <A: a, B: a>]", LIST,
     "[<A: b, C: [<B: c>, <B: c>]>, <A: a, C: [<B: b>, <B: a>]>]"),
    ("nest[C = (B)]",
     "[<A: [a, b], B: c>, <A: [b, a], B: c>, <A: [a, b], B: d>]", LIST,
     "[<A: [a, b], C: [<B: c>, <B: d>]>, <A: [b, a], C: [<B: c>]>]"),
    ("nest[C = (B)]",
     "{|<A: a, B: b>, <A: a, B: b>, <A: b, B: c>|}", BAG,
     "{|<A: a, C: {|<B: b>, <B: b>|}>, <A: b, C: {|<B: c>|}>|}"),
    ("monus", "<1: {|a, a, b, c|}, 2: {|a, c, d|}>", BAG, "{|a, b|}"),
    ("monus",
     "<1: {|<A: {|a|}>, <A: {|a|}>, <A: {|b, b|}>|}, 2: {|<A: {|a|}>, "
     "<A: {|b|}>, <A: {|b, b|}>|}>", BAG,
     "{|<A: {|a|}>|}"),
    ("monus", "<1: {||}, 2: {|a|}>", BAG, "{||}"),
    ("unique", "{|a, b, a, a|}", BAG, "{|a, b|}"),
    ("unique",
     "{|<A: a, B: {|a, a|}>, <A: a, B: {|a, a|}>, <A: a, B: {|a|}>, "
     "<A: b, B: {||}>|}", BAG,
     "{|<A: a, B: {|a|}>, <A: a, B: {|a, a|}>, <A: b, B: {||}>|}"),
    ("unique", "{|{|b, a|}, {|a, b|}, {|a|}|}", BAG, "{|{|a|}, {|a, b|}|}"),
]


@pytest.mark.parametrize("query,value,sem,want", NONMONOTONE_CASES)
def test_nonmonotone_operators_direct_meaning(query, value, sem, want):
    q, v = parse_ma(query), parse_value(value)
    infer_type(q, type_of(v, sem), sem)
    assert print_value(eval_ma(q, v, sem)) == want


def test_deep_selection_expands_by_both_sides():
    """An empty literal of unknown element type compared with a list: the
    desugared selection must type and agree with the original."""
    q = parse_ma("tup[1 = empty, 2 = empty] ; pairwith[1] ; select[1 = 2]"
                 " ; tup[1 = 'c']")
    t = parse_type("[[Dom]]")
    v = parse_value("[[a]]")
    core = desugar(q, t, LIST)
    assert infer_type(core, t, LIST) == infer_type(q, t, LIST)
    assert print_value(eval_ma(core, v, LIST)) == \
        print_value(eval_ma(q, v, LIST)) == "<1: c>"
