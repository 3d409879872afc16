import hashlib
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
    parse_type, parse_value, print_type, print_value, value_equal,
    value_nodes,
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


# Printed draws of the seeded query generators, recorded before the
# typed and pair-list generators shared one implementation. The
# property suites, the seeded check commands and the benchmark draw
# from these generators, so a drift changes what they measure.

def _draw(kind, seed):
    rng = random.Random(seed)
    if kind.startswith("typed-"):
        sem = kind[len("typed-"):]
        t = gen.gen_type(rng, 3, sem)
        return "%s | %s" % (print_type(t),
                            print_ma(gen.gen_typed_query(rng, t, 3, sem)))
    if kind == "closed":
        return print_ma(gen.gen_closed_query(rng, 4, LIST))
    if kind == "bool":
        return print_ma(gen.gen_bool_query(rng, 3, LIST))
    t = gen.gen_pairlist_type(rng, 2)
    return "%s | %s" % (print_type(t),
                        print_ma(gen.gen_pairlist_query(rng, t, 3)))


GENERATOR_KINDS = ("typed-set", "typed-list", "typed-bag", "closed", "bool",
                   "pairlist")


GENERATOR_GOLDEN = [
    ("typed-set", 0,
     '<A: Dom, B: <A: <A: Dom, B: Dom>, B: <A: Dom, B: Dom, C: Dom>, C: '
     "Dom>> | 'c'"),
    ("typed-set", 1, "Dom | 'c'"),
    ("typed-set", 2, "Dom | 'a'"),
    ("typed-set", 3, 'Dom | unit'),
    ("typed-set", 4, 'Dom | empty'),
    ("typed-list", 0,
     '<A: Dom, B: <A: <A: Dom, B: Dom>, B: <A: Dom, B: Dom, C: Dom>, C: '
     "Dom>> | 'c'"),
    ("typed-list", 1, "Dom | 'c'"),
    ("typed-list", 2, "Dom | 'a'"),
    ("typed-list", 3, 'Dom | unit'),
    ("typed-list", 4, 'Dom | empty'),
    ("typed-bag", 0,
     '<A: Dom, B: <A: <A: Dom, B: Dom>, B: <A: Dom, B: Dom, C: Dom>, C: '
     "Dom>> | 'c'"),
    ("typed-bag", 1, "Dom | 'c'"),
    ("typed-bag", 2, "Dom | 'a'"),
    ("typed-bag", 3, 'Dom | unit'),
    ("typed-bag", 4, 'Dom | empty'),
    ("closed", 0, "union('a' ; sng, 'b' ; sng) ; id"),
    ("closed", 1, "tup[1 = 'a', 2 = 'b'] ; sng ; 'c'"),
    ("closed", 2, "'a' ; sng ; 'c'"),
    ("closed", 3, "tup[1 = 'a', 2 = 'b'] ; sng ; map(unit)"),
    ("closed", 4, "union('a' ; sng, 'b' ; sng) ; 'd'"),
    ("bool", 0,
     "union(union('a' ; sng, 'b' ; sng) ; empty ; map(unit) ; not, "
     "union(union('a' ; sng, 'b' ; sng) ; unit ; sng ; map(unit) ; not ; "
     "not, tup[1 = tup[1 = 'a', 2 = 'b'] ; sng ; map(unit) ; map(unit) ; "
     "not, 2 = 'c' ; sng ; 'c' ; sng ; map(unit) ; not] ; union))"),
    ("bool", 1, "union('a' ; sng, 'b' ; sng) ; 'd' ; sng ; map(unit) ; not"),
    ("bool", 2, "'c' ; sng ; union(empty, empty) ; map(unit) ; not ; not"),
    ("bool", 3,
     "union('a' ; sng, 'b' ; sng) ; map(tup[1 = empty, 2 = id]) ; "
     'map(unit) ; not'),
    ("bool", 4,
     "tup[1 = 'a', 2 = 'b'] ; sng ; unit ; 'a' ; sng ; map(unit) ; not"),
    ("pairlist", 0, '<A: Dom, B: <A: Dom, B: Dom, C: Dom>> | tup[1 = pi[A]]'),
    ("pairlist", 1, "Dom | 'c'"),
    ("pairlist", 2, "Dom | 'a'"),
    ("pairlist", 3, 'Dom | unit'),
    ("pairlist", 4, 'Dom | empty'),
]

# sha256 of the draws for seeds 0-299 of every kind, one per line
GENERATOR_DIGEST = (
    "05744e4e0dd67e0e042ef22bfc1ffee2"
    "e08969654bc37bd4750d870f0834f3ac")


def test_generator_draws_are_pinned():
    got = [(kind, seed, _draw(kind, seed)) for kind, seed, _ in
           GENERATOR_GOLDEN]
    assert got == GENERATOR_GOLDEN


def test_generator_draws_digest():
    """Seeds 0-4 rarely reach selections or nested collections; the
    digest covers 300 seeds of each kind."""
    text = "\n".join(_draw(kind, seed) for kind in GENERATOR_KINDS
                     for seed in range(300))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGEST
