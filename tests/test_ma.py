import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from nestql import gen
from nestql.ma import (
    CAnd, CIff, CNot, CORE_NODES, COr, CartProd, Compose, Const, Diff,
    EmptyColl, EqAtomic, EqDeep, EqMon, FlatMap, Flatten, HashJoin, Id,
    Intersect, MAExpr, MATypeError, Map, MemberOf, Monus, Nest, NotOp,
    PairWith, PathEqConst, PathEqPath, PathInSet, Proj, Proj_chain, SelCond,
    Select, Sng, SubsetEq, TrueOp, TupleCons, Union, UnionT, Unique,
    UnitTuple, _COMPILE, _CORE, _TYPE, _subexprs, _walk, ast_size, compose, desugar,
    eval_ma, expand_mon_eq, infer_type, is_core, size_bound, type_join,
    type_of,
)
from nestql.ma_text import parse_ma, print_ma
from nestql.values import (
    ATOMIC, BAG, DEEP, LIST, MON, SET, UNIT, UNIT_T, Atom, CollType,
    TupleType, ValueError_, make_coll, make_tuple, parse_type, parse_value,
    print_type, print_value, value_equal, value_nodes,
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
    want = infer_type(q, t, SET)
    out = eval_ma(q, v, SET)
    assert type_join(type_of(out, SET), want, "result") == want


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


# Each operator spelling, the node it parses to and, where it differs
# from the spelling, the text that node prints as.
SPELLINGS = [
    ("id", Id()), ("sng", Sng()), ("flatten", Flatten()),
    ("unit", UnitTuple()), ("empty", EmptyColl()), ("not", NotOp()),
    ("true", TrueOp()), ("monus", Monus()), ("unique", Unique()),
    ("diff", Diff()), ("cap", Intersect()), ("union", UnionT()),
    ("eqatom[A, B.C]", EqAtomic(("A",), ("B", "C"))),
    ("eqmon[A, B]", EqMon(("A",), ("B",))),
    ("eq[A, B]", EqDeep(("A",), ("B",))),
    ("subseteq[A, B]", SubsetEq(("A",), ("B",))),
    ("in[A, B]", MemberOf(("A",), ("B",))),
    ("select[A =atom B]", Select(PathEqPath(("A",), ("B",), ATOMIC))),
    ("select[A =mon 'a']", Select(PathEqConst(("A",), "a", MON))),
    ("select[A = B.C]", Select(PathEqPath(("A",), ("B", "C"), DEEP))),
    ("select[A = 'a']", Select(PathEqConst(("A",), "a", DEEP))),
    ("select[A = B <=> !C =atom 'c']",
     Select(CIff(PathEqPath(("A",), ("B",), DEEP),
                 CNot(PathEqConst(("C",), "c", ATOMIC))))),
    ("select[A in {a, b}]", Select(PathInSet(("A",), ("a", "b")))),
    ("nest[C = (A, B)]", Nest("C", ("A", "B"))),
    ("tup[]", UnitTuple(), "unit"),
    ("union(id, empty)", Union(Id(), EmptyColl())),
]


@pytest.mark.parametrize("spelling", SPELLINGS, ids=lambda s: s[0])
def test_operator_spellings_round_trip(spelling):
    text, node, *printed = spelling
    assert parse_ma(text) == node
    assert print_ma(node) == (printed[0] if printed else text)


@pytest.mark.parametrize("text, node", [
    ('pi["a.b"]', Proj("a.b")),
    ('pi["x y"]', Proj("x y")),
    ('pairwith["x y"]', PairWith("x y")),
    ('tup["a b" = id]', TupleCons((("a b", Id()),))),
    ('eq["a b", "c.d"]', EqDeep(("a b",), ("c.d",))),
    ('nest["a b" = ("c d", e)]', Nest("a b", ("c d", "e"))),
    ('select[A in {"a b", c}]', Select(PathInSet(("A",), ("a b", "c")))),
    ('select["a b".C = \'"x y"\']',
     Select(PathEqConst(("a b", "C"), "x y", DEEP))),
])
def test_labels_that_need_quotes_survive_printing(text, node):
    assert parse_ma(text) == node
    assert print_ma(node) == text


def test_a_quoted_dotted_label_stays_one_step():
    v = parse_value('<"a.b": x, a: <b: y>>')
    q = parse_ma('pi["a.b"]')
    assert eval_ma(q, v) == Atom("x")
    assert eval_ma(parse_ma(print_ma(q)), v) == Atom("x")


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


# ---------------------------------------------------------------------------
# Pinned outcomes of mostly ill-typed draws, recorded with the
# tree-walking evaluator

# labels of the generated types and of the tuples typed queries build
LABELS = gen.FIELDS + ("1", "2")


def _type_paths(t, prefix=()):
    """The paths into t's tuples, and into the tuples of its members."""
    out = [prefix]
    if isinstance(t, TupleType):
        for label, ft in t.fields:
            out += _type_paths(ft, prefix + (label,))
    elif isinstance(t, CollType):
        out += _type_paths(t.elem, prefix)
    return out


def _any_path(rng, paths):
    if rng.random() < 0.7:
        return rng.choice(paths)
    return tuple(rng.choice(LABELS) for _ in range(rng.randint(0, 2)))


def _any_cond(rng, paths, depth=1):
    r = rng.random()
    sub = lambda: _any_cond(rng, paths, depth - 1)
    if depth and r < 0.15:
        return CAnd(sub(), sub())
    if depth and r < 0.25:
        return COr(sub(), sub())
    if depth and r < 0.3:
        return CNot(sub())
    if depth and r < 0.35:
        return CIff(sub(), sub())
    p, mode = _any_path(rng, paths), rng.choice((ATOMIC, MON, DEEP))
    if r < 0.65:
        return PathEqPath(p, _any_path(rng, paths), mode)
    if r < 0.9:
        return PathEqConst(p, rng.choice(gen.ATOMS), mode)
    return PathInSet(p, tuple(rng.sample(gen.ATOMS, 2)))


def _extended(rng, paths):
    """An extended, nonmonotone or collection operator on paths that
    mostly exist in the value it meets; often ill-typed there."""
    p, r = _any_path(rng, paths), _any_path(rng, paths)
    cond = lambda: _any_cond(rng, paths)
    return rng.choice([
        Select(cond()), Select(cond()), Map(Select(cond())),
        Nest(rng.choice(LABELS), (rng.choice(LABELS),)),
        Diff(), Intersect(), UnionT(), Monus(), Unique(), NotOp(), TrueOp(),
        SubsetEq(p, r), MemberOf(p, r), EqMon(p, r), EqDeep(p, r),
        EqAtomic(p, r), FlatMap(Id()), FlatMap(Sng()),
        FlatMap(Proj_chain(p)), FlatMap(Proj_chain(p)), Map(Proj_chain(p)),
        CartProd(Id(), Proj_chain(p)), Union(Proj_chain(p), Id()),
        Union(Id(), Sng()), PairWith(rng.choice(LABELS)), Flatten(),
    ])


def _contract_draw(seed, sem):
    """A typed query, an extended operator, or the one then the other,
    on a value of another generated type (now and then of another
    collection kind)."""
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, sem)
    q = gen.gen_typed_query(rng, t, 3, sem)
    kind = sem if rng.random() < 0.9 else rng.choice((SET, LIST, BAG))
    u = gen.gen_type(rng, 3, kind)
    v = gen.gen_value(rng, u, 3)
    r = rng.random()
    if r < 0.4:
        q = _extended(rng, _type_paths(u))
    elif r < 0.8:
        q = Compose(q, _extended(rng, _type_paths(u) + _type_paths(t)))
    return q, v


def _outcome(run):
    try:
        return "value %s" % run()
    except Exception as e:   # the error itself is the outcome pinned
        return "%s %s" % (type(e).__name__, e)


# sha256 of "print_ma(q) | print_value(v) | outcome" for seeds 0-299 of
# _contract_draw under set, list and bag semantics, one per line
CONTRACT_DIGEST = (
    "298f25b154aa5da249f1825d6dbc5a4e"
    "f990c1e1db9af8ddcd5fa74832b3ba83")


def test_run_time_errors_are_pinned():
    """Type, message and value of every outcome, failing or not."""
    lines, failed = [], 0
    for sem in (SET, LIST, BAG):
        for seed in range(300):
            q, v = _contract_draw(seed, sem)
            out = _outcome(lambda: print_value(eval_ma(q, v, sem)))
            failed += not out.startswith("value ")
            lines.append("%s | %s | %s" % (print_ma(q), print_value(v), out))
    assert failed >= 300, failed
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == CONTRACT_DIGEST


@pytest.mark.parametrize("value, sem, bad", [
    ("{<A: a, B: c>, <A: b, B: b>}", SET, "b"),
    ("[<A: a, B: c>, <A: b, B: b>]", LIST, "c"),
    ("{|<A: a, B: c>, <A: b, B: b>|}", BAG, "b"),
])
def test_flatmap_fails_on_the_first_member_flatten_meets(value, sem, bad):
    """flatmap(f) is map(f) ; flatten: the member reported is the first
    non-collection of the mapped collection, in its canonical order."""
    with pytest.raises(ValueError_) as e:
        ev("flatmap(pi[B])", parse_value(value), sem)
    assert str(e.value) == "flatten member: expected collection, got " + bad


@pytest.mark.parametrize("q, message", [
    (Select(Id()), "bad selection condition Id()"),
    (PathEqPath(("A",), ("A",)),
     "cannot evaluate PathEqPath(p=('A',), q=('A',), mode='deep')"),
    (Select(Map(Id())), "bad selection condition Map(f=Id())"),
])
def test_a_node_is_no_condition_and_a_condition_no_node(q, message):
    """Nodes and conditions share one compile table, but each is looked
    up only among its own kind, and refused when it runs."""
    v = parse_value("{<A: a>}")
    with pytest.raises(ValueError_) as e:
        eval_ma(q, v)
    assert str(e.value) == message
    # refused when it runs: a map over no member runs neither
    assert eval_ma(Compose(EmptyColl(), Map(q)), v) == make_coll(SET, ())


@pytest.mark.parametrize("text", [
    "empty ; map(sng ; flatten ; sng)",
    "empty ; flatmap(sng ; flatten ; sng)",
    "empty ; map(cart(id, id))",
    "empty ; map(select[A = 'a'])",
])
def test_desugar_of_a_map_over_an_empty_literal(text):
    """The members of an empty literal have no known type; desugaring
    the map body must not guess one the type check did not."""
    q = parse_ma(text)
    core = desugar(q, UNIT_T, SET)
    assert is_core(core)
    assert eval_ma(core, UNIT, SET) == eval_ma(q, UNIT, SET)


# Ill-typed queries and their input types. Where infer_type meets more
# than one fault, the one it reports depends on the order it checks in.
ILL_TYPED = [
    # the left side is no collection, and the right side fails
    ("union(pi[A], pi[Z])", "<A: Dom>"),
    ("union(pi[A], sng)", "<A: Dom>"),
    ("union(sng, pi[A])", "<A: Dom>"),
    ("cart(pi[Z], sng)", "<A: Dom>"),
    ("cart(pi[A], pi[Z])", "<A: Dom>"),
    ("cart(sng, pi[Z])", "<A: Dom>"),
    ("cart(sng, pi[A])", "<A: Dom>"),
    ("map(id)", "Dom"),
    ("map(pi[Z])", "{<A: Dom>}"),
    ("flatmap(sng)", "<A: Dom>"),
    ("flatmap(id)", "{Dom}"),
    ("tup[X = pi[Z], Y = flatten]", "<A: Dom>"),
    ("tup[X = id, Y = flatten, Z = pi[Z]]", "<A: Dom>"),
    ("pi[Z] ; map(id)", "<A: Dom>"),
    ("pi[A] ; map(pi[Z])", "<A: {Dom}>"),
    ("select[A = 'a']", "Dom"),
    ("select[Z = 'a']", "{<A: Dom>}"),
    ("select[A =atom B]", "{<A: Dom, B: <C: Dom>>}"),
    ("select[A =mon B]", "{<A: Dom, B: {Dom}>}"),
    ("select[A in {a, b}]", "{<A: {Dom}>}"),
    ("nest[C = (Z)]", "{<A: Dom>}"),
    ("nest[A = (B)]", "{<A: Dom, B: Dom>}"),
    ("nest[C = (A)]", "{Dom}"),
    ("eq[A, Z]", "<A: Dom>"),
    ("eq[A, B]", "<A: Dom, B: {Dom}>"),
    ("eqmon[A, B]", "<A: {Dom}, B: {Dom}>"),
    ("diff", "<1: Dom, 2: {Dom}>"),
    ("cap", "<1: {Dom}, 2: {<A: Dom>}>"),
    ("subseteq[A, B]", "<A: Dom, B: {Dom}>"),
    ("in[A, B]", "<A: Dom, B: Dom>"),
    ("map(union(sng, pi[Z]))", "{<A: Dom>}"),
    ("pairwith[Z] ; diff", "<A: Dom>"),
]


def _type_outcome(run):
    try:
        run()
        return "typed"
    except Exception as e:   # the error itself is the outcome compared
        return "%s %s" % (type(e).__name__, e)


@pytest.mark.parametrize("text, type_text", ILL_TYPED)
@pytest.mark.parametrize("sem", (SET, LIST, BAG))
def test_desugar_fails_as_infer_type_does(text, type_text, sem):
    q, t = parse_ma(text), parse_type(type_text)
    want = _type_outcome(lambda: infer_type(q, t, sem))
    assert want.startswith("MATypeError ")
    assert _type_outcome(lambda: desugar(q, t, sem)) == want


def _drawn_typings():
    """Typed queries against another drawn type, and the draws of the
    run-time error pins on the type of their value (whose collections may
    be of another kind), under each semantics: (query, type, sem)."""
    for sem in (SET, LIST, BAG):
        for seed in range(300):
            rng = random.Random(seed)
            q = gen.gen_typed_query(rng, gen.gen_type(rng, 3, sem), 3, sem)
            yield q, gen.gen_type(rng, 3, sem), sem
            q, v = _contract_draw(seed, sem)
            kind = next(k for k in (sem, SET, LIST, BAG)
                        if _type_outcome(lambda: type_of(v, k)) == "typed")
            yield q, type_of(v, kind), sem


def test_desugar_fails_as_infer_type_does_on_drawn_queries():
    failed = 0
    for q, t, sem in _drawn_typings():
        want = _type_outcome(lambda: infer_type(q, t, sem))
        failed += want != "typed"
        assert _type_outcome(lambda: desugar(q, t, sem)) == want
    assert failed >= 800, failed


# sha256 of "print_ma(q) | print_type(t) | the type or the error" of
# infer_type on the drawn typings and ILL_TYPED; recorded while typing
# and desugaring still had a walk each, so it pins every rule's checks,
# their order and their messages
TYPE_CHECK_DIGEST = (
    "d7e4b5e0950f1c9176f503144439fe75"
    "cac99b3bdceb6196948525436240590c")


def test_type_check_outcomes_are_pinned():
    cases = list(_drawn_typings()) + [
        (parse_ma(text), parse_type(type_text), sem)
        for text, type_text in ILL_TYPED for sem in (SET, LIST, BAG)]
    h = hashlib.sha256()
    for q, t, sem in cases:
        try:
            out = print_type(infer_type(q, t, sem))
        except Exception as e:   # the error itself is the outcome pinned
            out = "%s %s" % (type(e).__name__, e)
        h.update(("%s | %s | %s\n" % (print_ma(q), print_type(t), out))
                 .encode())
    assert h.hexdigest() == TYPE_CHECK_DIGEST


def test_the_desugaring_walk_types_each_query_as_infer_type_does():
    """The type the walk gives a query while it desugars it, which
    composition stages pass on as the next stage's input type, is the
    type it gives without desugaring."""
    for sem in (SET, LIST, BAG):
        for seed in range(300):
            rng = random.Random(seed)
            t = gen.gen_type(rng, 3, sem)
            q = gen.gen_typed_query(rng, t, 3, sem)
            assert _walk(q, t, sem, True)[1] == infer_type(q, t, sem)
            q, v = _contract_draw(seed, sem)
            if _type_outcome(lambda: infer_type(q, type_of(v, sem), sem)) \
                    == "typed":
                t = type_of(v, sem)
                assert _walk(q, t, sem, True)[1] == infer_type(q, t, sem)


def test_every_operator_has_a_type_rule_and_each_nesting_a_core_form():
    """No operator or selection condition can be parsed without a type
    rule, nor one with operands desugared without a core form. HashJoin
    is built by the plan only, and never typed."""
    ops = set(MAExpr.__subclasses__()) - {HashJoin}
    conds = set(SelCond.__subclasses__())
    assert set(_TYPE) == ops | conds
    nesting = {c for c in ops
               if any("MAExpr" in c.__annotations__[f]
                      for f in c.__match_args__)}
    connectives = {c for c in conds
                   if any("SelCond" in c.__annotations__[f]
                          for f in c.__match_args__)}
    assert connectives == {CAnd, COr, CNot, CIff}
    assert set(_CORE) == nesting | {Select} | connectives
    for c in nesting:
        sub = (("A", Id()),) if c is TupleCons else Id()
        assert _subexprs(c(*[sub] * len(c.__match_args__)))


def test_every_operator_and_condition_compiles_by_one_table():
    """Every node, HashJoin included, compiles to a function of its input
    and every condition to a test on one member; a conjunction is
    flattened into its conjuncts, which are compiled one by one."""
    ops = set(MAExpr.__subclasses__())
    conds = set(SelCond.__subclasses__()) - {CAnd}
    assert set(_COMPILE) == ops | conds


# 4,003 stages whose type stays shallow
LONG_CHAIN = ("sng ; " + "sng ; flatten ; " * 2000
              + "cart(id, id) ; select[1 = 2]")


@pytest.mark.parametrize("sem", (SET, LIST, BAG))
def test_a_long_composition_chain_desugars_to_its_meaning(sem):
    q = parse_ma(LONG_CHAIN)
    assert ast_size(q) == 8007
    core = desugar(q, UNIT_T, sem)
    assert is_core(core)
    assert eval_ma(core, UNIT, sem) == eval_ma(q, UNIT, sem)


@pytest.mark.parametrize("node", [Map, TupleCons, Union])
@pytest.mark.parametrize("depth", [495, 2000])
def test_a_deeply_nested_query_types_and_desugars(node, depth):
    """map(...), tup[A = ...] or union(..., sng) nested depth deep: 495
    is parse_ma's own limit, and the walk has none. The maps read sets
    nested as deep."""
    q, t = Sng(), UNIT_T
    for _ in range(depth):
        if node is Map:
            q, t = Map(q), CollType(SET, t)
        elif node is TupleCons:
            q = TupleCons((("A", q),))
        else:
            q = Union(q, Sng())
    infer_type(q, t, SET)
    assert is_core(desugar(q, t, SET))


@pytest.mark.parametrize("sem", (SET, LIST, BAG))
def test_mon_comparison_of_a_tuple_with_a_constant_desugars(sem):
    """A tuple never equals an atom: the desugared selection keeps
    nothing, as the direct one does, instead of failing on atomic
    equality."""
    q = parse_ma("select[A =mon 'a']")
    brackets = {SET: "{%s}", LIST: "[%s]", BAG: "{|%s|}"}[sem]
    v = parse_value(brackets % "<A: <B: a>>")
    core = desugar(q, type_of(v, sem), sem)
    assert is_core(core)
    want = print_value(make_coll(sem, ()))
    assert print_value(eval_ma(q, v, sem)) == want
    assert print_value(eval_ma(core, v, sem)) == want


def _core_but_deep_eq(q) -> bool:
    """Core, apart from deep equality, which desugar keeps primitive on
    collection-bearing types."""
    return isinstance(q, EqDeep) or (
        isinstance(q, CORE_NODES) and all(map(_core_but_deep_eq,
                                              _subexprs(q))))


# (query, input, direct result, whether the desugared form is core)
EXTENDED_CASES = [
    ("diff", "<1: {a, b, c}, 2: {b, d}>", "{a, c}", True),
    ("diff", "<1: {{a}, {b}}, 2: {{b}}>", "{{a}}", False),
    ("cap", "<1: {a, b, c}, 2: {c, b, d}>", "{b, c}", True),
    ("subseteq[1, 2]", "<1: {a}, 2: {a, b}>", "{<>}", False),
    ("subseteq[1, 2]", "<1: {a, c}, 2: {a, b}>", "{}", False),
    ("in[1, 2]", "<1: a, 2: {a, b}>", "{<>}", False),
    ("in[1, 2]", "<1: c, 2: {a, b}>", "{}", False),
    ("nest[C = (B)]", "{<A: a, B: x>, <A: a, B: y>, <A: b, B: z>}",
     "{<A: a, C: {<B: x>, <B: y>}>, <A: b, C: {<B: z>}>}", True),
    ("eq[A, B]", "<A: <X: a, Y: b>, B: <X: a, Y: b>>", "{<>}", True),
    ("eq[A, B]", "<A: {a, b}, B: {b, a}>", "{<>}", False),
    ("select[A =atom 'a' <=> B =atom 'b']",
     "{<A: a, B: b>, <A: a, B: c>, <A: c, B: c>, <A: c, B: b>}",
     "{<A: a, B: b>, <A: c, B: c>}", True),
    ("select[A = 'a']", "{<A: a, B: b>, <A: c, B: c>}", "{<A: a, B: b>}",
     True),
    ("select[A in {a, c}]", "{<A: a, B: b>, <A: b, B: c>, <A: c, B: c>}",
     "{<A: a, B: b>, <A: c, B: c>}", True),
]


@pytest.mark.parametrize("text, value, want, core", EXTENDED_CASES)
def test_extended_operators_desugar_to_their_meaning(text, value, want,
                                                     core):
    """Each extended operator's desugared form evaluates to the direct
    result under set semantics; it is core except for deep equality on
    collection-bearing types."""
    q = parse_ma(text)
    v = parse_value(value)
    got = desugar(q, type_of(v, SET), SET)
    assert is_core(got) is core and _core_but_deep_eq(got)
    assert print_value(eval_ma(q, v, SET)) == want
    assert print_value(eval_ma(got, v, SET)) == want


# (query, input type) pairs beyond EXTENDED_CASES and ILL_TYPED: every
# condition form, with each equality mode on atoms, on collection-free
# tuples and on collection-bearing types, and each extended operator on
# more input types; the types are written with set brackets
EXTENDED_TYPINGS = [
    ("select[A = 'a' || B = 'b']", "{<A: Dom, B: Dom>}"),
    ("select[A = 'a' || A = 'b' || A = 'c']", "{<A: Dom, B: Dom>}"),
    ("select[!(A = 'a')]", "{<A: Dom, B: Dom>}"),
    ("select[!A =atom B]", "{<A: Dom, B: Dom>}"),
    ("select[(A = 'a' <=> B = 'b') <=> !A = B]", "{<A: Dom, B: Dom>}"),
    ("select[A = B && C in {a} || !(C = 'b')]",
     "{<A: Dom, B: Dom, C: Dom>}"),
    ("select[A in {a}]", "{<A: Dom>}"),
    ("select[A.X in {a, b, c}]", "{<A: <X: Dom>>}"),
    ("select[A = 'c']", "{<A: <B: Dom>>}"),
    ("select[A = 'c']", "{<A: {Dom}>}"),
    ("select[A =mon 'a']", "{<A: <B: Dom>>}"),
    ("select[A =atom 'a']", "{<A: <B: Dom>>}"),
    ("select[A =mon 'a']", "{<A: {Dom}>}"),
    ("select[A =atom B]", "{<A: Dom, B: Dom>}"),
    ("select[A.X =atom B]", "{<A: <X: Dom>, B: Dom>}"),
    ("select[A =mon B]", "{<A: Dom, B: Dom>}"),
    ("select[A =mon B]", "{<A: <X: Dom, Y: Dom>, B: <X: Dom, Y: Dom>>}"),
    ("select[A = B]", "{<A: <X: Dom>, B: <X: Dom>>}"),
    ("select[A = B]", "{<A: {Dom}, B: {Dom}>}"),
    ("select[A = B]", "{<A: <X: {Dom}>, B: <X: {Dom}>>}"),
    ("select[A = B]", "{<A: Dom, B: {Dom}>}"),
    ("map(tup[A = empty, B = sng]) ; select[A = B]", "{Dom}"),
    ("map(tup[A = empty, B = sng]) ; select[A =mon B]", "{Dom}"),
    ("map(tup[A = empty]) ; select[A = 'a']", "{Dom}"),
    ("empty ; select[A = 'a' || B = 'b']", "<>"),
    ("cart(id, id) ; select[1.A = 2.A && 1.B = 'b']", "{<A: Dom, B: Dom>}"),
    ("select[A = 'a' && Z = 'b']", "{<A: Dom>}"),
    ("select[!(Z = 'a')]", "{<A: Dom>}"),
    ("select[A = 'a' <=> B.C = 'b']", "{<A: Dom, B: Dom>}"),
    ("select[A = 'a' || B =atom C]", "{<A: Dom, B: <X: Dom>, C: Dom>}"),
    ("select[A = 'a']", "{Dom}"),
    ("select[A = 'a']", "{{Dom}}"),
    ("diff", "<1: {Dom}, 2: {Dom}>"),
    ("diff", "<1: {<A: Dom>}, 2: {<A: Dom>}>"),
    ("cap", "<1: {{Dom}}, 2: {{Dom}}>"),
    ("cap", "<1: {<A: Dom>}, 2: {<A: Dom>}>"),
    ("tup[1 = empty, 2 = empty] ; diff", "<>"),
    ("tup[1 = empty, 2 = sng] ; cap", "Dom"),
    ("subseteq[A, B]", "<A: {<X: Dom>}, B: {<X: Dom>}>"),
    ("subseteq[A.X, B]", "<A: <X: {{Dom}}>, B: {{Dom}}>"),
    ("in[A, B]", "<A: {Dom}, B: {{Dom}}>"),
    ("in[A, B.C]", "<A: <X: Dom>, B: <C: {<X: Dom>}>>"),
    ("nest[C = (A, B)]", "{<A: Dom, B: Dom>}"),
    ("nest[D = (B)]", "{<A: {Dom}, B: Dom, C: <X: Dom>>}"),
    ("empty ; nest[C = (B)]", "<>"),
    ("eqmon[A, B]", "<A: Dom, B: Dom>"),
    ("eqmon[A, B]", "<A: <X: Dom>, B: <X: Dom>>"),
    ("eq[A.X, B]", "<A: <X: Dom>, B: Dom>"),
    ("eq[A, B]", "<A: <X: {Dom}>, B: <X: {Dom}>>"),
    ("tup[A = empty, B = empty] ; eq[A, B]", "<>"),
    ("tup[A = empty, B = sng] ; eqmon[A, B]", "Dom"),
    ("flatmap(sng)", "{Dom}"),
    ("cart(id, map(pi[A]))", "{<A: Dom>}"),
    ("monus", "<1: {Dom}, 2: {Dom}>"),
    ("unique", "{Dom}"),
]


def _extended_typings():
    """(query, input type, sem): EXTENDED_CASES on the types of their
    values, EXTENDED_TYPINGS and ILL_TYPED, and conditions on empty
    paths, which have no text, under each semantics."""
    bare = [(Select(c), t) for c, t in (
        (PathEqConst((), "a", ATOMIC), "{Dom}"),
        (PathEqConst((), "a", MON), "{<A: Dom>}"),
        (PathEqConst((), "a", DEEP), "{{Dom}}"),
        (PathInSet((), ("a", "b")), "{Dom}"),
        (PathInSet((), ("a",)), "{<A: Dom>}"),
        (PathEqPath((), (), ATOMIC), "{Dom}"),
        (PathEqPath((), (), MON), "{<A: Dom>}"),
        (PathEqPath((), (), DEEP), "{Dom}"),
        (PathEqPath((), (), DEEP), "{<A: Dom>}"),
        (PathEqPath((), (), DEEP), "{{Dom}}"),
        (PathEqPath((), ("A",), DEEP), "{<A: Dom>}"),
        (COr(PathEqConst((), "a", ATOMIC), PathInSet((), ("b",))), "{Dom}"),
    )]
    texts = [(text, print_type(type_of(parse_value(value), SET)))
             for text, value, _, _ in EXTENDED_CASES]
    texts += EXTENDED_TYPINGS + ILL_TYPED
    kinds = {SET: ("{", "}"), LIST: ("[", "]"), BAG: ("{|", "|}")}
    for sem, (op, cl) in kinds.items():
        for q, t in [(parse_ma(a), b) for a, b in texts] + bare:
            yield q, parse_type(t.replace("{", "\0").replace("}", cl)
                                .replace("\0", op)), sem


# sha256 of "print_ma(q) | print_type(t) | sem | the type or the error |
# the printed core form or the error" of infer_type and desugar on
# _extended_typings, recorded while conditions were typed and desugared
# by their own recursive walks
EXTENDED_DESUGAR_DIGEST = (
    "2a8025a4c905605e659c0f6c5d4d548b"
    "7ddb0047f3516e4663635f1f79c3d026")


def _shown(run, show):
    """show(run()), or the error it raises."""
    try:
        return show(run())
    except Exception as e:   # the error itself is the outcome pinned
        return "%s %s" % (type(e).__name__, e)


def test_extended_desugared_forms_are_pinned():
    h = hashlib.sha256()
    for q, t, sem in _extended_typings():
        typed = _shown(lambda: infer_type(q, t, sem), print_type)
        core = _shown(lambda: desugar(q, t, sem), print_ma)
        h.update(("%s | %s | %s | %s | %s\n" % (
            print_ma(q), print_type(t), sem, typed, core)).encode())
    assert h.hexdigest() == EXTENDED_DESUGAR_DIGEST
