import contextlib
import hashlib
import io
import random

import pytest
from hypothesis import given, strategies as st

from nestql import cli, gen
from nestql.ma import eval_ma
from nestql.reductions import gen_doubly_exp
from nestql.values import (
    ATOMIC, BAG, DEEP, KINDS, LIST, MON, SET, UNIT, Atom, Tuple,
    ValueError_, make_coll, make_tuple, parse_type, parse_value, print_type,
    print_value, sort_key, value_equal, value_nodes,
)


def test_set_elements_are_sorted_and_deduplicated():
    v = make_coll(SET, [Atom("b"), Atom("a"), Atom("b")])
    assert print_value(v) == "{a, b}"


def test_list_keeps_order_and_duplicates():
    v = make_coll(LIST, [Atom("b"), Atom("a"), Atom("b")])
    assert print_value(v) == "[b, a, b]"


def test_bag_sorts_but_keeps_duplicates():
    v = make_coll("bag", [Atom("b"), Atom("a"), Atom("b")])
    assert print_value(v) == "{|a, b, b|}"


def test_tuple_fields_keep_construction_order():
    v = make_tuple([("B", Atom("y")), ("A", Atom("x"))])
    assert print_value(v) == "<B: y, A: x>"


def test_duplicate_tuple_label_rejected():
    with pytest.raises(ValueError_):
        make_tuple([("A", Atom("x")), ("A", Atom("y"))])


def test_atomic_equality_only_on_atoms():
    assert value_equal(Atom("a"), Atom("a"), ATOMIC)
    assert not value_equal(Atom("a"), Atom("b"), ATOMIC)
    with pytest.raises(ValueError_):
        value_equal(make_tuple([]), make_tuple([]), ATOMIC)


def test_mon_equality_rejects_collections():
    s = make_coll(SET, [Atom("a")])
    with pytest.raises(ValueError_):
        value_equal(s, s, MON)
    t = make_tuple([("A", Atom("a"))])
    assert value_equal(t, t, MON)


def test_deep_equality_ignores_nothing():
    a = make_coll(SET, [make_coll(LIST, [Atom("a"), Atom("b")])])
    b = make_coll(SET, [make_coll(LIST, [Atom("b"), Atom("a")])])
    assert not value_equal(a, b, DEEP)
    assert value_equal(a, a, DEEP)


def test_value_nodes_counts_every_node():
    v = parse_value("{<A: a, B: [b, c]>}")
    # set + tuple + atom + list + 2 atoms
    assert value_nodes(v) == 6


@given(st.integers(0, 10 ** 6))
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, LIST)
    v = gen.gen_value(rng, t)
    assert parse_value(print_value(v)) == v


@given(st.integers(0, 10 ** 6))
def test_type_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, SET)
    assert parse_type(print_type(t)) == t


@pytest.mark.parametrize("text", ['<"a b": Dom>', '{<"x.y": [Dom], B: Dom>}'])
def test_type_labels_that_need_quotes_round_trip(text):
    t = parse_type(text)
    assert print_type(t) == text
    assert parse_type(print_type(t)) == t


@pytest.mark.parametrize("text", ['<"a b": x>', '<"a.b": x, B: "a.b">',
                                  '{<A: y>, <"say \\"hi\\"": x>}'])
def test_tuple_labels_that_need_quotes_round_trip(text):
    v = parse_value(text)
    assert print_value(v) == text
    assert parse_value(print_value(v)) == v


def test_parse_error_reports_position():
    with pytest.raises(ValueError_) as e:
        parse_value("<A: a, >")
    assert "position" in str(e.value)


# ---------------------------------------------------------------------------
# The per-node key, hash and mode caches

def _ref_key(v):
    """The canonical order, recomputed from scratch by walking the tree."""
    if isinstance(v, Atom):
        return (0, v.label)
    if isinstance(v, Tuple):
        return (1, tuple(l for l, _ in v.fields),
                tuple(_ref_key(x) for _, x in v.fields))
    return (2, KINDS.index(v.kind), len(v.elems),
            tuple(_ref_key(x) for x in v.elems))


def _rebuild(v, rng):
    """A fresh copy sharing no node with v; set and bag members are
    handed to make_coll in a shuffled order."""
    if isinstance(v, Atom):
        return Atom(v.label)
    if isinstance(v, Tuple):
        return make_tuple((l, _rebuild(x, rng)) for l, x in v.fields)
    elems = [_rebuild(x, rng) for x in v.elems]
    if v.kind != LIST:
        rng.shuffle(elems)
    return make_coll(v.kind, elems)


@given(st.integers(0, 10 ** 6), st.sampled_from(KINDS))
def test_equal_values_built_apart_agree_on_eq_hash_and_key(seed, sem):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 4, sem)
    v = gen.gen_value(rng, t, fanout=3)
    w = _rebuild(v, rng)
    assert v == w and hash(v) == hash(w)
    assert sort_key(v) == sort_key(w) == _ref_key(v)
    u = gen.gen_value(rng, t, fanout=3)
    assert (u == v) == (sort_key(u) == sort_key(v)) == (
        _ref_key(u) == _ref_key(v))
    assert (sort_key(u) < sort_key(v)) == (_ref_key(u) < _ref_key(v))


@pytest.mark.parametrize("text", [
    "{<A: a, B: {|x, y, x|}>, <A: b, B: {|y|}>, [a, {b, a}]}",
    "[<A: {c, b, a}>, {|<B: [a, b]>, <B: [b, a]>|}, {{a}, {b, a}}]",
    "{|{|[a], [b]|}, <A: {a, b}, B: <C: [a, a]>>|}",
])
def test_permuted_members_give_equal_values(text):
    v = parse_value(text)
    for seed in range(5):
        w = _rebuild(v, random.Random(seed))
        assert w is not v and w == v and hash(w) == hash(v)
        assert sort_key(w) == sort_key(v) == _ref_key(v)
        assert print_value(w) == print_value(v)


def test_set_keeps_the_first_seen_member_of_each_equal_group():
    a1, a2 = parse_value("<A: [x, y]>"), parse_value("<A: [x, y]>")
    b1, b2 = parse_value("{z}"), parse_value("{z}")
    s = make_coll(SET, [b1, a1, b2, a2, a1])
    assert len(s.elems) == 2
    assert s.elems[0] is a1 and s.elems[1] is b1


def test_printing_shared_sub_values_matches_an_unshared_rebuild():
    x = make_coll(SET, [Atom("b"), Atom("a")])
    t = make_tuple([("A", x), ("B", x)])
    v = make_coll(LIST, [t, x, t, make_coll(BAG, [t, t])])
    text = print_value(v)
    assert text == ("[<A: {a, b}, B: {a, b}>, {a, b}, <A: {a, b}, B: {a, b}>,"
                    " {|<A: {a, b}, B: {a, b}>, <A: {a, b}, B: {a, b}>|}]")
    assert print_value(parse_value(text)) == text
    # the doubly exponential set shares its pair trees heavily
    d = eval_ma(gen_doubly_exp(2), UNIT, SET)
    assert print_value(d) == print_value(parse_value(print_value(d)))
    assert print_value(d) == print_value(_rebuild(d, random.Random(0)))


def test_mon_equality_check_names_the_first_offender():
    s = parse_value("<A: {a}>")
    t = parse_value("<A: a>")
    for a, b, bad in ((s, t, s), (t, s, s), (s, parse_value("[b]"), s),
                      (t, parse_value("[b]"), parse_value("[b]"))):
        with pytest.raises(ValueError_) as e:
            value_equal(a, b, MON)
        assert str(e.value) == ("mon equality on collection-bearing value %s"
                                % print_value(bad))
    assert value_equal(t, parse_value("<A: a>"), MON)
    assert not value_equal(t, parse_value("<A: b>"), MON)


# ---------------------------------------------------------------------------
# Output pinning: canonical order and text, recorded before the key, hash
# and printing caches existed

DEXP3_SHA256 = (
    "ea527241bea161d5e14401750208320960ae234ae9f907a10635c4beada41128")
TYPED_RESULTS_SHA256 = (
    "6241728328cb8cfaa43d4fea611ef22ee93df6de644bc5df27cec9a4b3a63093")


def test_gen_dexp_output_is_pinned():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["gen-dexp", "--m", "3", "--eval"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        DEXP3_SHA256


def test_typed_query_results_are_pinned():
    """Seeds 0-299 of gen_typed_query under each semantics: the input
    value and the result, printed."""
    lines = []
    for sem in (SET, LIST, BAG):
        for seed in range(300):
            rng = random.Random(seed)
            t = gen.gen_type(rng, 3, sem)
            q = gen.gen_typed_query(rng, t, 3, sem)
            v = gen.gen_value(rng, t)
            lines.append("%s | %s" % (print_value(v),
                                      print_value(eval_ma(q, v, sem))))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == TYPED_RESULTS_SHA256
