import ast
import contextlib
import hashlib
import importlib
import io
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from nestql import bridge, checks, cli, gen, lp, ma, reductions, values, xmlxq
from nestql.ma import eval_ma, infer_type
from nestql.ma_text import parse_ma
from nestql.reductions import gen_doubly_exp
from nestql.values import (
    ATOMIC, BAG, DEEP, KINDS, LIST, MON, SET, UNIT, UNIT_T, Atom, Coll,
    Tuple, ValueError_, make_coll, make_tuple, parse_type, parse_value, print_atom,
    print_chunks, print_type, print_value, sort_key, value_equal,
    value_nodes,
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


def test_duplicate_tup_label_rejected_when_evaluated():
    """The evaluator checks a tup[...]'s labels once, when it compiles
    it, and raises only when the tuple is built."""
    with pytest.raises(ValueError_) as e:
        eval_ma(parse_ma("tup[A = id, A = id]"), UNIT)
    assert str(e.value) == "duplicate tuple label in ['A', 'A']"
    # a body over an empty input never builds its tuple
    q = parse_ma("empty ; map(tup[A = id, A = id])")
    assert eval_ma(q, UNIT) == make_coll(SET, ())


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


def _ref_nodes(v):
    """The node count, by recursion over the tree."""
    if isinstance(v, Atom):
        return 1
    return 1 + sum(_ref_nodes(x) for x in
                   (v.vals if isinstance(v, Tuple) else v.elems))


@given(st.integers(0, 10 ** 6), st.sampled_from(KINDS))
def test_value_nodes_matches_the_recursive_count(seed, sem):
    """On drawn values sharing members, with some member counted first,
    so the walk meets stored and unstored counts."""
    rng = random.Random(seed)
    v = gen.gen_value(rng, gen.gen_type(rng, 3, sem), fanout=3)
    w = make_coll(LIST, [v, make_tuple([("A", v), ("B", v)]), v])
    if isinstance(v, Coll) and v.elems:
        assert value_nodes(v.elems[0]) == _ref_nodes(v.elems[0])
    assert value_nodes(w) == _ref_nodes(w) == 4 * _ref_nodes(v) + 2
    assert value_nodes(v) == _ref_nodes(v)


def test_value_nodes_of_a_value_nested_3000_deep():
    v = UNIT
    for _ in range(3000):
        v = make_coll(LIST, [v])
    assert value_nodes(v) == 3001


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


_BRACKETS = {SET: ("{", "}"), LIST: ("[", "]"), BAG: ("{|", "|}")}


def _ref_print(v):
    """The value text, printed by walking the tree with no memo."""
    if isinstance(v, Atom):
        return print_atom(v.label)
    if isinstance(v, Tuple):
        return "<%s>" % ", ".join("%s: %s" % (print_atom(l), _ref_print(x))
                                  for l, x in v.fields)
    o, c = _BRACKETS[v.kind]
    return o + ", ".join(_ref_print(x) for x in v.elems) + c


@given(st.integers(0, 10 ** 6), st.sampled_from(KINDS))
def test_printed_chunks_join_to_the_value_text(seed, sem):
    """One chunk per member of a top collection (and its opening
    bracket), one chunk for any other value; the members share
    sub-values, need quoted labels, or are empty or the unit."""
    rng = random.Random(seed)
    v = gen.gen_value(rng, gen.gen_type(rng, 3, sem), fanout=3)
    odd = make_tuple([("a b", v), ('say "hi"', UNIT),
                      ("1", make_coll(sem, ()))])
    top = make_coll(sem, [v, odd, v, UNIT, make_coll(sem, ()), odd,
                          make_tuple([("x.y", odd)]), Atom("p q")])
    for w in (v, odd, top, UNIT, make_coll(sem, ())):
        chunks = print_chunks(w)
        assert print_value(w) == "".join(chunks) == _ref_print(w)
        if isinstance(w, Coll) and w.elems:
            assert len(chunks) == len(w.elems) + 1
        else:
            assert len(chunks) == 1
    assert len(print_chunks(top)) > 2


def test_a_set_nested_400_deep_prints():
    v = eval_ma(parse_ma("sng ; " * 400 + "id"), UNIT, SET)
    assert print_value(v) == "{" * 400 + "<>" + "}" * 400


def test_bad_collection_kind_is_rejected_where_it_comes_in():
    with pytest.raises(ValueError_, match="bad collection kind 'sett'"):
        make_coll("sett", [])
    with pytest.raises(ValueError_, match="bad collection kind 'sett'"):
        eval_ma(parse_ma("sng"), UNIT, "sett")


def test_tuple_field_lookup_names_the_missing_label():
    t = parse_value("<A: a, B: b>")
    assert t.field("B") == Atom("b")
    assert t.fields == (("A", Atom("a")), ("B", Atom("b")))
    with pytest.raises(ValueError_) as e:
        t.field("C")
    assert str(e.value) == "no field 'C' in tuple with fields ['A', 'B']"


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


def test_a_set_nested_400_deep_hashes_and_has_a_sort_key():
    """Hashes and keys are stored bottom-up on an explicit stack; the
    recursive ones took three frames per level."""
    v = w = Atom("a")
    for _ in range(400):
        v, w = make_coll(SET, [v]), make_coll(SET, [w])
    assert hash(v) == hash(w) == hash((SET, v.elems))
    assert sort_key(v) == sort_key(w)
    assert sort_key(v)[:3] == (2, 0, 1) and sort_key(v.elems[0])[:3] == (
        2, 0, 1)


def test_tuple_type_labels_are_checked_where_they_come_in():
    with pytest.raises(ValueError_) as e:
        parse_type("<A: Dom, A: Dom>")
    assert str(e.value) == "duplicate tuple type label in ['A', 'A']"
    with pytest.raises(ValueError_) as e:
        infer_type(parse_ma("tup[A = id, A = id]"), UNIT_T)
    assert str(e.value) == "duplicate tuple type label in ['A', 'A']"


SRC = pathlib.Path(values.__file__).parent
# what values stores on a node after building it; none is a field
STORED_FACTS = {"_key", "_hash", "_set_free", "_nodes"}


def _is_record(c: ast.ClassDef) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", None)) == "record"
               for d in c.decorator_list)


def _writes(node, cls=None):
    """(innermost enclosing class, object written, attribute name, line)
    for each attribute under node that is assigned, augmented or deleted,
    and each literal name given to setattr, delattr, __setattr__ or
    __delattr__ (object None)."""
    for x in ast.iter_child_nodes(node):
        inner = x if isinstance(x, ast.ClassDef) else cls
        if (isinstance(x, ast.Attribute)
                and isinstance(x.ctx, (ast.Store, ast.Del))):
            yield inner, x.value, x.attr, x.lineno
        elif isinstance(x, ast.Call) and getattr(
                x.func, "id", getattr(x.func, "attr", None)) in (
                "setattr", "delattr", "__setattr__", "__delattr__"):
            for a in x.args:
                if isinstance(a, ast.Constant) and isinstance(a.value, str):
                    yield inner, None, a.value, x.lineno
        yield from _writes(x, inner)


def test_records_are_not_assigned_after_construction():
    """Records are immutable by convention, not by a frozen dataclass's
    guard (see values.record): no module of the package writes a field
    of a record class, except on self in a class that is not a record."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    records = [(m, c) for m, t in trees.items() for c in ast.walk(t)
               if isinstance(c, ast.ClassDef) and _is_record(c)]
    fields = {s.target.id for _, c in records for s in c.body
              if isinstance(s, ast.AnnAssign)}
    for m, c in records:
        cls = getattr(importlib.import_module("nestql." + m), c.name)
        assert set(cls.__match_args__) <= fields
    assert {"Tuple", "Coll", "TupleType", "Compose", "Rule", "TMSpec"} <= {
        c.name for _, c in records}
    assert not fields & STORED_FACTS
    names = {c.name for _, c in records}
    bad = ["%s.py:%d %s" % (m, line, attr)
           for m, t in trees.items() for cls, obj, attr, line in _writes(t)
           if attr in fields and not (
               getattr(obj, "id", None) == "self" and cls is not None
               and cls.name not in names)]
    assert bad == []


# ---------------------------------------------------------------------------
# Records pinned by their text, hash and equality

def _record_classes():
    """Every record class of the package, by module and name."""
    out = []
    for m in sorted(p.stem for p in SRC.glob("*.py")):
        mod = importlib.import_module("nestql." + m)
        out += [(m, c) for c in vars(mod).values()
                if isinstance(c, type) and c.__module__ == mod.__name__
                and "__match_args__" in vars(c)]
    return out


def _result(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except Exception as e:
        return "%s: %s" % (type(e).__name__, e)


# every extended operator and condition, in the text of the algebra and
# of tree queries
RECORD_TEXTS = (
    "monus ; unique ; diff ; cap ; union ; true ; not ; eqmon[A, B] ; "
    "eq[A.B, C] ; subseteq[A, B] ; in[A, B] ; nest[C = (A, B)] ; "
    "flatmap(cart(pi[A.B], 'c')) ; select[!(A = B || A =mon 'a') "
    "<=> A.B =atom C && A in {a, b}]",
    "every $x in $root/a/* satisfies (some $y in $x/descendant::b "
    "satisfies ($x = $y and ($y/c or not(<d>{$x}</d>))))",
)


def _record_corpus():
    """The plans of the twelve machine acceptance queries; drawn algebra
    and tree queries, their types, translations and logic programs; drawn
    values and documents; the bundled machines; and the errors whose
    text holds a record's repr."""
    out = [ma.plan(reductions.gen_tm_query(tm, word, K, expand))
           for tm, word in ((reductions.ACCEPTOR, ("1",)),
                            (reductions.GUESSER, ("1",)),
                            (reductions.REJECTOR, ()))
           for K in (1, 2) for expand in (False, True)]
    for seed in range(40):
        rng = random.Random(seed)
        sem = KINDS[seed % 3]
        t = gen.gen_type(rng, 2, sem)
        q = gen.gen_typed_query(rng, t, 3, sem)
        out += [t, q, gen.gen_value(rng, t), infer_type(q, t, sem),
                _result(ma.desugar, q, t, sem)]
        c = gen.gen_closed_query(rng, 3)
        out += [c, gen.gen_bool_query(rng, 2), _result(lp.compile_lp, c)]
        pt = gen.gen_pairlist_type(rng, 2)
        p = gen.gen_pairlist_query(rng, pt, 3)
        out += [pt, p, _result(bridge.ma_to_xq, p, pt)]
        x = gen.gen_tree_query(rng, 5)
        out += [x, gen.gen_doc(rng, 20), _result(xmlxq.xq_desugar, x),
                _result(bridge.xq_to_ma, x)]
    out += [parse_ma(RECORD_TEXTS[0]), xmlxq.parse_xq(RECORD_TEXTS[1]),
            xmlxq.EmptySeq(), values.Value(), values.Type(), ma.MAExpr(),
            ma.SelCond(), xmlxq.XQExpr(),
            bridge.ma_to_xq(parse_ma("select[A = B]"),
                            parse_type("[<A: Dom, B: Dom>]")),
            lp.parse_lp("p(X.a) :- input(X).\n"),
            checks.suite_thm62(1, 2), sorted(reductions.BUNDLED.items())]
    out += [
        _result(ma.eval_ma, ma.Select(ma.Id()), make_coll(SET, [UNIT]), SET),
        _result(bridge.ma_to_xq, ma.CartProd(ma.Id(), ma.Id()),
                parse_type("[<A: Dom>]")),
        _result(bridge.ma_to_xq, parse_ma("empty ; map(map(id))"),
                parse_type("Dom")),
        _result(bridge.xq_to_ma, xmlxq.parse_xq("($root/a = $root/b)")),
        _result(bridge.decode_C, make_tuple((("A", Atom("a")),))),
        _result(lp.compile_lp, parse_ma("monus")),
        _result(ma.infer_type, ma.HashJoin(ma.Id(), ma.Id(), (), None),
                UNIT_T, SET),
    ]
    return out


def _records_in(xs):
    """Every record object inside xs, parents first."""
    todo = list(reversed(xs))
    while todo:
        x = todo.pop()
        if type(x) in (tuple, list):
            todo.extend(reversed(x))
        elif "__match_args__" in vars(type(x)):
            yield x
            todo.extend(reversed([getattr(x, n)
                                  for n in type(x).__match_args__]))


# sha256 of the field names of every record class, then of the repr of
# each object of _record_corpus(), one per line
RECORD_DIGEST = (
    "9f41597dc2c0b2529be08bdc912d1300"
    "154f94f3ac12408ea53a224aebc64b7e")


def test_records_are_pinned():
    """A record prints as its class and fields, hashes as the tuple of
    its fields, and equals a record of the same class and fields only."""
    classes = _record_classes()
    lines = ["%s.%s%r" % (m, c.__name__, c.__match_args__)
             for m, c in classes]
    corpus = _record_corpus()
    lines += map(repr, corpus)
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_DIGEST
    by_fields = {}
    for _, c in classes:
        by_fields.setdefault(c.__match_args__, []).append(c)
    seen = {}
    for x in _records_in(corpus):
        cls = type(x)
        if seen.get(cls, 0) == 5:
            continue
        seen[cls] = seen.get(cls, 0) + 1
        fields = tuple(getattr(x, n) for n in cls.__match_args__)
        try:
            want = hash(fields)
        except TypeError:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == want
        assert x == cls(*fields) and not x != cls(*fields)
        assert x.__eq__(fields) is NotImplemented and x != fields
        for other in by_fields[cls.__match_args__]:
            if other is not cls:
                assert x != other(*fields)
    assert len(seen) >= 50


# ---------------------------------------------------------------------------
# Output pinning: canonical order and text, recorded before the key, hash
# and printing caches existed

DEXP3_SHA256 = (
    "ea527241bea161d5e14401750208320960ae234ae9f907a10635c4beada41128")
# recorded before tuples stored their labels apart from their members and
# the printer made chunks
DEXP4_SHA256 = (
    "3c89d84c4fcae04452a18df177ff87b8a8c1ff3dc7a134b5e6be750050a9cd32")
TYPED_RESULTS_SHA256 = (
    "6241728328cb8cfaa43d4fea611ef22ee93df6de644bc5df27cec9a4b3a63093")


def test_gen_dexp_output_is_pinned():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["gen-dexp", "--m", "3", "--eval"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        DEXP3_SHA256


def test_gen_dexp_m4_output_is_pinned():
    """65,536 members, each printed as its own chunk."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["gen-dexp", "--m", "4", "--eval"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        DEXP4_SHA256


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
