import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from nestql import detree, gen, ma
from nestql.detree import (
    MARK_EMPTY, MARK_UNIT, check_deterministic, decode_det, encode_det,
    eval_closed, eval_det, listify_type, parse_pathset, print_pathset,
)
from nestql.ma import (
    UNIT_T, EqAtomic, Flatten, Id, Map, Proj, desugar, eval_ma, infer_type,
)
from nestql.lp import compile_lp, run_lp
from nestql.ma_text import parse_ma
from nestql.reductions import flat_encode, gen_vprime
from nestql.ma import ANY
from nestql.values import (
    BAG, DOM, LIST, SET, UNIT, CollType, TupleType, parse_type, parse_value,
    print_type, print_value,
)

from test_lp import FLAT_DB_TYPE, FLAT_TYPES


@given(st.integers(0, 10 ** 6))
def test_encode_decode_roundtrip(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, SET)
    v = gen.gen_value(rng, t)
    paths = encode_det(v)
    assert check_deterministic(paths)
    assert decode_det(paths, t) == v


@given(st.integers(0, 10 ** 6))
def test_pathset_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, LIST)
    v = gen.gen_value(rng, t)
    paths = encode_det(v)
    assert parse_pathset(print_pathset(paths)) == paths
    # computed path sets also hold pair steps (flatten, union)
    q = gen.gen_closed_query(rng, 4, LIST)
    for em in (False, True):
        paths = eval_closed(q, em)
        assert parse_pathset(print_pathset(paths)) == paths


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_eval_det_agrees_with_direct(seed):
    rng = random.Random(seed)
    q = gen.gen_closed_query(rng, 4, LIST)
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    direct = eval_ma(q, UNIT, LIST)
    got = decode_det(eval_closed(q, empty_markers=True), lt)
    assert got == direct


def test_eval_det_result_is_deterministic():
    rng = random.Random(9)
    for _ in range(50):
        q = gen.gen_closed_query(rng, 4, LIST)
        assert check_deterministic(eval_closed(q, empty_markers=True))


def test_computed_empty_needs_the_marker():
    """Without marker forwarding, an empty collection computed under a
    constructor decays to path absence; the marker keeps it decodable."""
    q = parse_ma("'c' ; sng ; union(empty, empty) ; sng")
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    with_marker = decode_det(eval_closed(q, empty_markers=True), lt)
    assert with_marker == eval_ma(q, UNIT, LIST)
    bare = decode_det(eval_closed(q, empty_markers=False), lt)
    assert bare != with_marker


def test_empty_input_value_roundtrips():
    v = parse_value("<A: {}, B: a>")
    t = parse_type("<A: {Dom}, B: Dom>")
    assert decode_det(encode_det(v), t) == v


def test_eval_det_on_open_input():
    v = parse_value("{a, b}")
    q = parse_ma("map(tup[X = id])")
    t = parse_type("{Dom}")
    out = eval_det(q, encode_det(v))
    assert decode_det(out, infer_type(q, t, SET)) == eval_ma(q, v, SET)


def test_atoms_spelled_like_markers_stay_atoms():
    """The empty and unit markers are steps of their own; atoms with the
    same spelling print quoted and decode back to atoms."""
    v = parse_value('<A: "[]", B: "<>">')
    text = print_pathset(encode_det(v))
    assert text == 'A."[]"\nB."<>"'
    assert decode_det(parse_pathset(text)) == v
    v = parse_value("<A: {}, B: <>>")
    text = print_pathset(encode_det(v))
    assert text == "A.[]\nB.<>"
    t = parse_type("<A: {Dom}, B: <>>")
    assert decode_det(parse_pathset(text), t) == v


def test_steps_that_int_cannot_read_order_as_labels():
    """The label "²" passes str.isdigit but int() rejects it, so ordering
    it as a numeral crashed decoding. It orders after the numerals."""
    paths = parse_pathset('"²".a\n1.b\n')
    assert decode_det(paths, parse_type("[Dom]")) == parse_value("[b, a]")


def _pinned_path_sets():
    """Every eval_det result the PINNED_PATHS digest covers, in order:
    gen_closed_query seeds 0-199 without and with empty markers, then the
    reassembly query of each flat type on its encoded input, both ways."""
    for seed in range(200):
        q = gen.gen_closed_query(random.Random(seed), 4, LIST)
        for em in (False, True):
            yield eval_closed(q, em)
    rng = random.Random(5)
    db_type = parse_type(FLAT_DB_TYPE)
    for text in FLAT_TYPES:
        t = parse_type(text)
        q = desugar(gen_vprime(t), db_type, LIST)
        paths = encode_det(flat_encode(gen.gen_flat_value(rng, t)))
        for em in (False, True):
            yield eval_det(q, paths, em)


# sha256 over print_pathset of every result of _pinned_path_sets, one
# block per result, recorded with the evaluator that sliced path tuples
PINNED_PATHS = (
    "ec461ccceaadfb6ae5efb8dd49d27749"
    "8b66ab07a7f4bc61be99de88c3ebc53b")


def test_path_set_results_are_pinned():
    h = hashlib.sha256()
    for paths in _pinned_path_sets():
        h.update((print_pathset(paths) + "\n--\n").encode())
    assert h.hexdigest() == PINNED_PATHS


@pytest.mark.parametrize("query, paths, want", [
    # a marker leaf merges with content under the same step
    ("map(id)", "[]\n[].a", "[]\n[].a"),
    # a sibling of length 1 is no member's sibling
    ("pairwith[2]", "2.1.x\n1", "1.2.x"),
    # the marker leaf of the paired field merges with a member's content
    ("pairwith[2]", "2.[]\n2.[].b\n1.a", "[]\n[].1.a\n[].2.b"),
])
def test_path_sets_no_value_encodes(query, paths, want):
    """Path sets that encode no value, with markers on: a path that is a
    prefix of another, or a leaf beside a paired field's members. The
    results were recorded with the evaluator that sliced path tuples."""
    got = eval_det(parse_ma(query), parse_pathset(paths), True)
    assert print_pathset(got) == want


def test_deep_paths():
    """Paths of 1,500 steps: no operator walks them by recursion."""
    tail = tuple(str(i % 7) for i in range(1499))
    other = tail[:-1] + ("x",)
    V = frozenset({("a",) + tail, ("b",) + tail, ("c",) + other})
    true = frozenset({("s", MARK_UNIT)})
    assert eval_det(EqAtomic(("a",), ("b",)), V) == true
    assert eval_det(EqAtomic(("a",), ("c",)), V) == frozenset()
    assert eval_det(EqAtomic(("a",), ("c",)), V, True) == \
        frozenset({(MARK_EMPTY,)})
    assert eval_det(Map(Id()), V) == V
    assert eval_det(Proj("a"), V) == frozenset({tail})
    assert eval_det(Flatten(), V) == frozenset(
        {((p[0], p[1]),) + p[2:] for p in V})


def test_a_tuple_label_given_twice_unions_its_fields():
    """Recorded with the evaluator that sliced path tuples."""
    V = parse_pathset("x.y\nz.w")
    got = eval_det(parse_ma("tup[A = id, A = pi[x]]"), V)
    assert print_pathset(got) == "A.x.y\nA.y\nA.z.w"
    got = eval_det(parse_ma("tup[A = pi[x], B = id, A = pi[x]]"), V)
    assert print_pathset(got) == "A.y\nB.x.y\nB.z.w"


# ---------------------------------------------------------------------------
# Pinned decoding: random path sets, most of which encode no value

_STEPS = ("1", "2", "01", "s", "A", "B", "[]", "<>", MARK_EMPTY, MARK_UNIT)


def _any_step(rng, depth=2):
    if depth and rng.random() < 0.15:
        return (_any_step(rng, depth - 1), _any_step(rng, depth - 1))
    return rng.choice(_STEPS)


def _any_pathset(rng):
    """One to five paths of one to four steps; a path often extends or
    branches off a prefix of an earlier one, so paths share prefixes."""
    paths = []
    for _ in range(rng.randint(1, 5)):
        head = ()
        if paths and rng.random() < 0.6:
            p = rng.choice(paths)
            head = p[:rng.randint(0, len(p))]
        paths.append(head + tuple(_any_step(rng)
                                  for _ in range(rng.randint(1, 3))))
    return frozenset(paths)


def _any_type(rng, depth=3):
    r = rng.random()
    if not depth or r < 0.3:
        return DOM if r < 0.25 else ANY
    if r < 0.65:
        return CollType(rng.choice((SET, LIST, BAG)), _any_type(rng, depth - 1))
    labels = rng.sample(("A", "B", "1", "2"), rng.randint(0, 2))
    return TupleType(tuple((l, _any_type(rng, depth - 1)) for l in labels))


def _outcome(run):
    try:
        return "value %s" % run()
    except Exception as e:   # the error itself is the outcome pinned
        return "%s %s" % (type(e).__name__, e)


def _decode_lines():
    """For 6,000 random path sets: the set, whether it is deterministic,
    and its decoding untyped and against a drawn type; then the encoding
    of gen_value draws under each semantics, decoded back by their type."""
    rng = random.Random(11)
    for _ in range(6000):
        V = _any_pathset(rng)
        t = _any_type(rng)
        yield " | ".join((
            print_pathset(V).replace("\n", " ; "), print_type(t),
            str(check_deterministic(V)),
            _outcome(lambda: print_value(decode_det(V))),
            _outcome(lambda: print_value(decode_det(V, t)))))
    for seed, sem in enumerate((SET, LIST, BAG)):
        rng = random.Random(seed)
        for _ in range(300):
            t = gen.gen_type(rng, 3, sem)
            V = encode_det(gen.gen_value(rng, t))
            yield " | ".join((
                print_pathset(V).replace("\n", " ; "),
                str(check_deterministic(V)),
                print_value(decode_det(V, t))))


# sha256 of _decode_lines, one per line, recorded with the decoder that
# sliced path tuples
PINNED_DECODE = (
    "3f72865b2f7fdd13f4b527a706b5c5bc"
    "6d816246d3b1b5f1e762770e42eb50aa")


def test_decoding_is_pinned():
    lines = list(_decode_lines())
    failed = sum(" ValueError_ " in l for l in lines)
    assert failed >= 3000, failed
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DECODE


# one instance of each core operator the path routes run; the bag-only
# Monus and Unique have no list meaning
CORE_SAMPLES = [
    ma.Id(), ma.Const("a"), ma.EmptyColl(), ma.UnitTuple(), ma.Sng(),
    ma.Map(ma.Id()), ma.Flatten(), ma.PairWith("A"),
    ma.TupleCons((("A", ma.Id()),)), ma.Proj("A"),
    ma.Compose(ma.Sng(), ma.Flatten()), ma.Union(ma.Id(), ma.Id()),
    ma.UnionT(), ma.EqAtomic(("A",), ("B",)), ma.NotOp(), ma.TrueOp(),
]


def test_every_core_operator_runs_on_both_path_routes():
    assert ({type(q) for q in CORE_SAMPLES}
            == set(ma.CORE_NODES) - {ma.Monus, ma.Unique})
    for q in CORE_SAMPLES:
        assert type(q) in detree._COMPILE
        compile_lp(q, closed=False)


def _closed_tests():
    """Boolean draws, and each closed collection draw followed by
    map(sng ; not) and by map(sng ; true)."""
    for seed in range(150):
        rng = random.Random(seed)
        yield gen.gen_bool_query(rng, 3, LIST), True
        q = gen.gen_closed_query(rng, 3, LIST)
        if isinstance(infer_type(q, UNIT_T, LIST), CollType):
            for test in (ma.NotOp(), ma.TrueOp()):
                yield ma.Compose(q, Map(ma.Compose(ma.Sng(), test))), False


def test_negation_and_true_agree_on_every_route():
    """not and true give the logic program's path sets, and decode to
    the direct result. With empty markers, an eqatom that holds leaves
    the marker "[]" in the program's path set but not in eval_det's, so
    the path sets of the mapped forms are compared without markers."""
    for q, with_markers in _closed_tests():
        for em in (False, True) if with_markers else (False,):
            assert eval_closed(q, em) == run_lp(q, empty_markers=em)
        lt = listify_type(infer_type(q, UNIT_T, LIST))
        want = eval_ma(q, UNIT, LIST)
        assert decode_det(eval_closed(q, True), lt) == want
        assert decode_det(run_lp(q, empty_markers=True), lt) == want
