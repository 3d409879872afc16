"""The evaluation plan of eval_ma gives the plain evaluator's results.

eval_ma rewrites a well-typed query with a product before it evaluates
it (ma.plan); ma._Compiler compiles the query as written. A generator
local to this file draws pipelines of products, tuple-building maps,
unions and selections over generated inputs under set, list and bag
semantics; some draws are ill-typed on purpose, and those must fail
with the same exception and message. A second generator draws
selections by Boolean subqueries, as the machine query spells its
equalities out, for rule 5 of the plan. A third draws unions of
selections over one shared input, whose conditions start with constant
equalities. Other tests take their queries from the Turing machine
acceptance query. The last generator draws filters by equalities
spelled out as the machine query spells them, over inputs that repeat
the labels the filters read.
"""

import hashlib
import random
from functools import reduce

import pytest

from nestql import ma, reductions
from nestql.gen import ATOMS, gen_value
from nestql.ma import (
    CAnd, CNot, COr, CartProd, Compose, Const, EmptyColl, EqAtomic,
    HashJoin, Id, Map, PathEqConst, PathEqPath, PathInSet, Proj,
    Proj_chain, Select, Sng, TrueOp, TupleCons, Union, compose, eval_ma,
    infer_type, plan, type_of,
)
from nestql.ma_text import parse_ma
from nestql.values import (
    ATOMIC, BAG, DEEP, DOM, KINDS, LIST, MON, SET, UNIT, Atom, Coll,
    CollType, TupleType, ValueError_, make_coll, make_tuple, parse_value,
    print_value,
)

PAIR_T = TupleType((("1", DOM), ("2", DOM)))


def _elem_type(rng, sem):
    fields = []
    for label in ("A", "B", "C")[:rng.randint(1, 3)]:
        r = rng.random()
        ft = DOM if r < 0.6 else PAIR_T if r < 0.85 else CollType(sem, DOM)
        fields.append((label, ft))
    return TupleType(tuple(fields))


def _paths(t, prefix=()):
    """(path, type) for every nonempty tuple path of t."""
    out = []
    if isinstance(t, TupleType):
        for label, ft in t.fields:
            out.append((prefix + (label,), ft))
            out += _paths(ft, prefix + (label,))
    return out


def _cond(rng, t, depth=1):
    paths = _paths(t) + [((), t)]
    r = rng.random()
    if depth and r < 0.12:
        return CAnd(_cond(rng, t, depth - 1), _cond(rng, t, depth - 1))
    if depth and r < 0.2:
        return COr(_cond(rng, t, depth - 1), _cond(rng, t, depth - 1))
    if depth and r < 0.25:
        return CNot(_cond(rng, t, depth - 1))
    p, pt = rng.choice(paths)
    if r < 0.6:
        if rng.random() < 0.1:
            # anything goes: often ill-typed
            return PathEqPath(p, rng.choice(paths)[0],
                              rng.choice((ATOMIC, MON, DEEP)))
        same = [q for q, qt in paths if qt == pt]
        # across the sides of a product, when there is one
        cross = [q for q in same if q[:1] != p[:1]]
        q = rng.choice(cross if cross and rng.random() < 0.6 else same)
        modes = ((ATOMIC, MON, DEEP) if pt == DOM else (MON, DEEP)
                 if ma._is_mon_type(pt) else (DEEP,))
        return PathEqPath(p, q, rng.choice(modes))
    if pt != DOM and rng.random() < 0.8:
        p = rng.choice([q for q, qt in paths if qt == DOM] or [p])
    if r < 0.9:
        return PathEqConst(p, rng.choice(ATOMS),
                           rng.choice((ATOMIC, ATOMIC, MON, DEEP)))
    return PathInSet(p, tuple(rng.sample(ATOMS, 2)))


def _field(rng, t):
    """(expression, type) of a field of a tuple-building map."""
    paths = _paths(t)
    r = rng.random()
    if r < 0.5:
        p, pt = rng.choice(paths)
        return Proj_chain(p), pt
    if r < 0.6:
        return Id(), t
    if r < 0.7:
        return Const(rng.choice(ATOMS)), DOM
    inner = [p for p in paths if isinstance(p[1], TupleType)]
    if r < 0.85 and inner:
        # a projection followed by a tuple of paths below it, like the
        # swap in the machine query's zoom
        (p, pt) = rng.choice(inner)
        (a, at), (b, bt) = rng.choice(_paths(pt)), rng.choice(_paths(pt))
        return (Compose(Proj_chain(p), TupleCons(
            (("1", Proj_chain(a)), ("2", Proj_chain(b))))),
            TupleType((("1", at), ("2", bt))))
    (a, at), (b, bt) = rng.choice(paths), rng.choice(paths)
    return (TupleCons((("1", Proj_chain(a)), ("2", Proj_chain(b)))),
            TupleType((("1", at), ("2", bt))))


def _map(rng, t):
    fields = [(label,) + _field(rng, t)
              for label in ("A", "B", "C")[:rng.randint(1, 3)]]
    return (Map(TupleCons(tuple((l, f) for l, f, _ in fields))),
            TupleType(tuple((l, ft) for l, _, ft in fields)))


def _map_like(rng, t, like):
    """A map to the tuple type like, through other paths of t where it
    has them."""
    m, mt = like
    fields = []
    for (label, f), (_, ft) in zip(m.f.fields, mt.fields):
        other = [p for p, pt in _paths(t) if pt == ft]
        fields.append((label, Proj_chain(rng.choice(other)) if other else f))
    return Map(TupleCons(tuple(fields)))


def _small(t):
    return len(_paths(t)) <= 14


def _side(rng, t):
    """A side of a product: (expression, element type)."""
    r = rng.random()
    if r < 0.5:
        return Id(), t
    if r < 0.7:
        return compose(Id(), Select(_cond(rng, t))), t
    if r < 0.85 and _small(t):
        return _map(rng, t)
    return Union(Select(_cond(rng, t)), Select(_cond(rng, t))), t


def _union(rng, t):
    """A union of branches that start with a selection (mostly), all
    with one map after it or none."""
    n = rng.randint(2, 3)
    tail = _map(rng, t) if rng.random() < 0.4 and _small(t) else None
    branches = []
    for _ in range(n):
        parts = [Select(_cond(rng, t))]
        if rng.random() < 0.2:
            parts.append(Select(_cond(rng, t)))
        if tail is not None:
            # same labels and types, other paths: the zoom's shape
            parts.append(tail[0] if rng.random() < 0.5
                         else _map_like(rng, t, tail))
        if rng.random() < 0.1:
            parts = [Id()] + parts[1:] if len(parts) > 1 else [Id()]
        branches.append(compose(*parts))
    out = branches[0]
    for b in branches[1:]:
        out = Union(out, b)
    return out, t if tail is None else tail[1]


def gen_pipeline(rng, t, sem):
    """A query on collections of element type t."""
    stages = [Id()] if rng.random() < 0.2 else []
    n = rng.randint(2, 6)
    first_cart = rng.randrange(min(n, 3))
    carts = 2
    for i in range(n):
        ops = ["select", "select", "union", "map"]
        if carts and _small(t):
            ops += ["cart", "cart"]
        op = "cart" if i == first_cart and carts else rng.choice(ops)
        if op == "cart":
            carts -= 1
            (f, ft), (g, gt) = _side(rng, t), _side(rng, t)
            stages.append(CartProd(f, g))
            t = TupleType((("1", ft), ("2", gt)))
        elif op == "select":
            stages.append(Select(_cond(rng, t)))
        elif op == "union":
            u, t = _union(rng, t)
            stages.append(u)
        elif _small(t):
            m, t = _map(rng, t)
            stages.append(m)
    return compose(*stages)


def _plain(q, v, sem):
    """The value of q as written, without a plan."""
    return ma._Compiler(sem)(q)(v)


def _outcome(run):
    try:
        return "value", print_value(run())
    except Exception as e:   # the error itself is the result compared
        return type(e).__name__, str(e)


def _has_join(q):
    """Whether q has a HashJoin with a key."""
    todo = [q]
    while todo:
        q = todo.pop()
        if type(q) is HashJoin and q.keys:
            return True
        todo.extend(ma._subexprs(q))
    return False


def _draw(seed, sem):
    """A pipeline and a collection to run it on."""
    rng = random.Random(seed)
    t = _elem_type(rng, sem)
    q = gen_pipeline(rng, t, sem)
    # now and then an input of another collection kind
    kind = sem if rng.random() < 0.95 else rng.choice(KINDS)
    v = make_coll(kind, [gen_value(rng, _with_kind(t, kind))
                         for _ in range(rng.randint(1, 5))])
    return q, v


@pytest.mark.parametrize("sem", KINDS)
def test_planned_evaluation_equals_plain_evaluation(sem):
    typed = joined = 0
    for seed in range(500):
        q, v = _draw(seed, sem)
        want = _outcome(lambda: _plain(q, v, sem))
        assert _outcome(lambda: eval_ma(q, v, sem)) == want, (seed, q)
        try:
            infer_type(q, type_of(v, sem), sem)
        except (ma.MATypeError, ValueError_):
            continue
        typed += 1
        assert want[0] == "value", (seed, q)
        joined += _has_join(plan(q))
    # the draws must reach the planned route, and its joins, often
    assert typed >= 300 and joined >= 80, (typed, joined)


# sha256 of the outcome of each _draw as written, one per line, recorded
# with the tree-walking evaluator
PLAIN_DIGEST = (
    "c3db8887999b7c377e953d79e461763c"
    "3f6c0eb817b81091e40e5d58dd2c4023")


def test_plain_outcomes_are_pinned():
    """Values and errors of the generated pipelines, selections on
    mistyped paths and conjuncts that raise after others fail included."""
    lines = []
    for sem in KINDS:
        for seed in range(500):
            q, v = _draw(seed, sem)
            lines.append("%s %s" % _outcome(lambda: _plain(q, v, sem)))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PLAIN_DIGEST


def _assert_canonical(v):
    """Every set and bag node of v has its members in make_coll's order,
    sets without duplicates: the evaluator skips that sort where its
    result comes out canonical anyway."""
    todo, seen = [v], set()
    while todo:
        v = todo.pop()
        if id(v) in seen or type(v) is Atom:
            continue
        seen.add(id(v))
        if type(v) is Coll:
            if v.kind != LIST:
                assert v.elems == make_coll(v.kind, v.elems).elems, \
                    print_value(v)
            todo.extend(v.elems)
        else:
            todo.extend(x for _, x in v.fields)


@pytest.mark.parametrize("sem", KINDS)
def test_results_are_canonical(sem):
    """Over the drawn pipelines, and the selections over a shared input
    that test_shared_selections_are_pinned draws."""
    draws = [_draw(seed, sem) for seed in range(500)]
    for seed in range(600):
        qs, v = _shared_draw(seed, sem)
        draws += [(q, v) for q in qs]
    for q, v in draws:
        for run in (lambda: eval_ma(q, v, sem), lambda: _plain(q, v, sem)):
            try:
                out = run()
            except (ma.MATypeError, ValueError_):
                continue
            _assert_canonical(out)


MODES = (ATOMIC, ATOMIC, MON, DEEP)


def _const_eqs(rng, paths):
    """Constant equalities on paths, in mixed modes."""
    return [PathEqConst(p, rng.choice(ATOMS), rng.choice(MODES))
            for p in paths]


def _one_path_or(rng, p):
    """A disjunction of 2-3 constant equalities on the path p."""
    return reduce(COr, _const_eqs(rng, [p] * rng.randint(2, 3)))


def _shared_cond(rng, t, shared):
    """A condition on elements of type t that starts with 1-3 constant
    equalities, on the draw's shared paths mostly, or with a
    disjunction of constants on one path; then now and then more."""
    atoms = [p for p, pt in _paths(t) if pt == DOM] or [p for p, _ in
                                                         _paths(t)]
    every = [p for p, _ in _paths(t)]
    if rng.random() < 0.2:
        parts = [_one_path_or(rng, rng.choice(shared))]
    else:
        paths = shared
        if rng.random() < 0.3:
            paths = [rng.choice(atoms if rng.random() < 0.8 else every)
                     for _ in range(rng.randint(1, 3))]
        parts = _const_eqs(rng, paths)
        if rng.random() < 0.2:
            parts.append(_one_path_or(rng, rng.choice(atoms)))
    if rng.random() < 0.4:
        parts.append(_cond(rng, t))
    return reduce(CAnd, parts)


def _shared_selects(rng, t):
    """A union of 2-4 selections over one input, most of them starting
    with constant equalities on the same paths."""
    atoms = [p for p, pt in _paths(t) if pt == DOM] or [p for p, _ in
                                                         _paths(t)]
    shared = [rng.choice(atoms) for _ in range(rng.randint(1, 3))]
    sels = [Select(_shared_cond(rng, t, shared))
            for _ in range(rng.randint(2, 4))]
    return reduce(Union, sels)


def _spoil(rng, x):
    """A member in place of x that breaks a walk to an atom: a
    non-tuple, a tuple with a field missing, or one with a non-atom
    where an atom may be."""
    r = rng.random()
    if r < 0.3 or len(x.labels) < 2 and r < 0.6:
        return Atom(rng.choice(ATOMS))
    i = rng.randrange(len(x.labels))
    if r < 0.6:
        return make_tuple(f for j, f in enumerate(x.fields) if j != i)
    other = rng.choice((parse_value("<1: a, 2: b>"), parse_value("{a}"),
                        parse_value("[]")))
    return make_tuple((l, other if j == i else y)
                      for j, (l, y) in enumerate(x.fields))


def _shared_draw(seed, sem):
    """Two queries that run selections over one shared input (a union of
    them, and a product followed by such a union, which rule 1
    distributes over the product), and a collection to run them on."""
    rng = random.Random(seed)
    t = _elem_type(rng, sem)
    kind = sem if rng.random() < 0.95 else rng.choice(KINDS)
    xs = [gen_value(rng, _with_kind(t, kind))
          for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        i = rng.randrange(len(xs))
        xs[i] = _spoil(rng, xs[i])
    v = make_coll(kind, xs)
    pair = TupleType((("1", t), ("2", t)))
    return (_shared_selects(rng, t),
            compose(CartProd(Id(), Id()), _shared_selects(rng, pair))), v


# hand-written selections over a shared input: (query, value, semantics,
# the printed value)
SHARED_CASES = [
    # conflicting constants on one path
    ("union(select[A = 'a' && A = 'b'], select[A = 'a' && A =atom 'a'])",
     "{<A: a>, <A: b>}", SET, "{<A: a>}"),
    ("cart(id, id) ; union(select[1.A = 'a' && 1.A = 'b'], "
     "select[1.A = 'a' && 2.A = 'b'])",
     "{<A: a>, <A: b>}", SET, "{<1: <A: a>, 2: <A: b>>}"),
    # a list input under set semantics: the results are sorted
    ("union(select[A = 'b' && B = 'c'], select[A = 'b' && B =mon 'c'])",
     "[<A: b, B: c>, <A: a, B: c>, <A: b, B: c>]", SET, "{<A: b, B: c>}"),
    ("union(select[A = 'b'], select[A = 'a' || A = 'b'])",
     "[<A: b, B: d>, <A: a, B: c>, <A: b, B: c>]", SET,
     "{<A: a, B: c>, <A: b, B: c>, <A: b, B: d>}"),
    ("union(select[A = 'b'], select[A = 'b' && B = 'c'])",
     "[<A: b, B: d>, <A: a, B: c>, <A: b, B: c>]", LIST,
     "[<A: b, B: d>, <A: b, B: c>, <A: b, B: c>]"),
    # a selection in a map body: its input changes with every member
    ("map(union(select[A = 'a'], select[A = 'a' && B = 'b']))",
     "{{<A: a, B: b>, <A: b, B: b>}, {<A: a, B: c>}, {}}", SET,
     "{{}, {<A: a, B: b>}, {<A: a, B: c>}}"),
    ("map(select[A = 'a'] ; union(select[B = 'b'], select[B = 'c']))",
     "{{<A: a, B: b>, <A: a, B: c>}, {<A: a, B: c>}}", SET,
     "{{<A: a, B: c>}, {<A: a, B: b>, <A: a, B: c>}}"),
    # a member without the field: the plain loop raises on it
    ("union(select[A = 'a'], select[A = 'b'])", "{<A: a>, <B: a>}", SET,
     "ValueError_ no field 'A' in tuple with fields ['B']"),
    # a conjunct that is never tested on a member its constants drop
    ("union(select[A = 'a' && B =atom 'x'], select[A = 'a'])",
     "{<A: a, B: x>, <A: b, B: <>>}", SET, "{<A: a, B: x>}"),
    # one path to a tuple: each disjunct compares as its mode says
    ("union(select[A =mon 'a' || A =mon 'b'], select[A = 'a' || A = 'b'])",
     "{<A: <B: a>>}", SET, "{}"),
    ("union(select[A = 'a' || A =atom 'b'], select[A = 'a'])",
     "{<A: <B: a>>}", SET,
     "ValueError_ atomic equality on non-atom <B: a>"),
]


def _shared_outcome(query, value, sem):
    q, v = parse_ma(query), parse_value(value)
    got = _outcome(lambda: eval_ma(q, v, sem))
    assert got == _outcome(lambda: _plain(q, v, sem)), query
    return got[1] if got[0] == "value" else "%s %s" % got


@pytest.mark.parametrize("query, value, sem, want", SHARED_CASES)
def test_shared_selections(query, value, sem, want):
    assert _shared_outcome(query, value, sem) == want


# sha256 of the outcomes of the _shared_draw queries through the plain
# evaluator and through eval_ma, one per line, then of SHARED_CASES
SHARED_SELECT_DIGEST = (
    "ac2786698b4ee606ef5611afc2b0b126"
    "1ead4e7db416d417cc9f578242cc5f55")


def test_shared_selections_are_pinned():
    """Values and errors of selections that share their input, under
    each semantics, members that hold no atom at a compared path
    included."""
    lines = []
    for sem in KINDS:
        for seed in range(600):
            qs, v = _shared_draw(seed, sem)
            for q in qs:
                for run in (_plain, eval_ma):
                    lines.append("%s %s" % _outcome(lambda: run(q, v, sem)))
    lines += [_shared_outcome(*case[:3]) for case in SHARED_CASES]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == SHARED_SELECT_DIGEST


def test_each_input_is_indexed_once_per_path_tuple(monkeypatch):
    """In a built-in K=1 acceptor decision the branch copies filter one
    configuration set for constants on a few path tuples: each (input,
    paths) index is built at most once."""
    builds = []   # (input, paths): holding the input keeps its id
    real = ma._index

    def counted(v, paths):
        builds.append((v, paths))
        return real(v, paths)
    monkeypatch.setattr(ma, "_index", counted)
    tm = reductions.ACCEPTOR
    assert reductions.decide_tm_query(tm, ("1",), 1) == \
        reductions.simulate_ntm(tm, ("1",), 2)
    keys = [(id(v), paths) for v, paths in builds]
    assert keys and len(set(keys)) == len(keys), keys


@pytest.mark.parametrize("mode, value, want", [
    ("=atom", "{<A: <B: a>>}", "ValueError_ atomic equality on non-atom "
                               "<B: a>"),
    ("=mon", "{<A: <B: a>>}", "{}"),
    ("=", "{<A: <B: a>>}", "{}"),
    ("=mon", "{<A: {a}>}", "ValueError_ mon equality on collection-bearing "
                           "value {a}"),
    ("=", "{<A: <B: a>>, <A: b>}", "{<A: b>}"),
])
def test_one_path_disjunction_on_a_non_atom(mode, value, want):
    """A disjunction of constants on one path that ends on a tuple runs
    its disjuncts in order, each as its mode says."""
    query = "select[A %s 'a' || A %s 'b']" % (mode, mode)
    assert _shared_outcome(query, value, SET) == want


def test_a_plan_that_raises_leaves_nothing_behind(monkeypatch):
    """What one plan call computes dies with it, also when it raises:
    the next call gives the same plan."""
    q = reductions.gen_tm_query(reductions.ACCEPTOR, ("1",), 1)
    want = repr(plan(q))
    real, calls = ma._moved, []

    def failing(m, f, c):
        calls.append(c)
        if len(calls) == 10:
            raise RuntimeError("stop")
        return real(m, f, c)
    monkeypatch.setattr(ma, "_moved", failing)
    with pytest.raises(RuntimeError):
        plan(q)
    monkeypatch.undo()
    assert repr(plan(q)) == want


@pytest.mark.parametrize("query, value, want", [
    # equal members of a bag: side 2's run repeats, out of order
    ("cart(id, id)", "{|a, a, b|}",
     "{|<1: a, 2: a>, <1: a, 2: a>, <1: a, 2: a>, <1: a, 2: a>, "
     "<1: a, 2: b>, <1: a, 2: b>, <1: b, 2: a>, <1: b, 2: a>, "
     "<1: b, 2: b>|}"),
    ("cart(id, id) ; select[1.A = 2.A]",
     "{|<A: a, B: x>, <A: a, B: x>, <A: a, B: y>|}",
     "{|<1: <A: a, B: x>, 2: <A: a, B: x>>, "
     "<1: <A: a, B: x>, 2: <A: a, B: x>>, "
     "<1: <A: a, B: x>, 2: <A: a, B: x>>, "
     "<1: <A: a, B: x>, 2: <A: a, B: x>>, "
     "<1: <A: a, B: x>, 2: <A: a, B: y>>, "
     "<1: <A: a, B: x>, 2: <A: a, B: y>>, "
     "<1: <A: a, B: y>, 2: <A: a, B: x>>, "
     "<1: <A: a, B: y>, 2: <A: a, B: x>>, "
     "<1: <A: a, B: y>, 2: <A: a, B: y>>|}"),
])
def test_bag_products_are_sorted(query, value, want):
    q, v = parse_ma(query), parse_value(value)
    if "select" in query:
        assert type(ma._flat(plan(q), Compose)[0]) is HashJoin
    got = _same_as_plain(q, v, BAG)
    _assert_canonical(got)
    assert print_value(got) == want


@pytest.mark.parametrize("query, value, want", [
    ("cart(id, id)", "[b, a, b]",
     "{<1: a, 2: a>, <1: a, 2: b>, <1: b, 2: a>, <1: b, 2: b>}"),
    ("select[!(A = 'c')]", "[<A: b>, <A: a>, <A: b>]", "{<A: a>, <A: b>}"),
    ("pairwith[A]", "<A: [b, a, b]>", "{<A: a>, <A: b>}"),
])
def test_list_input_under_set_semantics_is_sorted(query, value, want):
    """A list is in no canonical order, so a set built from its members
    is sorted and deduplicated."""
    got = _same_as_plain(parse_ma(query), parse_value(value))
    _assert_canonical(got)
    assert print_value(got) == want


def _with_kind(t, kind):
    if isinstance(t, CollType):
        return CollType(kind, _with_kind(t.elem, kind))
    if isinstance(t, TupleType):
        return TupleType(tuple((l, _with_kind(x, kind)) for l, x in t.fields))
    return t


def _same_as_plain(q, v, sem=SET):
    got = eval_ma(q, v, sem)
    assert print_value(got) == print_value(_plain(q, v, sem))
    return got


def _configs(tm, K):
    return eval_ma(reductions.tm_configs_query(tm, K), UNIT, SET)


def test_machine_step_relation_at_k1():
    """The witness and gamma selections over all 108² pairs of the
    acceptor's configurations: each of the 30 witness-and-gamma branches
    filters both sides of its own product."""
    tm = reductions.ACCEPTOR
    configs = _configs(tm, 1)
    assert len(configs.elems) == 108
    q = reductions.tm_step_query(tm, 1)
    branches = ma._flat(ma._flat(plan(q), Compose)[0], Union)
    assert len(branches) == 30
    for b in branches:
        join = ma._flat(b, Compose)[0]
        assert type(join) is HashJoin
        for side in (join.f, join.g):
            assert Select in map(type, ma._flat(side, Compose))
    assert _same_as_plain(q, configs).elems


def test_machine_step_relation_through_the_k2_zoom():
    """The zoom at K=2 turns the window equalities into join keys; a
    sample of the guesser's 2,592 configurations keeps the plain
    evaluation small."""
    tm = reductions.GUESSER
    configs = _configs(tm, 2)
    sample = make_coll(SET, configs.elems[::50] + configs.elems[:30])
    q = reductions.tm_step_query(tm, 2)
    assert _has_join(plan(q))
    assert _same_as_plain(q, sample).elems


def test_pairs_of_one_shape_share_one_label_tuple():
    """Every pair of a product or a planned hash join, and every tuple of
    one compiled tup[...], holds the same label tuple object."""
    v = parse_value("{a, b, c}")
    for text in ("cart(id, id)", "cart(id, id) ; select[1 = 2]",
                 "cart(id, id) ; map(tup[A = pi[1], B = pi[2]])"):
        out = eval_ma(parse_ma(text), v, SET)
        assert len(out.elems) > 1
        assert len({id(x.labels) for x in out.elems}) == 1
    assert _has_join(plan(parse_ma("cart(id, id) ; select[1 = 2]")))
    a = eval_ma(parse_ma("cart(id, id)"), v, SET).elems[0]
    b = eval_ma(parse_ma("cart(id, id) ; select[1 = 2]"), v, SET).elems[0]
    assert a.labels is b.labels


def test_savitch_doubling_is_a_hash_join():
    tm = reductions.ACCEPTOR
    steps = eval_ma(reductions.tm_step_query(tm, 1), _configs(tm, 1), SET)
    q = parse_ma("cart(id, id) ; select[1.2 =mon 2.1] ; "
                 "map(tup[1 = pi[1] ; pi[1], 2 = pi[2] ; pi[2]])")
    p = plan(q)
    assert p.f == HashJoin(Id(), Id(), ((("2",), ("1",)),), None)
    assert _same_as_plain(q, steps).elems


def _bool(rng, t, depth=2):
    """A Boolean subquery on elements of type t: atomic equalities of two
    paths or of a path and a constant (which rule 5 lifts), conjunctions
    in both built forms, negations, true, and subqueries that yield two
    or more elements."""
    r = rng.random()
    if depth and r < 0.3:
        parts = [_bool(rng, t, depth - 1) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.5:
            return ma._conj(parts)
        return reduce(reductions._conj_bool, parts)
    if depth and r < 0.38:
        return ma._negate(_bool(rng, t, depth - 1))
    if depth and r < 0.43:
        return Compose(_bool(rng, t, depth - 1), TrueOp())
    if r < 0.5:
        return rng.choice((Union(Sng(), Sng()), ma.TRUE_PRED, EmptyColl(),
                           Union(ma.TRUE_PRED, ma.TRUE_PRED)))
    dom = [p for p, pt in _paths(t) if pt == DOM]
    if not dom or rng.random() < 0.05:
        # anything goes: often ill-typed
        dom = [p for p, _ in _paths(t)] + [("Z",)]
    p, q = rng.choice(dom), rng.choice(dom)
    if r < 0.75:
        return EqAtomic(p, q)
    ends = [Proj_chain(p), Const(rng.choice(ATOMS))]
    return ma._pair_eq(*(ends if rng.random() < 0.8 else ends[::-1]))


def _bool_filter(rng, t):
    """A selection by a Boolean subquery, in the form reductions builds
    it or in the form desugar does."""
    g = _bool(rng, t)
    return reductions._filter(g) if rng.random() < 0.5 else ma._sigma(g)


def gen_filter_pipeline(rng, t):
    """A query on collections of element type t: a product of filtered
    sides, then Boolean filters, unions of them and maps."""
    stages = [_bool_filter(rng, t)] if rng.random() < 0.3 else []
    sides = [Id() if rng.random() < 0.6 else _bool_filter(rng, t)
             for _ in range(2)]
    stages.append(CartProd(*sides))
    t = TupleType((("1", t), ("2", t)))
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        if r < 0.6:
            stages.append(_bool_filter(rng, t))
        elif r < 0.8:
            stages.append(Union(_bool_filter(rng, t), _bool_filter(rng, t)))
        elif _small(t):
            m, t = _map(rng, t)
            stages.append(m)
    return compose(*stages)


@pytest.mark.parametrize("sem", KINDS)
def test_boolean_filters_plan_as_selections(sem):
    """Rule 5 gives the plain evaluator's values and errors, under each
    semantics, and fires on many of the typed draws."""
    typed = lifted = 0
    for seed in range(400):
        rng = random.Random(seed)
        t = _elem_type(rng, sem)
        q = gen_filter_pipeline(rng, t)
        v = make_coll(sem, [gen_value(rng, t)
                            for _ in range(rng.randint(1, 5))])
        want = _outcome(lambda: _plain(q, v, sem))
        assert _outcome(lambda: eval_ma(q, v, sem)) == want, (seed, q)
        try:
            infer_type(q, type_of(v, sem), sem)
        except (ma.MATypeError, ValueError_):
            continue
        typed += 1
        assert want[0] == "value", (seed, q)
        stages = ma._flat(q, Compose)
        lifted += ma._lift(stages) != stages
    assert typed >= 200 and lifted >= 150, (typed, lifted)


def _keys(q):
    """The keys of every HashJoin in q."""
    out, todo = [], [q]
    while todo:
        q = todo.pop()
        if type(q) is HashJoin:
            out.append(q.keys)
        todo.extend(ma._subexprs(q))
    return out


def test_expanded_savitch_step_joins_on_the_state():
    """Spelled out, the doubling step's configuration equality is a
    filter; its state conjunct becomes the key of the pairs' join, and
    inside the tape equality the halves join on tag and value."""
    tm = reductions.ACCEPTOR
    steps = eval_ma(reductions.tm_step_query(tm, 1), _configs(tm, 1), SET)
    q = compose(CartProd(Id(), Id()),
                reductions._sel_config_eq(("1", "2"), ("2", "1"), 1, True),
                Map(TupleCons((("1", Proj_chain(("1", "1"))),
                               ("2", Proj_chain(("2", "2")))))))
    keys = _keys(plan(q))
    assert ((("2", "q"), ("1", "q")),) in keys
    assert ((("T",), ("T",)), (("V",), ("V",))) in keys
    assert _same_as_plain(q, steps).elems


A_IS_B = PathEqPath(("A",), ("B",), ATOMIC)
C_IS_A = PathEqConst(("C",), "a", ATOMIC)


@pytest.mark.parametrize("query, cond", [
    # the selection desugar gives select[A =atom B & C = 'a']
    (ma._sigma(ma._conj([EqAtomic(("A",), ("B",)),
                         ma._pair_eq(Proj("C"), Const("a"))])),
     CAnd(A_IS_B, C_IS_A)),
    (reductions._filter(reductions._conj_bool(
        ma._pair_eq(Const("a"), Proj("C")), EqAtomic(("A",), ("B",)))),
     CAnd(C_IS_A, A_IS_B)),
])
def test_atomic_conjuncts_all_lift(query, cond):
    """With every conjunct lifted, no filter is left."""
    assert ma._lift(ma._flat(query, Compose)) == [Select(cond)]
    q = compose(CartProd(Id(), Id()), Map(Proj("1")), query)
    v = parse_value("{<A: a, B: a, C: a>, <A: a, B: b, C: a>, "
                    "<A: b, B: b, C: c>}")
    assert print_value(_same_as_plain(q, v)) == "{<A: a, B: a, C: a>}"


def test_a_long_conjunction_after_a_product_gets_its_plan():
    """What a condition implies of each side of a product is found on an
    explicit stack, so 2,000 conjuncts plan, and the plan gives the
    plain value."""
    q = parse_ma("cart(id, id) ; select[%s]" % " && ".join(
        ["1.A = 'a'", "2.B = 'b'"] * 1000))
    p = plan(q)
    assert type(ma._flat(p, Compose)[0]) is HashJoin
    v = parse_value("{<A: a, B: a>, <A: a, B: b>, <A: b, B: b>}")
    want = _plain(q, v, SET)
    assert print_value(ma._Compiler(SET)(p)(v)) == print_value(want)
    assert len(want.elems) == 4


def test_eval_ma_plans_a_long_conjunction_after_a_product(monkeypatch):
    """Conditions are typed and desugared on the typing walk's explicit
    stack, so a selection of 2,000 conjuncts after a product type-checks
    and desugars, and eval_ma evaluates its plan, which gives the plain
    value."""
    q = parse_ma("cart(id, id) ; select[%s]" % " && ".join(
        ["1.A = 'a'", "2.B = 'b'"] * 1000))
    v = parse_value("{<A: a, B: a>, <A: a, B: b>, <A: b, B: b>}")
    t = type_of(v, SET)
    assert infer_type(q, t, SET) == CollType(SET, TupleType(
        (("1", t.elem), ("2", t.elem))))
    assert ma.is_core(ma.desugar(q, t, SET))
    planned, real = [], ma.plan
    monkeypatch.setattr(ma, "plan", lambda q: planned.append(q) or real(q))
    assert print_value(eval_ma(q, v, SET)) == print_value(_plain(q, v, SET))
    assert planned == [q]


def test_branch_copies_are_capped():
    """Twelve unions of two selections after a product would make 4,096
    branches; the copying stops at ma._MAX_BRANCHES."""
    q = parse_ma("cart(id, id)" + " ; union(select[1 = 'a'], select[2 = 'b'])"
                 * 12)
    p = plan(q)
    assert ma.ast_size(p) < 10 * ma._MAX_BRANCHES
    _same_as_plain(q, make_coll(SET, [Atom(x) for x in ATOMS]))


def _filter_draw(seed, sem):
    """A Boolean-filter pipeline and a collection to run it on, as
    test_boolean_filters_plan_as_selections draws them."""
    rng = random.Random(seed)
    t = _elem_type(rng, sem)
    q = gen_filter_pipeline(rng, t)
    return q, make_coll(sem, [gen_value(rng, t)
                              for _ in range(rng.randint(1, 5))])


TM_CASES = ((reductions.ACCEPTOR, ("1",)), (reductions.GUESSER, ("1",)),
            (reductions.REJECTOR, ()))


def _typed(draws):
    out = []
    for q, v, sem in draws:
        try:
            infer_type(q, type_of(v, sem), sem)
        except (ma.MATypeError, ValueError_):
            continue
        out.append(q)
    return out


_CORPUS = []


def plan_corpus():
    """The typed drawn pipelines and Boolean-filter pipelines under each
    semantics, then the twelve machine acceptance queries, with their
    plans."""
    if not _CORPUS:
        qs = _typed([_draw(seed, sem) + (sem,)
                     for sem in KINDS for seed in range(500)])
        qs += _typed([_filter_draw(seed, sem) + (sem,)
                      for sem in KINDS for seed in range(400)])
        qs += [reductions.gen_tm_query(tm, word, K, expand)
               for tm, word in TM_CASES for K in (1, 2)
               for expand in (False, True)]
        _CORPUS.extend((q, plan(q)) for q in qs)
    return _CORPUS


def _canon(x):
    """x as text, each chain of CAnd written as the list of its
    conjuncts."""
    if type(x) is CAnd:
        parts, todo = [], [x]
        while todo:
            c = todo.pop()
            if type(c) is CAnd:
                todo += (c.b, c.a)
            else:
                parts.append(c)
        return "and[%s]" % ", ".join(map(_canon, parts))
    if type(x) is tuple:
        return "(%s)" % ", ".join(map(_canon, x))
    if hasattr(type(x), "__match_args__"):
        return "%s(%s)" % (type(x).__name__, ", ".join(
            _canon(getattr(x, f)) for f in type(x).__match_args__))
    return repr(x)


# sha256 of the canonical text of each plan of plan_corpus(), one per
# line
PLAN_DIGEST = (
    "488f1c55871413ffeca0909ec3b7a65e"
    "19a58c3e722b03232089b17348c6da0f")


def test_plans_are_pinned():
    """The plans themselves, up to how conjunctions are grouped: a
    change to the planner that keeps every value can still move a
    selection or drop a join."""
    text = "\n".join(_canon(p) for _, p in plan_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_DIGEST


def test_no_selection_follows_a_product():
    """Every selection that reaches a product becomes or joins its
    HashJoin, a branch's selection copied onto a built join too."""
    for q, p in plan_corpus():
        for x in ma._nodes(p):
            if type(x) is Compose:
                before = ma._flat(x.f, Compose)[-1]
                after = ma._flat(x.g, Compose)[0]
                assert not (type(before) in (CartProd, HashJoin)
                            and type(after) is Select), q


# Filters by spelled-out equalities over inputs that repeat label tuples

NESTED = (DOM, PAIR_T, TupleType((("1", PAIR_T), ("2", PAIR_T))))


def _eq_bool(rng, t, depth=2):
    """A Boolean subquery on elements of type t, built as the machine
    query spells equality out: eqatom on drawn paths, _mon_eq_bool at
    depth 0-2, and conjunctions of them by _conj_bool."""
    if depth and rng.random() < 0.3:
        return reductions._conj_bool(_eq_bool(rng, t, depth - 1),
                                     _eq_bool(rng, t, depth - 1))
    paths = _paths(t)
    if rng.random() < 0.5:
        d = rng.randint(0, 2)
        fit = [p for p, pt in paths if pt == NESTED[d]]
        if not fit or rng.random() < 0.1:
            # anything goes: often ill-typed
            fit = [p for p, _ in paths]
        return reductions._mon_eq_bool(rng.choice(fit), rng.choice(fit), d)
    dom = [p for p, pt in paths if pt == DOM]
    if not dom or rng.random() < 0.1:
        dom = [p for p, _ in paths] + [("Z",)]
    return EqAtomic(rng.choice(dom), rng.choice(dom))


def _spoil_below(rng, x):
    """x with a member that breaks a walk to an atom, at the top or
    further down: a non-tuple, a missing field or a non-atom."""
    if type(x) is not ma.Tuple or not x.labels:
        return rng.choice((parse_value("<1: a, 2: b>"), parse_value("{a}"),
                           parse_value("[]")))
    if rng.random() < 0.4:
        return _spoil(rng, x)
    i = rng.randrange(len(x.labels))
    return make_tuple((l, _spoil_below(rng, y) if j == i else y)
                      for j, (l, y) in enumerate(x.fields))


def _repeating(rng, t, kind):
    """A collection of kind whose members repeat a few drawn ones, now
    and then with one field drawn again, so that many share their labels
    at the paths a filter reads; now and then one member is spoilt."""
    base = [gen_value(rng, t) for _ in range(rng.randint(1, 3))]
    xs = []
    for _ in range(rng.randint(2, 7)):
        x = rng.choice(base)
        if rng.random() < 0.3:
            i = rng.randrange(len(x.labels))
            ft = t.fields[i][1]
            x = make_tuple((l, gen_value(rng, ft) if j == i else y)
                           for j, (l, y) in enumerate(x.fields))
        xs.append(x)
    if rng.random() < 0.35:
        i = rng.randrange(len(xs))
        xs[i] = _spoil_below(rng, xs[i])
    return make_coll(kind, xs)


def _eq_filter_draw(seed, sem):
    """Two filters by spelled-out equalities, one on the input and one
    after cart(id, id), and a collection to run them on."""
    rng = random.Random(seed)
    t = TupleType(tuple((l, rng.choice(NESTED))
                        for l in ("A", "B", "C")[:rng.randint(2, 3)]))
    kind = sem if rng.random() < 0.9 else rng.choice(KINDS)
    v = _repeating(rng, t, kind)
    pair = TupleType((("1", t), ("2", t)))
    return (reductions._filter(_eq_bool(rng, t)),
            compose(CartProd(Id(), Id()),
                    reductions._filter(_eq_bool(rng, pair)))), v


# hand-written filters: (query, value, semantics, the printed outcome)
FILTER_CASES = [
    # a subquery that reads its whole input
    ("flatmap(tup[1 = id, 2 = sng ; select[A = 'a']] ; pairwith[2] ; "
     "map(pi[1]))",
     "[<A: a, B: x>, <A: b, B: x>, <A: a, B: x>, <A: a, B: y>]", LIST,
     "[<A: a, B: x>, <A: a, B: x>, <A: a, B: y>]"),
    # a subquery that raises on a later key, after repeats of the first
    ("flatmap(tup[1 = id, 2 = union(eqatom[A, B], eqatom[A, B] ; not ; "
     "map(pi[Z]))] ; pairwith[2] ; map(pi[1]))",
     "[<A: a, B: a, C: x>, <A: a, B: a, C: y>, <A: a, B: b, C: x>]", LIST,
     "ValueError_ no field 'Z' in tuple with fields []"),
    ("cart(id, id) ; flatmap(tup[1 = id, 2 = union(eqatom[1.A, 2.A], "
     "eqatom[1.A, 2.A] ; not ; map(pi[Z]))] ; pairwith[2] ; map(pi[1]))",
     "{<A: a>, <A: b>}", SET,
     "ValueError_ no field 'Z' in tuple with fields []"),
    # a subquery whose value is not a collection
    ("flatmap(tup[1 = id, 2 = pi[A]] ; pairwith[2] ; map(pi[1]))",
     "{<A: a>}", SET, "ValueError_ pairwith field: expected collection, "
                      "got a"),
    # a subquery with two members keeps its member twice in a bag
    ("flatmap(tup[1 = id, 2 = union(eqatom[A, B], eqatom[A, B])] ; "
     "pairwith[2] ; map(pi[1]))",
     "{|<A: a, B: a, C: x>, <A: a, B: a, C: y>, <A: a, B: b, C: x>|}", BAG,
     "{|<A: a, B: a, C: x>, <A: a, B: a, C: x>, <A: a, B: a, C: y>, "
     "<A: a, B: a, C: y>|}"),
    # filters inside a map body: one member's key recurs in another's
    ("map(flatmap(tup[1 = id, 2 = eqatom[A, B]] ; pairwith[2] ; "
     "map(pi[1])))",
     "{{<A: a, B: a>, <A: a, B: b>}, {<A: a, B: a, C: c>}, {<A: b, B: b>}}",
     SET, "{{<A: a, B: a>}, {<A: b, B: b>}, {<A: a, B: a, C: c>}}"),
    ("map(cart(id, id) ; flatmap(tup[1 = id, 2 = cart(eqatom[1.A, 2.A], "
     "eqatom[1.B, 2.B]) ; map(unit)] ; pairwith[2] ; map(pi[1])))",
     "{{<A: a, B: b>, <A: a, B: c>}, {<A: a, B: b, C: c>}}", SET,
     "{{<1: <A: a, B: b, C: c>, 2: <A: a, B: b, C: c>>}, "
     "{<1: <A: a, B: b>, 2: <A: a, B: b>>, <1: <A: a, B: c>, "
     "2: <A: a, B: c>>}}"),
    # a member with a tuple where the others have an atom
    ("flatmap(tup[1 = id, 2 = eqmon[A, B]] ; pairwith[2] ; map(pi[1]))",
     "[<A: a, B: a>, <A: <1: a>, B: <1: a>>, <A: a, B: a>]", LIST,
     "[<A: a, B: a>, <A: <1: a>, B: <1: a>>, <A: a, B: a>]"),
]


@pytest.mark.parametrize("query, value, sem, want", FILTER_CASES)
def test_filters(query, value, sem, want):
    assert _shared_outcome(query, value, sem) == want


# sha256 of the outcomes of the _eq_filter_draw queries through the plain
# evaluator and through eval_ma, one per line, then of FILTER_CASES
FILTER_DIGEST = (
    "68fa28380dc59b6b0942d31f28a6c5f9"
    "c063452f54237c69c38621945dc7f0b8")


def test_filter_outcomes_are_pinned():
    """Values and errors of filters by spelled-out equalities under each
    semantics, on members that repeat their labels, and on members with
    a non-atom, a missing field or a non-tuple where the filter reads."""
    lines = []
    for sem in KINDS:
        for seed in range(600):
            qs, v = _eq_filter_draw(seed, sem)
            for q in qs:
                for run in (_plain, eval_ma):
                    lines.append("%s %s" % _outcome(lambda: run(q, v, sem)))
    lines += [_shared_outcome(*case[:3]) for case in FILTER_CASES]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == FILTER_DIGEST


def _counted_filters(monkeypatch):
    """A list that gets [members filtered, runs of g] for each filter
    that ma._c_filter compiles from now on."""
    sites, real = [], ma._c_filter

    def counted(body, g, paths, cc):
        site = [0, 0]
        sites.append(site)

        def counted_g(x):
            site[1] += 1
            return g(x)
        run = real(body, counted_g, paths, cc)

        def counted_run(v):
            site[0] += len(v.elems)
            return run(v)
        return counted_run
    monkeypatch.setattr(ma, "_c_filter", counted)
    return sites


@pytest.mark.parametrize("tm, word, members, runs", [
    (reductions.ACCEPTOR, ("1",), 450, 324),
    (reductions.GUESSER, ("1",), 567, 324),
    (reductions.REJECTOR, (), 80, 64),
])
def test_the_spelled_out_doubling_runs_g_once_per_label_tuple(
        monkeypatch, tm, word, members, runs):
    """At K=1 the doubling's filter meets more joined pairs than there
    are distinct labels at the tape paths its subquery reads."""
    sites = _counted_filters(monkeypatch)
    assert reductions.decide_tm_query(tm, word, 1, expand_eq=True) == \
        reductions.simulate_ntm(tm, word, 2)
    assert max(sites) == [members, runs]


def test_a_subquery_that_reads_its_whole_input_is_not_memoised(
        monkeypatch):
    whole = parse_ma("sng ; select[A = 'a']")
    assert ma._reads(whole) is None
    assert ma._reads(parse_ma("pi[A] ; sng ; flatten")) == (("A",),)
    assert ma._reads(reductions._mon_eq_bool(("A",), ("B",), 1)) == (
        ("A", "1"), ("A", "2"), ("B", "1"), ("B", "2"))
    sites = _counted_filters(monkeypatch)
    q, v = FILTER_CASES[0][:2]
    assert _shared_outcome(q, v, LIST) == FILTER_CASES[0][3]
    assert sites == []


# filters whose subquery needs a field it does not compare, or builds a
# tuple field by a node that reads its whole input: (query, list value,
# the printed outcome)
READ_CASES = [
    ("tup[A = pi[A], B = pi[B]] ; eqatom[A, A]", "[<A: a, B: a>, <A: a>]",
     "ValueError_ no field 'B' in tuple with fields ['A']"),
    ("tup[A = pi[A], B = pi[A] ; pairwith[W]] ; eqatom[A.V, A.V]",
     "[<A: <V: a, W: [c]>>, <A: <V: a, W: b>>]",
     "ValueError_ pairwith field: expected collection, got b"),
    ("tup[A = pi[A], B = pi[A] ; pairwith[W]] ; eqatom[A.V, A.V]",
     "[<A: <V: a, W: [c]>>, <A: <V: a, W: [c, d]>>]",
     "[<A: <V: a, W: [c]>>, <A: <V: a, W: [c, d]>>]"),
]


@pytest.mark.parametrize("g, value, want", READ_CASES)
def test_a_key_holds_all_that_the_subquery_needs(g, value, want):
    """The flatmap gives what the plain loop of map ; flatten gives."""
    g, v = parse_ma(g), parse_value(value)
    for q in (reductions._filter(g), ma._sigma(g)):
        got = _outcome(lambda: _plain(q, v, LIST))
        assert (got[1] if got[0] == "value" else "%s %s" % got) == want


def test_the_read_set_of_a_long_chain_is_found_on_a_stack():
    """5,000 stages that move two fields, at the top of the subquery and
    inside a tuple field."""
    swap = parse_ma("tup[A = pi[B], B = pi[A]]")
    top = compose(*[swap] * 5000, EqAtomic(("A",), ("B",)))
    same = parse_ma("tup[V = id] ; pi[V]")
    inner = compose(TupleCons((("A", compose(Proj("A"), *[same] * 2500)),
                               ("B", Proj("B")))),
                    EqAtomic(("A",), ("B",)))
    v = parse_value("{<A: a, B: a>, <A: a, B: b>, <A: b, B: b>}")
    for g in (top, inner):
        assert ma._reads(g) == (("A",), ("B",))
        got = _plain(reductions._filter(g), v, SET)
        assert print_value(got) == "{<A: a, B: a>, <A: b, B: b>}"


def test_nothing_carries_over_between_evaluations(monkeypatch):
    sites = _counted_filters(monkeypatch)
    q = reductions.gen_tm_query(reductions.REJECTOR, (), 1, expand_eq=True)
    for _ in range(2):
        assert not eval_ma(q, UNIT, SET).elems
    runs = [site for site in sites if site[0]]
    assert len(runs) == 4 and runs[:2] == runs[2:], runs
