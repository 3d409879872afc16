"""Monad algebra on complex values.

The AST covers the core operations (identity, composition, constants,
singleton, map, flatten, pairwith, tuple formation, projection, union,
atomic equality) plus the nonmonotone extras (not, true, monus, unique)
and a layer of extended operators (selection, difference, intersection,
membership, containment, nesting, Cartesian product, flatmap, structural
equalities) that :func:`desugar` rewrites into the core.

Composition is applied left to right: ``Compose(f, g)`` means g after f.
Predicates follow the usual convention: the singleton collection of the
unit tuple is true, the empty collection is false.

:func:`eval_ma` evaluates a well-typed query that has a Cartesian
product through an evaluation plan (:func:`plan`): selections move
through unions and tuple-building maps towards the products they
filter, and a product followed by a selection becomes a hash join on
the selection's cross-side equalities. The plan gives the same value
under set, list and bag semantics. It is made once per call, from the
query alone; a query that does not type-check against its input runs
as written, so its errors are the evaluator's own. Either tree is
compiled into Python closures once per call before it runs.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from typing import Optional, Tuple as Tup

from .values import (
    ATOMIC, BAG, DEEP, KINDS, LIST, MON, SET,
    Atom, Coll, CollType, DomType, DOM, Tuple, TupleType, Type, UNIT, UNIT_T,
    Value, ValueError_, make_coll, make_tuple, make_tuple_type, print_type,
    print_value, record, value_equal,
)

Path = Tup[str, ...]


class MATypeError(Exception):
    pass


# ---------------------------------------------------------------------------
# AST

@record
class MAExpr:
    pass


@record
class Id(MAExpr):
    pass


@record
class Const(MAExpr):
    label: str


@record
class EmptyColl(MAExpr):
    """The constant empty collection."""


@record
class UnitTuple(MAExpr):
    pass


@record
class Sng(MAExpr):
    pass


@record
class Map(MAExpr):
    f: MAExpr


@record
class Flatten(MAExpr):
    pass


@record
class PairWith(MAExpr):
    label: str


@record
class TupleCons(MAExpr):
    fields: Tup[Tup[str, MAExpr], ...]


@record
class Proj(MAExpr):
    label: str


@record
class Compose(MAExpr):
    f: MAExpr
    g: MAExpr


@record
class Union(MAExpr):
    f: MAExpr
    g: MAExpr


@record
class UnionT(MAExpr):
    """Union of the two collection fields of a tuple <1: X, 2: Y>."""


@record
class EqAtomic(MAExpr):
    pa: Path
    pb: Path


@record
class NotOp(MAExpr):
    pass


@record
class TrueOp(MAExpr):
    pass


@record
class Monus(MAExpr):
    pass


@record
class Unique(MAExpr):
    pass


# extended operators, removed by desugar()

@record
class EqMon(MAExpr):
    pa: Path
    pb: Path


@record
class EqDeep(MAExpr):
    pa: Path
    pb: Path


@record
class SelCond:
    pass


@record
class CAnd(SelCond):
    a: SelCond
    b: SelCond


@record
class COr(SelCond):
    a: SelCond
    b: SelCond


@record
class CNot(SelCond):
    a: SelCond


@record
class CIff(SelCond):
    a: SelCond
    b: SelCond


@record
class PathEqPath(SelCond):
    p: Path
    q: Path
    mode: str = DEEP


@record
class PathEqConst(SelCond):
    p: Path
    label: str
    mode: str = ATOMIC


@record
class PathInSet(SelCond):
    p: Path
    labels: Tup[str, ...]


@record
class Select(MAExpr):
    cond: SelCond


@record
class Diff(MAExpr):
    """Difference of the two collection fields of <1: R, 2: S>."""


@record
class Intersect(MAExpr):
    """Intersection of the two collection fields of <1: R, 2: S>."""


@record
class SubsetEq(MAExpr):
    pa: Path
    pb: Path


@record
class MemberOf(MAExpr):
    pa: Path
    pb: Path


@record
class Nest(MAExpr):
    label: str
    grouped: Tup[str, ...]


@record
class CartProd(MAExpr):
    f: MAExpr
    g: MAExpr


@record
class FlatMap(MAExpr):
    f: MAExpr


# built by plan() only, never parsed, printed, typed or desugared

@record
class HashJoin(MAExpr):
    """``cart(f, g) ; select[c]`` as evaluated: the pairs <1: x, 2: y>
    with x.p == y.q for each (p, q) in keys, that satisfy cond (None: no
    further test). Pairs come in the product's order."""
    f: MAExpr
    g: MAExpr
    keys: Tup[Tup[Path, Path], ...]
    cond: Optional[SelCond]


CORE_NODES = (Id, Const, EmptyColl, UnitTuple, Sng, Map, Flatten, PairWith,
              TupleCons, Proj, Compose, Union, UnionT, EqAtomic, NotOp,
              TrueOp, Monus, Unique)


def _subexprs(q: MAExpr) -> tuple:
    """The direct subexpressions of q."""
    t = type(q)
    if t in (Compose, Union, CartProd, HashJoin):
        return q.f, q.g
    if t in (Map, FlatMap):
        return q.f,
    if t is TupleCons:
        return tuple(f for _, f in q.fields)
    return ()


def _nodes(q: MAExpr):
    """The nodes of q, on an explicit stack."""
    todo = [q]
    while todo:
        q = todo.pop()
        yield q
        todo.extend(_subexprs(q))


def is_core(q: MAExpr) -> bool:
    return all(isinstance(x, CORE_NODES) for x in _nodes(q))


def ast_size(q: MAExpr) -> int:
    return sum(1 for _ in _nodes(q))


def compose(*parts: MAExpr) -> MAExpr:
    """Left-to-right composition chain; drops nothing, folds left."""
    return reduce(Compose, parts)


def union_pair(f: MAExpr, g: MAExpr) -> MAExpr:
    """The core form of union(f, g): tup[1 = f, 2 = g] ; union."""
    return Compose(TupleCons((("1", f), ("2", g))), UnionT())


# ---------------------------------------------------------------------------
# Typing

@record
class AnyType(Type):
    """Element type of an empty collection literal; joins with anything."""


ANY = AnyType()


def type_join(a: Type, b: Type, ctx: str) -> Type:
    if isinstance(a, AnyType):
        return b
    if isinstance(b, AnyType):
        return a
    if isinstance(a, DomType) and isinstance(b, DomType):
        return DOM
    if isinstance(a, CollType) and isinstance(b, CollType) and a.kind == b.kind:
        return CollType(a.kind, type_join(a.elem, b.elem, ctx))
    if (isinstance(a, TupleType) and isinstance(b, TupleType)
            and a.labels() == b.labels()):
        return TupleType(tuple(
            (l, type_join(x, y, ctx))
            for (l, x), (_, y) in zip(a.fields, b.fields)))
    raise MATypeError("%s: incompatible types %s and %s"
                      % (ctx, print_type(a), print_type(b)))


@cache   # one immutable type, which many nodes get
def bool_type(sem: str) -> CollType:
    return CollType(sem, UNIT_T)


def path_type(t: Type, p: Path, ctx: str) -> Type:
    for label in p:
        if not isinstance(t, TupleType):
            raise MATypeError("%s: path %s leaves tuple territory at %s"
                              % (ctx, ".".join(p), print_type(t)))
        try:
            t = t.field(label)
        except ValueError_:
            raise MATypeError("%s: no field %s in %s"
                              % (ctx, label, print_type(t)))
    return t


def _mon_type(t: Type, ctx: str):
    if not _is_mon_type(t):
        raise MATypeError("%s: mon equality needs a collection-free type, "
                          "got %s" % (ctx, print_type(t)))


def infer_type(q: MAExpr, t: Type, sem: str = SET) -> Type:
    """The type of q on input type t; MATypeError if it is ill-typed."""
    return _walk(q, t, sem, False)[1]


def _walk(q, t: Type, sem: str, core: bool):
    """(q's core form on input type t if core, else None; q's type on t).

    Each node and each condition (typed on the members it tests, as a
    Boolean) has a _TYPE rule. The rule of one with operands yields
    (operand, input type) pairs and is sent back their types, on an
    explicit stack; with core set, its _CORE form is made of theirs.
    Any other rule returns (its core form, its type), and builds a form
    that is not q itself only with core set."""
    stack, kids, rules, forms = [], [], _TYPE, _CORE
    rule = node = None   # the innermost node with operands
    while True:
        if type(q) in forms:
            stack.append((rule, node, kids))
            rule, node, kids = rules[type(q)](q, t, sem), q, []
            out = None   # starts the rule
        else:
            leaf = rules.get(type(q))
            if leaf is None:
                raise MATypeError("cannot type %r" % (q,))
            form, out = leaf(q, t, sem, core)
            if core:
                kids.append(form)
        while rule is not None:
            try:
                q, t = rule.send(out)
                break
            except StopIteration as stop:
                out = stop.value
            done = forms[type(node)](node, kids, sem) if core else None
            rule, node, kids = stack.pop()
            kids.append(done)
        else:
            return kids[0] if core else None, out


def _t_compose(q, t, sem):
    return (yield q.g, (yield q.f, t))


def _t_map(q, t, sem):
    flat = type(q) is FlatMap
    ct = _need_coll(t, sem, "flatmap" if flat else "map")
    out = CollType(sem, (yield q.f, ct.elem))
    return _flattened(out, sem) if flat else out


def _t_tuple(q, t, sem):
    fields = []
    for l, f in q.fields:
        fields.append((l, (yield f, t)))
    return make_tuple_type(fields)


def _t_union(q, t, sem):
    a = yield q.f, t
    b = yield q.g, t
    _need_coll(a, sem, "union (left)")
    _need_coll(b, sem, "union (right)")
    return type_join(a, b, "union")


def _t_cart(q, t, sem):
    a = _need_coll((yield q.f, t), sem, "cart (left)")
    b = _need_coll((yield q.g, t), sem, "cart (right)")
    return CollType(sem, TupleType((("1", a.elem), ("2", b.elem))))


def _t_select(q, t, sem):
    ct = _need_coll(t, sem, "select")
    if type(ct.elem) is not AnyType:   # else no member to test
        yield q.cond, ct.elem
    return ct


def _t_connective(c, t, sem):
    yield c.a, t
    if type(c) is not CNot:
        yield c.b, t
    return bool_type(sem)


def _flattened(t: Type, sem: str) -> CollType:
    ct = _need_coll(t, sem, "flatten")
    return CollType(sem, _need_coll(ct.elem, sem, "flatten (inner)").elem)


def _field(tt: TupleType, label: str, op: str) -> Type:
    try:
        return tt.field(label)
    except ValueError_:
        raise MATypeError("%s[%s]: no such field in %s"
                          % (op, label, print_type(tt)))


def _t_pairwith(q, t, sem, core):
    tt = _need_tuple(t, "pairwith")
    fc = _need_coll(_field(tt, q.label, "pairwith"), sem,
                    "pairwith field %s" % q.label)
    elem = TupleType(tuple(
        (l, fc.elem if l == q.label else x) for l, x in tt.fields))
    return q, CollType(sem, elem)


def _t_proj(q, t, sem, core):
    return q, _field(_need_tuple(t, "pi[%s]" % q.label), q.label, "pi")


def _t_pair(q, t, sem, core):
    name = _PAIR_OPS[type(q)][0]
    if type(q) is Monus and sem != BAG:
        raise MATypeError("monus is only available under bag semantics")
    tt = _need_tuple(t, name)
    if tt.labels() != ("1", "2"):
        raise MATypeError("%s expects a <1: _, 2: _> tuple, got %s"
                          % (name, print_type(tt)))
    a = _coerce_coll(tt.field("1"), sem)
    b = _coerce_coll(tt.field("2"), sem)
    out = type_join(a, b, name)
    return _derived(q, t, sem, core), out


def _t_eqatom(q, t, sem, core):
    for p in (q.pa, q.pb):
        pt = path_type(_need_tuple(t, "eqatom"), p, "eqatom")
        if not _atomic(pt):
            raise MATypeError("eqatom: path %s has non-atomic type %s"
                              % (".".join(p), print_type(pt)))
    return q, bool_type(sem)


def _t_test(q, t, sem, core):
    if type(q) is TrueOp and sem == SET:
        raise MATypeError("true is not available under set semantics")
    _need_coll(t, sem, "true" if type(q) is TrueOp else "not")
    return q, bool_type(sem)


def _t_unique(q, t, sem, core):
    if sem != BAG:
        raise MATypeError("unique is only available under bag semantics")
    return q, _need_coll(t, sem, "unique")


def _t_subseteq(q, t, sem, core):
    tt = _need_tuple(t, "subseteq")
    for p in (q.pa, q.pb):
        _need_coll(path_type(tt, p, "subseteq"), sem, "subseteq")
    return _derived(q, t, sem, core), bool_type(sem)


def _t_member(q, t, sem, core):
    tt = _need_tuple(t, "in")
    elem = path_type(tt, q.pa, "in")
    cb = _need_coll(path_type(tt, q.pb, "in"), sem, "in")
    type_join(elem, cb.elem, "in")
    return _derived(q, t, sem, core), bool_type(sem)


def _t_nest(q, t, sem, core):
    ct = _need_coll(t, sem, "nest")
    tt = _need_tuple(ct.elem, "nest")
    missing = [g for g in q.grouped if g not in tt.labels()]
    if missing:
        raise MATypeError("nest: no fields %r in %s"
                          % (missing, print_type(tt)))
    keys = tuple((l, x) for l, x in tt.fields if l not in q.grouped)
    grouped = tuple((l, x) for l, x in tt.fields if l in q.grouped)
    if q.label in [l for l, _ in keys]:
        raise MATypeError("nest: new label %s collides" % q.label)
    out = CollType(sem, TupleType(
        keys + ((q.label, CollType(sem, TupleType(grouped))),)))
    if not core:
        return None, out
    conds = [PathEqPath(("1", l), ("2", l), DEEP) for l, _ in keys]
    key_eq = _and(conds) if conds else PathEqPath((), (), DEEP)
    group = compose(
        TupleCons((("1", Proj("1")), ("2", Proj("2")))),
        PairWith("2"),
        Select(key_eq),
        Map(Compose(Proj("2"),
                    TupleCons(tuple((g, Proj(g)) for g in q.grouped)))))
    body = compose(
        TupleCons((("1", Id()), ("2", Id()))),
        PairWith("1"),
        Map(TupleCons(
            tuple((l, Compose(Proj("1"), Proj(l))) for l, _ in keys)
            + ((q.label, group),))))
    return desugar(body, t, sem), out


def _cond_path(t: Type, p: Path, ctx: str = "select") -> Type:
    """The type at path p of a member of type t that a condition tests."""
    return path_type(_need_tuple(t, ctx), p, ctx) if p else t


def _t_eq_path(c, t, sem, core, ctx: str = "select"):
    """p = q under each mode; also eqmon[p, q] and eq[p, q] (ctx their
    name), which test it on a tuple."""
    ta, tb = _cond_path(t, c.p, ctx), _cond_path(t, c.q, ctx)
    # both sides decide the expansion: one may be an empty literal of
    # unknown element type while the other is a collection
    tj = type_join(ta, tb, ctx)
    if c.mode == ATOMIC:
        for pt, p in ((ta, c.p), (tb, c.q)):
            if not _atomic(pt):
                raise MATypeError("select: atomic comparison on %s at %s"
                                  % (print_type(pt), ".".join(p)))
    if c.mode == MON:
        _mon_type(ta, ctx)
        _mon_type(tb, ctx)
    if not core:
        form = None
    elif c.mode == ATOMIC:
        form = EqAtomic(c.p, c.q) if c.p and c.q else \
            _pair_eq(Proj_chain(c.p), Proj_chain(c.q))
    elif c.mode == MON or _is_mon_type(tj):
        form = _mon_eq(c.p, c.q, tj)
    else:
        form = EqDeep(c.p, c.q)
    return form, bool_type(sem)


def _t_eq_const(c, t, sem, core):
    """p = 'c' under each mode, and p in {c, ...}."""
    pt = _cond_path(t, c.p)
    if _atomic(pt):
        # on an atom, every mode of equality is atomic equality
        labels = c.labels if type(c) is PathInSet else (c.label,)
        return (_disj([_pair_eq(Proj_chain(c.p), Const(l)) for l in labels],
                      sem) if core else None), bool_type(sem)
    if type(c) is PathInSet:
        raise MATypeError("select: membership test on %s" % print_type(pt))
    if c.mode == ATOMIC:
        raise MATypeError("select: atomic comparison on %s" % print_type(pt))
    if c.mode == MON:
        _mon_type(pt, "select")
    # no tuple or collection is an atom
    return EmptyColl() if core else None, bool_type(sem)


_TYPE = {
    Id: lambda q, t, sem, core: (q, t),
    Const: lambda q, t, sem, core: (q, DOM),
    EmptyColl: lambda q, t, sem, core: (q, _any_coll(sem)),
    UnitTuple: lambda q, t, sem, core: (q, UNIT_T),
    Sng: lambda q, t, sem, core: (q, CollType(sem, t)),
    Flatten: lambda q, t, sem, core: (q, _flattened(t, sem)),
    Compose: _t_compose, Map: _t_map, FlatMap: _t_map, TupleCons: _t_tuple,
    Union: _t_union, CartProd: _t_cart, Select: _t_select,
    **dict.fromkeys((CAnd, COr, CNot, CIff), _t_connective),
    PairWith: _t_pairwith, Proj: _t_proj, UnionT: _t_pair, Monus: _t_pair,
    Diff: _t_pair, Intersect: _t_pair, EqAtomic: _t_eqatom, NotOp: _t_test,
    TrueOp: _t_test, Unique: _t_unique, SubsetEq: _t_subseteq,
    MemberOf: _t_member, Nest: _t_nest,
    PathEqPath: _t_eq_path, PathEqConst: _t_eq_const, PathInSet: _t_eq_const,
    EqMon: lambda q, t, sem, core: _t_eq_path(PathEqPath(
        q.pa, q.pb, MON), _need_tuple(t, "eqmon"), sem, core, "eqmon"),
    EqDeep: lambda q, t, sem, core: _t_eq_path(PathEqPath(
        q.pa, q.pb, DEEP), _need_tuple(t, "eq"), sem, core, "eq"),
}


def _need_coll(t: Type, sem: str, ctx: str) -> CollType:
    t = _coerce_coll(t, sem)
    if not isinstance(t, CollType):
        raise MATypeError("%s: expected a %s collection, got %s"
                          % (ctx, sem, print_type(t)))
    if t.kind != sem:
        raise MATypeError("%s: %s collection under %s semantics"
                          % (ctx, t.kind, sem))
    return t


def _coerce_coll(t: Type, sem: str) -> Type:
    if isinstance(t, AnyType):
        return _any_coll(sem)
    return t


@cache
def _any_coll(sem: str) -> CollType:
    """The type of a collection of unknown members, made once."""
    return CollType(sem, ANY)


def _need_tuple(t: Type, ctx: str) -> TupleType:
    if not isinstance(t, TupleType):
        raise MATypeError("%s: expected a tuple, got %s"
                          % (ctx, print_type(t)))
    return t


# ---------------------------------------------------------------------------
# Evaluation
#
# A query is compiled before it runs: each node becomes a Python closure
# over the closures of its subexpressions, so a node's operator is looked
# up once per evaluation rather than once per value the node meets.
# Compose and Union chains become loops over their stages and branches,
# and a selection condition becomes a test on one element. The closures
# use no types: they check what they receive as each operator's meaning
# requires, in the same order and with the same messages for every
# query, well-typed or not.

# true and false under each semantics
_BOOLS = {sem: (make_coll(sem, (UNIT,)), make_coll(sem, ())) for sem in KINDS}


def eval_ma(q: MAExpr, v: Value, sem: str = SET) -> Value:
    """The value of q on v under semantics sem.

    When q has a product and type-checks against the type of v, the
    tree evaluated is its plan (see :func:`plan`), which has the same
    value; the type check takes composition chains of any length. Any
    other query is evaluated as written. Only a query that fails the
    type check can fail at run time, so every error and its message are
    what evaluating q as written gives. Only the tree evaluated is
    compiled.
    """
    cc = _Compiler(sem)
    if _has_cart(q):
        try:
            t = type_of(v, sem)
            infer_type(q, t, sem)
        except (MATypeError, ValueError_, RecursionError):
            pass
        else:
            q = plan(q)
    return cc(q)(v)


class _Compiler:
    """One compilation under semantics sem. Each distinct conjunct of the
    selection conditions is compiled once: the plan makes many equal
    copies of them.

    The branches of a distributed plan filter one product side each for
    constants at a few paths. A selection whose condition starts with
    constant equalities runs its plain loop and records its input in
    ``seen``; one that meets that input again looks its constants up in
    an :func:`_index` of it, which ``index`` keeps, with the input, for
    every selection on the same paths (one input per path tuple). A
    filter keeps its subquery's sizes by labels read (:func:`_c_filter`)."""

    def __init__(self, sem: str):
        if sem not in _BOOLS:
            raise ValueError_("bad collection kind %r" % (sem,))
        self.sem = sem
        self.yes, self.no = _BOOLS[sem]
        self._tests = {}   # conjunct -> test
        self.seen = None   # the last input of such a selection
        self.index = {}   # path tuple -> (input, its index or None)

    def __call__(self, q: MAExpr):
        """q as a function from its input to its value."""
        return _NODE_RULES.get(type(q), _c_unknown)(q, self)

    def pred(self, c: SelCond):
        """Selection condition c as a test on one element."""
        return _all(self.tests(_conjuncts(c)))

    def tests(self, xs: list) -> list:
        """The conjuncts xs as tests on one element."""
        tests = []
        for x in xs:
            t = self._tests.get(x)
            if t is None:
                t = self._tests[x] = _COND_RULES.get(type(x),
                                                     _p_unknown)(x, self)
            tests.append(t)
        return tests


def _expected(v: Value, ctx: str, what: str):
    raise ValueError_("%s: expected %s, got %s" % (ctx, what, print_value(v)))


def _as_coll(v: Value, ctx: str) -> Coll:
    if type(v) is not Coll:
        _expected(v, ctx, "collection")
    return v


def _as_tuple(v: Value, ctx: str) -> Tuple:
    if type(v) is not Tuple:
        _expected(v, ctx, "tuple")
    return v


def _ident(v: Value) -> Value:
    return v


def _getter(p: Path):
    """The function v -> v.p."""
    if not p:
        return _ident

    def get(v):
        for label in p:
            if type(v) is not Tuple:
                _hits(p, v)
            v = v.field(label)
        return v
    return get


def _hits(p: Path, v: Value):
    raise ValueError_("path %s hits non-tuple %s"
                      % (".".join(p), print_value(v)))


def _key(paths: list):
    """The function v -> the values at paths (the value itself for one
    path), the key a HashJoin matches on."""
    if len(paths) == 1:
        return _getter(paths[0])
    gets = [_getter(p) for p in paths]
    return lambda v: tuple([g(v) for g in gets])


def _c_unknown(q, cc):
    def run(v):
        raise ValueError_("cannot evaluate %r" % (q,))
    return run


def _c_id(q, cc):
    return _ident


def _c_const(q, cc):
    a = Atom(q.label)
    return lambda v: a


def _c_empty(q, cc):
    no = cc.no
    return lambda v: no


def _c_unit(q, cc):
    return lambda v: UNIT


def _c_sng(q, cc):
    sem = cc.sem
    return lambda v: make_coll(sem, (v,))


def _c_map(q, cc):
    f, sem = cc(q.f), cc.sem

    def run(v):
        if type(v) is not Coll:
            _expected(v, "map", "collection")
        return make_coll(sem, [f(x) for x in v.elems])
    return run


def _c_flatmap(q, cc):
    """map(f) ; flatten, without the mapped collection between them."""
    g = _filter_gamma(q.f)
    paths = None if g is None else _reads(g)
    if paths is not None:
        return _c_filter(q.f, cc(g), paths, cc)
    f, sem = cc(q.f), cc.sem

    def run(v):
        if type(v) is not Coll:
            _expected(v, "map", "collection")
        ys = [f(x) for x in v.elems]
        out = []
        for y in ys:
            if type(y) is not Coll:
                break
            out += y.elems
        else:
            return make_coll(sem, out)
        # fail on the member that flatten meets first in the mapped
        # collection
        for y in make_coll(sem, ys).elems:
            _as_coll(y, "flatten member")
    return run


def _c_filter(body, g, paths: tuple, cc):
    """The flatmap of a filter's body whose subquery g reads only paths:
    g runs on the first member with given labels there, in input order,
    and its size is how often each member with those labels is kept
    (once under set semantics); one without atoms there runs the body."""
    counts, f, sem = {}, None, cc.sem   # counts: labels -> g's size

    def run(v):
        nonlocal f
        if type(v) is not Coll:
            _expected(v, "map", "collection")
        out = []
        for x in v.elems:
            k = _labels(x, paths)
            if k is None:
                f = f or cc(body)
                out += f(x).elems
                continue
            n = counts.get(k)
            if n is None:
                c = g(x)
                if type(c) is not Coll:
                    _expected(c, "pairwith field", "collection")
                n = counts[k] = len(c.elems)
            out += [x] * (min(n, 1) if sem == SET else n)
        return make_coll(sem, out)
    return run


def _c_flatten(q, cc):
    sem = cc.sem

    def run(v):
        if type(v) is not Coll:
            _expected(v, "flatten", "collection")
        out = []
        for x in v.elems:
            if type(x) is not Coll:
                _expected(x, "flatten member", "collection")
            out += x.elems
        return make_coll(sem, out)
    return run


def _c_pairwith(q, cc):
    label, sem = q.label, cc.sem

    def run(v):
        if type(v) is not Tuple:
            _expected(v, "pairwith", "tuple")
        src = v.field(label)
        if type(src) is not Coll:
            _expected(src, "pairwith field", "collection")
        labels, vals = v.labels, v.vals
        i = labels.index(label)
        pre, post = vals[:i], vals[i + 1:]
        out = [Tuple(labels, pre + (x,) + post) for x in src.elems]
        if src.kind == sem:
            # only the paired field varies, in src's canonical order
            return Coll(sem, tuple(out))
        return make_coll(sem, out)
    return run


def _c_tuple(q, cc):
    labels = tuple([l for l, _ in q.fields])
    fs = [cc(f) for _, f in q.fields]
    if len(set(labels)) == len(labels):
        return lambda v: Tuple(labels, tuple([f(v) for f in fs]))
    # make_tuple raises, once the fields are evaluated
    return lambda v: make_tuple(zip(labels, [f(v) for f in fs]))


def _c_proj(q, cc):
    label = q.label

    def run(v):
        if type(v) is not Tuple:
            _expected(v, "pi", "tuple")
        return v.field(label)
    return run


def _c_compose(q, cc):
    stages = [cc(s) for s in _flat(q, Compose) if type(s) is not Id]
    if len(stages) == 1:
        return stages[0]
    if len(stages) == 2:
        f, g = stages
        return lambda v: g(f(v))

    def run(v):
        for s in stages:
            v = s(v)
        return v
    return run


def _c_union(q, cc):
    branches, sem = [cc(b) for b in _flat(q, Union)], cc.sem

    def run(v):
        out = []
        for b in branches:
            c = b(v)
            if type(c) is not Coll:
                _expected(c, "union", "collection")
            out += c.elems
        return make_coll(sem, out)
    return run


def _monus(a: tuple, b: tuple) -> list:
    # each member of b cancels the first equal member of a
    cancel = Counter(b)
    out = []
    for x in a:
        if cancel[x]:
            cancel[x] -= 1
        else:
            out.append(x)
    return out


def _diff(a: tuple, b: tuple) -> list:
    drop = set(b)
    return [x for x in a if x not in drop]


def _cap(a: tuple, b: tuple) -> list:
    keep = set(b)
    return [x for x in a if x in keep]


# the operators on the two collection fields of a <1: R, 2: S> tuple: the
# name in messages, and the members of the result from those of R and S
_PAIR_OPS = {UnionT: ("union", tuple.__add__), Monus: ("monus", _monus),
             Diff: ("diff", _diff), Intersect: ("cap", _cap)}


def _c_pair(q, cc):
    (name, op), sem = _PAIR_OPS[type(q)], cc.sem

    def run(v):
        t = _as_tuple(v, name)
        a = _as_coll(t.field("1"), name)
        b = _as_coll(t.field("2"), name)
        return make_coll(sem, op(a.elems, b.elems))
    return run


def _c_test(q, cc):
    """true and not: whether their input has a member, and whether not."""
    name, full, empty = (("true", cc.yes, cc.no) if type(q) is TrueOp
                         else ("not", cc.no, cc.yes))
    return lambda v: full if _as_coll(v, name).elems else empty


def _c_unique(q, cc):
    sem = cc.sem
    return lambda v: make_coll(sem, dict.fromkeys(_as_coll(v, "unique").elems))


# the Boolean tests of the values at the two paths pa and pb of a tuple:
# the name in messages, and the test from the getters of those paths
_TUPLE_TESTS = {
    EqAtomic: ("eqatom", lambda ga, gb: _eq_test(ga, gb, ATOMIC)),
    EqMon: ("eq", lambda ga, gb: _eq_test(ga, gb, MON)),
    EqDeep: ("eq", lambda ga, gb: _eq_test(ga, gb, DEEP)),
    SubsetEq: ("subseteq", lambda ga, gb: lambda t: (
        set(_as_coll(ga(t), "subseteq").elems)
        <= set(_as_coll(gb(t), "subseteq").elems))),
    MemberOf: ("in", lambda ga, gb: lambda t: (
        ga(t) in _as_coll(gb(t), "in").elems)),
}


def _c_tuple_test(q, cc):
    name, build = _TUPLE_TESTS[type(q)]
    test, yes, no = build(_getter(q.pa), _getter(q.pb)), cc.yes, cc.no

    def run(v):
        if type(v) is not Tuple:
            _expected(v, name, "tuple")
        return yes if test(v) else no
    return run


def _c_select(q, cc):
    xs = _conjuncts(q.cond)
    tests, sem = cc.tests(xs), cc.sem
    test = _all(tests)
    split = () if type(xs[0]) is PathEqConst else None   # (): not yet

    def run(v):
        nonlocal split
        if type(v) is not Coll:
            _expected(v, "select", "collection")
        out = None
        if split is not None and v is not cc.seen:
            cc.seen = v
        elif split is not None:
            split = split or _split(xs, tests)   # on second sight, once
            paths, labels, rest = split
            hit = cc.index.get(paths)
            if hit is None or hit[0] is not v:
                hit = cc.index[paths] = v, _index(v, paths)
            if hit[1] is not None:
                out = hit[1].get(labels, [])
                out = out if rest is None else [x for x in out if rest(x)]
        if out is None:
            out = [x for x in v.elems if test(x)]
        if v.kind == sem:
            # a subsequence of a canonical collection is canonical
            return Coll(sem, tuple(out))
        return make_coll(sem, out)
    return run


def _split(xs: list, tests: list) -> tuple:
    """The paths and labels of the constant equalities that the conjuncts
    xs start with, and the test of the others (None for none)."""
    n = next((i for i, x in enumerate(xs) if type(x) is not PathEqConst),
             len(xs))
    return (tuple([x.p for x in xs[:n]]), tuple([x.label for x in xs[:n]]),
            _all(tests[n:]) if xs[n:] else None)


def _index(v: Coll, paths: tuple) -> Optional[dict]:
    """The members of v by the labels of their atoms at paths, in v's
    order; None when a member has no atom at one of them. Every equality
    mode compares two atoms by label, so the members under a selection's
    constants are those its plain loop tests the rest of it on."""
    index = {}
    for x in v.elems:
        key = _labels(x, paths)
        if key is None:
            return None
        index.setdefault(key, []).append(x)
    return index


def _labels(x: Value, paths: tuple) -> Optional[tuple]:
    """The labels of the atoms of x at paths, or None when x has no atom
    at one of them."""
    key = []
    try:   # a non-tuple has no labels, a non-atom no label
        for p in paths:
            y = x
            for l in p:
                y = y.vals[y.labels.index(l)]
            key.append(y.label)
    except (AttributeError, ValueError):
        return None
    return tuple(key)


def _c_nest(q, cc):
    label, grouped, sem = q.label, q.grouped, cc.sem

    def run(v):
        groups = {}
        for x in _as_coll(v, "nest").elems:
            t = _as_tuple(x, "nest")
            fields = list(zip(t.labels, t.vals))
            key = make_tuple((l, w) for l, w in fields if l not in grouped)
            part = make_tuple((l, w) for l, w in fields if l in grouped)
            groups.setdefault(key, []).append(part)
        return make_coll(sem, (
            make_tuple(zip(k.labels + (label,),
                           k.vals + (make_coll(sem, ms),)))
            for k, ms in groups.items()))
    return run


# the labels of every product and hash-join pair
_PAIR = ("1", "2")


def _c_hash_join(q, cc):
    """A hash join, and a product as the join with no keys and no test."""
    fa, fb, sem = cc(q.f), cc(q.g), cc.sem
    ka = _key([p for p, _ in q.keys])
    kb = _key([r for _, r in q.keys])
    test = None if q.cond is None else cc.pred(q.cond)
    product = not q.keys and test is None

    def run(v):
        a = _as_coll(fa(v), "cart")
        b = _as_coll(fb(v), "cart")
        if product:
            return _product(sem, a, b, [
                Tuple(_PAIR, (x, y)) for x in a.elems for y in b.elems])
        match = {}
        for y in b.elems:
            match.setdefault(kb(y), []).append(y)
        out = []
        for x in a.elems:
            for y in match.get(ka(x), ()):
                xy = Tuple(_PAIR, (x, y))
                if test is None or test(xy):
                    out.append(xy)
        return _product(sem, a, b, out)
    return run


def _product(sem: str, a: Coll, b: Coll, pairs: list) -> Coll:
    """The pairs, a subsequence of a x b in nested-loop order: canonical
    as they are for two sets under set semantics (see values.Coll).
    Equal members of a bag break the order: {|a, a|} x {|a, b|} gives
    (a, a), (a, b), (a, a), (a, b)."""
    if sem == SET and a.kind == SET and b.kind == SET:
        return Coll(SET, tuple(pairs))
    return make_coll(sem, pairs)


def _all(tests: list):
    """The conjunction of tests, which must not be empty."""
    if len(tests) == 1:
        return tests[0]

    def test(v):
        for t in tests:
            if not t(v):
                return False
        return True
    return test


def _p_unknown(c, cc):
    def test(v):
        raise ValueError_("bad selection condition %r" % (c,))
    return test


def _p_any(c, cc):
    xs = _conjuncts(c, COr)
    tests = [cc.pred(x) for x in xs]

    def test(v):
        for t in tests:
            if t(v):
                return True
        return False
    if {type(x) for x in xs} != {PathEqConst} or len({x.p for x in xs}) > 1:
        return test
    # constants on one path: one walk, then a set lookup on an atom
    get, labels = _getter(xs[0].p), frozenset([x.label for x in xs])

    def one_path(v):
        a = get(v)
        if type(a) is Atom:
            return a.label in labels
        return test(v)
    return one_path


def _p_not(c, cc):
    a = cc.pred(c.a)
    return lambda v: not a(v)


def _p_iff(c, cc):
    a, b = cc.pred(c.a), cc.pred(c.b)
    return lambda v: a(v) == b(v)


def _p_eq_path(c, cc):
    return _eq_test(_getter(c.p), _getter(c.q), c.mode)


def _eq_test(ga, gb, mode):
    """The test that the values that ga and gb get are equal under mode."""
    def test(v):
        a, b = ga(v), gb(v)
        # atoms are equal under every mode iff their labels are
        if type(a) is Atom and type(b) is Atom:
            return a.label == b.label
        return value_equal(a, b, mode)
    return test


def _p_eq_const(c, cc):
    p, label, mode = c.p, c.label, c.mode

    def test(v):
        for l in p:   # as _getter(p), the hottest test's own walk
            if type(v) is not Tuple:
                _hits(p, v)
            v = v.field(l)
        if type(v) is Atom:   # equal under every mode iff the labels are
            return v.label == label
        return value_equal(v, Atom(label), mode)
    return test


def _p_in_set(c, cc):
    get, labels = _getter(c.p), c.labels

    def test(v):
        x = get(v)
        if type(x) is not Atom:
            raise ValueError_("membership test on non-atom %s"
                              % print_value(x))
        return x.label in labels
    return test


# each node as a function of its input, and each condition but a
# conjunction (see _Compiler.tests) as a test on one member
_COMPILE = {
    Id: _c_id, Const: _c_const, EmptyColl: _c_empty, UnitTuple: _c_unit,
    Sng: _c_sng, Map: _c_map, FlatMap: _c_flatmap, Flatten: _c_flatten,
    PairWith: _c_pairwith, TupleCons: _c_tuple, Proj: _c_proj,
    Compose: _c_compose, Union: _c_union, NotOp: _c_test, TrueOp: _c_test,
    Unique: _c_unique, Select: _c_select, Nest: _c_nest,
    CartProd: lambda q, cc: _c_hash_join(HashJoin(q.f, q.g, (), None), cc),
    HashJoin: _c_hash_join, **dict.fromkeys(_PAIR_OPS, _c_pair),
    **dict.fromkeys(_TUPLE_TESTS, _c_tuple_test),
    COr: _p_any, CNot: _p_not, CIff: _p_iff, PathEqPath: _p_eq_path,
    PathEqConst: _p_eq_const, PathInSet: _p_in_set,
}
# its rules for nodes and for conditions apart, so that a condition is
# no node to evaluate and a node no condition to test
_NODE_RULES = {t: f for t, f in _COMPILE.items() if issubclass(t, MAExpr)}
_COND_RULES = {t: f for t, f in _COMPILE.items() if issubclass(t, SelCond)}


def type_of(v: Value, sem: str = SET) -> Type:
    """The natural type of a value; collection kinds must match sem."""
    if isinstance(v, Atom):
        return DOM
    if isinstance(v, Tuple):
        return TupleType(tuple((l, type_of(x, sem))
                               for l, x in zip(v.labels, v.vals)))
    assert isinstance(v, Coll)
    if v.kind != sem:
        raise MATypeError("%s collection under %s semantics" % (v.kind, sem))
    t: Type = ANY
    for x in v.elems:
        t = type_join(t, type_of(x, sem), "collection elements")
    return CollType(v.kind, t)


# ---------------------------------------------------------------------------
# Evaluation plan
#
# plan() rewrites a well-typed query into one with the same value under
# set, list and bag semantics that filters before it pairs:
#   1. x ; (sel_a u sel_b)  ->  (x ; sel_a) u (x ; sel_b), for a union
#      whose branches each start with a selection, where x ends in a
#      product or in a union of chains that hold one, followed by maps
#      and selections. Only that suffix of x is copied into the
#      branches; the stages before it run once. Distributing on the
#      right keeps list order branch-major.
#   2. (f u g) ; sel  ->  (f ; sel) u (g ; sel); consecutive selections
#      become one conjunction.
#   3. map(f) ; select[c]  ->  select[c'] ; map(f) for the conjuncts of c
#      whose paths f maps back onto paths of its input (through id,
#      projections, compositions and tuple fields); c' reads them there.
#   4. cart(f, g) ; select[c] becomes a HashJoin, and a later selection
#      that reaches it adds its conjuncts to it. Each equality between a
#      side-1 and a side-2 path becomes a join key, under any mode. The
#      other conjuncts are tested on each joined pair, and what they
#      imply of one side (such as its own conjuncts, or a disjunct's
#      side-1 conjuncts in each disjunct) filters that side first.
#   5. A selection by a Boolean subquery g, a flatmap of filter_body(g)
#      or a map of it followed by flatten, whose conjuncts (the
#      operands of its cart(g1, g2) ; map(unit) chains) include atomic
#      equalities eqatom[p, q] or tup[A = p, B = 'c'] ; eqatom[A, B]:
#      those become select[p =atom q] and select[p =atom 'c'], followed
#      by the selection by the other conjuncts, if any. Each lifted
#      conjunct yields at most one <>, so the filter's multiplicity, the
#      product of its conjuncts' sizes, and its list order are kept.
#      That filter runs its subquery once per labels it reads (_c_filter).
# _pushdown applies rule 5 (_lift) to the stages of each chain, _chain
# rule 1 and _push rules 2-4, in one pass: a selection becomes a join
# where it reaches its product. None of them needs types: a query gets a plan
# only when it type-checks, and the type check shows the paths of an
# atomic equality atomic and both paths of a mon equality
# collection-free, so no condition raises a mode error and native ==
# decides every key; no run-time error is there to be reordered.
# Rule 1's branch copies push the same conditions through the same maps
# and joins, so one plan call computes each _implied, _side and _moved
# (with its _paths) once per argument object: _memo keys them on the
# identities of their arguments in a dict made for that call alone.

_MAX_BRANCHES = 1024   # rule 1 stops copying beyond this many branches


def plan(q: MAExpr) -> MAExpr:
    """The tree :func:`eval_ma` evaluates for q, which must type-check
    against the type of its input."""
    return _pushdown(q, {})


def _memo(m: dict, fn, *args):
    """fn(m, *args), once per plan call and identities of args: m, the
    call's memo, holds the args, so no id is reused while it runs."""
    key = (fn, *map(id, args))
    hit = m.get(key)
    if hit is None:
        hit = m[key] = fn(m, *args), args
    return hit[0]


def _has_cart(q: MAExpr) -> bool:
    return any(type(x) in (CartProd, HashJoin) for x in _nodes(q))


def _flat(q: MAExpr, node: type) -> list:
    """The operands of a chain of node (Compose or Union), left to
    right."""
    out, todo = [], [q]
    while todo:
        q = todo.pop()
        if type(q) is node:
            todo += (q.g, q.f)
        else:
            out.append(q)
    return out


def _union(qs: list) -> MAExpr:
    """The union of qs, left to right, as a tree of depth log2 len(qs),
    which a long chain of copies would exceed the recursion limit of."""
    if len(qs) == 1:
        return qs[0]
    h = len(qs) // 2
    return Union(_union(qs[:h]), _union(qs[h:]))


def _conjuncts(c: SelCond, node: type = CAnd) -> list:
    """The operands of a chain of node (CAnd or COr), left to right."""
    out, todo = [], [c]
    while todo:
        c = todo.pop()
        if type(c) is node:
            todo += (c.b, c.a)
        else:
            out.append(c)
    return out


def _and(cs: list) -> SelCond:
    return reduce(CAnd, cs)


def _paths(c: SelCond) -> list:
    t = type(c)
    if t in (CAnd, COr, CIff):
        return _paths(c.a) + _paths(c.b)
    if t is CNot:
        return _paths(c.a)
    if t is PathEqPath:
        return [c.p, c.q]
    return [c.p]


def _on_paths(c: SelCond, fn) -> SelCond:
    """c with each path p read as fn(p)."""
    t = type(c)
    if t in (CAnd, COr, CIff):
        return t(_on_paths(c.a, fn), _on_paths(c.b, fn))
    if t is CNot:
        return CNot(_on_paths(c.a, fn))
    if t is PathEqPath:
        return PathEqPath(fn(c.p), fn(c.q), c.mode)
    if t is PathEqConst:
        return PathEqConst(fn(c.p), c.label, c.mode)
    return PathInSet(fn(c.p), c.labels)


def _resolve(f: MAExpr, p: Path) -> Optional[Path]:
    """A path r with x.r = f(x).p for every x, or None (on a stack)."""
    todo = [f]
    while todo:
        f = todo.pop()
        if type(f) is Proj:
            p = (f.label,) + p
        elif type(f) is Compose:
            todo += (f.f, f.g)
        elif type(f) is TupleCons and p:
            for l, g in f.fields:
                if l == p[0]:
                    todo.append(g)
                    break
            else:
                return None
            p = p[1:]
        elif type(f) is not Id:
            return None
    return p


def _reads(g: MAExpr) -> Optional[tuple]:
    """The paths of its input that g reads, sorted: g has one value or
    error on all inputs with atoms of the same labels there; None when g
    reads it whole (path ()), as all nodes do but projections, the tests
    on two paths of a tuple, constants, and tuples, products, unions,
    hash joins and chains of them. Through a stage that only moves values, a chain reads
    the next stages' paths moved back (_resolve); its own need only exist."""
    order, todo = [], [g]   # order: every node before the nodes below it
    through = (Compose, TupleCons, CartProd, Union, HashJoin)
    while todo:
        q = todo.pop()
        t = type(q)
        parts = (_flat(q, Compose) if t is Compose else
                 _subexprs(q) if t in through else ())
        order.append((q, t, parts))
        todo += parts
    done = {}   # id of a node -> (its paths, whether it only moves values)
    for q, t, parts in reversed(order):
        if t is Compose:
            paths, moves = done[id(parts[-1])]
            for s in reversed(parts[:-1]):
                own, s_moves = done[id(s)]
                rs = [_resolve(s, r) for r in paths] if s_moves else [None]
                paths = own if None in rs else set(rs) | {
                    p for p in own if p and all(r[:len(p)] != p for r in rs)}
                moves = moves and s_moves
        elif t in through:
            paths = set().union(*(done[id(x)][0] for x in parts))
            moves = t is TupleCons and all(done[id(x)][1] for x in parts)
        elif t in _TUPLE_TESTS:
            paths, moves = {q.pa, q.pb}, False
        elif t is Proj:
            paths, moves = {(q.label,)}, True
        else:
            moves = t in (Id, Const, EmptyColl, UnitTuple)
            paths = {()} if t is Id or not moves else set()
        done[id(q)] = paths, moves
    return None if () in paths else tuple(sorted(paths))   # g's, done last


def _pushdown(q: MAExpr, m: dict) -> MAExpr:
    """The rules, everywhere in q; m is the plan call's memo."""
    t = type(q)
    if t is Compose:
        return compose(*_chain(_lift(_flat(q, Compose)), m))
    if t in (Union, CartProd):
        return t(_pushdown(q.f, m), _pushdown(q.g, m))
    if t in (Map, FlatMap):
        return t(_pushdown(q.f, m))
    if t is TupleCons:
        return TupleCons(tuple((l, _pushdown(f, m)) for l, f in q.fields))
    return q


def _chain(stages: list, m: dict, acc: list = ()) -> list:
    """The stages of acc ; stages, each of stages moved into acc as far
    as the rules allow. Rule 5 has split stages; the stages of acc are
    already rewritten."""
    acc = list(acc)
    for s in stages:
        if type(s) is Select:
            acc = _push(acc, s.cond, m)
            continue
        i = _suffix(acc) if type(s) is Union else None
        if i is not None:
            branches = [_lift(_flat(b, Compose)) for b in _flat(s, Union)]
            if (len(branches) * len(_flat(acc[i], Union)) <= _MAX_BRANCHES
                    and all(type(b[0]) is Select for b in branches)):
                acc[i:] = [_union([compose(*_chain(b, m, acc[i:]))
                                   for b in branches])]
                continue
        acc.append(_pushdown(s, m))
    return acc


def _lift(stages: list) -> list:
    """stages with each selection by a Boolean subquery that has atomic
    equality conjuncts split into their selection and the selection by
    the rest (rule 5)."""
    out, i = [], 0
    while i < len(stages):
        s, g, n = stages[i], None, 1   # n: the stages s starts
        if type(s) is FlatMap:
            g = _filter_gamma(s.f)
        elif type(s) is Map and stages[i + 1:i + 2] == [Flatten()]:
            g, n = _filter_gamma(s.f), 2
        conds, rest = [], []
        for x in () if g is None else _bool_conjuncts(g):
            c = _atom_eq(x)
            if c is None:
                rest.append(x)
            else:
                conds.append(c)
        if conds:
            out.append(Select(_and(conds)))
            if rest:
                out.append(FlatMap(filter_body(_conj(rest))))
        else:
            out += stages[i:i + n]
        i += n
    return out


def filter_body(g: MAExpr) -> MAExpr:
    """The body of flatmap that keeps x |g(x)| times; reductions' filters
    and desugar's selections are built from it."""
    return compose(TupleCons((("1", Id()), ("2", g))), PairWith("2"),
                   Map(Proj("1")))


def _filter_gamma(body: MAExpr) -> Optional[MAExpr]:
    """g when body is tup[1 = id, 2 = g] ; pairwith[2] ; map(pi[1]), or
    None."""
    s = _flat(body, Compose)
    if (type(s[0]) is TupleCons and s[1:] == [PairWith("2"), Map(Proj("1"))]
            and len(s[0].fields) == 2 and s[0].fields[0] == ("1", Id())
            and s[0].fields[1][0] == "2"):
        return s[0].fields[1][1]
    return None


def _bool_conjuncts(g: MAExpr) -> list:
    """The operands of the conjunctions cart(g1, g2) ; map(unit) that g
    is made of, as _conj and reductions build them, left to right."""
    out, todo = [], [g]
    while todo:
        g = todo.pop()
        s = [x for x in _flat(g, Compose) if type(x) is not Id]
        pair = None
        if s[-1:] == [Map(UnitTuple())]:
            s = s[:-1]
            if len(s) == 1 and type(s[0]) is CartProd:
                pair = s[0].f, s[0].g
            elif (s[1:] == [PairWith("1"), Map(PairWith("2")), Flatten()]
                    and type(s[0]) is TupleCons
                    and tuple(l for l, _ in s[0].fields) == _PAIR):
                pair = tuple(f for _, f in s[0].fields)
        if pair:
            todo += reversed(pair)
        else:
            out.append(g)
    return out


def _atom_eq(g: MAExpr) -> Optional[SelCond]:
    """The condition on x that the Boolean subquery g decides, when g is
    eqatom[p, q] after a tuple of paths and constants (as _pair_eq
    builds it): the atomic equality of two paths, or of a path and a
    constant; else None."""
    *f, eq = _flat(g, Compose)
    if type(eq) is not EqAtomic:
        return None
    f = compose(*f) if f else Id()
    a, b = (_operand(f, p) for p in (eq.pa, eq.pb))
    if type(a) is not tuple:
        a, b = b, a
    if type(a) is not tuple:
        return None
    if type(b) is tuple:
        return PathEqPath(a, b, ATOMIC)
    if type(b) is Const:
        return PathEqConst(a, b.label, ATOMIC)
    return None


def _operand(f: MAExpr, p: Path):
    """A path r with x.r = f(x).p for every x, or the expression that
    gives f(x).p when that is a field of the tuple f builds, or None."""
    r = _resolve(f, p)
    if r is None and type(f) is TupleCons and len(p) == 1:
        return dict(f.fields).get(p[0])
    return r


def _suffix(acc: list) -> Optional[int]:
    """Where the suffix that rule 1 copies starts in acc: at its last
    product, or union holding one, with only maps and selections after
    it."""
    for i in range(len(acc) - 1, -1, -1):
        s = acc[i]
        if type(s) in (CartProd, HashJoin) or (
                type(s) is Union and _has_cart(s)):
            return i
        if type(s) not in (Map, Select):
            return None
    return None


def _push(acc: list, c: SelCond, m: dict) -> list:
    """The stages of acc ; select[c], the selection moved into acc as far
    as rules 2-4 allow. A selection that c moves past takes what of c
    stops right before it."""
    acc, tail = list(acc), []   # tail: the stages c passed, right to left

    def stop(kept):
        if tail and type(tail[-1]) is Select:
            tail[-1] = Select(CAnd(tail[-1].cond, kept))
        else:
            tail.append(Select(kept))

    while c is not None:
        s = acc[-1] if acc else None
        if type(s) is Select:
            # s.cond went as far as it could; c may go further
            tail.append(acc.pop())
        elif type(s) is Map:
            moved, kept = [], []
            for x in _conjuncts(c):
                y = _memo(m, _moved, s.f, x)
                if y is None:
                    kept.append(x)
                else:
                    moved.append(y)
            if kept:
                stop(_and(kept))
            tail.append(acc.pop())
            c = _and(moved) if moved else None
        elif type(s) is Union:
            acc[-1] = _union([compose(*_push(_flat(b, Compose), c, m))
                              for b in _flat(s, Union)])
            break
        elif type(s) in (CartProd, HashJoin):
            acc[-1] = _hash_join(s, c, m)
            break
        else:
            stop(c)
            break
    return acc + tail[::-1]


def _moved(m: dict, f: MAExpr, c: SelCond) -> Optional[SelCond]:
    """c read on the input x of f, where it reads f(x), or None when f
    does not map each path of c back (rule 3)."""
    there = {p: _resolve(f, p) for p in _paths(c)}
    return None if None in there.values() else _on_paths(c, there.get)


def _hash_join(s: MAExpr, c: SelCond, m: dict) -> HashJoin:
    """s ; select[c] as one HashJoin, for s a product or a HashJoin
    (rule 4): c's join keys and other cross-side conjuncts follow those
    of s, and what c implies of each side filters that side."""
    keys, rest = [], []
    if type(s) is HashJoin:
        keys += s.keys
        if s.cond is not None:
            rest.append(s.cond)
    for x in _conjuncts(c):
        key = _join_key(x)
        if key:
            keys.append(key)
        elif _memo(m, _side, x) is None:
            rest.append(x)
    f, g = ((e if d is None else compose(*_push(_flat(e, Compose), d, m)))
            for e, d in zip((s.f, s.g), _implied(m, c)))
    return HashJoin(f, g, tuple(keys), _and(rest) if rest else None)


def _side(m: dict, c: SelCond) -> Optional[str]:
    """The side of a product ("1" or "2") that all paths of c read, or
    None."""
    heads = {p[:1] for p in _paths(c)}
    return heads.pop()[0] if heads in ({("1",)}, {("2",)}) else None


def _implied(m: dict, c: SelCond) -> list:
    """For side 1 and side 2 of a product, a condition on its elements
    that holds there for every pair that satisfies c, or None for none
    found; kept in m per node as _memo keeps results, and found on an
    explicit stack, so a long chain of conjuncts needs no deep stack."""
    todo = [c]
    while todo:
        x = todo.pop()
        if (_implied, id(x)) in m:
            continue
        if type(x) in (COr, CAnd):
            a, b = (m.get((_implied, id(y)), (None,))[0] for y in (x.a, x.b))
            if a is None or b is None:
                todo += (x, x.b, x.a)   # the operands first
                continue
            if type(x) is COr:
                out = [None if u is None or w is None else COr(u, w)
                       for u, w in zip(a, b)]
            else:
                out = [w if u is None else u if w is None else CAnd(u, w)
                       for u, w in zip(a, b)]
        else:
            out = [None, None]
            side = _memo(m, _side, x)
            if side is not None:
                out[int(side) - 1] = _on_paths(x, lambda p: p[1:])
        m[_implied, id(x)] = out, (x,)
    return m[_implied, id(c)][0]


def _join_key(c: SelCond):
    """(p, q) when c is an equality of the paths 1.p and 2.q (either way
    round), or None."""
    if type(c) is not PathEqPath:
        return None
    ends = {c.p[:1]: c.p[1:], c.q[:1]: c.q[1:]}
    if set(ends) != {("1",), ("2",)}:
        return None
    return ends[("1",)], ends[("2",)]


# ---------------------------------------------------------------------------
# Desugaring to the core

TRUE_PRED = Compose(UnitTuple(), Sng())   # constant {<>}


def _conj(parts) -> MAExpr:
    """Conjunction of predicates as iterated Cartesian product, normalized
    back to a {<>}-typed value with a final map."""
    parts = list(parts)
    if not parts:
        return TRUE_PRED
    out = parts[0]
    for p in parts[1:]:
        out = Compose(_cart(out, p), Map(UnitTuple()))
    return out


def _cart(f: MAExpr, g: MAExpr) -> MAExpr:
    return compose(TupleCons((("1", f), ("2", g))), PairWith("1"),
                   Map(PairWith("2")), Flatten())


def _disj(parts, sem: str) -> MAExpr:
    parts = list(parts)
    out = reduce(Union, parts)
    if len(parts) > 1 and sem != SET:
        out = Compose(out, TrueOp() if sem == LIST else Unique())
    return out


def _negate(pred: MAExpr) -> MAExpr:
    return Compose(pred, NotOp())


def _leaf_paths(t: Type) -> list:
    if _atomic(t):
        return [()]
    assert isinstance(t, TupleType)
    out = []
    for l, ft in t.fields:
        out.extend((l,) + p for p in _leaf_paths(ft))
    return out


def expand_mon_eq(t: Type) -> MAExpr:
    """An expression <A: t, B: t> -> Boolean realizing componentwise
    equality as a conjunction of atomic comparisons over all leaf paths."""
    _mon_type(t, "eqmon")
    return _conj(EqAtomic(("A",) + p, ("B",) + p) for p in _leaf_paths(t))


def _sigma(gamma: MAExpr) -> MAExpr:
    """Selection by predicate gamma, as flatmap of the pairing trick."""
    return compose(Map(filter_body(Compose(Id(), gamma))), Flatten())


def _pair_eq(fa, fb):
    return Compose(TupleCons((("A", fa), ("B", fb))),
                   EqAtomic(("A",), ("B",)))


def _mon_eq(pa: Path, pb: Path, t: Type) -> MAExpr:
    """Componentwise equality of the values of collection-free type t at
    the paths pa and pb."""
    return Compose(TupleCons((("A", Proj_chain(pa)), ("B", Proj_chain(pb)))),
                   expand_mon_eq(t))


def _atomic(t: Type) -> bool:
    return isinstance(t, (DomType, AnyType))


def _is_mon_type(t: Type) -> bool:
    if isinstance(t, TupleType):
        return all(_is_mon_type(x) for _, x in t.fields)
    return _atomic(t)


def Proj_chain(p: Path) -> MAExpr:
    """Projection along a dotted path, composed left to right."""
    return compose(*(Proj(label) for label in p)) if p else Id()


def desugar(q: MAExpr, t: Type, sem: str = SET) -> MAExpr:
    """Rewrite extended operators into core ones, threading the input type.

    The output uses core constructors only, except that deep equality on
    collection-bearing types stays primitive (it is interdefinable with
    the other nonmonotone extras but not reducible to atomic equality)
    and conditions compiled from negations use the core "not".

    It is infer_type's walk, which has no depth limit, and each form is
    built by the rule that types it, so an ill-typed query fails as
    infer_type fails on it.
    """
    return _walk(q, t, sem, True)[0]


# the core form of a node or condition with operands, from its
# operands' core forms
_CORE = {
    Compose: lambda q, fs, sem: Compose(*fs),
    Map: lambda q, fs, sem: Map(*fs),
    FlatMap: lambda q, fs, sem: Compose(Map(*fs), Flatten()),
    TupleCons: lambda q, fs, sem: TupleCons(tuple(
        (l, f) for (l, _), f in zip(q.fields, fs))),
    Union: lambda q, fs, sem: union_pair(*fs),
    CartProd: lambda q, fs, sem: _cart(*fs),
    # no condition: members of unknown type, so the collection is empty
    Select: lambda q, fs, sem: _sigma(*fs) if fs else Id(),
    CAnd: lambda q, fs, sem: _conj(fs),
    COr: lambda q, fs, sem: _disj(fs, sem),
    CNot: lambda q, fs, sem: _negate(*fs),
    CIff: lambda q, fs, sem: _disj([_conj(fs), _conj(map(_negate, fs))], sem),
}


def _derived(q: MAExpr, t: Type, sem: str, core: bool) -> MAExpr:
    """q's core form on input type t if core, else q: q itself, or its
    _BODY desugared."""
    body = _BODY.get(type(q)) if core else None
    return q if body is None else desugar(body(q), t, sem)


# the operators defined by a query in other operators, which desugars
# further. diff keeps the members of field 1 with no deep-equal partner
# in field 2; the emptiness filter on the partner set uses the core "not".
_BODY = {
    Diff: lambda q: compose(
        PairWith("1"),
        Map(TupleCons((("1", Proj("1")), ("m", compose(
            TupleCons((("1", Proj("1")), ("2", Proj("2")))),
            PairWith("2"),
            Select(PathEqPath(("1",), ("2",), DEEP))))))),
        _sigma(Compose(Proj("m"), NotOp())),
        Map(Proj("1"))),
    Intersect: lambda q: compose(
        _cart(Proj("1"), Proj("2")),
        Select(PathEqPath(("1",), ("2",), DEEP)),
        Map(Proj("1"))),
    SubsetEq: lambda q: Compose(
        TupleCons((("A", Proj_chain(q.pa)),
                   ("A2", Compose(TupleCons((("1", Proj_chain(q.pa)),
                                             ("2", Proj_chain(q.pb)))),
                                  Intersect())))),
        EqDeep(("A",), ("A2",))),
    MemberOf: lambda q: Compose(
        TupleCons((("1", Compose(Proj_chain(q.pa), Sng())),
                   ("2", Proj_chain(q.pb)))),
        SubsetEq(("1",), ("2",))),
}


# ---------------------------------------------------------------------------
# Static size bound

def size_bound(q: MAExpr, n: int) -> int:
    """Upper bound on the node count of the output value, given an input
    of node count n. Constant factors are pinned to 1."""
    if isinstance(q, (Const, EmptyColl, UnitTuple)):
        return 1
    if isinstance(q, Sng):
        return n + 1
    if isinstance(q, (Id, Flatten, Proj, UnionT, Monus, Unique, Select)):
        return n
    if isinstance(q, (EqAtomic, NotOp, TrueOp)):
        return 2
    if isinstance(q, TupleCons):
        return sum(size_bound(f, n) for _, f in q.fields) + 1
    if isinstance(q, Union):
        return size_bound(q.f, n) + size_bound(q.g, n)
    if isinstance(q, PairWith):
        return n * n + 1
    if isinstance(q, Compose):
        return size_bound(q.g, size_bound(q.f, n))
    if isinstance(q, Map):
        return n * size_bound(q.f, n) + 1
    raise MATypeError("size_bound needs a core query; desugar %r first"
                      % (q,))
