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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Tuple as Tup

from .values import (
    ATOMIC, BAG, DEEP, LIST, MON, SET,
    Atom, Coll, CollType, DomType, DOM, Tuple, TupleType, Type, UNIT, UNIT_T,
    Value, ValueError_, make_coll, make_tuple, print_type, print_value,
    value_equal,
)

Path = Tup[str, ...]


class MATypeError(Exception):
    pass


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class MAExpr:
    pass


@dataclass(frozen=True)
class Id(MAExpr):
    pass


@dataclass(frozen=True)
class Const(MAExpr):
    label: str


@dataclass(frozen=True)
class EmptyColl(MAExpr):
    """The constant empty collection."""


@dataclass(frozen=True)
class UnitTuple(MAExpr):
    pass


@dataclass(frozen=True)
class Sng(MAExpr):
    pass


@dataclass(frozen=True)
class Map(MAExpr):
    f: MAExpr


@dataclass(frozen=True)
class Flatten(MAExpr):
    pass


@dataclass(frozen=True)
class PairWith(MAExpr):
    label: str


@dataclass(frozen=True)
class TupleCons(MAExpr):
    fields: Tup[Tup[str, MAExpr], ...]


@dataclass(frozen=True)
class Proj(MAExpr):
    label: str


@dataclass(frozen=True)
class Compose(MAExpr):
    f: MAExpr
    g: MAExpr


@dataclass(frozen=True)
class Union(MAExpr):
    f: MAExpr
    g: MAExpr


@dataclass(frozen=True)
class UnionT(MAExpr):
    """Union of the two collection fields of a tuple <1: X, 2: Y>."""


@dataclass(frozen=True)
class EqAtomic(MAExpr):
    pa: Path
    pb: Path


@dataclass(frozen=True)
class NotOp(MAExpr):
    pass


@dataclass(frozen=True)
class TrueOp(MAExpr):
    pass


@dataclass(frozen=True)
class Monus(MAExpr):
    pass


@dataclass(frozen=True)
class Unique(MAExpr):
    pass


# extended operators, removed by desugar()

@dataclass(frozen=True)
class EqMon(MAExpr):
    pa: Path
    pb: Path


@dataclass(frozen=True)
class EqDeep(MAExpr):
    pa: Path
    pb: Path


@dataclass(frozen=True)
class SelCond:
    pass


@dataclass(frozen=True)
class CAnd(SelCond):
    a: SelCond
    b: SelCond


@dataclass(frozen=True)
class COr(SelCond):
    a: SelCond
    b: SelCond


@dataclass(frozen=True)
class CNot(SelCond):
    a: SelCond


@dataclass(frozen=True)
class CIff(SelCond):
    a: SelCond
    b: SelCond


@dataclass(frozen=True)
class PathEqPath(SelCond):
    p: Path
    q: Path
    mode: str = DEEP


@dataclass(frozen=True)
class PathEqConst(SelCond):
    p: Path
    label: str
    mode: str = ATOMIC


@dataclass(frozen=True)
class PathInSet(SelCond):
    p: Path
    labels: Tup[str, ...]


@dataclass(frozen=True)
class Select(MAExpr):
    cond: SelCond


@dataclass(frozen=True)
class Diff(MAExpr):
    """Difference of the two collection fields of <1: R, 2: S>."""


@dataclass(frozen=True)
class Intersect(MAExpr):
    """Intersection of the two collection fields of <1: R, 2: S>."""


@dataclass(frozen=True)
class SubsetEq(MAExpr):
    pa: Path
    pb: Path


@dataclass(frozen=True)
class MemberOf(MAExpr):
    pa: Path
    pb: Path


@dataclass(frozen=True)
class Nest(MAExpr):
    label: str
    grouped: Tup[str, ...]


@dataclass(frozen=True)
class CartProd(MAExpr):
    f: MAExpr
    g: MAExpr


@dataclass(frozen=True)
class FlatMap(MAExpr):
    f: MAExpr


CORE_NODES = (Id, Const, EmptyColl, UnitTuple, Sng, Map, Flatten, PairWith,
              TupleCons, Proj, Compose, Union, UnionT, EqAtomic, NotOp,
              TrueOp, Monus, Unique)


def is_core(q: MAExpr) -> bool:
    if isinstance(q, (Map, FlatMap)):
        return type(q) is Map and is_core(q.f)
    if isinstance(q, (Compose, Union)):
        return is_core(q.f) and is_core(q.g)
    if isinstance(q, TupleCons):
        return all(is_core(f) for _, f in q.fields)
    return isinstance(q, CORE_NODES)


def ast_size(q: MAExpr) -> int:
    if isinstance(q, (Compose, Union, CartProd)):
        return 1 + ast_size(q.f) + ast_size(q.g)
    if isinstance(q, (Map, FlatMap)):
        return 1 + ast_size(q.f)
    if isinstance(q, TupleCons):
        return 1 + sum(ast_size(f) for _, f in q.fields)
    return 1


def compose(*parts: MAExpr) -> MAExpr:
    """Left-to-right composition chain; drops nothing, folds left."""
    out = parts[0]
    for p in parts[1:]:
        out = Compose(out, p)
    return out


# ---------------------------------------------------------------------------
# Typing

@dataclass(frozen=True)
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


# the operators on the two collection fields of a <1: R, 2: S> tuple
_PAIR_OPS = {UnionT: "union", Monus: "monus", Diff: "diff",
             Intersect: "cap"}


def infer_type(q: MAExpr, t: Type, sem: str = SET) -> Type:
    if isinstance(q, Id):
        return t
    if isinstance(q, Const):
        return DOM
    if isinstance(q, EmptyColl):
        return CollType(sem, ANY)
    if isinstance(q, UnitTuple):
        return UNIT_T
    if isinstance(q, Sng):
        return CollType(sem, t)
    if isinstance(q, Map):
        ct = _need_coll(t, sem, "map")
        return CollType(sem, infer_type(q.f, ct.elem, sem))
    if isinstance(q, FlatMap):
        ct = _need_coll(t, sem, "flatmap")
        inner = infer_type(q.f, ct.elem, sem)
        return infer_type(Flatten(), CollType(sem, inner), sem)
    if isinstance(q, Flatten):
        ct = _need_coll(t, sem, "flatten")
        if isinstance(ct.elem, AnyType):
            return CollType(sem, ANY)
        inner = _need_coll(ct.elem, sem, "flatten (inner)")
        return CollType(sem, inner.elem)
    if isinstance(q, PairWith):
        tt = _need_tuple(t, "pairwith")
        ft = tt.field(q.label)
        if isinstance(ft, AnyType):
            ft = CollType(sem, ANY)
        fc = _need_coll(ft, sem, "pairwith field %s" % q.label)
        elem = TupleType(tuple(
            (l, fc.elem if l == q.label else x) for l, x in tt.fields))
        return CollType(sem, elem)
    if isinstance(q, TupleCons):
        return TupleType(tuple(
            (l, infer_type(f, t, sem)) for l, f in q.fields))
    if isinstance(q, Proj):
        tt = _need_tuple(t, "pi[%s]" % q.label)
        try:
            return tt.field(q.label)
        except ValueError_:
            raise MATypeError("pi[%s]: no such field in %s"
                              % (q.label, print_type(tt)))
    if isinstance(q, Compose):
        return infer_type(q.g, infer_type(q.f, t, sem), sem)
    if isinstance(q, Union):
        a = infer_type(q.f, t, sem)
        b = infer_type(q.g, t, sem)
        _need_coll(a, sem, "union (left)")
        _need_coll(b, sem, "union (right)")
        return type_join(a, b, "union")
    if isinstance(q, (UnionT, Monus, Diff, Intersect)):
        name = _PAIR_OPS[type(q)]
        if isinstance(q, Monus) and sem != BAG:
            raise MATypeError("monus is only available under bag semantics")
        tt = _need_tuple(t, name)
        if tt.labels() != ("1", "2"):
            raise MATypeError("%s expects a <1: _, 2: _> tuple, got %s"
                              % (name, print_type(tt)))
        a = _coerce_coll(tt.field("1"), sem)
        b = _coerce_coll(tt.field("2"), sem)
        return type_join(a, b, name)
    if isinstance(q, EqAtomic):
        for p in (q.pa, q.pb):
            pt = path_type(_need_tuple(t, "eqatom"), p, "eqatom")
            if not isinstance(pt, (DomType, AnyType)):
                raise MATypeError("eqatom: path %s has non-atomic type %s"
                                  % (".".join(p), print_type(pt)))
        return bool_type(sem)
    if isinstance(q, NotOp):
        _need_coll(t, sem, "not")
        return bool_type(sem)
    if isinstance(q, TrueOp):
        if sem == SET:
            raise MATypeError("true is not available under set semantics")
        _need_coll(t, sem, "true")
        return bool_type(sem)
    if isinstance(q, Unique):
        if sem != BAG:
            raise MATypeError("unique is only available under bag semantics")
        return _need_coll(t, sem, "unique")
    if isinstance(q, (EqMon, EqDeep)):
        name = "eqmon" if isinstance(q, EqMon) else "eq"
        ta = path_type(_need_tuple(t, name), q.pa, name)
        tb = path_type(_need_tuple(t, name), q.pb, name)
        type_join(ta, tb, name)
        if isinstance(q, EqMon):
            _mon_type(ta, name)
            _mon_type(tb, name)
        return bool_type(sem)
    if isinstance(q, Select):
        ct = _need_coll(t, sem, "select")
        if not isinstance(ct.elem, AnyType):
            _check_cond(q.cond, ct.elem, sem)
        return ct
    if isinstance(q, SubsetEq):
        tt = _need_tuple(t, "subseteq")
        for p in (q.pa, q.pb):
            _need_coll(path_type(tt, p, "subseteq"), sem, "subseteq")
        return bool_type(sem)
    if isinstance(q, MemberOf):
        tt = _need_tuple(t, "in")
        elem = path_type(tt, q.pa, "in")
        cb = _need_coll(path_type(tt, q.pb, "in"), sem, "in")
        type_join(elem, cb.elem, "in")
        return bool_type(sem)
    if isinstance(q, Nest):
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
        return CollType(sem, TupleType(
            keys + ((q.label, CollType(sem, TupleType(grouped))),)))
    if isinstance(q, CartProd):
        a = _need_coll(infer_type(q.f, t, sem), sem, "cart (left)")
        b = _need_coll(infer_type(q.g, t, sem), sem, "cart (right)")
        return CollType(sem, TupleType((("1", a.elem), ("2", b.elem))))
    raise MATypeError("cannot type %r" % (q,))


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
        return CollType(sem, ANY)
    return t


def _need_tuple(t: Type, ctx: str) -> TupleType:
    if not isinstance(t, TupleType):
        raise MATypeError("%s: expected a tuple, got %s"
                          % (ctx, print_type(t)))
    return t


def _check_cond(c: SelCond, t: Type, sem: str):
    if isinstance(c, (CAnd, COr, CIff)):
        _check_cond(c.a, t, sem)
        _check_cond(c.b, t, sem)
    elif isinstance(c, CNot):
        _check_cond(c.a, t, sem)
    elif isinstance(c, PathEqPath):
        tt = _need_tuple(t, "select") if c.p or c.q else t
        ta = path_type(tt, c.p, "select") if c.p else t
        tb = path_type(tt, c.q, "select") if c.q else t
        type_join(ta, tb, "select")
        if c.mode == ATOMIC:
            for pt, p in ((ta, c.p), (tb, c.q)):
                if not isinstance(pt, (DomType, AnyType)):
                    raise MATypeError(
                        "select: atomic comparison on %s at %s"
                        % (print_type(pt), ".".join(p)))
        if c.mode == MON:
            _mon_type(ta, "select")
    elif isinstance(c, (PathEqConst, PathInSet)):
        pt = path_type(t, c.p, "select") if isinstance(t, TupleType) \
            else (t if not c.p else path_type(_need_tuple(t, "select"),
                                              c.p, "select"))
        if isinstance(c, PathEqConst) and c.mode == ATOMIC:
            if not isinstance(pt, (DomType, AnyType)):
                raise MATypeError("select: atomic comparison on %s"
                                  % print_type(pt))
        if isinstance(c, PathInSet) and not isinstance(pt, (DomType, AnyType)):
            raise MATypeError("select: membership test on %s" % print_type(pt))
    else:
        raise MATypeError("bad selection condition %r" % (c,))


# ---------------------------------------------------------------------------
# Evaluation

def true_val(sem: str) -> Coll:
    return make_coll(sem, (UNIT,))


def false_val(sem: str) -> Coll:
    return make_coll(sem, ())


def bool_val(b: bool, sem: str) -> Coll:
    return true_val(sem) if b else false_val(sem)


def _proj_path(v: Value, p: Path) -> Value:
    for label in p:
        if not isinstance(v, Tuple):
            raise ValueError_("path %s hits non-tuple %s"
                              % (".".join(p), print_value(v)))
        v = v.field(label)
    return v


def cond_holds(c: SelCond, v: Value) -> bool:
    if isinstance(c, CAnd):
        return cond_holds(c.a, v) and cond_holds(c.b, v)
    if isinstance(c, COr):
        return cond_holds(c.a, v) or cond_holds(c.b, v)
    if isinstance(c, CNot):
        return not cond_holds(c.a, v)
    if isinstance(c, CIff):
        return cond_holds(c.a, v) == cond_holds(c.b, v)
    if isinstance(c, PathEqPath):
        return value_equal(_proj_path(v, c.p), _proj_path(v, c.q), c.mode)
    if isinstance(c, PathEqConst):
        return value_equal(_proj_path(v, c.p), Atom(c.label), c.mode)
    if isinstance(c, PathInSet):
        x = _proj_path(v, c.p)
        if not isinstance(x, Atom):
            raise ValueError_("membership test on non-atom %s"
                              % print_value(x))
        return x.label in c.labels
    raise ValueError_("bad selection condition %r" % (c,))


def _as_coll(v: Value, ctx: str) -> Coll:
    if not isinstance(v, Coll):
        raise ValueError_("%s: expected collection, got %s"
                          % (ctx, print_value(v)))
    return v


def eval_ma(q: MAExpr, v: Value, sem: str = SET) -> Value:
    if isinstance(q, Id):
        return v
    if isinstance(q, Const):
        return Atom(q.label)
    if isinstance(q, EmptyColl):
        return false_val(sem)
    if isinstance(q, UnitTuple):
        return UNIT
    if isinstance(q, Sng):
        return make_coll(sem, (v,))
    if isinstance(q, Map):
        c = _as_coll(v, "map")
        return make_coll(sem, (eval_ma(q.f, x, sem) for x in c.elems))
    if isinstance(q, FlatMap):
        return eval_ma(Compose(Map(q.f), Flatten()), v, sem)
    if isinstance(q, Flatten):
        c = _as_coll(v, "flatten")
        out = []
        for x in c.elems:
            out.extend(_as_coll(x, "flatten member").elems)
        return make_coll(sem, out)
    if isinstance(q, PairWith):
        t = _as_tuple(v, "pairwith")
        src = _as_coll(t.field(q.label), "pairwith field")
        out = []
        for x in src.elems:
            out.append(make_tuple(
                (l, x if l == q.label else w) for l, w in t.fields))
        return make_coll(sem, out)
    if isinstance(q, TupleCons):
        return make_tuple((l, eval_ma(f, v, sem)) for l, f in q.fields)
    if isinstance(q, Proj):
        return _as_tuple(v, "pi").field(q.label)
    if isinstance(q, Compose):
        return eval_ma(q.g, eval_ma(q.f, v, sem), sem)
    if isinstance(q, Union):
        a = _as_coll(eval_ma(q.f, v, sem), "union")
        b = _as_coll(eval_ma(q.g, v, sem), "union")
        return make_coll(sem, a.elems + b.elems)
    if isinstance(q, UnionT):
        a, b = _coll_pair(v, "union")
        return make_coll(sem, a.elems + b.elems)
    if isinstance(q, EqAtomic):
        a = _proj_path(_as_tuple(v, "eqatom"), q.pa)
        b = _proj_path(_as_tuple(v, "eqatom"), q.pb)
        return bool_val(value_equal(a, b, ATOMIC), sem)
    if isinstance(q, NotOp):
        return bool_val(not _as_coll(v, "not").elems, sem)
    if isinstance(q, TrueOp):
        return bool_val(bool(_as_coll(v, "true").elems), sem)
    if isinstance(q, Monus):
        a, b = _coll_pair(v, "monus")
        # each member of field 2 cancels the first equal member of field 1
        cancel = Counter(b.elems)
        out = []
        for x in a.elems:
            if cancel[x]:
                cancel[x] -= 1
            else:
                out.append(x)
        return make_coll(sem, out)
    if isinstance(q, Unique):
        return make_coll(sem, dict.fromkeys(_as_coll(v, "unique").elems))
    if isinstance(q, (EqMon, EqDeep)):
        mode = MON if isinstance(q, EqMon) else DEEP
        t = _as_tuple(v, "eq")
        return bool_val(
            value_equal(_proj_path(t, q.pa), _proj_path(t, q.pb), mode), sem)
    if isinstance(q, Select):
        c = _as_coll(v, "select")
        return make_coll(sem, (x for x in c.elems if cond_holds(q.cond, x)))
    if isinstance(q, Diff):
        a, b = _coll_pair(v, "diff")
        drop = set(b.elems)
        return make_coll(sem, (x for x in a.elems if x not in drop))
    if isinstance(q, Intersect):
        a, b = _coll_pair(v, "cap")
        keep = set(b.elems)
        return make_coll(sem, (x for x in a.elems if x in keep))
    if isinstance(q, SubsetEq):
        t = _as_tuple(v, "subseteq")
        a = _as_coll(_proj_path(t, q.pa), "subseteq")
        b = _as_coll(_proj_path(t, q.pb), "subseteq")
        return bool_val(set(a.elems) <= set(b.elems), sem)
    if isinstance(q, MemberOf):
        t = _as_tuple(v, "in")
        x = _proj_path(t, q.pa)
        b = _as_coll(_proj_path(t, q.pb), "in")
        return bool_val(x in b.elems, sem)
    if isinstance(q, Nest):
        c = _as_coll(v, "nest")
        groups = {}
        for x in c.elems:
            t = _as_tuple(x, "nest")
            key = make_tuple((l, w) for l, w in t.fields
                             if l not in q.grouped)
            part = make_tuple((l, w) for l, w in t.fields if l in q.grouped)
            groups.setdefault(key, []).append(part)
        return make_coll(sem, (
            make_tuple(k.fields + ((q.label, make_coll(sem, ms)),))
            for k, ms in groups.items()))
    if isinstance(q, CartProd):
        a = _as_coll(eval_ma(q.f, v, sem), "cart")
        b = _as_coll(eval_ma(q.g, v, sem), "cart")
        return make_coll(sem, (make_tuple((("1", x), ("2", y)))
                               for x in a.elems for y in b.elems))
    raise ValueError_("cannot evaluate %r" % (q,))


def _as_tuple(v: Value, ctx: str) -> Tuple:
    if not isinstance(v, Tuple):
        raise ValueError_("%s: expected tuple, got %s" % (ctx, print_value(v)))
    return v


def _coll_pair(v: Value, ctx: str):
    """The two collection fields of a <1: R, 2: S> tuple."""
    t = _as_tuple(v, ctx)
    return _as_coll(t.field("1"), ctx), _as_coll(t.field("2"), ctx)


def type_of(v: Value, sem: str = SET) -> Type:
    """The natural type of a value; collection kinds must match sem."""
    if isinstance(v, Atom):
        return DOM
    if isinstance(v, Tuple):
        return TupleType(tuple((l, type_of(x, sem)) for l, x in v.fields))
    assert isinstance(v, Coll)
    if v.kind != sem:
        raise MATypeError("%s collection under %s semantics" % (v.kind, sem))
    t: Type = ANY
    for x in v.elems:
        t = type_join(t, type_of(x, sem), "collection elements")
    return CollType(v.kind, t)


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
    out = parts[0]
    for p in parts[1:]:
        out = Union(out, p)
    if len(parts) > 1 and sem == LIST:
        out = Compose(out, TrueOp())
    if len(parts) > 1 and sem == BAG:
        out = Compose(out, Unique())
    return out


def _negate(pred: MAExpr) -> MAExpr:
    return Compose(pred, NotOp())


def _leaf_paths(t: Type) -> list:
    if isinstance(t, (DomType, AnyType)):
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
    inner = compose(TupleCons((("1", Id()), ("2", Compose(Id(), gamma)))),
                    PairWith("2"), Map(Proj("1")))
    return compose(Map(inner), Flatten())


def _cond_pred(c: SelCond, t: Type, sem: str) -> MAExpr:
    """Compile a selection condition into a core predicate on elements
    of type t."""
    if isinstance(c, CAnd):
        return _conj([_cond_pred(c.a, t, sem), _cond_pred(c.b, t, sem)])
    if isinstance(c, COr):
        return _disj([_cond_pred(c.a, t, sem), _cond_pred(c.b, t, sem)], sem)
    if isinstance(c, CNot):
        return _negate(_cond_pred(c.a, t, sem))
    if isinstance(c, CIff):
        a = _cond_pred(c.a, t, sem)
        b = _cond_pred(c.b, t, sem)
        return _disj([_conj([a, b]), _conj([_negate(a), _negate(b)])], sem)
    if isinstance(c, PathEqPath):
        # both sides decide the expansion: one may be an empty literal
        # of unknown element type while the other is a collection
        ta = type_join(path_type(t, c.p, "select"),
                       path_type(t, c.q, "select"), "select")
        if c.mode == ATOMIC:
            return EqAtomic(c.p, c.q) if (c.p and c.q) else \
                _pair_eq(Proj_chain(c.p), Proj_chain(c.q))
        if c.mode == MON or (c.mode == DEEP and _is_mon_type(ta)):
            return Compose(TupleCons((("A", Proj_chain(c.p)),
                                      ("B", Proj_chain(c.q)))),
                           expand_mon_eq(_concrete(ta)))
        return EqDeep(c.p, c.q)
    if isinstance(c, PathEqConst):
        if c.mode == ATOMIC or c.mode == MON:
            return Compose(TupleCons((("A", Proj_chain(c.p)),
                                      ("B", Const(c.label)))),
                           EqAtomic(("A",), ("B",)))
        return Compose(TupleCons((("A", Proj_chain(c.p)),
                                  ("B", Const(c.label)))),
                       EqDeep(("A",), ("B",)))
    if isinstance(c, PathInSet):
        return _disj([_cond_pred(PathEqConst(c.p, l, ATOMIC), t, sem)
                      for l in c.labels], sem)
    raise MATypeError("bad selection condition %r" % (c,))


def _pair_eq(fa, fb):
    return Compose(TupleCons((("A", fa), ("B", fb))),
                   EqAtomic(("A",), ("B",)))


def _is_mon_type(t: Type) -> bool:
    if isinstance(t, (DomType, AnyType)):
        return True
    if isinstance(t, TupleType):
        return all(_is_mon_type(x) for _, x in t.fields)
    return False


def _concrete(t: Type) -> Type:
    return DOM if isinstance(t, AnyType) else t


def Proj_chain(p: Path) -> MAExpr:
    """Projection along a dotted path, composed left to right."""
    return compose(*(Proj(label) for label in p)) if p else Id()


def desugar(q: MAExpr, t: Type, sem: str = SET) -> MAExpr:
    """Rewrite extended operators into core ones, threading the input type.

    The output uses core constructors only, except that deep equality on
    collection-bearing types stays primitive (it is interdefinable with
    the other nonmonotone extras but not reducible to atomic equality)
    and conditions compiled from negations use the core "not".
    """
    infer_type(q, t, sem)
    return _desugar(q, t, sem)


def _desugar(q: MAExpr, t: Type, sem: str) -> MAExpr:
    if isinstance(q, Compose):
        mid = infer_type(q.f, t, sem)
        return Compose(_desugar(q.f, t, sem), _desugar(q.g, mid, sem))
    if isinstance(q, Map):
        ct = _need_coll(t, sem, "map")
        return Map(_desugar(q.f, _concrete(ct.elem), sem))
    if isinstance(q, FlatMap):
        ct = _need_coll(t, sem, "flatmap")
        return Compose(Map(_desugar(q.f, _concrete(ct.elem), sem)),
                       Flatten())
    if isinstance(q, TupleCons):
        return TupleCons(tuple((l, _desugar(f, t, sem)) for l, f in q.fields))
    if isinstance(q, Union):
        return Compose(TupleCons((("1", _desugar(q.f, t, sem)),
                                  ("2", _desugar(q.g, t, sem)))), UnionT())
    if isinstance(q, CartProd):
        return _desugar(_cart(q.f, q.g), t, sem)
    if isinstance(q, Select):
        ct = _need_coll(t, sem, "select")
        gamma = _cond_pred(q.cond, _concrete(ct.elem), sem)
        return _sigma(gamma)
    if isinstance(q, EqMon):
        ta = path_type(_need_tuple(t, "eqmon"), q.pa, "eqmon")
        return Compose(TupleCons((("A", Proj_chain(q.pa)),
                                  ("B", Proj_chain(q.pb)))),
                       expand_mon_eq(_concrete(ta)))
    if isinstance(q, EqDeep):
        ta = path_type(_need_tuple(t, "eq"), q.pa, "eq")
        if _is_mon_type(ta):
            return _desugar(EqMon(q.pa, q.pb), t, sem)
        return q
    if isinstance(q, Diff):
        # keep the members of field 1 with no deep-equal partner in field 2;
        # the emptiness filter on the partner set uses the core "not"
        inner = compose(
            TupleCons((("1", Proj("1")), ("2", Proj("2")))),
            PairWith("2"),
            Select(PathEqPath(("1",), ("2",), DEEP)))
        empty_m = Compose(Proj("m"), NotOp())
        body = compose(
            PairWith("1"),
            Map(TupleCons((("1", Proj("1")), ("m", inner)))),
            _sigma(empty_m),
            Map(Proj("1")))
        return _desugar(body, t, sem)
    if isinstance(q, Intersect):
        body = compose(
            _cart(Proj("1"), Proj("2")),
            Select(PathEqPath(("1",), ("2",), DEEP)),
            Map(Proj("1")))
        return _desugar(body, t, sem)
    if isinstance(q, SubsetEq):
        body = Compose(
            TupleCons((("A", Proj_chain(q.pa)),
                       ("A2", Compose(TupleCons((("1", Proj_chain(q.pa)),
                                                 ("2", Proj_chain(q.pb)))),
                                      Intersect())))),
            EqDeep(("A",), ("A2",)))
        return _desugar(body, t, sem)
    if isinstance(q, MemberOf):
        body = Compose(
            TupleCons((("1", Compose(Proj_chain(q.pa), Sng())),
                       ("2", Proj_chain(q.pb)))),
            SubsetEq(("1",), ("2",)))
        return _desugar(body, t, sem)
    if isinstance(q, Nest):
        ct = _need_coll(t, sem, "nest")
        tt = _need_tuple(_concrete(ct.elem), "nest")
        keys = [l for l in tt.labels() if l not in q.grouped]
        key_eq: SelCond
        conds = [PathEqPath(("1", l), ("2", l), DEEP) for l in keys]
        if conds:
            key_eq = conds[0]
            for c in conds[1:]:
                key_eq = CAnd(key_eq, c)
        else:
            key_eq = PathEqPath((), (), DEEP)
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
                tuple((l, Compose(Proj("1"), Proj(l))) for l in keys)
                + ((q.label, group),))))
        return _desugar(body, t, sem)
    if isinstance(q, CORE_NODES):
        # the core nodes with subexpressions are handled above
        return q
    raise MATypeError("cannot desugar %r" % (q,))


# ---------------------------------------------------------------------------
# Static size bound

def size_bound(q: MAExpr, n: int) -> int:
    """Upper bound on the node count of the output value, given an input
    of node count n. Constant factors are pinned to 1."""
    if isinstance(q, (Const, EmptyColl, UnitTuple)):
        return 1
    if isinstance(q, Id):
        return n
    if isinstance(q, Sng):
        return n + 1
    if isinstance(q, (Flatten, Proj, UnionT, Monus, Unique)):
        return n
    if isinstance(q, Select):
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
