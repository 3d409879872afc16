"""Translations between the tree query language and monad algebra on
lists, in both directions, with the round-trip equations as executable
checks.

Trees embed into complex values by C: a node becomes a tuple
<label: atom, children: [C(child), ...]>. Values built from atoms,
tuples and lists embed into trees by T: atoms become leaves, a k-field
tuple becomes a <tup> node whose i-th child is an <a_i> wrapper around
the field image, and a list becomes a <list> node over the member
images.

xq_to_ma compiles a child-axis tree query to a list-semantics monad
algebra query over environments: lists of bindings <N: name, V: value>.
Variable lookup filters the bindings by name and projects V. ma_to_xq
compiles a core list-monad query (plus equality selections) to a tree
query over T-encoded inputs; it needs the input type to resolve tuple
field positions.
"""

from __future__ import annotations

from typing import Optional

from .values import (
    ATOMIC, Atom, Coll, CollType, DEEP, LIST, Tuple, TupleType, Type,
    Value, ValueError_, make_coll, make_tuple,
)
from . import ma
from .ma import (
    Compose, Const, EmptyColl, FlatMap, Id, MAExpr, Map, NotOp, PairWith,
    PathEqConst, PathEqPath, Proj, Select, Sng, TrueOp, TupleCons, Union,
    UnionT, UnitTuple, compose,
)
from . import xmlxq as xq
from .xmlxq import (
    AxisStep, CHILD, Elem, EmptyElem, EmptySeq, For, If, Let, Not,
    PathExpr, QueryEq, Seq, STAR, Tree, Var, VarEq, XQExpr, eval_xq,
)


ROOT_NAME = "ROOT"


# ---------------------------------------------------------------------------
# Encodings

def encode_C(t: Tree) -> Value:
    return make_tuple((
        ("label", Atom(t.label)),
        ("children", make_coll(LIST, (encode_C(c) for c in t.children))),
    ))


def decode_C(v: Value) -> Tree:
    if (not isinstance(v, Tuple) or v.labels != ("label", "children")):
        raise ValueError_("not a C-encoded tree: %r" % (v,))
    label = v.field("label")
    children = v.field("children")
    if not isinstance(label, Atom) or not isinstance(children, Coll) \
            or children.kind != LIST:
        raise ValueError_("not a C-encoded tree: %r" % (v,))
    return Tree(label.label, tuple(decode_C(c) for c in children.elems))


def encode_T(v: Value) -> Tree:
    if isinstance(v, Atom):
        return Tree(v.label)
    if isinstance(v, Tuple):
        return Tree("tup", tuple(
            Tree("a%d" % (i + 1), (encode_T(x),))
            for i, x in enumerate(v.vals)))
    assert isinstance(v, Coll)
    if v.kind != LIST:
        raise ValueError_("T encodes lists only, got a %s" % v.kind)
    return Tree("list", tuple(encode_T(x) for x in v.elems))


# ---------------------------------------------------------------------------
# Tree queries to monad algebra (list semantics)

def _var_name(level: int) -> str:
    return ROOT_NAME if level == 1 else "x%d" % level


def _lookup_ma(level: int) -> MAExpr:
    """Filter the binding list by name, project the value: yields the
    one-element list [value]."""
    return Compose(
        Select(PathEqConst(("N",), _var_name(level), ATOMIC)),
        Map(Proj("V")))


# C-image of the <yes/> tree that comparisons and negations yield
_YES = TupleCons((("label", Const("yes")), ("children", EmptyColl())))


def xq_to_ma(q: XQExpr) -> MAExpr:
    """Translate a child-axis tree query. The resulting query maps an
    environment [<N: name, V: value>, ...] to the list of C-images of
    the result sequence. Equality mode follows each VarEq node. The
    derived forms are translated through their desugaring."""
    return _ma(xq.xq_desugar(q), 1)


def _ma(q: XQExpr, depth: int) -> MAExpr:
    if isinstance(q, EmptySeq):
        return EmptyColl()
    if isinstance(q, Seq):
        return Union(_ma(q.a, depth), _ma(q.b, depth))
    if isinstance(q, EmptyElem):
        return Compose(TupleCons((("label", Const(q.label)),
                                  ("children", EmptyColl()))), Sng())
    if isinstance(q, Elem):
        return Compose(TupleCons((("label", Const(q.label)),
                                  ("children", _ma(q.body, depth)))),
                       Sng())
    if isinstance(q, Var):
        return _lookup_ma(q.i)
    if isinstance(q, AxisStep):
        if q.axis != CHILD:
            raise ValueError_("only the child axis can be translated")
        step = Proj("children")
        if q.test != STAR:
            step = Compose(step,
                           Select(PathEqConst(("label",), q.test, ATOMIC)))
        return Compose(_lookup_ma(q.var), FlatMap(step))
    if isinstance(q, (For, Let)):
        name = _var_name(depth + 1)
        bind = Union(Proj("1"),
                     Compose(TupleCons((("N", Const(name)),
                                        ("V", Proj("2")))), Sng()))
        src = q.source if isinstance(q, For) else q.bound
        return compose(
            TupleCons((("1", Id()), ("2", _ma(src, depth)))),
            PairWith("2"),
            FlatMap(Compose(bind, _ma(q.body, depth + 1))))
    if isinstance(q, If):
        return compose(
            TupleCons((("1", Id()),
                       ("2", Compose(_ma(q.cond, depth), TrueOp())))),
            PairWith("2"),
            FlatMap(Compose(Proj("1"), _ma(q.then, depth))))
    if isinstance(q, Not):
        return compose(_ma(q.a, depth), Map(UnitTuple()), NotOp(),
                       Map(_YES))
    if isinstance(q, VarEq):
        if q.mode == ATOMIC:
            cond = PathEqPath(("1", "V", "label"), ("2", "V", "label"),
                              ATOMIC)
        else:
            cond = PathEqPath(("1", "V"), ("2", "V"), DEEP)
        return compose(
            TupleCons((("1", Select(PathEqConst(("N",), _var_name(q.i),
                                                ATOMIC))),
                       ("2", Select(PathEqConst(("N",), _var_name(q.j),
                                                ATOMIC))))),
            PairWith("1"),
            FlatMap(PairWith("2")),
            Select(cond),
            Map(_YES))
    raise ValueError_("cannot translate %r" % (q,))


def initial_env(doc: Tree) -> Value:
    return make_coll(LIST, [make_tuple((("N", Atom(ROOT_NAME)),
                                        ("V", encode_C(doc))))])


def check_thm62(q: XQExpr, doc: Tree) -> bool:
    """The list of C-images of the tree-query result equals the monad
    algebra translation applied to the initial environment."""
    lhs = make_coll(LIST, [encode_C(t) for t in eval_xq(q, (doc,))])
    rhs = ma.eval_ma(xq_to_ma(q), initial_env(doc), LIST)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Monad algebra (lists) to tree queries

def ma_to_xq(q: MAExpr, t: Type) -> XQExpr:
    """Translate a core list-monad query (tuples, lists, atoms; plus
    deep-equality selections) on inputs of type t. The output query
    expects $root bound to the T-image of the input value."""
    return _xq(q, t, 1, 1)


def _tag(tt: TupleType, label: str) -> str:
    for i, (l, _) in enumerate(tt.fields):
        if l == label:
            return "a%d" % (i + 1)
    raise ValueError_("no field %r in %s" % (label, tt))


def _field_members(x: int, tag: str) -> XQExpr:
    """$x/<tag>/*: the single T-image stored under a tuple field."""
    return PathExpr(x, ((CHILD, tag), (CHILD, STAR)))


def _xq(q: MAExpr, t: Type, x: int, k: int) -> XQExpr:
    if isinstance(q, Id):
        return Var(x)
    if isinstance(q, Const):
        return EmptyElem(q.label)
    if isinstance(q, EmptyColl):
        return EmptyElem("list")
    if isinstance(q, UnitTuple):
        return EmptyElem("tup")
    if isinstance(q, Sng):
        return Elem("list", Var(x))
    if isinstance(q, ma.Flatten):
        return Elem("list", PathExpr(x, ((CHILD, "list"), (CHILD, STAR))))
    if isinstance(q, Compose):
        tf = ma.infer_type(q.f, t, LIST)
        u, y = k + 1, k + 2
        return Let(Elem("list", _xq(q.f, t, x, k)),
                   For(AxisStep(u, CHILD, STAR), _xq(q.g, tf, y, y)))
    if isinstance(q, TupleCons):
        if not q.fields:
            return EmptyElem("tup")
        body = None
        for i, (_, f) in enumerate(q.fields):
            part = Elem("a%d" % (i + 1), _xq(f, t, x, k))
            body = part if body is None else Seq(body, part)
        return Elem("tup", body)
    if isinstance(q, Proj):
        tt = _tuple_type(t)
        return _field_members(x, _tag(tt, q.label))
    if isinstance(q, Map):
        ct = _list_type(t)
        y = k + 1
        return Elem("list", For(AxisStep(x, CHILD, STAR),
                                _xq(q.f, ct.elem, y, y)))
    if isinstance(q, Union):
        return Elem("list", Seq(_side(q.f, t, x, k), _side(q.g, t, x, k)))
    if isinstance(q, UnionT):
        tt = _tuple_type(t)
        if tt.labels() != ("1", "2"):
            raise ValueError_("union input must have fields 1, 2")
        return Elem("list", Seq(
            PathExpr(x, ((CHILD, "a1"), (CHILD, "list"), (CHILD, STAR))),
            PathExpr(x, ((CHILD, "a2"), (CHILD, "list"), (CHILD, STAR)))))
    if isinstance(q, PairWith):
        tt = _tuple_type(t)
        i = list(tt.labels()).index(q.label)
        y = k + 1
        body = None
        for j in range(len(tt.fields)):
            tag = "a%d" % (j + 1)
            if j == i:
                part = Elem(tag, Var(y))
            else:
                part = Elem(tag, _field_members(x, tag))
            body = part if body is None else Seq(body, part)
        return Elem("list", For(
            PathExpr(x, ((CHILD, "a%d" % (i + 1)), (CHILD, "list"),
                         (CHILD, STAR))),
            Elem("tup", body)))
    if isinstance(q, Select):
        c = q.cond
        if not (isinstance(c, PathEqPath) and c.mode == DEEP
                and len(c.p) == 1 and len(c.q) == 1):
            raise ValueError_("only single-field deep-equality selections "
                              "translate")
        ct = _list_type(t)
        tt = _tuple_type(ct.elem)
        y = k + 1
        return Elem("list", For(
            AxisStep(x, CHILD, STAR),
            If(QueryEq(_field_members(y, _tag(tt, c.p[0])),
                       _field_members(y, _tag(tt, c.q[0])), DEEP),
               Var(y))))
    raise ValueError_("cannot translate %r; desugar to the core first"
                      % (q,))


def _side(f: MAExpr, t: Type, x: int, k: int) -> XQExpr:
    """The members of one union operand: bind its (singleton) T-image
    and step to the children."""
    u, y = k + 1, k + 2
    return Let(Elem("list", _xq(f, t, x, k)),
               For(AxisStep(u, CHILD, STAR), AxisStep(y, CHILD, STAR)))


def _tuple_type(t: Type) -> TupleType:
    if not isinstance(t, TupleType):
        raise ValueError_("expected a tuple type, got %r" % (t,))
    return t


def _list_type(t: Type) -> CollType:
    if not isinstance(t, CollType) or t.kind != LIST:
        raise ValueError_("expected a list type, got %r" % (t,))
    return t


def check_thm63(q: MAExpr, v: Value, t: Optional[Type] = None) -> bool:
    """T of the monad algebra result equals the (singleton) result of the
    translated tree query on T of the input."""
    if t is None:
        t = ma.type_of(v, LIST)
    lhs = encode_T(ma.eval_ma(q, v, LIST))
    r = eval_xq(ma_to_xq(q, t), (encode_T(v),))
    return len(r) == 1 and r[0] == lhs
