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
query over T-encoded inputs; it type-checks the query against the input
type first, and needs that type to resolve tuple field positions. Each
direction translates a node by the rule that one table holds for the
node's type.
"""

from __future__ import annotations

from functools import reduce

from .values import (
    ATOMIC, Atom, Coll, DEEP, LIST, Tuple, TupleType, Type, Value,
    ValueError_, make_coll, make_tuple,
)
from . import ma
from .ma import (
    AnyType, Compose, Const, EmptyColl, FlatMap, Id, MAExpr, Map, NotOp,
    PairWith, PathEqConst, PathEqPath, Proj, Select, Sng, TrueOp, TupleCons,
    Union, UnionT, UnitTuple, compose,
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
    rule = _MA.get(type(q))
    if rule is None:
        raise ValueError_("cannot translate %r" % (q,))
    return rule(q, depth)


def _ma_node(label: str, children: MAExpr) -> MAExpr:
    """The one-element list of the C-image of a <label> node."""
    return Compose(TupleCons((("label", Const(label)),
                              ("children", children))), Sng())


def _ma_step(q: AxisStep, depth: int) -> MAExpr:
    if q.axis != CHILD:
        raise ValueError_("only the child axis can be translated")
    step = Proj("children")
    if q.test != STAR:
        step = Compose(step, Select(PathEqConst(("label",), q.test, ATOMIC)))
    return Compose(_lookup_ma(q.var), FlatMap(step))


def _ma_bind(src: XQExpr, body: XQExpr, depth: int) -> MAExpr:
    """for and let: the body runs once per tree of src, with the
    environment extended by a binding of the next level to it."""
    name = _var_name(depth + 1)
    bind = Union(Proj("1"),
                 Compose(TupleCons((("N", Const(name)),
                                    ("V", Proj("2")))), Sng()))
    return compose(
        TupleCons((("1", Id()), ("2", _ma(src, depth)))),
        PairWith("2"),
        FlatMap(Compose(bind, _ma(body, depth + 1))))


def _ma_if(q: If, depth: int) -> MAExpr:
    return compose(
        TupleCons((("1", Id()),
                   ("2", Compose(_ma(q.cond, depth), TrueOp())))),
        PairWith("2"),
        FlatMap(Compose(Proj("1"), _ma(q.then, depth))))


def _ma_var_eq(q: VarEq, depth: int) -> MAExpr:
    if q.mode == ATOMIC:
        cond = PathEqPath(("1", "V", "label"), ("2", "V", "label"), ATOMIC)
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


_MA = {
    EmptySeq: lambda q, depth: EmptyColl(),
    Seq: lambda q, depth: Union(_ma(q.a, depth), _ma(q.b, depth)),
    EmptyElem: lambda q, depth: _ma_node(q.label, EmptyColl()),
    Elem: lambda q, depth: _ma_node(q.label, _ma(q.body, depth)),
    Var: lambda q, depth: _lookup_ma(q.i),
    AxisStep: _ma_step,
    For: lambda q, depth: _ma_bind(q.source, q.body, depth),
    Let: lambda q, depth: _ma_bind(q.bound, q.body, depth),
    If: _ma_if,
    Not: lambda q, depth: compose(_ma(q.a, depth), Map(UnitTuple()), NotOp(),
                                  Map(_YES)),
    VarEq: _ma_var_eq,
}


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
    expects $root bound to the T-image of the input value. q is type
    checked first, so an ill-typed query fails with the type error."""
    ma.infer_type(q, t, LIST)
    return _xq(q, t, 1, 1)


def _xq(q: MAExpr, t: Type, x: int, k: int) -> XQExpr:
    """q on the tree bound to $x, of type t; k is the number of
    variables in scope."""
    rule = _XQ.get(type(q))
    if rule is None:
        raise ValueError_("cannot translate %r; desugar to the core first"
                          % (q,))
    return rule(q, t, x, k)


def _tag(tt: TupleType, label: str) -> str:
    """The wrapper tag of a field of a tuple of type tt."""
    return "a%d" % (tt.labels().index(label) + 1)


def _field_members(x: int, tag: str) -> XQExpr:
    """$x/<tag>/*: the single T-image stored under a tuple field."""
    return PathExpr(x, ((CHILD, tag), (CHILD, STAR)))


def _list_members(x: int, tag: str) -> XQExpr:
    """$x/<tag>/list/*: the members of the list stored under a field."""
    return PathExpr(x, ((CHILD, tag), (CHILD, "list"), (CHILD, STAR)))


def _tup(parts: list) -> XQExpr:
    """A <tup> over the field wrappers parts, in a left-leaning Seq."""
    return Elem("tup", reduce(Seq, parts))


def _known(t: Type, what: str) -> Type:
    """t, which the type check leaves unknown only for the members of
    the constant empty list, where the translation cannot place fields."""
    if isinstance(t, AnyType):
        raise ValueError_("expected a %s type, got %r" % (what, t))
    return t


def _xq_compose(q, t, x, k):
    tf = ma.infer_type(q.f, t, LIST)
    u, y = k + 1, k + 2
    return Let(Elem("list", _xq(q.f, t, x, k)),
               For(AxisStep(u, CHILD, STAR), _xq(q.g, tf, y, y)))


def _xq_tuple(q, t, x, k):
    if not q.fields:
        return EmptyElem("tup")
    return _tup([Elem("a%d" % (i + 1), _xq(f, t, x, k))
                 for i, (_, f) in enumerate(q.fields)])


def _xq_map(q, t, x, k):
    y = k + 1
    return Elem("list", For(AxisStep(x, CHILD, STAR),
                            _xq(q.f, _known(t, "list").elem, y, y)))


def _xq_pairwith(q, t, x, k):
    tag, y = _tag(t, q.label), k + 1
    tags = ["a%d" % (i + 1) for i in range(len(t.fields))]
    parts = [Elem(a, Var(y) if a == tag else _field_members(x, a))
             for a in tags]
    return Elem("list", For(_list_members(x, tag), _tup(parts)))


def _xq_select(q, t, x, k):
    c = q.cond
    if not (isinstance(c, PathEqPath) and c.mode == DEEP
            and len(c.p) == 1 and len(c.q) == 1):
        raise ValueError_("only single-field deep-equality selections "
                          "translate")
    tt = _known(_known(t, "list").elem, "tuple")
    y = k + 1
    return Elem("list", For(
        AxisStep(x, CHILD, STAR),
        If(QueryEq(_field_members(y, _tag(tt, c.p[0])),
                   _field_members(y, _tag(tt, c.q[0])), DEEP),
           Var(y))))


def _side(f: MAExpr, t: Type, x: int, k: int) -> XQExpr:
    """The members of one union operand: bind its (singleton) T-image
    and step to the children."""
    u, y = k + 1, k + 2
    return Let(Elem("list", _xq(f, t, x, k)),
               For(AxisStep(u, CHILD, STAR), AxisStep(y, CHILD, STAR)))


_XQ = {
    Id: lambda q, t, x, k: Var(x),
    Const: lambda q, t, x, k: EmptyElem(q.label),
    EmptyColl: lambda q, t, x, k: EmptyElem("list"),
    UnitTuple: lambda q, t, x, k: EmptyElem("tup"),
    Sng: lambda q, t, x, k: Elem("list", Var(x)),
    ma.Flatten: lambda q, t, x, k: Elem(
        "list", PathExpr(x, ((CHILD, "list"), (CHILD, STAR)))),
    Compose: _xq_compose,
    TupleCons: _xq_tuple,
    Proj: lambda q, t, x, k: _field_members(x, _tag(t, q.label)),
    Map: _xq_map,
    Union: lambda q, t, x, k: Elem("list", Seq(_side(q.f, t, x, k),
                                               _side(q.g, t, x, k))),
    UnionT: lambda q, t, x, k: Elem("list", Seq(_list_members(x, "a1"),
                                                _list_members(x, "a2"))),
    PairWith: _xq_pairwith,
    Select: _xq_select,
}


def check_thm63(q: MAExpr, v: Value, t: Type) -> bool:
    """T of the monad algebra result equals the (singleton) result of the
    translated tree query on T of the input, of type t."""
    lhs = encode_T(ma.eval_ma(q, v, LIST))
    r = eval_xq(ma_to_xq(q, t), (encode_T(v),))
    return len(r) == 1 and r[0] == lhs
