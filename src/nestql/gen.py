"""Seeded random generators for types, values, queries, and documents.

Every generator takes a random.Random instance so that property suites
and the command-line check commands are reproducible from a seed. The
query generators produce only expressions within the fragment that the
consuming check understands:

- gen_closed_query: closed atomic-equality core queries, suitable for
  cross-checking the direct evaluator against the path-set evaluator
  and the compiled logic program;
- gen_bool_query: closed Boolean queries with negation;
- gen_typed_query: well-typed core queries against a given input type;
- gen_pairlist_query: the same draw in the tuple/list fragment accepted
  by the tree-query translation, with single-field deep-equality
  selections in place of atomic equality tests;
- gen_tree_query: child-axis tree queries with variable equality only
  in condition position (atomic equality only between variables that
  are provably bound to leaf nodes); it draws and, or, not and some,
  never every or multi-step paths.

The printed draws for fixed seeds are pinned by tests: the property
suites and the benchmark depend on them.
"""

from __future__ import annotations

import random
from typing import List, Tuple as Tup

from .values import (
    ATOMIC, Atom, CollType, DEEP, DOM, DomType, LIST, SET, TupleType,
    Type, UNIT_T, Value, make_coll, make_tuple,
)
from . import ma
from .ma import (
    Compose, Const, EmptyColl, EqAtomic, Flatten, Id, MAExpr, Map, NotOp,
    PairWith, PathEqPath, Proj, Select, Sng, TupleCons, Union, UnionT,
    UnitTuple, compose,
)
from . import xmlxq as xq
from .xmlxq import (
    And, AxisStep, EmptyElem, Elem, For, If, Let, Not, Or, Seq, Some, Tree,
    Var, VarEq, XQExpr,
)


ATOMS = ("a", "b", "c", "d")
FIELDS = ("A", "B", "C")


# ---------------------------------------------------------------------------
# Types and values

def gen_type(rng: random.Random, depth: int, sem: str = SET,
             set_free: bool = False) -> Type:
    """A random type of nesting depth at most `depth` whose collections
    all have kind `sem`; with set_free, no collections at all."""
    kinds = ["dom"]
    if depth > 0:
        kinds.append("tuple")
        if not set_free:
            kinds.append("coll")
    k = rng.choice(kinds)
    if k == "dom":
        return DOM
    if k == "coll":
        return CollType(sem, gen_type(rng, depth - 1, sem, set_free))
    n = rng.randint(1, min(3, len(FIELDS)))
    return TupleType(tuple(
        (FIELDS[i], gen_type(rng, depth - 1, sem, set_free))
        for i in range(n)))


def gen_value(rng: random.Random, t: Type, fanout: int = 2) -> Value:
    if isinstance(t, DomType):
        return Atom(rng.choice(ATOMS))
    if isinstance(t, TupleType):
        return make_tuple((l, gen_value(rng, ft, fanout))
                          for l, ft in t.fields)
    assert isinstance(t, CollType)
    n = rng.randint(0, fanout)
    return make_coll(t.kind, (gen_value(rng, t.elem, fanout)
                              for _ in range(n)))


# ---------------------------------------------------------------------------
# Typed core queries

def gen_typed_query(rng: random.Random, t: Type, depth: int,
                    sem: str = SET) -> MAExpr:
    """A random atomic-equality core query that is well typed on input
    type t under the given collection semantics."""
    q = _typed(rng, t, depth, sem)
    ma.infer_type(q, t, sem)
    return q


def _atom_paths(t: Type, prefix=()) -> List[Tup[str, ...]]:
    """Tuple paths of t leading to atoms."""
    if isinstance(t, DomType):
        return [prefix]
    if isinstance(t, TupleType):
        out = []
        for l, ft in t.fields:
            out.extend(_atom_paths(ft, prefix + (l,)))
        return out
    return []


def _typed(rng: random.Random, t: Type, depth: int, sem: str,
           select: bool = False) -> MAExpr:
    """The shared draw of gen_typed_query and gen_pairlist_query; with
    select, atomic-equality tests give way to single-field deep-equality
    selections, the fragment the tree translation accepts."""
    opts = ["id", "const", "unit", "sng", "empty"]
    if depth > 0:
        opts += ["compose", "compose", "tuple"]
        if isinstance(t, TupleType):
            if t.fields:
                opts += ["proj", "proj"]
            if any(isinstance(ft, CollType) for _, ft in t.fields):
                opts += ["pairwith", "pairwith"]
            if (t.labels() == ("1", "2")
                    and t.fields[0][1] == t.fields[1][1]
                    and isinstance(t.fields[0][1], CollType)):
                opts.append("uniont")
        if not select and isinstance(t, TupleType) and _atom_paths(t):
            opts.append("eqatom")
        if isinstance(t, CollType):
            opts += ["map", "map", "union"]
            if isinstance(t.elem, CollType):
                opts += ["flatten", "flatten"]
            if select and isinstance(t.elem, TupleType) and t.elem.fields:
                opts.append("select")
    op = rng.choice(opts)

    def sub(t: Type) -> MAExpr:
        return _typed(rng, t, depth - 1, sem, select)

    if op == "id":
        return Id()
    if op == "const":
        return Const(rng.choice(ATOMS))
    if op == "unit":
        return UnitTuple()
    if op == "empty":
        return EmptyColl()
    if op == "sng":
        return Compose(sub(t), Sng()) if depth > 0 else Sng()
    if op == "compose":
        f = sub(t)
        return Compose(f, sub(ma.infer_type(f, t, sem)))
    if op == "tuple":
        n = rng.randint(0, 2)
        return TupleCons(tuple((str(i + 1), sub(t)) for i in range(n)))
    if op == "proj":
        return Proj(rng.choice(t.labels()))
    if op == "pairwith":
        colls = [l for l, ft in t.fields if isinstance(ft, CollType)]
        return PairWith(rng.choice(colls))
    if op == "uniont":
        return UnionT()
    if op == "eqatom":
        paths = _atom_paths(t)
        return EqAtomic(rng.choice(paths), rng.choice(paths))
    if op == "map":
        return Map(sub(t.elem))
    if op == "union":
        f = sub(t)
        if isinstance(ma.infer_type(f, t, sem), CollType):
            g = EmptyColl() if rng.random() < 0.5 else f
            return Union(f, g)
        return Union(Compose(f, Sng()), EmptyColl())
    if op == "flatten":
        return Flatten()
    assert op == "select"
    fields = t.elem.fields
    a, ta = rng.choice(fields)
    # compare only fields whose types join, or the selection is ill-typed
    b = rng.choice([l for l, tb in fields if _joinable(ta, tb)])
    return Select(PathEqPath((a,), (b,), DEEP))


def gen_closed_query(rng: random.Random, depth: int = 4,
                     sem: str = LIST) -> MAExpr:
    """A closed core query: constants in, a value out, input ignored
    (formally typed against the unit-tuple input)."""
    base = rng.choice([
        Compose(Const(rng.choice(ATOMS)), Sng()),
        Union(Compose(Const("a"), Sng()), Compose(Const("b"), Sng())),
        Compose(TupleCons((("1", Const("a")), ("2", Const("b")))), Sng()),
    ])
    tb = ma.infer_type(base, UNIT_T, sem)
    return Compose(base, _typed(rng, tb, depth, sem))


def gen_bool_query(rng: random.Random, depth: int = 3,
                   sem: str = LIST) -> MAExpr:
    """A closed Boolean query using negation."""
    if depth <= 0 or rng.random() < 0.3:
        q = gen_closed_query(rng, 2, sem)
        if not isinstance(ma.infer_type(q, UNIT_T, sem), CollType):
            q = Compose(q, Sng())
        return compose(q, Map(UnitTuple()), NotOp())
    kind = rng.choice(["not", "union", "uniont"])
    if kind == "not":
        return compose(gen_bool_query(rng, depth - 1, sem), NotOp())
    a = gen_bool_query(rng, depth - 1, sem)
    b = gen_bool_query(rng, depth - 1, sem)
    if kind == "union":
        return Union(a, b)
    return ma.union_pair(a, b)


# ---------------------------------------------------------------------------
# Documents and tree queries

INNER_LABELS = ("a", "b", "c")
LEAF_LABEL = "t"


def gen_doc(rng: random.Random, max_nodes: int = 20) -> Tree:
    """A random document; nodes labeled t never have children."""
    budget = [rng.randint(1, max_nodes)]

    def node(depth: int) -> Tree:
        budget[0] -= 1
        if depth >= 3 or budget[0] <= 0 or rng.random() < 0.3:
            return Tree(rng.choice(INNER_LABELS + (LEAF_LABEL,)))
        kids = []
        while budget[0] > 0 and rng.random() < 0.6:
            kids.append(node(depth + 1))
        if not kids:
            return Tree(rng.choice(INNER_LABELS + (LEAF_LABEL,)))
        return Tree(rng.choice(INNER_LABELS), tuple(kids))

    kids = []
    while budget[0] > 0:
        kids.append(node(1))
    return Tree("r", tuple(kids))


def gen_tree_query(rng: random.Random, depth: int = 5) -> XQExpr:
    """A child-axis query against $root. Variable equality appears only
    in condition position; atomic variable equality only between
    variables bound to leaf-labeled nodes."""
    # env: for each bound level, whether it is surely a leaf
    return _titem(rng, depth, [False])


def _tstep(rng: random.Random, env: List[bool],
           force_leaf: bool = False) -> Tup[XQExpr, bool]:
    """An axis step; returns (step, binds-a-leaf)."""
    var = rng.randrange(1, len(env) + 1)
    if force_leaf or rng.random() < 0.3:
        return AxisStep(var, xq.CHILD, LEAF_LABEL), True
    test = rng.choice(INNER_LABELS + (xq.STAR,))
    return AxisStep(var, xq.CHILD, test), False


def _titem(rng: random.Random, d: int, env: List[bool]) -> XQExpr:
    opts = ["leaf", "step", "var"]
    if d > 0:
        opts += ["elem", "seq", "for", "for", "let", "if", "if", "some"]
    op = rng.choice(opts)
    if op == "leaf":
        return EmptyElem(rng.choice(INNER_LABELS))
    if op == "step":
        return _tstep(rng, env)[0]
    if op == "var":
        return Var(rng.randrange(1, len(env) + 1))
    if op == "elem":
        return Elem(rng.choice(INNER_LABELS), _titem(rng, d - 1, env))
    if op == "seq":
        return Seq(_titem(rng, d - 1, env), _titem(rng, d - 1, env))
    if op == "for":
        src, leaf = _tstep(rng, env)
        return For(src, _titem(rng, d - 1, env + [leaf]))
    if op == "let":
        bound = Elem(rng.choice(INNER_LABELS), _titem(rng, d - 1, env)) \
            if rng.random() < 0.5 else EmptyElem(rng.choice(INNER_LABELS))
        return Let(bound, _titem(rng, d - 1, env + [False]))
    if op == "if":
        return If(_tcond(rng, d - 1, env), _titem(rng, d - 1, env))
    assert op == "some"
    src, leaf = _tstep(rng, env)
    return Some(src, _titem(rng, d - 1, env + [leaf]))


def _tcond(rng: random.Random, d: int, env: List[bool]) -> XQExpr:
    opts = ["step", "eq"]
    if d > 0:
        opts += ["and", "or", "not", "some"]
    op = rng.choice(opts)
    if op == "step":
        return _tstep(rng, env)[0]
    if op == "eq":
        leaves = [i + 1 for i, is_leaf in enumerate(env) if is_leaf]
        if len(leaves) >= 1 and rng.random() < 0.5:
            return VarEq(rng.choice(leaves), rng.choice(leaves), ATOMIC)
        n = len(env)
        return VarEq(rng.randrange(1, n + 1), rng.randrange(1, n + 1),
                     DEEP)
    if op == "and":
        return And(_tcond(rng, d - 1, env), _tcond(rng, d - 1, env))
    if op == "or":
        return Or(_tcond(rng, d - 1, env), _tcond(rng, d - 1, env))
    if op == "not":
        return Not(_tcond(rng, d - 1, env))
    assert op == "some"
    src, leaf = _tstep(rng, env)
    return Some(src, _tcond(rng, d - 1, env + [leaf]))


# ---------------------------------------------------------------------------
# The tuple/list fragment of the value-to-tree translation

def gen_pairlist_type(rng: random.Random, depth: int) -> Type:
    return gen_type(rng, depth, LIST)


def gen_pairlist_query(rng: random.Random, t: Type, depth: int) -> MAExpr:
    """A query in the fragment covered by the tree translation: core
    tuple/list operators plus single-field deep-equality selections."""
    q = _typed(rng, t, depth, LIST, select=True)
    ma.infer_type(q, t, LIST)
    return q


def _joinable(a: Type, b: Type) -> bool:
    try:
        ma.type_join(a, b, "select")
    except ma.MATypeError:
        return False
    return True


# ---------------------------------------------------------------------------
# Values for the flat-relation reassembly

def gen_flat_type(rng: random.Random, depth: int) -> Type:
    """A type in the flat-encodable family: atoms, binary tuples, and
    sets (kept nonempty by gen_flat_value)."""
    kinds = ["dom"]
    if depth > 0:
        kinds += ["pair", "set"]
    k = rng.choice(kinds)
    if k == "dom":
        return DOM
    if k == "pair":
        return TupleType((("1", gen_flat_type(rng, depth - 1)),
                          ("2", gen_flat_type(rng, depth - 1))))
    return CollType(SET, gen_flat_type(rng, depth - 1))


def gen_flat_value(rng: random.Random, t: Type, fanout: int = 2) -> Value:
    """A value of a flat-encodable type; sets are nonempty, as an empty
    set leaves no membership facts to recover its node from."""
    if isinstance(t, DomType):
        return Atom(rng.choice(ATOMS))
    if isinstance(t, TupleType):
        return make_tuple((l, gen_flat_value(rng, ft, fanout))
                          for l, ft in t.fields)
    assert isinstance(t, CollType)
    n = rng.randint(1, max(1, fanout))
    return make_coll(SET, (gen_flat_value(rng, t.elem, fanout)
                           for _ in range(n)))
