"""Concrete syntax for monad algebra expressions.

Compositions are written left to right with ";". Operator spellings:

    id  sng  flatten  unit  empty  not  true  monus  unique  diff  cap
    union            (bare: union of the fields of a <1: _, 2: _> tuple)
    'a'              (constant atom)
    map(f)  flatmap(f)  cart(f, g)  union(f, g)
    pi[p]  pairwith[A]  tup[A = f, B = g]
    eqatom[p, q]  eqmon[p, q]  eq[p, q]  subseteq[p, q]  in[p, q]
    nest[C = (B1, B2)]
    select[cond]

where p, q are dotted label paths. Conditions combine comparisons with
"&&", "||", "!", "<=>" and parentheses; comparisons are "p =atom q",
"p =mon q", "p = q" (deep), the same against a constant 'a', and
membership "p in {a, b}".
"""

from __future__ import annotations

from .values import (
    ValueError_, _Scanner, print_atom, read_whole, ATOMIC, MON, DEEP,
)
from .ma import (
    CAnd, CIff, CNot, COr, CartProd, Compose, Const, Diff, EmptyColl,
    EqAtomic, EqDeep, EqMon, FlatMap, Flatten, Id, Intersect, MAExpr, Map,
    MemberOf, Monus, Nest, NotOp, PairWith, Path, PathEqConst, PathEqPath,
    PathInSet, Proj, Proj_chain, SelCond, Select, Sng, SubsetEq, TrueOp,
    TupleCons, Union, UnionT, UnitTuple, Unique,
)

# The spelling of each operator family, read forwards by the printer and
# inverted by the parser.
_WORDS = {
    Id: "id", Sng: "sng", Flatten: "flatten", UnitTuple: "unit",
    EmptyColl: "empty", NotOp: "not", TrueOp: "true", Monus: "monus",
    Unique: "unique", Diff: "diff", Intersect: "cap", UnionT: "union",
}
_PATH_WORDS = {EqAtomic: "eqatom", EqMon: "eqmon", EqDeep: "eq",
               SubsetEq: "subseteq", MemberOf: "in"}
# "=" last: it is a prefix of the other two
_MODES = {ATOMIC: "=atom", MON: "=mon", DEEP: "="}

_BY_WORD = {w: node for node, w in _WORDS.items()}
_BY_PATH_WORD = {w: node for node, w in _PATH_WORDS.items()}


def parse_ma(text: str) -> MAExpr:
    return read_whole(text, _parse_seq)


def _parse_seq(sc: _Scanner) -> MAExpr:
    q = _parse_one(sc)
    while sc.try_tok(";"):
        q = Compose(q, _parse_one(sc))
    return q


def _parse_one(sc: _Scanner) -> MAExpr:
    sc.skip_ws()
    if sc.try_tok("("):
        q = _parse_seq(sc)
        sc.expect(")")
        return q
    if sc.peek() == "'":
        sc.expect("'")
        label = sc.atom()
        sc.expect("'")
        return Const(label)
    word = sc.atom()
    if word in ("map", "flatmap"):
        sc.expect("(")
        f = _parse_seq(sc)
        sc.expect(")")
        return Map(f) if word == "map" else FlatMap(f)
    if word in ("cart", "union") and sc.try_tok("("):
        f = _parse_seq(sc)
        sc.expect(",")
        g = _parse_seq(sc)
        sc.expect(")")
        return CartProd(f, g) if word == "cart" else Union(f, g)
    if word == "pi":
        return Proj_chain(_bracket_path(sc))
    if word == "pairwith":
        p = _bracket_path(sc)
        if len(p) != 1:
            sc.error("pairwith takes a single label")
        return PairWith(p[0])
    if word == "tup":
        sc.expect("[")
        fields = []
        if not sc.try_tok("]"):
            while True:
                label = sc.atom()
                sc.expect("=")
                fields.append((label, _parse_seq(sc)))
                if sc.try_tok("]"):
                    break
                sc.expect(",")
        return TupleCons(tuple(fields)) if fields else UnitTuple()
    if word in _BY_PATH_WORD:
        sc.expect("[")
        p = _parse_path(sc)
        sc.expect(",")
        q = _parse_path(sc)
        sc.expect("]")
        return _BY_PATH_WORD[word](p, q)
    if word == "nest":
        sc.expect("[")
        label = sc.atom()
        sc.expect("=")
        sc.expect("(")
        grouped = [sc.atom()]
        while sc.try_tok(","):
            grouped.append(sc.atom())
        sc.expect(")")
        sc.expect("]")
        return Nest(label, tuple(grouped))
    if word == "select":
        sc.expect("[")
        cond = _parse_cond(sc)
        sc.expect("]")
        return Select(cond)
    if word in _BY_WORD:
        return _BY_WORD[word]()
    sc.error("unknown operator %r" % word)


def _parse_path(sc: _Scanner) -> Path:
    parts = [sc.atom()]
    while sc.try_tok("."):
        parts.append(sc.atom())
    return tuple(parts)


def _bracket_path(sc: _Scanner) -> Path:
    sc.expect("[")
    p = _parse_path(sc)
    sc.expect("]")
    return p


# condition precedence: ! > && > || > <=>

def _parse_cond(sc: _Scanner) -> SelCond:
    c = _parse_or(sc)
    while sc.try_tok("<=>"):
        c = CIff(c, _parse_or(sc))
    return c


def _parse_or(sc: _Scanner) -> SelCond:
    c = _parse_and(sc)
    while sc.try_tok("||"):
        c = COr(c, _parse_and(sc))
    return c


def _parse_and(sc: _Scanner) -> SelCond:
    c = _parse_not(sc)
    while sc.try_tok("&&"):
        c = CAnd(c, _parse_not(sc))
    return c


def _parse_not(sc: _Scanner) -> SelCond:
    if sc.try_tok("!"):
        return CNot(_parse_not(sc))
    if sc.try_tok("("):
        c = _parse_cond(sc)
        sc.expect(")")
        return c
    return _parse_cmp(sc)


def _parse_cmp(sc: _Scanner) -> SelCond:
    p = _parse_path(sc)
    sc.skip_ws()
    if sc.try_tok("in"):
        sc.expect("{")
        labels = [sc.atom()]
        while sc.try_tok(","):
            labels.append(sc.atom())
        sc.expect("}")
        return PathInSet(p, tuple(labels))
    for mode, op in _MODES.items():
        if sc.try_tok(op):
            break
    else:
        sc.error("expected comparison operator")
    sc.skip_ws()
    if sc.peek() == "'":
        sc.expect("'")
        label = sc.atom()
        sc.expect("'")
        return PathEqConst(p, label, mode)
    return PathEqPath(p, _parse_path(sc), mode)


# ---------------------------------------------------------------------------
# Printing

def print_ma(q: MAExpr) -> str:
    return _pr(q, top=True)


def _pr(q: MAExpr, top: bool = False) -> str:
    t = type(q)
    if t in _WORDS:
        return _WORDS[t]
    if t in _PATH_WORDS:
        return "%s[%s, %s]" % (_PATH_WORDS[t], _pp(q.pa), _pp(q.pb))
    if t is Compose:
        s = "%s ; %s" % (_pr(q.f, top=True), _pr(q.g, top=True))
        return s if top else "(%s)" % s
    if t is Const:
        return "'%s'" % print_atom(q.label)
    if t is Map:
        return "map(%s)" % _pr(q.f, top=True)
    if t is FlatMap:
        return "flatmap(%s)" % _pr(q.f, top=True)
    if t is CartProd:
        return "cart(%s, %s)" % (_pr(q.f, top=True), _pr(q.g, top=True))
    if t is Union:
        return "union(%s, %s)" % (_pr(q.f, top=True), _pr(q.g, top=True))
    if t is PairWith:
        return "pairwith[%s]" % print_atom(q.label)
    if t is Proj:
        return "pi[%s]" % print_atom(q.label)
    if t is TupleCons:
        if not q.fields:
            return "unit"  # tup[] constructs the unit tuple
        return "tup[%s]" % ", ".join("%s = %s" % (print_atom(l),
                                                  _pr(f, top=True))
                                     for l, f in q.fields)
    if t is Nest:
        return "nest[%s = (%s)]" % (print_atom(q.label),
                                    ", ".join(map(print_atom, q.grouped)))
    if t is Select:
        return "select[%s]" % _pc(q.cond)
    raise ValueError_("cannot print %r" % (q,))


def _pp(p: Path) -> str:
    return ".".join(map(print_atom, p))


def _pc(c: SelCond, parent: int = 0) -> str:
    # parent: 0 iff-level, 1 or-level, 2 and-level, 3 atom-level
    t = type(c)
    if t is CIff:
        s = "%s <=> %s" % (_pc(c.a, 1), _pc(c.b, 1))
        return s if parent < 1 else "(%s)" % s
    if t is COr:
        s = "%s || %s" % (_pc(c.a, 1), _pc(c.b, 2))
        return s if parent < 2 else "(%s)" % s
    if t is CAnd:
        s = "%s && %s" % (_pc(c.a, 2), _pc(c.b, 3))
        return s if parent < 3 else "(%s)" % s
    if t is CNot:
        return "!%s" % _pc(c.a, 3)
    if t is PathEqPath:
        return "%s %s %s" % (_pp(c.p), _MODES[c.mode], _pp(c.q))
    if t is PathEqConst:
        return "%s %s '%s'" % (_pp(c.p), _MODES[c.mode], print_atom(c.label))
    if t is PathInSet:
        return "%s in {%s}" % (_pp(c.p), ", ".join(map(print_atom, c.labels)))
    raise ValueError_("cannot print condition %r" % (c,))
