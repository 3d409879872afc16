"""Node-labeled unranked ordered trees and a small functional query
language over them.

Trees carry a label and an ordered children sequence; no attributes or
text nodes. The query language has element constructors, sequence
concatenation, variables, child/descendant axis steps, for, let,
conditionals, equality tests and negation. The derived forms (and,
or, some, every, multi-step paths) have one meaning: the core query
:func:`xq_desugar` rewrites them to. The evaluator and the translation
to the algebra both run on that core.

Variables are de Bruijn levels: the variable bound by the k-th
enclosing binder (counting the pre-bound document variable $root as
level 1) is Var(k), printed $root or $x<k>. Environments are tuples of
trees, one per level.

Conditions are ordinary queries; a condition holds iff its result
sequence is nonempty. Equality tests and negations evaluate to the
one-element sequence [<yes/>] when they hold and to [] otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple as Tup

from .values import ATOMIC, DEEP, ValueError_, _Scanner


CHILD = "child"
DESCENDANT = "descendant"
STAR = "*"


@dataclass(frozen=True)
class Tree:
    label: str
    children: Tup["Tree", ...] = ()


def tree_nodes(t: Tree) -> int:
    return 1 + sum(tree_nodes(c) for c in t.children)


# ---------------------------------------------------------------------------
# XML subset

def print_xml(t: Tree) -> str:
    if not t.children:
        return "<%s/>" % t.label
    return "<%s>%s</%s>" % (t.label,
                            "".join(print_xml(c) for c in t.children),
                            t.label)


def parse_xml(text: str) -> Tree:
    sc = _Scanner(text)
    t = _parse_tree(sc)
    if not sc.at_end():
        sc.error("trailing input after document")
    return t


def _parse_tree(sc: _Scanner) -> Tree:
    sc.expect("<")
    name = sc.atom()
    if sc.try_tok("/"):
        sc.expect(">")
        return Tree(name)
    sc.expect(">")
    children = []
    while True:
        sc.skip_ws()
        if sc.peek(2) == "</":
            break
        children.append(_parse_tree(sc))
    sc.expect("</")
    close = sc.atom()
    if close != name:
        sc.error("closing tag %s does not match %s" % (close, name))
    sc.expect(">")
    return Tree(name, tuple(children))


# ---------------------------------------------------------------------------
# Query AST

@dataclass(frozen=True)
class XQExpr:
    pass


@dataclass(frozen=True)
class EmptyElem(XQExpr):
    label: str


@dataclass(frozen=True)
class Elem(XQExpr):
    label: str
    body: XQExpr


@dataclass(frozen=True)
class EmptySeq(XQExpr):
    """The empty sequence; used as the body of <a></a> written <a>{}</a>
    does not occur, but the constructor body may be empty."""


@dataclass(frozen=True)
class Seq(XQExpr):
    a: XQExpr
    b: XQExpr


@dataclass(frozen=True)
class Var(XQExpr):
    i: int


@dataclass(frozen=True)
class AxisStep(XQExpr):
    var: int
    axis: str
    test: str  # a tag name or STAR


@dataclass(frozen=True)
class For(XQExpr):
    source: XQExpr
    body: XQExpr


@dataclass(frozen=True)
class Let(XQExpr):
    bound: XQExpr
    body: XQExpr


@dataclass(frozen=True)
class If(XQExpr):
    cond: XQExpr
    then: XQExpr


@dataclass(frozen=True)
class VarEq(XQExpr):
    i: int
    j: int
    mode: str = DEEP


@dataclass(frozen=True)
class QueryEq(XQExpr):
    """Pointwise deep equality of two result sequences; an extension of
    the core grammar needed to express translated selections (negation
    is the core form Not)."""
    a: XQExpr
    b: XQExpr
    mode: str = DEEP


@dataclass(frozen=True)
class Not(XQExpr):
    a: XQExpr


# derived forms, removed by xq_desugar

@dataclass(frozen=True)
class And(XQExpr):
    a: XQExpr
    b: XQExpr


@dataclass(frozen=True)
class Or(XQExpr):
    a: XQExpr
    b: XQExpr


@dataclass(frozen=True)
class Some(XQExpr):
    source: XQExpr
    body: XQExpr


@dataclass(frozen=True)
class Every(XQExpr):
    source: XQExpr
    body: XQExpr


@dataclass(frozen=True)
class PathExpr(XQExpr):
    """A multi-step path $x/s1/s2/...; one step is just an AxisStep."""
    var: int
    steps: Tup[Tup[str, str], ...]  # (axis, test), at least two


def is_singleton_form(q: XQExpr) -> bool:
    """Forms that statically produce a one-element sequence; only these
    may be bound by let."""
    if isinstance(q, (EmptyElem, Elem, Var)):
        return True
    if isinstance(q, Let):
        return is_singleton_form(q.body)
    return False


def check_lets(q: XQExpr):
    """Enforce the let-singleton restriction on a constructed AST."""
    if isinstance(q, Let) and not is_singleton_form(q.bound):
        raise ValueError_("let binds a non-singleton form: %s"
                          % print_xq(q.bound))
    for f in getattr(q, "__dataclass_fields__", {}):
        v = getattr(q, f)
        if isinstance(v, XQExpr):
            check_lets(v)


# ---------------------------------------------------------------------------
# Desugaring

def xq_desugar(q: XQExpr, depth: int = 1) -> XQExpr:
    """Remove the derived forms; depth is the number of variables in
    scope (binders introduced here bind level depth + 1). This is the
    only definition of the derived forms: "a and b" is "if (a) then b",
    "a or b" is "a b", "some" is "for", "every $x in s satisfies c" is
    "not(some $x in s satisfies not(c))", and a multi-step path is a
    chain of for loops over single axis steps."""
    if isinstance(q, And):
        return If(xq_desugar(q.a, depth), xq_desugar(q.b, depth))
    if isinstance(q, Or):
        return Seq(xq_desugar(q.a, depth), xq_desugar(q.b, depth))
    if isinstance(q, Not):
        return Not(xq_desugar(q.a, depth))
    if isinstance(q, Some):
        return For(xq_desugar(q.source, depth),
                   xq_desugar(q.body, depth + 1))
    if isinstance(q, Every):
        return xq_desugar(Not(Some(q.source, Not(q.body))), depth)
    if isinstance(q, PathExpr):
        return _expand_path(q.var, q.steps, depth)
    if isinstance(q, Seq):
        return Seq(xq_desugar(q.a, depth), xq_desugar(q.b, depth))
    if isinstance(q, Elem):
        return Elem(q.label, xq_desugar(q.body, depth))
    if isinstance(q, For):
        return For(xq_desugar(q.source, depth),
                   xq_desugar(q.body, depth + 1))
    if isinstance(q, Let):
        return Let(xq_desugar(q.bound, depth),
                   xq_desugar(q.body, depth + 1))
    if isinstance(q, If):
        return If(xq_desugar(q.cond, depth), xq_desugar(q.then, depth))
    if isinstance(q, QueryEq):
        return QueryEq(xq_desugar(q.a, depth), xq_desugar(q.b, depth),
                       q.mode)
    return q


def _expand_path(var: int, steps, depth: int) -> XQExpr:
    axis, test = steps[0]
    step = AxisStep(var, axis, test)
    if len(steps) == 1:
        return step
    return For(step, _expand_path(depth + 1, steps[1:], depth + 1))


# ---------------------------------------------------------------------------
# Evaluation

Env = Tup[Tree, ...]


def eval_xq(q: XQExpr, env: Env) -> list:
    """Evaluate q in env; the derived forms mean what xq_desugar makes
    of them."""
    return _eval(xq_desugar(q, len(env)), env)


def _eval(q: XQExpr, env: Env) -> list:
    if isinstance(q, EmptyElem):
        return [Tree(q.label)]
    if isinstance(q, Elem):
        return [Tree(q.label, tuple(_eval(q.body, env)))]
    if isinstance(q, EmptySeq):
        return []
    if isinstance(q, Seq):
        return _eval(q.a, env) + _eval(q.b, env)
    if isinstance(q, Var):
        return [_lookup(q.i, env)]
    if isinstance(q, AxisStep):
        t = _lookup(q.var, env)
        if q.axis == CHILD:
            nodes = list(t.children)
        else:
            nodes = _descendants(t)
        if q.test != STAR:
            nodes = [n for n in nodes if n.label == q.test]
        return nodes
    if isinstance(q, For):
        out = []
        for t in _eval(q.source, env):
            out.extend(_eval(q.body, env + (t,)))
        return out
    if isinstance(q, Let):
        r = _eval(q.bound, env)
        if len(r) != 1:
            raise ValueError_("let-bound expression produced %d trees"
                              % len(r))
        return _eval(q.body, env + (r[0],))
    if isinstance(q, If):
        if _eval(q.cond, env):
            return _eval(q.then, env)
        return []
    if isinstance(q, VarEq):
        a, b = _lookup(q.i, env), _lookup(q.j, env)
        return _yes(_tree_eq(a, b, q.mode))
    if isinstance(q, QueryEq):
        ra, rb = _eval(q.a, env), _eval(q.b, env)
        ok = (len(ra) == len(rb)
              and all(_tree_eq(x, y, q.mode) for x, y in zip(ra, rb)))
        return _yes(ok)
    if isinstance(q, Not):
        return _yes(not _eval(q.a, env))
    raise ValueError_("cannot evaluate %r" % (q,))


def _yes(ok: bool) -> list:
    return [Tree("yes")] if ok else []


def _lookup(i: int, env: Env) -> Tree:
    if not 1 <= i <= len(env):
        raise ValueError_("unbound variable $x%d" % i)
    return env[i - 1]


def _descendants(t: Tree) -> list:
    out = []
    for c in t.children:
        out.append(c)
        out.extend(_descendants(c))
    return out


def _tree_eq(a: Tree, b: Tree, mode: str) -> bool:
    if mode == ATOMIC:
        for t in (a, b):
            if t.children:
                raise ValueError_("atomic equality on non-leaf <%s>"
                                  % t.label)
        return a.label == b.label
    return a == b


def decide_xq(q: XQExpr, doc: Tree) -> bool:
    """Boolean reading of a query: the result must be a single tree, and
    the query is true iff that tree has children (its serialization is
    longer than one open/close tag pair)."""
    r = eval_xq(q, (doc,))
    if len(r) != 1:
        raise ValueError_("decision query produced %d trees, need exactly 1"
                          % len(r))
    return 2 * tree_nodes(r[0]) > 2


# ---------------------------------------------------------------------------
# Concrete syntax

_KEYWORDS = {"for", "let", "if", "then", "return", "in", "satisfies",
             "some", "every", "and", "or", "not", "eq"}


def parse_xq(text: str) -> XQExpr:
    """Parse a query; $root (level 1) is pre-bound to the document."""
    p = _XQParser(text)
    q = p.parse_seq({"root": 1}, 1)
    if not p.sc.at_end():
        p.sc.error("trailing input")
    check_lets(q)
    return q


class _XQParser:
    def __init__(self, text: str):
        self.sc = _Scanner(text)

    def parse_seq(self, scope: dict, depth: int) -> XQExpr:
        items = [self.parse_item(scope, depth)]
        while self._starts_item():
            items.append(self.parse_item(scope, depth))
        q = items[-1]
        for it in reversed(items[:-1]):
            q = Seq(it, q)
        return q

    def _starts_item(self) -> bool:
        sc = self.sc
        sc.skip_ws()
        if sc.peek() in ("<", "$", "{", "("):
            return sc.peek(2) != "</"
        for kw in ("for", "let", "if", "some", "every"):
            if sc.text.startswith(kw, sc.pos):
                end = sc.pos + len(kw)
                if end >= len(sc.text) or not sc.text[end].isalnum():
                    return True
        return False

    def parse_item(self, scope: dict, depth: int) -> XQExpr:
        sc = self.sc
        sc.skip_ws()
        if sc.try_tok("{"):
            if sc.try_tok("}"):
                return EmptySeq()
            q = self.parse_seq(scope, depth)
            sc.expect("}")
            return q
        if sc.try_tok("("):
            q = self.parse_cond(scope, depth)
            sc.expect(")")
            return q
        if sc.peek() == "<":
            return self._constructor(scope, depth)
        if sc.peek() == "$":
            return self._var_or_path(scope, depth)
        word = sc.atom()
        if word in ("for", "some", "every"):
            sc.expect("$")
            name = sc.atom()
            sc.expect("in")
            src = self.parse_seq(scope, depth)
            inner = dict(scope)
            inner[name] = depth + 1
            if word == "for":
                sc.expect("return")
                return For(src, self.parse_seq(inner, depth + 1))
            sc.expect("satisfies")
            body = self.parse_cond(inner, depth + 1)
            cls = Some if word == "some" else Every
            return cls(src, body)
        if word == "let":
            sc.expect("$")
            name = sc.atom()
            sc.expect(":=")
            bound = self.parse_seq(scope, depth)
            if not is_singleton_form(bound):
                sc.error("let binds a non-singleton form")
            inner = dict(scope)
            inner[name] = depth + 1
            sc.expect("return")
            return Let(bound, self.parse_seq(inner, depth + 1))
        if word == "if":
            sc.expect("(")
            cond = self.parse_cond(scope, depth)
            sc.expect(")")
            sc.expect("then")
            return If(cond, self.parse_seq(scope, depth))
        sc.error("unexpected %r" % word)

    def _constructor(self, scope: dict, depth: int) -> XQExpr:
        sc = self.sc
        sc.expect("<")
        name = sc.atom()
        if name in _KEYWORDS:
            sc.error("tag name %r is a keyword" % name)
        if sc.try_tok("/"):
            sc.expect(">")
            return EmptyElem(name)
        sc.expect(">")
        items = []
        while True:
            sc.skip_ws()
            if sc.peek(2) == "</":
                break
            items.append(self.parse_item(scope, depth))
        sc.expect("</")
        close = sc.atom()
        if close != name:
            sc.error("closing tag %s does not match %s" % (close, name))
        sc.expect(">")
        if not items:
            return Elem(name, EmptySeq())
        body = items[-1]
        for it in reversed(items[:-1]):
            body = Seq(it, body)
        return Elem(name, body)

    def _var_or_path(self, scope: dict, depth: int) -> XQExpr:
        sc = self.sc
        sc.expect("$")
        name = sc.atom()
        if name not in scope:
            sc.error("unbound variable $%s" % name)
        var = scope[name]
        steps = []
        while sc.try_tok("/"):
            steps.append(self._step())
        if not steps:
            return Var(var)
        if len(steps) == 1:
            return AxisStep(var, steps[0][0], steps[0][1])
        return PathExpr(var, tuple(steps))

    def _step(self):
        sc = self.sc
        sc.skip_ws()
        if sc.try_tok("*"):
            return (CHILD, STAR)
        word = sc.atom()
        if sc.try_tok("::"):
            if word not in (CHILD, DESCENDANT):
                sc.error("unsupported axis %r (only child and descendant)"
                         % word)
            if sc.try_tok("*"):
                return (word, STAR)
            return (word, sc.atom())
        return (CHILD, word)

    # conditions: or > and > not > comparison

    def parse_cond(self, scope: dict, depth: int) -> XQExpr:
        c = self._cond_and(scope, depth)
        while self.sc.try_tok("or"):
            c = Or(c, self._cond_and(scope, depth))
        return c

    def _cond_and(self, scope: dict, depth: int) -> XQExpr:
        c = self._cond_not(scope, depth)
        while self.sc.try_tok("and"):
            c = And(c, self._cond_not(scope, depth))
        return c

    def _cond_not(self, scope: dict, depth: int) -> XQExpr:
        sc = self.sc
        sc.skip_ws()
        if sc.text.startswith("not", sc.pos):
            save = sc.pos
            sc.pos += 3
            if sc.try_tok("("):
                c = self.parse_cond(scope, depth)
                sc.expect(")")
                return Not(c)
            sc.pos = save
        if sc.try_tok("("):
            c = self.parse_cond(scope, depth)
            sc.expect(")")
            return c
        return self._cond_cmp(scope, depth)

    def _cond_cmp(self, scope: dict, depth: int) -> XQExpr:
        sc = self.sc
        items = [self.parse_item(scope, depth)]
        while self._starts_item():
            items.append(self.parse_item(scope, depth))
        a = items[-1]
        for it in reversed(items[:-1]):
            a = Seq(it, a)
        sc.skip_ws()
        if sc.try_tok("eq"):
            b = self.parse_item(scope, depth)
            if not (isinstance(a, Var) and isinstance(b, Var)):
                sc.error("eq compares variables")
            return VarEq(a.i, b.i, ATOMIC)
        if sc.peek() == "=" and sc.peek(2) != "==":
            sc.expect("=")
            b = self.parse_item(scope, depth)
            if isinstance(a, Var) and isinstance(b, Var):
                return VarEq(a.i, b.i, DEEP)
            return QueryEq(a, b, DEEP)
        return a


# ---------------------------------------------------------------------------
# Printing

def _vname(i: int) -> str:
    return "$root" if i == 1 else "$x%d" % i


def print_xq(q: XQExpr, depth: int = 1) -> str:
    return _px(q, depth, top=True)


def _px(q: XQExpr, k: int, top: bool = False) -> str:
    if isinstance(q, EmptyElem):
        return "<%s/>" % q.label
    if isinstance(q, Elem):
        return "<%s>%s</%s>" % (q.label, _pbody(q.body, k), q.label)
    if isinstance(q, EmptySeq):
        return "{}"
    if isinstance(q, Seq):
        a = _px(q.a, k)
        if _open_ended(q.a):
            # a trailing body would swallow the rest of the sequence
            a = "{%s}" % a
        return "%s %s" % (a, _px(q.b, k))
    if isinstance(q, Var):
        return _vname(q.i)
    if isinstance(q, AxisStep):
        return "%s/%s" % (_vname(q.var), _pstep(q.axis, q.test))
    if isinstance(q, PathExpr):
        return _vname(q.var) + "".join("/" + _pstep(a, t)
                                       for a, t in q.steps)
    if isinstance(q, For):
        return "for %s in %s return %s" % (_vname(k + 1), _px(q.source, k),
                                           _px(q.body, k + 1))
    if isinstance(q, Some):
        return "some %s in %s satisfies %s" % (
            _vname(k + 1), _px(q.source, k), _pcond(q.body, k + 1))
    if isinstance(q, Every):
        return "every %s in %s satisfies %s" % (
            _vname(k + 1), _px(q.source, k), _pcond(q.body, k + 1))
    if isinstance(q, Let):
        return "let %s := %s return %s" % (_vname(k + 1), _px(q.bound, k),
                                           _px(q.body, k + 1))
    if isinstance(q, If):
        return "if (%s) then %s" % (_pcond(q.cond, k), _px(q.then, k))
    if isinstance(q, (VarEq, QueryEq, And, Or, Not)):
        return "(%s)" % _pcond(q, k)
    raise ValueError_("cannot print %r" % (q,))


def _open_ended(q: XQExpr) -> bool:
    """Whether the printed form of q ends in a body that keeps absorbing
    sequence items (for/let/if/some/every, or a sequence ending in one)."""
    if isinstance(q, (For, Let, If, Some, Every)):
        return True
    if isinstance(q, Seq):
        return _open_ended(q.b)
    return False


def _pstep(axis: str, test: str) -> str:
    if axis == CHILD:
        return test
    return "%s::%s" % (axis, test)


def _pbody(q: XQExpr, k: int) -> str:
    """Element bodies: constructors stay bare, anything else is braced."""
    if isinstance(q, EmptySeq):
        return ""
    if isinstance(q, Seq):
        return _pbody(q.a, k) + _pbody(q.b, k)
    if isinstance(q, (EmptyElem, Elem)):
        return _px(q, k)
    return "{%s}" % _px(q, k)


def _pcond(q: XQExpr, k: int) -> str:
    if isinstance(q, Or):
        # both operands are parenthesized: a trailing "satisfies" body
        # would otherwise absorb the "or", and reparsing would regroup
        return "(%s) or (%s)" % (_pcond(q.a, k), _pcond(q.b, k))
    if isinstance(q, And):
        return "(%s) and (%s)" % (_pcond(q.a, k), _pcond(q.b, k))
    if isinstance(q, Not):
        return "not(%s)" % _pcond(q.a, k)
    if isinstance(q, VarEq):
        op = "eq" if q.mode == ATOMIC else "="
        return "%s %s %s" % (_vname(q.i), op, _vname(q.j))
    if isinstance(q, QueryEq):
        return "%s = %s" % (_px(q.a, k), _px(q.b, k))
    return _px(q, k)
