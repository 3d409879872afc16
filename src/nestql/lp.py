"""Compilation of core monad algebra to nonrecursive logic programs.

Predicates are binary, p(X, v): X is a path prefix naming a node of the
deterministic tree and v one of the root-to-leaf paths below that node.
Each core operation becomes one or two rules; map descends into members
with a begin_map rule that extends the prefix and an end_map rule that
returns. The boolean "not" operation uses stratified negation over two
auxiliary unary predicates per negated subquery: set_p(X) holds for
every prefix where the subquery's input node exists, and ne_p(X) holds
where the subquery has at least one member.

A closed program starts from the base fact input(e, dummy) and its goal
predicate is true iff some goal fact at the empty prefix has a path of
the shape i.<> (a member index followed by the unit-tuple leaf).

eval_lp evaluates bottom-up, each predicate after every predicate it
reads. Each rule runs as a Python function generated once per process
for the rule's shape (the rule without its constants, its variables
numbered), so the 17,596 rules of an lp-paths benchmark round share 12
functions. A function joins the body atoms as nested loops: an atom
whose prefix earlier atoms have bound reads only the facts under that
prefix, from the relation's prefix index (a unary one is a membership
test); any other atom scans its relation. Where a variable dies, the
live bindings are gathered into a set first. See the Evaluation section.

In rule text, identifiers i, j, k, u, v, w (optionally digit-suffixed)
are variables, X is the prefix variable and e is the empty prefix;
everything else is a label.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple as Tup

from .values import Value, ValueError_, _Scanner, print_atom
from . import ma
from .ma import MAExpr
from .detree import (
    MARK_EMPTY, MARK_UNIT, Path, PathSet, Step, encode_det, print_term,
)


# ---------------------------------------------------------------------------
# Pattern and rule model

@dataclass(frozen=True)
class TPat:
    pass


@dataclass(frozen=True)
class PLab(TPat):
    term: Step  # a label (str) or a marker


@dataclass(frozen=True)
class PVar(TPat):
    name: str


@dataclass(frozen=True)
class PPair(TPat):
    left: TPat
    right: TPat


@dataclass(frozen=True)
class PVarNe(TPat):
    """A step variable excluding one label, written k\\B: matches any
    single step except the label B. Used by the pairwith rules to range
    over the other tuple fields."""
    name: str
    exclude: str


@dataclass(frozen=True)
class PrefixPat:
    """First argument: a prefix variable (or the empty prefix when var is
    None) extended by zero or more single-step patterns."""
    var: Optional[str]
    ext: Tup[TPat, ...] = ()


@dataclass(frozen=True)
class SuffixPat:
    """Second argument: fixed single-step patterns followed by an optional
    rest variable that matches one or more remaining steps."""
    items: Tup[TPat, ...]
    rest: Optional[str]


@dataclass(frozen=True)
class BinAtom:
    pred: str
    arg1: PrefixPat
    arg2: SuffixPat


@dataclass(frozen=True)
class UnAtom:
    pred: str
    arg1: PrefixPat
    negated: bool = False


@dataclass(frozen=True)
class Rule:
    head: object
    body: Tup[object, ...]
    comment: str = ""


@dataclass
class LogicProgram:
    rules: List[Rule]
    goal: str
    input_pred: str


X = "X"
_ARG1_X = PrefixPat(X)
_V_REST = SuffixPat((), "v")
_EMPTY = PLab(MARK_EMPTY)
_UNIT = PLab(MARK_UNIT)
_EMPTY_SUF = SuffixPat((_EMPTY,), None)


# ---------------------------------------------------------------------------
# Compilation

class _Compiler:
    def __init__(self, input_pred: str, empty_markers: bool = False):
        self.rules: List[Rule] = []
        self.n = 0
        self.input_pred = input_pred
        self.empty_markers = empty_markers

    def fresh(self) -> str:
        self.n += 1
        return "p%d" % self.n

    def emit(self, head, body, comment=""):
        self.rules.append(Rule(head, tuple(body), comment))

    def compile(self, q: MAExpr, inp: str, frame: str) -> str:
        """Translate q reading from predicate inp; frame is the predicate
        whose facts enumerate every prefix at the current depth."""
        if isinstance(q, ma.Id):
            return inp
        if isinstance(q, ma.Compose):
            mid = self.compile(q.f, inp, frame)
            return self.compile(q.g, mid, frame)
        if isinstance(q, (ma.Const, ma.EmptyColl, ma.UnitTuple)):
            if isinstance(q, ma.Const):
                c, what = PLab(q.label), "constant " + print_atom(q.label)
            elif isinstance(q, ma.EmptyColl):
                c, what = _EMPTY, "constant empty"
            else:
                c, what = _UNIT, "constant unit"
            out = self.fresh()
            # constants ignore their input; guard with the frame so they
            # exist at every prefix of the current depth
            self.emit(BinAtom(out, _ARG1_X, SuffixPat((c,), None)),
                      [BinAtom(frame, _ARG1_X, _V_REST)], what)
            return out
        if isinstance(q, ma.Sng):
            out = self.fresh()
            self.emit(BinAtom(out, _ARG1_X, SuffixPat((PLab("s"),), "v")),
                      [BinAtom(inp, _ARG1_X, _V_REST)], "sng")
            return out
        if isinstance(q, ma.Proj):
            out = self.fresh()
            self.emit(
                BinAtom(out, _ARG1_X, _V_REST),
                [BinAtom(inp, _ARG1_X,
                         SuffixPat((PLab(q.label),), "v"))],
                "pi_%s" % q.label)
            return out
        if isinstance(q, ma.TupleCons):
            if not q.fields:
                return self.compile(ma.UnitTuple(), inp, frame)
            outs = [(l, self.compile(f, inp, frame)) for l, f in q.fields]
            out = self.fresh()
            for l, pf in outs:
                self.emit(
                    BinAtom(out, _ARG1_X,
                            SuffixPat((PLab(l),), "v")),
                    [BinAtom(pf, _ARG1_X, _V_REST)], "create_tuple")
            return out
        if isinstance(q, ma.Union):
            return self.compile(ma.union_pair(q.f, q.g), inp, frame)
        if isinstance(q, ma.UnionT):
            out = self.fresh()
            for tag in ("1", "2"):
                self.emit(
                    BinAtom(out, _ARG1_X,
                            SuffixPat((PPair(PLab(tag), PVar("i")),), "v")),
                    [BinAtom(inp, _ARG1_X,
                             SuffixPat((PLab(tag), PVar("i")), "v"))],
                    "union")
            if self.empty_markers:
                self.emit(
                    BinAtom(out, _ARG1_X, _EMPTY_SUF),
                    [BinAtom(inp, _ARG1_X,
                             SuffixPat((PLab("1"), _EMPTY), None)),
                     BinAtom(inp, _ARG1_X,
                             SuffixPat((PLab("2"), _EMPTY), None))],
                    "union of empties")
            return out
        if isinstance(q, ma.Flatten):
            out = self.fresh()
            self.emit(
                BinAtom(out, _ARG1_X,
                        SuffixPat((PPair(PVar("i"), PVar("j")),), "v")),
                [BinAtom(inp, _ARG1_X,
                         SuffixPat((PVar("i"), PVar("j")), "v"))],
                "flatten")
            if self.empty_markers:
                self.emit(BinAtom(out, _ARG1_X, _EMPTY_SUF),
                          [BinAtom(inp, _ARG1_X, _EMPTY_SUF)],
                          "flatten of empty")
                # a member marked empty makes the result possibly empty;
                # decoding ignores the marker when content survives
                self.emit(BinAtom(out, _ARG1_X, _EMPTY_SUF),
                          [BinAtom(inp, _ARG1_X,
                                   SuffixPat((PVar("i"), _EMPTY), None))],
                          "flatten of empty member")
            return out
        if isinstance(q, ma.EqAtomic):
            out = self.fresh()
            pa = tuple(PLab(l) for l in q.pa)
            pb = tuple(PLab(l) for l in q.pb)
            self.emit(
                BinAtom(out, _ARG1_X,
                        SuffixPat((PLab("s"), _UNIT), None)),
                [BinAtom(inp, _ARG1_X, SuffixPat(pa, "v")),
                 BinAtom(inp, _ARG1_X, SuffixPat(pb, "v"))],
                "eqatom")
            if self.empty_markers:
                # rest variables are kept distinct, so this fires whether
                # or not the atoms agree; the spurious marker next to the
                # unit witness is ignored by decoding
                self.emit(
                    BinAtom(out, _ARG1_X, _EMPTY_SUF),
                    [BinAtom(inp, _ARG1_X, SuffixPat(pa, "v")),
                     BinAtom(inp, _ARG1_X, SuffixPat(pb, "w"))],
                    "eqatom possibly false")
            return out
        if isinstance(q, ma.PairWith):
            out = self.fresh()
            b = PLab(q.label)
            self.emit(
                BinAtom(out, _ARG1_X,
                        SuffixPat((PVar("i"), b), "v")),
                [BinAtom(inp, _ARG1_X, SuffixPat((b, PVar("i")), "v"))],
                "pairwith_%s" % q.label)
            k = PVarNe("k", q.label)
            self.emit(
                BinAtom(out, _ARG1_X,
                        SuffixPat((PVar("i"), k), "w")),
                [BinAtom(inp, _ARG1_X, SuffixPat((b, PVar("i")), "v")),
                 BinAtom(inp, _ARG1_X, SuffixPat((k,), "w"))],
                "pairwith_%s" % q.label)
            if self.empty_markers:
                self.emit(
                    BinAtom(out, _ARG1_X, _EMPTY_SUF),
                    [BinAtom(inp, _ARG1_X,
                             SuffixPat((b, _EMPTY), None))],
                    "pairwith_%s over empty" % q.label)
            return out
        if isinstance(q, ma.Map):
            sm = self.fresh()
            self.emit(
                BinAtom(sm, PrefixPat(X, (PVar("i"),)), _V_REST),
                [BinAtom(inp, _ARG1_X, SuffixPat((PVar("i"),), "v"))],
                "begin_map")
            pf = self.compile(q.f, sm, sm)
            out = self.fresh()
            self.emit(
                BinAtom(out, _ARG1_X, SuffixPat((PVar("i"),), "v")),
                [BinAtom(pf, PrefixPat(X, (PVar("i"),)), _V_REST)],
                "end_map")
            if self.empty_markers:
                self.emit(BinAtom(out, _ARG1_X, _EMPTY_SUF),
                          [BinAtom(inp, _ARG1_X, _EMPTY_SUF)],
                          "map over empty")
            return out
        if isinstance(q, ma.NotOp):
            set_p, ne_p = "set_" + inp, "ne_" + inp
            self.emit(UnAtom(set_p, _ARG1_X),
                      [BinAtom(frame, _ARG1_X, _V_REST)], "set witness")
            self.emit(UnAtom(ne_p, _ARG1_X),
                      [BinAtom(inp, _ARG1_X,
                               SuffixPat((PVar("i"),), "v"))], "nonempty")
            out = self.fresh()
            self.emit(
                BinAtom(out, _ARG1_X,
                        SuffixPat((PLab("s"), _UNIT), None)),
                [UnAtom(set_p, _ARG1_X), UnAtom(ne_p, _ARG1_X, True)],
                "not")
            if self.empty_markers:
                self.emit(BinAtom(out, _ARG1_X, _EMPTY_SUF),
                          [UnAtom(ne_p, _ARG1_X)], "not of nonempty")
            return out
        raise ValueError_("cannot compile %r; desugar to the core first"
                          % (q,))


def compile_lp(q: MAExpr, closed: bool = True,
               input_pred: str = "input",
               empty_markers: bool = False) -> LogicProgram:
    """Compile a core query to a nonrecursive logic program. With closed
    set, the base fact input(e, dummy) is included and the program is
    self-contained; otherwise facts for input_pred must be supplied.

    With empty_markers, extra rules leave the possibly-empty marker
    "[]" wherever an operation can compute an empty collection (union,
    flatten, pairwith, map, atomic equality, negation), so computed
    empties stay represented instead of decaying to path absence; some
    rules fire spuriously next to surviving content, and decoding
    ignores the marker in that case. The minimal rule set (the default)
    leaves computed empties absent.
    """
    c = _Compiler(input_pred, empty_markers)
    if closed:
        c.emit(BinAtom(input_pred, PrefixPat(None),
                       SuffixPat((PLab("dummy"),), None)), [], "base fact")
    goal = c.compile(q, input_pred, input_pred)
    return LogicProgram(c.rules, goal, input_pred)


# ---------------------------------------------------------------------------
# Evaluation (bottom-up, stratified, predicate by predicate)
#
# Predicates are evaluated in topological order, so a relation is
# complete before any rule reads it (no rule may read its own head,
# directly or not). Each rule runs as a generated Python function shared
# by every rule of its shape: the rule with its constants (body
# predicates, labels and excluded labels) taken out and its variables
# numbered by first occurrence. Compiled programs have few shapes: the
# 17,596 rules of one lp-paths benchmark round have 12, the 17,299 of an
# oracle-mix round 20. The first rule of a shape generates and exec's
# its function's source, which _RULES keeps for the rest of the process;
# every rule then runs as fn(bin_rels, un_rels, index, out, consts).
# Constants reach the function as data and variables become numbered
# locals, so no label, predicate or variable name is spliced into source.
#
# The function joins the body atoms left to right as nested loops:
#   - an atom whose prefix the atoms before it fix (a bound variable, or
#     e, with no extension) loops over only the facts under that prefix,
#     from the relation's prefix index; the index maps each prefix to its
#     paths and is built once per relation, on first use. A unary atom
#     with a fixed prefix is a set-membership test, as negation is;
#   - any other atom (every first atom with a prefix variable, and atoms
#     with a prefix extension or a prefix variable not bound yet) loops
#     over its whole relation.
# Where a variable dies after an atom (no later atom and not the head
# reads it), the bindings of the live variables are collected into a set
# and the next atom loops over that set: the join then runs once per
# distinct live binding, not once per fact that only differs in a dead
# variable. Heads are sets, so the projection changes no result.
#
# Rules are assumed safe: compile_lp emits only safe rules, and parse_lp
# rejects the others (see _check_safe).

def _vars(atom) -> Tup[Set[str], Set[str], Set[str]]:
    """The variables of an atom, split in three: the prefix variable,
    the rest variable (each binding a sequence of steps) and those
    binding a single step."""
    pre = set() if atom.arg1.var is None else {atom.arg1.var}
    rest = set()
    pats = list(atom.arg1.ext)
    if type(atom) is BinAtom:
        pats.extend(atom.arg2.items)
        if atom.arg2.rest is not None:
            rest.add(atom.arg2.rest)
    steps = set()
    while pats:
        p = pats.pop()
        if type(p) is PPair:
            pats += (p.left, p.right)
        elif type(p) is not PLab:
            steps.add(p.name)
    return pre, rest, steps


def _check_safe(r: Rule, raw: str) -> None:
    """Reject a rule the evaluator cannot run: a head variable that no
    positive body atom binds, a variable of a negated atom that no
    earlier positive atom binds, a variable that stands for a sequence
    of steps in one place and for a single step in another (a sequence
    put in step position would read as a pair step), or a prefix
    variable also used as a rest (a prefix may be empty, a rest covers
    at least one step, so the head could get a path of no steps)."""
    bound: Set[str] = set()
    pres, rests, steps = _vars(r.head)
    head = pres | rests | steps
    for a in r.body:
        a_pres, a_rests, a_steps = _vars(a)
        pres |= a_pres
        rests |= a_rests
        steps |= a_steps
        names = a_pres | a_rests | a_steps
        if type(a) is not UnAtom or not a.negated:
            bound |= names
        elif not names <= bound:
            raise ValueError_(
                "variable %s of a negated atom is bound by no earlier "
                "positive atom in %r" % (min(names - bound), raw))
    free = head - bound
    if free:
        raise ValueError_("head variable %s is bound by no positive body "
                          "atom in %r" % (min(free), raw))
    both = (pres | rests) & steps
    if both:
        raise ValueError_("variable %s is used both as a sequence of steps "
                          "and as a single step in %r" % (min(both), raw))
    both = pres & rests
    if both:
        raise ValueError_("variable %s is used both as a prefix and as a "
                          "rest in %r" % (min(both), raw))


def _pat_shape(p: TPat, ids: Dict[str, int], consts: list):
    """A step pattern's shape: "L" for a label, a variable's number,
    ("N", number) for k\\B and ("P", left, right) for a pair; its labels
    are appended to consts, left to right."""
    t = type(p)
    if t is PLab:
        consts.append(p.term)
        return "L"
    if t is PVar:
        return ids.setdefault(p.name, len(ids))
    if t is PVarNe:
        consts.append(p.exclude)
        return ("N", ids.setdefault(p.name, len(ids)))
    return ("P", _pat_shape(p.left, ids, consts),
            _pat_shape(p.right, ids, consts))


def _atom_shape(a, ids: Dict[str, int], consts: list):
    """(prefix variable, extension, items, rest) of a binary atom and
    (prefix variable, extension, None, negated) of a unary one."""
    arg1 = a.arg1
    pre = arg1.var
    if pre is not None:
        pre = ids.setdefault(pre, len(ids))
    ext = arg1.ext and tuple([_pat_shape(p, ids, consts) for p in arg1.ext])
    if type(a) is UnAtom:
        return pre, ext, None, a.negated
    arg2 = a.arg2
    items = tuple([_pat_shape(p, ids, consts) for p in arg2.items])
    rest = arg2.rest
    if rest is not None:
        rest = ids.setdefault(rest, len(ids))
    return pre, ext, items, rest


def _shape(r: Rule):
    """(shape, consts) of rule r: the shape is (body atom shapes, head
    shape), variables numbered by first occurrence; consts lists each
    body atom's predicate and then its labels, then the head's labels."""
    ids: Dict[str, int] = {}
    consts: list = []
    body = []
    for a in r.body:
        consts.append(a.pred)
        body.append(_atom_shape(a, ids, consts))
    return (tuple(body), _atom_shape(r.head, ids, consts)), consts


class _RuleSource:
    """Writes the Python source of the function that runs every rule of
    one shape; see the comment above. Locals: cN constants, pN and sN the
    prefix and path of body atom N's fact, xN variable N, tN pair steps,
    dN sets of live bindings, relN, ixN and unN the relations read."""

    def __init__(self, shape):
        body, head = shape
        self.nconst = 0
        body = [(self.const(), self.resolve(a)) for a in body]
        head = self.resolve(head)
        self.top = ["add = out.add"]
        if self.nconst:
            self.top.append("%s, = consts" % ", ".join(
                "c%d" % i for i in range(self.nconst)))
        self.lines: List[str] = []
        self.depth = 1     # indentation of the next line
        self.loops = 0     # loops enclosing it
        self.names: Dict[int, str] = {}   # bound variable -> local
        self.ntemp = 0
        uses = Counter(v for atom in [a for _, a in body] + [head]
                       for v in _var_uses(atom))
        # a variable used once is bound nowhere else and read by nothing
        self.once = {v for v, n in uses.items() if n == 1}
        for i, (pred, atom) in enumerate(body):
            self.join(i, pred, atom)
            if i < len(body) - 1:
                later = set(_var_uses(head)).union(
                    *[_var_uses(a) for _, a in body[i + 1:]])
                held = set(self.names)
                if not held <= later:
                    self.collect(i, sorted(held & later))
                elif self.loops >= 16:
                    # CPython nests at most 20 blocks
                    self.collect(i, sorted(held))
        if head[2] is None:
            self.emit("add(%s)" % self.prefix(head))
        else:
            self.emit("add((%s, %s))" % (self.prefix(head), self.path(head)))

    def source(self) -> str:
        return "\n".join(
            ["def rule(bin_rels, un_rels, index, out, consts):"]
            + ["    " + s for s in self.top] + self.lines) + "\n"

    # constants and patterns

    def const(self) -> str:
        self.nconst += 1
        return "c%d" % (self.nconst - 1)

    def resolve(self, atom):
        """The atom's shape with each constant replaced by its local."""
        pre, ext, items, last = atom
        ext = [self.pattern(p) for p in ext]
        if items is not None:
            items = [self.pattern(p) for p in items]
        return pre, ext, items, last

    def pattern(self, p):
        if p == "L":
            return ("L", self.const())
        if type(p) is int:
            return ("V", p)
        if p[0] == "N":
            return ("N", self.const(), p[1])
        return ("P", self.pattern(p[1]), self.pattern(p[2]))

    # code

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def loop(self, line: str) -> None:
        self.emit(line)
        self.depth += 1
        self.loops += 1

    def guard(self, cond: str) -> None:
        """Skip to the next binding where cond holds."""
        self.emit("if %s: %s" % (cond, "continue" if self.loops else
                                 "return"))

    def bind(self, var: int, expr: str) -> None:
        if var in self.once:
            return
        if var in self.names:
            self.guard("%s != %s" % (expr, self.names[var]))
        elif expr.isidentifier():
            self.names[var] = expr
        else:
            self.names[var] = "x%d" % var
            self.emit("x%d = %s" % (var, expr))

    def match(self, p, expr: str) -> None:
        if p[0] == "L":
            self.guard("%s != %s" % (expr, p[1]))
        elif p[0] == "V":
            self.bind(p[1], expr)
        elif p[0] == "N":
            self.guard("%s == %s" % (expr, p[1]))
            self.bind(p[2], expr)
        else:
            if not expr.isidentifier():
                self.ntemp += 1
                self.emit("t%d = %s" % (self.ntemp, expr))
                expr = "t%d" % self.ntemp
            self.guard("type(%s) is not tuple" % expr)
            self.match(p[1], expr + "[0]")
            self.match(p[2], expr + "[1]")

    def join(self, i: int, pred: str, atom) -> None:
        # last: the rest variable, or whether a unary atom is negated
        pre, ext, items, last = atom
        fixed = not ext and (pre is None or pre in self.names)
        if items is None:
            self.top.append("un%d = un_rels.get(%s, ())" % (i, pred))
            if fixed or last:
                self.guard("%s %s un%d" % (self.prefix(atom),
                                           "in" if last else "not in", i))
                return
            self.loop("for p%d in un%d:" % (i, i))
        elif fixed:
            self.top.append("ix%d = index(%s)" % (i, pred))
            self.loop("for s%d in ix%d.get(%s, ()):"
                      % (i, i, "()" if pre is None else self.names[pre]))
            self.match_path(i, items, last)
            return
        else:
            self.top.append("rel%d = bin_rels.get(%s, ())" % (i, pred))
            self.loop("for p%d, s%d in rel%d:" % (i, i, i))
            self.match_path(i, items, last)
        p, k = "p%d" % i, len(ext)
        if pre is None:
            self.guard("len(%s) != %d" % (p, k) if k else p)
        elif k:
            self.guard("len(%s) < %d" % (p, k))
        for j, q in enumerate(ext):
            self.match(q, "%s[%d]" % (p, j - k))
        if pre is not None:
            self.bind(pre, "%s[:%d]" % (p, -k) if k else p)

    def match_path(self, i: int, items, rest) -> None:
        s, n = "s%d" % i, len(items)
        # a rest variable covers at least one step, so a bare marker leaf
        # never counts as a set member
        if rest is None:
            self.guard("len(%s) != %d" % (s, n))
        else:
            self.guard("len(%s) <= %d" % (s, n) if n else "not " + s)
        for j, q in enumerate(items):
            self.match(q, "%s[%d]" % (s, j))
        if rest is not None:
            self.bind(rest, "%s[%d:]" % (s, n) if n else s)

    def collect(self, i: int, live: List[int]) -> None:
        """Gather the distinct bindings of the live variables into a set
        and loop over it."""
        d, key = "d%d" % i, [self.names[v] for v in live]
        self.top.append("%s = set()" % d)
        self.emit("%s.add(%s)" % (d, key[0] if len(key) == 1 else
                                  _tuple(key)))
        self.depth, self.loops = 1, 0
        self.names = {v: "x%d" % v for v in live}
        self.loop("for %s in %s:" % (
            ", ".join(self.names.values()) or "()", d))

    def term(self, p) -> str:
        if p[0] == "L":
            return p[1]
        if p[0] == "P":
            return "(%s, %s)" % (self.term(p[1]), self.term(p[2]))
        return self.names[p[-1]]

    def prefix(self, atom) -> str:
        pre, ext = atom[0], atom[1]
        var = "()" if pre is None else self.names[pre]
        if not ext:
            return var
        ext = _tuple([self.term(p) for p in ext])
        return ext if pre is None else "%s + %s" % (var, ext)

    def path(self, atom) -> str:
        items, rest = atom[2], atom[3]
        if rest is None:
            return _tuple([self.term(p) for p in items])
        if not items:
            return self.names[rest]
        return "%s + %s" % (_tuple([self.term(p) for p in items]),
                            self.names[rest])


def _tuple(exprs: List[str]) -> str:
    return "(%s,)" % exprs[0] if len(exprs) == 1 else \
        "(%s)" % ", ".join(exprs)


def _var_uses(atom) -> List[int]:
    """The variables of a resolved atom (of _RuleSource), once per use."""
    pre, ext, items, last = atom
    out = [] if pre is None else [pre]
    if items is not None and last is not None:
        out.append(last)
    pats = list(ext) + list(items or ())
    while pats:
        p = pats.pop()
        if p[0] == "P":
            pats += (p[1], p[2])
        elif p[0] != "L":
            out.append(p[-1])
    return out


_RULES: Dict[tuple, Callable] = {}


def _rule_fn(shape) -> Callable:
    """The function running every rule of this shape, made once."""
    fn = _RULES.get(shape)
    if fn is None:
        scope: dict = {}
        exec(_RuleSource(shape).source(), scope)
        fn = _RULES[shape] = scope["rule"]
    return fn


def _topo_preds(by_head: Dict[str, List[Rule]]) -> List[str]:
    """Every predicate, each after the predicates its rules read; by_head
    maps each head predicate to its rules. A depth-first walk with its
    own stack: no recursion limit, and no self-referring closure, whose
    cycle would keep by_head and every rule alive until a cyclic
    collection."""
    order: List[str] = []
    state: Dict[str, int] = {}   # 1 while on the stack, then 2
    for root in by_head:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, _reads(by_head, root))]
        while stack:
            p, reads = stack[-1]
            for a in reads:
                s = state.get(a)
                if s is None:
                    state[a] = 1
                    stack.append((a, _reads(by_head, a)))
                    break
                if s == 1:
                    raise ValueError_("recursive predicate %s" % a)
            else:
                stack.pop()
                state[p] = 2
                order.append(p)
    return order


def _reads(by_head: Dict[str, List[Rule]], p: str):
    """The predicates p's rules read, in order."""
    return (a.pred for r in by_head.get(p, ()) for a in r.body)


def eval_lp(prog: LogicProgram, facts: Optional[dict] = None):
    """Evaluate bottom-up. facts maps predicate names to sets of
    (prefix, path) pairs supplied externally (e.g. the encoded input
    value under prog.input_pred). Returns (binary, unary) relations."""
    bin_rels: Dict[str, Set[Tup[Path, Path]]] = {}
    un_rels: Dict[str, Set[Path]] = {}
    for p, fs in (facts or {}).items():
        bin_rels.setdefault(p, set()).update(fs)
    indexes: Dict[str, Dict[Path, List[Path]]] = {}

    def index(pred: str) -> Dict[Path, List[Path]]:
        if pred not in indexes:
            by_prefix = indexes[pred] = {}
            for pre, path in bin_rels.get(pred, ()):
                by_prefix.setdefault(pre, []).append(path)
        return indexes[pred]

    by_head: Dict[str, List[Rule]] = {}
    for r in prog.rules:
        by_head.setdefault(r.head.pred, []).append(r)
    for pred in _topo_preds(by_head):
        for r in by_head.get(pred, []):
            shape, consts = _shape(r)
            out = (bin_rels if type(r.head) is BinAtom else un_rels) \
                .setdefault(pred, set())
            _rule_fn(shape)(bin_rels, un_rels, index, out, consts)
        bin_rels.setdefault(pred, set())
    return bin_rels, un_rels


def goal_paths(prog: LogicProgram, bin_rels) -> PathSet:
    return frozenset(path for pre, path in bin_rels.get(prog.goal, set())
                     if pre == ())


def goal_true(prog: LogicProgram, bin_rels) -> bool:
    """The boolean reading: some goal fact at the empty prefix has a path
    i.<> with i a member index."""
    return any(len(p) == 2 and p[1] == MARK_UNIT
               for p in goal_paths(prog, bin_rels))


def run_lp(q: MAExpr, v: Optional[Value] = None,
           empty_markers: bool = False) -> PathSet:
    """Compile and evaluate in one step; with v, the query reads the
    encoded value instead of the dummy base fact."""
    if v is None:
        prog = compile_lp(q, closed=True, empty_markers=empty_markers)
        rels, _ = eval_lp(prog)
    else:
        prog = compile_lp(q, closed=False, empty_markers=empty_markers)
        rels, _ = eval_lp(prog, {prog.input_pred:
                                 {((), p) for p in encode_det(v)}})
    return goal_paths(prog, rels)


# ---------------------------------------------------------------------------
# Text format

def print_lp(prog: LogicProgram) -> str:
    lines = [_print_rule(r) for r in prog.rules]
    lines.append("% goal: " + prog.goal)
    return "\n".join(lines) + "\n"


def _print_rule(r: Rule) -> str:
    head = _print_atom(r.head)
    if r.body:
        s = "%s :- %s." % (head, ", ".join(_print_atom(a) for a in r.body))
    else:
        s = head + "."
    if r.comment:
        s += "  % " + r.comment
    return s


def _print_atom(a) -> str:
    if isinstance(a, BinAtom):
        return "%s(%s, %s)" % (a.pred, _print_arg1(a.arg1),
                               _print_arg2(a.arg2))
    neg = "not " if a.negated else ""
    return "%s%s(%s)" % (neg, a.pred, _print_arg1(a.arg1))


def _print_arg1(p: PrefixPat) -> str:
    parts = ([p.var] if p.var is not None else ["e"])
    parts += [_print_pat(t) for t in p.ext]
    return ".".join(parts)


def _print_arg2(p: SuffixPat) -> str:
    parts = [_print_pat(t) for t in p.items]
    if p.rest is not None:
        parts.append(p.rest)
    return ".".join(parts)


def _print_pat(t: TPat) -> str:
    if isinstance(t, PLab):
        if type(t.term) is str and _VAR_RE.fullmatch(t.term):
            # quoted, or it would read back as a variable
            return '"%s"' % t.term
        return print_term(t.term)
    if isinstance(t, PVar):
        return t.name
    if isinstance(t, PVarNe):
        return "%s\\%s" % (t.name, print_atom(t.exclude))
    return "(%s)" % _print_pair_body(t)


def _print_pair_body(t: PPair) -> str:
    parts = [_print_pat(t.left)]
    r = t.right
    while isinstance(r, PPair):
        parts.append(_print_pat(r.left))
        r = r.right
    parts.append(_print_pat(r))
    return ".".join(parts)


_VAR_RE = re.compile(r"[ijkuvw][0-9]*$")


def parse_lp(text: str) -> LogicProgram:
    rules: List[Rule] = []
    goal = None
    input_pred = None
    arity: Dict[str, type] = {}   # predicate -> UnAtom or BinAtom
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            body = line[1:].strip()
            if body.startswith("goal:"):
                goal = body[len("goal:"):].strip()
            continue
        if "%" in line:
            line, comment = line.split("%", 1)
            line, comment = line.strip(), comment.strip()
        else:
            comment = ""
        if not line.endswith("."):
            raise ValueError_("rule must end with '.': %r" % raw)
        line = line[:-1]
        if ":-" in line:
            head_s, body_s = line.split(":-", 1)
            body = tuple(_parse_atoms(body_s))
        else:
            head_s, body = line, ()
        head = _parse_atom(head_s.strip())
        if isinstance(head, UnAtom) and head.negated:
            raise ValueError_("negated head in %r" % raw)
        if input_pred is None and not body:
            input_pred = head.pred
        for a in (head,) + body:
            if arity.setdefault(a.pred, type(a)) is not type(a):
                raise ValueError_("predicate %s is used both as unary and "
                                  "as binary in %r" % (a.pred, raw))
        rule = Rule(head, body, comment)
        _check_safe(rule, raw)
        rules.append(rule)
    if goal is None:
        if not rules:
            raise ValueError_("empty program")
        goal = rules[-1].head.pred
    return LogicProgram(rules, goal, input_pred or "input")


def _parse_atoms(s: str):
    sc = _Scanner(s)
    out = [_parse_atom_sc(sc)]
    while sc.try_tok(","):
        out.append(_parse_atom_sc(sc))
    if not sc.at_end():
        sc.error("trailing input in rule body")
    return out


def _parse_atom(s: str):
    sc = _Scanner(s)
    a = _parse_atom_sc(sc)
    if not sc.at_end():
        sc.error("trailing input in atom")
    return a


def _parse_atom_sc(sc: _Scanner):
    sc.skip_ws()
    negated = bool(sc.try_tok("not "))
    pred = sc.atom()
    sc.expect("(")
    arg1 = _parse_prefix(sc)
    if sc.try_tok(")"):
        return UnAtom(pred, arg1, negated)
    sc.expect(",")
    arg2 = _parse_suffix(sc)
    sc.expect(")")
    if negated:
        sc.error("only unary atoms may be negated")
    return BinAtom(pred, arg1, arg2)


def _parse_prefix(sc: _Scanner) -> PrefixPat:
    sc.skip_ws()
    first = sc.atom()
    var = None if first == "e" else first
    if var is not None and var != X and not _VAR_RE.fullmatch(var):
        sc.error("prefix must start with a variable or e")
    ext = []
    while sc.try_tok("."):
        ext.append(_parse_pat(sc))
    return PrefixPat(var, tuple(ext))


def _parse_suffix(sc: _Scanner) -> SuffixPat:
    pats = [_parse_pat(sc)]
    while sc.try_tok("."):
        pats.append(_parse_pat(sc))
    rest = None
    last = pats[-1]
    if isinstance(last, PVar):
        rest = last.name
        pats = pats[:-1]
    return SuffixPat(tuple(pats), rest)


def _parse_pat(sc: _Scanner) -> TPat:
    sc.skip_ws()
    if sc.try_tok("("):
        parts = [_parse_pat(sc)]
        while sc.try_tok("."):
            parts.append(_parse_pat(sc))
        sc.expect(")")
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = PPair(p, out)
        return out
    for mark in (_EMPTY, _UNIT):
        if sc.try_tok(mark.term.text):
            return mark
    quoted = sc.peek() == '"'
    word = sc.atom()
    if not quoted and _VAR_RE.fullmatch(word):
        if sc.try_tok("\\"):
            return PVarNe(word, sc.atom())
        return PVar(word)
    return PLab(word)
