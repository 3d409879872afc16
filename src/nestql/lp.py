"""Compilation of core monad algebra to nonrecursive logic programs.

Predicates are binary, p(X, v): X is a path prefix naming a node of the
deterministic tree and v one of the root-to-leaf paths below that node.
Each core operation becomes one or two rules; map descends into members
with a begin_map rule that extends the prefix and an end_map rule that
returns. The Boolean "not" and "true" operations read two auxiliary
unary predicates of their input p: set_p(X) holds for every prefix
where the input's node exists, and ne_p(X) holds where the input has
at least one member. "true" holds where ne_p does; "not" uses
stratified negation, holding where set_p does and ne_p does not.

A closed program starts from the base fact input(e, dummy) and its goal
predicate is true iff some goal fact at the empty prefix has a path of
the shape i.<> (a member index followed by the unit-tuple leaf).

A rule is one record (Rule): its head predicate, its shape (the rule
without its constants, its variables numbered), its constants, its
variable names and its comment. compile_lp writes each operator's rules
as the text print_lp prints, e.g. O(X, s.v) :- I(X, v). for sng, with
placeholders for the predicates and labels that vary; an operator whose
rules read only its input or frame takes them from one table. parse_lp
reads each text once per process, and a compiled rule is that template
with the operator's predicates and labels in place of its placeholders,
so it equals parse_lp of its own printed text.

A program's rule list is its evaluation order: no rule reads a predicate
that it or a later rule derives. compile_lp emits each operator's rules
after those of its subexpressions, and parse_lp refuses text out of that
order, so eval_lp runs the rules as listed, bottom-up. Each rule runs as
a Python function generated once per process for the rule's shape, so
the 17,596 rules of an lp-paths benchmark round share 12 functions. A
function joins the body atoms as nested loops: an atom whose prefix
earlier atoms have bound reads only the facts under that prefix, from
the relation's prefix index (a unary one is a membership test); any
other atom scans its relation. See the Evaluation section.

In rule text, identifiers i, j, k, u, v, w (optionally digit-suffixed)
are variables, X is the prefix variable and e is the empty prefix;
everything else is a label.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple as Tup

from .values import Value, ValueError_, _Scanner, print_atom, record
from . import ma
from .ma import MAExpr
from .detree import (
    MARK_EMPTY, MARK_UNIT, Path, PathSet, encode_det, print_term,
)


# ---------------------------------------------------------------------------
# Rules

@record
class Rule:
    """One rule, as parse_lp reads it and compile_lp emits it.

    shape is (body atom shapes, head shape). An atom shape is (pred,
    pre, ext, items, last): pred the index in consts of a body atom's
    predicate (None in the head, whose predicate is head); pre the
    prefix variable, or None for e; ext and items the step patterns of
    the prefix extension and of the path; last the rest variable of a
    binary atom, or None, or, where items is None (a unary atom), whether
    the atom is negated. A step pattern is a variable, ("L", c) for the
    label consts[c], ("N", c, var) for var\\consts[c] (any single step but
    that label) or ("P", left, right) for a pair step. Variables are
    numbered by first occurrence, body first, and names[n] is variable
    n's name; constants are numbered likewise, each body atom's
    predicate before its labels. Rules that differ only in their
    constants and variable names share a shape, and one generated
    function runs them all.
    """
    head: str
    shape: tuple
    consts: tuple
    names: tuple
    comment: str = ""


@dataclass
class LogicProgram:
    """rules is the evaluation order: no rule reads its own head or the
    head of a later rule, so each relation is complete before a rule
    reads it. compile_lp and parse_lp give only such lists."""
    rules: List[Rule]
    goal: str
    input_pred: str


# ---------------------------------------------------------------------------
# Compilation

class _Compiler:
    """Each operator's rules are written as rule text whose predicates
    and labels that vary are capitalised placeholders: O the output
    predicate, I the input, F the frame, and the like."""

    def __init__(self, empty_markers: bool):
        self.rules: List[Rule] = []
        self.n = 0
        self.empty_markers = empty_markers
        self.witnessed: Set[str] = set()   # inputs with set_/ne_ rules

    def fresh(self) -> str:
        self.n += 1
        return "p%d" % self.n

    def emit(self, text: str, comment: str, **subst) -> None:
        """Emit the rule text spells, with each placeholder predicate or
        label replaced by its value in subst."""
        t = _TEMPLATES.get(text)
        if t is None:
            t = _TEMPLATES[text] = _parse_rule(text, text)
        get = subst.get
        self.rules.append(Rule(get(t.head, t.head), t.shape,
                               tuple([get(c, c) for c in t.consts]),
                               t.names, comment))

    def compile(self, q: MAExpr, inp: str, frame: str) -> str:
        """Translate q reading from predicate inp; frame is the predicate
        whose facts enumerate every prefix at the current depth."""
        kind = type(q)
        if kind in _OPERATOR_RULES:
            show, rules = _OPERATOR_RULES[kind]
            label = shown = None
            if show is not None:
                label = q.label
                shown = show(label)
            out = self.fresh()
            for text, what, markers_only in rules:
                if self.empty_markers or not markers_only:
                    self.emit(text, what if shown is None else what % shown,
                              O=out, I=inp, F=frame, L=label)
            return out
        if kind is ma.Id:
            return inp
        if kind is ma.Compose:
            for stage in ma._flat(q, ma.Compose):
                inp = self.compile(stage, inp, frame)
            return inp
        if kind is ma.TupleCons:
            if not q.fields:
                return self.compile(ma.UnitTuple(), inp, frame)
            outs = [(l, self.compile(f, inp, frame)) for l, f in q.fields]
            out = self.fresh()
            for l, pf in outs:
                self.emit("O(X, L.v) :- I(X, v).", "create_tuple",
                          O=out, I=pf, L=l)
            return out
        if kind is ma.Union:
            return self.compile(ma.union_pair(q.f, q.g), inp, frame)
        if kind is ma.EqAtomic:
            out = self.fresh()
            pa = ["A%d" % k for k in range(len(q.pa))]
            pb = ["B%d" % k for k in range(len(q.pb))]
            subst = dict(zip(pa + pb, q.pa + q.pb), O=out, I=inp)
            a = ".".join(pa + ["v"])
            self.emit("O(X, s.<>) :- I(X, %s), I(X, %s)."
                      % (a, ".".join(pb + ["v"])), "eqatom", **subst)
            if self.empty_markers:
                # rest variables are kept distinct, so this fires whether
                # or not the atoms agree; the spurious marker next to the
                # unit witness is ignored by decoding
                self.emit("O(X, []) :- I(X, %s), I(X, %s)."
                          % (a, ".".join(pb + ["w"])),
                          "eqatom possibly false", **subst)
            return out
        if kind is ma.Map:
            sm = self.fresh()
            self.emit("M(X.i, v) :- I(X, i.v).", "begin_map", M=sm, I=inp)
            pf = self.compile(q.f, sm, sm)
            out = self.fresh()
            self.emit("O(X, i.v) :- P(X.i, v).", "end_map", O=out, P=pf)
            if self.empty_markers:
                self.emit("O(X, []) :- I(X, []).", "map over empty",
                          O=out, I=inp)
            return out
        if kind in _TEST_RULES:
            set_p, ne_p = "set_" + inp, "ne_" + inp
            if inp not in self.witnessed:
                # they depend on inp and its frame alone, and a second
                # copy would follow a rule that reads them
                self.witnessed.add(inp)
                self.emit("S(X) :- F(X, v).", "set witness", S=set_p,
                          F=frame)
                self.emit("N(X) :- I(X, i.v).", "nonempty", N=ne_p, I=inp)
            out = self.fresh()
            for text, what, markers_only in _TEST_RULES[kind]:
                if self.empty_markers or not markers_only:
                    self.emit(text, what, O=out, S=set_p, N=ne_p)
            return out
        if kind in (ma.Monus, ma.Unique):
            raise ValueError_("cannot compile %r; it is bag-only, and "
                              "logic programs run list semantics" % (q,))
        raise ValueError_("cannot compile %r; desugar to the core first"
                          % (q,))


# The operators whose rules read only their input predicate I or frame
# predicate F, each with how its comments show its label L (None for an
# operator without one) and its rules into a fresh output predicate O:
# (rule text, comment, whether only empty markers add the rule).
_OPERATOR_RULES = {
    # constants ignore their input; guard with the frame so they exist
    # at every prefix of the current depth
    ma.Const: (print_atom, [("O(X, L) :- F(X, v).", "constant %s", False)]),
    ma.EmptyColl: (None, [("O(X, []) :- F(X, v).", "constant empty", False)]),
    ma.UnitTuple: (None, [("O(X, <>) :- F(X, v).", "constant unit", False)]),
    ma.Sng: (None, [("O(X, s.v) :- I(X, v).", "sng", False)]),
    ma.Proj: (str, [("O(X, v) :- I(X, L.v).", "pi_%s", False)]),
    ma.UnionT: (None, [
        ("O(X, (1.i).v) :- I(X, 1.i.v).", "union", False),
        ("O(X, (2.i).v) :- I(X, 2.i.v).", "union", False),
        ("O(X, []) :- I(X, 1.[]), I(X, 2.[]).", "union of empties", True)]),
    ma.Flatten: (None, [
        ("O(X, (i.j).v) :- I(X, i.j.v).", "flatten", False),
        ("O(X, []) :- I(X, []).", "flatten of empty", True),
        # a member marked empty makes the result possibly empty;
        # decoding ignores the marker when content survives
        ("O(X, []) :- I(X, i.[]).", "flatten of empty member", True)]),
    ma.PairWith: (str, [
        ("O(X, i.L.v) :- I(X, L.i.v).", "pairwith_%s", False),
        ("O(X, i.k\\L.w) :- I(X, L.i.v), I(X, k\\L.w).", "pairwith_%s",
         False),
        ("O(X, []) :- I(X, L.[]).", "pairwith_%s over empty", True)]),
}


# not and true, which read the witnesses S (the input's node exists at
# X) and N (the input has a member at X): their rules in the same form.
_TEST_RULES = {
    ma.NotOp: [("O(X, s.<>) :- S(X), not N(X).", "not", False),
               ("O(X, []) :- N(X).", "not of nonempty", True)],
    ma.TrueOp: [("O(X, s.<>) :- N(X).", "true", False),
                ("O(X, []) :- S(X), not N(X).", "true of empty", True)],
}


# rule text -> its rule, placeholders and all; read once per process
_TEMPLATES: Dict[str, Rule] = {}


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
    c = _Compiler(empty_markers)
    if closed:
        c.emit("I(e, dummy).", "base fact", I=input_pred)
    goal = c.compile(q, input_pred, input_pred)
    return LogicProgram(c.rules, goal, input_pred)


# ---------------------------------------------------------------------------
# Evaluation (bottom-up, stratified, rule by rule)
#
# Rules run in the order the program lists them, which is an evaluation
# order (see LogicProgram), so a relation is complete before any rule
# reads it. Each rule runs as a generated Python function shared
# by every rule of its shape, which the rule records (see Rule): the
# shape is the rule with its constants (body predicates, labels and
# excluded labels) taken out and its variables numbered, so evaluation
# reads it and walks no rule. Compiled programs have few shapes: the
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
#
# Rules are assumed safe: compile_lp emits only safe rules, and parse_lp
# rejects the others (see _check_safe).

def _vars(atom) -> Tup[List[int], List[int], List[int]]:
    """The variables of an atom shape, once per use, split in three: the
    prefix variable, the rest variable (each binding a sequence of steps)
    and those binding a single step."""
    _, pre, ext, items, last = atom
    steps = []
    pats = list(ext) + list(items or ())
    while pats:
        p = pats.pop()
        if type(p) is int:
            steps.append(p)
        elif p[0] == "P":
            pats += (p[1], p[2])
        elif p[0] == "N":
            steps.append(p[2])
    return ([] if pre is None else [pre],
            [last] if items is not None and last is not None else [], steps)


def _check_safe(r: Rule, raw: str) -> None:
    """Reject a rule the evaluator cannot run: a head variable that no
    positive body atom binds, a variable of a negated atom that no
    earlier positive atom binds, a variable that stands for a sequence
    of steps in one place and for a single step in another (a sequence
    put in step position would read as a pair step), or a prefix
    variable also used as a rest (a prefix may be empty, a rest covers
    at least one step, so the head could get a path of no steps)."""
    body, head = r.shape

    def first(vs) -> str:
        return min(r.names[v] for v in vs)

    bound: Set[int] = set()
    pres, rests, steps = map(set, _vars(head))
    head_vars = pres | rests | steps
    for a in body:
        a_pres, a_rests, a_steps = map(set, _vars(a))
        pres |= a_pres
        rests |= a_rests
        steps |= a_steps
        names = a_pres | a_rests | a_steps
        if a[3] is not None or not a[4]:
            bound |= names
        elif not names <= bound:
            raise ValueError_(
                "variable %s of a negated atom is bound by no earlier "
                "positive atom in %r" % (first(names - bound), raw))
    free = head_vars - bound
    if free:
        raise ValueError_("head variable %s is bound by no positive body "
                          "atom in %r" % (first(free), raw))
    both = (pres | rests) & steps
    if both:
        raise ValueError_("variable %s is used both as a sequence of steps "
                          "and as a single step in %r" % (first(both), raw))
    both = pres & rests
    if both:
        raise ValueError_("variable %s is used both as a prefix and as a "
                          "rest in %r" % (first(both), raw))


class _RuleSource:
    """Writes the Python source of the function that runs every rule of
    one shape; see the comment above. Locals: cN constants, pN and sN the
    prefix and path of body atom N's fact, xN variable N, tN pair steps,
    dN sets of bindings, relN, ixN and unN the relations read."""

    def __init__(self, shape):
        body, head = shape
        self.read: Set[int] = set()   # the constants the code reads
        self.top: List[str] = []
        self.lines: List[str] = []
        self.depth = 1     # indentation of the next line
        self.loops = 0     # loops enclosing it
        self.names: Dict[int, str] = {}   # bound variable -> local
        self.ntemp = 0
        uses = Counter(v for a in body + (head,) for v in sum(_vars(a), []))
        # a variable used once is bound nowhere else and read by nothing
        self.once = {v for v, n in uses.items() if n == 1}
        for i, atom in enumerate(body):
            self.join(i, atom)
            if i < len(body) - 1 and self.loops >= 16:
                # CPython nests at most 20 blocks
                self.collect(i, sorted(self.names))
        if head[3] is None:
            self.emit("add(%s)" % self.prefix(head))
        else:
            self.emit("add((%s, %s))" % (self.prefix(head), self.path(head)))

    def source(self) -> str:
        top = ["add = out.add"]
        top += ["c%d = consts[%d]" % (k, k) for k in sorted(self.read)]
        return "\n".join(
            ["def rule(bin_rels, un_rels, index, out, consts):"]
            + ["    " + s for s in top + self.top] + self.lines) + "\n"

    # code

    def constant(self, k: int) -> str:
        """The local holding constant k."""
        self.read.add(k)
        return "c%d" % k

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
        if type(p) is int:
            self.bind(p, expr)
        elif p[0] == "L":
            self.guard("%s != %s" % (expr, self.constant(p[1])))
        elif p[0] == "N":
            self.guard("%s == %s" % (expr, self.constant(p[1])))
            self.bind(p[2], expr)
        else:
            if not expr.isidentifier():
                self.ntemp += 1
                self.emit("t%d = %s" % (self.ntemp, expr))
                expr = "t%d" % self.ntemp
            self.guard("type(%s) is not tuple" % expr)
            self.match(p[1], expr + "[0]")
            self.match(p[2], expr + "[1]")

    def join(self, i: int, atom) -> None:
        # last: the rest variable, or whether a unary atom is negated
        pred, pre, ext, items, last = atom
        pred = self.constant(pred)
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
        """Gather the distinct bindings of the variables bound so far into
        a set and loop over it, so the next atom's loops nest from the
        top again."""
        d, key = "d%d" % i, [self.names[v] for v in live]
        self.top.append("%s = set()" % d)
        self.emit("%s.add(%s)" % (d, key[0] if len(key) == 1 else
                                  _tuple(key)))
        self.depth, self.loops = 1, 0
        self.names = {v: "x%d" % v for v in live}
        self.loop("for %s in %s:" % (
            ", ".join(self.names.values()) or "()", d))

    def term(self, p) -> str:
        if type(p) is int:
            return self.names[p]
        if p[0] == "L":
            return self.constant(p[1])
        if p[0] == "P":
            return "(%s, %s)" % (self.term(p[1]), self.term(p[2]))
        return self.names[p[2]]

    def prefix(self, atom) -> str:
        pre, ext = atom[1], atom[2]
        var = "()" if pre is None else self.names[pre]
        if not ext:
            return var
        ext = _tuple([self.term(p) for p in ext])
        return ext if pre is None else "%s + %s" % (var, ext)

    def path(self, atom) -> str:
        items, rest = atom[3], atom[4]
        if rest is None:
            return _tuple([self.term(p) for p in items])
        if not items:
            return self.names[rest]
        return "%s + %s" % (_tuple([self.term(p) for p in items]),
                            self.names[rest])


def _tuple(exprs: List[str]) -> str:
    return "(%s,)" % exprs[0] if len(exprs) == 1 else \
        "(%s)" % ", ".join(exprs)


_RULES: Dict[tuple, Callable] = {}


def _rule_fn(shape) -> Callable:
    """The function running every rule of this shape, made once."""
    fn = _RULES.get(shape)
    if fn is None:
        scope: dict = {}
        exec(_RuleSource(shape).source(), scope)
        fn = _RULES[shape] = scope["rule"]
    return fn


def eval_lp(prog: LogicProgram, facts: Optional[dict] = None):
    """Evaluate bottom-up, running prog.rules in their order, which
    must be an evaluation order (see LogicProgram). facts maps predicate
    names to sets of (prefix, path) pairs supplied externally (e.g. the
    encoded input value under prog.input_pred). Returns (binary, unary)
    relations."""
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

    for r in prog.rules:
        out = (un_rels if r.shape[1][3] is None else bin_rels) \
            .setdefault(r.head, set())
        _rule_fn(r.shape)(bin_rels, un_rels, index, out, r.consts)
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
    body, head = r.shape
    s = _print_atom(r, r.head, head)
    if body:
        s = "%s :- %s." % (s, ", ".join(_print_atom(r, r.consts[a[0]], a)
                                         for a in body))
    else:
        s += "."
    if r.comment:
        s += "  % " + r.comment
    return s


def _print_atom(r: Rule, pred: str, atom) -> str:
    _, pre, ext, items, last = atom
    arg1 = ".".join(["e" if pre is None else r.names[pre]]
                    + [_print_pat(r, p) for p in ext])
    if items is None:
        return "%s%s(%s)" % ("not " if last else "", print_atom(pred), arg1)
    arg2 = [_print_pat(r, p) for p in items]
    if last is not None:
        arg2.append(r.names[last])
    return "%s(%s, %s)" % (print_atom(pred), arg1, ".".join(arg2))


def _print_pat(r: Rule, p) -> str:
    if type(p) is int:
        return r.names[p]
    if p[0] == "L":
        c = r.consts[p[1]]
        if type(c) is str and _VAR_RE.fullmatch(c):
            # quoted, or it would read back as a variable
            return '"%s"' % c
        return print_term(c)
    if p[0] == "N":
        return "%s\\%s" % (r.names[p[2]], print_atom(r.consts[p[1]]))
    parts = []
    while type(p) is tuple and p[0] == "P":
        parts.append(_print_pat(r, p[1]))
        p = p[2]
    return "(%s)" % ".".join(parts + [_print_pat(r, p)])


_VAR_RE = re.compile(r"[ijkuvw][0-9]*$")


def parse_lp(text: str) -> LogicProgram:
    """The program text spells, as print_lp prints it. Its rules must be
    in evaluation order (see LogicProgram): a rule that reads its own
    head, or a rule for a predicate that an earlier rule read, is
    refused."""
    rules: List[Rule] = []
    goal = None
    input_pred = None
    arity: Dict[str, bool] = {}   # predicate -> whether it is unary
    read: Set[str] = set()        # the predicates earlier rules read
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            body = line[1:].strip()
            if body.startswith("goal:"):
                goal = body[len("goal:"):].strip()
            continue
        rule = _parse_rule(line, raw)
        body, head = rule.shape
        if input_pred is None and not body:
            input_pred = rule.head
        for pred, a in [(rule.head, head)] + [(rule.consts[a[0]], a)
                                              for a in body]:
            if arity.setdefault(pred, a[3] is None) is not (a[3] is None):
                raise ValueError_("predicate %s is used both as unary and "
                                  "as binary in %r" % (pred, raw))
        _check_safe(rule, raw)
        reads = {rule.consts[a[0]] for a in body}
        if rule.head in reads:
            raise ValueError_("recursive predicate %s in %r"
                              % (rule.head, raw))
        if rule.head in read:
            raise ValueError_("predicate %s is read by an earlier rule, so "
                              "%r is out of evaluation order"
                              % (rule.head, raw))
        read |= reads
        rules.append(rule)
    if goal is None:
        if not rules:
            raise ValueError_("empty program")
        goal = rules[-1].head
    return LogicProgram(rules, goal, input_pred or "input")


def _parse_rule(line: str, raw: str) -> Rule:
    """The rule that line, stripped, spells; raw is the line as given,
    for error messages."""
    line, comment = _split(line, "%")
    line, comment = line.strip(), (comment or "").strip()
    if not line.endswith("."):
        raise ValueError_("rule must end with '.': %r" % raw)
    head_s, body_s = _split(line[:-1], ":-")
    rd = _Reader()
    body = () if body_s is None else rd.atoms(body_s)
    sc = _Scanner(head_s.strip())
    pred, head = rd.atom(sc, True)
    if not sc.at_end():
        sc.error("trailing input in atom")
    if head[3] is None and head[4]:
        raise ValueError_("negated head in %r" % raw)
    return Rule(pred, (body, head), tuple(rd.consts), tuple(rd.ids),
                comment)


def _split(line: str, sep: str) -> Tup[str, Optional[str]]:
    """line up to the first sep outside a quoted atom, and what follows
    that sep (None without one)."""
    sc = _Scanner(line)
    while sc.pos < len(line):
        if line.startswith(sep, sc.pos):
            return line[:sc.pos], line[sc.pos + len(sep):]
        if sc.peek() != '"':
            sc.pos += 1
            continue
        try:
            sc.atom()
        except ValueError_:
            break   # unterminated: the atom's parser reports it
    return line, None


class _Reader:
    """Reads the atoms of one rule into atom shapes, numbering variables
    and constants as it meets them (see Rule)."""

    def __init__(self):
        self.ids: Dict[str, int] = {}   # variable name -> number
        self.consts: list = []

    def var(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))

    def const(self, c) -> int:
        self.consts.append(c)
        return len(self.consts) - 1

    def atoms(self, s: str) -> tuple:
        sc = _Scanner(s)
        out = [self.atom(sc)[1]]
        while sc.try_tok(","):
            out.append(self.atom(sc)[1])
        if not sc.at_end():
            sc.error("trailing input in rule body")
        return tuple(out)

    def atom(self, sc: _Scanner, head: bool = False):
        """The predicate and the shape of the next atom; a body atom's
        predicate is a constant."""
        sc.skip_ws()
        negated = bool(sc.try_tok("not "))
        pred = sc.atom()
        k = None if head else self.const(pred)
        sc.expect("(")
        pre, ext = self.prefix(sc)
        if sc.try_tok(")"):
            return pred, (k, pre, ext, None, negated)
        sc.expect(",")
        items = [self.step(sc)]
        while sc.try_tok("."):
            items.append(self.step(sc))
        rest = items.pop() if type(items[-1]) is int else None
        sc.expect(")")
        if negated:
            sc.error("only unary atoms may be negated")
        return pred, (k, pre, ext, tuple(items), rest)

    def prefix(self, sc: _Scanner):
        """A prefix variable (None for e) and its extension."""
        sc.skip_ws()
        first = sc.atom()
        if first not in ("e", "X") and not _VAR_RE.fullmatch(first):
            sc.error("prefix must start with a variable or e")
        pre = None if first == "e" else self.var(first)
        ext = []
        while sc.try_tok("."):
            ext.append(self.step(sc))
        return pre, tuple(ext)

    def step(self, sc: _Scanner):
        sc.skip_ws()
        if sc.try_tok("("):
            parts = [self.step(sc)]
            while sc.try_tok("."):
                parts.append(self.step(sc))
            sc.expect(")")
            out = parts.pop()
            for p in reversed(parts):
                out = ("P", p, out)
            return out
        for mark in (MARK_EMPTY, MARK_UNIT):
            if sc.try_tok(mark.text):
                return ("L", self.const(mark))
        quoted = sc.peek() == '"'
        word = sc.atom()
        if quoted or not _VAR_RE.fullmatch(word):
            return ("L", self.const(word))
        if sc.try_tok("\\"):
            return ("N", self.const(sc.atom()), self.var(word))
        return self.var(word)
