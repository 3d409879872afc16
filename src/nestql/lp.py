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
reads, and joins a rule's body atoms by hash join. Each rule is planned
once per call. An atom whose prefix earlier atoms have bound reads only
the facts under that prefix, from the relation's prefix index (a unary
one is a membership test); any other atom scans its relation. Where a
variable dies, the environments are projected onto the live ones and
deduplicated. See the Evaluation section.

In rule text, identifiers i, j, k, u, v, w (optionally digit-suffixed)
are variables, X is the prefix variable and e is the empty prefix;
everything else is a label.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple as Tup

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
# directly or not). Each rule is planned once, when it runs: for every
# body atom the plan records whether variables bound by the atoms before
# it fix its whole prefix (a variable, or e, with no extension), and
# which variables are still live after it (read by a later atom or by
# the head). The atoms then run left to right over a list of
# environments (dicts from variables to values):
#   - an atom with a fixed prefix takes only the facts under that prefix,
#     from the relation's prefix index; the index maps each prefix to its
#     paths and is built once per relation, on first use. A unary atom
#     with a fixed prefix is a set-membership test, as negation is;
#   - any other atom (every first atom with a prefix variable, and atoms
#     with a prefix extension or a prefix variable not bound yet) scans
#     its whole relation.
# Where a variable dies after an atom (no later atom and not the head
# reads it), the environments are projected onto the live variables and
# deduplicated: the join then runs once per distinct live binding, not
# once per fact that only differs in a dead variable. Heads are sets, so
# the projection changes no result.
#
# Matching interprets an atom's patterns fact by fact. Most rules of
# compiled programs read one or two facts, so building a specialised
# matcher per rule costs more than it saves. Facts hold paths of plain
# steps (see detree), so matching compares and hashes them natively.
#
# Rules are assumed safe: compile_lp emits only safe rules, and parse_lp
# rejects the others (see _check_safe).

_UNBOUND = object()


def _bind(env: dict, name: str, value) -> bool:
    old = env.get(name, _UNBOUND)
    if old is _UNBOUND:
        env[name] = value
        return True
    return old == value


def _match_term(pat: TPat, t: Step, env: dict) -> bool:
    if type(pat) is PLab:
        return t == pat.term
    if type(pat) is PPair:
        return (type(t) is tuple and _match_term(pat.left, t[0], env)
                and _match_term(pat.right, t[1], env))
    if type(pat) is PVarNe and t == pat.exclude:
        return False
    return _bind(env, pat.name, t)


def _match(atom, pre: Path, path: Path, env: dict) -> Optional[dict]:
    """env extended by matching the atom against the fact (pre, path), or
    None; a unary atom ignores path."""
    ext, var = atom.arg1.ext, atom.arg1.var
    m = len(pre) - len(ext)
    if m < 0 or (var is None and m):
        return None
    e = dict(env)
    if type(atom) is BinAtom:
        items, rest = atom.arg2.items, atom.arg2.rest
        n = len(items)
        # a rest variable covers at least one step, so a bare marker leaf
        # never counts as a set member
        if len(path) != n if rest is None else len(path) <= n:
            return None
        for p, t in zip(items, path):
            if type(p) is PLab:
                if t != p.term:
                    return None
            elif not _match_term(p, t, e):
                return None
        if rest is not None and not _bind(e, rest, path[n:]):
            return None
    for p, t in zip(ext, pre[m:]):
        if not _match_term(p, t, e):
            return None
    if var is not None and not _bind(e, var, pre[:m]):
        return None
    return e


def _inst_term(pat: TPat, env: dict) -> Step:
    if type(pat) is PLab:
        return pat.term
    if type(pat) is PPair:
        return (_inst_term(pat.left, env), _inst_term(pat.right, env))
    return env[pat.name]


def _inst(atom, env: dict):
    """The atom's fact under env: (prefix, path), or the prefix alone for
    a unary atom."""
    arg1 = atom.arg1
    pre = () if arg1.var is None else env[arg1.var]
    if arg1.ext:
        pre = pre + tuple([_inst_term(p, env) for p in arg1.ext])
    if type(atom) is UnAtom:
        return pre
    path = tuple([_inst_term(p, env) for p in atom.arg2.items])
    if atom.arg2.rest is not None:
        path = path + env[atom.arg2.rest]
    return pre, path


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


def _names(atom) -> Set[str]:
    """The variables of an atom."""
    return set().union(*_vars(atom))


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


def _plan(r: Rule):
    """(atom, fixed, live) for each body atom of r: fixed tells whether
    the atoms before it bind its whole prefix; live lists the variables
    bound so far that a later atom or the head reads, or is None where
    none of them dies there (the last atom's matches go to the head)."""
    plan, bound = [], set()
    last = len(r.body) - 1
    for i, atom in enumerate(r.body):
        var = atom.arg1.var
        fixed = not atom.arg1.ext and (var is None or var in bound)
        live = None
        if i < last:
            if not (type(atom) is UnAtom and atom.negated):
                bound |= _names(atom)
            later = _names(r.head).union(*map(_names, r.body[i + 1:]))
            if not later.issuperset(bound):
                live = sorted(bound & later)
        plan.append((atom, fixed, live))
    return plan


def _apply(r: Rule, bin_rels, un_rels, index) -> None:
    """Add the facts rule r derives. index(pred) maps each prefix of the
    binary relation pred to its paths."""
    head = r.head
    out = (bin_rels if type(head) is BinAtom else un_rels).setdefault(
        head.pred, set())
    envs = [{}]
    for atom, fixed, live in _plan(r):
        if type(atom) is UnAtom and (fixed or atom.negated):
            rel = un_rels.get(atom.pred, ())
            found = [e for e in envs
                     if (_inst(atom, e) in rel) != atom.negated]
        elif fixed:
            by_prefix, var = index(atom.pred), atom.arg1.var
            found = []
            for env in envs:
                pre = () if var is None else env[var]
                for path in by_prefix.get(pre, ()):
                    e = _match(atom, pre, path, env)
                    if e is not None:
                        found.append(e)
        else:
            if type(atom) is BinAtom:
                facts = bin_rels.get(atom.pred, ())
            else:
                facts = [(pre, ()) for pre in un_rels.get(atom.pred, ())]
            found = []
            for env in envs:
                for pre, path in facts:
                    e = _match(atom, pre, path, env)
                    if e is not None:
                        found.append(e)
        if live is not None:
            # one environment per distinct binding of the live variables
            key = itemgetter(*live) if live else (lambda e: ())
            found = list({key(e): e for e in found}.values())
        envs = found
        if not envs:
            return
    for e in envs:
        out.add(_inst(head, e))


def _topo_preds(by_head: Dict[str, List[Rule]]) -> List[str]:
    """Every predicate, each after the predicates its rules read; by_head
    maps each head predicate to its rules."""
    order: List[str] = []
    state: Dict[str, int] = {}

    def visit(p: str):
        state[p] = 1
        for r in by_head.get(p, ()):
            for a in r.body:
                s = state.get(a.pred)
                if s is None:
                    visit(a.pred)
                elif s == 1:
                    raise ValueError_("recursive predicate %s" % a.pred)
        state[p] = 2
        order.append(p)

    for p in by_head:
        if p not in state:
            visit(p)
    return order


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
            _apply(r, bin_rels, un_rels, index)
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
