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

In rule text, identifiers i, j, k, u, v, w (optionally digit-suffixed)
are variables, X is the prefix variable and e is the empty prefix;
everything else is a label.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple as Tup

from .values import Value, ValueError_, _Scanner, print_atom
from . import ma
from .ma import MAExpr
from .detree import (
    Lab, MARK_EMPTY, MARK_UNIT, Path, PairT, PathSet, PathTerm,
    encode_det, print_term,
)


# ---------------------------------------------------------------------------
# Pattern and rule model

@dataclass(frozen=True)
class TPat:
    pass


@dataclass(frozen=True)
class PLab(TPat):
    term: PathTerm  # a label or a marker


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


def _plab(text: str) -> PLab:
    return PLab(Lab(text))


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
                c, what = _plab(q.label), "constant " + print_atom(q.label)
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
            self.emit(BinAtom(out, _ARG1_X, SuffixPat((_plab("s"),), "v")),
                      [BinAtom(inp, _ARG1_X, _V_REST)], "sng")
            return out
        if isinstance(q, ma.Proj):
            out = self.fresh()
            self.emit(
                BinAtom(out, _ARG1_X, _V_REST),
                [BinAtom(inp, _ARG1_X,
                         SuffixPat((_plab(q.label),), "v"))],
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
                            SuffixPat((_plab(l),), "v")),
                    [BinAtom(pf, _ARG1_X, _V_REST)], "create_tuple")
            return out
        if isinstance(q, ma.Union):
            return self.compile(
                ma.Compose(ma.TupleCons((("1", q.f), ("2", q.g))),
                           ma.UnionT()), inp, frame)
        if isinstance(q, ma.UnionT):
            out = self.fresh()
            for tag in ("1", "2"):
                self.emit(
                    BinAtom(out, _ARG1_X,
                            SuffixPat((PPair(_plab(tag), PVar("i")),), "v")),
                    [BinAtom(inp, _ARG1_X,
                             SuffixPat((_plab(tag), PVar("i")), "v"))],
                    "union")
            if self.empty_markers:
                self.emit(
                    BinAtom(out, _ARG1_X, _EMPTY_SUF),
                    [BinAtom(inp, _ARG1_X,
                             SuffixPat((_plab("1"), _EMPTY), None)),
                     BinAtom(inp, _ARG1_X,
                             SuffixPat((_plab("2"), _EMPTY), None))],
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
            pa = tuple(_plab(l) for l in q.pa)
            pb = tuple(_plab(l) for l in q.pb)
            self.emit(
                BinAtom(out, _ARG1_X,
                        SuffixPat((_plab("s"), _UNIT), None)),
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
            b = _plab(q.label)
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
                        SuffixPat((_plab("s"), _UNIT), None)),
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
                       SuffixPat((_plab("dummy"),), None)), [], "base fact")
    goal = c.compile(q, input_pred, input_pred)
    return LogicProgram(c.rules, goal, input_pred)


# ---------------------------------------------------------------------------
# Evaluation (bottom-up, stratified, predicate by predicate)

def _match_term(pat: TPat, t: PathTerm, env: dict) -> bool:
    if isinstance(pat, PLab):
        return t == pat.term
    if isinstance(pat, PVar):
        if pat.name in env:
            return env[pat.name] == t
        env[pat.name] = t
        return True
    if isinstance(pat, PVarNe):
        if isinstance(t, Lab) and t.text == pat.exclude:
            return False
        if pat.name in env:
            return env[pat.name] == t
        env[pat.name] = t
        return True
    assert isinstance(pat, PPair)
    return (isinstance(t, PairT) and _match_term(pat.left, t.left, env)
            and _match_term(pat.right, t.right, env))


def _match_prefix(pat: PrefixPat, pre: Path, env: dict) -> bool:
    k = len(pat.ext)
    if len(pre) < k:
        return False
    head, tail = pre[:len(pre) - k], pre[len(pre) - k:]
    if pat.var is None:
        if head:
            return False
    else:
        if pat.var in env:
            if env[pat.var] != head:
                return False
        else:
            env[pat.var] = head
    return all(_match_term(p, t, env) for p, t in zip(pat.ext, tail))


def _match_suffix(pat: SuffixPat, path: Path, env: dict) -> bool:
    n = len(pat.items)
    if pat.rest is None:
        if len(path) != n:
            return False
    elif len(path) < n + 1:
        # a rest variable must cover at least one step, so a bare marker
        # leaf never counts as a set member
        return False
    if not all(_match_term(p, t, env)
               for p, t in zip(pat.items, path[:n])):
        return False
    if pat.rest is not None:
        rest = path[n:]
        if pat.rest in env:
            return env[pat.rest] == rest
        env[pat.rest] = rest
    return True


def _inst_term(pat: TPat, env: dict) -> PathTerm:
    if isinstance(pat, PLab):
        return pat.term
    if isinstance(pat, (PVar, PVarNe)):
        return env[pat.name]
    return PairT(_inst_term(pat.left, env), _inst_term(pat.right, env))


def _inst_prefix(pat: PrefixPat, env: dict) -> Path:
    base = env[pat.var] if pat.var is not None else ()
    return tuple(base) + tuple(_inst_term(p, env) for p in pat.ext)


def _inst_suffix(pat: SuffixPat, env: dict) -> Path:
    out = tuple(_inst_term(p, env) for p in pat.items)
    if pat.rest is not None:
        out = out + tuple(env[pat.rest])
    return out


def _rule_deps(r: Rule):
    return [a.pred for a in r.body]


def _topo_preds(rules: List[Rule]) -> List[str]:
    by_head: Dict[str, List[Rule]] = {}
    for r in rules:
        by_head.setdefault(r.head.pred, []).append(r)
    order: List[str] = []
    state: Dict[str, int] = {}

    def visit(p: str):
        if state.get(p) == 2:
            return
        if state.get(p) == 1:
            raise ValueError_("recursive predicate %s" % p)
        state[p] = 1
        for r in by_head.get(p, []):
            for d in _rule_deps(r):
                visit(d)
        state[p] = 2
        order.append(p)

    for r in rules:
        visit(r.head.pred)
    return order


def eval_lp(prog: LogicProgram, facts: Optional[dict] = None):
    """Evaluate bottom-up. facts maps predicate names to sets of
    (prefix, path) pairs supplied externally (e.g. the encoded input
    value under prog.input_pred). Returns (binary, unary) relations."""
    bin_rels: Dict[str, Set[Tup[Path, Path]]] = {}
    un_rels: Dict[str, Set[Path]] = {}
    for p, fs in (facts or {}).items():
        bin_rels.setdefault(p, set()).update(fs)
    by_head: Dict[str, List[Rule]] = {}
    for r in prog.rules:
        by_head.setdefault(r.head.pred, []).append(r)
    for pred in _topo_preds(prog.rules):
        for r in by_head.get(pred, []):
            _apply(r, bin_rels, un_rels)
        bin_rels.setdefault(pred, set())
    return bin_rels, un_rels


def _apply(r: Rule, bin_rels, un_rels):
    envs = [dict()]
    for atom in r.body:
        new = []
        if isinstance(atom, BinAtom):
            rel = bin_rels.get(atom.pred, set())
            for env in envs:
                for pre, path in rel:
                    e = dict(env)
                    if (_match_prefix(atom.arg1, pre, e)
                            and _match_suffix(atom.arg2, path, e)):
                        new.append(e)
        else:
            rel = un_rels.get(atom.pred, set())
            if atom.negated:
                for env in envs:
                    pre = _inst_prefix(atom.arg1, env)
                    if pre not in rel:
                        new.append(env)
            else:
                for env in envs:
                    for pre in rel:
                        e = dict(env)
                        if _match_prefix(atom.arg1, pre, e):
                            new.append(e)
        envs = new
        if not envs:
            break
    head = r.head
    if isinstance(head, BinAtom):
        out = bin_rels.setdefault(head.pred, set())
        for env in envs:
            out.add((_inst_prefix(head.arg1, env),
                     _inst_suffix(head.arg2, env)))
    else:
        out = un_rels.setdefault(head.pred, set())
        for env in envs:
            out.add(_inst_prefix(head.arg1, env))


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
        if isinstance(t.term, Lab) and _VAR_RE.fullmatch(t.term.text):
            # quoted, or it would read back as a variable
            return '"%s"' % t.term.text
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
        rules.append(Rule(head, body, comment))
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
    return PLab(Lab(word))
