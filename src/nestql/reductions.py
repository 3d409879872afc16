"""Complexity-reduction constructions expressed as closed queries.

Three families of constructions live here:

- gen_doubly_exp builds a constant-free query whose set result has
  doubly exponential cardinality 2^(2^m) in the nesting parameter m.

- gen_tm_query compiles a nondeterministic Turing machine together with
  an input word into a Boolean query that is true iff the machine can
  accept within exactly 2^K steps on a tape of length 2^K. The query
  enumerates all tape contents as nested pairs of depth K, defines the
  one-step successor relation by zooming in on the window where two
  tapes differ, doubles reachability K times in Savitch style, and
  finally intersects with the accepting configurations. simulate_ntm
  is the direct breadth-first oracle for the same question.

- flat_encode turns a value built from atoms, binary pairs, and sets
  into three flat relations over string positions (atomic/set/pair),
  and gen_vtau builds, per type, the query that reassembles the
  original value from those relations.

Machine tapes use an explicit reserved left-boundary symbol; inputs
are implicitly prefixed with it and machines must never move left of
it. The head position is encoded by replacing the symbol under the
head with a marked copy, so the working alphabet internally doubles.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Sequence, Tuple as Tup

from .values import (
    ATOMIC, Atom, Coll, MON, SET, Tuple, UNIT, Value, ValueError_,
    make_coll, make_tuple, record, _Scanner,
)
from . import ma
from .ma import (
    CAnd, CNot, COr, CartProd, Compose, Const, EqAtomic, EqMon, Flatten,
    FlatMap, Id, MAExpr, Map, PairWith, PathEqConst, PathEqPath, Proj,
    Proj_chain, SelCond, Select, Sng, TupleCons, Union, UnitTuple, compose,
)


BOUNDARY = "#b"
BLANK = "#"
_MARK = "m#"


def marker(sym: str) -> str:
    """The marked copy of a tape symbol, denoting the head position."""
    return _MARK + sym


# ---------------------------------------------------------------------------
# Machine descriptions

Transition = Tup[str, str, str, str, int]


@record
class TMSpec:
    """A nondeterministic Turing machine over atoms.

    delta entries read (state, symbol, new state, written symbol, move)
    with move in {-1, 0, +1}. Final states must carry an explicit
    stay-put self-loop on every symbol so that accepting runs can idle
    out the remaining step budget.
    """

    states: Tup[str, ...]
    alphabet: Tup[str, ...]
    start: str
    finals: Tup[str, ...]
    delta: Tup[Transition, ...]

    def delta_map(self) -> Dict[Tup[str, str], List[Tup[str, str, int]]]:
        out: Dict[Tup[str, str], List[Tup[str, str, int]]] = {}
        for q, s, q2, s2, mv in self.delta:
            out.setdefault((q, s), []).append((q2, s2, mv))
        return out


def validate_tm(tm: TMSpec) -> None:
    if BLANK not in tm.alphabet:
        raise ValueError_("machine alphabet must contain the blank %s"
                          % BLANK)
    if BOUNDARY not in tm.alphabet:
        raise ValueError_("machine alphabet must contain the boundary %s"
                          % BOUNDARY)
    for s in tm.alphabet:
        if s.startswith(_MARK):
            raise ValueError_("symbol %s collides with the marker prefix" % s)
    if tm.start not in tm.states:
        raise ValueError_("unknown start state %s" % tm.start)
    for f in tm.finals:
        if f not in tm.states:
            raise ValueError_("unknown final state %s" % f)
    dset = set(tm.delta)
    for q, s, q2, s2, mv in tm.delta:
        if q not in tm.states or q2 not in tm.states:
            raise ValueError_("transition uses unknown state: %s -> %s"
                              % (q, q2))
        if s not in tm.alphabet or s2 not in tm.alphabet:
            raise ValueError_("transition uses unknown symbol: %s -> %s"
                              % (s, s2))
        if mv not in (-1, 0, 1):
            raise ValueError_("bad move %r" % (mv,))
    for f in tm.finals:
        for s in tm.alphabet:
            if (f, s, f, s, 0) not in dset:
                raise ValueError_(
                    "final state %s lacks a self-loop on %s" % (f, s))


def parse_tm(text: str) -> TMSpec:
    """Parse the line format:

        states: q0 q1 qa
        alphabet: #b # 1
        start: q0
        final: qa
        delta: q0 #b -> q1 #b +1
    """
    states: List[str] = []
    alphabet: List[str] = []
    start = None
    finals: List[str] = []
    delta: List[Transition] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if ":" not in line:
            raise ValueError_("line %d: expected 'key: ...'" % ln)
        key, rest = line.split(":", 1)
        words = rest.split()
        if key == "states":
            states.extend(words)
        elif key == "alphabet":
            alphabet.extend(words)
        elif key == "start":
            (start,) = words
        elif key == "final":
            finals.extend(words)
        elif key == "delta":
            if len(words) != 6 or words[2] != "->":
                raise ValueError_(
                    "line %d: expected 'delta: q s -> q2 s2 move'" % ln)
            mv = {"-1": -1, "0": 0, "+1": 1}.get(words[5])
            if mv is None:
                raise ValueError_("line %d: bad move %s" % (ln, words[5]))
            delta.append((words[0], words[1], words[3], words[4], mv))
        else:
            raise ValueError_("line %d: unknown key %s" % (ln, key))
    if start is None:
        raise ValueError_("missing start state")
    if BOUNDARY not in alphabet:
        alphabet.append(BOUNDARY)
    tm = TMSpec(tuple(states), tuple(alphabet), start, tuple(finals),
                tuple(delta))
    validate_tm(tm)
    return tm


def print_tm(tm: TMSpec) -> str:
    lines = ["states: " + " ".join(tm.states),
             "alphabet: " + " ".join(tm.alphabet),
             "start: " + tm.start,
             "final: " + " ".join(tm.finals)]
    for q, s, q2, s2, mv in tm.delta:
        lines.append("delta: %s %s -> %s %s %s"
                     % (q, s, q2, s2, {-1: "-1", 0: "0", 1: "+1"}[mv]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Direct simulation oracle

def simulate_ntm(tm: TMSpec, word: Sequence[str], steps: int) -> bool:
    """Breadth-first simulation for exactly `steps` transitions on a
    tape of length `steps`, the input implicitly prefixed with the
    boundary symbol and padded with blanks. A branch without an
    applicable transition dies; a branch whose head would fall off the
    right end dies; moving left of the boundary is an error. Accepts
    iff some surviving branch sits in a final state afterwards.
    """
    validate_tm(tm)
    tape0 = (BOUNDARY,) + tuple(word)
    if len(tape0) > steps:
        raise ValueError_("input of length %d does not fit a tape of "
                          "length %d" % (len(tape0), steps))
    for s in word:
        if s not in tm.alphabet or s == BOUNDARY:
            raise ValueError_("bad input symbol %s" % s)
    tape0 = tape0 + (BLANK,) * (steps - len(tape0))
    dmap = tm.delta_map()
    configs = {(tm.start, 0, tape0)}
    for _ in range(steps):
        nxt = set()
        for q, pos, tape in configs:
            for q2, s2, mv in dmap.get((q, tape[pos]), ()):
                np = pos + mv
                if np < 0:
                    raise ValueError_("machine moved left of the boundary")
                if np >= len(tape):
                    continue
                nxt.add((q2, np, tape[:pos] + (s2,) + tape[pos + 1:]))
        configs = nxt
    return any(q in tm.finals for q, _, _ in configs)


# ---------------------------------------------------------------------------
# Doubly exponential cardinality

def gen_doubly_exp(m: int) -> MAExpr:
    """A closed query over set semantics whose result has exactly
    2^(2^m) elements: the two-element atom set squared m times by
    pairing with itself."""
    q: MAExpr = Union(compose(Const("0"), Sng()), compose(Const("1"), Sng()))
    for _ in range(m):
        q = Compose(q, CartProd(Id(), Id()))
    return q


# ---------------------------------------------------------------------------
# Query-construction helpers

def _pair(f: MAExpr, g: MAExpr) -> MAExpr:
    return TupleCons((("1", f), ("2", g)))


def _atom_set(labels: Sequence[str]) -> MAExpr:
    """The constant set of the given atoms."""
    return reduce(Union, [compose(Const(l), Sng()) for l in labels])


def _filter(gamma: MAExpr) -> MAExpr:
    """Selection by an arbitrary Boolean subquery: keep the elements x
    of the input collection with gamma(x) nonempty."""
    return FlatMap(ma.filter_body(gamma))


def _conj_bool(f: MAExpr, g: MAExpr) -> MAExpr:
    """Boolean conjunction of two Boolean subqueries."""
    return compose(CartProd(f, g), Map(UnitTuple()))


def _mon_eq_bool(pa: Tup[str, ...], pb: Tup[str, ...], depth: int) -> MAExpr:
    """A Boolean query deciding equality of two nested pairs of atoms
    of the given depth, found at tuple paths pa and pb of the input.

    The construction recurses once, not twice, per level: each side is
    split into a two-element set of tagged halves, matching tag pairs
    are filtered by equality one level down, and both halves are equal
    iff both tags survive. Its size is therefore linear in the depth.
    """
    if depth == 0:
        return EqAtomic(pa, pb)

    def split(p):
        tag = lambda t, pr: compose(
            TupleCons((("T", Const(t)), ("V", Proj(pr)))), Sng())
        return compose(Proj_chain(p), Union(tag("1", "1"), tag("2", "2")))

    matched = compose(
        CartProd(split(pa), split(pb)),
        Select(PathEqPath(("1", "T"), ("2", "T"), ATOMIC)),
        _filter(_mon_eq_bool(("1", "V"), ("2", "V"), depth - 1)),
        Map(Proj_chain(("1", "T"))))
    return compose(matched, CartProd(Id(), Id()),
                   Select(CNot(PathEqPath(("1",), ("2",), ATOMIC))),
                   Map(UnitTuple()))


def _sel_mon(pa, pb, depth: int, expand: bool) -> MAExpr:
    if expand:
        return _filter(_mon_eq_bool(pa, pb, depth))
    return Select(PathEqPath(pa, pb, MON))


def _config_eq_bool(pa, pb, depth: int, expand: bool) -> MAExpr:
    if expand:
        return _conj_bool(_mon_eq_bool(pa + ("t",), pb + ("t",), depth),
                          EqAtomic(pa + ("q",), pb + ("q",)))
    return EqMon(pa, pb)


def _sel_config_eq(pa, pb, depth: int, expand: bool) -> MAExpr:
    if expand:
        return _filter(_config_eq_bool(pa, pb, depth, expand))
    return Select(PathEqPath(pa, pb, MON))


def _build_tape(symbols: Sequence[str]) -> MAExpr:
    """Constant query for a tape given as a flat symbol sequence of
    power-of-two length, nested as balanced pairs."""
    if len(symbols) == 1:
        return Const(symbols[0])
    h = len(symbols) // 2
    return _pair(_build_tape(symbols[:h]), _build_tape(symbols[h:]))


# ---------------------------------------------------------------------------
# The acceptance query

def gen_start_config(tm: TMSpec, word: Sequence[str], K: int) -> MAExpr:
    """Closed query building the start configuration: the boundary plus
    the input, blank-padded to tape length 2^K, head marker on the
    boundary, paired with the start state."""
    for s in word:
        if s not in tm.alphabet or s == BOUNDARY:
            raise ValueError_("bad input symbol %s" % s)
    tape0 = (BOUNDARY,) + tuple(word)
    n = len(tape0)
    if n > 2 ** K:
        raise ValueError_("input of length %d does not fit a tape of "
                          "length %d" % (n, 2 ** K))
    k0 = 0
    while 2 ** k0 < n:
        k0 += 1
    padded = tape0 + (BLANK,) * (2 ** k0 - n)
    phi_x = _build_tape((marker(padded[0]),) + padded[1:])
    if K == k0:
        phi_start = phi_x
    else:
        phi_empty = compose(Const(BLANK), *( _pair(Id(), Id()) ,) * k0)
        phi_pad = TupleCons((("1", Id()),
                             ("2", _pair(Proj("2"), Proj("2")))))
        phi_start = compose(_pair(phi_x, phi_empty),
                            *(phi_pad,) * (K - k0 - 1))
    return TupleCons((("t", phi_start), ("q", Const(tm.start))))


def gen_tm_query(tm: TMSpec, word: Sequence[str], K: int,
                 expand_eq: bool = False) -> MAExpr:
    """Boolean closed query, true iff tm can accept the word within
    exactly 2^K steps on a tape of length 2^K.

    With expand_eq the structural-equality selections are spelled out
    via _mon_eq_bool (total size quadratic in K); without it they stay
    single selection operators (total size linear in K).
    """
    validate_tm(tm)
    if not tm.finals:
        # simulation rejects on such a machine; the query has no union
        # of accepting states to build
        raise ValueError_("machine has no final state")
    c_start = gen_start_config(tm, word, K)

    # all configurations, the accepting ones
    configs = tm_configs_query(tm, K)
    accepting = compose(configs, reduce(
        Union, [Select(PathEqConst(("q",), f)) for f in tm.finals]))

    phi_succ = compose(configs, *_step_stages(tm, K, expand_eq))

    # Savitch-style doubling: psi after i rounds relates configurations
    # exactly 2^i steps apart
    psi = phi_succ
    for _ in range(K):
        psi = compose(
            psi, CartProd(Id(), Id()),
            _sel_config_eq(("1", "2"), ("2", "1"), K, expand_eq),
            Map(TupleCons((("1", Proj_chain(("1", "1"))),
                           ("2", Proj_chain(("2", "2")))))))

    reached = compose(_pair(c_start, psi), PairWith("2"),
                      _sel_config_eq(("1",), ("2", "1"), K, expand_eq),
                      Map(Proj_chain(("2", "2"))))
    return compose(CartProd(reached, accepting),
                   Map(_config_eq_bool(("1",), ("2",), K, expand_eq)),
                   Flatten())


def tm_configs_query(tm: TMSpec, K: int) -> MAExpr:
    """Closed query for the set of all configurations <t: tape, q: state>
    of tm at K: every tape of length 2^K over the symbols and their
    marked copies, with every state."""
    sigma = tuple(tm.alphabet)
    sigma_prime = sigma + tuple(marker(s) for s in sigma)
    tapes = compose(_atom_set(sigma_prime),
                    *(CartProd(Id(), Id()),) * K)
    return compose(CartProd(tapes, _atom_set(tm.states)),
                   Map(TupleCons((("t", Proj("1")), ("q", Proj("2"))))))


def tm_step_query(tm: TMSpec, K: int, expand_eq: bool = False) -> MAExpr:
    """The successor relation inside the acceptance query: from a set of
    configurations, the pairs <1: c, 2: d> of them with d one step of tm
    after c."""
    return compose(*_step_stages(tm, K, expand_eq))


def _step_stages(tm: TMSpec, K: int, expand_eq: bool) -> List[MAExpr]:
    sigma = tuple(tm.alphabet)

    # pairs of configurations with their difference windows; field v
    # plays the primed copy of w
    prepare = [
        CartProd(Id(), Id()),
        Map(TupleCons((("s", Id()),
                       ("w", Proj_chain(("1", "t"))),
                       ("v", Proj_chain(("2", "t"))))))]

    def zoom(d: int) -> MAExpr:
        keep = lambda side: compose(
            _sel_mon(("w", side), ("v", side), d - 1, expand_eq),
            Map(TupleCons((
                ("s", Proj("s")),
                ("w", Proj_chain(("w", {"1": "2", "2": "1"}[side]))),
                ("v", Proj_chain(("v", {"1": "2", "2": "1"}[side])))))))
        swap = TupleCons((("1", Proj_chain(("1", "2"))),
                          ("2", Proj_chain(("2", "1")))))
        middle = compose(
            _sel_mon(("w", "1", "1"), ("v", "1", "1"), d - 2, expand_eq),
            _sel_mon(("w", "2", "2"), ("v", "2", "2"), d - 2, expand_eq),
            Map(TupleCons((("s", Proj("s")),
                           ("w", compose(Proj("w"), swap)),
                           ("v", compose(Proj("v"), swap))))))
        return reduce(Union, [keep("2"), keep("1"), middle])

    witness = prepare + [zoom(d) for d in range(K, 1, -1)] + [reduce(
        Union, [Select(PathEqConst(("w", h), marker(s)))
                for h in ("1", "2") for s in sigma])]

    def gamma(q: str, s: str, q2: str, s2: str, mv: int) -> SelCond:
        at = PathEqConst
        state = CAnd(at(("s", "1", "q"), q), at(("s", "2", "q"), q2))
        if mv == 1:
            win = reduce(CAnd, [
                at(("w", "1"), marker(s)), at(("v", "1"), s2),
                reduce(COr, [CAnd(at(("w", "2"), x),
                                  at(("v", "2"), marker(x))) for x in sigma])])
        elif mv == -1:
            win = reduce(CAnd, [
                at(("w", "2"), marker(s)), at(("v", "2"), s2),
                reduce(COr, [CAnd(at(("w", "1"), x),
                                  at(("v", "1"), marker(x))) for x in sigma])])
        else:
            side = lambda a, b: reduce(CAnd, [
                at(("w", a), marker(s)), at(("v", a), marker(s2)),
                reduce(COr, [CAnd(at(("w", b), x), at(("v", b), x))
                             for x in sigma])])
            win = COr(side("1", "2"), side("2", "1"))
        return CAnd(state, win)

    return witness + [reduce(Union, [Select(gamma(*tr)) for tr in tm.delta]),
                      Map(Proj("s"))]


def tm_query_sizes(tm: TMSpec, word: Sequence[str], K: int) -> Tup[int, int]:
    """(built-in, expanded) AST sizes of the acceptance query."""
    return (ma.ast_size(gen_tm_query(tm, word, K, expand_eq=False)),
            ma.ast_size(gen_tm_query(tm, word, K, expand_eq=True)))


def decide_tm_query(tm: TMSpec, word: Sequence[str], K: int,
                    expand_eq: bool = False) -> bool:
    out = ma.eval_ma(gen_tm_query(tm, word, K, expand_eq), UNIT, SET)
    return bool(out.elems)


# the largest configuration-pair space the checks and the demo script
# decide; above it a machine is skipped. The acceptor at K=2 has
# 15,116,544 pairs.
MAX_CONFIG_PAIRS = 2 * 10 ** 7


def tm_configs(tm: TMSpec, K: int) -> int:
    """Number of configurations <t: tape, q: state> of tm at K."""
    return (2 * len(tm.alphabet)) ** (2 ** K) * len(tm.states)


def tm_config_space(tm: TMSpec, K: int) -> int:
    """Number of configuration pairs the successor construction must
    enumerate; a cheap feasibility estimate for evaluation."""
    return tm_configs(tm, K) ** 2


def tm_config_nodes(tm: TMSpec, K: int) -> int:
    """Value nodes of the configuration set: each configuration is a
    tuple of a state and a tape of 2^K cells as nested pairs, 2^(K+1) + 1
    nodes in all."""
    return tm_configs(tm, K) * (2 ** (K + 1) + 1)


# ---------------------------------------------------------------------------
# Bundled machines

ACCEPTOR = TMSpec(
    states=("q0", "q1", "qa"),
    alphabet=(BOUNDARY, BLANK, "1"),
    start="q0",
    finals=("qa",),
    delta=(
        ("q0", BOUNDARY, "q1", BOUNDARY, 1),
        ("q1", "1", "qa", "1", 0),
        ("qa", BOUNDARY, "qa", BOUNDARY, 0),
        ("qa", BLANK, "qa", BLANK, 0),
        ("qa", "1", "qa", "1", 0),
    ))
"""Deterministic; accepts iff the first input symbol is 1."""

REJECTOR = TMSpec(
    states=("q0", "qa"),
    alphabet=(BOUNDARY, BLANK),
    start="q0",
    finals=("qa",),
    delta=(
        ("q0", BOUNDARY, "q0", BOUNDARY, 0),
        ("qa", BOUNDARY, "qa", BOUNDARY, 0),
        ("qa", BLANK, "qa", BLANK, 0),
    ))
"""Deterministic; idles on the boundary and never accepts."""

GUESSER = TMSpec(
    states=("q0", "qa"),
    alphabet=(BOUNDARY, BLANK, "1"),
    start="q0",
    finals=("qa",),
    delta=(
        ("q0", BOUNDARY, "q0", BOUNDARY, 1),
        ("q0", BLANK, "q0", BLANK, 1),
        ("q0", "1", "qa", "1", 0),
        ("q0", "1", "q0", "1", 1),
        ("qa", BOUNDARY, "qa", BOUNDARY, 0),
        ("qa", BLANK, "qa", BLANK, 0),
        ("qa", "1", "qa", "1", 0),
    ))
"""Nondeterministic; walks right and accepts iff it can stop on a 1
within the step budget."""

BUNDLED = {"acceptor": ACCEPTOR, "rejector": REJECTOR, "guesser": GUESSER}


# ---------------------------------------------------------------------------
# Flat position relations

def _flat_ser(v: Value, pos: int, atomic, sets, pairs) -> Tup[str, int]:
    """Serialize v starting at 1-based position pos, collecting facts.
    Returns the string and the next free position. Counts Unicode
    scalar values of the bracket serialization."""
    if isinstance(v, Atom):
        atomic.append((pos, v.label))
        return v.label, pos + len(v.label)
    if isinstance(v, Tuple):
        if len(v.vals) != 2:
            raise ValueError_("flat encoding needs binary tuples, got %d "
                              "fields" % len(v.vals))
        here = pos
        s1, p1 = _flat_ser(v.vals[0], pos + 1, atomic, sets, pairs)
        s2, p2 = _flat_ser(v.vals[1], p1 + 1, atomic, sets, pairs)
        pairs.append((here, pos + 1, p1 + 1))
        return "⟨" + s1 + "," + s2 + "⟩", p2 + 1
    if isinstance(v, Coll):
        if v.kind != SET:
            raise ValueError_("flat encoding covers sets only, got %s"
                              % v.kind)
        here = pos
        parts = []
        p = pos + 1
        for x in v.elems:
            sets.append((here, p))
            s, p = _flat_ser(x, p, atomic, sets, pairs)
            parts.append(s)
            p += 1  # the separating comma or the closing brace
        if not v.elems:
            p += 1
        return "{" + ",".join(parts) + "}", p
    raise ValueError_("cannot flat-encode %r" % (v,))


def flat_string(v: Value) -> str:
    """The bracket serialization whose positions the relations index."""
    return _flat_ser(v, 1, [], [], [])[0]


def flat_encode(v: Value) -> Value:
    """The three position relations of v as a tuple value with fields
    atomic, set, and pair; positions are numeral atoms."""
    atomic: list = []
    sets: list = []
    pairs: list = []
    _flat_ser(v, 1, atomic, sets, pairs)
    a = Atom
    return make_tuple((
        ("atomic", make_coll(SET, (
            make_tuple((("1", a(str(i))), ("2", a(w))))
            for i, w in atomic))),
        ("set", make_coll(SET, (
            make_tuple((("1", a(str(i))), ("2", a(str(j)))))
            for i, j in sets))),
        ("pair", make_coll(SET, (
            make_tuple((("1", a(str(i))), ("2", a(str(j))),
                        ("3", a(str(k)))))
            for i, j, k in pairs)))))


def print_flat(db: Value) -> str:
    """Fact lines like 'atomic(3, a).', sorted by relation and position."""
    if not isinstance(db, Tuple):
        raise ValueError_("expected a relation tuple")
    lines = []
    for name, rel in zip(db.labels, db.vals):
        facts = []
        for t in rel.elems:
            args = [x.label for x in t.vals]
            facts.append((int(args[0]), args))
        for _, args in sorted(facts):
            lines.append("%s(%s)." % (name, ", ".join(args)))
    return "\n".join(lines) + "\n" if lines else ""


def parse_flat(text: str) -> Value:
    rels: Dict[str, list] = {"atomic": [], "set": [], "pair": []}
    arity = {"atomic": 2, "set": 2, "pair": 3}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        sc = _Scanner(line)
        name = sc.atom()
        if name not in rels:
            sc.error("unknown relation %s" % name)
        sc.expect("(")
        args = [sc.atom()]
        while sc.try_tok(","):
            args.append(sc.atom())
        sc.expect(")")
        sc.expect(".")
        if len(args) != arity[name]:
            raise ValueError_("line %d: %s expects %d arguments"
                              % (ln, name, arity[name]))
        rels[name].append(make_tuple(
            (str(i + 1), Atom(a)) for i, a in enumerate(args)))
    return make_tuple((("atomic", make_coll(SET, rels["atomic"])),
                       ("set", make_coll(SET, rels["set"])),
                       ("pair", make_coll(SET, rels["pair"]))))


# ---------------------------------------------------------------------------
# Value reassembly from the position relations

from .values import CollType, DomType, TupleType, Type  # noqa: E402


def _restrict(s_query: MAExpr, v_query: MAExpr,
              flatten: bool = False) -> MAExpr:
    """The elements of the pair set s_query whose first component is
    the atom v_query, projected to their second components (optionally
    flattened when those are singleton sets)."""
    steps = [_pair(v_query, s_query), PairWith("2"),
             Select(PathEqPath(("1",), ("2", "1"), ATOMIC)),
             Map(Proj_chain(("2", "2")))]
    if flatten:
        steps.append(Flatten())
    return compose(*steps)


def gen_vtau(t: Type) -> MAExpr:
    """The query rebuilding, from the position-relation tuple of a
    value of type t, the set of pairs (node position, singleton of the
    value rooted there). On flat_encode(v) the pair at the root
    position 1 carries {v}; other positions carry whatever partial
    value is decodable at type t from there.

    Types are restricted to the flat-encodable ones: atoms, binary
    tuples, and nonempty sets (an empty set leaves no membership facts
    to recover its node from).
    """
    if isinstance(t, DomType):
        return compose(Proj("atomic"), Map(TupleCons((
            ("1", Proj("1")), ("2", compose(Proj("2"), Sng()))))))
    if isinstance(t, TupleType):
        if len(t.fields) != 2:
            raise ValueError_("flat reassembly needs binary tuples")
        t1 = t.fields[0][1]
        t2 = t.fields[1][1]
        side = lambda sub, idx: _restrict(
            compose(Proj("2"), gen_vtau(sub)),
            Proj_chain(("1", idx)), flatten=True)
        return compose(
            _pair(Proj("pair"), Id()), PairWith("1"),
            Map(TupleCons((
                ("1", Proj_chain(("1", "1"))),
                ("2", CartProd(side(t1, "2"), side(t2, "3")))))))
    if isinstance(t, CollType):
        if t.kind != SET:
            raise ValueError_("flat reassembly covers sets only")
        members = _restrict(compose(Proj("2"), Proj("set")), Proj("1"))
        collect = compose(
            _pair(members, Proj("2")),
            CartProd(Proj("1"), compose(Proj("2"), gen_vtau(t.elem))),
            Select(PathEqPath(("1",), ("2", "1"), ATOMIC)),
            Map(Proj_chain(("2", "2"))), Flatten(), Sng())
        return compose(
            _pair(compose(Proj("set"), Map(Proj("1"))), Id()),
            PairWith("1"),
            Map(TupleCons((("1", Proj("1")), ("2", collect)))))
    raise ValueError_("flat reassembly does not cover type %r" % (t,))


def gen_vprime(t: Type) -> MAExpr:
    """The query computing {v} from the position relations of v."""
    return compose(gen_vtau(t), Select(PathEqConst(("1",), "1")),
                   Map(Proj("2")), Flatten())
