"""Deterministic-tree semantics: values as sets of root-to-leaf paths.

A value is flattened to the set of its root-to-leaf paths over a single
binary pairing constructor. Steps are labels (atoms, tuple field names,
member indexes), the two reserved markers, or pairs of steps; pairs
arise when operations merge indexes (flatten) or tag them (union,
singleton). Steps are plain data: a label is its str, a pair is the
2-tuple (left, right), and a marker is one of two objects compared by
identity, so steps compare and hash as Python's own types do and an atom
spelled like a marker never equals one (in text, such an atom is
quoted). Whether a label names a field or an index is decided only when
decoding, by the type if one is given.

Queries in the atomic-equality core, with not and true but without the
bag-only monus and unique, are evaluated directly on path sets by
:func:`eval_det`, mirroring the rule-per-operation semantics used by
the logic-program compilation. No path tuple is ever sliced: a path set
is held as a trie, a dict from each first step to the trie of the rests
after it, in which the key None (never a step) marks that a path ends
there and every subtrie holds at least one path. Encoding builds a
value's trie, evaluation runs on the input's trie and decoding walks
one; path tuples are built from a trie once. Tries are never changed
once built, so a result shares the subtries of its input that it keeps.

Emptiness conventions: the constant empty collection and the nullary
tuple are the marker leaves "[]" and "<>". By default a computed-empty
collection (e.g. a failed equality test) is represented by the absence
of paths; :func:`decode_det` accepts a type to place those empties
correctly. With empty_markers set, "[]" is treated as a possibly-empty
marker and forwarded through every collection operation: a collection
whose path set holds the marker and nothing else is empty, while a
marker next to surviving content is ignored by decoding.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple as Tup, Union

from .values import (
    Atom, CollType, DomType, LIST, Tuple, TupleType, Type, UNIT,
    Value, ValueError_, make_coll, make_tuple, print_atom, read_lines,
    read_whole, _Scanner,
)
from . import ma
from .ma import ANY, AnyType, MAExpr


class Marker:
    """A reserved leaf step: "[]" for the empty collection, "<>" for the
    unit tuple. There are exactly two, MARK_EMPTY and MARK_UNIT; they
    compare and hash by identity, so a marker never equals the label of
    the same text."""
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return "Marker(%r)" % self.text


MARK_EMPTY = Marker("[]")
MARK_UNIT = Marker("<>")

# A step is a label (its str), a marker, or a pair: a 2-tuple of steps.
Step = Union[str, Marker, Tup]
Path = Tup[Step, ...]
PathSet = frozenset


def term_key(t: Step):
    """Total order on steps: labels and markers before pairs, numeral
    labels numerically, then the others byte-lexicographically; numerals
    of equal value by their text ("01" before "1"), and a label before
    the marker of the same text."""
    if type(t) is tuple:
        return (1, term_key(t[0]), term_key(t[1]))
    text, kind = (t, 0) if type(t) is str else (t.text, 1)
    if text.isdecimal():
        return (0, 0, int(text), text, kind)
    return (0, 1, 0, text, kind)


# ---------------------------------------------------------------------------
# Text format

def print_term(t: Step) -> str:
    if type(t) is str:
        return print_atom(t)
    if type(t) is not tuple:
        return t.text
    parts = [_wrap(t[0])]
    r = t[1]
    while type(r) is tuple:
        parts.append(_wrap(r[0]))
        r = r[1]
    parts.append(_wrap(r))
    return ".".join(parts)


def _wrap(t: Step) -> str:
    return "(%s)" % print_term(t) if type(t) is tuple else print_term(t)


def print_path(p: Path) -> str:
    return ".".join(_wrap(t) for t in p)


def print_pathset(v: Iterable[Path]) -> str:
    return "\n".join(sorted(print_path(p) for p in v))


def _parse_step(sc: _Scanner) -> Step:
    sc.skip_ws()
    if sc.try_tok("("):
        parts = [_parse_step(sc)]
        while sc.try_tok("."):
            parts.append(_parse_step(sc))
        sc.expect(")")
        return _fold_term(parts)
    for mark in (MARK_EMPTY, MARK_UNIT):
        if sc.try_tok(mark.text):
            return mark
    return sc.atom()


def _fold_term(parts) -> Step:
    if len(parts) == 1:
        return parts[0]
    return (parts[0], _fold_term(parts[1:]))


def parse_path(text: str) -> Path:
    """Parse a dotted path. Steps are plain labels or parenthesised
    pairs; whether a label names a tuple field or a member index is
    left to decoding (see :func:`decode_det`)."""
    def steps(sc):
        out = [_parse_step(sc)]
        while sc.try_tok("."):
            out.append(_parse_step(sc))
        return tuple(out)
    return read_whole(text, steps)


def parse_pathset(text: str) -> PathSet:
    """One path a line, read as it stands: positions count its blanks."""
    return frozenset(read_lines(text, parse_path))


# ---------------------------------------------------------------------------
# Encoding values

def encode_det(v: Value) -> PathSet:
    return _paths(_value_trie(v))


def _value_trie(v: Value) -> dict:
    """The trie of the paths of v."""
    if type(v) is Atom:
        return {v.label: _LEAF}
    if type(v) is Tuple:
        if not v.vals:
            return {MARK_UNIT: _LEAF}
        return {l: _value_trie(x) for l, x in zip(v.labels, v.vals)}
    if not v.elems:
        return {MARK_EMPTY: _LEAF}
    return {str(k): _value_trie(x) for k, x in enumerate(v.elems, 1)}


def check_deterministic(V: PathSet) -> bool:
    """No path is a proper prefix of another: in the trie of V, no path
    ends at a node that has children."""
    todo = [sub for s, sub in _trie(V).items() if s is not None]
    while todo:
        t = todo.pop()
        if None in t and len(t) > 1:
            return False
        todo.extend(sub for s, sub in t.items() if s is not None)
    return True


# ---------------------------------------------------------------------------
# Direct evaluation on path sets, held as tries (see the module text)

_LEAF = {None: True}   # the trie of the empty path alone
_NONE = {}             # the empty trie


def eval_det(q: MAExpr, V: PathSet, empty_markers: bool = False) -> PathSet:
    """Evaluate per the path-set rules. With empty_markers, every
    operation that can compute an empty collection leaves the
    possibly-empty marker "[]", so computed empties stay represented
    instead of decaying to path absence; decoding ignores the marker
    when member content survives next to it.

    q is compiled once per call into one closure per node, dispatched
    on its type, and the closures run over V as a trie. A result keeps
    its input's subtries without copying them: a map hands each
    member's subtrie to its body, projection is one lookup, pairwith
    puts the same field subtries beside every member, and flatten and
    union re-key the subtries below their first two steps. Paths are
    rebuilt once, from the result. Every walk along a path keeps an
    explicit stack, so long paths do not reach the recursion limit.
    """
    return _paths(_compile(q, empty_markers)(_trie(V)))


def _trie(V: Iterable[Path]) -> dict:
    """The trie of the paths V."""
    root = {}
    for p in V:
        t = root
        for s in p:
            t = t.setdefault(s, {})
        t[None] = True
    return root


def _paths(t: dict) -> PathSet:
    """The paths of the trie t, each built once."""
    out = []
    todo = [((), t)]
    while todo:
        pre, t = todo.pop()
        for s, sub in t.items():
            if s is None:
                out.append(pre)
            elif len(sub) == 1 and None in sub:
                out.append(pre + (s,))
            else:
                todo.append((pre + (s,), sub))
    return frozenset(out)


def _rests(t: dict) -> dict:
    """t without its empty path."""
    if None not in t:
        return t
    t = dict(t)
    del t[None]
    return t


def _ends(t: dict, step: Step) -> bool:
    """Whether t holds the one-step path (step,)."""
    sub = t.get(step)
    return sub is not None and None in sub


def _with_marker(out: dict) -> dict:
    """Add the marker path "[]" to the trie out, which this evaluation
    built and no other trie holds yet."""
    sub = out.get(MARK_EMPTY)
    out[MARK_EMPTY] = _LEAF if sub is None else {**sub, None: True}
    return out


def _pair_steps(out: dict, i: Step, t: dict) -> bool:
    """Put each path j.w of t with w nonempty into out as (i, j).w;
    returns whether t holds the one-step path "[]"."""
    marker = False
    for j, sub in t.items():
        if j is None:
            continue
        if None in sub:
            marker = marker or j is MARK_EMPTY
            sub = _rests(sub)
            if not sub:
                continue
        out[(i, j)] = sub
    return marker


def _meet(a: dict, b: dict) -> bool:
    """Whether tries a and b share a nonempty path. A subtrie holds a
    path, so one that both reach by the same steps is a shared one."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if len(b) < len(a):
            a, b = b, a
        for s, sa in a.items():
            if s is None:
                continue
            sb = b.get(s)
            if sb is None:
                continue
            if sa is sb or (None in sa and None in sb):
                return True
            todo.append((sa, sb))
    return False


def _compile(q: MAExpr, em: bool):
    """q as a function from a trie to a trie."""
    return _COMPILE.get(type(q), _d_unknown)(q, em)


def _d_unknown(q, em):
    why = ("it is bag-only, and path sets run list semantics"
           if type(q) in (ma.Monus, ma.Unique) else
           # desugar keeps it on collections only
           "deep equality on collections has no path-set rule"
           if type(q) is ma.EqDeep else "desugar first")

    def run(t):
        raise ValueError_("eval_det cannot handle %r; %s" % (q, why))
    return run


def _same(t):
    return t


def _d_leaf(step: Step):
    out = {step: _LEAF}
    return lambda t: out


def _d_sng(q, em):
    return lambda t: {"s": t} if t else _NONE


def _d_compose(q, em):
    stages = [_compile(s, em) for s in ma._flat(q, ma.Compose)
              if type(s) is not ma.Id]
    if not stages:
        return _same
    if len(stages) == 1:
        return stages[0]
    if len(stages) == 2:
        f, g = stages
        return lambda t: g(f(t))

    def run(t):
        for s in stages:
            t = s(t)
        return t
    return run


def _d_proj(q, em):
    head = q.label

    def run(t):
        sub = t.get(head)
        return _NONE if sub is None else _rests(sub)
    return run


def _d_tuple(q, em):
    if not q.fields:
        return _d_leaf(MARK_UNIT)
    fields = [(l, _compile(f, em)) for l, f in q.fields]

    def run(t):
        out = {}
        for l, f in fields:
            sub = f(t)
            if sub:
                if l in out:
                    # a label given twice gives the union of its fields
                    sub = _trie(_paths(out[l]) | _paths(sub))
                out[l] = sub
        return out
    return run


def _d_flatten(q, em):
    def run(t):
        out = {}
        marker = _ends(t, MARK_EMPTY)
        for i, sub in t.items():
            if i is not None and _pair_steps(out, i, sub):
                marker = True
        # outer collection empty, or some member collection empty:
        # either way the result may be empty; the marker is ignored by
        # decoding when member content survives alongside it
        return _with_marker(out) if em and marker else out
    return run


def _d_union_t(q, em):
    def run(t):
        out = {}
        empties = 0
        for tag in ("1", "2"):
            sub = t.get(tag)
            if sub is not None and _pair_steps(out, tag, sub):
                empties += 1
        return _with_marker(out) if em and empties == 2 else out
    return run


def _d_eq_atomic(q, em):
    pa, pb = q.pa, q.pb
    yes = {"s": {MARK_UNIT: _LEAF}}
    no = {MARK_EMPTY: _LEAF} if em else _NONE

    def run(t):
        a, b = t, t
        for s in pa:
            a = a.get(s)
            if a is None:
                return no
        for s in pb:
            b = b.get(s)
            if b is None:
                return no
        return yes if _meet(a, b) else no
    return run


def _d_test(q, em):
    """not and true: s.<> when the input has no member (not) or has one
    (true), else nothing ("[]" with markers). A member is a step other
    than None below which a nonempty path goes."""
    want = type(q) is ma.TrueOp
    yes = {"s": {MARK_UNIT: _LEAF}}
    no = {MARK_EMPTY: _LEAF} if em else _NONE

    def run(t):
        member = any(s is not None and (len(sub) > 1 or None not in sub)
                     for s, sub in t.items())
        return yes if member == want else no
    return run


def _d_map(q, em):
    f = _compile(q.f, em)

    def run(t):
        out = {}
        for i, sub in t.items():
            if i is None:
                continue
            sub = _rests(sub)
            if sub:
                sub = f(sub)
                if sub:
                    out[i] = sub
        return _with_marker(out) if em and _ends(t, MARK_EMPTY) else out
    return run


def _d_pairwith(q, em):
    head = q.label

    def run(t):
        members = t.get(head)
        if members is None:
            return _NONE
        siblings = {}
        for s, sub in t.items():
            if s is not None and s != head:
                sub = _rests(sub)
                if sub:
                    siblings[s] = sub
        out = {}
        for j, sub in members.items():
            if j is not None:
                sub = _rests(sub)
                if sub:
                    out[j] = {**siblings, head: sub}
        if em and _ends(members, MARK_EMPTY):
            return _with_marker(out)
        return out
    return run


_COMPILE = {
    ma.Sng: _d_sng, ma.Compose: _d_compose, ma.Proj: _d_proj,
    ma.TupleCons: _d_tuple, ma.Flatten: _d_flatten, ma.UnionT: _d_union_t,
    ma.EqAtomic: _d_eq_atomic, ma.Map: _d_map, ma.PairWith: _d_pairwith,
    ma.NotOp: _d_test, ma.TrueOp: _d_test,
    ma.Id: lambda q, em: _same,
    ma.Union: lambda q, em: _compile(ma.union_pair(q.f, q.g), em),
    ma.Const: lambda q, em: _d_leaf(q.label),
    ma.EmptyColl: lambda q, em: _d_leaf(MARK_EMPTY),
    ma.UnitTuple: lambda q, em: _d_leaf(MARK_UNIT),
}


# ---------------------------------------------------------------------------
# Decoding

def decode_det(V: PathSet, t: Optional[Type] = None) -> Value:
    """Rebuild the list-semantics value described by a path set.

    Without a type, every collection decodes as a list: numeral and "s"
    steps, markers and pairs read as member indexes, other non-final
    labels as tuple fields, and a fully absent subtree reads as the
    empty list. With a type, sets and bags are rebuilt, computed-empty
    collections are placed at their collection-typed positions, tuple
    fields (numeral labels too) follow the type.

    V becomes a trie once, as for eval_det, and decoding walks it: a
    node's steps are its keys, and a step's subtrie holds the rests of
    the paths through it, so no path is sliced.
    """
    return _decode_typed(_trie(V), ANY if t is None else t)


def _below(node: dict) -> bool:
    """Whether the trie node holds a nonempty path. A node's own key
    None ends a path of its parent, so decoding reads it there."""
    return len(node) > (None in node)


def _decode(node: dict) -> Value:
    steps = [h for h in node if h is not None]
    if len(steps) == 1 and not _below(node[steps[0]]):
        # a single one-step path
        h = steps[0]
        if h is MARK_UNIT:
            return UNIT
        if type(h) is str:
            return Atom(h)
    field_heads, heads = set(), set()
    for h in steps:
        sub = node[h]
        if _below(sub):
            (field_heads if _is_field_label(h) else heads).add(h)
        # a step that ends a path is an index, unless it is a marker
        if None in sub and type(h) is not Marker:
            heads.add(h)
    if field_heads and heads:
        raise ValueError_("mixed field and index steps below one node")
    if field_heads:
        return make_tuple((h, _decode(node[h]))
                          for h in sorted(field_heads, key=term_key))
    members = []
    for h in sorted(heads, key=term_key):
        if not _below(node[h]):
            raise ValueError_("index step %s has no continuation"
                              % print_term(h))
        members.append(_decode(node[h]))
    return make_coll(LIST, members)


def _is_field_label(h: Step) -> bool:
    """Untyped decoding reads a step with a continuation as a tuple field
    when it is a plain label other than a numeral or "s"."""
    return type(h) is str and not h.isdecimal() and h != "s"


def _decode_typed(node: dict, t: Type) -> Value:
    if isinstance(t, AnyType):
        return _decode(node)
    if isinstance(t, DomType):
        labs = [h for h, sub in node.items()
                if type(h) is str and None in sub]
        if len(labs) != 1:
            raise ValueError_("expected a single atom leaf, got %d paths"
                              % len(_paths(_rests(node))))
        return Atom(labs[0])
    if isinstance(t, TupleType):
        if not t.fields:
            return UNIT
        fields = []
        for l, ft in t.fields:
            sub = node.get(l, _NONE)
            if not _below(sub) and not isinstance(ft, CollType):
                raise ValueError_("field %s absent but not collection-typed"
                                  % l)
            fields.append((l, _decode_typed(sub, ft)))
        return make_tuple(fields)
    assert isinstance(t, CollType)
    # a marker that only ends a path is no member
    heads = [h for h, sub in node.items() if h is not None
             and (type(h) is not Marker or _below(sub))]
    return make_coll(t.kind, [_decode_typed(node[h], t.elem)
                              for h in sorted(heads, key=term_key)])


def listify_type(t: Type) -> Type:
    """Read every collection in a type as a list: the deterministic-tree
    encoding orders set and bag members canonically and forgets kinds."""
    if isinstance(t, CollType):
        return CollType(LIST, listify_type(t.elem))
    if isinstance(t, TupleType):
        return TupleType(tuple((l, listify_type(x)) for l, x in t.fields))
    return t


def eval_closed(q: MAExpr, empty_markers: bool = False) -> PathSet:
    """Evaluate a closed core query; the input is the dummy base value
    (closed queries start with constants and ignore it)."""
    return eval_det(q, frozenset({(MARK_UNIT,)}), empty_markers)
