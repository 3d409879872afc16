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
decoding, by the type if one is given. Queries in the atomic-equality
core are evaluated directly on path sets by :func:`eval_det`, mirroring
the rule-per-operation semantics used by the logic-program compilation.

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
    Atom, Coll, CollType, DomType, LIST, Tuple, TupleType, Type, UNIT,
    Value, ValueError_, make_coll, make_tuple, print_atom, _Scanner,
)
from . import ma
from .ma import AnyType, MAExpr


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

_MARKER_PATH = (MARK_EMPTY,)

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
    sc = _Scanner(text)
    steps = [_parse_step(sc)]
    while sc.try_tok("."):
        steps.append(_parse_step(sc))
    if not sc.at_end():
        sc.error("trailing input")
    return tuple(steps)


def parse_pathset(text: str) -> PathSet:
    paths = [parse_path(line) for line in text.splitlines() if line.strip()]
    return frozenset(paths)


# ---------------------------------------------------------------------------
# Encoding values

def encode_det(v: Value) -> PathSet:
    return frozenset(_encode(v))


def _encode(v: Value):
    if isinstance(v, Atom):
        return [(v.label,)]
    if isinstance(v, Tuple):
        if not v.vals:
            return [(MARK_UNIT,)]
        out = []
        for l, x in zip(v.labels, v.vals):
            out.extend((l,) + p for p in _encode(x))
        return out
    assert isinstance(v, Coll)
    if not v.elems:
        return [_MARKER_PATH]
    out = []
    for k, x in enumerate(v.elems, 1):
        head = str(k)
        out.extend((head,) + p for p in _encode(x))
    return out


def check_deterministic(V: PathSet) -> bool:
    """No path is a proper prefix of another."""
    paths = set(V)
    for p in paths:
        for i in range(1, len(p)):
            if p[:i] in paths:
                return False
    return True


# ---------------------------------------------------------------------------
# Direct evaluation on path sets

def eval_det(q: MAExpr, V: PathSet, empty_markers: bool = False) -> PathSet:
    """Evaluate per the path-set rules. With empty_markers, every
    operation that can compute an empty collection leaves the
    possibly-empty marker "[]", so computed empties stay represented
    instead of decaying to path absence; decoding ignores the marker
    when member content survives next to it."""
    em = empty_markers
    if isinstance(q, ma.Id):
        return V
    if isinstance(q, ma.Const):
        return frozenset({(q.label,)})
    if isinstance(q, ma.EmptyColl):
        return frozenset({_MARKER_PATH})
    if isinstance(q, ma.UnitTuple):
        return frozenset({(MARK_UNIT,)})
    if isinstance(q, ma.Sng):
        return frozenset(("s",) + p for p in V)
    if isinstance(q, ma.Compose):
        return eval_det(q.g, eval_det(q.f, V, em), em)
    if isinstance(q, ma.Proj):
        head = q.label
        return frozenset(p[1:] for p in V if p[0] == head and len(p) > 1)
    if isinstance(q, ma.TupleCons):
        if not q.fields:
            return frozenset({(MARK_UNIT,)})
        out = set()
        for l, f in q.fields:
            out.update((l,) + p for p in eval_det(f, V, em))
        return frozenset(out)
    if isinstance(q, ma.Flatten):
        out = set(((p[0], p[1]),) + p[2:] for p in V if len(p) >= 3)
        if em and (_MARKER_PATH in V
                   or any(len(p) == 2 and p[1] == MARK_EMPTY
                          for p in V)):
            # outer collection empty, or some member collection empty:
            # either way the result may be empty; the marker is ignored
            # by decoding when member content survives alongside it
            out.add(_MARKER_PATH)
        return frozenset(out)
    if isinstance(q, ma.Union):
        return eval_det(ma.union_pair(q.f, q.g), V, em)
    if isinstance(q, ma.UnionT):
        out = set()
        empties = 0
        for tag in ("1", "2"):
            out.update(((tag, p[1]),) + p[2:]
                       for p in V if p[0] == tag and len(p) >= 3)
            if (tag, MARK_EMPTY) in V:
                empties += 1
        if em and empties == 2:
            out.add(_MARKER_PATH)
        return frozenset(out)
    if isinstance(q, ma.EqAtomic):
        va = _path_suffixes(V, q.pa)
        vb = _path_suffixes(V, q.pb)
        if va & vb:
            return frozenset({("s", MARK_UNIT)})
        if em:
            return frozenset({_MARKER_PATH})
        return frozenset()
    if isinstance(q, ma.Map):
        groups = {}
        for p in V:
            if len(p) < 2:
                continue
            groups.setdefault(p[0], set()).add(p[1:])
        out = set()
        for i, sub in groups.items():
            for w in eval_det(q.f, frozenset(sub), em):
                out.add((i,) + w)
        if em and _MARKER_PATH in V:
            out.add(_MARKER_PATH)
        return frozenset(out)
    if isinstance(q, ma.PairWith):
        head = q.label
        members = [p for p in V if p[0] == head and len(p) >= 3]
        others = [p for p in V if p[0] != head and len(p) >= 2]
        indexes = {p[1] for p in members}
        out = set()
        for p in members:
            out.add((p[1], head) + p[2:])
        for i in indexes:
            for p in others:
                out.add((i,) + p)
        if em and (head, MARK_EMPTY) in V:
            out.add(_MARKER_PATH)
        return frozenset(out)
    raise ValueError_("eval_det cannot handle %r; desugar first" % (q,))


def _path_suffixes(V: PathSet, path) -> set:
    """Suffixes of V under a dotted field path."""
    n = len(path)
    return {p[n:] for p in V if len(p) > n and p[:n] == path}


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
    """
    V = frozenset(V)
    return _decode(V) if t is None else _decode_typed(V, t)


def _children(V):
    """The paths of V grouped by first step, in one pass. Returns a dict
    from each step with a continuation to the list of the paths' rests
    after it, and the set of steps that end a path. The paths of V are
    distinct, so the rests under one step are too: decoding passes these
    lists down instead of building a set of paths per node."""
    rests: dict = {}
    ends = set()
    for p in V:
        if len(p) > 1:
            rests.setdefault(p[0], []).append(p[1:])
        else:
            ends.add(p[0])
    return rests, ends


def _decode(V) -> Value:
    if not V:
        return make_coll(LIST, ())
    if len(V) == 1:
        (p,) = V
        if p == _MARKER_PATH:
            return make_coll(LIST, ())
        if p == (MARK_UNIT,):
            return UNIT
        if len(p) == 1 and type(p[0]) is str:
            return Atom(p[0])
    rests, ends = _children(V)
    field_heads = [h for h in rests if _is_field_label(h)]
    # a step that ends a path is an index, unless it is a marker
    heads = ({h for h in rests if not _is_field_label(h)}
             | {h for h in ends if type(h) is not Marker})
    if field_heads and heads:
        raise ValueError_("mixed field and index steps below one node")
    if field_heads:
        return make_tuple((h, _decode(rests[h]))
                          for h in sorted(field_heads, key=term_key))
    members = []
    for h in sorted(heads, key=term_key):
        if h not in rests:
            raise ValueError_("index step %s has no continuation"
                              % print_term(h))
        members.append(_decode(rests[h]))
    return make_coll(LIST, members)


def _is_field_label(h: Step) -> bool:
    """Untyped decoding reads a step with a continuation as a tuple field
    when it is a plain label other than a numeral or "s"."""
    return type(h) is str and not h.isdecimal() and h != "s"


def _decode_typed(V, t: Type) -> Value:
    if isinstance(t, AnyType):
        return _decode(V)
    if isinstance(t, DomType):
        labs = {p[0] for p in V if len(p) == 1 and type(p[0]) is str}
        if len(labs) != 1:
            raise ValueError_("expected a single atom leaf, got %d paths"
                              % len(V))
        return Atom(labs.pop())
    if isinstance(t, TupleType):
        if not t.fields:
            return UNIT
        rests, _ = _children(V)
        fields = []
        for l, ft in t.fields:
            sub = rests.get(l, [])
            if not sub and not isinstance(ft, CollType):
                raise ValueError_("field %s absent but not collection-typed"
                                  % l)
            fields.append((l, _decode_typed(sub, ft)))
        return make_tuple(fields)
    assert isinstance(t, CollType)
    rests, ends = _children(V)
    # a marker that only ends a path is no member
    heads = rests.keys() | {h for h in ends if type(h) is not Marker}
    return make_coll(t.kind, [_decode_typed(rests.get(h, []), t.elem)
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
