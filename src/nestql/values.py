"""Complex values: atoms, tuples with labeled fields, and collections.

Values are immutable. Collections come in three kinds: sets (canonical,
duplicate-free), lists (ordered, duplicates kept) and bags (multiplicities
kept, order canonical). A small text format with tuple brackets ``<...>``,
set braces ``{...}``, list brackets ``[...]`` and bag braces ``{|...|}``
round-trips through :func:`parse_value` / :func:`print_value`.

Each tuple and collection node stores what would otherwise mean walking
its whole subtree: its canonical sort key (:func:`sort_key`), its hash,
whether it is free of collections (the mon-equality check), its node
count (:func:`value_nodes`) and, for tuples, its label tuple. Each is
built on first use from the members' stored ones, so a node computes it
once. Native ``hash`` is the stored hash and native ``==`` compares
fields, so both are structural, which holds only because
:func:`make_coll` keeps sets and bags in canonical order. Stored hashes
depend on ``PYTHONHASHSEED``, so values must not be pickled or
persisted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple as Tup


class ValueError_(Exception):
    """Raised for malformed values, parse errors and mode violations."""


SET = "set"
LIST = "list"
BAG = "bag"

KINDS = (SET, LIST, BAG)

_KIND_RANK = {SET: 0, LIST: 1, BAG: 2}

_BARE_ATOM = re.compile(r"[A-Za-z0-9_#+\-]+")


class _once:
    """A per-node fact, computed on first use and stored on the node.

    The result becomes an instance attribute, which shadows this
    non-data descriptor from then on. It is set with
    ``object.__setattr__`` (the dataclasses are frozen) rather than
    through ``__dict__``: that would turn the instance's inline attribute
    values into a dict and slow every later attribute read. Unlike
    ``functools.cached_property`` on Python 3.11 it takes no lock.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, v, cls):
        out = self.fn(v)
        object.__setattr__(v, self.name, out)
        return out


@dataclass(frozen=True)
class Value:
    """A value node. Equality is the dataclass's field-by-field
    comparison. Tuples and collections return their stored hash; the
    decorator keeps a ``__hash__`` only when it is written in that
    class's own body."""


@dataclass(frozen=True)
class Atom(Value):
    label: str

    _set_free = True
    _nodes = 1

    # rebuilt when asked: atoms are many, and a parent reads the key of
    # its members once, when it builds its own
    @property
    def _key(self):
        return (0, self.label)


@dataclass(frozen=True)
class Tuple(Value):
    fields: Tup[Tup[str, Value], ...]

    def __post_init__(self):
        if len({l for l, _ in self.fields}) != len(self.fields):
            raise ValueError_("duplicate tuple label in %r"
                              % ([l for l, _ in self.fields],))

    def field(self, label: str) -> Value:
        for l, v in self.fields:
            if l == label:
                return v
        raise ValueError_("no field %r in tuple with fields %r"
                          % (label, [l for l, _ in self.fields]))

    def labels(self) -> Tup[str, ...]:
        return self._labels

    def __hash__(self):
        return self._hash

    @_once
    def _labels(self):
        return tuple([l for l, _ in self.fields])

    @_once
    def _key(self):
        f = self.fields
        return (1, tuple([l for l, _ in f]), tuple([x._key for _, x in f]))

    @_once
    def _hash(self):
        return hash(self.fields)

    @_once
    def _set_free(self):
        return all(x._set_free for _, x in self.fields)

    @_once
    def _nodes(self):
        return 1 + sum([x._nodes for _, x in self.fields])


@dataclass(frozen=True)
class Coll(Value):
    """A collection. Build it only with :func:`make_coll`: native ``==``
    and ``hash`` are structural equality only because sets and bags are
    kept in that canonical form (sets deduped, sets and bags sorted by
    :func:`sort_key`)."""
    kind: str
    elems: Tup[Value, ...]

    _set_free = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError_("bad collection kind %r" % (self.kind,))

    def __hash__(self):
        return self._hash

    @_once
    def _key(self):
        return (2, _KIND_RANK[self.kind], len(self.elems),
                tuple([x._key for x in self.elems]))

    @_once
    def _hash(self):
        return hash((self.kind, self.elems))

    @_once
    def _nodes(self):
        return 1 + sum([x._nodes for x in self.elems])


UNIT = Tuple(())


def sort_key(v: Value):
    """Total order on values: atoms < tuples < collections. The key is
    stored on the node, so sorting never walks a member twice."""
    return v._key


def make_coll(kind: str, elems: Iterable[Value]) -> Coll:
    """Build a collection in canonical form (sets and bags sorted by
    :func:`sort_key`, sets then deduped; lists as given). The sort is
    stable, so a set keeps the first-seen member of each equal group.
    Fewer than two members are canonical as given, and their keys are
    not built."""
    if kind == LIST:
        return Coll(kind, tuple(elems))
    elems = list(elems)
    if len(elems) > 1:
        elems.sort(key=sort_key)
        if kind == SET:
            elems = [x for i, x in enumerate(elems)
                     if not i or x._key != elems[i - 1]._key]
    return Coll(kind, tuple(elems))


def make_tuple(fields: Iterable[Tup[str, Value]]) -> Tuple:
    return Tuple(tuple(fields))


def value_nodes(v: Value) -> int:
    """Number of nodes in the value tree (atoms count 1, tuples and
    collections count 1 plus their members), stored on the node."""
    return v._nodes


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class DomType(Type):
    pass


@dataclass(frozen=True)
class CollType(Type):
    kind: str
    elem: Type


@dataclass(frozen=True)
class TupleType(Type):
    fields: Tup[Tup[str, Type], ...]

    def __post_init__(self):
        labels = [l for l, _ in self.fields]
        if len(set(labels)) != len(labels):
            raise ValueError_("duplicate tuple type label in %r" % (labels,))

    def field(self, label: str) -> Type:
        for l, t in self.fields:
            if l == label:
                return t
        raise ValueError_("no field %r in tuple type" % (label,))

    def labels(self) -> Tup[str, ...]:
        return tuple(l for l, _ in self.fields)


DOM = DomType()
UNIT_T = TupleType(())


def print_type(t: Type) -> str:
    """Type text; a type the format cannot write (the unknown element
    type of an empty literal) prints as "?"."""
    if isinstance(t, DomType):
        return "Dom"
    if isinstance(t, CollType):
        inner = print_type(t.elem)
        if t.kind == SET:
            return "{%s}" % inner
        if t.kind == LIST:
            return "[%s]" % inner
        return "{|%s|}" % inner
    if isinstance(t, TupleType):
        return "<%s>" % ", ".join("%s: %s" % (print_atom(l), print_type(x))
                                  for l, x in t.fields)
    return "?"


def check_type(v: Value, t: Type, path: str = "") -> Tup[bool, Optional[str]]:
    """Check whether v inhabits t; on mismatch return the path to the
    first offending sub-value."""
    where = path or "<root>"
    if isinstance(t, DomType):
        if isinstance(v, Atom):
            return True, None
        return False, "%s: expected atom" % where
    if isinstance(t, CollType):
        if not isinstance(v, Coll) or v.kind != t.kind:
            return False, "%s: expected %s collection" % (where, t.kind)
        for i, e in enumerate(v.elems):
            ok, diag = check_type(e, t.elem, "%s.%d" % (path, i + 1) if path
                                  else str(i + 1))
            if not ok:
                return False, diag
        return True, None
    assert isinstance(t, TupleType)
    if not isinstance(v, Tuple) or v.labels() != t.labels():
        return False, "%s: expected tuple with fields %r" % (
            where, list(t.labels()))
    for (l, e), (_, ft) in zip(v.fields, t.fields):
        ok, diag = check_type(e, ft, "%s.%s" % (path, l) if path else l)
        if not ok:
            return False, diag
    return True, None


def type_ok(v: Value, t: Type) -> bool:
    return check_type(v, t)[0]


# ---------------------------------------------------------------------------
# Equality in three strengths

ATOMIC = "atomic"
MON = "mon"
DEEP = "deep"


def value_equal(a: Value, b: Value, mode: str = DEEP) -> bool:
    """Structural equality after the mode check: ATOMIC needs atoms, MON
    needs collection-free values, DEEP takes anything."""
    if mode == ATOMIC:
        if not isinstance(a, Atom) or not isinstance(b, Atom):
            bad = a if not isinstance(a, Atom) else b
            raise ValueError_("atomic equality on non-atom %s"
                              % print_value(bad))
    elif mode == MON:
        for v in (a, b):
            if not v._set_free:
                raise ValueError_("mon equality on collection-bearing value %s"
                                  % print_value(v))
    elif mode != DEEP:
        raise ValueError_("unknown equality mode %r" % (mode,))
    return a == b


# ---------------------------------------------------------------------------
# Text format

def print_atom(label: str) -> str:
    if label and _BARE_ATOM.fullmatch(label):
        return label
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def print_value(v: Value) -> str:
    """Value text. Each sub-value object is printed once per call and its
    text reused wherever the object occurs again; the ids stay unique
    during the call because v keeps every node alive. Each tuple label is
    likewise printed once per call."""
    return _print(v, {})


def _print(v: Value, memo: dict) -> str:
    if isinstance(v, Atom):
        return print_atom(v.label)
    out = memo.get(id(v))
    if out is not None:
        return out
    if isinstance(v, Tuple):
        out = "<%s>" % ", ".join([(memo.get(l) or _print_label(l, memo))
                                  + _print(x, memo) for l, x in v.fields])
    else:
        body = ", ".join([_print(x, memo) for x in v.elems])
        if v.kind == SET:
            out = "{%s}" % body
        elif v.kind == LIST:
            out = "[%s]" % body
        else:
            out = "{|%s|}" % body
    memo[id(v)] = out
    return out


def _print_label(label: str, memo: dict) -> str:
    """A tuple field's printed label and colon, kept in the memo under
    the label itself (value ids are ints, so the keys never meet)."""
    out = memo[label] = print_atom(label) + ": "
    return out


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def error(self, msg: str):
        raise ValueError_("%s at position %d" % (msg, self.pos))

    def expect(self, tok: str):
        self.skip_ws()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
        else:
            self.error("expected %r" % tok)

    def try_tok(self, tok: str) -> bool:
        self.skip_ws()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def atom(self) -> str:
        self.skip_ws()
        if self.peek() == '"':
            self.pos += 1
            out = []
            while self.pos < len(self.text) and self.text[self.pos] != '"':
                c = self.text[self.pos]
                if c == "\\" and self.pos + 1 < len(self.text):
                    self.pos += 1
                    c = self.text[self.pos]
                out.append(c)
                self.pos += 1
            if self.pos >= len(self.text):
                self.error("unterminated quoted atom")
            self.pos += 1
            return "".join(out)
        m = _BARE_ATOM.match(self.text, self.pos)
        if not m:
            self.error("expected atom")
        self.pos = m.end()
        return m.group(0)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_items(sc: _Scanner, closer: str):
    elems = []
    sc.skip_ws()
    if sc.try_tok(closer):
        return elems
    while True:
        elems.append(_parse(sc))
        if sc.try_tok(closer):
            return elems
        sc.expect(",")


def _parse(sc: _Scanner) -> Value:
    sc.skip_ws()
    c = sc.peek()
    if c == "<":
        sc.expect("<")
        fields = []
        if not sc.try_tok(">"):
            while True:
                label = sc.atom()
                sc.expect(":")
                fields.append((label, _parse(sc)))
                if sc.try_tok(">"):
                    break
                sc.expect(",")
        return make_tuple(fields)
    if sc.peek(2) == "{|":
        sc.expect("{|")
        return make_coll(BAG, _parse_items(sc, "|}"))
    if c == "{":
        sc.expect("{")
        return make_coll(SET, _parse_items(sc, "}"))
    if c == "[":
        sc.expect("[")
        return make_coll(LIST, _parse_items(sc, "]"))
    return Atom(sc.atom())


def parse_value(text: str) -> Value:
    sc = _Scanner(text)
    v = _parse(sc)
    if not sc.at_end():
        sc.error("trailing input")
    return v


def parse_type(text: str) -> Type:
    sc = _Scanner(text)
    t = _parse_type(sc)
    if not sc.at_end():
        sc.error("trailing input")
    return t


def _parse_type(sc: _Scanner) -> Type:
    sc.skip_ws()
    if sc.try_tok("Dom"):
        return DOM
    c = sc.peek()
    if c == "<":
        sc.expect("<")
        fields = []
        if not sc.try_tok(">"):
            while True:
                label = sc.atom()
                sc.expect(":")
                fields.append((label, _parse_type(sc)))
                if sc.try_tok(">"):
                    break
                sc.expect(",")
        return TupleType(tuple(fields))
    if sc.peek(2) == "{|":
        sc.expect("{|")
        t = _parse_type(sc)
        sc.expect("|}")
        return CollType(BAG, t)
    if c == "{":
        sc.expect("{")
        t = _parse_type(sc)
        sc.expect("}")
        return CollType(SET, t)
    if c == "[":
        sc.expect("[")
        t = _parse_type(sc)
        sc.expect("]")
        return CollType(LIST, t)
    sc.error("expected type")
