"""Complex values: atoms, tuples with labeled fields, and collections.

Values, like every record of this package (see :func:`record`), are
immutable by convention: nothing assigns a field once a record is
built. No guard enforces it on each construction, which would cost more
than building the record; ``tests/test_values.py`` checks the source
instead. Collections come in three kinds: sets (canonical,
duplicate-free), lists (ordered, duplicates kept) and bags (multiplicities
kept, order canonical). A small text format with tuple brackets ``<...>``,
set braces ``{...}``, list brackets ``[...]`` and bag braces ``{|...|}``
round-trips through :func:`parse_value` / :func:`print_value`.

A tuple node stores its labels and its members as two tuples, and the
label tuple is shared by every tuple of one shape that one operator
builds (all the pairs of a product share one). A collection node stores
its kind and its members. Labels and kinds are checked where they come
from outside the evaluator, in :func:`make_tuple` and :func:`make_coll`
(which :func:`parse_value` uses), not on every construction.

Each tuple and collection node also stores what would otherwise mean
walking its whole subtree: its canonical sort key (:func:`sort_key`),
its hash, whether it is free of collections (the mon-equality check) and
its node count (:func:`value_nodes`). Each is built on first use from
the members' stored ones, so a node computes it once, and is stored by a
walk with an explicit stack (:func:`_stored`), as deep values are legal.
Native ``hash`` is the stored hash and native ``==`` compares labels and
members, so both are structural, which holds only because every set and
bag is in canonical order (see :class:`Coll`). Stored hashes depend on
``PYTHONHASHSEED``, so values must not be pickled or persisted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Tuple as Tup


class ValueError_(Exception):
    """Raised for malformed values, parse errors and mode violations."""


SET = "set"
LIST = "list"
BAG = "bag"

KINDS = (SET, LIST, BAG)

_KIND_RANK = {SET: 0, LIST: 1, BAG: 2}

# the brackets of each kind of collection, in value and type text
_OPEN = {SET: "{", LIST: "[", BAG: "{|"}
_CLOSE = {SET: "}", LIST: "]", BAG: "|}"}

_BARE_ATOM = re.compile(r"[A-Za-z0-9_#+\-]+")


def record(cls):
    """cls as a dataclass: its instances compare field by field, print
    as the dataclass repr and hash on their fields, or by the class's
    own ``__hash__`` where its body writes one.

    A record is immutable by convention (see the module docstring). A
    frozen dataclass would guard that on every construction by setting
    each field through the base object's setter, which costs twice or
    more what building the record does."""
    return dataclass(cls, unsafe_hash="__hash__" not in cls.__dict__)


@record
class Value:
    """A value node. Equality is the dataclass's field-by-field
    comparison. Tuples and collections return their stored hash.

    The facts a tuple or collection stores are None until stored."""

    _key = _hash = _set_free = _nodes = None


@record
class Atom(Value):
    label: str

    _set_free = True
    _nodes = 1

    # rebuilt when asked: atoms are many, and a parent reads the key of
    # its members once, when it builds its own
    @property
    def _key(self):
        return (0, self.label)


@record
class Tuple(Value):
    """A tuple: its labels, and its members in the same order. The label
    tuple is shared by the tuples of one shape that one operator builds:
    one ``("1", "2")`` for every product and hash-join pair, one per
    compiled ``tup[...]``, and a pairwith copy keeps its input's.

    The labels must be distinct: :func:`make_tuple` checks them, and the
    evaluator builds tuples directly only where they are distinct by
    construction (a product's pair, a pairwith copy of a tuple, a
    ``tup[...]`` whose labels were checked when compiled)."""
    labels: Tup[str, ...]
    vals: Tup[Value, ...]

    def field(self, label: str) -> Value:
        try:
            return self.vals[self.labels.index(label)]
        except ValueError:
            raise ValueError_("no field %r in tuple with fields %r"
                              % (label, list(self.labels))) from None

    @property
    def fields(self) -> Tup[Tup[str, Value], ...]:
        """The (label, member) pairs, built when asked."""
        return tuple(zip(self.labels, self.vals))

    def __hash__(self):
        h = self._hash
        return _stored(self, "_hash", _hash_of) if h is None else h


@record
class Coll(Value):
    """A collection. Native ``==`` and ``hash`` are structural equality
    only because sets and bags are in canonical form: sets deduped, sets
    and bags sorted by :func:`sort_key`. :func:`make_coll` builds that
    form by sorting. The ``ma`` evaluator builds a collection directly
    only where its members already come out canonical, without a sort:

    - a selection keeps a subsequence of its input, and pairwith varies
      one field in the order of the paired collection; both are
      canonical when that input already has the result's kind;
    - a product or hash join of two sets under set semantics gives its
      pairs in nested-loop order, which is sorted and duplicate-free, as
      pairs compare by side 1, then side 2. Not so for bags, whose equal
      members repeat the run of side 2.

    The kind is not checked here: :func:`make_coll` checks it, and the
    evaluator's own kinds are checked once per evaluation."""
    kind: str
    elems: Tup[Value, ...]

    _set_free = False

    def __hash__(self):
        h = self._hash
        return _stored(self, "_hash", _hash_of) if h is None else h


UNIT = Tuple((), ())


def _stored(v: Value, name: str, fact):
    """The fact called name of v, stored first on v and on every node
    below it that has none yet; fact(x) builds it from the stored facts
    of x's members. The walk keeps an explicit stack, so a deep value
    does not reach the recursion limit, and stores the fact of each node
    whose members' facts are all stored, bottom-up; a subtree whose fact
    is stored is not entered again, nor is an atom, whose facts need no
    walk."""
    todo = [v]
    while todo:
        x = todo[-1]
        n = len(todo)
        for y in (x.vals if type(x) is Tuple else x.elems):
            if type(y) is not Atom and getattr(y, name) is None:
                todo.append(y)
        if len(todo) == n:
            # a member given twice is pushed twice, and stored twice
            del todo[-1]
            setattr(x, name, fact(x))
    return getattr(v, name)


def _key_of(x: Value) -> tuple:
    if type(x) is Tuple:
        return (1, x.labels, tuple([y._key for y in x.vals]))
    return (2, _KIND_RANK[x.kind], len(x.elems),
            tuple([y._key for y in x.elems]))


def _hash_of(x: Value) -> int:
    return hash((x.labels, x.vals) if type(x) is Tuple
                else (x.kind, x.elems))


def _set_free_of(x: Value) -> bool:
    return all([y._set_free for y in x.vals])


def _nodes_of(x: Value) -> int:
    return 1 + sum([y._nodes for y in
                    (x.vals if type(x) is Tuple else x.elems)])


def sort_key(v: Value):
    """Total order on values: atoms < tuples < collections. The key is
    stored on the node, so sorting never walks a member twice."""
    k = v._key
    return _stored(v, "_key", _key_of) if k is None else k


def set_free(v: Value) -> bool:
    """Whether v holds no collection, stored on the node."""
    out = v._set_free
    return _stored(v, "_set_free", _set_free_of) if out is None else out


def make_coll(kind: str, elems: Iterable[Value]) -> Coll:
    """Build a collection of a checked kind in canonical form (sets and
    bags sorted by :func:`sort_key`, sets then deduped; lists as given).
    The sort is stable, so a set keeps the first-seen member of each
    equal group. Fewer than two members are canonical as given, and
    their keys are not built."""
    if kind == LIST:
        return Coll(kind, tuple(elems))
    if kind not in KINDS:
        raise ValueError_("bad collection kind %r" % (kind,))
    elems = list(elems)
    if len(elems) > 1:
        elems.sort(key=sort_key)
        if kind == SET:
            elems = [x for i, x in enumerate(elems)
                     if not i or x._key != elems[i - 1]._key]
    return Coll(kind, tuple(elems))


def make_tuple(fields: Iterable[Tup[str, Value]]) -> Tuple:
    """A tuple of the given (label, member) pairs; the labels must be
    distinct."""
    labels, vals = tuple(zip(*fields)) or ((), ())
    if len(set(labels)) != len(labels):
        raise ValueError_("duplicate tuple label in %r" % (list(labels),))
    return Tuple(labels, vals)


def value_nodes(v: Value) -> int:
    """Number of nodes in the value tree (atoms count 1, tuples and
    collections count 1 plus their members), stored on the node."""
    n = v._nodes
    return _stored(v, "_nodes", _nodes_of) if n is None else n


# ---------------------------------------------------------------------------
# Types

@record
class Type:
    pass


@record
class DomType(Type):
    pass


@record
class CollType(Type):
    kind: str
    elem: Type


@record
class TupleType(Type):
    """A tuple type. Its labels must be distinct: :func:`make_tuple_type`
    checks labels that come from outside (type text, a ``tup[...]``
    being typed); the type check builds the other tuple types it needs
    directly from checked ones."""
    fields: Tup[Tup[str, Type], ...]

    def field(self, label: str) -> Type:
        for l, t in self.fields:
            if l == label:
                return t
        raise ValueError_("no field %r in tuple type" % (label,))

    def labels(self) -> Tup[str, ...]:
        return tuple(l for l, _ in self.fields)


DOM = DomType()
UNIT_T = TupleType(())


def make_tuple_type(fields: Iterable[Tup[str, Type]]) -> TupleType:
    """A tuple type of the given (label, type) pairs; the labels must be
    distinct."""
    fields = tuple(fields)
    labels = [l for l, _ in fields]
    if len(set(labels)) != len(labels):
        raise ValueError_("duplicate tuple type label in %r" % (labels,))
    return TupleType(fields)


def print_type(t: Type) -> str:
    """Type text; a type the format cannot write (the unknown element
    type of an empty literal) prints as "?"."""
    if isinstance(t, DomType):
        return "Dom"
    if isinstance(t, CollType):
        return _OPEN[t.kind] + print_type(t.elem) + _CLOSE[t.kind]
    if isinstance(t, TupleType):
        return "<%s>" % ", ".join("%s: %s" % (print_atom(l), print_type(x))
                                  for l, x in t.fields)
    return "?"


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
            if not set_free(v):
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
    """Value text: the join of :func:`print_chunks`."""
    return "".join(print_chunks(v))


def print_chunks(v: Value) -> list:
    """The text of v as a list of chunks, whole before any is written.
    A collection gives its opening bracket, then one chunk per member
    that ends in the separator or, for the last member, the closing
    bracket; any other value gives one chunk.

    Each sub-value object is printed once per call and its text reused
    wherever the object occurs again; the ids stay unique during the
    call because v keeps every node alive. The texts of a top
    collection's members are not kept in the memo, which would then
    hold a second copy of nearly the whole text. Each label tuple's
    printed labels are likewise made once per call."""
    memo = {}
    if type(v) is not Coll:
        return [_print(v, memo)]
    elems, close = v.elems, _CLOSE[v.kind]
    if not elems:
        return [_OPEN[v.kind] + close]
    out = [_OPEN[v.kind]]
    last = len(elems) - 1
    for i, x in enumerate(elems):
        parts = _parts(x, memo)
        parts.append(close if i == last else ", ")
        out.append("".join(parts))
    return out


def _print(v: Value, memo: dict) -> str:
    """The text of v, kept in the memo under its id."""
    out = memo[id(v)] = "".join(_parts(v, memo))
    return out


def _parts(v: Value, memo: dict) -> list:
    """Pieces that join to the text of v. Each member's text is looked
    up in the memo before it is printed."""
    if type(v) is Atom:
        return [print_atom(v.label)]
    get = memo.get
    parts = []
    if type(v) is Tuple:
        if not v.vals:
            return ["<>"]
        heads = get(v.labels) or _heads(v.labels, memo)
        for h, x in zip(heads, v.vals):
            parts.append(h)
            parts.append(get(id(x)) or _print(x, memo))
        parts.append(">")
        return parts
    parts.append(_OPEN[v.kind])
    for x in v.elems:
        parts.append(get(id(x)) or _print(x, memo))
        parts.append(", ")
    if v.elems:
        parts.pop()
    parts.append(_CLOSE[v.kind])
    return parts


def _heads(labels: tuple, memo: dict) -> list:
    """What precedes each member of a tuple with these labels: "<" or
    ", ", then the label and a colon. Kept in the memo under the label
    tuple itself (value ids are ints, so the keys never meet)."""
    out = memo[labels] = ["%s%s: " % (", " if i else "<", print_atom(l))
                          for i, l in enumerate(labels)]
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
        return make_tuple_type(fields)
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
