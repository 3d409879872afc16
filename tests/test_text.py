"""The readers of whole texts: values, types, algebra queries, tree
queries, XML documents, single paths and logic programs."""

import hashlib
import random
import subprocess
import sys

import pytest

from nestql import gen
from nestql.detree import (
    MARK_EMPTY, MARK_UNIT, parse_path, parse_pathset, print_path,
)
from nestql.lp import compile_lp, parse_lp, print_lp
from nestql.ma_text import parse_ma, print_ma
from nestql.reductions import parse_flat, parse_tm
from nestql.values import (
    DOM, LIST, SET, ValueError_, parse_type, parse_value, print_type,
    print_value,
)
from nestql.xmlxq import parse_xml, parse_xq, print_xml, print_xq


def _outcome(read, show, text):
    try:
        return show(read(text))
    except Exception as e:
        return "%s: %s" % (type(e).__name__, e)


# characters a mutation inserts or substitutes: every bracket, separator
# and operator of the seven syntaxes, quotes, blanks and a few word
# characters
_NOISE = "<>{}[]|(),.;:='\"$/!&*\\-#% \tabAB01"


def _mutate(rng, text):
    """text after one to three random edits: a character deleted,
    inserted or replaced, a slice deleted or doubled, or a cut."""
    for _ in range(rng.randint(1, 3)):
        n = len(text)
        i = rng.randint(0, n)
        op = rng.randrange(6)
        if op == 0 and n:
            text = text[:min(i, n - 1)] + text[min(i, n - 1) + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(_NOISE) + text[i:]
        elif op == 2 and n:
            i = min(i, n - 1)
            text = text[:i] + rng.choice(_NOISE) + text[i + 1:]
        elif op == 3:
            j = rng.randint(i, min(n, i + 6))
            text = text[:i] + text[j:]
        elif op == 4:
            j = rng.randint(i, min(n, i + 6))
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i]
    return text


def _value_text(rng):
    sem = rng.choice((SET, LIST, "bag"))
    return print_value(gen.gen_value(rng, gen.gen_type(rng, 3, sem)))


def _type_text(rng):
    return print_type(gen.gen_type(rng, 4, rng.choice((SET, LIST, "bag"))))


_MA_TEXTS = [
    "select[A =atom 'a' && !(B.C in {a, \"b c\"}) || A =mon B <=> true]",
    "nest[C = (A, B)] ; map(unique ; monus) ; cap ; diff",
    "tup[A = eqmon[A, B], B = subseteq[A.B, C], C = in[A, B]] ; pi[A.B]",
    "cart(id, 'x' ; sng) ; union(flatmap(pairwith[A]), empty) ; flatten",
    "(unit ; sng) ; map(tup[] ; eq[A, B] ; not ; true ; union)",
]


def _ma_text(rng):
    if rng.random() < 0.1:
        return rng.choice(_MA_TEXTS)
    if rng.random() < 0.5:
        t = gen.gen_pairlist_type(rng, 2)
        return print_ma(gen.gen_pairlist_query(rng, t, 3))
    t = gen.gen_type(rng, 2, LIST)
    return print_ma(gen.gen_typed_query(rng, t, 3, LIST))


def _xq_text(rng):
    return print_xq(gen.gen_tree_query(rng, 5))


def _xml_text(rng):
    return print_xml(gen.gen_doc(rng, 20))


def _step(rng, depth):
    r = rng.random()
    if depth and r < 0.25:
        return (_step(rng, depth - 1), _step(rng, depth - 1))
    if r < 0.35:
        return rng.choice((MARK_EMPTY, MARK_UNIT))
    return rng.choice(("a", "1", "12", "A", "a b", "x.y", "[]"))


def _path_text(rng):
    return print_path(tuple(_step(rng, 2)
                            for _ in range(rng.randint(1, 4))))


def _lp_text(rng):
    t = gen.gen_type(rng, 2, LIST)
    q = gen.gen_typed_query(rng, t, 3, LIST)
    return print_lp(compile_lp(q, closed=rng.random() < 0.5))


# (reader, printer, base text drawer, hand-written malformed texts)
_READERS = {
    "value": (parse_value, print_value, _value_text, [
        "", "  ", "<", "<A>", "<A:>", "<A: a", "<A: a,>", "<A: a B: b>",
        "<A: a, A: b>", "{a b}", "{a,}", "{|a|", "{|}", "{ |a|}", "[a]]",
        '"abc', '"a\\', "a b", "<:a>", "{<A: a>, <A: a, A: b>}", "[{|",
    ]),
    "type": (parse_type, print_type, _type_text, [
        "", "Do", "Domx", "{}", "{Dom, Dom}", "{|Dom}", "[Dom", "<A Dom>",
        "<A: Dom, A: Dom>", "<A: Dom,>", "a", "{ |Dom|}", "<A: {Dom>",
        "[<>]]", "  x",
    ]),
    "ma": (parse_ma, print_ma, _ma_text, [
        "", "map(", "map(id", "cart(id)", "pairwith[A.B]", "tup[A]",
        "eqatom[A B]", "nest[C = (A]", "select[A =atom]", "select[A < B]",
        "frobnicate", "'a", "id ; ", "id id", "select[(A = B]",
    ]),
    "xq": (parse_xq, print_xq, _xq_text, [
        "", "<a>", "<a></b>", "$x", "for $x in", "for $x in $root/* return",
        "<for/>", "$root/parent::a", "let $x := <a/>, <b/> return $x",
        "if ($root/a) then", "($root eq <a/>)", "<a>{$root}</a> )",
        "some $x in $root/* satisfies", "$root/", "not($root",
    ]),
    "xml": (parse_xml, print_xml, _xml_text, [
        "", "<a>", "<a/><b/>", "<a></b>", "<a><b/></a", "a", "<>", "</a>",
        "<a/ >", "< a/>", "<a><b></a>", '<"a b"/>',
    ]),
    "path": (parse_path, print_path, _path_text, [
        "", ".", "a.", "(a", "(a.b", "a..b", "()", "a b", "(a.b).", '"a',
        "[].<>", "((a.b).c", "a.(b.c)d",
    ]),
    "lp": (parse_lp, print_lp, _lp_text, [
        "", "p(e)", "p(e) :- q(e).", "p(u) :- q(e).", "p(e, a) :- .",
        "not p(e).", "p(e) :- not q(e, a).", "p(e, u.a) :- q(u).",
        "p(e) :- q(e) r(e).", "p(e) x :- q(e).", "p(Z) :- q(e).",
        "p(e).\np(e, a).", "p(e) :- p(e).", 'p(e, "a) :- q(e).',
        "% goal: p\n", "p(e, (a.b) :- q(e).",
    ]),
}

# sha256 over every _READERS entry in order: for 1,200 seeds each, a
# printed text drawn by the seed and then mutated by it, and then the
# hand-written texts; each line the printed result of reading it, or
# the error's type name and message.
PARSE_DIGEST = (
    "247230e65fbb123f1afa665506fa5ecc"
    "9ae2520429911fe8208e28905fa84a40")


def test_reader_outcomes_are_pinned():
    lines = []
    for name, (read, show, draw, malformed) in _READERS.items():
        for seed in range(1200):
            rng = random.Random("%s %d" % (name, seed))
            text = _mutate(rng, draw(rng))
            lines.append(repr(text))
            lines.append(_outcome(read, show, text))
        for text in malformed:
            lines.append(repr(text))
            lines.append(_outcome(read, show, text))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PARSE_DIGEST


def test_values_and_types_nested_3000_deep_parse():
    """The value and type reader keeps its open brackets on a stack."""
    v = parse_value("{" * 3000 + "a" + "}" * 3000)
    for _ in range(3000):
        (v,) = v.elems
    assert v.label == "a"
    v = parse_value("<A: " * 3000 + "a" + ">" * 3000)
    for _ in range(3000):
        v = v.field("A")
    assert v.label == "a"
    t = parse_type("[" * 3000 + "Dom" + "]" * 3000)
    for _ in range(3000):
        assert t.kind == LIST
        t = t.elem
    assert t == DOM


def test_the_recursive_readers_keep_their_depth():
    """These readers still take a frame or two per level; reading a
    whole text through one shared frame costs them no level of these.
    A fresh interpreter counts the depth from the bottom of its stack,
    as the CLI does."""
    script = """if True:
        from nestql.detree import parse_path
        from nestql.ma_text import parse_ma
        from nestql.xmlxq import parse_xml, parse_xq
        parse_xml("<a>" * 900 + "</a>" * 900)
        parse_xq("<a>" * 480 + "</a>" * 480)
        parse_path("(a." * 900 + "b" + ")" * 900)
        parse_ma("map(" * 450 + "id" + ")" * 450)
    """
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True)
    assert (r.returncode, r.stderr) == (0, "")


@pytest.mark.parametrize("read, text, message", [
    (parse_pathset, "a.b\n\n  a.(b\n", "line 3: expected ')' at position 6"),
    (parse_pathset, "a\n% b\n", "line 2: expected atom at position 0"),
    (parse_flat, "atomic(1, a).\n\n set(1)x.\n",
     "line 3: expected '.' at position 6"),
    (parse_flat, "% c\natomic(1, a). pair(1, 2, 3).\n",
     "line 2: trailing input at position 14"),
    (parse_flat, "set(1, a, b).\n", "line 1: set expects 2 arguments"),
    (parse_flat, "sets(1, a).\n", "line 1: unknown relation sets at "
     "position 4"),
    (parse_tm, "states: q\n% c\nstart:\n", "line 3: start names one "
     "state, got 0"),
    (parse_tm, "states: q r\nstart: q r\n", "line 2: start names one "
     "state, got 2"),
], ids=["pathset", "pathset-comment", "flat", "flat-trailing", "flat-arity",
        "flat-relation", "tm-start-none", "tm-start-two"])
def test_line_formats_name_the_line_of_an_error(read, text, message):
    with pytest.raises(ValueError_) as e:
        read(text)
    assert str(e.value) == message
