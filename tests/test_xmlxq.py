import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from nestql import gen
from nestql.bridge import check_thm62, encode_T, ma_to_xq, xq_to_ma
from nestql.values import ATOMIC, DEEP, ValueError_
from nestql.xmlxq import (
    CHILD, DESCENDANT, AxisStep, Elem, EmptyElem, EmptySeq, For, If, Let,
    QueryEq, Seq, Tree, Var, VarEq, decide_xq, eval_xq, parse_xml, parse_xq,
    print_xml, print_xq, tree_nodes, xq_desugar,
)


DOC = parse_xml("<r><a><c/></a><b/><a/></r>")


def run(q, doc=DOC):
    return eval_xq(q, (doc,))


def show(trees):
    return [print_xml(t) for t in trees]


# One unit test per semantic evaluation rule.

def test_rule_empty_element():
    assert show(run(EmptyElem("a"))) == ["<a/>"]


def test_rule_element_wraps_its_body_sequence():
    q = Elem("x", Seq(EmptyElem("a"), EmptyElem("b")))
    assert show(run(q)) == ["<x><a/><b/></x>"]


def test_rule_empty_sequence():
    assert run(EmptySeq()) == []


def test_rule_sequence_concatenates():
    q = Seq(EmptyElem("b"), EmptyElem("a"))
    assert show(run(q)) == ["<b/>", "<a/>"]


def test_rule_for_iterates_in_order():
    q = For(AxisStep(1, CHILD, "*"), Var(2))
    assert show(run(q)) == ["<a><c/></a>", "<b/>", "<a/>"]


def test_rule_let_binds_a_singleton():
    q = Let(Elem("w", Var(1)), Var(2))
    assert show(run(q)) == ["<w><r><a><c/></a><b/><a/></r></w>"]


def test_rule_variable_lookup():
    assert run(Var(1)) == [DOC]


def test_rule_axis_step_filters_by_test_in_document_order():
    q = AxisStep(1, CHILD, "a")
    assert show(run(q)) == ["<a><c/></a>", "<a/>"]
    q = AxisStep(1, DESCENDANT, "c")
    assert show(run(q)) == ["<c/>"]


def test_rule_if_with_empty_else_branch():
    yes = If(EmptyElem("t"), EmptyElem("a"))
    assert show(run(yes)) == ["<a/>"]
    no = If(EmptySeq(), EmptyElem("a"))
    assert run(no) == []


def test_rule_var_equality_yields_yes_or_nothing():
    doc = parse_xml("<r><a/><a/><b/></r>")
    eq_ab = For(AxisStep(1, CHILD, "a"),
                For(AxisStep(1, CHILD, "a"), VarEq(2, 3, DEEP)))
    assert show(run(eq_ab, doc)) == ["<yes/>"] * 4
    ne = For(AxisStep(1, CHILD, "a"),
             For(AxisStep(1, CHILD, "b"), VarEq(2, 3, DEEP)))
    assert run(ne, doc) == []


def test_atomic_equality_requires_leaves():
    doc = parse_xml("<r><a><c/></a><a><c/></a></r>")
    deep = For(AxisStep(1, CHILD, "a"),
               For(AxisStep(1, CHILD, "a"), VarEq(2, 3, DEEP)))
    assert len(run(deep, doc)) == 4
    atomic = For(AxisStep(1, CHILD, "a"),
                 For(AxisStep(1, CHILD, "a"), VarEq(2, 3, ATOMIC)))
    with pytest.raises(ValueError_):
        run(atomic, doc)


def test_let_rejects_non_singleton_binding():
    q = Let(Seq(EmptyElem("a"), EmptyElem("a")), Var(2))
    with pytest.raises(ValueError_):
        run(q)


@pytest.mark.parametrize("text, pos", [
    ("let $x := $root/a return $x", 18),
    ("<r>{let $x := <a/> return let $y := {$x $x} return $y}</r>", 44),
])
def test_parser_rejects_a_non_singleton_let_where_it_reads_it(text, pos):
    with pytest.raises(ValueError_) as e:
        parse_xq(text)
    assert str(e.value) == ("let binds a non-singleton form at position %d"
                            % pos)


def test_decide_requires_one_tree_and_checks_children():
    assert decide_xq(parse_xq("<a>{$root/b}</a>"), DOC)
    assert not decide_xq(parse_xq("<a>{$root/z}</a>"), DOC)


def test_xml_print_parse_roundtrip():
    assert parse_xml(print_xml(DOC)) == DOC


@given(st.integers(0, 10 ** 6))
def test_query_print_parse_roundtrip(seed):
    """Reparsing may reassociate sequences and conditions, so the check
    is that the printed form is a fixpoint and the meaning is kept."""
    rng = random.Random(seed)
    q = gen.gen_tree_query(rng, 5)
    doc = gen.gen_doc(rng, 15)
    q2 = parse_xq(print_xq(q))
    assert print_xq(q2) == print_xq(q)
    assert eval_xq(q2, (doc,)) == eval_xq(q, (doc,))


@pytest.mark.parametrize("text", [
    "{}",
    "<x>{}</x>",
    "every $y in $root/* satisfies $y/t",
    "$root/descendant::t",
    "$root/descendant::*",
    "<x>{for $y in $root/a return $y} <z/></x>",
    "some $y in $root/* satisfies ($y/a or $y/t)",
])
def test_printed_forms_the_drawn_queries_miss_round_trip(text):
    q = parse_xq(text)
    q2 = parse_xq(print_xq(q))
    assert print_xq(q2) == print_xq(q)
    for doc in (DOC, parse_xml("<r><a><t/></a><b><t/></b></r>")):
        assert eval_xq(q2, (doc,)) == eval_xq(q, (doc,))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_desugared_query_agrees(seed):
    rng = random.Random(seed)
    q = gen.gen_tree_query(rng, 4)
    doc = gen.gen_doc(rng, 15)
    assert eval_xq(xq_desugar(q), (doc,)) == eval_xq(q, (doc,))


# The derived forms mean what xq_desugar makes of them; these expected
# results pin that meaning independently of the desugarer. Each form
# appears at top level and under a for loop.

DERIVED_DOC = parse_xml(
    "<r><a><c><t/></c><t/></a><b><c/><a><t/></a></b><a/></r>")

DERIVED_CASES = [
    ("and", "if ($root/a and $root/b) then <y/>", ["<y/>"]),
    ("and-item", "($root/a and $root/z)", []),
    ("and-for", "for $x2 in $root/* return <w>{($x2/t and $x2/c)}</w>",
     ["<w><c><t/></c></w>", "<w/>", "<w/>"]),
    ("or", "($root/z or $root/b or $root/a/c)",
     ["<b><c/><a><t/></a></b>", "<c><t/></c>"]),
    ("or-for", "for $x2 in $root/* return <w>{($x2/c or $x2/t)}</w>",
     ["<w><c><t/></c><t/></w>", "<w><c/></w>", "<w/>"]),
    ("not", "(not($root/z))", ["<yes/>"]),
    ("not-cond", "if (not($root/a)) then <y/>", []),
    ("not-for", "for $x2 in $root/* return <w>{(not($x2/c))}</w>",
     ["<w/>", "<w/>", "<w><yes/></w>"]),
    ("some", "(some $x2 in $root/* satisfies $x2/c)",
     ["<c><t/></c>", "<c/>"]),
    ("some-for",
     "for $x2 in $root/* return <w>{(some $x3 in $x2/* satisfies $x3/t)}</w>",
     ["<w><t/></w>", "<w><t/></w>", "<w/>"]),
    ("every-false", "(every $x2 in $root/a satisfies $x2/c)", []),
    ("every-true", "(every $x2 in $root/* satisfies not($x2/z))",
     ["<yes/>"]),
    ("every-for",
     "for $x2 in $root/* return <w>{(every $x3 in $x2/* satisfies $x3/*)}</w>",
     ["<w/>", "<w/>", "<w><yes/></w>"]),
    ("every-not-for",
     "for $x2 in $root/* return "
     "<w>{(every $x3 in $x2/* satisfies not($x3/t))}</w>",
     ["<w/>", "<w/>", "<w><yes/></w>"]),
    ("path", "$root/a/c", ["<c><t/></c>"]),
    ("path-3", "$root/*/*/t", ["<t/>", "<t/>"]),
    ("path-for", "for $x2 in $root/* return <w>{$x2/*/t}</w>",
     ["<w><t/></w>", "<w><t/></w>", "<w/>"]),
    ("desc-path", "$root/b/descendant::t", ["<t/>"]),
    ("path-desc", "$root/descendant::c/t", ["<t/>"]),
    ("desc-path-for",
     "for $x2 in $root/* return <w>{$x2/descendant::*/t}</w>",
     ["<w><t/></w>", "<w><t/></w>", "<w/>"]),
    ("path-desc-for",
     "for $x2 in $root/* return <w>{$x2/c/descendant::t}</w>",
     ["<w><t/></w>", "<w/>", "<w/>"]),
]


@pytest.mark.parametrize("name,text,want", DERIVED_CASES,
                         ids=[c[0] for c in DERIVED_CASES])
def test_derived_forms_meaning(name, text, want):
    q = parse_xq(text)
    assert show(run(q, DERIVED_DOC)) == want
    if "descendant" not in text:
        # only the child axis translates to the algebra
        assert check_thm62(q, DERIVED_DOC)


def test_every_evaluates_its_whole_desugaring():
    """every is not(some ... satisfies not(...)) and does not stop at the
    first failing member: the body's atomic comparison reaches the
    non-leaf <a> although <t/> already fails the body."""
    q = parse_xq("(every $x2 in $root/* satisfies ($x2 eq $x2) and $x2/z)")
    with pytest.raises(ValueError_, match="atomic equality on non-leaf"):
        run(q, parse_xml("<r><t/><a><c/></a></r>"))


# Forms gen_tree_query never draws, each evaluated on DERIVED_DOC and
# translated, and the errors that only built trees reach.
XQ_PINNED_TEXTS = [
    "(every $x2 in $root/* satisfies $x2/t)",
    "for $x2 in $root/* return <w>{(every $x3 in $x2/* satisfies $x3/*)}</w>",
    "$root/*/*/t",
    "for $x2 in $root/* return <w>{$x2/a/t}</w>",
    "$root/descendant::t",
    "$root/b/descendant::*/t",
    "($root/a = $root/b)",
    "($root/a/c = $root/b/a)",
    "for $x2 in $root/* return ($x2 eq $x2)",
]
XQ_PINNED_TREES = [
    Let(Seq(EmptyElem("a"), EmptyElem("b")), Var(2)),
    Let(AxisStep(1, CHILD, "a"), Var(2)),
    Var(5),
    For(AxisStep(1, CHILD, "*"), AxisStep(3, CHILD, "*")),
    Seq(Var(4), VarEq(1, 1, ATOMIC)),
    If(VarEq(1, 1, ATOMIC), Var(3)),
    Elem("w", QueryEq(AxisStep(1, CHILD, "a"), AxisStep(1, CHILD, "a"),
                      ATOMIC)),
]

# sha256 over seeds 0-599 of the desugared form, the evaluation and the
# algebra translation of a gen_tree_query draw on a gen_doc draw, and of
# the tree translation of a gen_pairlist_query draw with its printed
# text and its evaluation on the T-image of a gen_value draw; then the
# same three for XQ_PINNED_TEXTS and XQ_PINNED_TREES. An error enters as
# its type name and message.
XQ_DIGEST = (
    "d0229eb9b78827d867d0f35dcdf8b902"
    "f6eecb147f9c1dd772a5bfb5ef061f24")


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as e:
        return "%s: %s" % (type(e).__name__, e)


def _tree_query_lines(q, doc):
    return [_outcome(xq_desugar, q), _outcome(eval_xq, q, (doc,)),
            _outcome(xq_to_ma, q)]


def test_tree_queries_and_translations_are_pinned():
    lines = []
    for seed in range(600):
        rng = random.Random(seed)
        lines += _tree_query_lines(gen.gen_tree_query(rng, 5),
                                   gen.gen_doc(rng, 20))
        t = gen.gen_pairlist_type(rng, 2)
        p = gen.gen_pairlist_query(rng, t, 3)
        v = gen.gen_value(rng, t)
        x = ma_to_xq(p, t)
        lines += [repr(x), print_xq(x),
                  _outcome(eval_xq, x, (encode_T(v),))]
    for q in [parse_xq(s) for s in XQ_PINNED_TEXTS] + XQ_PINNED_TREES:
        lines += _tree_query_lines(q, DERIVED_DOC)
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == XQ_DIGEST


def test_descendant_steps_and_node_counts_take_deep_trees():
    """A chain 5,000 deep once failed on the recursion limit in both."""
    leaf = chain = Tree("t")
    for _ in range(5000):
        chain = Tree("a", (chain,))
    got = run(AxisStep(1, DESCENDANT, "t"), chain)
    assert len(got) == 1 and got[0] is leaf
    assert tree_nodes(chain) == 5001
    assert len(run(parse_xq("$root/descendant::*"), chain)) == 5000
