import random

import pytest
from hypothesis import given, settings, strategies as st

from nestql import gen
from nestql.bridge import (
    check_thm62, check_thm63, decode_C, encode_C, encode_T, initial_env,
    ma_to_xq, xq_to_ma,
)
from nestql.ma import eval_ma
from nestql.values import LIST, parse_value
from nestql.xmlxq import eval_xq, parse_xml, parse_xq, print_xml


@given(st.integers(0, 10 ** 6))
def test_tree_value_encoding_roundtrip(seed):
    rng = random.Random(seed)
    doc = gen.gen_doc(rng, 20)
    assert decode_C(encode_C(doc)) == doc


def test_tree_encoding_shape():
    doc = parse_xml("<r><a/></r>")
    v = encode_C(doc)
    assert v.field("label").label == "r"
    (child,) = v.field("children").elems
    assert child.field("label").label == "a"
    assert child.field("children").elems == ()


def test_translated_query_runs_on_the_initial_environment():
    doc = parse_xml("<r><a/><b/><a/></r>")
    from nestql.xmlxq import parse_xq
    q = parse_xq("for $x2 in $root/a return <c/>")
    out = eval_ma(xq_to_ma(q), initial_env(doc), LIST)
    want = [encode_C(t) for t in eval_xq(q, (doc,))]
    assert list(out.elems) == want


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_tree_to_algebra_translation(seed):
    rng = random.Random(seed)
    q = gen.gen_tree_query(rng, 5)
    doc = gen.gen_doc(rng, 20)
    assert check_thm62(q, doc)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_algebra_to_tree_translation(seed):
    rng = random.Random(seed)
    t = gen.gen_pairlist_type(rng, 2)
    q = gen.gen_pairlist_query(rng, t, 3)
    v = gen.gen_value(rng, t)
    assert check_thm63(q, v, t)


def test_pairlist_queries_are_well_typed():
    """gen_pairlist_query type-checks what it returns; seed 901 once drew
    a selection comparing fields of different types."""
    for seed in [901] + list(range(400)):
        rng = random.Random(seed)
        t = gen.gen_pairlist_type(rng, 2)
        gen.gen_pairlist_query(rng, t, 3)


def test_value_to_tree_image_tags_structure():
    v = parse_value("[<A: a, B: b>]")
    t = encode_T(v)
    assert print_xml(t).startswith("<list>")


@pytest.mark.parametrize("text", [
    "($root = $root)",
    "(not($root/z))",
    "for $x2 in $root/* return ($x2 eq $x2)",
    "(some $x2 in $root/* satisfies ($x2 = $x2))",
])
def test_comparisons_and_negations_as_items_translate(text):
    """Used as items, comparisons and negations yield <yes/> trees, and so
    must their translations."""
    q = parse_xq(text)
    doc = parse_xml("<r><a/><b/></r>")
    assert [print_xml(t) for t in eval_xq(q, (doc,))][:1] == ["<yes/>"]
    assert check_thm62(q, doc)
