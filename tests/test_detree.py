import random

import pytest
from hypothesis import given, settings, strategies as st

from nestql import gen
from nestql.detree import (
    check_deterministic, decode_det, encode_det, eval_closed, eval_det,
    listify_type, parse_pathset, print_pathset,
)
from nestql.ma import UNIT_T, eval_ma, infer_type
from nestql.ma_text import parse_ma
from nestql.values import LIST, SET, UNIT, parse_type, parse_value


@given(st.integers(0, 10 ** 6))
def test_encode_decode_roundtrip(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, SET)
    v = gen.gen_value(rng, t)
    paths = encode_det(v)
    assert check_deterministic(paths)
    assert decode_det(paths, t) == v


@given(st.integers(0, 10 ** 6))
def test_pathset_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    t = gen.gen_type(rng, 3, LIST)
    v = gen.gen_value(rng, t)
    paths = encode_det(v)
    assert parse_pathset(print_pathset(paths)) == paths


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_eval_det_agrees_with_direct(seed):
    rng = random.Random(seed)
    q = gen.gen_closed_query(rng, 4, LIST)
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    direct = eval_ma(q, UNIT, LIST)
    got = decode_det(eval_closed(q, empty_markers=True), lt)
    assert got == direct


def test_eval_det_result_is_deterministic():
    rng = random.Random(9)
    for _ in range(50):
        q = gen.gen_closed_query(rng, 4, LIST)
        assert check_deterministic(eval_closed(q, empty_markers=True))


def test_computed_empty_needs_the_marker():
    """Without marker forwarding, an empty collection computed under a
    constructor decays to path absence; the marker keeps it decodable."""
    q = parse_ma("'c' ; sng ; union(empty, empty) ; sng")
    lt = listify_type(infer_type(q, UNIT_T, LIST))
    with_marker = decode_det(eval_closed(q, empty_markers=True), lt)
    assert with_marker == eval_ma(q, UNIT, LIST)
    bare = decode_det(eval_closed(q, empty_markers=False), lt)
    assert bare != with_marker


def test_empty_input_value_roundtrips():
    v = parse_value("<A: {}, B: a>")
    t = parse_type("<A: {Dom}, B: Dom>")
    assert decode_det(encode_det(v), t) == v


def test_eval_det_on_open_input():
    v = parse_value("{a, b}")
    q = parse_ma("map(tup[X = id])")
    t = parse_type("{Dom}")
    out = eval_det(q, encode_det(v))
    assert decode_det(out, infer_type(q, t, SET)) == eval_ma(q, v, SET)


def test_atoms_spelled_like_markers_stay_atoms():
    """The empty and unit markers are steps of their own; atoms with the
    same spelling print quoted and decode back to atoms."""
    v = parse_value('<A: "[]", B: "<>">')
    text = print_pathset(encode_det(v))
    assert text == 'A."[]"\nB."<>"'
    assert decode_det(parse_pathset(text)) == v
