import random

import pytest

from nestql.checks import TM_WORDS
from nestql.ma import ast_size, eval_ma
from nestql.values import (
    Atom, Coll, SET, Tuple, UNIT, ValueError_, parse_type, parse_value,
    print_value, value_nodes,
)
from nestql.reductions import (
    ACCEPTOR, BLANK, BOUNDARY, BUNDLED, GUESSER, REJECTOR, TMSpec,
    decide_tm_query, flat_encode, flat_string, gen_doubly_exp,
    gen_start_config, gen_tm_query, gen_vprime, gen_vtau, marker,
    parse_flat, parse_tm, print_flat, print_tm, simulate_ntm,
    tm_config_space, tm_query_sizes, validate_tm,
)


def test_machine_spec_print_parse_roundtrip():
    for tm in BUNDLED.values():
        assert parse_tm(print_tm(tm)) == tm


@pytest.mark.parametrize("alphabet, move, want", [
    ((BLANK,), 0, "machine alphabet must contain the boundary #b"),
    ((BOUNDARY, BLANK), 2, "bad move 2"),
])
def test_machine_validation_refuses_what_no_spec_file_reaches(
        alphabet, move, want):
    """parse_tm adds the boundary, and reads only the moves -1, 0, +1."""
    tm = TMSpec(states=("q0",), alphabet=alphabet, start="q0", finals=(),
                delta=(("q0", BLANK, "q0", BLANK, move),))
    with pytest.raises(ValueError_) as e:
        validate_tm(tm)
    assert str(e.value) == want


def test_machine_validation_rejects_non_idling_finals():
    tm = TMSpec(states=("q0", "qa"), alphabet=(BOUNDARY, BLANK),
                start="q0", finals=("qa",), delta=())
    with pytest.raises(ValueError_):
        validate_tm(tm)


def test_machine_validation_rejects_marker_prefixed_symbols():
    tm = TMSpec(states=("q0",), alphabet=(BOUNDARY, BLANK, marker("x")),
                start="q0", finals=(), delta=())
    with pytest.raises(ValueError_):
        validate_tm(tm)


def test_simulation_accept_all_machine():
    delta = tuple(("q0", s, "q0", s, 0)
                  for s in (BOUNDARY, BLANK)) + tuple(
        ("qa", s, "qa", s, 0) for s in (BOUNDARY, BLANK))
    tm = TMSpec(states=("q0", "qa"), alphabet=(BOUNDARY, BLANK),
                start="qa", finals=("qa",), delta=delta)
    assert simulate_ntm(tm, (), 2)


def test_simulation_stuck_machine_rejects():
    tm = TMSpec(states=("q0",), alphabet=(BOUNDARY, BLANK),
                start="q0", finals=(), delta=())
    assert not simulate_ntm(tm, (), 2)


def test_simulation_of_bundled_machines():
    assert simulate_ntm(ACCEPTOR, ("1",), 2)
    assert not simulate_ntm(ACCEPTOR, (BLANK,), 2)
    assert not simulate_ntm(REJECTOR, (), 2)
    assert simulate_ntm(GUESSER, ("1",), 2)
    assert not simulate_ntm(GUESSER, (BLANK,), 2)


def test_doubly_exponential_cardinalities():
    for m in range(4):
        out = eval_ma(gen_doubly_exp(m), UNIT, SET)
        assert len(out.elems) == 2 ** 2 ** m


def test_flat_positions_match_the_serialization():
    v = parse_value("{<1: a, 2: b>, <1: c, 2: d>}")
    assert flat_string(v) == "{⟨a,b⟩,⟨c,d⟩}"
    got = print_flat(flat_encode(v))
    assert got == """\
atomic(3, a).
atomic(5, b).
atomic(9, c).
atomic(11, d).
set(1, 2).
set(1, 8).
pair(2, 3, 5).
pair(8, 9, 11).
"""


def test_flat_single_atom_and_empty_set():
    a = flat_encode(parse_value("a"))
    assert print_flat(a) == "atomic(1, a).\n"
    e = flat_encode(parse_value("{}"))
    assert print_flat(e) == ""


def test_flat_print_parse_roundtrip():
    v = parse_value("{<1: {a}, 2: b>}")
    db = flat_encode(v)
    assert parse_flat(print_flat(db)) == db


def test_reassembly_recovers_the_value():
    t = parse_type("{<1: Dom, 2: Dom>}")
    v = parse_value("{<1: a, 2: b>, <1: c, 2: d>}")
    pairs = eval_ma(gen_vtau(t), flat_encode(v), SET)
    assert print_value(pairs) == \
        "{<1: 1, 2: {{<1: a, 2: b>, <1: c, 2: d>}}>}"
    out = eval_ma(gen_vprime(t), flat_encode(v), SET)
    assert print_value(out) == "{{<1: a, 2: b>, <1: c, 2: d>}}"


def _count_head_markers(tape) -> int:
    if isinstance(tape, Atom):
        return 1 if tape.label.startswith("m#") else 0
    assert isinstance(tape, Tuple)
    return sum(_count_head_markers(x) for _, x in tape.fields)


@pytest.mark.parametrize("K", [1, 2])
def test_start_configuration_has_one_head_marker(K):
    for name, tm in BUNDLED.items():
        word = ("1",) if "1" in tm.alphabet else ()
        c = eval_ma(gen_start_config(tm, word, K), UNIT, SET)
        assert _count_head_markers(c.field("t")) == 1
        assert c.field("q") == Atom(tm.start)


def test_acceptance_query_matches_simulation_at_small_scale():
    for word, want in ((("1",), True), ((BLANK,), False)):
        assert decide_tm_query(ACCEPTOR, word, 1) == want
        assert decide_tm_query(ACCEPTOR, word, 1, expand_eq=True) == want
    assert not decide_tm_query(REJECTOR, (), 1)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_expanded_acceptance_query_matches_simulation(name):
    """Spelled-out equality decides as the simulation does, for every
    bundled machine and every word the checks use."""
    tm = BUNDLED[name]
    for word in TM_WORDS[name]:
        assert (decide_tm_query(tm, word, 1, expand_eq=True)
                == simulate_ntm(tm, word, 2)), word


# moves right onto the first input cell, then left back onto the boundary
# iff that cell holds a 1; no bundled machine moves left
LEFT_MOVER = parse_tm("""\
states: q0 q1 qa
alphabet: #b # 1
start: q0
final: qa
delta: q0 #b -> q1 #b +1
delta: q1 1 -> qa 1 -1
delta: q1 # -> q1 # 0
delta: qa #b -> qa #b 0
delta: qa # -> qa # 0
delta: qa 1 -> qa 1 0
""")


@pytest.mark.parametrize("expand_eq", [False, True])
@pytest.mark.parametrize("word", [(), ("1",), (BLANK,)])
def test_a_left_move_decides_as_the_simulation(word, expand_eq):
    want = simulate_ntm(LEFT_MOVER, word, 2)
    assert want == (word == ("1",))
    assert decide_tm_query(LEFT_MOVER, word, 1, expand_eq) == want


@pytest.mark.parametrize("word, want", [(("1", BLANK), True),
                                        ((BLANK, "1"), False)])
def test_a_left_move_decides_as_the_simulation_at_k2(word, want):
    assert simulate_ntm(LEFT_MOVER, word, 4) == want
    assert decide_tm_query(LEFT_MOVER, word, 2) == want


def test_query_sizes_are_deterministic_and_grow():
    s1 = tm_query_sizes(ACCEPTOR, ("1",), 1)
    s2 = tm_query_sizes(ACCEPTOR, ("1",), 2)
    assert s1 == tm_query_sizes(ACCEPTOR, ("1",), 1)
    assert s2[0] > s1[0] and s2[1] > s1[1]
    # the expanded form spells equality out and is strictly larger
    assert s1[1] > s1[0]


def test_config_space_estimate_is_monotonic():
    assert tm_config_space(ACCEPTOR, 2) > tm_config_space(ACCEPTOR, 1)
    assert tm_config_space(REJECTOR, 2) < tm_config_space(ACCEPTOR, 2)


def test_word_must_fit_the_tape():
    with pytest.raises(ValueError_):
        gen_tm_query(ACCEPTOR, ("1",) * 4, 1)
