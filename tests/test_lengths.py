from fractions import Fraction
from itertools import product as iproduct

import pytest

from zerolen import (
    LengthEngine,
    ResourceLimitError,
    Sequence,
    delta,
    engine_for,
    enumerate_atoms,
    is_aamp,
    make_group,
    parse_sequence,
    rho,
)

from zerolen.lengths import PackedLayout

from oracles import naive_lengths


# the T48:L3 witness at y = 0, k = 10 (``zerolen family witness T48:L3 --k 10``)
T48_L3_K10 = (
    "(0,0,0,1)^6*(0,0,1,0)^6*(0,0,1,1)*(0,1,0,0)^6*(0,1,0,1)^2"
    "*(1,0,0,0)^6*(1,0,1,0)^2*(1,1,0,0)*(1,1,1,1)^5"
)


def L(group, text):
    return engine_for(group).length_set(parse_sequence(group, text))


def test_reference_values():
    g5 = make_group([5])
    assert L(g5, "(1)^5*(4)^5") == (2, 5)
    g24 = make_group([2, 4])
    U1 = parse_sequence(g24, "(1,0)*(0,1)^3*(1,1)")
    assert engine_for(g24).length_set(U1 * U1.negate()) == (2, 4, 5)
    g16 = make_group([2, 2, 2, 2])
    U = parse_sequence(g16, "(1,1,1,1)*(1,0,0,0)*(0,1,0,0)*(0,0,1,0)*(0,0,0,1)")
    V = parse_sequence(g16, "(1,0,0,0)*(0,1,0,0)*(0,0,1,0)*(1,1,1,0)")
    got = engine_for(g16).length_set(U.times(2) * V.times(2))
    assert got == (4, 6, 7, 8, 9)  # {4} u [6,9]


def test_atoms_have_length_set_one():
    g5 = make_group([5])
    assert L(g5, "(1)^5") == (1,)
    assert L(g5, "(2)*(3)") == (1,)


def test_empty_and_zero_shift():
    g5 = make_group([5])
    assert L(g5, "()") == (0,)
    assert L(g5, "(0)^3") == (3,)
    base = parse_sequence(g5, "(1)^5*(4)^5")
    eng = engine_for(g5)
    assert eng.length_set(base.with_zeros(4)) == tuple(v + 4 for v in eng.length_set(base))


def test_long_sequences_need_no_recursion():
    g2 = make_group([2])
    assert engine_for(g2).length_set(Sequence.build(g2, {(1,): 4000})) == (2000,)
    g5 = make_group([5])
    B = Sequence.build(g5, {(1,): 2000, (4,): 2000})
    assert engine_for(g5).length_set(B) == tuple(range(800, 2001, 3))


def test_too_wide_for_the_packed_sweep():
    g2 = make_group([2])
    with pytest.raises(ResourceLimitError):
        engine_for(g2).length_set(Sequence.build(g2, {(1,): 2**600}))


def test_whole_byte_fields_keep_the_size_cap():
    # 99 fields of 6 bits fit the 600-bit cap; widened to a byte each they
    # would not, and the cap is set for the unwidened fields
    G = make_group([100])
    layout = PackedLayout(G, G.nonzero_elements, 31, whole_bytes=True)
    assert layout.bits == 8
    fields = bytes(range(99))
    assert layout.vector(layout.state(fields)) == fields
    for whole_bytes in (False, True):
        with pytest.raises(ResourceLimitError):
            PackedLayout(G, G.nonzero_elements, 32, whole_bytes=whole_bytes)


@pytest.mark.parametrize("width, size", [(127, 1), (128, 2), (2**15, 4), (2**31, 8)])
def test_whole_byte_fields_round_trip(width, size):
    # fields past one byte go through an array of the host's machine integers
    G = make_group([2, 2])
    layout = PackedLayout(G, G.nonzero_elements, width, whole_bytes=True)
    assert layout.bits == 8 * size
    fields = [width, 1, width - 2]
    state = layout.pack(zip(G.nonzero_elements, fields))
    assert layout.state(fields) == state
    assert list(layout.vector(state)) == fields
    assert layout.state(layout.vector(state)) == state


def test_node_budget_covers_one_query(monkeypatch):
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "30")
    g5 = make_group([5])
    eng = LengthEngine(g5)
    # 16, 16 and 29 states: each query fits the budget, the three do not
    for text in ("(1)^40*(4)^40", "(2)^40*(3)^40", "(1)^6*(2)^2*(3)^2*(4)^6"):
        before = eng.nodes
        assert eng.length_set(parse_sequence(g5, text))
        assert 0 < eng.nodes - before <= 30
    assert eng.nodes > 30
    with pytest.raises(ResourceLimitError):
        eng.length_set(parse_sequence(g5, "(1)^5*(2)^5*(3)^5*(4)^5"))


def test_descent_visits_fewer_states_than_the_upward_sweep():
    # the upward sweep capped by B's multiplicities took 12,601 states on
    # the n = 50 ladder and 32,574 on the T48:L3 witness at k = 10; the
    # descent by one atom per step took 6,425 and 1,441
    g5 = make_group([5])
    eng = LengthEngine(g5)
    assert eng.length_set(Sequence.build(g5, {(1,): 250, (4,): 250}))[0] == 100
    assert eng.nodes == 100
    g16 = make_group([2, 2, 2, 2])
    eng = LengthEngine(g16)
    witness = parse_sequence(g16, T48_L3_K10)
    assert eng.length_set(witness) == tuple(range(7, 18))
    assert eng.nodes == 1166


def test_n_2000_ladder_fits_a_budget_of_5000_states(monkeypatch):
    # (1)^10000·(4)^10000 over C5: (1)^5 steps reach (1)^(10000-5j)·(4)^10000,
    # one closing step by copies of (1)(4) takes each to (4)^(5j), and one by
    # copies of (4)^5 takes that to the empty state
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "5000")
    g5 = make_group([5])
    eng = LengthEngine(g5)
    B = Sequence.build(g5, {(1,): 10000, (4,): 10000})
    assert eng.length_set(B) == tuple(range(4000, 10001, 3))
    assert eng.nodes == 4000


def test_equal_groups_share_one_engine_and_one_catalog():
    # the caches key on group equality, not identity, and on the canonical
    # subset, not the order or repeats it was given in
    G, H = make_group([2, 2, 2, 2]), make_group([2, 2, 2, 2])
    assert G is not H
    assert engine_for(G) is engine_for(H)
    assert enumerate_atoms(G) is enumerate_atoms(H)
    subset = G.nonzero_elements[:6]
    catalog = enumerate_atoms(G, subset)
    assert enumerate_atoms(H, subset[::-1] + subset) is catalog
    assert catalog.subset == subset


def test_rejects_non_zero_sum():
    g5 = make_group([5])
    with pytest.raises(ValueError):
        L(g5, "(1)^3")


def test_delta_rho():
    assert delta([2, 4, 5]) == (1, 2)
    assert rho([2, 4, 5]) == Fraction(5, 2)
    assert delta([3, 5, 6]) == (1, 2)
    assert rho([3, 5, 6]) == 2
    assert delta([7]) == ()
    assert rho([7]) == 1
    assert rho([0]) == 1
    with pytest.raises(ValueError):
        rho([0, 2])


def test_sumset_containment_property():
    g24 = make_group([2, 4])
    eng = engine_for(g24)
    seqs = [
        parse_sequence(g24, t)
        for t in ("(0,1)^4", "(0,1)*(0,3)", "(1,0)^2", "(1,0)*(0,1)^3*(1,1)", "(0,2)^2")
    ]
    for a, b in iproduct(seqs, repeat=2):
        La, Lb, Lab = eng.length_set(a), eng.length_set(b), eng.length_set(a * b)
        assert {x + y for x in La for y in Lb} <= set(Lab)


def test_negation_invariance():
    g5 = make_group([5])
    eng = engine_for(g5)
    for text in ("(1)^5*(4)^5", "(1)^5*(4)^3*(3)", "(1)*(2)^7*(3)^10"):
        s = parse_sequence(g5, text)
        assert eng.length_set(s) == eng.length_set(s.negate())


def test_interval_criterion_when_support_is_subgroup():
    # supp(B) u {0} a subgroup forces L(B) to be an interval
    g22 = make_group([2, 2])
    eng = engine_for(g22)
    full = g22.nonzero_elements
    for combo in iproduct(range(5), repeat=3):
        s = Sequence.build(g22, list(zip(full, combo)))
        if s.length and s.is_zero_sum and set(s.support) == set(full):
            Ls = eng.length_set(s)
            assert Ls == tuple(range(Ls[0], Ls[-1] + 1))


def test_max_length_via_length2_atom():
    g5 = make_group([5])
    eng = engine_for(g5)
    B = parse_sequence(g5, "(1)^6*(4)^6")
    A1 = parse_sequence(g5, "(1)*(4)")
    assert eng.max_length_with_length2_atom(B, A1) == 6
    g24 = make_group([2, 4])
    e24 = engine_for(g24)
    B2 = parse_sequence(g24, "(1,0)^2*(0,1)^4")
    A2 = parse_sequence(g24, "(1,0)^2")
    assert e24.max_length_with_length2_atom(B2, A2) == 2
    assert e24.max_length_with_length2_atom(A2, A2) == 1
    with pytest.raises(ValueError):
        e24.max_length_with_length2_atom(B2, parse_sequence(g24, "(0,1)^4"))


def test_products_of_pairs_skip_penultimate_length():
    # if B is a product of 2-atoms and all dividing atoms have length 2 or 4,
    # then max L(B) - 1 is not attained
    g24 = make_group([2, 4])
    eng = engine_for(g24)
    B = parse_sequence(g24, "(0,1)^4*(0,3)^4*(1,0)^2")
    Ls = eng.length_set(B)
    assert Ls[-1] - 1 not in Ls
    catalog_lengths = {
        a.length
        for a in __import__("zerolen").enumerate_atoms(g24, B.support)
        if a.divides(B)
    }
    assert catalog_lengths <= {2, 4}


@pytest.mark.parametrize("factors", [[3], [4], [2, 2], [5], [8], [2, 4], [2, 2, 2]])
def test_engine_matches_naive_oracle(factors):
    G = make_group(factors)
    eng = engine_for(G)
    elems = G.nonzero_elements
    # all zero-sum sequences with |B| <= 10 over a fixed 3-element window, plus
    # full-support spot checks, against exhaustive factorization search
    window = elems[: min(3, len(elems))]
    cap = 10
    for combo in iproduct(range(cap + 1), repeat=len(window)):
        if sum(combo) == 0 or sum(combo) > cap:
            continue
        s = Sequence.build(G, list(zip(window, combo)))
        if s.is_zero_sum:
            assert eng.length_set(s) == naive_lengths(G, s)


def test_elasticity_cap_for_zero_free_sequences():
    # 2*max L <= |B| <= D(G)*min L whenever 0 is not in the support
    from zerolen import enumerate_atoms

    g24 = make_group([2, 4])
    eng = engine_for(g24)
    D = enumerate_atoms(g24).davenport
    elems = g24.nonzero_elements[:4]
    for combo in iproduct(range(4), repeat=4):
        s = Sequence.build(g24, list(zip(elems, combo)))
        if s.length and s.is_zero_sum:
            Ls = eng.length_set(s)
            assert 2 * Ls[-1] <= s.length <= D * Ls[0]
            assert rho(Ls) <= Fraction(D, 2)


def test_aamp_examples():
    assert is_aamp(range(4, 7), d=1, M=0)
    w = is_aamp([3, 5, 6, 8, 9], d=3, M=0)
    assert w is not None and w.period == (0, 2, 3)
    assert is_aamp([2, 5], d=1, M=0) is None
    assert is_aamp([2, 5], d=3, M=0) is not None
    w2 = is_aamp([2, 4, 5], d=1, M=2)
    assert w2 is not None
