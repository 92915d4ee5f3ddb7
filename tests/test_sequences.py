from fractions import Fraction
from itertools import product

import pytest

from zerolen import Sequence, make_group, parse_sequence

from oracles import naive_is_atom


def seq(group, text):
    return parse_sequence(group, text)


def test_sigma_examples():
    g5 = make_group([5])
    assert seq(g5, "(1)^5").sigma == (0,)
    assert Sequence.empty(g5).sigma == (0,)
    g24 = make_group([2, 4])
    # e * g^3 * (e+g) sums to zero
    assert seq(g24, "(1,0)*(0,1)^3*(1,1)").sigma == (0, 0)


def test_is_atom_examples():
    g5 = make_group([5])
    assert seq(g5, "(1)^5").is_atom()
    assert not seq(g5, "(1)^2*(4)^2").is_atom()  # splits as (g(-g))^2
    g24 = make_group([2, 4])
    assert seq(g24, "(1,0)*(0,1)*(0,2)*(1,1)").is_atom()  # class S4_4
    assert not Sequence.empty(g24).is_atom()
    assert Sequence.build(g24, {(0, 0): 1}).is_atom()  # the zero atom


def test_cross_number():
    g5 = make_group([5])
    assert seq(g5, "(1)^5").cross_number() == 1
    g24 = make_group([2, 4])
    assert seq(g24, "(1,0)*(0,1)^2*(1,2)").cross_number() == Fraction(3, 2)
    assert Sequence.empty(g24).cross_number() == 0


def test_g_norm():
    g5 = make_group([5])
    gen = (1,)
    assert seq(g5, "(2)^5").g_norm(gen) == 2
    assert seq(g5, "(1)^5").g_norm(gen) == 1
    assert seq(g5, "(1)*(4)").g_norm(gen) == 1
    with pytest.raises(ValueError):
        seq(g5, "(1)^2").g_norm(gen)  # not zero-sum
    with pytest.raises(ValueError):
        seq(make_group([2, 4]), "(0,1)^4").g_norm((0, 1))  # not cyclic


def test_g_norm_additivity():
    g5 = make_group([5])
    gen = (1,)
    parts = [seq(g5, "(1)^5"), seq(g5, "(2)^5"), seq(g5, "(1)*(4)")]
    total = parts[0] * parts[1] * parts[2]
    assert total.g_norm(gen) == sum(p.g_norm(gen) for p in parts)


def test_multiset_algebra():
    g5 = make_group([5])
    assert seq(g5, "(1)^5").negate() == seq(g5, "(4)^5")
    assert seq(g5, "(1)^3*(4)").divide(seq(g5, "(1)*(4)")) == seq(g5, "(1)^2")
    with pytest.raises(ValueError):
        seq(g5, "(1)").divide(seq(g5, "(2)"))
    a, b = seq(g5, "(1)^2*(2)"), seq(g5, "(2)^3")
    assert (a * b).length == a.length + b.length
    assert (a * b).sigma == g5.add(a.sigma, b.sigma)
    assert (a * b).cross_number() == a.cross_number() + b.cross_number()


def test_atom_negation_closure():
    g24 = make_group([2, 4])
    for text in ("(1,0)^2", "(0,1)*(0,3)", "(1,0)*(0,1)^3*(1,1)"):
        s = seq(g24, text)
        assert s.is_atom() == s.negate().is_atom()


def test_is_atom_matches_oracle_on_small_sequences():
    G = make_group([2, 4])
    elems = G.nonzero_elements[:4]
    for combo in product(range(3), repeat=4):
        s = Sequence.build(G, list(zip(elems, combo)))
        assert s.is_atom() == naive_is_atom(G, s)


def test_literal_roundtrip():
    g24 = make_group([2, 4])
    s = seq(g24, "(1,0)^2 * (0,1)^3")
    assert parse_sequence(g24, s.literal()) == s
    assert parse_sequence(g24, "()") == Sequence.empty(g24)
    g5 = make_group([5])
    assert parse_sequence(g5, "1^5*4^5") == seq(g5, "(1)^5*(4)^5")


@pytest.mark.parametrize(
    "factors, text",
    [([5], "(1,2,3)^5"), ([5], "(1,9)"), ([2, 4], "(1,0,7)^2"), ([2, 4], "(1)"),
     ([], "(1)")],
    ids=str,
)
def test_parse_rejects_a_term_whose_coordinates_miss_the_rank(factors, text):
    with pytest.raises(ValueError, match="coordinates, group rank is"):
        parse_sequence(make_group(factors), text)
