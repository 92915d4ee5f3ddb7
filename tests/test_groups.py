import random
from itertools import product

import pytest

from zerolen import davenport_lower_bound, invariant_factors, make_group, parse_group
from zerolen.budget import ResourceLimitError

from oracles import naive_automorphisms


def test_invariant_factor_normalization():
    assert invariant_factors([2, 4]) == (2, 4)
    assert invariant_factors([4, 2]) == (2, 4)
    assert invariant_factors([2, 2, 2, 2]) == (2, 2, 2, 2)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([6, 4]) == (2, 12)
    assert invariant_factors([]) == ()


def test_make_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        make_group([1])
    with pytest.raises(ValueError):
        make_group([0, 3])
    with pytest.raises(ValueError):
        make_group([-2])


def test_parse_group_variants():
    assert parse_group("2x4").invariant_factors == (2, 4)
    assert parse_group("C2xC4").invariant_factors == (2, 4)
    assert parse_group("3,3").invariant_factors == (3, 3)
    assert parse_group("5").invariant_factors == (5,)
    assert parse_group(" c4 X c2 ").invariant_factors == (2, 4)
    with pytest.raises(ValueError):
        parse_group("banana")
    # a spec with no cyclic order is refused; the trivial group is make_group([])
    for spec in ("", " , "):
        with pytest.raises(ValueError):
            parse_group(spec)


def test_element_orders():
    g24 = make_group([2, 4])
    assert g24.order_of((1, 2)) == 2
    assert g24.order_of((0, 1)) == 4
    assert g24.order_of((0, 0)) == 1
    g5 = make_group([5])
    assert g5.order_of((1,)) == 5
    for g in g24.elements:
        assert g24.exponent % g24.order_of(g) == 0
        assert g24.order_of(g24.neg(g)) == g24.order_of(g)


def test_davenport_lower_bound_values():
    assert davenport_lower_bound(make_group([2, 2, 2, 2])) == (5, True)
    assert davenport_lower_bound(make_group([3, 3])) == (5, True)
    assert davenport_lower_bound(make_group([])) == (1, True)
    assert davenport_lower_bound(make_group([6, 6])) == (11, True)  # rank 2
    value, exact = davenport_lower_bound(make_group([2, 2, 6]))
    assert value == 8 and not exact


@pytest.mark.parametrize("factors", [[2], [4], [2, 2], [5], [3, 3], [2, 4]])
def test_element_enumeration_closed_under_addition(factors):
    G = make_group(factors)
    elems = set(G.elements)
    assert len(elems) == G.order
    for a, b in product(G.elements, repeat=2):
        assert G.add(a, b) in elems


def test_index_roundtrip():
    G = make_group([3, 3])
    for i, g in enumerate(G.elements):
        assert G.index(g) == i


_SMALL_GROUPS = (
    [2], [3], [4], [5], [6], [2, 2], [2, 4], [3, 3], [2, 2, 2], [2, 6], [2, 8],
    [4, 4], [2, 2, 4],
)


@pytest.mark.parametrize("factors", _SMALL_GROUPS)
def test_automorphism_tree_holds_every_automorphism(factors):
    G = make_group(factors)
    naive = naive_automorphisms(G)
    assert G.automorphism_count == len(naive)
    # on the zero vector every branch ties, so every leaf survives
    _, leaves = G.automorphisms.canonical([0] * (G.order - 1))
    assert len(leaves) == len(naive) and set(leaves) == naive


def test_automorphism_count_closed_form():
    assert make_group([2, 2, 2, 2]).automorphism_count == 20160  # GL(4,2)
    assert make_group([3, 3, 3]).automorphism_count == 11232  # GL(3,3)
    assert make_group([2] * 5).automorphism_count == 9999360  # GL(5,2)
    assert make_group([]).automorphism_count == 1
    with pytest.raises(ResourceLimitError):
        make_group([2] * 5).automorphisms  # too many to hold as a tree


@pytest.mark.parametrize("factors", [[2, 4], [3, 3], [2, 2, 2], [2, 2, 4]])
def test_canonical_form_is_the_largest_image(factors):
    G = make_group(factors)
    naive = naive_automorphisms(G)
    tree = G.automorphisms
    rng = random.Random(0)
    for _ in range(40):
        v = [rng.choice((0, 0, 1, 2)) for _ in range(G.order - 1)]
        images = {q: tuple(v[i] for i in q) for q in naive}
        best = max(images.values())
        canon, reach = tree.canonical(v)
        assert canon == best
        assert set(reach) == {q for q, img in images.items() if img == best}
        # on its own canonical form the survivors are the stabilizer
        _, stab = tree.canonical(list(canon))
        assert set(stab) == {q for q in naive if tuple(canon[i] for i in q) == canon}
