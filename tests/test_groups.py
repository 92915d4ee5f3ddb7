import math
import random
import tracemalloc
from functools import cache
from itertools import product

import pytest

from zerolen import davenport_lower_bound, invariant_factors, make_group, parse_group
from zerolen.budget import ResourceLimitError
from zerolen.groups import AutomorphismTree

from oracles import naive_automorphisms, survivor_canonical


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


@cache
def _naive_automorphisms(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(naive_automorphisms(make_group(factors)))


@pytest.mark.parametrize("factors", _SMALL_GROUPS)
def test_automorphism_tree_holds_every_automorphism(factors):
    G = make_group(factors)
    naive = naive_automorphisms(G)
    assert G.automorphism_count == len(naive)
    # on the zero vector every branch ties, so every leaf survives
    _, leaves = survivor_canonical(G.automorphisms, [0] * (G.order - 1))
    assert len(leaves) == len(naive) and set(leaves) == naive


def test_automorphism_count_closed_form():
    assert make_group([2, 2, 2, 2]).automorphism_count == 20160  # GL(4,2)
    assert make_group([3, 3, 3]).automorphism_count == 11232  # GL(3,3)
    assert make_group([2] * 5).automorphism_count == 9999360  # GL(5,2)
    assert make_group([]).automorphism_count == 1
    with pytest.raises(ResourceLimitError):
        make_group([2] * 5).automorphisms  # too many to hold as a tree


def test_automorphism_tree_of_c2_4_fits_in_4_5_mb():
    # a leaf holds only its block's getter, with no permutation of its own
    tracemalloc.start()
    try:
        tree = AutomorphismTree(make_group([2, 2, 2, 2]))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.size == 15
    assert held <= 4_500_000


def _random_vectors(size: int, rng: random.Random):
    """Sparse vectors (one to three nonzero entries, so the canonical form
    stops once its prefix holds them) and dense ones."""
    for _ in range(12):
        v = [0] * size
        for p in rng.sample(range(size), min(size, rng.randint(1, 3))):
            v[p] = rng.randint(1, 3)
        yield v
    for _ in range(8):
        yield [rng.choice((0, 1, 1, 2, 3)) for _ in range(size)]


# groups that also get 40 dense vectors drawn from (0, 0, 1, 2)
_DENSE_GROUPS = ([2, 4], [3, 3], [2, 2, 2], [2, 2, 4])


@pytest.mark.parametrize("factors", [*_SMALL_GROUPS, [2, 2, 2, 2]])
def test_canonical_form_is_the_largest_image(factors):
    G = make_group(factors)
    naive = _naive_automorphisms(tuple(factors))
    tree = G.automorphisms
    vectors = list(_random_vectors(G.order - 1, random.Random(0)))
    if factors in _DENSE_GROUPS:
        rng = random.Random(0)
        vectors += ([rng.choice((0, 0, 1, 2)) for _ in range(G.order - 1)] for _ in range(40))
    for v in vectors:
        images = {q: tuple(v[i] for i in q) for q in naive}
        best = max(images.values())
        assert tree.canonical_form(v) == best
        assert tree.canonical_form(bytes(v)) == best
        # the survivor-listing oracle against the brute force: its form, and
        # every automorphism reaching it
        canon, reach = survivor_canonical(tree, v)
        assert canon == best
        assert set(reach) == {q for q, img in images.items() if img == best}


@pytest.mark.parametrize("factors", [*_SMALL_GROUPS, [2, 2, 2, 2]])
def test_transversals_multiply_to_the_stabilizer(factors):
    G = make_group(factors)
    naive = _naive_automorphisms(tuple(factors))
    tree = G.automorphisms
    for v in _random_vectors(G.order - 1, random.Random(1)):
        canon = tree.canonical_form(v)
        stab = {q for q in naive if tuple(canon[i] for i in q) == canon}
        us = tree.transversals(canon)
        assert all(u[0] == tuple(range(G.order - 1)) for u in us)
        # (φ∘ψ)[p] = φ[ψ[p]]; every product u_0∘...∘u_{k-1} is distinct
        elems = [tuple(range(G.order - 1))]
        for u in reversed(us):
            elems = [tuple(phi[p] for p in psi) for phi in u for psi in elems]
        assert len(elems) == math.prod(map(len, us)) == len(stab)
        assert set(elems) == stab
        _, survivors = survivor_canonical(tree, canon)
        assert set(survivors) == stab


def test_zero_vector_transversals_of_c2_4():
    # GL(4,2): 15 images of e_1, then 14, 12 and 8 of e_2, e_3, e_4
    us = make_group([2, 2, 2, 2]).automorphisms.transversals((0,) * 15)
    assert [len(u) for u in us] == [15, 14, 12, 8]
    assert math.prod(map(len, us)) == 20160


def test_transversals_of_the_trivial_group():
    tree = make_group([]).automorphisms
    assert tree.canonical_form(()) == () and tree.transversals(()) == []
