import hashlib

import pytest

from zerolen import (
    classify_c2c4,
    davenport_lower_bound,
    enumerate_atoms,
    is_half_factorial,
    make_group,
    parse_sequence,
)

from zerolen.atoms import _catalog
from zerolen.budget import global_nodes

from oracles import naive_atoms


def test_c5_singleton_subset():
    g5 = make_group([5])
    catalog = enumerate_atoms(g5, [(1,)])
    assert [a.literal() for a in catalog] == ["(1)^5"]
    assert catalog.davenport == 5


def test_c24_counts_and_davenport():
    catalog = enumerate_atoms(make_group([2, 4]))
    assert catalog.counts() == {2: 5, 3: 9, 4: 16, 5: 8}
    assert len(catalog) == 38
    assert catalog.davenport == 5


def test_zero_in_subset_gives_zero_atom_only():
    g = make_group([3])
    catalog = enumerate_atoms(g, g.elements)
    zero_atoms = [a for a in catalog if (0,) in a.support]
    assert len(zero_atoms) == 1 and zero_atoms[0].length == 1


@pytest.mark.parametrize(
    "factors,expected",
    [([3], 3), ([4], 4), ([2, 2], 3), ([2, 2, 2], 4), ([5], 5), ([2, 4], 5), ([3, 3], 5)],
)
def test_davenport_matches_lower_bound_formula(factors, expected):
    G = make_group(factors)
    catalog = enumerate_atoms(G)
    lb = davenport_lower_bound(G)
    assert catalog.davenport == expected
    assert lb.exact and lb.value == expected


def test_atom_catalog_closed_under_negation():
    for factors in ([5], [2, 4], [3, 3]):
        catalog = enumerate_atoms(make_group(factors))
        keys = {a.items for a in catalog}
        assert all(a.negate().items in keys for a in catalog)


@pytest.mark.parametrize("factors", [[3], [4], [2, 2], [5], [7], [2, 4], [2, 2, 2], [3, 3]])
def test_enumeration_matches_naive_oracle(factors):
    G = make_group(factors)
    catalog = enumerate_atoms(G)
    expected = {a.items for a in naive_atoms(G, G.nonzero_elements, G.order)}
    assert {a.items for a in catalog} == expected


@pytest.mark.parametrize(
    "factors,nodes",
    [([2, 4], 95), ([3, 3], 185), ([2, 2, 2, 2], 1381), ([2, 2, 4], 2769)],
)
def test_atom_walk_nodes_are_pinned(factors, nodes):
    # one tick per walk call; the uncached body of the catalog cache
    G = make_group(factors)
    before = global_nodes()
    _catalog.__wrapped__(G, G.nonzero_elements)
    assert global_nodes() - before == nodes


# sha256 of the repr of the catalog's items, recorded before the walk moved
# to index tables; naive_atoms checks groups up to order 9 only
_CATALOG_DIGESTS = {
    (2, 2, 2, 2): "5bd526f630c99a92a6141205b98c721930158d581aa5ee6b74ba295b974d9e4f",
    (2, 2, 4): "19f2f4e2f9ba0d31dc6ace81420b2f5985c0709684e8ebf7b43e0b8d5aca5b4a",
    (4, 4): "3d5321313e9daf10a965789c051a757071f061ebc1fcbab0a7e10b9734d29060",
    (2, 8): "118c2b112b2748d96c79eb58725861d01a33ab52bb25dadf573310603d648352",
}


@pytest.mark.parametrize("factors", sorted(_CATALOG_DIGESTS))
def test_order_16_catalogs_are_pinned(factors):
    catalog = enumerate_atoms(make_group(factors))
    digest = hashlib.sha256(repr([a.items for a in catalog]).encode()).hexdigest()
    assert digest == _CATALOG_DIGESTS[factors]


def test_classification_c2c4():
    report = classify_c2c4(enumerate_atoms(make_group([2, 4])))
    assert report.ok
    assert report.counts() == {
        "S2_1": 2, "S2_2": 1, "S2_3": 2,
        "S3_1": 1, "S3_2": 4, "S3_3": 4,
        "S4_1": 4, "S4_2": 4, "S4_3": 4, "S4_4": 4,
        "S5": 8,
    }
    assert not report.unclassified
    e, g = report.basis
    G = make_group([2, 4])
    assert G.order_of(e) == 2 and G.order_of(g) == 4
    assert report.classes["S3_1"][0].items == parse_sequence(
        G, "(1,0)*(0,2)*(1,2)"
    ).items


def test_classification_rejects_other_groups():
    with pytest.raises(ValueError):
        classify_c2c4(enumerate_atoms(make_group([2, 2])))


def test_half_factorial_examples():
    g24 = make_group([2, 4])
    good = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]  # {0, g, 2g, e+g, e+2g}
    assert is_half_factorial(g24, good)
    g5 = make_group([5])
    assert not is_half_factorial(g5, [(1,), (2,)])
    assert is_half_factorial(g5, [(1,)])
    assert not is_half_factorial(g24)  # the full nonzero subset


def test_half_factorial_cross_check_by_enumeration():
    # the cross-number criterion must agree with bounded length-set behaviour
    from zerolen import engine_for
    from zerolen.sequences import Sequence
    from itertools import product as iproduct

    g24 = make_group([2, 4])
    eng = engine_for(g24)
    subset = [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert is_half_factorial(g24, subset)
    for combo in iproduct(range(4), repeat=4):
        s = Sequence.build(g24, list(zip(subset, combo)))
        if 0 < s.length <= 10 and s.is_zero_sum:
            assert len(eng.length_set(s)) == 1

    bad = [(1,), (2,)]
    g5 = make_group([5])
    e5 = engine_for(g5)
    witnessed = False
    for combo in iproduct(range(6), repeat=2):
        s = Sequence.build(g5, list(zip(bad, combo)))
        if s.length and s.is_zero_sum and len(e5.length_set(s)) > 1:
            witnessed = True
    assert witnessed


def test_max_atoms_pair_with_negation_realizes_davenport_span():
    # for each atom U of full Davenport length, {2, D} is contained in L(U(-U))
    from zerolen import engine_for

    for factors in ([5], [2, 4], [3, 3], [2, 2, 2, 2]):
        G = make_group(factors)
        catalog = enumerate_atoms(G)
        D = catalog.davenport
        eng = engine_for(G)
        tops = [a for a in catalog if a.length == D][:4]
        assert tops
        for U in tops:
            L = eng.length_set(U * U.negate())
            assert 2 in L and D in L
