from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from zerolen import (
    NumericalMonoid,
    ProductMonoid,
    beta_gap,
    verify_elasticity_gap,
    verify_thm57_case,
    y_L_bound,
)
from zerolen import numerical
from zerolen.families import G3, G33, family_members_up_to
from zerolen.numerical import _realizing_elements

from oracles import naive_numerical_lengths, naive_realizing_elements, naive_thm57_sets


def test_length_set_examples():
    H = NumericalMonoid([2, 3])
    assert H.length_set(6) == (2, 3)
    assert H.length_set(2) == (1,)
    assert NumericalMonoid([2, 5]).length_set(10) == (2, 5)
    with pytest.raises(ValueError):
        H.length_set(1)


def test_membership_and_frobenius():
    H = NumericalMonoid([2, 5])
    assert H.frobenius == 3
    assert not H.contains(3) and H.contains(4)
    assert NumericalMonoid([2, 3]).frobenius == 1
    assert NumericalMonoid([1]).frobenius == -1
    # with gcd d > 1 the value is d * F(core), a multiple of d
    H = NumericalMonoid([4, 6])
    assert H.frobenius == 2
    assert not H.contains(2) and H.contains(4) and not H.contains(3)
    assert NumericalMonoid([3]).frobenius == -1


def test_minimality_validation():
    with pytest.raises(ValueError):
        NumericalMonoid([2, 3, 7])  # 7 = 2 + 2 + 3
    with pytest.raises(ValueError):
        NumericalMonoid([2, 4, 5])  # 4 = 2 + 2
    NumericalMonoid([3, 4, 5])  # minimal


def _is_sum_of(target, parts):
    reach = [True] + [False] * target
    for v in range(1, target + 1):
        reach[v] = any(v >= o and reach[v - o] for o in parts)
    return reach[target]


def test_minimality_and_smallest_nonunique_by_brute_force():
    for r in (2, 3):
        for gens in combinations(range(1, 13), r):
            redundant = [
                g for i, g in enumerate(gens) if _is_sum_of(g, gens[:i] + gens[i + 1 :])
            ]
            if redundant:
                with pytest.raises(ValueError, match=f"generator {redundant[0]} "):
                    NumericalMonoid(gens)
                continue
            H = NumericalMonoid(gens)
            a = 1
            while not (H.contains(a) and len(H.length_set(a)) >= 2):
                a += 1
            assert H.smallest_nonunique() == a, gens
    with pytest.raises(ValueError, match="half-factorial"):
        NumericalMonoid([3]).smallest_nonunique()


def test_scaled_single_generator():
    H = NumericalMonoid([3])  # isomorphic to N0, rescaled
    assert H.elasticity() == 1
    assert H.min_delta() == 0
    assert H.length_set(9) == (3,)
    assert not H.contains(4)


def test_formula_invariants():
    assert NumericalMonoid([2, 3]).elasticity() == Fraction(3, 2)
    assert NumericalMonoid([2, 3]).min_delta() == 1
    assert NumericalMonoid([2, 5]).elasticity() == Fraction(5, 2)
    assert NumericalMonoid([2, 5]).min_delta() == 3
    assert NumericalMonoid([3, 4, 5]).elasticity() == Fraction(5, 3)
    assert NumericalMonoid([3, 4, 5]).min_delta() == 1
    # a common gcd leaves every length, so every distance, unchanged
    assert NumericalMonoid([4, 6]).min_delta() == 1
    assert NumericalMonoid([4, 10]).min_delta() == 3


@pytest.mark.parametrize("gens", [[2, 3], [2, 5], [3, 4, 5]])
def test_formulas_cross_validated_by_enumeration(gens):
    H = NumericalMonoid(gens)
    n1, nt = H.generators[0], H.generators[-1]
    observed = set()
    best = Fraction(0)
    for a in range(1, 201):
        if not H.contains(a):
            continue
        L = H.length_set(a)
        best = max(best, Fraction(L[-1], L[0]))
        observed.update(b - x for x, b in zip(L, L[1:]))
    assert best <= H.elasticity()
    # exact elasticity attained on multiples of n1*nt
    for k in (1, 2, 3):
        L = H.length_set(n1 * nt * k)
        assert Fraction(L[-1], L[0]) == H.elasticity()
    if observed:
        g = 0
        for d in observed:
            import math

            g = math.gcd(g, d)
        assert g == H.min_delta()


def test_strongly_primary_bounds():
    H = NumericalMonoid([2, 3])
    assert H.strongly_primary_bound(2) == 2
    assert H.strongly_primary_bound(6) == 4
    assert NumericalMonoid([1]).strongly_primary_bound(1) == 1
    with pytest.raises(ValueError):
        H.strongly_primary_bound(0)


def test_beta_gap_and_sweep():
    H = NumericalMonoid([2, 3])
    gap = beta_gap(H)
    assert gap.b == 6 and gap.u == 2
    assert gap.beta == Fraction(10, 9) and gap.beta > 1
    rep = verify_elasticity_gap(H, 200)
    assert rep.ok and rep.checked > 150
    rep25 = verify_elasticity_gap(NumericalMonoid([2, 5]), 200)
    assert rep25.ok
    with pytest.raises(ValueError):
        beta_gap(NumericalMonoid([1]))


def test_product_length_sets():
    H = NumericalMonoid([2, 3])
    D = ProductMonoid([H, H])
    assert D.length_set([6, 6]) == (4, 5, 6)
    assert ProductMonoid([H]).length_set([6]) == (2, 3)
    assert D.length_set([2, 3]) == (2,)
    with pytest.raises(ValueError):
        D.length_set([6])  # one value per factor
    with pytest.raises(ValueError):
        D.length_set([1, 6])  # 1 not a member


def test_y_l_bound():
    H = NumericalMonoid([2, 3])
    rep = y_L_bound(ProductMonoid([H, H]), [2, 3], search_bound=60, window=10)
    assert rep.y_l == 16
    assert rep.ok
    with pytest.raises(ValueError):
        y_L_bound(ProductMonoid([NumericalMonoid([1])]), [2, 3], 60)


@pytest.mark.parametrize(
    "call",
    [
        lambda H: verify_elasticity_gap(H, -5),
        lambda H: verify_thm57_case(H, "b2", -1),
        lambda H: y_L_bound(ProductMonoid([H, H]), [2, 3], -1),
        lambda H: y_L_bound(ProductMonoid([H, H]), [2, 3], 60, window=-1),
        lambda H: ProductMonoid([]),
    ],
    ids=["gap bound", "thm57 bound", "y_L bound", "y_L window", "empty product"],
)
def test_numerical_checks_reject_vacuous_inputs(call):
    with pytest.raises(ValueError):
        call(NumericalMonoid([2, 3]))


def test_thm57_cases():
    assert verify_thm57_case(NumericalMonoid([2, 3]), "b2", 20).status == "pass"
    assert verify_thm57_case(NumericalMonoid([4, 6]), "b2", 20).status == "pass"
    rep = verify_thm57_case(NumericalMonoid([2, 5]), "b2", 20)
    assert rep.status == "hypothesis-not-met"
    assert any("3" in h for h in rep.hypothesis_failures)
    rep2 = verify_thm57_case(NumericalMonoid([2, 3]), "b3", 20)
    assert rep2.status == "hypothesis-not-met"


# ---------------------------------------------------------------------------
# the fast paths against tests/oracles.py
# ---------------------------------------------------------------------------

PRODUCTS = [
    (((2, 3), (2, 3)), 40),
    (((2, 5), (3, 4, 5)), 40),
    (((2, 3), (2, 3), (2, 3)), 16),
    (((3, 5), (2, 7)), 40),
]
TARGET_SETS = [(2, 3), (2, 4), (3,), (2, 3, 4), (3, 5)]


@pytest.mark.parametrize("factor_gens,search", PRODUCTS)
def test_shape_search_matches_the_product_loop(factor_gens, search):
    factors = [NumericalMonoid(g) for g in factor_gens]
    found = 0
    for L in TARGET_SETS:
        got = _realizing_elements(factors, L, 0, 11, search)
        assert got == naive_realizing_elements(factor_gens, L, range(0, 12), search)
        found += len(got)
    assert found  # y starts at 0, so small elements realize the targets


@pytest.mark.parametrize(
    "gens", [(2, 3), (3, 4, 5), (7, 9, 17), (4, 6, 9), (5, 7, 11, 13)]
)
def test_gap_extremes_match_length_sets(gens, monkeypatch):
    # the gap check reads min L and max L off each mask's extreme bits; with
    # beta raised, every member whose elasticity lies in (1, beta) must show
    H = NumericalMonoid(gens)
    naive = naive_numerical_lengths(gens, 800)
    members = [a for a in sorted(naive) if a]
    gap = beta_gap(H)
    for beta in (gap.beta, Fraction(5, 4), Fraction(3, 2), Fraction(2)):
        monkeypatch.setattr(numerical, "beta_gap", lambda _, b=beta: replace(gap, beta=b))
        rep = verify_elasticity_gap(H, 800)
        assert rep.checked == len(members)
        assert list(rep.counterexamples) == [
            a for a in members if 1 != Fraction(max(naive[a]), min(naive[a])) < beta
        ]


@pytest.mark.parametrize("gens,bound", [((4, 6), 400), ((6, 10, 14), 600)])
def test_gap_check_on_scaled_monoids(gens, bound):
    H = NumericalMonoid(gens)
    rep = verify_elasticity_gap(H, bound)
    assert rep.checked == sum(H.contains(a) for a in range(1, bound + 1))
    beta = rep.gap.beta
    naive = naive_numerical_lengths(gens, bound)
    bad = [
        a for a in sorted(naive)
        if a and 1 != Fraction(max(naive[a]), min(naive[a])) < beta
    ]
    assert list(rep.counterexamples) == bad


@pytest.mark.parametrize("bound", [20, 60, 200])
@pytest.mark.parametrize("gens", [(2, 3), (2, 5), (3, 4, 5), (3, 5), (4, 6)])
def test_thm57_shapes_match_the_plain_set_oracle(gens, bound):
    realized, distances = naive_thm57_sets(gens, bound)
    for case, group, interval in (("b2", G3, (2, 3)), ("b3", G33, (2, 3, 4, 5))):
        rep = verify_thm57_case(NumericalMonoid(gens), case, bound)
        hyp = rep.hypothesis_failures
        seen = f"observed distances {sorted(distances)} != {{1}}"
        assert (seen in hyp) == (distances != {1})
        assert any("not realized" in h for h in hyp) == (interval not in realized)
        if hyp:
            assert (rep.status, rep.missing, rep.extra) == ("hypothesis-not-met", (), ())
            continue
        family = {tuple(sorted(m)) for m in family_members_up_to(group, bound)}
        assert rep.missing == tuple(sorted(family - realized))
        assert rep.extra == tuple(sorted(realized - family))
        assert rep.status == ("pass" if family == realized else "fail")


@pytest.mark.parametrize("bound", [20, 60])
def test_thm57_lists_missing_and_extra_sets_like_the_oracle(monkeypatch, bound):
    # <2,3> meets the b2 hypotheses; against the C3+C3 family without its sets
    # of min 4, the sets y + L(a) miss some members and add the min-4 ones
    realized, _ = naive_thm57_sets((2, 3), bound)
    family = {tuple(sorted(m)) for m in family_members_up_to(G33, bound) if min(m) != 4}
    monkeypatch.setattr(numerical, "family_members_up_to", lambda *_: family)
    rep = verify_thm57_case(NumericalMonoid((2, 3)), "b2", bound)
    assert rep.status == "fail" and rep.missing and rep.extra
    assert rep.missing == tuple(sorted(family - realized))
    assert rep.extra == tuple(sorted(realized - family))
