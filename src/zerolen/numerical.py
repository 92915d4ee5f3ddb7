"""Numerical monoids and finite products with a free factor.

A numerical monoid is the additive submonoid of the nonnegative integers
generated by a minimal system n1 < ... < nt with gcd 1 (a common gcd d > 1 is
tolerated and handled by rescaling, which leaves all factorization lengths
unchanged).  Length sets come from a single lazily grown dynamic-programming
table per monoid; everything downstream is exact integer and rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from typing import Iterable, Optional, Sequence as Seq

from .budget import NodeCounter
from .families import G3, G33, family_members_up_to
from .lengths import delta as length_delta, mask_to_lengths

Lengths = tuple[int, ...]


class NumericalMonoid:
    """<n1, ..., nt> under addition, with exact length-set queries."""

    def __init__(self, generators: Iterable[int]):
        gens = tuple(sorted(set(generators)))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        d = 0
        for g in gens:
            d = math.gcd(d, g)
        self.scale = d
        self.generators = gens
        self._core = tuple(g // d for g in gens)
        self._table: list[int] = [1]  # packed length masks, core units
        self._check_minimal()

    def _check_minimal(self) -> None:
        """A generator is redundant iff it is a sum of two or more generators."""
        self._grow(self._core[-1])
        for i, g in enumerate(self._core):
            if self._table[g] >> 2:
                raise ValueError(
                    f"generator {self.generators[i]} is redundant in {self.generators}"
                )

    @cached_property
    def frobenius(self) -> int:
        """Largest core-unit integer outside the monoid (-1 when none)."""
        if self._core[0] == 1:
            return -1
        n1, nt = self._core[0], self._core[-1]
        limit = (n1 - 1) * (nt - 1)  # Schur bound
        self._grow(limit)
        worst = -1
        for v in range(limit + 1):
            if self._table[v] == 0:
                worst = v
        return worst

    def _grow(self, upto: int) -> None:
        """Extend the table to upto, one budget node per value, charged first."""
        t = self._table
        if upto < len(t):
            return
        NodeCounter().tick(upto + 1 - len(t))
        gens = self._core
        for v in range(len(t), upto + 1):
            mask = 0
            for g in gens:
                if g <= v:
                    mask |= t[v - g]
            t.append(mask << 1 if mask else 0)
        # note: t[v] bits give factorization lengths; empty mask = not a member

    def _core_value(self, a: int) -> int:
        if a < 0 or a % self.scale:
            raise ValueError(f"{a} is not in {self}")
        return a // self.scale

    def contains(self, a: int) -> bool:
        if a < 0 or a % self.scale:
            return False
        v = a // self.scale
        self._grow(v)
        return self._table[v] != 0

    def length_set(self, a: int) -> Lengths:
        """{k : a is a sum of k generators}; errors when a is not a member."""
        v = self._core_value(a)
        self._grow(v)
        mask = self._table[v]
        if mask == 0:
            raise ValueError(f"{a} is not in {self}")
        return mask_to_lengths(mask)

    def elasticity(self) -> Fraction:
        """nt / n1 (exactly 1 for a single generator)."""
        return Fraction(self.generators[-1], self.generators[0])

    def min_delta(self) -> int:
        """gcd of the successive generator differences; 0 when t = 1."""
        gens = self.generators
        if len(gens) == 1:
            return 0
        d = 0
        for a, b in zip(gens, gens[1:]):
            d = math.gcd(d, b - a)
        return d

    def is_half_factorial(self) -> bool:
        return self._core == (1,)

    def strongly_primary_bound(self, a: int) -> int:
        """Least n such that every sum of n nonzero elements lies in a + H.

        Only values up to a + frobenius need checking: anything larger is in
        a + H automatically.  A value v is a sum of n nonzero elements exactly
        when max L(v) >= n.
        """
        v = self._core_value(a)
        if v == 0:
            raise ValueError("the bound is defined for nonzero elements only")
        if not self.contains(a):
            raise ValueError(f"{a} is not in {self}")
        hi = v + max(self.frobenius, 0)
        self._grow(hi)
        worst = 0
        for w in range(hi + 1):
            mask = self._table[w]
            if mask == 0:
                continue
            diff = w - v
            if diff >= 0 and self._table[diff] != 0:
                continue  # w - a is a member, no constraint
            worst = max(worst, mask.bit_length() - 1)
        return worst + 1

    def smallest_nonunique(self) -> int:
        """Smallest element with at least two factorization lengths.

        n1*n2 is n2 copies of n1 and n1 copies of n2, so the search ends there.
        """
        if len(self.generators) < 2:
            raise ValueError("no element with two lengths found (half-factorial?)")
        n1, n2 = self.generators[:2]
        for a in range(1, n1 * n2):
            if self.contains(a) and len(self.length_set(a)) >= 2:
                return a
        return n1 * n2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<" + ",".join(str(g) for g in self.generators) + ">"


# ---------------------------------------------------------------------------
# the elasticity gap (strongly primary monoids)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaGap:
    beta: Fraction
    beta1: Fraction
    beta2: Fraction
    b: int
    u: int
    m_b: int
    m_u: int


def beta_gap(H: NumericalMonoid) -> BetaGap:
    """The gap below which no elasticity other than 1 occurs.

    beta1 uses only the primary bounds of b and u; beta2 adds the length set
    of the element M(b)*u.  b is the smallest element with two lengths and u
    the smallest generator.
    """
    if H.is_half_factorial():
        raise ValueError("the gap is defined for non-half-factorial monoids")
    b = H.smallest_nonunique()
    u = H.generators[0]
    m_b = H.strongly_primary_bound(b)
    m_u = H.strongly_primary_bound(u)
    beta1 = Fraction(m_b + m_u + 1, m_b + m_u)
    power = H.length_set(m_b * u)
    beta2 = Fraction(power[-1] + m_b + m_u, power[0] + m_b + m_u)
    return BetaGap(min(beta1, beta2), beta1, beta2, b, u, m_b, m_u)


@dataclass(frozen=True)
class GapReport:
    gap: BetaGap
    bound: int
    checked: int
    counterexamples: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_elasticity_gap(H: NumericalMonoid, bound: int) -> GapReport:
    """Check rho(L(a)) in {1} u [beta, inf) for every member a <= bound."""
    gap = beta_gap(H)
    H._grow(bound // H.scale)  # the whole sweep under one budget
    bad = []
    checked = 0
    for a in range(1, bound + 1):
        if not H.contains(a):
            continue
        checked += 1
        L = H.length_set(a)
        r = Fraction(L[-1], L[0])
        if r != 1 and r < gap.beta:
            bad.append(a)
    return GapReport(gap, bound, checked, tuple(bad))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


class ProductMonoid:
    """F(P) x D1 x ... x Dn: a free factor (count only) times numerical monoids."""

    def __init__(self, factors: Seq[NumericalMonoid], free_rank: int = 0):
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if len(factors) > 3:
            raise ValueError("products are limited to at most 3 factors")
        self.factors = tuple(factors)
        self.free_rank = free_rank

    def length_set(self, element: tuple[int, Seq[int]]) -> Lengths:
        """element = (free part count, per-factor values); componentwise sums."""
        y, comps = element
        if y < 0:
            raise ValueError("free part count must be >= 0")
        if self.free_rank == 0 and y > 0:
            raise ValueError("monoid has no free factor")
        if len(comps) != len(self.factors):
            raise ValueError("one value per factor required")
        acc = {0}
        for H, a in zip(self.factors, comps):
            Ls = H.length_set(a)
            acc = {s + l for s in acc for l in Ls}
        return tuple(sorted(v + y for v in acc))


@dataclass(frozen=True)
class YLReport:
    y_l: int
    window: tuple[int, int]
    search_bound: int
    violations: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def y_L_bound(
    D: ProductMonoid,
    L: Iterable[int],
    search_bound: int = 120,
    window: int = 10,
) -> YLReport:
    """Shift bound past which y + L is never a length set of the product.

    Uses the canonical per-factor witnesses (smallest element with two
    lengths) for the bound |L| * sum M(a_i), then sweeps all elements with
    components up to the search bound to confirm no length set equals y + L
    for y in [y_L, y_L + window].
    """
    if D.free_rank:
        raise ValueError("the non-realizability bound assumes a trivial free part")
    Lset = tuple(sorted(set(L)))
    if not Lset:
        raise ValueError("L must be nonempty")
    for H in D.factors:
        if H.is_half_factorial():
            raise ValueError("every factor must be non-half-factorial")
    y_l = len(Lset) * sum(
        H.strongly_primary_bound(H.smallest_nonunique()) for H in D.factors
    )
    targets = {
        tuple(v + y for v in Lset) for y in range(y_l, y_l + window + 1)
    }
    members = []
    for H in D.factors:
        members.append([a for a in range(search_bound + 1) if H.contains(a)])
    violations = []
    tick = NodeCounter().tick  # one node per combination
    for combo in iter_product(*members):
        tick()
        if D.length_set((0, combo)) in targets:
            violations.append(combo)
    return YLReport(y_l, (y_l, y_l + window), search_bound, tuple(violations))


# ---------------------------------------------------------------------------
# the transfer-system dichotomy for F(P) x D1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thm57Report:
    case: str
    status: str  # "pass" | "fail" | "hypothesis-not-met"
    hypothesis_failures: tuple[str, ...]
    missing: tuple[Lengths, ...]
    extra: tuple[Lengths, ...]
    bound: int


def verify_thm57_case(D1: NumericalMonoid, case: str, bound: int = 20) -> Thm57Report:
    """Check that {y + L(a)} restricted to max <= bound equals the matching
    group family: the 3/2-elasticity case against y + 2k + [0,k], the
    5/2 case against the C3+C3 interval family.

    Hypothesis failures are reported, not raised.
    """
    if case not in ("b2", "b3"):
        raise ValueError("case must be 'b2' or 'b3'")
    hyp = []
    rho_needed = Fraction(3, 2) if case == "b2" else Fraction(5, 2)
    interval_needed = (2, 3) if case == "b2" else (2, 5)
    if D1.elasticity() != rho_needed:
        hyp.append(f"elasticity {D1.elasticity()} != {rho_needed}")
    if D1.min_delta() != 1:
        hyp.append(f"min distance {D1.min_delta()} != 1")

    observed: set[int] = set()
    realized: set[Lengths] = set()
    # every length of a is at least a / nt, so nothing above nt * bound can
    # contribute a set with max <= bound
    a_cap = D1.generators[-1] * bound
    for a in range(a_cap + 1):
        if not D1.contains(a):
            continue
        L = D1.length_set(a)
        observed.update(length_delta(L))
        for y in range(0, bound - L[-1] + 1):
            realized.add(tuple(v + y for v in L))
    if observed - {1}:
        hyp.append(f"observed distances {sorted(observed)} != {{1}}")
    lo, hi = interval_needed
    if tuple(range(lo, hi + 1)) not in realized:
        hyp.append(f"[{lo},{hi}] not realized up to the bound")
    if hyp:
        return Thm57Report(case, "hypothesis-not-met", tuple(hyp), (), (), bound)

    group = G3 if case == "b2" else G33
    family = {tuple(sorted(m)) for m in family_members_up_to(group, bound)}

    missing = tuple(sorted(family - realized))
    extra = tuple(sorted(realized - family))
    status = "pass" if not missing and not extra else "fail"
    return Thm57Report(case, status, (), missing, extra, bound)
