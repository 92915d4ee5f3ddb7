"""Numerical monoids and their finite products.

A numerical monoid is the additive submonoid of the nonnegative integers
generated by a minimal system n1 < ... < nt with gcd 1 (a common gcd d > 1 is
tolerated and handled by rescaling, which leaves all factorization lengths
unchanged).  Length sets come from a single lazily grown dynamic-programming
table per monoid: entry v is the bitmask with bit k set iff v is a sum of k
generators.  Each check grows the table once, to its own bound, under one
budget charge, and then reads only what it needs from the masks:

* the elasticity gap needs min L(a) and max L(a) only, which are the lowest
  and the highest set bit of the mask, so no length set is ever listed;
* the other checks group the members by length-set shape, read by
  ``NumericalMonoid._shapes``: the shape of a is L(a) - min L(a) as a
  bitmask, kept with min L(a).  L of a product is the sumset of its
  factors' L, fixed by their shapes and the sum of their minima, so
  ``y_L_bound`` searches combinations of shapes; a shift y + L(a) keeps the
  shape and its distances, so ``verify_thm57_case`` compares (shape, min)
  pairs.

Everything is exact integer and rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from typing import Iterable, Iterator, Sequence as Seq

from .budget import NodeCounter
from .families import G3, G33, family_members_up_to
from .lengths import Lengths, delta as length_delta, mask_to_lengths
from .system import check_bound


class NumericalMonoid:
    """<n1, ..., nt> under addition, with exact length-set queries."""

    def __init__(self, generators: Iterable[int]):
        gens = tuple(sorted(set(generators)))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        self.scale = d = math.gcd(*gens)
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

    @property
    def frobenius(self) -> int:
        """d * F(core): the largest multiple of the gcd d outside the monoid.

        For generators with gcd 1 this is the Frobenius number.  It is -1
        when the core has no gaps (then d * F(core) = -d <= -1).
        """
        return max(self.scale * self._core_frobenius, -1)

    @cached_property
    def _core_frobenius(self) -> int:
        """Largest core-unit integer outside the core monoid (-1 when none)."""
        if self._core[0] == 1:
            return -1
        n1, nt = self._core[0], self._core[-1]
        limit = (n1 - 1) * (nt - 1)  # Schur bound
        self._grow(limit)
        return max((v for v in range(limit + 1) if not self._table[v]), default=-1)

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

    def _mask(self, a: int) -> int:
        """Bit k set iff k is a length of a; 0 when a is not a member."""
        if a < 0 or a % self.scale:
            return 0
        v = a // self.scale
        self._grow(v)
        return self._table[v]

    def _member_masks(self, bound: int) -> Iterator[tuple[int, int]]:
        """(a, length mask of a) for every member a <= bound, ascending.

        The table grows once, to bound, under one budget charge; only
        multiples of the scale are visited.
        """
        top = bound // self.scale
        self._grow(top)
        t = self._table
        for v in range(top + 1):
            if t[v]:
                yield v * self.scale, t[v]

    def _shapes(self, bound: int) -> dict[int, list[tuple[int, int]]]:
        """{shape: [(a, min L(a)), ...]} for every member a <= bound, ascending.

        The shape of a is the mask of L(a) - min L(a), so bit 0 is always set.
        """
        shapes: dict[int, list[tuple[int, int]]] = {}
        for a, mask in self._member_masks(bound):
            lo = (mask & -mask).bit_length() - 1
            shapes.setdefault(mask >> lo, []).append((a, lo))
        return shapes

    def contains(self, a: int) -> bool:
        return self._mask(a) != 0

    def length_set(self, a: int) -> Lengths:
        """{k : a is a sum of k generators}; errors when a is not a member."""
        mask = self._mask(a)
        if mask == 0:
            raise ValueError(f"{a} is not in {self}")
        return mask_to_lengths(mask)

    def elasticity(self) -> Fraction:
        """nt / n1 (exactly 1 for a single generator)."""
        return Fraction(self.generators[-1], self.generators[0])

    def min_delta(self) -> int:
        """gcd of the successive differences of the core generators n_i / d,
        whose lengths these are; 0 when t = 1."""
        core = self._core
        return math.gcd(*(b - a for a, b in zip(core, core[1:])))

    def is_half_factorial(self) -> bool:
        return self._core == (1,)

    def strongly_primary_bound(self, a: int) -> int:
        """Least n such that every sum of n nonzero elements lies in a + H.

        Only values up to a + d * F(core) need checking: anything larger is
        in a + H automatically.  A value v is a sum of n nonzero elements
        exactly when max L(v) >= n.
        """
        if not self.contains(a):
            raise ValueError(f"{a} is not in {self}")
        if a == 0:
            raise ValueError("the bound is defined for nonzero elements only")
        worst = 0
        for w, mask in self._member_masks(a + self.scale * self._core_frobenius):
            if not self._mask(w - a):  # w - a is no member: w constrains n
                worst = max(worst, mask.bit_length() - 1)
        return worst + 1

    def smallest_nonunique(self) -> int:
        """Smallest element with at least two factorization lengths.

        n1*n2 is n2 copies of n1 and n1 copies of n2, so the search ends there.
        """
        if len(self.generators) < 2:
            raise ValueError("no element with two lengths found (half-factorial?)")
        n1, n2 = self.generators[:2]
        for a, mask in self._member_masks(n1 * n2 - 1):
            if mask & (mask - 1):  # two or more bits: two or more lengths
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
    """Check rho(L(a)) in {1} u [beta, inf) for every member a <= bound.

    rho(L(a)) = max L(a) / min L(a) reads only the two extreme bits of a's
    table mask (min L is the lowest set bit, max L the highest), and the
    comparison with beta is made in integers, so the check costs one table
    growth plus constant work per member.
    """
    check_bound(bound)
    gap = beta_gap(H)
    num, den = gap.beta.numerator, gap.beta.denominator
    bad = []
    checked = 0
    for a, mask in H._member_masks(bound):
        if not a:
            continue
        checked += 1
        lo = (mask & -mask).bit_length() - 1
        hi = mask.bit_length() - 1
        if hi != lo and hi * den < num * lo:
            bad.append(a)
    return GapReport(gap, bound, checked, tuple(bad))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


class ProductMonoid:
    """D1 x ... x Dn: a product of numerical monoids."""

    def __init__(self, factors: Seq[NumericalMonoid]):
        if not factors:
            raise ValueError("products need at least one numerical monoid factor")
        if len(factors) > 3:
            raise ValueError("products are limited to at most 3 factors")
        self.factors = tuple(factors)

    def length_set(self, comps: Seq[int]) -> Lengths:
        """L(a1) + ... + L(an) for the element (a1, ..., an), one value per factor."""
        if len(comps) != len(self.factors):
            raise ValueError("one value per factor required")
        masks = []
        for H, a in zip(self.factors, comps):
            mask = H._mask(a)
            if mask == 0:
                raise ValueError(f"{a} is not in {H}")
            masks.append(mask)
        return mask_to_lengths(_sumset(masks))


@dataclass(frozen=True)
class YLReport:
    y_l: int
    window: tuple[int, int]
    search_bound: int
    violations: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _shape_of(lengths: Iterable[int]) -> tuple[int, int]:
    """(mask of L - min L, min L) of a nonempty set L of lengths."""
    L = sorted(set(lengths))
    return sum(1 << (v - L[0]) for v in L), L[0]


def _sumset(masks: Iterable[int]) -> int:
    """Bitmask of the sumset of the sets given as bitmasks."""
    acc = 1
    for mask in masks:
        out = 0
        for k in mask_to_lengths(mask):
            out |= acc << k
        acc = out
    return acc


def _realizing_elements(
    factors: Seq[NumericalMonoid], Lset: Lengths, y_lo: int, y_hi: int, bound: int
) -> list[tuple[int, ...]]:
    """Every (a1, ..., an) with components <= bound whose length set
    L(a1) + ... + L(an) equals y + Lset for some y in [y_lo, y_hi], in
    lexicographic order.

    The sumset is the sumset of the shapes L(ai) - min L(ai), shifted by the
    sum of the minima.  So each combination of the factors' shapes costs one
    budget node, and only a combination whose sumset equals Lset - min Lset is
    expanded to its elements, one node each, keeping those whose sum of
    minima lies in min Lset + [y_lo, y_hi].
    """
    target, _ = _shape_of(Lset)
    by_shape = [H._shapes(bound) for H in factors]
    found = []
    tick = NodeCounter().tick
    for combo in iter_product(*(shapes.items() for shapes in by_shape)):
        tick()
        if _sumset(shape for shape, _ in combo) != target:
            continue
        for elems in iter_product(*(members for _, members in combo)):
            tick()
            if y_lo <= sum(lo for _, lo in elems) - Lset[0] <= y_hi:
                found.append(tuple(a for a, _ in elems))
    found.sort()
    return found


def y_L_bound(
    D: ProductMonoid, L: Iterable[int], search_bound: int, window: int = 10
) -> YLReport:
    """Shift bound past which y + L is never a length set of the product.

    Uses the canonical per-factor witnesses (smallest element with two
    lengths) for the bound |L| * sum M(a_i), then checks every element with
    components up to the search bound to confirm no length set equals y + L
    for y in [y_L, y_L + window].  The check searches combinations of the
    factors' length-set shapes rather than of their elements (see
    ``_realizing_elements``); the violations come out in the lexicographic
    order of the elements.
    """
    check_bound(search_bound)
    if window < 0:
        raise ValueError("window must be >= 0")
    Lset = tuple(sorted(set(L)))
    if not Lset:
        raise ValueError("L must be nonempty")
    for H in D.factors:
        if H.is_half_factorial():
            raise ValueError("every factor must be non-half-factorial")
    y_l = len(Lset) * sum(
        H.strongly_primary_bound(H.smallest_nonunique()) for H in D.factors
    )
    violations = _realizing_elements(D.factors, Lset, y_l, y_l + window, search_bound)
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


def verify_thm57_case(D1: NumericalMonoid, case: str, bound: int) -> Thm57Report:
    """Check that {y + L(a)} restricted to max <= bound equals the matching
    group family: the 3/2-elasticity case against y + 2k + [0,k], the
    5/2 case against the C3+C3 interval family.

    Both systems are compared as (shape, min) pairs: a shape whose highest
    bit is t and whose members' least min L is m stands for the sets with
    that shape and min in [m, bound - t], all with the shape's distances.
    Hypothesis failures are reported, not raised.
    """
    if case not in ("b2", "b3"):
        raise ValueError("case must be 'b2' or 'b3'")
    check_bound(bound)
    hyp = []
    rho_needed = Fraction(3, 2) if case == "b2" else Fraction(5, 2)
    interval_needed = (2, 3) if case == "b2" else (2, 5)
    if D1.elasticity() != rho_needed:
        hyp.append(f"elasticity {D1.elasticity()} != {rho_needed}")
    if D1.min_delta() != 1:
        hyp.append(f"min distance {D1.min_delta()} != 1")

    observed: set[int] = set()
    realized: set[tuple[int, int]] = set()
    # every length of a is at least a / nt, so nothing above nt * bound can
    # contribute a set with max <= bound
    for shape, members in D1._shapes(D1.generators[-1] * bound).items():
        observed.update(length_delta(mask_to_lengths(shape)))
        stop = bound + 2 - shape.bit_length()  # min L + max shape <= bound
        realized.update((shape, m) for m in range(min(lo for _, lo in members), stop))
    if observed - {1}:
        hyp.append(f"observed distances {sorted(observed)} != {{1}}")
    lo, hi = interval_needed
    if _shape_of(range(lo, hi + 1)) not in realized:
        hyp.append(f"[{lo},{hi}] not realized up to the bound")
    if hyp:
        return Thm57Report(case, "hypothesis-not-met", tuple(hyp), (), (), bound)

    group = G3 if case == "b2" else G33
    family = {_shape_of(m) for m in family_members_up_to(group, bound)}
    missing, extra = (
        tuple(sorted(tuple(v + m for v in mask_to_lengths(sh)) for sh, m in pairs))
        for pairs in (family - realized, realized - family)
    )
    status = "pass" if not missing and not extra else "fail"
    return Thm57Report(case, status, (), missing, extra, bound)
