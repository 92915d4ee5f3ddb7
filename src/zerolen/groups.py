"""Finite abelian groups presented by invariant factors.

A group is described by a divisor chain n1 | n2 | ... | nr of cyclic orders.
Arbitrary lists of cyclic orders are regrouped into that normal form at
construction (so ``[4, 2]`` and ``[2, 4]`` and ``[8]``-free inputs such as
``[2, 3]`` all land on a canonical description).  Elements are residue-vector
tuples with componentwise modular arithmetic; they are ordered
lexicographically, which gives every element a stable index used as a
memoization key throughout the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple

Element = tuple[int, ...]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 2`` as ``{prime: exponent}``."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(cyclic_orders: Iterable[int]) -> tuple[int, ...]:
    """Regroup arbitrary cyclic orders into a divisor chain ``n1 | ... | nr``.

    Uses the elementary-divisor decomposition: the prime-power parts of all
    inputs are collected per prime and re-zipped largest-with-largest.
    """
    per_prime: dict[int, list[int]] = {}
    for n in cyclic_orders:
        if not isinstance(n, int) or n <= 1:
            raise ValueError(f"cyclic order must be an integer > 1, got {n!r}")
        for p, e in _factorize(n).items():
            per_prime.setdefault(p, []).append(p**e)
    if not per_prime:
        return ()
    for powers in per_prime.values():
        powers.sort(reverse=True)
    rank = max(len(v) for v in per_prime.values())
    chain = []
    for i in range(rank):
        f = 1
        for powers in per_prime.values():
            if i < len(powers):
                f *= powers[i]
        chain.append(f)
    chain.reverse()
    return tuple(chain)


class DavenportBound(NamedTuple):
    value: int
    exact: bool


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """C_{n1} + ... + C_{nr} with n1 | ... | nr, elements as residue vectors."""

    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    @cached_property
    def is_p_group(self) -> bool:
        if not self.invariant_factors:
            return True
        primes = set()
        for n in self.invariant_factors:
            primes.update(_factorize(n))
        return len(primes) == 1

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic (canonical index) order."""
        return tuple(product(*(range(n) for n in self.invariant_factors)))

    @cached_property
    def nonzero_elements(self) -> tuple[Element, ...]:
        return self.elements[1:]

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = []
        acc = 1
        for n in reversed(self.invariant_factors):
            strides.append(acc)
            acc *= n
        return tuple(reversed(strides))

    def index(self, g: Element) -> int:
        return sum(c * s for c, s in zip(g, self._strides))

    def element_at(self, i: int) -> Element:
        return self.elements[i]

    def validate(self, g: Element) -> Element:
        if len(g) != self.rank or any(
            not (0 <= c < n) for c, n in zip(g, self.invariant_factors)
        ):
            raise ValueError(f"{g!r} is not an element of {self}")
        return g

    def canonical_subset(self, subset: Iterable[Element]) -> tuple[Element, ...]:
        """The distinct elements of ``subset``, validated, in index order."""
        return tuple(sorted({self.validate(g) for g in subset}, key=self.index))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.invariant_factors))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.invariant_factors))

    def scale(self, k: int, a: Element) -> Element:
        return tuple((k * x) % n for x, n in zip(a, self.invariant_factors))

    def order_of(self, g: Element) -> int:
        """Least k >= 1 with k*g = 0."""
        self.validate(g)
        ord_ = 1
        for c, n in zip(g, self.invariant_factors):
            ord_ = math.lcm(ord_, n // math.gcd(n, c))
        return ord_

    @property
    def label(self) -> str:
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{n}" for n in self.invariant_factors)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


def make_group(cyclic_orders: Iterable[int]) -> FiniteAbelianGroup:
    """Build a group from any list of cyclic orders (empty list: trivial group)."""
    return FiniteAbelianGroup(invariant_factors(cyclic_orders))


_TOKEN = re.compile(r"^c?(\d+)$", re.IGNORECASE)


def parse_group(spec: str) -> FiniteAbelianGroup:
    """Parse a group spec string such as ``"2x4"``, ``"3,3"``, ``"C2xC4"`` or ``"5"``."""
    parts = [t for t in re.split(r"[xX,*\s]+", spec.strip()) if t]
    orders = []
    for t in parts:
        m = _TOKEN.match(t)
        if not m:
            raise ValueError(f"cannot parse group spec token {t!r} in {spec!r}")
        orders.append(int(m.group(1)))
    return make_group(orders)


def davenport_lower_bound(group: FiniteAbelianGroup) -> DavenportBound:
    """1 + sum(n_i - 1); the ``exact`` flag is set for p-groups and rank <= 2."""
    value = 1 + sum(n - 1 for n in group.invariant_factors)
    return DavenportBound(value, group.rank <= 2 or group.is_p_group)
