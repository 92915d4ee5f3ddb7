"""Sequences over a finite abelian group.

A sequence is a finite multiset of group elements, stored as a tuple of
``(element, multiplicity)`` pairs sorted by element index.  That tuple is the
canonical, hashable key used by every cache downstream.  All operations are
pure; sequences are immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .groups import Element, FiniteAbelianGroup


@dataclass(frozen=True)
class Sequence:
    group: FiniteAbelianGroup
    items: tuple[tuple[Element, int], ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def build(
        group: FiniteAbelianGroup,
        data: Mapping[Element, int] | Iterable[tuple[Element, int]],
    ) -> "Sequence":
        counts: dict[Element, int] = {}
        pairs = data.items() if isinstance(data, Mapping) else data
        for g, m in pairs:
            group.validate(g)
            if m < 0:
                raise ValueError(f"multiplicity must be >= 0, got {m} for {g}")
            if m:
                counts[g] = counts.get(g, 0) + m
        items = tuple(sorted(counts.items(), key=lambda kv: group.index(kv[0])))
        return Sequence(group, items)

    @staticmethod
    def from_terms(group: FiniteAbelianGroup, terms: Iterable[Element]) -> "Sequence":
        return Sequence.build(group, [(g, 1) for g in terms])

    @staticmethod
    def empty(group: FiniteAbelianGroup) -> "Sequence":
        return Sequence(group, ())

    # -- basic functionals --------------------------------------------

    @cached_property
    def length(self) -> int:
        return sum(m for _, m in self.items)

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(g for g, _ in self.items)

    def multiplicity(self, g: Element) -> int:
        for h, m in self.items:
            if h == g:
                return m
        return 0

    @cached_property
    def sigma(self) -> Element:
        acc = self.group.zero
        for g, m in self.items:
            acc = self.group.add(acc, self.group.scale(m, g))
        return acc

    @property
    def is_zero_sum(self) -> bool:
        return self.sigma == self.group.zero

    def cross_number(self) -> Fraction:
        """Sum of 1/ord(g) over the terms, as an exact rational."""
        return sum(
            (Fraction(m, self.group.order_of(g)) for g, m in self.items),
            Fraction(0),
        )

    def terms(self) -> Iterator[Element]:
        for g, m in self.items:
            for _ in range(m):
                yield g

    # -- multiset algebra ---------------------------------------------

    def __mul__(self, other: "Sequence") -> "Sequence":
        if other.group != self.group:
            raise ValueError("sequences live over different groups")
        counts = dict(self.items)
        for g, m in other.items:
            counts[g] = counts.get(g, 0) + m
        return Sequence.build(self.group, counts)

    def times(self, k: int) -> "Sequence":
        if k < 0:
            raise ValueError("nonnegative power required")
        return Sequence.build(self.group, [(g, m * k) for g, m in self.items])

    def divide(self, other: "Sequence") -> "Sequence":
        """Multiset difference; raises if ``other`` does not divide ``self``."""
        counts = dict(self.items)
        for g, m in other.items:
            have = counts.get(g, 0)
            if have < m:
                raise ValueError(f"{other} does not divide {self}")
            if have == m:
                del counts[g]
            else:
                counts[g] = have - m
        return Sequence.build(self.group, counts)

    def divides(self, other: "Sequence") -> bool:
        return all(other.multiplicity(g) >= m for g, m in self.items)

    def negate(self) -> "Sequence":
        return Sequence.build(
            self.group, [(self.group.neg(g), m) for g, m in self.items]
        )

    def with_zeros(self, y: int) -> "Sequence":
        if y == 0:
            return self
        return self * Sequence.build(self.group, [(self.group.zero, y)])

    # -- zero-sum structure -------------------------------------------

    def is_atom(self) -> bool:
        """True iff this is a minimal zero-sum sequence.

        Tracks which cardinalities reach each subsequence sum (bitmask per
        element); minimality means the zero element is reached only by the
        full multiset.
        """
        n = self.length
        if n == 0 or not self.is_zero_sum:
            return False
        if n == 1:
            return True
        add = self.group.add
        zero = self.group.zero
        reach: dict[Element, int] = {zero: 1}
        for g in self.terms():
            new = dict(reach)
            for s, mask in reach.items():
                t = add(s, g)
                new[t] = new.get(t, 0) | (mask << 1)
            reach = new
        return (reach[zero] & ~1) == (1 << n)

    def g_norm(self, g: Element) -> int:
        """Norm of a zero-sum sequence over a cyclic group with generator g.

        Writes each term as n_i * g with n_i in [1, ord(g)] and returns
        (sum n_i) / ord(g).
        """
        group = self.group
        if group.rank != 1:
            raise ValueError("g-norm requires a nontrivial cyclic group")
        n = group.order
        if group.order_of(g) != n:
            raise ValueError(f"{g} does not generate {group}")
        if not self.is_zero_sum:
            raise ValueError("g-norm requires a zero-sum sequence")
        inv = pow(g[0], -1, n)
        total = 0
        for h, m in self.items:
            rep = (h[0] * inv) % n
            total += m * (rep if rep else n)
        assert total % n == 0
        return total // n

    # -- presentation --------------------------------------------------

    def literal(self) -> str:
        if not self.items:
            return "()"
        parts = []
        for g, m in self.items:
            base = "(" + ",".join(str(c) for c in g) + ")"
            parts.append(base if m == 1 else f"{base}^{m}")
        return "*".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.literal()


_TERM = re.compile(r"^(?:\(([^()]*)\)|(\d+))(?:\^(\d+))?$")


def parse_sequence(group: FiniteAbelianGroup, text: str) -> Sequence:
    """Parse a sequence literal like ``"(1,0)^2 * (0,1)^3"``.

    Elements are coordinate tuples; for rank-1 groups a bare integer is also
    accepted.  ``()`` or an empty string denotes the empty sequence.
    """
    text = text.strip()
    if text in ("", "()"):
        return Sequence.empty(group)
    pairs: list[tuple[Element, int]] = []
    for raw in re.split(r"[*·]", text):
        raw = raw.strip()
        if not raw:
            continue
        m = _TERM.match(raw)
        if not m:
            raise ValueError(f"cannot parse sequence term {raw!r}")
        if m.group(1) is not None:
            coords = tuple(int(c) for c in m.group(1).split(",") if c.strip() != "")
        else:
            if group.rank != 1:
                raise ValueError(
                    f"bare integer term {raw!r} is only valid for cyclic groups"
                )
            coords = (int(m.group(2)),)
        if coords == () and group.rank > 0:
            raise ValueError(f"empty coordinates in term {raw!r}")
        if len(coords) != group.rank:
            raise ValueError(
                f"term {raw!r} has {len(coords)} coordinates, group rank is {group.rank}"
            )
        coords = tuple(c % n for c, n in zip(coords, group.invariant_factors))
        mult = int(m.group(3)) if m.group(3) else 1
        pairs.append((coords, mult))
    return Sequence.build(group, pairs)
