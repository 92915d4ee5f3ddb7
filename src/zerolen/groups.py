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
from operator import itemgetter
from typing import Iterable, NamedTuple

from .budget import ResourceLimitError

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

    @cached_property
    def automorphism_count(self) -> int:
        """|Aut(G)| by the closed form of Hillar and Rhea, without building it.

        Aut(G) is the product of the automorphism groups of the Sylow
        subgroups.  For a p-group of type e_1 <= ... <= e_n, with
        d_k = max{l : e_l = e_k} and c_k = min{l : e_l = e_k}, the order is
        the product over k of
        (p^d_k - p^(k-1)) * p^(e_k (n - d_k)) * p^((e_k - 1)(n - c_k + 1)).
        """
        per_prime: dict[int, list[int]] = {}
        for n in self.invariant_factors:
            for p, e in _factorize(n).items():
                per_prime.setdefault(p, []).append(e)
        count = 1
        for p, es in per_prime.items():
            es.sort()
            n = len(es)
            for k, e in enumerate(es, 1):
                d = max(l for l in range(1, n + 1) if es[l - 1] == e)
                c = min(l for l in range(1, n + 1) if es[l - 1] == e)
                count *= (p**d - p ** (k - 1)) * p ** (e * (n - d))
                count *= p ** ((e - 1) * (n - c + 1))
        return count

    @cached_property
    def automorphisms(self) -> "AutomorphismTree":
        """Aut(G) as a search tree over the nonzero elements (built on first use)."""
        return AutomorphismTree(self)

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
    if not orders:
        raise ValueError(f"group spec {spec!r} names no cyclic order")
    return make_group(orders)


def davenport_lower_bound(group: FiniteAbelianGroup) -> DavenportBound:
    """1 + sum(n_i - 1); the ``exact`` flag is set for p-groups and rank <= 2."""
    value = 1 + sum(n - 1 for n in group.invariant_factors)
    return DavenportBound(value, group.rank <= 2 or group.is_p_group)


# The tree keeps one permutation per automorphism, a few hundred bytes each
# (8 MB for the 20,160 of C2^4); past this size callers use another method.
MAX_TREE_AUTOMORPHISMS = 100_000


class AutomorphismTree:
    """Aut(G) as permutations of the nonzero elements, stored as a search tree.

    Position p stands for the nonzero element of index p + 1.  An
    automorphism is fixed by the images of the generators e_r, ..., e_1
    (the largest invariant factor first): the image of e_j must have order
    dividing n_j, and the map must stay injective on the span of the
    generators chosen so far.  Level j of the tree chooses the image of the
    j-th generator, and its nodes hold the images of block j: the elements
    in the span of the first j + 1 generators but not of the first j.  In
    index order each block is one run of positions, so a permutation's
    blocks, level by level, are its positions in order.  A node is a pair
    (getter, children); the getter reads the node's block of v∘φ from a
    vector v over positions, and a leaf's children are the full permutation
    tuple, with (v∘φ)[p] = v[φ[p]].
    """

    def __init__(self, group: FiniteAbelianGroup):
        if group.automorphism_count > MAX_TREE_AUTOMORPHISMS:
            raise ResourceLimitError(
                f"Aut({group.label}) has {group.automorphism_count} elements, "
                f"more than the tree holds ({MAX_TREE_AUTOMORPHISMS})"
            )
        factors = group.invariant_factors[::-1]
        # slot p is position p, and the last slot, size, holds the zero element
        elems = group.elements[1:] + group.elements[:1]
        slot = {g: p for p, g in enumerate(elems)}
        add = [[slot[group.add(a, b)] for b in elems] for a in elems]
        self.size = zero = len(elems) - 1
        # a block of one position reads an int, a longer one a tuple
        self._lows = []
        span = 1
        for n in factors:
            self._lows.append(-1 if (n - 1) * span == 1 else ())
            span *= n
        # the candidate images of a generator of order n: each element h of
        # order n, with its multiples h, 2h, ..., (n - 1)h
        candidates = {}
        for n in set(factors):
            candidates[n] = []
            for h in range(zero):
                multiples = [h]
                while multiples[-1] != zero and len(multiples) < n - 1:
                    multiples.append(add[multiples[-1]][h])
                if multiples[-1] != zero and add[multiples[-1]][h] == zero:
                    candidates[n].append(multiples)
        leaves = 0

        def grow(depth: int, img: tuple[int, ...]) -> list:
            # img: the slots of the span chosen so far, zero first
            nonlocal leaves
            taken, kids = set(img), []
            for multiples in candidates[factors[depth]]:
                if not taken.isdisjoint(multiples):
                    continue
                block = tuple([add[c][y] for c in multiples for y in img])
                if depth + 1 == len(factors):
                    sub = img[1:] + block
                    leaves += 1
                else:
                    sub = grow(depth + 1, img + block)
                    if not sub:  # no automorphism extends this choice
                        continue
                kids.append((itemgetter(*block), sub))
            return kids

        self._root = grow(0, (zero,)) if factors else ()
        if factors and leaves != group.automorphism_count:
            raise AssertionError(
                f"Aut({group.label}): {leaves} != {group.automorphism_count}"
            )

    def canonical(self, v) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
        """The largest image v∘φ, and every φ that reaches it.

        Breadth-first, level by level: a branch survives while its blocks
        tie with the best so far, and is cut as soon as one falls below.
        When v is its own canonical form the survivors are Stab(v).
        """
        frontier = [self._root]
        for best in self._lows:
            keep = []
            for kids in frontier:
                for get, sub in kids:
                    val = get(v)
                    if val > best:
                        best, keep = val, [sub]
                    elif val == best:
                        keep.append(sub)
            frontier = keep
        return tuple(map(v.__getitem__, frontier[0])), frontier
