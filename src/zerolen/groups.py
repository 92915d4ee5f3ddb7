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


# A leaf holds only the getter of its block, about 200 bytes (4.2 MB traced
# for the 20,160 automorphisms of C2^4); past this size callers use another
# method.
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
    blocks, level by level, are its positions in order.  Each node is the
    getter of its block, which reads the node's block of v∘φ from a vector v
    over positions, with (v∘φ)[p] = v[φ[p]].  An inner node pairs it with
    its children, (getter, children); a leaf is its getter alone.  No
    permutation is stored: a leaf's is the blocks on its path, and a getter
    applied to the identity gives its block.

    The levels are a stabilizer chain (Seress, *Permutation Group
    Algorithms*, 2003): the automorphisms below the identity's level-j node
    fix the first j generators, and its children are their images of the
    next one.  ``canonical_form`` reads the largest image of a vector
    breadth-first, and ``transversals`` gives the stabilizer of a canonical
    vector as one transversal per level, never as a list of its elements.
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
        # per level: the low value of its block (a block of one position
        # reads an int, a longer one a tuple) and the position ending it
        levels = []
        span = 1
        for n in factors:
            levels.append((-1 if (n - 1) * span == 1 else (), n * span - 1))
            span *= n
        # the trivial group has no level, and its one form is empty
        *self._inner, (self._leaf_low, _) = levels or [((), 0)]
        # the candidate images of a generator of order n: each element h of
        # order n, with its multiples h, 2h, ..., (n - 1)h and their add
        # rows end to end, so that add[kh][y] is row[(k - 1) * order + y]
        order = zero + 1
        candidates = {}
        for n in set(factors):
            candidates[n] = []
            for h in range(zero):
                multiples = [h]
                while multiples[-1] != zero and len(multiples) < n - 1:
                    multiples.append(add[multiples[-1]][h])
                if multiples[-1] != zero and add[multiples[-1]][h] == zero:
                    row = [x for c in multiples for x in add[c]]
                    candidates[n].append((multiples, row))
        last = len(factors) - 1
        leaves = 0

        def grow(depth: int, img: tuple[int, ...]) -> list:
            # img: the slots of the span chosen so far, zero first.  A
            # choice's block is kh + y for each multiple kh and each y of
            # img, which ``read`` takes off its row in one call; at the root
            # img is the zero slot alone, and the block is the multiples
            nonlocal leaves
            n = factors[depth]
            taken, kids = set(img), []
            read = itemgetter(*[k * order + y for k in range(n - 1) for y in img])
            for multiples, row in candidates[n]:
                if not taken.isdisjoint(multiples):
                    continue
                block = read(row) if depth else tuple(multiples)
                if depth == last:
                    kids.append(itemgetter(*block))
                    continue
                sub = grow(depth + 1, img + block)
                if sub:  # else no automorphism extends this choice
                    kids.append((itemgetter(*block), sub))
            if depth == last:
                leaves += len(kids)
            return kids

        self._root = grow(0, (zero,)) if factors else []
        if factors and leaves != group.automorphism_count:
            raise AssertionError(
                f"Aut({group.label}): {leaves} != {group.automorphism_count}"
            )
        # the identity's path: per level, its node's children and the index
        # of the identity's child, whose block is a run of positions in order,
        # and in ``_path`` that child's getter
        self._identity = ident = tuple(range(zero))
        self._spine, self._path = [], []
        kids, start = self._root, 0
        for depth, (low, end) in enumerate(levels):
            gets = kids if depth == last else [get for get, _ in kids]
            run = start if low == -1 else tuple(range(start, end))
            i = [get(ident) for get in gets].index(run)
            self._spine.append((kids, i))
            self._path.append(gets[i])
            if depth < last:
                kids = kids[i][1]
            start = end

    def canonical_form(self, v) -> tuple[int, ...]:
        """The largest image v∘φ over Aut(G), as a tuple.

        Breadth-first, level by level: a branch survives while its blocks
        tie with the best so far, and is cut as soon as one falls below.
        The form is the best block of each level in turn.  Once the best
        prefix holds every nonzero entry of v, every surviving completion
        is zeros, so the search stops there; until the prefix is as long as
        v's nonzero count, that test is one comparison per level.  On the
        leaf level only the best block is kept.
        """
        nonzero = self.size - v.count(0)
        frontier = [self._root]
        bests = []
        for best, end in self._inner:
            keep = []
            for kids in frontier:
                for get, sub in kids:
                    val = get(v)
                    if val > best:
                        best, keep = val, [sub]
                    elif val == best:
                        keep.append(sub)
            frontier = keep
            bests.append(best)
            if end >= nonzero:
                form = _joined(bests)
                if end - form.count(0) == nonzero:
                    return tuple(form) + (0,) * (self.size - end)
        best = self._leaf_low
        for kids in frontier:
            for get in kids:
                val = get(v)
                if val > best:
                    best = val
        bests.append(best)
        return tuple(_joined(bests))

    def transversals(self, v) -> list[list[tuple[int, ...]]]:
        """Stab(v) of a canonical v as transversals U_0, ..., U_{k-1}.

        Stab(v) = U_0·U_1···U_{k-1}: U_j holds the identity and, for each
        other child of the identity's level-j node that still reads v's
        block j, one leaf below it whose every block reads v's.  Each leaf
        of U_j fixes the first j generators, so the orbit of a point under
        Stab(v) is grown through U_{k-1}, ..., U_0.  v must be its own
        canonical form, so a branch that ties v's blocks is never beaten.
        The search below a child stops at its first such leaf, and its
        permutation is rebuilt from its path.
        """
        path, ident = self._path, self._identity
        wants = [get(v) for get in path]
        out = []
        for j, (kids, i) in enumerate(self._spine):
            u = [ident]
            for c, kid in enumerate(kids):
                tail = None if c == i else _tying_path((kid,), v, wants, j)
                if tail is not None:
                    blocks = [get(ident) for get in path[:j] + tail]
                    u.append(tuple(_joined(blocks)))
            out.append(u)
        return out


def _joined(blocks) -> list[int]:
    """The blocks, each an int or a tuple, as one list."""
    out = []
    for b in blocks:
        if b.__class__ is int:
            out.append(b)
        else:
            out += b
    return out


def _tying_path(kids, v, wants, depth):
    """The getters, from ``depth`` on, of the first leaf below ``kids`` whose
    blocks read ``wants``; None if there is none."""
    want = wants[depth]
    if depth + 1 == len(wants):  # kids are leaves
        for get in kids:
            if get(v) == want:
                return [get]
        return None
    for get, sub in kids:
        if get(v) == want:
            tail = _tying_path(sub, v, wants, depth + 1)
            if tail is not None:
                return [get, *tail]
    return None
