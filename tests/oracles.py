"""Independent brute-force reference implementations used only by the tests.

Everything here enumerates explicitly (products of multiplicity ranges,
recursive factorization search) and deliberately avoids the pruned search,
the memoized recursion and the packed sweep of the package under test.  The
only shared ingredient is elementwise group arithmetic.
"""

from __future__ import annotations

from itertools import product

from zerolen.groups import FiniteAbelianGroup
from zerolen.sequences import Sequence


def _submultisets(items):
    """All multiplicity vectors below the given (element, mult) pairs."""
    ranges = [range(m + 1) for _, m in items]
    for combo in product(*ranges):
        yield combo


def _sum_of(group, items, combo):
    acc = group.zero
    for (g, _), m in zip(items, combo):
        acc = group.add(acc, group.scale(m, g))
    return acc


def naive_subsums(group: FiniteAbelianGroup, seq: Sequence) -> frozenset:
    out = set()
    for combo in _submultisets(seq.items):
        if any(combo):
            out.add(_sum_of(group, seq.items, combo))
    return frozenset(out)


def naive_is_atom(group: FiniteAbelianGroup, seq: Sequence) -> bool:
    n = seq.length
    if n == 0 or seq.sigma != group.zero:
        return False
    full = tuple(m for _, m in seq.items)
    for combo in _submultisets(seq.items):
        if not any(combo) or combo == full:
            continue
        if _sum_of(group, seq.items, combo) == group.zero:
            return False
    return True


def naive_atoms(group: FiniteAbelianGroup, subset, max_len: int):
    """All minimal zero-sum sequences over the subset up to the length cap."""
    elems = sorted(subset, key=group.index)
    found = []

    def rec(idx, counts, size):
        if size:
            seq = Sequence.build(group, list(zip(elems, counts)))
            if naive_is_atom(group, seq):
                found.append(seq)
        if size == max_len:
            return
        for i in range(idx, len(elems)):
            counts[i] += 1
            rec(i, counts, size + 1)
            counts[i] -= 1

    rec(0, [0] * len(elems), 0)
    return found


_ATOM_CACHE: dict = {}


def _group_atoms(group: FiniteAbelianGroup):
    """Every atom of the group, enumerated once.

    No atom is longer than |G|: among the |G| + 1 prefix sums of a longer
    sequence two agree, so it has a proper zero-sum subsequence.
    """
    key = group.invariant_factors
    if key not in _ATOM_CACHE:
        _ATOM_CACHE[key] = naive_atoms(group, group.elements, group.order)
    return _ATOM_CACHE[key]


def naive_lengths(group: FiniteAbelianGroup, seq: Sequence) -> tuple[int, ...]:
    """All factorization lengths by exhaustive multiset-of-atoms search."""
    if seq.length == 0:
        return (0,)
    # an atom of a factorization of B divides B
    atoms = [a for a in _group_atoms(group) if a.divides(seq)]
    out: set[int] = set()

    def rec(rest: Sequence, start: int, depth: int):
        if rest.length == 0:
            out.add(depth)
            return
        for i in range(start, len(atoms)):
            if atoms[i].divides(rest):
                rec(rest.divide(atoms[i]), i, depth + 1)

    rec(seq, 0, 0)
    return tuple(sorted(out))
