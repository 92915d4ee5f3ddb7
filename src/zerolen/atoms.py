"""Enumeration and classification of minimal zero-sum sequences (atoms).

The enumerator walks multisets over the chosen subset in canonical element
order, carrying the subsequence sums down the search tree as one mask per
element of G, in index order: bit k of an element's mask is set when k terms
sum to it.  Adding an element g is one C-level pass over that list, which
reads the mask of t - g for every t through an index getter built once per
element.  A branch dies as soon as a proper zero-sum sub-multiset appears, so
the tree visited is exactly the zero-sum-free sequences plus the atoms
hanging off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, product, repeat
from operator import itemgetter, lshift, or_
from typing import Iterable

from .budget import NodeCounter
from .groups import Element, FiniteAbelianGroup
from .sequences import Sequence


@dataclass(frozen=True)
class AtomCatalog:
    group: FiniteAbelianGroup
    subset: tuple[Element, ...]
    atoms: tuple[Sequence, ...]

    @cached_property
    def davenport(self) -> int:
        """Max atom length (0 for an empty catalog)."""
        return max((a.length for a in self.atoms), default=0)

    def counts(self) -> dict[int, int]:
        """{length: number of atoms of that length}, by ascending length."""
        out: dict[int, int] = {}
        for a in self.atoms:
            out[a.length] = out.get(a.length, 0) + 1
        return out

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


def _minimal_zero_sums(
    group: FiniteAbelianGroup, elems: tuple[Element, ...]
) -> list[tuple[tuple[Element, int], ...]]:
    """All minimal zero-sum multisets over the ordered nonzero elements.

    One node per walk call, under a fresh budget.  Bit k of ``reach[t]`` is
    set when k terms sum to the element of index t.  Adding g = elems[i]
    maps ``reach[t]`` to ``reach[t] | reach[t - g] << 1``, where ``back[i]``
    reads ``reach[t - g]`` for every t.
    """
    m = len(elems)
    maxlen = group.order  # Davenport upper bound D(G) <= |G|
    out: list[tuple[tuple[Element, int], ...]] = []
    counts = [0] * m
    # in index order, t - g runs over the product of each coordinate's range
    # shifted by -g
    back = []
    for g in elems:
        shifted = [
            [(x - c) % n for x in range(n)] for c, n in zip(g, group.invariant_factors)
        ]
        back.append(itemgetter(*map(group.index, product(*shifted))))
    ones = repeat(1)
    tick = NodeCounter().tick

    def walk(start: int, reach: list[int], size: int) -> None:
        tick()
        for i in range(start, m):
            new = list(map(or_, reach, map(lshift, back[i](reach), ones)))
            hit = new[0] & ~1  # index 0 is the zero element
            if hit == 0:
                # still zero-sum free; extend
                if size + 1 < maxlen:
                    counts[i] += 1
                    walk(i, new, size + 1)
                    counts[i] -= 1
            elif hit == 1 << (size + 1):
                # the only zero-sum sub-multiset is the whole thing: an atom
                counts[i] += 1
                out.append(tuple(compress(zip(elems, counts), counts)))
                counts[i] -= 1
            # otherwise a proper zero-sum exists; every extension is dead

    walk(0, [1] + [0] * (maxlen - 1), 0)
    return out


def enumerate_atoms(
    group: FiniteAbelianGroup, subset: Iterable[Element] | None = None
) -> AtomCatalog:
    """Complete atom catalog over ``subset`` (default: all nonzero elements).

    Results are cached per (group, canonical subset) by ``_catalog``.
    """
    elems = (
        group.nonzero_elements if subset is None else group.canonical_subset(subset)
    )
    return _catalog(group, elems)


@cache
def _catalog(group: FiniteAbelianGroup, elems: tuple[Element, ...]) -> AtomCatalog:
    atoms: list[Sequence] = []
    zero = group.zero
    nonzero = tuple(g for g in elems if g != zero)
    if zero in elems:
        atoms.append(Sequence.build(group, [(zero, 1)]))
    for items in _minimal_zero_sums(group, nonzero):
        atoms.append(Sequence(group, items))
    atoms.sort(key=lambda a: (a.length, a.items))
    return AtomCatalog(group, elems, tuple(atoms))


def is_half_factorial(
    group: FiniteAbelianGroup, subset: Iterable[Element] | None = None
) -> bool:
    """Cross-number criterion: every atom over the subset has cross number 1."""
    one = Fraction(1)
    return all(a.cross_number() == one for a in enumerate_atoms(group, subset))


# -- classification over C2 + C4 --------------------------------------


@dataclass(frozen=True)
class C2C4Classification:
    basis: tuple[Element, Element]
    classes: dict[str, tuple[Sequence, ...]]
    unclassified: tuple[Sequence, ...]
    expected_counts: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.unclassified and all(
            len(self.classes[name]) == n for name, n in self.expected_counts.items()
        )

    def counts(self) -> dict[str, int]:
        return {name: len(seqs) for name, seqs in self.classes.items()}


_C2C4_EXPECTED = {
    "S2_1": 2, "S2_2": 1, "S2_3": 2,
    "S3_1": 1, "S3_2": 4, "S3_3": 4,
    "S4_1": 4, "S4_2": 4, "S4_3": 4, "S4_4": 4,
    "S5": 8,
}


def _c2c4_basis(group: FiniteAbelianGroup) -> tuple[Element, Element]:
    """Pick e of order 2 outside 2G and g of order 4, in canonical order."""
    doubles = {group.add(x, x) for x in group.elements}
    e = next(
        x for x in group.elements if group.order_of(x) == 2 and x not in doubles
    )
    g = next(x for x in group.elements if group.order_of(x) == 4)
    return e, g


def classify_c2c4(catalog: AtomCatalog) -> C2C4Classification:
    """Partition the atom catalog over (C2+C4) minus zero into the named classes."""
    group = catalog.group
    if group.invariant_factors != (2, 4):
        raise ValueError(f"classification requires C2xC4, got {group}")
    if set(catalog.subset) != set(group.nonzero_elements):
        raise ValueError("classification requires the full nonzero subset")
    e, g = _c2c4_basis(group)
    add, neg, scale = group.add, group.neg, group.scale

    g2 = scale(2, g)
    mg = neg(g)
    eg = add(e, g)
    emg = add(e, mg)
    eg2 = add(e, g2)

    def seq(*terms: Element) -> Sequence:
        return Sequence.from_terms(group, terms)

    classes: dict[str, tuple[Sequence, ...]] = {
        "S2_1": (seq(e, e), seq(eg2, eg2)),
        "S2_2": (seq(g2, g2),),
        "S2_3": (seq(g, mg), seq(eg, emg)),
        "S3_1": (seq(e, g2, eg2),),
        "S3_2": (seq(g, g, g2), seq(mg, mg, g2), seq(eg, eg, g2), seq(emg, emg, g2)),
        "S3_3": (
            seq(e, g, emg), seq(e, mg, eg), seq(eg2, g, eg), seq(eg2, mg, emg),
        ),
        "S4_1": (seq(*(g,) * 4), seq(*(mg,) * 4), seq(*(eg,) * 4), seq(*(emg,) * 4)),
        "S4_2": (
            seq(g, g, eg, eg), seq(mg, mg, emg, emg),
            seq(g, g, emg, emg), seq(mg, mg, eg, eg),
        ),
        "S4_3": (
            seq(e, g, g, eg2), seq(e, eg, eg, eg2),
            seq(e, mg, mg, eg2), seq(e, emg, emg, eg2),
        ),
        "S4_4": (
            seq(e, g, g2, eg), seq(e, mg, g2, emg),
            seq(eg2, g, g2, emg), seq(eg2, mg, g2, eg),
        ),
        "S5": (
            seq(e, g, g, g, eg), seq(e, mg, mg, mg, emg),
            seq(e, eg, eg, eg, g), seq(e, emg, emg, emg, mg),
            seq(eg2, g, g, g, emg), seq(eg2, mg, mg, mg, eg),
            seq(eg2, eg, eg, eg, mg), seq(eg2, emg, emg, emg, g),
        ),
    }

    lookup: dict[tuple, str] = {}
    for name, seqs in classes.items():
        for s in seqs:
            lookup[s.items] = name
    found: dict[str, list[Sequence]] = {name: [] for name in classes}
    unclassified = []
    for atom in catalog:
        name = lookup.get(atom.items)
        if name is None:
            unclassified.append(atom)
        else:
            found[name].append(atom)
    return C2C4Classification(
        basis=(e, g),
        classes={name: tuple(v) for name, v in found.items()},
        unclassified=tuple(unclassified),
        expected_counts=dict(_C2C4_EXPECTED),
    )
