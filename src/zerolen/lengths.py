"""Exact sets of lengths, with the derived invariants and the AAMP test.

Two dynamic programs compute every length set of a zero-sum sequence in
the package.  Both walk zero-sum multisets over a fixed support, packed into
one integer with a bit field per support element and one guard bit above
each field.  Both keep a state's lengths as a bitmask, so one step is one
integer addition or subtraction and one OR.  Both rest on the pivot rule:
every factorization of T contains an atom holding the lowest element of T,
so

    L(T) = union of 1 + L(T - A) over the atoms A | T whose lowest field
           is the lowest nonzero field of T

(Geroldinger and Halter-Koch, *Non-Unique Factorizations*, 2006, §1.4).

``packed_sweep`` walks upward from the empty multiset in order of size,
pushing onto a state whose lowest nonzero field is i only the atoms whose
lowest field is at most i (Knuth's column rule in "Dancing links"), and
yields every zero-sum multiset of at most ``limit`` terms: a bounded
system (``system``).

``orbit_sweep`` is the one sweep of every bounded system: it runs the same
recursion over all nonzero elements with one state per Aut(G)-orbit when
the group's automorphism tree fits, and the plain sweep (the orbits of the
trivial group) when it does not.  It is exact because an automorphism φ
maps atoms to atoms, so L(φB) = L(B): the orbit of S + A is reached from
the canonical representative R of S's orbit by pushing A∘φ onto R, and
pushes that differ by an element of Stab(R) land in one orbit, so one
atom per Stab(R)-orbit suffices.  A representative is a zero-sum
multiset of the same size with the same lengths as every member of its
orbit, so it is a valid witness with the same minimal length.  Each distinct
child is canonicalized once, when its level is complete, to its largest
image alone (``AutomorphismTree.canonical_form``), and Stab(R) with its atom
orbits is shared by every R whose equal multiplicities sit at the same
positions.  Stab(R) is held as the transversals of the automorphism tree's
stabilizer chain, and an atom's orbit is grown through them, so the
symmetry work scales with the transversals, not with |Stab(R)|.  Its fields
are whole bytes, so a state becomes a vector by ``int.to_bytes`` and a form
a state by ``int.from_bytes``.  Its budget counts canonical forms, not
states: one per distinct child and one per stabilizer.

``LengthEngine.length_set`` runs the pivot rule downward instead.  It
starts from B's zero-free core and takes states in decreasing size.  A
state holds the bitmask of the lengths of the pivot paths from B down to
it, and the empty state ends up holding L(B).  Each pivot field has one
closing atom: a path removes the field's other atoms one at a time, then
every copy of the closing atom the field still holds in one step.  So the
engine reaches only the divisors of B on such a path, and packs only the
atoms dividing B.
Only the core's mask is memoized, in the one engine per group that the
cached ``engine_for`` hands every caller.  Zeros are re-added as a shift.
Length sets travel as sorted tuples.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .atoms import enumerate_atoms
from .budget import NodeCounter, ResourceLimitError
from .groups import Element, FiniteAbelianGroup
from .sequences import Sequence

Lengths = tuple[int, ...]


@cache
def engine_for(group: FiniteAbelianGroup) -> "LengthEngine":
    """Shared per-group engine so memo tables persist across callers."""
    return LengthEngine(group)


def mask_to_lengths(mask: int) -> Lengths:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# -- the packed sweep -------------------------------------------------


class PackedLayout:
    """Where each support element sits in a packed state.

    Field i holds the multiplicity of ``support[i]`` in ``bits - 1`` value
    bits, with one guard bit above them.  Every reader of a sweep goes
    through this class for anything positional.  With ``whole_bytes`` each
    field is widened to 1, 2, 4 or 8 bytes, so ``vector`` and ``state`` turn
    a state into its fields and back by ``int.to_bytes`` and
    ``int.from_bytes``; the size cap is set for the unwidened fields.
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        support: tuple[Element, ...],
        width: int,
        whole_bytes: bool = False,
    ):
        bits = width.bit_length() + 1  # values up to width, then the guard bit
        if bits * len(support) > 600:  # keeps keys to a few machine words
            raise ResourceLimitError("support too large for the packed sweep")
        if whole_bytes:
            size = 1 << max(bits - 1, 7).bit_length() - 3  # bytes per field
            self._nbytes, self._array = size * len(support), None
            if size > 1:
                # an array reads fields past one byte; loaded only for them
                from array import array

                code = next((c for c in "HILQ" if array(c).itemsize == size), None)
                if code is None:
                    raise ResourceLimitError("fields too wide for whole bytes")
                self._array = partial(array, code)
            bits = 8 * size
        self.group = group
        self.support = support
        self.bits = bits
        self._pos = {g: i * bits for i, g in enumerate(support)}
        self.guard = sum(1 << (p + bits - 1) for p in self._pos.values())
        # a field plus 2^(bits-1) - 1 carries into its guard bit iff it is nonzero
        self._fill = self.guard - (self.guard >> (bits - 1))

    def vector(self, state: int):
        """The fields of a state in support order, as bytes or an array of
        one machine integer per field (whole-byte layouts only)."""
        raw = state.to_bytes(self._nbytes, "little")
        if self._array is None:
            return raw
        fields = self._array(raw)
        if sys.byteorder == "big":
            fields.byteswap()
        return fields

    def state(self, fields) -> int:
        """The state holding ``fields`` in support order (whole-byte layouts only)."""
        if self._array is None:
            return int.from_bytes(bytes(fields), "little")
        raw = self._array(fields)
        if sys.byteorder == "big":
            raw.byteswap()
        return int.from_bytes(raw, "little")

    def pack(self, pairs: Iterable[tuple[Element, int]]) -> int:
        """The state holding multiplicity m of g for each pair (g, m)."""
        return sum(m << self._pos[g] for g, m in pairs)

    def unpack(self, state: int) -> Sequence:
        field = (1 << self.bits) - 1
        pairs = []
        for g in self.support:
            if state & field:
                pairs.append((g, state & field))
            state >>= self.bits
        return Sequence.build(self.group, pairs)

    def support_key(self, state: int) -> int:
        """The support of a state, as one guard bit per nonzero field."""
        return (state + self._fill) & self.guard

    def key_vector(self, key: int) -> list[int]:
        """A support key as a 0/1 vector over support indices."""
        tops = range(self.bits - 1, self.bits * len(self.support), self.bits)
        return [key >> t & 1 for t in tops]

    def lowest_field(self, state: int) -> int:
        """Index of the lowest nonzero field; -1 for the empty state."""
        return ((state & -state).bit_length() - 1) // self.bits


def packed_sweep(
    group: FiniteAbelianGroup, support: tuple[Element, ...], limit: int
) -> tuple[PackedLayout, Iterator[dict[int, int]]]:
    """The layout and the levels 0..limit of the sweep over ``support``.

    Level s maps each packed zero-sum multiset of size s to its length
    bitmask.  Levels are yielded in size order and dropped by the sweep once
    expanded, so a caller keeps only what it stores.  The sweep's own budget
    counter ticks once per state as a level is expanded, after the caller
    has received that level.  A push is made only when the atom fits under
    ``limit``, so no field exceeds it and the fields are sized by it.
    """
    catalog = enumerate_atoms(group, support)
    layout = PackedLayout(group, support, limit)
    atoms = sorted(
        (a.length, layout.pack(a.items)) for a in catalog if a.length <= limit
    )
    by_length: dict[int, list[tuple[int, int]]] = {}  # length -> (atom, lowest field)
    for alen, ak in atoms:
        by_length.setdefault(alen, []).append((ak, layout.lowest_field(ak)))
    # by_pivot[i]: the atoms whose lowest field is at most i, as (length,
    # atoms) buckets, shortest first
    by_pivot = [
        [
            (alen, [ak for ak, low in items if low <= i])
            for alen, items in by_length.items()
        ]
        for i in range(max(len(support), 1))
    ]
    return layout, _levels(by_pivot, layout.bits, limit)


def _levels(by_pivot, bits, limit):
    """Yield each level once every push into it is done, then expand it.

    A pivot's push list pairs each of its atoms with its target level.  It
    is built from the pivot's length buckets, one target lookup per bucket,
    when the first state of the level with that pivot needs it.
    """
    tick = NodeCounter().tick
    pending: dict[int, dict[int, int]] = {0: {0: 1}}  # size -> level
    for s in range(limit + 1):
        cur = pending.pop(s, {})
        yield cur
        if not cur:
            continue
        tick(len(cur))
        room = limit - s
        pushes: list = [None] * len(by_pivot)
        for state, mask in cur.items():
            shifted = mask << 1
            # lowest_field inlined; the empty state's -1 picks the last list
            pivot = ((state & -state).bit_length() - 1) // bits
            pairs = pushes[pivot]
            if pairs is None:
                pairs = pushes[pivot] = []
                for alen, aks in by_pivot[pivot]:
                    if alen > room:
                        break
                    pairs += zip(aks, repeat(pending.setdefault(s + alen, {})))
            for ak, tgt in pairs:
                nk = state + ak
                tgt[nk] = tgt.get(nk, 0) | shifted


def orbit_sweep(
    group: FiniteAbelianGroup, limit: int
) -> tuple[PackedLayout, Iterator[dict[int, int]]]:
    """The levels 0..limit of the sweep over all nonzero elements, one
    state per Aut(G)-orbit.

    Level s maps the canonical form (``AutomorphismTree.canonical_form``)
    of each orbit of zero-sum multisets of size s to its length bitmask,
    packed in a whole-byte layout (each field 1, 2, 4 or 8 bytes wide).
    L(φB) = L(B) and φ maps atoms to atoms, so the orbit of T is reached
    from the orbit of every S with S + A = T, and one representative per
    orbit carries the whole orbit's lengths.  From a representative R only
    one atom per orbit of Stab(R) is pushed: R + A∘φ = (R + A)∘φ for φ in
    Stab(R) lands in the same orbit.  Stab(R) is held as the transversals
    of the tree's stabilizer chain, never listed.  The budget ticks once
    per canonical form computed: once per distinct child of a level, and
    once per stabilizer.  A group whose tree is refused
    (``group.automorphisms`` raises ``ResourceLimitError``) gets the plain
    sweep, one state per multiset, in ``packed_sweep``'s layout.
    """
    support = group.nonzero_elements
    try:
        tree = group.automorphisms  # position p is support[p]
    except ResourceLimitError:
        return packed_sweep(group, support, limit)
    catalog = enumerate_atoms(group)
    layout = PackedLayout(group, support, limit, whole_bytes=True)
    position = {g: p for p, g in enumerate(support)}
    # atoms by length, shortest first; an atom is its positions in ascending
    # order, each repeated by multiplicity, and its packed state
    by_length: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for a in catalog:
        if a.length <= limit:
            ps = tuple(position[g] for g, m in a.items for _ in range(m))
            by_length.setdefault(a.length, []).append((ps, layout.pack(a.items)))
    buckets = sorted(by_length.items())
    return layout, _orbit_levels(tree, buckets, layout, limit)


def _orbit_levels(tree, buckets, layout, limit):
    """Yield each level of representatives once complete, then expand it.

    A pending level holds the packed children in push order, and each
    distinct child is canonicalized once, when its level is complete: its
    fields are read as bytes (``layout.vector``), its form is the largest
    image alone, with no list of the automorphisms that reach it, and the
    form is packed back by ``layout.state``.  The first child pushed into an
    orbit is also the first of that orbit in push order, so every orbit
    keeps the place it would get if each push were canonicalized at once.
    Stab(R) depends only on which positions of R share a multiplicity (R's
    split), so its transversals are computed once per split, and its orbits
    on the atoms of one length once per split and length (an automorphism
    keeps an atom's length).
    """
    tick = NodeCounter().tick
    canonical_form, transversals = tree.canonical_form, tree.transversals
    vector, state_of = layout.vector, layout.state
    stabs: dict[tuple, list] = {}  # split -> transversals of Stab(R)
    orbits: dict[tuple, list[int]] = {}  # (split, length) -> one atom per orbit
    pending: dict[int, dict[int, int]] = {0: {0: 1}}  # size -> child -> mask
    for s in range(limit + 1):
        children = pending.pop(s, {})
        tick(len(children))
        reps: dict[tuple, int] = {}
        for child, mask in children.items():
            rep = canonical_form(vector(child))
            reps[rep] = reps.get(rep, 0) | mask
        level = {state_of(rep): mask for rep, mask in reps.items()}
        yield level
        room = limit - s
        if not buckets or buckets[0][0] > room:
            continue
        # level was built from reps, in their order
        for rep, (state, mask) in zip(reps, level.items()):
            labels: dict[int, int] = {}
            split = tuple(labels.setdefault(m, len(labels)) for m in rep)
            stab = stabs.get(split)
            if stab is None:
                tick(1)
                stab = stabs[split] = transversals(rep)
            shifted = mask << 1
            for alen, atoms in buckets:
                if alen > room:
                    break
                firsts = orbits.get((split, alen))
                if firsts is None:
                    firsts = orbits[split, alen] = _one_per_orbit(atoms, stab)
                tgt = pending.setdefault(s + alen, {})
                for ak in firsts:
                    nk = state + ak
                    tgt[nk] = tgt.get(nk, 0) | shifted


def _one_per_orbit(atoms, stab) -> list[int]:
    """The packed state of the first atom of each orbit of Stab on ``atoms``.

    ``stab`` is Stab = U_0·U_1···U_{k-1} as its transversals.  Each atom is
    (positions, packed state); its image under φ is the sorted tuple of φ's
    images of its positions.  An atom's orbit is grown through U_{k-1},
    ..., U_0, each step imaging the orbit so far by one transversal: about
    |orbit|·Σ|U_j| images, never a list of Stab.
    """
    steps = [u[1:] for u in reversed(stab) if len(u) > 1]  # u[0] is the identity
    if not steps:
        return [ak for _, ak in atoms]
    seen: set[tuple[int, ...]] = set()
    out = []
    for ps, ak in atoms:
        if ps not in seen:
            out.append(ak)
            orbit = {ps}
            for u in steps:
                for qs in list(orbit):
                    orbit.update(map(tuple, map(sorted, map(itemgetter(*qs), u))))
            seen |= orbit
    return out


# -- the length engine ------------------------------------------------


class LengthEngine:
    """L(B) over one group, memoized on the zero-free core of B."""

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        self.nodes = 0  # descent states expanded by every query; a memo hit adds none
        self._memo: dict[tuple, int] = {(): 1}

    def length_set(self, seq: Sequence) -> Lengths:
        """Exact L(B) of a zero-sum sequence B."""
        if seq.group != self.group:
            raise ValueError("sequence belongs to a different group")
        zero = self.group.zero
        core = tuple(p for p in seq.items if p[0] != zero)
        mask = self._memo.get(core)
        if mask is None:  # only zero-sum cores are ever stored
            if not seq.is_zero_sum:
                raise ValueError(
                    f"L(B) requires a zero-sum sequence, sigma={seq.sigma}"
                )
            mask = self._memo[core] = self._sweep_mask(core)
        zeros = seq.multiplicity(zero)
        return tuple(v + zeros for v in mask_to_lengths(mask))

    def _sweep_mask(self, core: tuple) -> int:
        """Length bitmask of the core by a descent from it along pivot atoms.

        P(core) = {0}, and states are taken in decreasing size.  Each pivot
        field p has one closing atom C among the atoms dividing the core
        whose lowest field is p: the one of least multiplicity in field p,
        then the longest, then the first in catalog order.  A state T whose
        lowest nonzero field is p passes P(T) << 1 to T - A for each other
        such atom A | T (a free atom), and P(T) << c to T - c·C when
        c = T[p] / C[p] is an integer and c·C | T.  Then P(empty) = L(core):
        the pivot-p atoms of a factorization are some free atoms and c
        copies of C, taken one free atom at a time and then all c copies of
        C in one step, so each factorization, its atoms ordered by lowest
        field, is such a path, and each path is a factorization.  Each state
        is one that a descent by one atom per step reaches before it uses C,
        so no query takes more states than that descent.  A closing step may
        skip many levels, so any level below the current one may be pending;
        nothing recurses.  The budget covers this one descent; ``nodes`` adds
        each level above the empty one as it is taken, the descent's own
        charge for it, even when the budget runs out.  Only the atoms
        dividing the core are packed, and every state divides it, so the
        fields are sized by the core's largest multiplicity.
        """
        mults = dict(core)
        layout = PackedLayout(self.group, tuple(mults), max(mults.values()))
        guard, bits = layout.guard, layout.bits
        field = (1 << bits) - 1
        top = layout.pack(core)
        # by_pivot[p]: the atoms dividing the core whose lowest field is p,
        # in catalog order
        by_pivot: list[list[tuple[Sequence, int]]] = [[] for _ in core]
        for a in enumerate_atoms(self.group, layout.support):
            if all(m <= mults[g] for g, m in a.items):
                ak = layout.pack(a.items)
                by_pivot[layout.lowest_field(ak)].append((a, ak))
        # free[p]: the pivot-p atoms but the closing one C, as (length,
        # atoms) buckets; closing[p]: (C[p], the most copies of C dividing
        # the core, C, |C|), or None when no atom has lowest field p
        free: list[dict[int, list[int]]] = [{} for _ in core]
        closing: list = [None] * len(core)
        for p, atoms in enumerate(by_pivot):
            if not atoms:
                continue
            low = p * bits
            close, ck = min(atoms, key=lambda a: (a[1] >> low & field, -a[0].length))
            most = min(mults[g] // m for g, m in close.items)
            closing[p] = (ck >> low & field, most, ck, close.length)
            for a, ak in atoms:
                if ak != ck:
                    free[p].setdefault(a.length, []).append(ak)
        tick = NodeCounter().tick
        size = sum(mults.values())
        pending: dict[int, dict[int, int]] = {size: {top: 1}}
        for s in range(size, 0, -1):
            cur = pending.pop(s, None)
            if not cur:
                continue
            self.nodes += len(cur)
            tick(len(cur))
            steps: list = [None] * len(core)
            for state, mask in cur.items():
                pivot = ((state & -state).bit_length() - 1) // bits
                pairs = steps[pivot]
                if pairs is None:
                    pairs = steps[pivot] = []
                    for alen, aks in free[pivot].items():
                        if alen <= s:
                            pairs += zip(aks, repeat(pending.setdefault(s - alen, {})))
                shifted = mask << 1
                high = state | guard
                for ak, tgt in pairs:
                    nk = high - ak
                    if nk & guard == guard:  # A | T: no guard bit was borrowed
                        nk ^= guard
                        tgt[nk] = tgt.get(nk, 0) | shifted
                close = closing[pivot]
                if close is None:
                    continue
                cp, most, ck, clen = close
                c, rest = divmod(state >> pivot * bits & field, cp)
                if rest or c > most:  # c·C fits every field only up to most
                    continue
                nk = high - c * ck
                if nk & guard == guard:
                    nk ^= guard
                    tgt = pending.setdefault(s - c * clen, {})
                    tgt[nk] = tgt.get(nk, 0) | mask << c
        return pending[0][0]

    def max_length_with_length2_atom(self, seq: Sequence, atom2: Sequence) -> int:
        """max L(B) computed as 1 + max L(B / A1) for a dividing length-2 atom.

        The identity is checked against the direct computation and a mismatch
        raises, since it would mean the engine itself is inconsistent.
        """
        if atom2.length != 2 or not atom2.is_atom():
            raise ValueError("second argument must be an atom of length 2")
        if not atom2.divides(seq):
            raise ValueError("the length-2 atom must divide the sequence")
        via_removal = 1 + max(self.length_set(seq.divide(atom2)))
        direct = max(self.length_set(seq))
        if via_removal != direct:
            raise AssertionError(
                f"max-length identity failed: {via_removal} != {direct}"
            )
        return via_removal


# -- derived invariants -----------------------------------------------


def delta(lengths: Iterable[int]) -> tuple[int, ...]:
    """Set of successive gaps of a finite set of integers."""
    vals = sorted(set(lengths))
    return tuple(sorted({b - a for a, b in zip(vals, vals[1:])}))


def rho(lengths: Iterable[int]) -> Fraction:
    """Elasticity max/min; rho({0}) = 1 by convention."""
    vals = sorted(set(lengths))
    if not vals:
        raise ValueError("elasticity of an empty set is undefined")
    if vals == [0]:
        return Fraction(1)
    if vals[0] <= 0:
        raise ValueError(f"length set may contain 0 only as {{0}}, got {vals}")
    return Fraction(vals[-1], vals[0])


@dataclass(frozen=True)
class AampWitness:
    """Decomposition L = y + (L' u L* u L'') matching the AAMP shape."""

    y: int
    difference: int
    period: tuple[int, ...]
    bound: int
    l_prime: tuple[int, ...]
    l_star: tuple[int, ...]
    l_dprime: tuple[int, ...]


def is_aamp(lengths: Iterable[int], d: int, M: int) -> Optional[AampWitness]:
    """Witness that the set is an AAMP with difference d and bound M, if any.

    Searches all shifts y (anchored at members, since min L* = 0) and all
    central windows; the period is derived from the residues seen inside the
    window and must reproduce the window exactly.
    """
    if d < 1 or M < 0:
        raise ValueError("need difference >= 1 and bound >= 0")
    L = sorted(set(lengths))
    if not L:
        return None
    for y in L:
        lp = [x for x in L if x < y]
        if lp and y - lp[0] > M:
            continue
        for z in L:
            if z < y:
                continue
            ld = [x for x in L if x > z]
            if ld and ld[-1] - z > M:
                continue
            window = [x for x in L if y <= x <= z]
            period = tuple(sorted({(x - y) % d for x in window} | {d}))
            residues = {p % d for p in period}
            if any((x - y) % d not in residues for x in L):
                continue
            generated = {
                y + p + d * j
                for p in period
                for j in range((z - y) // d + 1)
            }
            if {v for v in generated if y <= v <= z} != set(window):
                continue
            return AampWitness(
                y=y,
                difference=d,
                period=period,
                bound=M,
                l_prime=tuple(x - y for x in lp),
                l_star=tuple(x - y for x in window),
                l_dprime=tuple(x - y for x in ld),
            )
    return None
