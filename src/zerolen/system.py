"""Bounded systems of sets of lengths and the system-level invariants.

The enumeration core is ``lengths.orbit_sweep``, which walks up from the
empty sequence to the length bound, one size level at a time: a state is a
zero-sum multiset of nonzero elements, its value the bitmask of its
factorization lengths.  No multiplicity has a cap of its own; the bound alone
ends the walk.  Each reader consumes the sweep in one pass and keeps only
what it needs.  Every result at this level is a bounded certificate: it
speaks about all zero-sum sequences up to the stated length bound, never
about the full infinite system.  Each bound is stated
once, here: ``default_bound`` is the one table of certificate bounds (which
``verify``'s catalog targets sweep at), ``resolve_bound`` applies it and
rejects a negative bound, and ``size_bound`` is the rule |B| <= k*D(G).

Every system here is a system of G or of G∖{0}, read off one sweep of the
nonzero elements, ``lengths.orbit_sweep``; 0 is a prime of B(G), so the
sets of G are shifts L(0^y B) = y + L(B).  ``orbit_sweep`` alone picks the
sweep: one canonical state per Aut(G)-orbit whenever the group's
automorphism tree fits, else the plain one.  The witnesses of
``bounded_system`` are then orbit representatives, with the same lengths
and minimal length as the plain sweep's, and the node budget counts
canonical forms.  ``delta_star`` reads the least distance of each
representative's support and descends over canonical supports, removing one
element per stabilizer orbit; this is exact because the least distance over
the subsets of a support is Aut-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .atoms import enumerate_atoms
from .budget import NodeCounter
from .families import COVERED_GROUPS, INTERSECTION, family_branches, intersection_witness
from .groups import Element, FiniteAbelianGroup
from .lengths import Lengths, delta, engine_for, mask_to_lengths, orbit_sweep
from .sequences import Sequence


def default_bound(group: FiniteAbelianGroup) -> int:
    """The length bound, per group order, of every sweep that names none."""
    if group.order <= 5:
        return 20
    if group.order <= 9:
        return 16
    if group.order <= 16:
        return 12
    return 10


def check_bound(bound: int) -> int:
    """``bound``; a negative one is a ValueError, as every bound counts terms."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return bound


def resolve_bound(group: FiniteAbelianGroup, bound: int | None) -> int:
    """``default_bound(group)`` for None, else ``check_bound(bound)``."""
    return default_bound(group) if bound is None else check_bound(bound)


def size_bound(group: FiniteAbelianGroup, k: int) -> int:
    """k * D(G): k in L(B) makes B a product of k atoms, each of <= D(G) terms.

    D(C1) = 1, its atom 0, though C1 has no nonzero atom."""
    return k * max(enumerate_atoms(group).davenport, 1)


# ---------------------------------------------------------------------------
# bounded systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemEntry:
    lengths: Lengths
    min_length: int
    witness: Sequence


@dataclass(frozen=True)
class BoundedSystem:
    group: FiniteAbelianGroup
    bound: int
    entries: tuple[SystemEntry, ...]

    @cached_property
    def sets(self) -> dict[Lengths, SystemEntry]:
        return {e.lengths: e for e in self.entries}

    def __contains__(self, lengths: Iterable[int]) -> bool:
        return tuple(sorted(set(lengths))) in self.sets

    def length_sets(self) -> tuple[Lengths, ...]:
        return tuple(sorted(self.sets))

    def __len__(self) -> int:
        return len(self.entries)


def bounded_system(
    group: FiniteAbelianGroup,
    subset: Iterable[Element] | None = None,
    bound: int | None = None,
) -> BoundedSystem:
    """All distinct L(B) over zero-sum B with supp(B) in subset and |B| <= bound.

    ``subset`` is None or the nonzero elements, for the system of G∖{0}, or
    all of G, whose zero element is handled by the shift rule
    L(0^y B) = y + L(B) rather than enumerated; any other subset is a
    ValueError.  The sweep is ``lengths.orbit_sweep``.  An int ``subset``
    is a TypeError, as it is a bound passed in the wrong place.
    """
    if isinstance(subset, int):
        raise TypeError(
            f"bounded_system: subset must be None or a collection of elements, "
            f"not {subset!r}; pass the bound as bound={subset!r}"
        )
    bound = resolve_bound(group, bound)
    elems = (
        group.nonzero_elements if subset is None else group.canonical_subset(subset)
    )
    if elems not in (group.nonzero_elements, group.elements):
        raise ValueError("the subset must be all of G or its nonzero elements")
    layout, levels = orbit_sweep(group, bound)
    return _system_from(group, elems == group.elements, bound, layout, levels)


def _system_from(group, with_zero: bool, bound, layout, levels) -> BoundedSystem:
    """The bounded system read from one pass over the sweep's levels.

    Each mask keeps its first state in level order, so its witness has the
    least size; ``with_zero`` adds every shift y <= bound - size.
    """
    best: dict[int, tuple[int, int]] = {}  # mask -> (size, state)
    for size, level in enumerate(levels):
        for state, mask in level.items():
            if mask not in best:
                best[mask] = (size, state)

    chosen: dict[Lengths, tuple[int, int, int]] = {}  # lengths -> (size, state, zeros)
    for mask, (size, state) in best.items():
        shifts = range(bound - size + 1) if with_zero else (0,)
        for y in shifts:
            lengths = tuple(v + y for v in mask_to_lengths(mask))
            old = chosen.get(lengths)
            if old is None or size + y < old[0] + old[2]:
                chosen[lengths] = (size, state, y)

    entries = tuple(
        SystemEntry(
            lengths,
            size + y,
            layout.unpack(state).with_zeros(y),
        )
        for lengths, (size, state, y) in sorted(chosen.items())
    )
    return BoundedSystem(group, bound, entries)


def observed_delta(system: BoundedSystem) -> tuple[int, ...]:
    """Union of the distance sets of every length set in the bounded system."""
    out: set[int] = set()
    for entry in system.entries:
        out.update(delta(entry.lengths))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# k-th elasticity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoKCertificate:
    k: int
    value: int
    exact: bool
    method: str  # "sweep" or "witness"
    bound: int
    witness: Optional[Sequence]
    witness_lengths: Optional[Lengths]


def _best_shift(k: int, candidates: Iterable[tuple[Iterable[int], object]]):
    """(value, source, shift): the largest max(y + L) with k in y + L.

    ``candidates`` yields (L, source) pairs.  For one L the best shift is
    y = k - min L, worth k - min L + max L, and L qualifies when min L <= k.
    On a tie the first candidate wins; with none the value is k, source None.
    """
    best = (k, None, 0)
    for lengths, source in candidates:
        lo, hi = min(lengths), max(lengths)
        if lo <= k and k - lo + hi > best[0]:
            best = (k - lo + hi, source, k - lo)
    return best


def rho_k(group: FiniteAbelianGroup, k: int) -> RhoKCertificate:
    """Largest max L over bounded length sets containing k, as a certificate.

    When the complete sweep up to ``size_bound(group, k)`` is affordable, or
    the group has no catalog (not in ``COVERED_GROUPS``, so no witnesses), the
    value is exact by exhaustion under the node budget.  Otherwise it comes
    from the witness route (``_rho_k_by_witness``).  Both routes take the best
    shift of each candidate set with one scan (``_best_shift``).
    """
    if k < 2:
        raise ValueError("rho_k needs k >= 2")
    need = size_bound(group, k)
    m = len(group.nonzero_elements)
    if group in COVERED_GROUPS and math.comb(need + m, m) // group.order > 600_000:
        return _rho_k_by_witness(group, k)
    system = bounded_system(group, None, need)
    value, entry, shift = _best_shift(k, ((e.lengths, e) for e in system.entries))
    wit = entry.witness.with_zeros(shift) if entry else None
    wl = tuple(v + shift for v in entry.lengths) if entry else None
    return RhoKCertificate(k, value, True, "sweep", need, wit, wl)


def _rho_k_by_witness(group: FiniteAbelianGroup, k: int) -> RhoKCertificate:
    """rho_k from engine-verified witness sequences out of the family tables.

    The value is certified exact whenever it meets the arithmetic cap
    floor(k*D/2): every factorization of a product of k atoms has between
    |B|/D and |B|/2 factors.  The sweep route is this route's oracle.
    """
    cap = size_bound(group, k)
    value, source, shift = _best_shift(
        k,
        ((base, (br, kk)) for br in family_branches(group) for kk, base in br.bases(k)),
    )
    wit = wl = None
    if source is not None:
        br, kk = source
        wit = br.witness(0, kk).with_zeros(shift)
        wl = engine_for(group).length_set(wit)
        if wl[-1] != value or k not in wl:
            raise AssertionError(
                f"witness for rho_{k} over {group} realized {wl}, "
                f"expected max {value} containing {k}"
            )
    return RhoKCertificate(k, value, value == cap // 2, "witness", cap, wit, wl)


# ---------------------------------------------------------------------------
# distance invariants over all subsets
# ---------------------------------------------------------------------------


def delta_star(group: FiniteAbelianGroup, bound: int | None = None) -> tuple[int, ...]:
    """Bounded certificate for {min Delta(G0) : G0 with observed distances}.

    One orbit sweep over the full nonzero support gives, per Aut(G)-orbit of
    supports, the least observed distance mu(C) of the sequences with a
    support in that orbit.  A descent over canonical supports then takes
    nu(C) = min(mu(C), nu(C - x)), with one x per Stab(C)-orbit of C.  It is
    exact: nu is Aut-invariant and is the least observed distance over the
    subsets of C, and for each G0 with observed distances the support S
    inside G0 that carries min Delta(G0) has nu(S) = min Delta(G0).  So
    Delta* is {nu(C)} over the observed supports.
    """
    if group.order > 16:
        raise ValueError("delta_star needs |G| <= 16")
    bound = resolve_bound(group, bound)
    return _delta_star_from(*orbit_sweep(group, bound), group.automorphisms)


def _delta_star_from(layout, levels, tree) -> tuple[int, ...]:
    """Delta* from one pass over an orbit sweep, by the descent of ``delta_star``.

    Each canonical form computed ticks the budget, as in the sweep.
    """
    least_of_mask: dict[int, int] = {}  # length mask -> its least distance, or 0
    least: dict[int, int] = {}  # support key -> least distance of its states
    for level in levels:
        for state, mask in level.items():
            d = least_of_mask.get(mask)
            if d is None:
                gaps = delta(mask_to_lengths(mask))
                d = least_of_mask[mask] = gaps[0] if gaps else 0
            if d:
                key = layout.support_key(state)
                if d < least.get(key, d + 1):
                    least[key] = d

    tick = NodeCounter().tick
    canonical_form, transversals = tree.canonical_form, tree.transversals
    positions = range(len(layout.support))
    mu: dict[tuple[int, ...], int] = {}  # canonical support -> least distance
    tick(len(least))
    for key, d in least.items():
        c = canonical_form(layout.key_vector(key))
        if d < mu.get(c, d + 1):
            mu[c] = d
    floor = min(mu.values(), default=0)
    nu: dict[tuple[int, ...], float] = {}

    def descend(c: tuple[int, ...]) -> float:
        got = nu.get(c)
        if got is None:
            got = mu.get(c, math.inf)
            if got > floor:
                tick(1)
                # c is canonical; its position orbits grow through U_{k-1}, ..., U_0
                steps = [u[1:] for u in reversed(transversals(c))]
                done: set[int] = set()
                for x in positions:
                    if c[x] and x not in done:
                        orbit = {x}
                        for u in steps:
                            orbit.update([phi[y] for phi in u for y in orbit])
                        done |= orbit
                        tick(1)
                        child = canonical_form(c[:x] + (0,) + c[x + 1 :])
                        got = min(got, descend(child))
                        if got == floor:
                            break
            nu[c] = got
        return got

    return tuple(sorted({descend(c) for c in mu}))


# ---------------------------------------------------------------------------
# comparisons and the intersection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InclusionVerdict:
    holds: Optional[bool]  # None when bounded data cannot certify the failure
    missing_certified: tuple[Lengths, ...]
    missing_uncertified: tuple[Lengths, ...]


@dataclass(frozen=True)
class ComparisonReport:
    margin: int
    a_in_b: InclusionVerdict
    b_in_a: InclusionVerdict

    @property
    def equal(self) -> bool:
        return bool(self.a_in_b.holds) and bool(self.b_in_a.holds)


def _one_sided(src: BoundedSystem, dst: BoundedSystem, margin: int) -> InclusionVerdict:
    certified, uncertified = [], []
    for lengths in src.length_sets():
        if lengths[-1] > margin or lengths in dst.sets:
            continue
        # absence is certified when every realization would fit the dst bound
        if dst.bound >= size_bound(dst.group, lengths[0]):
            certified.append(lengths)
        else:
            uncertified.append(lengths)
    holds: Optional[bool]
    if certified:
        holds = False
    elif uncertified:
        holds = None
    else:
        holds = True
    return InclusionVerdict(holds, tuple(certified), tuple(uncertified))


def compare_systems(a: BoundedSystem, b: BoundedSystem) -> ComparisonReport:
    """Bounded inclusion verdicts both ways, restricted to a safe margin."""
    margin = min(a.bound, b.bound) // 2
    return ComparisonReport(margin, _one_sided(a, b, margin), _one_sided(b, a, margin))


@dataclass(frozen=True)
class IntersectionReport:
    sets: tuple[Lengths, ...]
    groups: tuple[FiniteAbelianGroup, ...]  # deduplicated, the base first
    max_value: int
    unconfirmed: tuple[tuple[Lengths, tuple[int, ...]], ...]


def bounded_intersection(
    groups: Iterable[FiniteAbelianGroup], max_value: int | None = None
) -> IntersectionReport:
    """Sets of lengths present in every group's system, certified by witnesses.

    The groups are deduplicated and sorted by (order, invariant factors).
    Candidates come from an exhaustive bounded system of the first, the base,
    since nothing outside it lies in the intersection (it is the minimal
    system only when the base is C3 or C2xC2).  A sequence B with max L(B) <=
    max_value (9 when None) has |B| <= ``size_bound(base, max_value)``: the
    base system is swept to that bound, and every set up to max_value is a
    candidate (over the node budget the sweep raises ``ResourceLimitError``).
    A candidate must match the T36-INTERSECT branch y + 2k + [0,k]; its
    membership in each group is certified by the engine-verified
    ``intersection_witness(g, y, k)``.  A candidate that matches no branch is
    certified in the base only, so it is reported unconfirmed in the first
    group after it.
    """
    gs = tuple(sorted(set(groups), key=lambda g: (g.order, g.invariant_factors)))
    if not gs:
        raise ValueError("need at least one group")
    if any(g.order < 3 for g in gs):
        raise ValueError("the intersection statement needs |G| >= 3")
    base = gs[0]
    max_value = 9 if max_value is None else max_value
    if max_value < 0:
        raise ValueError("max_value must be >= 0")
    base_sys = bounded_system(base, base.elements, size_bound(base, max_value))
    candidates = [L for L in base_sys.length_sets() if L[-1] <= max_value]
    if len(gs) == 1:
        return IntersectionReport(tuple(candidates), gs, max_value, ())

    confirmed: list[Lengths] = []
    unconfirmed: list[tuple[Lengths, tuple[int, ...]]] = []
    for L in candidates:
        match = next(INTERSECTION.matches(L), None)
        if match is None:
            unconfirmed.append((L, gs[1].invariant_factors))
            continue
        for g in gs:
            wit = intersection_witness(g, match.y, match.k)
            if engine_for(g).length_set(wit) != L:
                unconfirmed.append((L, g.invariant_factors))
                break
        else:
            confirmed.append(L)
    return IntersectionReport(tuple(confirmed), gs, max_value, tuple(unconfirmed))
