"""Closed-form length-set families and the sequences that realize them.

Every family is a list of branches y + base(k), y >= 0.  Because
L(0^y B) = y + L(B), a branch is plain data at y = 0: ``member_fn(k)`` gives
the base member (None where a residue or a lower end excludes k) and
``witness_fn(k)`` the multiset B_k realizing it.  A branch whose k-domain
ends says so with ``k_max`` (0 for the constant branches such as ``{y}`` and
``y + [3,6]``); every other domain is unbounded above.  ``FamilyBranch`` alone
applies the shift (member + y, B_k times 0^y) and the domain end, and walks k
(``bases``), so the tables can be listed, matched against and swept
generically.  The registry is the only statement of the catalog: the covered
groups, the verify targets (groups and branches) and the T36 intersection are
read off it.

Family ids follow the scheme ``<catalog>-L<i>`` with a branch tag where a
single list item splits into cases (interval residues, parity and the like).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .groups import Element, FiniteAbelianGroup, make_group
from .sequences import Sequence

Member = Optional[frozenset[int]]

# canonical groups covered by the closed forms
G3 = make_group([3])
G22 = make_group([2, 2])
G4 = make_group([4])
G23 = make_group([2, 2, 2])
G33 = make_group([3, 3])
G5 = make_group([5])
G24 = make_group([2, 4])
G2_4 = make_group([2, 2, 2, 2])

def _iv(a: int, b: int) -> frozenset[int]:
    return frozenset(range(a, b + 1))


def _ap(start: int, step: int, count: int) -> frozenset[int]:
    """start + step*[0, count]"""
    return frozenset(start + step * i for i in range(count + 1))


def _plus(a: Iterable[int], b: Iterable[int]) -> frozenset[int]:
    return frozenset(x + y for x in a for y in b)


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _merge(*parts: dict[Element, int]) -> dict[Element, int]:
    out: dict[Element, int] = {}
    for p in parts:
        for g, m in p.items():
            out[g] = out.get(g, 0) + m
    return out


def _scaled(part: dict[Element, int], k: int) -> dict[Element, int]:
    return {g: m * k for g, m in part.items()}


@dataclass(frozen=True)
class FamilyMatch:
    family: str
    branch: str
    y: int
    k: int


@dataclass(frozen=True)
class FamilyBranch:
    family: str
    branch: str
    group: Optional[FiniteAbelianGroup]
    formula: str
    member_fn: Callable[[int], Member]
    witness_fn: Optional[Callable[[int], dict[Element, int]]]
    sweep_ks: tuple[int, ...] = ()
    shifts: bool = True  # False: the branch is defined at y = 0 only
    k_max: Optional[int] = None  # the largest k of the domain, if it ends

    @property
    def id(self) -> str:
        return self.family if self.branch == "" else f"{self.family}:{self.branch}"

    @property
    def catalog(self) -> str:
        """The catalog (verify target) of the family: its name up to the first '-'."""
        return self.family.partition("-")[0]

    def try_member(self, y: int, k: int) -> Member:
        if y < 0 or k < 0 or (y and not self.shifts):
            return None
        if self.k_max is not None and k > self.k_max:
            return None
        base = self.member_fn(k)
        if base is None or y == 0:
            return base
        return frozenset(v + y for v in base)

    def member(self, y: int = 0, k: int = 0) -> frozenset[int]:
        m = self.try_member(y, k)
        if m is None:
            raise ValueError(
                f"(y={y}, k={k}) outside the domain of {self.id}: {self.formula}"
            )
        return m

    def witness(self, y: int = 0, k: int = 0) -> Sequence:
        self.member(y, k)  # domain check
        if self.witness_fn is None:
            raise ValueError(f"{self.id} has no witness constructor bound to a group")
        return Sequence.build(self.group, self.witness_fn(k)).with_zeros(y)

    def bases(self, top: int) -> Iterator[tuple[int, frozenset[int]]]:
        """(k, base member) for every k whose base has min <= top, k ascending.

        min(base) never decreases with k, so the walk stops at k_max or at the
        first base past top.
        """
        k = 0
        while self.k_max is None or k <= self.k_max:
            base = self.member_fn(k)
            if base is not None:
                if min(base) > top:
                    return
                yield k, base
            k += 1

    def members_up_to(self, bound: int) -> set[frozenset[int]]:
        """Every member y + base(k) with max <= bound."""
        out: set[frozenset[int]] = set()
        for k, _ in self.bases(bound):
            y = 0
            while (m := self.try_member(y, k)) is not None and max(m) <= bound:
                out.add(m)
                y += 1
        return out

    def matches(self, lengths: Iterable[int]) -> Iterator[FamilyMatch]:
        L = frozenset(lengths)
        if not L:
            return
        lo = min(L)
        for k, base in self.bases(lo):
            y = lo - min(base)
            if self.try_member(y, k) == L:
                yield FamilyMatch(self.family, self.branch, y, k)


# ---------------------------------------------------------------------------
# member formulas at y = 0
# ---------------------------------------------------------------------------


def _m_singleton(k: int) -> Member:
    return frozenset({0})


def _m_interval_2k3(k: int) -> Member:
    return _iv(2 * k, 3 * k)


def _m_c4_interval(k: int) -> Member:
    return _iv(k + 1, 2 * k + 1)


def _m_even_ap(k: int) -> Member:
    return _ap(2 * k, 2, k)


def _m_c23_long_interval(k: int) -> Member:
    return _iv(k, 2 * k) if k >= 3 else None


def _m_i23(k: int) -> Member:
    return _iv(2, 3)


def _m_t41_interval(k: int) -> Member:
    if k >= 2:
        m = _ceil(2 * k, 3)
        return _iv(m, m + k)
    return None


def _m_t46_l2(k: int) -> Member:
    return _plus({2 * k + 2, 2 * k + 4}, _ap(0, 3, k))


def _m_ap3_013(k: int) -> Member:
    return _plus({2 * k + 3, 2 * k + 4, 2 * k + 6}, _ap(0, 3, k))


def _m_t46_l7(k: int) -> Member:
    return _plus({2 * k + 2, 2 * k + 3}, _ap(0, 3, k)) if k >= 1 else None


def _m_ap3(k: int) -> Member:
    return _ap(2 * k, 3, k)


def _m_t46_l4(k: int) -> Member:
    return _m_ap3(k) if k >= 1 else None


def _m_interval_2ceil(k: int) -> Member:
    if k >= 1 and k != 3:
        m = 2 * _ceil(k, 3)
        return _iv(m, m + k)
    return None


def _m_i36(k: int) -> Member:
    return _iv(3, 6)


def _m_ap3_023(k: int) -> Member:
    return _plus({2 * k + 3, 2 * k + 5, 2 * k + 6}, _ap(0, 3, k))


def _m_t47_l2_odd(k: int) -> Member:
    return _iv(2 * k + 1, 5 * k + 2) if k >= 1 else None


def _m_t47_l3(k: int) -> Member:
    return _m_even_ap(k) if k >= 1 else None


def _m_t47_l4(k: int) -> Member:
    if k >= 1 and k % 2 == 1:
        return frozenset({k + 1}) | _iv(k + 3, 2 * k + 3)
    return None


def _m_t47_l5(k: int) -> Member:
    return _iv(k + 2, 2 * k + 2) | {2 * k + 4} if k >= 1 else None


def _m_t48_l3_int(k: int) -> Member:
    return _m_t41_interval(k) if k != 3 else None


def _m_t48_l6(k: int) -> Member:
    if k == 3 or k >= 5:
        base = 2 * _ceil(k, 3) + 2
        return frozenset({base}) | _iv(base + 2, base + k + 2)
    return None


def _m_t48_l7b(k: int) -> Member:
    return _plus({2 * k + 4, 2 * k + 5, 2 * k + 7}, _ap(0, 3, k)) | {5 * k + 8}


def _m_t48_l8b(k: int) -> Member:
    return _plus({2 * k + 4, 2 * k + 6, 2 * k + 7}, _ap(0, 3, k)) | {5 * k + 9}


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------

# C3
_g3, _g3b = (1,), (2,)

# C2^2
_e22, _f22, _ef22 = (1, 0), (0, 1), (1, 1)

# C4
_g4, _g4two, _g4m = (1,), (2,), (3,)

# C2^3
_f1, _f2, _f3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
_f0, _f12, _f13, _f23 = (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)
_B3C = {_f1: 2, _f2: 2, _f3: 2, _f0: 2, _f13: 2, _f23: 2}
_B4C = {_f1: 4, _f2: 2, _f3: 2, _f0: 2, _f12: 2, _f13: 2, _f23: 2}
_W1SQ = {_f1: 2, _f2: 2, _f3: 2, _f0: 2}
_C23_SHORT = ({_f1: 2}, {_f1: 2, _f2: 2, _f12: 2},
              {_f1: 2, _f2: 2, _f3: 2, _f0: 2, _f12: 2})

# C3^2
_a, _b, _ab = (1, 0), (0, 1), (1, 1)
_ma, _mb, _mab = (2, 0), (0, 2), (2, 2)
_amb, _bma = (1, 2), (2, 1)
_UAT = {_a: 2, _b: 2, _ab: 1}
_MUAT = {_ma: 2, _mb: 2, _mab: 1}
_W4 = {_a: 1, _b: 1, _ab: 2}
_MW4 = {_ma: 1, _mb: 1, _mab: 2}
# three length-5 atoms whose product carries six disjoint inverse pairs plus a
# zero-sum triple, realizing the interval [3, 7]
_B37 = {_a: 2, _b: 2, _ab: 1, _ma: 3, _mb: 2, _mab: 2, _amb: 1, _bma: 2}

# C5
_g5, _g5t, _g5mt, _g5m = (1,), (2,), (3,), (4,)

# C2+C4
_E, _G = (1, 0), (0, 1)
_2G, _EG, _E2G, _MG, _EMG = (0, 2), (1, 1), (1, 2), (0, 3), (1, 3)
_U1 = {_E: 1, _G: 3, _EG: 1}
_MU1 = {_E: 1, _MG: 3, _EMG: 1}
_U2 = {_E2G: 1, _EG: 3, _MG: 1}
_MU2 = {_E2G: 1, _EMG: 3, _G: 1}
_U3 = {_E: 1, _EMG: 3, _MG: 1}
_U4 = {_MG: 2, _EG: 2}
_MU4 = {_G: 2, _EMG: 2}
_U5 = {_E: 1, _E2G: 1, _G: 2}
_MU5 = {_E: 1, _E2G: 1, _MG: 2}

# C2^4
_E1, _E2, _E3, _E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
_E0, _S123 = (1, 1, 1, 1), (1, 1, 1, 0)
_E12, _E13, _E14 = (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)
_E23, _E24, _E34 = (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)
_U = {_E0: 1, _E1: 1, _E2: 1, _E3: 1, _E4: 1}
_V = {_E1: 1, _E2: 1, _E3: 1, _S123: 1}
_U2P = {_E1: 1, _E2: 1, _E13: 1, _E24: 1, _E34: 1}
_U3P = {_E13: 1, _E24: 1, _E3: 1, _E4: 1, _E12: 1}
_U4P = {_E12: 1, _E13: 1, _E24: 1, _E34: 1}


def _c24_interval_base(k: int) -> dict[Element, int]:
    """Multiset realizing the minimal interval of width k over C2^4."""
    if k == 1:
        return {_E1: 2, _E2: 2, _E12: 2}
    if k == 2:
        return _merge(_U, _U2P)
    if k == 3:
        return {_E1: 2, _E2: 2, _E3: 2, _S123: 2, _E13: 2, _E23: 2}
    if k == 4:
        return _merge(_U, _U2P, _U3P)
    if k == 5:
        return _merge(_scaled(_U, 2), _U2P, _U4P)
    if k == 6:
        return _merge(_scaled(_U, 2), _scaled(_U2P, 2))
    if k == 7:
        return _merge(_scaled(_U, 3), _U2P, _U3P)
    if k == 8:
        return _merge(_scaled(_U, 4), _U2P, _U4P)
    return _merge(_c24_interval_base(k - 3), _scaled(_U, 2))


def _c23_long_base(k: int) -> dict[Element, int]:
    """Multiset realizing [k, 2k] over C2^3 for k >= 3."""
    if k % 3 == 0:
        return _scaled(_B3C, k // 3)
    if k % 3 == 1:
        return _merge(_B4C, _scaled(_B3C, (k - 4) // 3))
    return _merge(_W1SQ, _scaled(_B3C, (k - 2) // 3))


def _t41_interval_base(k: int) -> dict[Element, int]:
    """Multiset realizing the minimal interval of width k over C3^2, k >= 2."""
    pair = _merge(_UAT, _MUAT)
    if k % 3 == 0:
        return _scaled(pair, k // 3)
    if k % 3 == 2:
        return _merge(_W4, _MW4, _scaled(pair, (k - 2) // 3))
    return _merge(_B37, _scaled(pair, (k - 4) // 3))


def _t46_l5_base(k: int) -> dict[Element, int]:
    t, r = divmod(k, 3)
    if r == 0:  # k = 3(t-1)+3 with t >= 2 in the three-residue scheme
        t -= 1
        return _merge({_g5t: 5, _g5mt: 5}, {_g5: 5 * t, _g5m: 5 * t})
    if r == 1:
        return _merge({_g5t: 1, _g5m: 2}, {_g5: 2, _g5mt: 1}, {_g5: 5 * t, _g5m: 5 * t})
    return _merge({_g5: 3, _g5t: 1}, {_g5m: 3, _g5mt: 1}, {_g5: 5 * t, _g5m: 5 * t})


def _t47_l2_base(k: int) -> dict[Element, int]:
    t, r = divmod(k, 3)
    if r == 0:
        t -= 1
        return _merge(_U1, _MU1, _scaled(_U2, t), _scaled(_MU2, t))
    if r == 1:
        return _merge(_U1, _MU4, _scaled(_U2, t), _scaled(_MU2, t))
    return _merge(_U1, _U3, _scaled(_U2, t), _scaled(_MU2, t))


def _t48_l6_base(k: int) -> dict[Element, int]:
    if k % 3 == 0:
        return _merge(_scaled(_U, 2 * k // 3), _scaled(_V, 2))
    if k % 3 == 2:
        return _merge(_scaled(_U, (2 * k - 4) // 3), _scaled(_V, 4))
    return _merge(_scaled(_U, (2 * k - 8) // 3), _scaled(_V, 6))


def _t48_l5_base(k: int) -> dict[Element, int]:
    if k % 2 == 0:
        tail = {_E14: k, _E24: k, _E34: k, _E0: k}
    else:
        tail = {_E14: k + 1, _E24: k + 1, _E34: k - 1, _E0: k - 1}
    return _merge(_scaled(_V, 2), tail)


def _t47_l5_base(k: int) -> dict[Element, int]:
    if k % 2 == 0:
        t = (k + 2) // 2
        return _merge(_U5, _MU5, {_G: 4 * t - 4, _MG: 4 * t - 4})
    t = (k + 1) // 2
    return _merge(_scaled(_U5, 2), {_MG: 4}, {_G: 4 * t - 4, _MG: 4 * t - 4})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _no_terms(k: int) -> dict[Element, int]:
    return {}


def _build_registry() -> tuple[FamilyBranch, ...]:
    B: list[FamilyBranch] = []

    # ---- Prop.-style families for the Davenport-4 groups ----
    B.append(FamilyBranch(
        "P33-C3C22", "c3", G3, "y + 2k + [0,k]",
        _m_interval_2k3,
        lambda k: {_g3: 3 * k, _g3b: 3 * k},
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "P33-C3C22", "c22", G22, "y + 2k + [0,k]",
        _m_interval_2k3,
        lambda k: {_e22: 2 * k, _f22: 2 * k, _ef22: 2 * k},
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "P33-C4", "L1", G4, "y + k + 1 + [0,k]",
        _m_c4_interval,
        lambda k: {_g4: 4} if k == 0 else {_g4: 2 * k, _g4m: 2 * k, _g4two: 2},
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "P33-C4", "L2", G4, "y + 2k + 2*[0,k]",
        _m_even_ap,
        lambda k: {_g4: 4 * k, _g4m: 4 * k},
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "P33-C23", "L1", G23, "y + k + 1 + [0,k], k <= 2",
        _m_c4_interval,
        _C23_SHORT.__getitem__,
        (0, 1, 2), k_max=2,
    ))
    B.append(FamilyBranch(
        "P33-C23", "L2", G23, "y + k + [0,k], k >= 3",
        _m_c23_long_interval,
        _c23_long_base,
        (3, 4, 5, 6, 7, 8),
    ))
    B.append(FamilyBranch(
        "P33-C23", "L3", G23, "y + 2k + 2*[0,k]",
        _m_even_ap,
        lambda k: _scaled(_W1SQ, k),
        (0, 1, 2, 3),
    ))

    # ---- C3+C3 ----
    B.append(FamilyBranch(
        "T41", "L1", G33, "{y}", _m_singleton, _no_terms, (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T41", "L2", G33, "y + 2 + [0,1]",
        _m_i23,
        lambda k: {_a: 3, _ma: 3},
        (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T41", "L3", G33, "y + ceil(2k/3) + [0,k], k >= 2",
        _m_t41_interval,
        _t41_interval_base,
        (2, 3, 4, 5, 6, 7),
    ))

    # ---- C5 ----
    B.append(FamilyBranch(
        "T46", "L1", G5, "{y}", _m_singleton, _no_terms, (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T46", "L2", G5, "y + 2k + 2 + {0,2} + 3*[0,k]",
        _m_t46_l2,
        lambda k: {_g5: 1, _g5t: 5 * k + 5, _g5mt: 5 * k + 3},
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T46", "L3", G5, "y + 2k + 3 + {0,1,3} + 3*[0,k]",
        _m_ap3_013,
        lambda k: {_g5: 1, _g5t: 5 * k + 7, _g5mt: 5 * k + 5},
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T46", "L4", G5, "y + 2k + 3*[0,k], k >= 1",
        _m_t46_l4,
        lambda k: {_g5: 5 * k, _g5m: 5 * k},
        (1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T46", "L5", G5, "y + 2*ceil(k/3) + [0,k], k >= 1, k != 3",
        _m_interval_2ceil,
        _t46_l5_base,
        (1, 2, 4, 5, 6, 7),
    ))
    B.append(FamilyBranch(
        "T46", "L5-36", G5, "y + [3,6]",
        _m_i36,
        lambda k: {_g5t: 1, _g5mt: 1, _g5: 5, _g5m: 5},
        (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T46", "L6", G5, "y + 2k + 3 + {0,2,3} + 3*[0,k]",
        _m_ap3_023,
        lambda k: {_g5: 5 * k + 8, _g5m: 5 * k + 5, _g5t: 1},
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T46", "L7", G5, "y + 2k + 2 + {0,1} + 3*[0,k], k >= 1",
        _m_t46_l7,
        lambda k: {_g5: 1, _g5t: 5 * k + 2, _g5mt: 5 * k + 5},
        (1, 2, 3),
    ))

    # ---- C2+C4 ----
    B.append(FamilyBranch(
        "T47", "L1", G24, "{y}", _m_singleton, _no_terms, (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T47", "L2", G24, "y + 2*ceil(k/3) + [0,k], k >= 1, k != 3",
        _m_interval_2ceil,
        _t47_l2_base,
        (1, 2, 4, 5, 6, 7),
    ))
    B.append(FamilyBranch(
        "T47", "L2-36", G24, "y + [3,6]",
        _m_i36,
        lambda k: _merge(_U1, _MU1, {_E2G: 2}),
        (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T47", "L2-odd", G24, "[2t+1, 5t+2], t >= 1 (no shift)",
        _m_t47_l2_odd,
        lambda k: _merge(_U1, _U3, _U4, _scaled(_U2, k - 1), _scaled(_MU2, k - 1)),
        (1, 2, 3),
        shifts=False,
    ))
    B.append(FamilyBranch(
        "T47", "L3", G24, "y + 2k + 2*[0,k], k >= 1",
        _m_t47_l3,
        lambda k: {_G: 4 * k, _MG: 4 * k},
        (1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T47", "L4", G24, "y + k + 1 + ({0} u [2,k+2]), k odd",
        _m_t47_l4,
        lambda k: _merge(_U1, _MU1, {_G: 2 * (k - 1), _MG: 2 * (k - 1)}),
        (1, 3, 5),
    ))
    B.append(FamilyBranch(
        "T47", "L5", G24, "y + k + 2 + ([0,k] u {k+2}), k >= 1",
        _m_t47_l5,
        _t47_l5_base,
        (1, 2, 3, 4),
    ))

    # ---- C2^4 ----
    B.append(FamilyBranch(
        "T48", "L1", G2_4, "{y}", _m_singleton, _no_terms, (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T48", "L2", G2_4, "y + 2k + 3*[0,k]",
        _m_ap3,
        lambda k: _scaled(_U, 2 * k),
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T48", "L3", G2_4, "y + ceil(2k/3) + [0,k], k >= 2, k != 3",
        _m_t48_l3_int,
        _c24_interval_base,
        (2, 4, 5, 6, 7, 8, 9, 10),
    ))
    B.append(FamilyBranch(
        "T48", "L3-23", G2_4, "y + [2,3]",
        _m_i23,
        lambda k: _c24_interval_base(1),
        (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T48", "L3-36", G2_4, "y + [3,6]",
        _m_i36,
        lambda k: _c24_interval_base(3),
        (0,), k_max=0,
    ))
    B.append(FamilyBranch(
        "T48", "L4", G2_4, "y + 2k + 2*[0,k]",
        _m_even_ap,
        lambda k: _scaled(_V, 2 * k),
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T48", "L5", G2_4, "y + k + 2 + ([0,k] u {k+2}), k >= 1",
        _m_t47_l5,
        _t48_l5_base,
        (1, 2, 3, 4),
    ))
    B.append(FamilyBranch(
        "T48", "L6", G2_4, "y + 2*ceil(k/3) + 2 + ({0} u [2,k+2]), k = 3 or k >= 5",
        _m_t48_l6,
        _t48_l6_base,
        (3, 5, 6, 7, 8),
    ))
    B.append(FamilyBranch(
        "T48", "L7a", G2_4, "y + 2k + 3 + {0,1,3} + 3*[0,k]",
        _m_ap3_013,
        lambda k: _merge(_scaled(_U, 2 * k + 1), _V, {_E4: 2, _E0: 2}),
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T48", "L7b", G2_4, "y + 2k + 4 + {0,1,3} + 3*[0,k] u {y+5k+8}",
        _m_t48_l7b,
        lambda k: _merge(_scaled(_U, 2 * k + 2), _V, {_E4: 2, _E0: 2}),
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T48", "L8a", G2_4, "y + 2k + 3 + {0,2,3} + 3*[0,k]",
        _m_ap3_023,
        lambda k: _merge(_scaled(_U, 2 * k + 2), _V),
        (0, 1, 2, 3),
    ))
    B.append(FamilyBranch(
        "T48", "L8b", G2_4, "y + 2k + 4 + {0,2,3} + 3*[0,k] u {y+5k+9}",
        _m_t48_l8b,
        lambda k: _merge(_scaled(_U, 2 * k + 3), _V),
        (0, 1, 2, 3),
    ))

    # ---- the universal intersection family ----
    B.append(FamilyBranch(
        "T36-INTERSECT", "", None, "y + 2k + [0,k] (every group of order >= 3)",
        _m_interval_2k3, None, (0, 1, 2, 3),
    ))

    return tuple(B)


REGISTRY: tuple[FamilyBranch, ...] = _build_registry()

# the groups with a complete description, in registry order
COVERED_GROUPS = tuple(dict.fromkeys(br.group for br in REGISTRY if br.group))

# y + 2k + [0,k], the sets of lengths common to every group of order >= 3
INTERSECTION = next(br for br in REGISTRY if br.family == "T36-INTERSECT")


def family_branches(group: FiniteAbelianGroup | None = None) -> tuple[FamilyBranch, ...]:
    if group is None:
        return REGISTRY
    found = tuple(br for br in REGISTRY if br.group == group)
    if not found:
        raise ValueError(f"no closed-form families are registered for {group}")
    return found


def match_family(group: FiniteAbelianGroup, lengths: Iterable[int]) -> list[FamilyMatch]:
    """All (family, branch, parameters) whose member equals the given set."""
    out: list[FamilyMatch] = []
    for br in family_branches(group):
        out.extend(br.matches(lengths))
    return out


def interval_criterion_c24(l1: int, l2: int) -> bool:
    """Whether [l1, l2] occurs as a length set over C2^4 (2 <= l1 <= l2)."""
    if not (2 <= l1 <= l2):
        raise ValueError("need 2 <= l1 <= l2")
    return 2 * l2 <= 5 * l1 and (l1, l2) != (2, 5)


def c24_interval_witness(l1: int, l2: int) -> Sequence:
    """Concrete sequence over C2^4 with L = [l1, l2]; requires the criterion.

    The witness of the first registry branch matching [l1, l2] (T48:L1 or an
    L3 branch).
    """
    if not interval_criterion_c24(l1, l2):
        raise ValueError(f"[{l1},{l2}] is not realizable over C2^4")
    for br in family_branches(G2_4):
        for m in br.matches(range(l1, l2 + 1)):
            return br.witness(m.y, m.k)
    raise AssertionError(f"[{l1},{l2}] meets the criterion but no C2^4 branch")


def intersection_witness(group: FiniteAbelianGroup, y: int, k: int) -> Sequence:
    """A sequence over the group realizing y + 2k + [0, k].

    Uses an element whose order is the smallest odd prime p dividing the
    exponent, g^{pk} (2g)^{pk}, when one exists, else a pair of independent
    involutions, else an element of order 4 (one of these exists in every
    group of order >= 3).
    """
    if group.order < 3:
        raise ValueError("needs a group of order at least 3")
    if k == 0:
        return Sequence.empty(group).with_zeros(y)
    # the least odd divisor > 1 of the exponent is its least odd prime factor
    odd_p = next(
        (p for p in range(3, group.exponent + 1, 2) if group.exponent % p == 0),
        None,
    )
    if odd_p is not None:
        g = next(x for x in group.elements if group.order_of(x) == odd_p)
        g2 = group.add(g, g)
        return Sequence.build(group, {g: odd_p * k, g2: odd_p * k}).with_zeros(y)
    involutions = [x for x in group.nonzero_elements if group.order_of(x) == 2]
    if len(involutions) >= 2:
        e, f = involutions[0], involutions[1]
        counts = {e: 2 * k, f: 2 * k, group.add(e, f): 2 * k}
        return Sequence.build(group, counts).with_zeros(y)
    g = next(x for x in group.elements if group.order_of(x) == 4)
    counts = {g: 2 * k, group.neg(g): 2 * k, group.add(g, g): 2}
    return Sequence.build(group, counts).with_zeros(y + k - 1)


# ---------------------------------------------------------------------------
# alternative presentations (for the stated equivalences)
# ---------------------------------------------------------------------------


def _members_from_branches(branches, bound: int) -> set[frozenset[int]]:
    return set().union(*(br.members_up_to(bound) for br in branches))


def family_members_up_to(
    group: FiniteAbelianGroup, bound: int
) -> set[frozenset[int]]:
    """Every member of every registered family of the group with max <= bound."""
    return _members_from_branches(family_branches(group), bound)


def _t41_interval_pair_form(bound: int) -> set[frozenset[int]]:
    """{[2k, l] : l in [2k, 5k]} u {[2k+1, l] : k >= 1, l in [2k+1, 5k+2]} u {{1}}."""
    out = {frozenset({1})}
    k = 0
    while 2 * k <= bound:
        for l in range(2 * k, min(5 * k, bound) + 1):
            out.add(_iv(2 * k, l))
        k += 1
    k = 1
    while 2 * k + 1 <= bound:
        for l in range(2 * k + 1, min(5 * k + 2, bound) + 1):
            out.add(_iv(2 * k + 1, l))
        k += 1
    return out


def _t47_l2_second_form(bound: int) -> set[frozenset[int]]:
    """{y + ceil(2k/3) + [0,k] : k != 1, 3} u {y+3+[0,3], y+2+[0,1]}."""
    out: set[frozenset[int]] = set()
    for y in range(bound + 1):
        if y + 6 <= bound:
            out.add(_iv(y + 3, y + 6))
        if y + 3 <= bound:
            out.add(_iv(y + 2, y + 3))
        k = 2
        while _ceil(2 * k, 3) + k <= bound - y:
            if k != 3:
                m = y + _ceil(2 * k, 3)
                out.add(_iv(m, m + k))
            k += 1
    return out


def _t48_l3_first_form(bound: int) -> set[frozenset[int]]:
    """Listed short intervals plus {y + [m, m+k] : k >= 6, m minimal with m+k <= 5m/2}."""
    out: set[frozenset[int]] = set()
    for y in range(bound + 1):
        for lo, hi in ((2, 3), (2, 4), (3, 6), (3, 7), (4, 9)):
            if y + hi <= bound:
                out.add(_iv(y + lo, y + hi))
        k = 6
        while True:
            m = _ceil(2 * k, 3)  # least m with m + k <= 5m/2
            if y + m + k > bound:
                break
            out.add(_iv(y + m, y + m + k))
            k += 1
    return out


# pair -> (family, branch prefix, the second presentation)
_EQUIVALENCES: dict[str, tuple[str, str, Callable[[int], set[frozenset[int]]]]] = {
    "T41": ("T41", "", _t41_interval_pair_form),
    "T47-L2": ("T47", "L2", _t47_l2_second_form),
    "T48-L3": ("T48", "L3", _t48_l3_first_form),
}


@dataclass(frozen=True)
class EquivalenceReport:
    pair: str
    bound: int
    equal: bool
    only_first: tuple[tuple[int, ...], ...]
    only_second: tuple[tuple[int, ...], ...]


PRESENTATION_BOUND = 30


def presentation_equivalence(pair: str) -> EquivalenceReport:
    """Compare two presentations of a family, member sets up to PRESENTATION_BOUND."""
    if pair not in _EQUIVALENCES:
        raise ValueError(
            f"unknown presentation pair {pair!r}; known: {sorted(_EQUIVALENCES)}"
        )
    family, prefix, second = _EQUIVALENCES[pair]
    branches = [
        br for br in REGISTRY if br.family == family and br.branch.startswith(prefix)
    ]
    sa = _members_from_branches(branches, PRESENTATION_BOUND)
    sb = second(PRESENTATION_BOUND)
    only_a = tuple(sorted(tuple(sorted(s)) for s in sa - sb))
    only_b = tuple(sorted(tuple(sorted(s)) for s in sb - sa))
    return EquivalenceReport(pair, PRESENTATION_BOUND, sa == sb, only_a, only_b)
