"""End-to-end verification runs: soundness and completeness per catalog.

A catalog target is a registry catalog (``FamilyBranch.catalog``) and checks
the groups and branches of its families.  A soundness run enumerates every
zero-sum sequence over a group's nonzero elements up to the bound, by default
``system.default_bound``, and demands each distinct length set match a
registered family; a completeness run sweeps family parameters and demands
each witness sequence realize its member exactly.  Reports name the bounds
the library ran at and are deterministic given them.  One table maps each
target to its runner, and ``TARGETS`` lists the table's keys in order.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional

from .budget import global_nodes
from .families import (
    _EQUIVALENCES,
    COVERED_GROUPS,
    G2_4,
    G3,
    G5,
    INTERSECTION,
    REGISTRY,
    FamilyBranch,
    c24_interval_witness,
    intersection_witness,
    interval_criterion_c24,
    match_family,
    presentation_equivalence,
)
from .groups import FiniteAbelianGroup
from .lengths import engine_for
from .system import bounded_intersection, bounded_system, check_bound, size_bound

@dataclass(frozen=True)
class Counterexample:
    kind: str
    group: str
    detail: str
    witness: str = ""


@dataclass
class VerificationReport:
    target: str
    status: str  # "pass" | "fail"
    bounds: dict[str, int]
    checks: list[str] = field(default_factory=list)
    counterexamples: list[Counterexample] = field(default_factory=list)
    seconds: float = 0.0
    nodes: int = 0

    def as_dict(self, with_time: bool = False) -> dict:
        out = {
            "target": self.target,
            "status": self.status,
            "bounds": dict(sorted(self.bounds.items())),
            "checks": list(self.checks),
            "counterexamples": [asdict(c) for c in self.counterexamples],
        }
        if with_time:
            out["seconds"] = round(self.seconds, 3)
            out["nodes"] = self.nodes
        return out


def soundness_check(
    group: FiniteAbelianGroup, bound: Optional[int], report: VerificationReport
) -> None:
    system = bounded_system(group, None, bound)
    report.bounds[group.label] = system.bound
    unmatched = 0
    for entry in system.entries:
        if not match_family(group, entry.lengths):
            unmatched += 1
            report.counterexamples.append(
                Counterexample(
                    "unmatched-length-set",
                    group.label,
                    f"L={list(entry.lengths)}",
                    entry.witness.literal(),
                )
            )
    report.checks.append(
        f"soundness {group.label} bound {system.bound}: {len(system)} distinct sets, "
        f"{unmatched} unmatched"
    )


def _check_witnesses(report: VerificationReport, kind: str, jobs: Iterable) -> int:
    """Check L(witness) == expected for each (group, label, witness, expected).

    Each mismatch becomes a ``kind`` counterexample with the detail
    ``<label>: member=[...] got=[...]``.  Returns the number of jobs checked.
    """
    checked = 0
    for group, label, wit, expected in jobs:
        checked += 1
        got = engine_for(group).length_set(wit)
        want = tuple(sorted(expected))
        if got != want:
            report.counterexamples.append(
                Counterexample(
                    kind,
                    group.label,
                    f"{label}: member={list(want)} got={list(got)}",
                    wit.literal(),
                )
            )
    return checked


def completeness_check(
    branches: tuple[FamilyBranch, ...], report: VerificationReport
) -> None:
    """Every branch's witness at each sweep k and y <= 4 realizes its member."""
    families = tuple(dict.fromkeys(br.family for br in branches))
    jobs = (
        (br.group, f"{br.id}(y={y},k={k})", br.witness(y, k), m)
        for br in branches
        for k in br.sweep_ks
        for y in range(5)
        if (m := br.try_member(y, k)) is not None
    )
    before = len(report.counterexamples)
    checked = _check_witnesses(report, "witness-mismatch", jobs)
    bad = len(report.counterexamples) - before
    report.checks.append(
        f"completeness {'/'.join(families)}: {checked} witnesses, {bad} mismatches"
    )


def _verify_catalog(target: str, bound: Optional[int]) -> VerificationReport:
    report = VerificationReport(target, "pass", {})
    branches = tuple(br for br in REGISTRY if br.catalog == target)
    for group in dict.fromkeys(br.group for br in branches):
        soundness_check(group, bound, report)
    completeness_check(branches, report)
    families = {br.family for br in branches}
    for pair in (p for p, (fam, _, _) in _EQUIVALENCES.items() if fam in families):
        eq = presentation_equivalence(pair)
        report.checks.append(
            f"presentation equivalence {eq.pair} bound {eq.bound}: "
            f"{'equal' if eq.equal else 'DIFFER'}"
        )
        if not eq.equal:
            report.counterexamples.append(
                Counterexample(
                    "presentation-mismatch",
                    "",
                    f"only in first: {eq.only_first[:3]}, "
                    f"only in second: {eq.only_second[:3]}",
                )
            )
    return report


def _verify_t36(bound: Optional[int]) -> VerificationReport:
    report = VerificationReport("T36", "pass", {})
    jobs = (
        (g, f"p={p} k={k}", intersection_witness(g, 0, k), INTERSECTION.member(0, k))
        for p, g in ((3, G3), (5, G5))
        for k in range(1, 6)
    )
    _check_witnesses(report, "construction-mismatch", jobs)
    report.checks.append("base constructions p in {3,5}, k <= 5 verified")

    inter = bounded_intersection(COVERED_GROUPS, max_value=bound)
    report.bounds["max"] = inter.max_value
    want = {tuple(sorted(m)) for m in INTERSECTION.members_up_to(inter.max_value)}
    got = set(inter.sets)
    for L in sorted(want - got):
        report.counterexamples.append(
            Counterexample("missing-from-intersection", "", f"L={list(L)}")
        )
    for L in sorted(got - want):
        report.counterexamples.append(
            Counterexample("extra-in-intersection", "", f"L={list(L)}")
        )
    for L, gk in inter.unconfirmed:
        report.counterexamples.append(
            Counterexample("unconfirmed-membership", str(gk), f"L={list(L)}")
        )
    report.checks.append(
        f"intersection over {len(COVERED_GROUPS)} groups: {len(got)} sets, "
        f"expected {len(want)}"
    )
    return report


def _verify_c24int(bound: Optional[int]) -> VerificationReport:
    hi = 10 if bound is None else bound
    report = VerificationReport("C24INT", "pass", {"max": hi})
    jobs = (
        (G2_4, f"[{l1},{l2}]", c24_interval_witness(l1, l2), range(l1, l2 + 1))
        for l1 in range(2, hi + 1)
        for l2 in range(l1, hi + 1)
        if interval_criterion_c24(l1, l2)
    )
    realized = _check_witnesses(report, "interval-witness-mismatch", jobs)
    report.checks.append(f"realized {realized} admissible intervals up to {hi}")

    system = bounded_system(G2_4, None, size_bound(G2_4, 2))
    if (2, 3, 4, 5) in system.sets:
        report.counterexamples.append(
            Counterexample("forbidden-interval", G2_4.label, "[2,5] realized")
        )
    report.checks.append(f"[2,5] absent from the bounded system (bound {system.bound})")
    return report


_RUNNERS: dict[str, Callable[[Optional[int]], VerificationReport]] = {
    **{
        catalog: partial(_verify_catalog, catalog)
        for catalog in dict.fromkeys(br.catalog for br in REGISTRY if br.group)
    },
    "T36": _verify_t36,
    "C24INT": _verify_c24int,
}
TARGETS = tuple(_RUNNERS)


def run_verification(target: str, bound: Optional[int] = None) -> VerificationReport:
    """Run one verification target; status reflects the counterexample list."""
    if bound is not None:
        check_bound(bound)
    runner = _RUNNERS.get(target)
    if runner is None:
        raise ValueError(f"unknown verify target {target!r}; known: {TARGETS}")
    start = time.perf_counter()
    nodes_before = global_nodes()
    report = runner(bound)
    report.status = "pass" if not report.counterexamples else "fail"
    report.seconds = time.perf_counter() - start
    report.nodes = global_nodes() - nodes_before
    return report
