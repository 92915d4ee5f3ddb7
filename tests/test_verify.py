"""Golden verification reports.

The catalog targets take their groups, branches, family names and
presentation pairs from the family registry and their soundness bounds from
``default_bound``, and T36 takes its expected sets from the T36-INTERSECT
branch; these pinned reports show that nothing read off the registry changed
what a target checks.
"""

import pytest

from zerolen import Sequence, make_group, run_verification
from zerolen.verify import TARGETS, VerificationReport, _check_witnesses


def _report(target, bounds, checks):
    return {
        "target": target,
        "status": "pass",
        "bounds": bounds,
        "checks": checks,
        "counterexamples": [],
    }


GOLDEN = {
    "P33": _report(
        "P33",
        {"C2xC2": 20, "C2xC2xC2": 16, "C3": 20, "C4": 20},
        [
            "soundness C3 bound 20: 20 distinct sets, 0 unmatched",
            "soundness C2xC2 bound 20: 26 distinct sets, 0 unmatched",
            "soundness C4 bound 20: 39 distinct sets, 0 unmatched",
            "soundness C2xC2xC2 bound 16: 29 distinct sets, 0 unmatched",
            "completeness P33-C3C22/P33-C4/P33-C23: 145 witnesses, 0 mismatches",
        ],
    ),
    "T41": _report(
        "T41",
        {"C3xC3": 16},
        [
            "soundness C3xC3 bound 16: 23 distinct sets, 0 unmatched",
            "completeness T41: 40 witnesses, 0 mismatches",
            "presentation equivalence T41 bound 30: equal",
        ],
    ),
    "T46": _report(
        "T46",
        {"C5": 20},
        [
            "soundness C5 bound 20: 40 distinct sets, 0 unmatched",
            "completeness T46: 130 witnesses, 0 mismatches",
        ],
    ),
    "T47": _report(
        "T47",
        {"C2xC4": 16},
        [
            "soundness C2xC4 bound 16: 39 distinct sets, 0 unmatched",
            "completeness T47: 93 witnesses, 0 mismatches",
            "presentation equivalence T47-L2 bound 30: equal",
        ],
    ),
    "T48": _report(
        "T48",
        {"C2xC2xC2xC2": 12},
        [
            "soundness C2xC2xC2xC2 bound 12: 21 distinct sets, 0 unmatched",
            "completeness T48: 220 witnesses, 0 mismatches",
            "presentation equivalence T48-L3 bound 30: equal",
        ],
    ),
    "T36": _report(
        "T36",
        {"max": 9},
        [
            "base constructions p in {3,5}, k <= 5 verified",
            "intersection over 8 groups: 22 sets, expected 22",
        ],
    ),
    "C24INT": _report(
        "C24INT",
        {"max": 10},
        [
            "realized 36 admissible intervals up to 10",
            "[2,5] absent from the bounded system (bound 10)",
        ],
    ),
}


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_report_matches_golden(target):
    assert run_verification(target).as_dict() == GOLDEN[target]


def test_targets_come_in_order_and_are_all_pinned():
    assert TARGETS == ("P33", "T41", "T46", "T47", "T48", "T36", "C24INT")
    assert set(TARGETS) == set(GOLDEN)


def test_explicit_bound_zero_is_honoured():
    assert run_verification("T36", bound=0).as_dict() == _report(
        "T36",
        {"max": 0},
        [
            "base constructions p in {3,5}, k <= 5 verified",
            "intersection over 8 groups: 1 sets, expected 1",
        ],
    )


def test_witness_mismatch_detail():
    G = make_group([5])
    wit = Sequence.build(G, [((1,), 5), ((4,), 5)])  # L = [2, 5]
    report = VerificationReport("X", "pass", {})
    jobs = [(G, "ok", wit, (5, 2)), (G, "bad", wit, {2, 3})]
    assert _check_witnesses(report, "witness-mismatch", jobs) == 2
    assert [(c.kind, c.group, c.detail) for c in report.counterexamples] == [
        ("witness-mismatch", "C5", "bad: member=[2, 3] got=[2, 5]")
    ]
