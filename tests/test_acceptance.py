"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All comparisons are exact; the stated bounds are pinned
here and shared through session fixtures.
"""

import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from zerolen import (
    NumericalMonoid,
    ProductMonoid,
    Sequence,
    bounded_intersection,
    bounded_system,
    c24_interval_witness,
    classify_c2c4,
    compare_systems,
    delta,
    delta_star,
    engine_for,
    enumerate_atoms,
    family_branches,
    interval_criterion_c24,
    match_family,
    observed_delta,
    parse_sequence,
    rho_k,
    verify_elasticity_gap,
    verify_thm57_case,
    y_L_bound,
)
from zerolen.families import COVERED_GROUPS

from conftest import ACCEPTANCE_BOUNDS
from oracles import naive_lengths


def report(num, ok, detail, start):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} ({time.time()-start:5.1f}s): {detail}"
    print(line)
    assert ok, line


def test_criterion_01_davenport_constants(groups):
    t0 = time.time()
    expected = {
        "C5": 5, "C24": 5, "C33": 5, "C2_4": 5,
        "C3": 3, "C4": 4, "C23": 4,
    }
    got = {name: enumerate_atoms(groups[name]).davenport for name in expected}
    report(1, got == expected, f"Davenport constants {got}", t0)


def test_criterion_02_c2c4_classification(groups):
    t0 = time.time()
    cls = classify_c2c4(enumerate_atoms(groups["C24"]))
    counts = cls.counts()
    ok = (
        cls.ok
        and sum(counts.values()) == 38
        and [counts[k] for k in ("S2_1", "S2_2", "S2_3")] == [2, 1, 2]
        and [counts[k] for k in ("S3_1", "S3_2", "S3_3")] == [1, 4, 4]
        and [counts[k] for k in ("S4_1", "S4_2", "S4_3", "S4_4")] == [4, 4, 4, 4]
        and counts["S5"] == 8
    )
    report(2, ok, f"38 atoms classified into the named classes: {counts}", t0)


def test_criterion_03_soundness_sweeps(groups, acceptance_systems):
    t0 = time.time()
    failures = []
    for name, system in acceptance_systems.items():
        G = groups[name]
        for entry in system.entries:
            if not match_family(G, entry.lengths):
                failures.append((name, entry.lengths))
    detail = "; ".join(
        f"{n}@{ACCEPTANCE_BOUNDS[n]}:{len(acceptance_systems[n])} sets"
        for n in acceptance_systems
    )
    report(3, not failures, f"zero unmatched sets [{detail}] {failures[:3]}", t0)


def test_criterion_04_completeness_sweeps():
    t0 = time.time()
    jobs = []
    for br in family_branches():
        if br.witness_fn is None:
            continue
        for k in br.sweep_ks:
            for y in range(5):
                if br.try_member(y, k) is not None:
                    jobs.append((br, y, k))

    bad = [
        (br.id, y, k)
        for br, y, k in jobs
        if engine_for(br.group).length_set(br.witness(y, k))
        != tuple(sorted(br.member(y, k)))
    ]
    report(4, not bad, f"{len(jobs)} witnesses realize their members {bad[:2]}", t0)


def test_criterion_05_elasticities(groups):
    t0 = time.time()
    results = {}
    ok = True
    for name, k, expected in (
        ("C5", 2, 5), ("C24", 2, 5), ("C33", 2, 5), ("C2_4", 2, 5),
        ("C5", 3, 6), ("C24", 3, 7), ("C2_4", 3, 7),
    ):
        cert = rho_k(groups[name], k)
        results[f"rho_{k}({name})"] = cert.value
        ok &= cert.value == expected and cert.exact and (
            cert.witness is None or k in cert.witness_lengths
        )
    report(5, ok, f"{results}", t0)


def test_criterion_06_distance_sets(acceptance_systems):
    t0 = time.time()
    got = {
        "C5": observed_delta(acceptance_systems["C5"]),
        "C24": observed_delta(acceptance_systems["C24"]),
        "C33": observed_delta(acceptance_systems["C33"]),
        "C2_4": observed_delta(acceptance_systems["C2_4"]),
    }
    want = {"C5": (1, 2, 3), "C24": (1, 2), "C33": (1,), "C2_4": (1, 2, 3)}
    report(6, got == want, f"observed distance sets {got}", t0)


def test_criterion_07_delta_star(groups):
    t0 = time.time()
    got24 = delta_star(groups["C2_4"], 12)
    got8 = delta_star(groups["C24"], 16)
    ok = got24 == (1, 2, 3) and got8 == (1, 2)
    report(7, ok, f"delta*(C2^4)={got24}, delta*(C2xC4)={got8}", t0)


def test_criterion_08_interval_criterion(groups, acceptance_systems):
    t0 = time.time()
    eng = engine_for(groups["C2_4"])
    realized = 0
    ok = True
    for l1 in range(2, 11):
        for l2 in range(l1, 11):
            if interval_criterion_c24(l1, l2):
                got = eng.length_set(c24_interval_witness(l1, l2))
                ok &= got == tuple(range(l1, l2 + 1))
                realized += 1
            else:
                try:
                    c24_interval_witness(l1, l2)
                    ok = False
                except ValueError:
                    pass
    no25 = (2, 3, 4, 5) not in acceptance_systems["C2_4"].sets and (
        (2, 5) in acceptance_systems["C2_4"].sets  # the gap set itself exists
    )
    ok &= no25
    report(8, ok, f"{realized} admissible intervals realized; [2,5] absent", t0)


def test_criterion_09_intersection(groups):
    t0 = time.time()
    ok = True
    for name, p in (("C3", 3), ("C5", 5)):
        G = groups[name]
        eng = engine_for(G)
        g = next(x for x in G.elements if G.order_of(x) == p)
        for k in range(1, 6):
            B = Sequence.build(G, {g: p * k, G.add(g, g): p * k})
            ok &= eng.length_set(B) == tuple(range(2 * k, 3 * k + 1))
    inter = bounded_intersection(COVERED_GROUPS, max_value=9)
    want = {
        tuple(range(y + 2 * k, y + 3 * k + 1))
        for k in range(0, 4)
        for y in range(0, 10 - 3 * k)
    }
    ok &= set(inter.sets) == want and not inter.unconfirmed
    report(9, ok, f"intersection of 8 systems = {len(inter.sets)} family members", t0)


def test_criterion_10_bounded_inclusions(groups):
    t0 = time.time()
    s4 = bounded_system(groups["C4"], groups["C4"].elements, 16)
    s23 = bounded_system(groups["C23"], groups["C23"].elements, 16)
    rep = compare_systems(s4, s23)
    strict = rep.a_in_b.holds is True and rep.b_in_a.holds is False and bool(
        rep.b_in_a.missing_certified
    )
    s5 = bounded_system(groups["C5"], groups["C5"].elements, 20)
    s24 = bounded_system(groups["C24"], groups["C24"].elements, 16)
    rep2 = compare_systems(s5, s24)
    not_incl = rep2.a_in_b.holds is False and (2, 5) in rep2.a_in_b.missing_certified
    report(
        10,
        strict and not_incl,
        f"C4 < C2^3 strictly (witness {rep.b_in_a.missing_certified[0]}); "
        f"C5 not in C2xC4 (witness (2,5))",
        t0,
    )


def test_criterion_11_numerical_monoids():
    t0 = time.time()
    ok = True
    for gens in ([2, 3], [2, 5], [3, 4, 5]):
        H = NumericalMonoid(gens)
        best = Fraction(0)
        distances = set()
        for a in range(1, 201):
            if not H.contains(a):
                continue
            L = H.length_set(a)
            best = max(best, Fraction(L[-1], L[0]))
            distances.update(delta(L))
        ok &= best <= H.elasticity()
        for k in (1, 2):
            L = H.length_set(H.generators[0] * H.generators[-1] * k)
            ok &= Fraction(L[-1], L[0]) == H.elasticity()
        if distances:
            import math

            g = 0
            for d in distances:
                g = math.gcd(g, d)
            ok &= g == H.min_delta()
    gap23 = verify_elasticity_gap(NumericalMonoid([2, 3]), 200)
    gap25 = verify_elasticity_gap(NumericalMonoid([2, 5]), 200)
    ok &= gap23.ok and gap25.ok
    report(
        11,
        ok,
        f"formulas match enumeration to 200; gaps beta={gap23.gap.beta},"
        f" {gap25.gap.beta} with zero counterexamples",
        t0,
    )


def test_criterion_12_y_l_bound():
    t0 = time.time()
    H = NumericalMonoid([2, 3])
    rep = y_L_bound(ProductMonoid([H, H]), [2, 3], search_bound=120, window=10)
    ok = rep.y_l == 16 and rep.ok
    report(12, ok, f"y_L=16; no shifted {{2,3}} for y in [16,26], components<=120", t0)


def test_criterion_13_thm57_b2():
    t0 = time.time()
    rep = verify_thm57_case(NumericalMonoid([2, 3]), "b2", 20)
    neg1 = verify_thm57_case(NumericalMonoid([2, 5]), "b2", 20)
    neg2 = verify_thm57_case(NumericalMonoid([2, 3]), "b3", 20)
    ok = (
        rep.status == "pass"
        and neg1.status == "hypothesis-not-met"
        and neg2.status == "hypothesis-not-met"
    )
    report(13, ok, "F(P) x <2,3> bounded system equals the y+2k+[0,k] family", t0)


def test_criterion_14_property_suites(groups):
    t0 = time.time()
    ok = True

    # sumset containment and negation invariance
    g24 = groups["C24"]
    eng = engine_for(g24)
    seqs = [
        parse_sequence(g24, t)
        for t in ("(0,1)^4", "(0,1)*(0,3)", "(1,0)^2", "(1,0)*(0,1)^3*(1,1)")
    ]
    for a, b in iproduct(seqs, repeat=2):
        La, Lb, Lab = eng.length_set(a), eng.length_set(b), eng.length_set(a * b)
        ok &= {x + y for x in La for y in Lb} <= set(Lab)
    for s in seqs:
        ok &= eng.length_set(s) == eng.length_set(s.negate())

    # full-subgroup support forces an interval
    g22 = groups["C22"]
    e22 = engine_for(g22)
    for combo in iproduct(range(4), repeat=3):
        s = Sequence.build(g22, list(zip(g22.nonzero_elements, combo)))
        if s.length and s.is_zero_sum and len(s.support) == 3:
            Ls = e22.length_set(s)
            ok &= Ls == tuple(range(Ls[0], Ls[-1] + 1))

    # max-length via a length-2 atom, and the skipped penultimate length
    g5 = groups["C5"]
    e5 = engine_for(g5)
    B = parse_sequence(g5, "(1)^6*(4)^6")
    ok &= e5.max_length_with_length2_atom(B, parse_sequence(g5, "(1)*(4)")) == 6
    B2 = parse_sequence(g24, "(0,1)^4*(0,3)^4*(1,0)^2")
    L2 = eng.length_set(B2)
    ok &= L2[-1] - 1 not in L2

    # g-norm additivity
    gen = (1,)
    parts = [parse_sequence(g5, t) for t in ("(1)^5", "(2)^5", "(1)*(4)")]
    total = parts[0] * parts[1] * parts[2]
    ok &= total.g_norm(gen) == sum(p.g_norm(gen) for p in parts)

    # memoized engine vs exhaustive oracle on every zero-sum B with |B| <= 10
    # over the groups of order <= 8
    def all_zero_sum(G, cap):
        elems = G.nonzero_elements
        stack = [(0, [0] * len(elems), 0)]
        while stack:
            idx, counts, size = stack.pop()
            if size:
                s = Sequence.build(G, list(zip(elems, counts)))
                if s.is_zero_sum:
                    yield s
            for i in range(idx, len(elems)):
                if size < cap:
                    nxt = counts.copy()
                    nxt[i] += 1
                    stack.append((i, nxt, size + 1))

    checked = 0
    for name in ("C3", "C4", "C22", "C5", "C23", "C24"):
        G = groups[name]
        engG = engine_for(G)
        for s in all_zero_sum(G, 10):
            ok &= engG.length_set(s) == naive_lengths(G, s)
            checked += 1
    assert checked > 4000

    report(14, ok, "sumsets, negation, interval/max-length/skipped-length laws, "
                   "g-norm additivity, oracle equality", t0)
