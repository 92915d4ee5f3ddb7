import dataclasses
import hashlib

import pytest

from zerolen import (
    bounded_system,
    c24_interval_witness,
    engine_for,
    family_branches,
    intersection_witness,
    interval_criterion_c24,
    is_aamp,
    make_group,
    match_family,
    presentation_equivalence,
)
from zerolen.families import family_members_up_to


def test_match_examples():
    g5 = make_group([5])
    matches = match_family(g5, [2, 5])
    assert any(m.family == "T46" and m.branch == "L4" and (m.y, m.k) == (0, 1)
               for m in matches)
    assert match_family(g5, [2, 4])
    g16 = make_group([2, 2, 2, 2])
    assert any(m.branch.startswith("L3") for m in match_family(g16, range(4, 11)))
    assert not match_family(g16, [2, 5, 11])


def test_interval_criterion_examples():
    assert not interval_criterion_c24(2, 5)
    assert interval_criterion_c24(4, 10)
    assert not interval_criterion_c24(3, 8)
    assert interval_criterion_c24(2, 2)
    with pytest.raises(ValueError):
        interval_criterion_c24(1, 3)


def test_c24_interval_witnesses_small():
    eng = engine_for(make_group([2, 2, 2, 2]))
    for l1, l2 in ((2, 3), (2, 4), (3, 6), (3, 7), (4, 9), (4, 10), (5, 12)):
        wit = c24_interval_witness(l1, l2)
        assert eng.length_set(wit) == tuple(range(l1, l2 + 1))
    with pytest.raises(ValueError):
        c24_interval_witness(2, 5)


def test_intersection_witnesses_across_groups():
    # C17, C19 and C34 use the smallest odd prime factor of the exponent
    specs = ("3", "4", "2x2", "2x2x2", "5", "2x4", "3x3", "2x2x2x2", "17", "19", "34")
    for spec in specs:
        G = make_group([int(t) for t in spec.split("x")])
        eng = engine_for(G)
        for (y, k) in ((0, 1), (1, 2), (0, 3), (2, 0)):
            wit = intersection_witness(G, y, k)
            assert eng.length_set(wit) == tuple(range(y + 2 * k, y + 3 * k + 1))


def test_presentation_equivalences():
    for pair in ("T41", "T47-L2", "T48-L3"):
        rep = presentation_equivalence(pair)
        assert rep.bound == 30
        assert rep.equal, (pair, rep.only_first[:3], rep.only_second[:3])
    with pytest.raises(ValueError):
        presentation_equivalence("T99")


@pytest.mark.parametrize("spec", ["5", "2x2x2x2"])
def test_family_members_up_to_matches_brute_force(spec):
    # every (y, k) with k < 4 * bound: the k-walk's stop rule must lose nothing
    G = make_group([int(t) for t in spec.split("x")])
    bound = 20
    brute = set()
    for br in family_branches(G):
        for k in range(4 * bound):
            for y in range(bound + 1):
                m = br.try_member(y, k)
                if m is not None and max(m) <= bound:
                    brute.add(m)
    assert family_members_up_to(G, bound) == brute and len(brute) > 10


def test_unbounded_domains_have_no_long_gaps():
    # bases walks a branch without k_max until a base passes its top, so each
    # such branch must keep yielding bases: from its first k on, one in every
    # two consecutive k (below 200), and the first within k <= 5
    for br in family_branches():
        if br.k_max is not None:
            continue
        ks = [k for k in range(200) if br.member_fn(k) is not None]
        assert ks[0] <= 5, br.id
        assert all(b - a <= 2 for a, b in zip(ks, ks[1:])), br.id
        assert ks[-1] >= 198, br.id


def test_bases_stop_at_k_max():
    # a growing stand-in base, so a walk that ignored k_max would still end
    calls = []

    def counted(k):
        calls.append(k)
        return frozenset({k + 3})

    constant = [br for br in family_branches() if br.k_max == 0]
    assert len(constant) == 9
    for br in constant:
        calls.clear()
        probe = dataclasses.replace(br, member_fn=counted)
        assert list(probe.bases(100)) == [(0, frozenset({3}))], br.id
        assert calls == [0], br.id
        assert probe.try_member(0, 1) is None


def test_matching_the_c5_system_walks_few_bases():
    calls = []

    def counted(f):
        def member_fn(k):
            calls.append(k)
            return f(k)
        return member_fn

    G = make_group([5])
    branches = [
        dataclasses.replace(br, member_fn=counted(br.member_fn))
        for br in family_branches(G)
    ]
    system = bounded_system(G, None, 20)
    assert len(system) == 40
    for entry in system.entries:
        assert any(True for br in branches for _ in br.matches(entry.lengths))
    # k_max ends the constant branches' walks at once: 1,355 calls
    assert len(calls) <= 1400


def test_base_min_never_decreases():
    # FamilyBranch.bases stops at the first base past its top
    for br in family_branches():
        mins = [min(b) for b in map(br.member_fn, range(100)) if b is not None]
        assert mins == sorted(mins), br.id


def test_registry_digest():
    # a pinned digest of every branch's member and witness on a grid, so any
    # change to a formula, a construction or the shift rule shows here
    rows = []
    for br in family_branches():
        for k in range(25):
            for y in range(8):
                m = br.try_member(y, k)
                try:
                    w = br.witness(y, k).literal()
                except ValueError:
                    w = None
                rows.append((br.id, y, k, None if m is None else sorted(m), w))
    assert len(rows) == 7600
    assert sum(r[3] is not None for r in rows) == 5248
    assert sum(r[4] is not None for r in rows) == 5048
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "0e3bdc088a7228fa"


def test_family_members_are_aamps():
    # every member with min >= 2 is an AAMP with difference in {1,2,3}, bound <= 4
    for spec in ("5", "2x4", "3x3", "2x2x2x2"):
        G = make_group([int(t) for t in spec.split("x")])
        for member in family_members_up_to(G, 14):
            if min(member) < 2:
                continue
            assert any(
                is_aamp(member, d, M) is not None
                for d in (1, 2, 3)
                for M in range(5)
            ), sorted(member)


def test_every_branch_witness_matches_member_on_grid():
    for br in family_branches():
        if br.witness_fn is None:
            continue
        eng = engine_for(br.group)
        for k in br.sweep_ks[:3]:
            for y in (0, 2):
                if br.try_member(y, k) is None:
                    continue
                assert eng.length_set(br.witness(y, k)) == tuple(
                    sorted(br.member(y, k))
                ), (br.id, y, k)
