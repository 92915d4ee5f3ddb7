"""The four workloads: seeded inputs, expected values, and the checked calls.

``WORKLOADS[name](seed)`` builds every input and fixes the expected value of
every op before any timing starts; it returns ``run(tracer)``, the timed
closed loop of calls into zerolen's public API.  Only generated inputs reach
the program: the seed itself never does.

Expected values are the paper's where it states them (Davenport constants,
the C2xC4 atom counts 5/9/16/8, Delta*(C2^4) = (1, 2, 3), rho_3(C2^4) = 7,
y_L = 16, the closed-form C5 ladder and the family members) and otherwise the
values recorded at the commit that introduced this benchmark (atom counts,
distinct-set counts and a digest of each bounded system).
"""

from __future__ import annotations

import hashlib
import itertools
import random

import zerolen

# group name -> invariant factors
GROUPS = {
    "C3": (3,),
    "C22": (2, 2),
    "C4": (4,),
    "C23": (2, 2, 2),
    "C33": (3, 3),
    "C5": (5,),
    "C24": (2, 4),
    "C2_4": (2, 2, 2, 2),
}

# soundness bounds of every `zerolen verify` catalog target, in target order
SOUNDNESS_BOUNDS = (
    ("C3", 18), ("C22", 18), ("C4", 16), ("C23", 16),  # P33
    ("C33", 16),  # T41
    ("C5", 20),  # T46
    ("C24", 16),  # T47
    ("C2_4", 12),  # T48
)

DAVENPORT = {"C3": 3, "C22": 3, "C4": 4, "C23": 4, "C33": 5, "C5": 5, "C24": 5, "C2_4": 5}

# atoms per length; C24 is the paper's 5/9/16/8
ATOM_COUNTS = {
    "C3": {2: 1, 3: 2},
    "C22": {2: 3, 3: 1},
    "C4": {2: 2, 3: 2, 4: 2},
    "C23": {2: 7, 3: 7, 4: 7},
    "C33": {2: 4, 3: 16, 4: 24, 5: 24},
    "C5": {2: 2, 3: 4, 4: 4, 5: 4},
    "C24": {2: 5, 3: 9, 4: 16, 5: 8},
    "C2_4": {2: 15, 3: 35, 4: 105, 5: 168},
}

# (distinct length sets, digest of the sorted sets) at the soundness bound
SYSTEMS = {
    "C3": (16, "3235625153484a63"),
    "C22": (22, "f10c13bf93495f09"),
    "C4": (26, "c43e420c89d5958a"),
    "C23": (29, "6f58a4663c8a72eb"),
    "C33": (23, "f2f4601f989a3a8b"),
    "C5": (40, "18c7d57241102e57"),
    "C24": (39, "6b22f291df4c01ee"),
    "C2_4": (21, "7e49e85b11936e3f"),
}

DELTA_STAR = {"C23": (1, 2), "C5": (1, 3), "C24": (1, 2), "C33": (1,), "C2_4": (1, 2, 3)}

RHO_K = {
    ("C5", 2): 5, ("C5", 3): 6,
    ("C24", 2): 5, ("C24", 3): 7,
    ("C33", 2): 5, ("C33", 3): 7,
    ("C2_4", 2): 5, ("C2_4", 3): 7,
}

LADDER = (50, 100, 200, 400)  # ascending on one engine; n = 400 overflows the recursion today


def ladder_op(n: int) -> str:
    return f"ladder:C5(1)^{5 * n}(4)^{5 * n}"


# ops that may raise without making the run incorrect: the n = 400 ladder
# raises RecursionError at the commit that added this benchmark; it still
# counts as a failed op
KNOWN_DEFECTS = frozenset({ladder_op(400)})
RANDOM_GROUPS = ("C5", "C33", "C24", "C23", "C2_4")
RANDOM_PER_GROUP = 12
RANDOM_LENGTH = (12, 26)
RANDOM_SUPPORT = (2, 6)

GAP_MONOIDS = (((2, 3), 5000), ((2, 5), 5000), ((3, 4, 5), 5000))
SEEDED_GAP_BOUND = 4000
# y_L = |L| * sum of M(a_i); M = 4 for <2,3>, so 16 for two factors, 24 for three
Y_L_CASES = ((2, 160, 16), (3, 40, 24))
THM57_CASES = (((2, 3), "b2", "pass"), ((2, 5), "b2", "hypothesis-not-met"),
               ((2, 3), "b3", "hypothesis-not-met"))

def digest(length_sets) -> str:
    return hashlib.sha256(repr(tuple(length_sets)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# seeded inputs (plain data, no zerolen objects)
# ---------------------------------------------------------------------------


def _nonzero(factors):
    return [e for e in itertools.product(*(range(n) for n in factors)) if any(e)]


def random_sequences(seed: int) -> list[tuple[str, tuple]]:
    """Zero-sum sequences over nonzero elements, as (group, ((element, mult), ...))."""
    rng = random.Random(f"sequences-{seed}")
    out = []
    for name in RANDOM_GROUPS:
        factors = GROUPS[name]
        elems = _nonzero(factors)
        for _ in range(RANDOM_PER_GROUP):
            length = rng.randint(*RANDOM_LENGTH)
            support = rng.sample(elems, rng.randint(RANDOM_SUPPORT[0], min(RANDOM_SUPPORT[1], len(elems))))
            counts = dict.fromkeys(support, 0)
            for _ in range(length - 1):
                counts[rng.choice(support)] += 1
            total = [0] * len(factors)
            for e, m in counts.items():
                total = [(t + m * c) % n for t, c, n in zip(total, e, factors)]
            closing = tuple((-t) % n for t, n in zip(total, factors))
            if any(closing):
                counts[closing] = counts.get(closing, 0) + 1
            out.append((name, tuple(sorted((e, m) for e, m in counts.items() if m))))
    return out


def _member_set(gens, bound):
    """Members of <gens> in [0, bound] by plain reachability (the benchmark's own oracle)."""
    reach = [False] * (bound + 1)
    reach[0] = True
    for v in range(1, bound + 1):
        reach[v] = any(v >= g and reach[v - g] for g in gens)
    return reach


def _minimal(gens) -> bool:
    return all(not _member_set([h for h in gens if h != g], g)[g] for g in gens)


def random_monoids(seed: int, count: int = 2) -> list[tuple[int, int, int]]:
    """Minimal numerical monoids <7, b, c> with 7 < b < c < 21.

    The smallest generator is fixed because the gap check's cost grows with
    bound^2 / n1; so the seed changes which monoids are checked, not how much
    work that takes.
    """
    rng = random.Random(f"monoids-{seed}")
    out = []
    while len(out) < count:
        b, c = sorted(rng.sample(range(8, 21), 2))
        gens = (7, b, c)
        if _minimal(gens) and gens not in out:
            out.append(gens)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _group(name):
    return zerolen.make_group(GROUPS[name])


def soundness(seed: int):
    del seed  # the catalog targets fix every input
    cases = [(name, _group(name), bound) for name, bound in SOUNDNESS_BOUNDS]

    def run(t) -> None:
        for name, g, bound in cases:
            with t.query():  # one query: the soundness certificate of one group
                group_certificate(t, name, g, bound)

    def group_certificate(t, name, g, bound) -> None:
        catalog = t.op(
            f"atoms:{name}",
            lambda: t.call("atoms.enumerate_atoms", zerolen.enumerate_atoms, g),
            lambda c: c.davenport == DAVENPORT[name] and c.counts() == ATOM_COUNTS[name],
        )
        if catalog is not None:
            t.count("atoms.atoms_total", len(catalog))
        system = t.op(
            f"system:{name}@{bound}",
            lambda: t.call("system.bounded_system", zerolen.bounded_system, g, None, bound),
            lambda s: (len(s), digest(s.length_sets())) == SYSTEMS[name],
        )
        if system is None:
            return
        t.count("system.distinct_sets", len(system))
        for entry in system.entries:
            _match(t, f"match:{name}:{entry.lengths}", g, entry.lengths)

    return run


def _query(t, name, fn, *args, engine=None):
    """A layer call that is also one query of the workload."""
    with t.query():
        return t.call(name, fn, *args, engine=engine)


def _match(t, op_id, g, lengths):
    found = t.op(
        op_id,
        lambda: t.call("families.match_family", zerolen.match_family, g, lengths),
        bool,
    )
    if found:
        t.count("families.matched")


def invariants(seed: int):
    del seed
    bounds = dict(SOUNDNESS_BOUNDS)
    groups = {name: _group(name) for name in GROUPS}

    def rho_ok(cert, k, want):
        return cert.value == want and cert.exact and (
            cert.witness_lengths is None
            or (k in cert.witness_lengths and max(cert.witness_lengths) == want)
        )

    def run(t) -> None:
        for name, want in DELTA_STAR.items():
            t.op(
                f"delta_star:{name}@{bounds[name]}",
                lambda: _query(t, "system.delta_star", zerolen.delta_star, groups[name], bounds[name]),
                lambda got: got == want,
            )
        for (name, k), want in RHO_K.items():
            cert = t.op(
                f"rho_{k}:{name}",
                lambda: _query(t, "system.rho_k", zerolen.rho_k, groups[name], k),
                lambda c: rho_ok(c, k, want),
            )
            if cert is not None and cert.method == "witness":
                t.count("system.rho_k.witness_route")

    return run


def witness(seed: int):
    # completeness: every branch with a witness, each sweep k, y <= 4
    jobs = []
    for br in zerolen.family_branches():
        if br.witness_fn is None:
            continue
        for k in br.sweep_ks:
            for y in range(5):
                if br.try_member(y, k) is not None:
                    jobs.append((br, y, k, tuple(sorted(br.member(y, k)))))
    intervals = [
        (l1, l2)
        for l1 in range(2, 11)
        for l2 in range(l1, 11)
        if zerolen.interval_criterion_c24(l1, l2)
    ]
    c5, c2_4 = _group("C5"), _group("C2_4")
    one, four = (1,), (4,)
    ladder = [
        (n, zerolen.Sequence.build(c5, {one: 5 * n, four: 5 * n}), tuple(range(2 * n, 5 * n + 1, 3)))
        for n in LADDER
    ]
    groups = {name: _group(name) for name in RANDOM_GROUPS}
    randoms = [
        (i, name, zerolen.Sequence.build(groups[name], items))
        for i, (name, items) in enumerate(random_sequences(seed))
    ]

    def query(t, g, seq):
        engine = zerolen.engine_for(g)
        return _query(t, "lengths.length_set", engine.length_set, seq, engine=engine)

    def run(t) -> None:
        for br, y, k, member in jobs:
            t.op(
                f"member:{br.id}(y={y},k={k})",
                lambda: query(t, br.group, t.call("families.witness", br.witness, y, k)),
                lambda got: got == member,
            )
        for l1, l2 in intervals:
            t.op(
                f"interval:C2_4[{l1},{l2}]",
                lambda: query(t, c2_4, t.call("families.witness", zerolen.c24_interval_witness, l1, l2)),
                lambda got: got == tuple(range(l1, l2 + 1)),
            )
        for n, seq, want in ladder:
            t.op(ladder_op(n), lambda: query(t, c5, seq), lambda got: got == want)
        for i, name, seq in randoms:
            g = groups[name]
            got = t.op(
                f"random:{name}#{i}",
                lambda: query(t, g, seq),
                lambda L: -(-seq.length // DAVENPORT[name]) <= L[0] and L[-1] <= seq.length // 2,
            )
            if got is not None:
                _match(t, f"random-match:{name}#{i}", g, got)

    return run


def numerical(seed: int):
    gap_cases = list(GAP_MONOIDS) + [(gens, SEEDED_GAP_BOUND) for gens in random_monoids(seed)]
    gap_expected = {
        (gens, bound): sum(_member_set(gens, bound)) - 1 for gens, bound in gap_cases
    }
    members_23 = {sb: sum(_member_set((2, 3), sb)) for _f, sb, _y in Y_L_CASES}

    def gap(gens, bound):
        return zerolen.verify_elasticity_gap(zerolen.NumericalMonoid(gens), bound)

    def y_l(factors, search):
        product = zerolen.ProductMonoid([zerolen.NumericalMonoid((2, 3)) for _ in range(factors)])
        return zerolen.y_L_bound(product, (2, 3), search, 10)

    def thm57(gens, case):
        return zerolen.verify_thm57_case(zerolen.NumericalMonoid(gens), case, 20)

    def run(t) -> None:
        for gens, bound in gap_cases:
            want = gap_expected[(gens, bound)]
            rep = t.op(
                f"gap:<{','.join(map(str, gens))}>@{bound}",
                lambda: _query(t, "numerical.verify_elasticity_gap", gap, gens, bound),
                lambda r: r.ok and r.checked == want,
            )
            if rep is not None:
                t.count("numerical.verify_elasticity_gap.checked", rep.checked)
        for factors, search, want in Y_L_CASES:
            rep = t.op(
                f"y_L:<2,3>^{factors}@{search}",
                lambda: _query(t, "numerical.y_L_bound", y_l, factors, search),
                lambda r: r.y_l == want and r.ok,
            )
            if rep is not None:
                t.count("numerical.y_L_bound.combos", members_23[search] ** factors)
        for gens, case, want in THM57_CASES:
            t.op(
                f"thm57:{case}<{','.join(map(str, gens))}>",
                lambda: _query(t, "numerical.verify_thm57_case", thm57, gens, case),
                lambda r: r.status == want,
            )

    return run


WORKLOADS = {
    "soundness": soundness,
    "invariants": invariants,
    "witness": witness,
    "numerical": numerical,
}
