import tracemalloc
from itertools import product as iproduct

import pytest

import zerolen.groups
from zerolen import (
    LengthEngine,
    Sequence,
    bounded_system,
    compare_systems,
    delta_star,
    engine_for,
    enumerate_atoms,
    make_group,
    observed_delta,
    rho_k,
)
from zerolen.lengths import mask_to_lengths, orbit_sweep, packed_sweep
from zerolen.system import _delta_star_from, _rho_k_by_witness, _system_from

from oracles import (
    naive_lengths,
    naive_orbit_levels,
    plain_sweep_delta_star,
    plain_sweep_least_distance,
)


def _bounded_sweep(G, bound):
    return packed_sweep(G, G.nonzero_elements, bound)


def test_bounded_system_examples():
    g3 = make_group([3])
    sys6 = bounded_system(g3, None, 6)
    assert (2, 3) in sys6
    assert sys6.length_sets() == ((0,), (1,), (2,), (2, 3))
    g5 = make_group([5])
    assert (2, 5) in bounded_system(g5, None, 10)
    assert bounded_system(g5, None, 0).length_sets() == ((0,),)


def test_entries_carry_real_witnesses():
    g24 = make_group([2, 4])
    system = bounded_system(g24, None, 10)
    eng = engine_for(g24)
    for entry in system.entries:
        assert entry.witness.length == entry.min_length
        assert eng.length_set(entry.witness) == entry.lengths


def test_monotone_in_bound():
    g5 = make_group([5])
    small = set(bounded_system(g5, None, 10).length_sets())
    large = set(bounded_system(g5, None, 14).length_sets())
    assert small <= large


def test_bounded_system_is_over_g_or_its_nonzero_elements():
    g24 = make_group([2, 4])
    for subset in ([(0, 1), (0, 3)], g24.nonzero_elements[1:], g24.elements[:-1]):
        with pytest.raises(ValueError):
            bounded_system(g24, subset, 12)
    assert bounded_system(g24, g24.nonzero_elements, 12) == bounded_system(
        g24, None, 12
    )


def test_a_positional_bound_is_refused_by_name():
    g5 = make_group([5])
    with pytest.raises(TypeError, match=r"subset.*bound=20"):
        bounded_system(g5, 20)
    assert bounded_system(g5, None, 10) == bounded_system(g5, bound=10)


def test_atom_dichotomy():
    g24 = make_group([2, 4])
    for L in bounded_system(g24, None, 12).length_sets():
        if 1 in L:
            assert L == (1,)


def test_with_zero_subsets_shift():
    g3 = make_group([3])
    sys_z = bounded_system(g3, g3.elements, 8)
    assert (3, 4) in sys_z  # 1 + {2,3}
    assert (5,) in sys_z


def test_sweep_masks_agree_with_engine():
    # every state of a bounded sweep against the exhaustive factorization
    # search of the test oracle
    G = make_group([2, 2])
    layout, levels = _bounded_sweep(G, 10)
    checked = 0
    for level in levels:
        for state, mask in level.items():
            seq = layout.unpack(state)
            assert naive_lengths(G, seq) == mask_to_lengths(mask)
            checked += 1
    assert checked > 50


# the sweep bound per group; C5 and C3xC3 bring closing atoms that hold
# their pivot element 5 and 3 times
DESCENT_BOUNDS = {(2, 4): 12, (2, 2, 2): 12, (5,): 20, (3, 3): 10}


@pytest.mark.parametrize("factors", [[2, 4], [2, 2, 2], [5], [3, 3]])
def test_engine_descent_matches_the_upward_sweep(factors):
    # past the naive oracle's |B| <= 10: the engine's descent from each state
    # against the mask the upward sweep reached it with
    G = make_group(factors)
    layout, levels = _bounded_sweep(G, DESCENT_BOUNDS[tuple(factors)])
    engine = LengthEngine(G)
    checked = 0
    for level in levels:
        for state, mask in level.items():
            assert engine.length_set(layout.unpack(state)) == mask_to_lengths(mask)
            checked += 1
    assert checked > 2000


def test_support_key_matches_unpacked_support():
    G = make_group([2, 4])
    layout, levels = _bounded_sweep(G, 8)
    keys = {}
    checked = 0
    for level in levels:
        for state in level:
            support = layout.unpack(state).support
            indices = sum(1 << G.nonzero_elements.index(g) for g in support)
            key = layout.support_key(state)
            vector = layout.key_vector(key)
            assert sum(b << i for i, b in enumerate(vector)) == indices
            assert keys.setdefault(key, support) == support
            checked += 1
    # every subset of the support occurs, the empty one included
    assert checked > 500 and len(keys) == 2 ** len(G.nonzero_elements)


def test_observed_delta_values(acceptance_systems):
    assert observed_delta(acceptance_systems["C5"]) == (1, 2, 3)
    assert observed_delta(acceptance_systems["C24"]) == (1, 2)
    assert observed_delta(acceptance_systems["C33"]) == (1,)
    assert observed_delta(acceptance_systems["C3"]) == (1,)


def test_rho_k_certificates():
    g5 = make_group([5])
    r = rho_k(g5, 3)
    assert (r.value, r.exact) == (6, True)
    assert r.witness is not None and 3 in r.witness_lengths
    r2 = rho_k(make_group([2, 4]), 3)
    assert (r2.value, r2.exact) == (7, True)
    with pytest.raises(ValueError):
        rho_k(g5, 1)


@pytest.mark.parametrize("factors", [[], [2]])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_rho_k_of_the_groups_of_order_below_three(factors, k):
    # every L(B) is a singleton there, so the sweep finds no set above k
    G = make_group(factors)
    r = rho_k(G, k)
    assert (r.value, r.exact, r.method) == (k, True, "sweep")
    assert r.witness is None and r.witness_lengths is None
    assert r.bound == k * G.order  # k * D(G), and D(G) = |G| on these groups


_WITNESS_ROUTE_GROUPS = ([3], [2, 2], [4], [2, 2, 2], [5], [2, 4], [3, 3])


@pytest.mark.parametrize(
    "factors, k",
    [(f, k) for f in _WITNESS_ROUTE_GROUPS for k in (2, 3)]
    + [(f, 4) for f in _WITNESS_ROUTE_GROUPS[:6]],
)
def test_rho_k_witness_route_matches_the_sweep(factors, k):
    # the sweep route is exact by exhaustion: it is the witness route's oracle
    G = make_group(factors)
    sweep = rho_k(G, k)
    assert sweep.method == "sweep"
    cert = _rho_k_by_witness(G, k)
    assert cert.method == "witness" and cert.value == sweep.value
    lengths = engine_for(G).length_set(cert.witness)
    assert k in lengths and lengths[-1] == cert.value


def test_delta_star_small_groups():
    assert delta_star(make_group([3])) == (1,)
    assert delta_star(make_group([4])) == (1, 2)
    assert delta_star(make_group([2, 4])) == (1, 2)


@pytest.mark.parametrize("factors, bound", [([2, 4], 10), ([2, 2, 2], 10), ([5], 14)])
def test_delta_star_is_min_observed_delta_over_subsets(factors, bound):
    # the descent over canonical supports against one plain sweep per subset
    G = make_group(factors)
    elems = G.nonzero_elements
    expected = set()
    for pick in range(1, 1 << len(elems)):
        subset = [g for i, g in enumerate(elems) if pick >> i & 1]
        least = plain_sweep_least_distance(G, subset, bound)
        if least:
            expected.add(least)
    assert delta_star(G, bound) == tuple(sorted(expected))


@pytest.mark.parametrize(
    "factors, bound",
    [([2, 2, 2, 2], 10), ([2, 2, 4], 8), ([4, 4], 8), ([2, 8], 8), ([16], 8)],
)
def test_delta_star_matches_the_plain_sweep_oracle(factors, bound):
    # the groups where the descent departs most from the zeta transform
    G = make_group(factors)
    assert delta_star(G, bound) == plain_sweep_delta_star(*_bounded_sweep(G, bound))


def test_delta_star_readout_ticks_the_budget(monkeypatch):
    # the sweep finishes under the default budget; the readout's canonical
    # forms then exceed a budget of 10
    from zerolen.budget import ResourceLimitError

    G = make_group([2, 2, 2, 2])
    layout, levels = orbit_sweep(G, 12)
    levels = list(levels)
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "10")
    with pytest.raises(ResourceLimitError):
        _delta_star_from(layout, levels, G.automorphisms)


def test_no_sweep_level_outlives_bounded_system():
    G = make_group([2, 2, 2, 2])
    enumerate_atoms(G)  # the atom catalog is a cache of its own
    G.automorphisms  # and so is the automorphism tree of the orbit sweep
    tracemalloc.start()
    try:
        system = bounded_system(G, None, 8)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system) > 0
    assert held < 1_000_000


def test_compare_self_inclusion():
    g4 = make_group([4])
    s = bounded_system(g4, g4.elements, 16)
    rep = compare_systems(s, s)
    assert rep.a_in_b.holds and rep.b_in_a.holds and rep.equal


def test_intersection_single_group_is_that_system():
    from zerolen import bounded_intersection

    g3 = make_group([3])
    rep = bounded_intersection([g3], max_value=6)
    direct = bounded_system(g3, g3.elements, 20)
    assert set(rep.sets) == {L for L in direct.length_sets() if L[-1] <= 6}


def test_node_budget_cap_is_honored(monkeypatch):
    from zerolen.budget import ResourceLimitError

    G = make_group([2, 2, 2, 2])
    enumerate_atoms(G)  # the catalog and the tree are built before the cap
    G.automorphisms
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "50")
    with pytest.raises(ResourceLimitError):
        bounded_system(make_group([2, 4]), None, 14)
    # the orbit sweep ticks once per distinct child and once per stabilizer
    with pytest.raises(ResourceLimitError):
        bounded_system(G, None, 12)
    with pytest.raises(ResourceLimitError):
        delta_star(G, 12)


def test_a_refused_tree_falls_back_to_the_plain_sweep(monkeypatch):
    # with the threshold below |Aut(C2^3)| = 168, orbit_sweep sweeps plainly
    # and never builds the tree; the system is the tree path's
    orbits = bounded_system(make_group([2, 2, 2]), None, 12)
    monkeypatch.setattr(zerolen.groups, "MAX_TREE_AUTOMORPHISMS", 100)
    G = make_group([2, 2, 2])
    plain = bounded_system(G, None, 12)
    assert plain.length_sets() == orbits.length_sets()
    assert [e.min_length for e in plain.entries] == [
        e.min_length for e in orbits.entries
    ]
    eng = engine_for(G)
    for entry in plain.entries:
        assert entry.witness.length == entry.min_length
        assert eng.length_set(entry.witness) == entry.lengths
    assert "automorphisms" not in G.__dict__


@pytest.mark.parametrize(
    "factors, bound",
    [
        ([2, 2, 2, 2], 8),
        ([2, 2, 2, 2], 10),
        ([2, 2, 2], 16),
        ([3, 3], 16),
        ([2, 2, 4], 8),
        ([5], 20),
        ([2, 4], 16),
    ],
)
def test_orbit_sweep_matches_the_plain_sweep(factors, bound):
    # the plain sweep is the orbit sweep's oracle
    G = make_group(factors)
    o_layout, o_levels = orbit_sweep(G, bound)
    o_levels = list(o_levels)
    p_layout, p_levels = _bounded_sweep(G, bound)
    p_levels = list(p_levels)
    orbit = _system_from(G, False, bound, o_layout, o_levels)
    plain = _system_from(G, False, bound, p_layout, p_levels)
    assert orbit.length_sets() == plain.length_sets()
    assert [e.min_length for e in orbit.entries] == [
        e.min_length for e in plain.entries
    ]
    eng = engine_for(G)
    for entry in orbit.entries:
        assert entry.witness.length == entry.min_length
        assert eng.length_set(entry.witness) == entry.lengths
    assert _delta_star_from(
        o_layout, o_levels, G.automorphisms
    ) == plain_sweep_delta_star(p_layout, p_levels)
    # one state per orbit: far fewer states, the same distinct masks per level
    assert sum(map(len, o_levels)) < sum(map(len, p_levels))
    for o_level, p_level in zip(o_levels, p_levels):
        assert set(o_level.values()) == set(p_level.values())


@pytest.mark.parametrize(
    "factors, bound", [([2, 2, 2, 2], 8), ([2, 2, 2, 2], 10), ([2, 2, 4], 8)]
)
def test_orbit_levels_match_the_per_representative_step(factors, bound):
    # canonicalizing each distinct child once, with stabilizer orbits shared
    # per split, yields the same keys, masks and key order as the plain step
    G = make_group(factors)
    layout, levels = orbit_sweep(G, bound)
    got = [list(level.items()) for level in levels]
    want = [list(level.items()) for level in naive_orbit_levels(G, layout.bits, bound)]
    assert got == want


def test_compare_certifies_absence_only_when_bound_allows():
    g5 = make_group([5])
    g24 = make_group([2, 4])
    sa = bounded_system(g5, g5.elements, 20)
    sb = bounded_system(g24, g24.elements, 16)
    rep = compare_systems(sa, sb)
    assert rep.a_in_b.holds is False
    assert (2, 5) in rep.a_in_b.missing_certified
