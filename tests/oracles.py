"""Independent brute-force reference implementations used only by the tests.

Everything here enumerates explicitly (products of multiplicity ranges,
recursive factorization search) and deliberately avoids the pruned search,
the memoized recursion and the packed sweep of the package under test.  The
only shared ingredient is elementwise group arithmetic.  The numerical-monoid
oracles work on plain sets of lengths, never on the package's bitmask table.
The orbit-sweep reference is one exception: it is the reference for the
sweep's step only, so it reads the atom catalog and the automorphism tree's
nodes, which are checked against ``naive_atoms`` and
``naive_automorphisms``.  Its canonical forms and stabilizers come from its
own survivor-listing search (``survivor_canonical``), not from the tree's
``canonical_form`` and ``transversals``.  The
oracles that read the package's plain sweep, which the tests check against
``naive_lengths``, are the others: the plain-sweep Delta*
(``plain_sweep_delta_star``) and the least distance over one subset
(``plain_sweep_least_distance``), each a reference for the descent over
canonical supports only.
"""

from __future__ import annotations

from itertools import product

from zerolen.atoms import enumerate_atoms
from zerolen.groups import FiniteAbelianGroup
from zerolen.lengths import delta, mask_to_lengths, packed_sweep
from zerolen.sequences import Sequence


def _submultisets(items):
    """All multiplicity vectors below the given (element, mult) pairs."""
    ranges = [range(m + 1) for _, m in items]
    for combo in product(*ranges):
        yield combo


def _sum_of(group, items, combo):
    acc = group.zero
    for (g, _), m in zip(items, combo):
        acc = group.add(acc, group.scale(m, g))
    return acc


def naive_is_atom(group: FiniteAbelianGroup, seq: Sequence) -> bool:
    n = seq.length
    if n == 0 or seq.sigma != group.zero:
        return False
    full = tuple(m for _, m in seq.items)
    for combo in _submultisets(seq.items):
        if not any(combo) or combo == full:
            continue
        if _sum_of(group, seq.items, combo) == group.zero:
            return False
    return True


def naive_atoms(group: FiniteAbelianGroup, subset, max_len: int):
    """All minimal zero-sum sequences over the subset up to the length cap."""
    elems = sorted(subset, key=group.index)
    found = []

    def rec(idx, counts, size):
        if size:
            seq = Sequence.build(group, list(zip(elems, counts)))
            if naive_is_atom(group, seq):
                found.append(seq)
        if size == max_len:
            return
        for i in range(idx, len(elems)):
            counts[i] += 1
            rec(i, counts, size + 1)
            counts[i] -= 1

    rec(0, [0] * len(elems), 0)
    return found


_ATOM_CACHE: dict = {}


def _group_atoms(group: FiniteAbelianGroup):
    """Every atom of the group, enumerated once.

    No atom is longer than |G|: among the |G| + 1 prefix sums of a longer
    sequence two agree, so it has a proper zero-sum subsequence.
    """
    key = group.invariant_factors
    if key not in _ATOM_CACHE:
        _ATOM_CACHE[key] = naive_atoms(group, group.elements, group.order)
    return _ATOM_CACHE[key]


def naive_lengths(group: FiniteAbelianGroup, seq: Sequence) -> tuple[int, ...]:
    """All factorization lengths by exhaustive multiset-of-atoms search."""
    if seq.length == 0:
        return (0,)
    # an atom of a factorization of B divides B
    atoms = [a for a in _group_atoms(group) if a.divides(seq)]
    out: set[int] = set()

    def rec(rest: Sequence, start: int, depth: int):
        if rest.length == 0:
            out.add(depth)
            return
        for i in range(start, len(atoms)):
            if atoms[i].divides(rest):
                rec(rest.divide(atoms[i]), i, depth + 1)

    rec(seq, 0, 0)
    return tuple(sorted(out))


def naive_numerical_lengths(gens, bound: int) -> dict[int, frozenset]:
    """{a: L(a)} for every member a <= bound of the monoid generated by gens.

    Plain set recursion L(a) = union over g of 1 + L(a - g); no bitmasks.
    """
    lengths: dict[int, frozenset] = {0: frozenset({0})}
    for a in range(1, bound + 1):
        found = set()
        for g in gens:
            if a - g in lengths:
                found.update(k + 1 for k in lengths[a - g])
        if found:
            lengths[a] = frozenset(found)
    return lengths


def naive_realizing_elements(factor_gens, L, y_range, search_bound: int):
    """Every element of the product, components <= search_bound, whose length
    set is y + L for some y in y_range: a loop over all element combinations
    that adds the factors' length sets elementwise."""
    tables = [naive_numerical_lengths(gens, search_bound) for gens in factor_gens]
    targets = {frozenset(v + y for v in L) for y in y_range}
    out = []
    for combo in product(*(sorted(t) for t in tables)):
        acc = {0}
        for table, a in zip(tables, combo):
            acc = {s + k for s in acc for k in table[a]}
        if frozenset(acc) in targets:
            out.append(combo)
    return out


def naive_thm57_sets(gens, bound: int) -> tuple[set, set]:
    """(every y + L(a) with max <= bound, every distance of every L(a)) over
    the members a <= nt * bound: one set per element and per shift y."""
    realized, distances = set(), set()
    for L in naive_numerical_lengths(gens, max(gens) * bound).values():
        L = sorted(L)
        distances.update(b - a for a, b in zip(L, L[1:]))
        for y in range(bound - L[-1] + 1):
            realized.add(tuple(v + y for v in L))
    return realized, distances


def naive_automorphisms(group: FiniteAbelianGroup) -> set[tuple[int, ...]]:
    """Every automorphism, by trying all images of the generators.

    Each candidate map x -> sum x_j h_j is checked to be well defined (the
    order of h_j divides n_j) and bijective by listing all its values.  The
    result uses the package's position convention: position p is the
    nonzero element of index p + 1, and perm[p] is the position of its image.
    """
    elems = group.elements
    index = {g: i for i, g in enumerate(elems)}
    # the group's tables by index: add[i][k] and times[c][i] = c * elems[i]
    add = [[index[group.add(a, b)] for b in elems] for a in elems]
    times = [[index[group.scale(c, h)] for h in elems] for c in range(group.exponent)]
    out = set()
    for images in product(elems, repeat=group.rank):
        if any(
            group.scale(n, h) != group.zero
            for n, h in zip(group.invariant_factors, images)
        ):
            continue
        hs = [index[h] for h in images]
        values = []
        for x in elems:
            acc = 0
            for c, h in zip(x, hs):
                acc = add[acc][times[c][h]]
            values.append(acc)
        if len(set(values)) == len(elems):
            out.add(tuple(v - 1 for v in values[1:]))
    return out


def survivor_canonical(tree, v) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The largest image v∘φ over the tree's automorphisms, and every φ reaching it.

    Breadth-first over every level, with no early stop: a branch survives
    while its blocks tie with the best so far, and keeps its path of
    getters.  When v is its own canonical form the survivors are Stab(v),
    listed element by element, each permutation rebuilt from its path by
    reading every block off the identity vector.  It shares only the tree's
    nodes with ``AutomorphismTree``, and the tests check it against
    ``naive_automorphisms``.
    """
    frontier = [(tree._root, ())]  # (children, getters from the root)
    for best, _ in tree._inner:
        keep = []
        for kids, path in frontier:
            for get, sub in kids:
                val = get(v)
                if val > best:
                    best, keep = val, [(sub, path + (get,))]
                elif val == best:
                    keep.append((sub, path + (get,)))
        frontier = keep
    best, paths = tree._leaf_low, []
    for kids, path in frontier:
        for get in kids:  # a leaf is its getter alone
            val = get(v)
            if val > best:
                best, paths = val, [path + (get,)]
            elif val == best:
                paths.append(path + (get,))
    identity = list(range(tree.size))
    perms = []
    for path in paths:
        perm = []
        for get in path:
            block = get(identity)
            perm += [block] if isinstance(block, int) else block
        perms.append(tuple(perm))
    return tuple(v[p] for p in perms[0]), perms


def naive_orbit_levels(group: FiniteAbelianGroup, bits: int, limit: int):
    """The levels of ``lengths.orbit_sweep`` by the plain per-representative step.

    Each representative R is canonicalized for its stabilizer, one atom of
    each Stab(R)-orbit is found by taking that atom's image under every
    element of Stab(R), and every child is canonicalized as it is pushed,
    all by ``survivor_canonical``.  Levels map packed canonical forms
    (``bits`` per field) to length masks, in the order their first child
    was pushed; no budget is kept.
    """
    tree = group.automorphisms
    support = group.nonzero_elements
    atoms = [
        (a.length, tuple(support.index(g) for g, m in a.items for _ in range(m)))
        for a in enumerate_atoms(group)
        if a.length <= limit
    ]
    weight = [1 << p * bits for p in range(tree.size)]
    pending: dict[int, dict[tuple, int]] = {0: {(0,) * tree.size: 1}}
    for s in range(limit + 1):
        cur = pending.pop(s, {})
        yield {
            sum(m << p * bits for p, m in enumerate(rep)): mask
            for rep, mask in cur.items()
        }
        fit = [a for a in atoms if a[0] <= limit - s]
        for rep, mask in cur.items():
            _, stab = survivor_canonical(tree, rep)
            seen: set[int] = set()
            for alen, ps in fit:
                if sum(weight[p] for p in ps) in seen:
                    continue
                for q in stab:
                    seen.add(sum(weight[q[p]] for p in ps))
                child = list(rep)
                for p in ps:
                    child[p] += 1
                key, _ = survivor_canonical(tree, child)
                tgt = pending.setdefault(s + alen, {})
                tgt[key] = tgt.get(key, 0) | mask << 1


def plain_sweep_delta_star(layout, levels) -> tuple[int, ...]:
    """Delta* from a plain sweep over the full nonzero support, by a zeta transform.

    Each state adds its distances to its exact support; the subset-sum
    transform over all 2^m supports then gives the observed distances of
    every subset, and Delta* collects the least of each nonempty one.
    """
    dist_of_mask: dict[int, int] = {}  # bit g set iff g is a distance of the set
    by_key: dict[int, int] = {}  # support key -> union of its distance masks
    for level in levels:
        for state, mask in level.items():
            d = dist_of_mask.get(mask)
            if d is None:
                d = sum(1 << g for g in delta(mask_to_lengths(mask)))
                dist_of_mask[mask] = d
            key = layout.support_key(state)
            by_key[key] = by_key.get(key, 0) | d
    m = len(layout.support)
    by_support = [0] * (1 << m)
    for key, d in by_key.items():
        by_support[sum(b << i for i, b in enumerate(layout.key_vector(key)))] = d
    for i in range(m):
        bit = 1 << i
        for s in range(1 << m):
            if s & bit:
                by_support[s] |= by_support[s ^ bit]
    return tuple(sorted({(acc & -acc).bit_length() - 1 for acc in by_support if acc}))


def plain_sweep_least_distance(group: FiniteAbelianGroup, subset, bound: int) -> int:
    """The least observed distance over ``subset`` up to ``bound``, 0 if none.

    It reads the plain sweep of ``subset`` with every cap at ``bound``: the
    least distance of every zero-sum sequence of at most ``bound`` terms.
    """
    support = group.canonical_subset(subset)
    _, levels = packed_sweep(group, support, bound)
    masks = {mask for level in levels for mask in level.values()}
    return min((d for mask in masks for d in delta(mask_to_lengths(mask))), default=0)
