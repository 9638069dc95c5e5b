"""Profiles: enumeration against the unpruned oracle, flags, the irregular
shape lemma, distinguisher sets and the two corner lemmas on crossing
efficient distinguishers."""

import collections
import itertools
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tangleforge import oracles
from tangleforge import profiles as profiles_module
from tangleforge.cli import _s_k_universe
from tangleforge.core import (
    Graph,
    Separation,
    canonical,
    enumerate_separations,
    graph_universe,
    is_nested,
    iter_bits,
    join,
    mask_of,
    meet,
    sep_sort_key,
    star,
    vertices_of,
)
from tangleforge.errors import CapExceededError, CertificationError, PreconditionError
from tangleforge.fixtures import PIPELINE_K, doubled_bridge_ring, triangle_ring
from tangleforge.profiles import (
    Profile,
    distinguishes,
    efficient_distinguishers,
    enumerate_k_profiles,
    is_consistent,
    is_principal,
    is_profile,
    is_robust,
    pipeline_profiles,
    principal_flags,
    satisfies_profile_property,
)
from tangleforge.separators import canonical_nested_separators, separators_to_separations
from tangleforge.treedec import build_totd

K2 = Graph.from_edges(2, [(0, 1)])


def sep(a, b):
    return Separation(mask_of(a), mask_of(b))


def two_k4_side_profiles(g):
    """The profiles pointing at the left and right K4 of FIX_2K4."""
    m1 = sep([0, 1, 2, 3], [3, 4, 5, 6, 7])
    m2 = sep([0, 1, 2, 3, 4], [4, 5, 6, 7])
    left = right = None
    for p in enumerate_k_profiles(g, 2):
        if not p.is_regular(g):
            continue
        if p.orients(m1) == m1 and p.orients(m2) == m2:
            right = p
        if p.orients(m1) == star(m1) and p.orients(m2) == star(m2):
            left = p
    assert left is not None and right is not None
    return left, right


# ---------------------------------------------------------------------------
# enumeration

def relabel(s, perm):
    return Separation(*(mask_of(perm[v] for v in vertices_of(side)) for side in s))


def in_documented_order(profiles):
    """Profiles, given as member tuples, in the lexicographic order of their
    orientation vectors over S_k sorted by (order, sep_sort_key): slot 0 is
    a separation's canonical orientation, slot 1 its inverse. S_k is read
    off the members, since every profile orients all of it."""
    if not profiles:
        return []
    s_k = sorted({canonical(x) for x in profiles[0]}, key=lambda s: (s.order, sep_sort_key(s)))
    return sorted(profiles, key=lambda chosen: [s not in chosen for s in s_k])


def assert_profiles_in_documented_order(g, k, reference, **caps):
    found = tuple(p.chosen for p in enumerate_k_profiles(g, k, **caps))
    assert found == tuple(in_documented_order(reference))


@pytest.mark.parametrize(
    "name,k", [("FIX_P4", 1), ("FIX_P4", 2), ("FIX_C4", 2), ("FIX_2K4", 2), ("FIX_2K2", 2)]
)
def test_enumeration_matches_unpruned_oracle(graphs, name, k):
    g = graphs[name]
    assert_profiles_in_documented_order(g, k, oracles.brute_profiles(g, k))


def test_every_enumerated_profile_passes_independent_predicate(graphs):
    from tangleforge.oracles import _full_profile_predicate

    for name in ("FIX_P4", "FIX_2K4", "FIX_GRID33"):
        g = graphs[name]
        for p in enumerate_k_profiles(g, 2):
            assert _full_profile_predicate(p.chosen)
            assert is_consistent(p.chosen)
            assert satisfies_profile_property(p.chosen)


@st.composite
def small_graphs(draw, max_n=7, max_k=3):
    """A random graph on 1..max_n vertices and an order bound k in 1..max_k."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [e for i, e in enumerate(pairs) if chosen >> i & 1]
    return Graph.from_edges(n, edges), draw(st.integers(1, max_k))


DIFFERENTIAL = settings(max_examples=60)


@DIFFERENTIAL
@given(small_graphs())
def test_enumeration_matches_oracle_on_random_graphs(case):
    g, k = case
    assume(len(enumerate_separations(g, k)) <= 24)
    assert_profiles_in_documented_order(g, k, oracles.brute_profiles(g, k))


def test_search_matches_the_oracle_on_a_seeded_sweep():
    """A seeded sweep of graphs with n ≤ 8 (edgeless, sparse, dense and
    complete) at k = 1 to 4, each against the unpruned oracle: k = 1
    forces no slot, k = 2 forces (∅, V) only, and k ≥ 3 forces every
    trivial separation. S_k stays within the oracle's scan cap; sizes 13
    to 16 are left out because there the oracle scans all 2^|S_k|
    orientation vectors (up to a second each), while above 16 it walks a
    pruned tree. The sweep must include edgeless and disconnected graphs,
    graphs with n = k, and graphs with k-profiles at k = 3 and 4."""
    rng = random.Random(53)
    seen = collections.Counter()
    for _ in range(100):
        n = rng.randint(1, 8)
        p = rng.choice((0.0, 0.3, 0.6, 1.0))
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        for k in range(1, 5):
            m = len(enumerate_separations(g, k))
            if m > 26 or 12 < m <= 16:
                continue
            reference = oracles.brute_profiles(g, k)
            assert_profiles_in_documented_order(g, k, reference)
            seen[k] += 1
            seen[k, "found"] += bool(reference)
            seen["edgeless"] += not g.edges()
            seen["disconnected"] += len(g.components()) > 1
            seen["n = k"] += n == k
    kinds = (1, 2, 3, 4, (3, "found"), (4, "found"), "edgeless", "disconnected", "n = k")
    assert min(seen[kind] for kind in kinds) >= 4, seen


def test_search_matches_the_oracle_where_the_forced_part_meets_the_open_part():
    """A seeded sweep at k = 3 and 4 over graphs on n = k or k + 1
    vertices with a pendant or an isolated vertex, each against the
    unpruned oracle. There S_k holds open separations with a side of at
    most `top` = k − 1 vertices (({p, u}, V − p) for a pendant p with
    neighbour u, ({i}, V − i) for an isolated i), whose slots the search
    kills or keeps through the closed forms of `enumerate_k_profiles`
    rather than through a slot per forced separation. S_k stays within the
    oracle's tree walk (at most 33 separations, sizes 13 to 16 left out as
    in the sweep above)."""
    rng = random.Random(71)
    seen = collections.Counter()
    for _ in range(60):
        k = rng.choice((3, 4))
        n = rng.choice((k, k + 1))
        kind = rng.choice(("pendant", "isolated"))
        p = rng.choice((0.3, 0.6, 1.0))
        edges = [e for e in itertools.combinations(range(n - 1), 2) if rng.random() < p]
        if kind == "pendant":
            edges.append((rng.randrange(n - 1), n - 1))
        g = Graph.from_edges(n, edges)
        s_k = enumerate_separations(g, k, max_sk=None)
        if len(s_k) > 33 or 12 < len(s_k) <= 16:
            continue
        reference = oracles.brute_profiles(g, k, scan_cap=33)
        assert_profiles_in_documented_order(g, k, reference)
        # at k ≥ 3 and n ≥ k the forced separations are the (X, V)
        small = [
            s
            for s in s_k
            if g.vertices not in s and min(s.a.bit_count(), s.b.bit_count()) <= k - 1
        ]
        seen[k] += 1
        seen[k, "small open side"] += bool(small)
        seen[k, "found"] += bool(reference)
        seen[kind] += 1
        seen[n - k] += 1
    kinds = (3, 4, (3, "small open side"), (4, "small open side"), "pendant", "isolated", 0, 1)
    assert min(seen[kind] for kind in kinds) >= 4, seen
    assert seen[3, "found"] + seen[4, "found"] >= 2, seen


@DIFFERENTIAL
@given(small_graphs(max_k=4))
@example((Graph.from_edges(4, itertools.combinations(range(4), 2)), 4))
@example((Graph.from_edges(5, itertools.combinations(range(5), 2)), 3))
def test_no_profile_holds_a_co_small_separation_the_lemma_rules_out(case):
    """The lemma of `enumerate_k_profiles`, on the unpruned oracle: for
    |V| ≥ k no k-profile holds (V, Z) with |Z| ≥ 2 or |Z| ≤ k − 2, so at
    k ≥ 3 every k-profile is regular."""
    g, k = case
    assume(g.num_vertices >= k and len(enumerate_separations(g, k)) <= 24)
    for chosen in oracles.brute_profiles(g, k):
        sizes = [x.b.bit_count() for x in chosen if x.a == g.vertices]
        assert all(k - 2 < size < 2 for size in sizes), (chosen, sizes)
        assert k < 3 or Profile(k, chosen).is_regular(g)


def choose_calls(g, k, **caps):
    """enumerate_k_profiles(g, k), and the number of calls to its nested
    `choose`, counted on that function's code object."""
    (code,) = (
        c for c in enumerate_k_profiles.__code__.co_consts if getattr(c, "co_name", "") == "choose"
    )
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        result = enumerate_k_profiles(g, k, **caps)
    finally:
        sys.setprofile(None)
    return result, calls


def test_forced_slots_are_not_chosen_one_by_one():
    """On `doubled_bridge_ring()` 137 of the 149 separations of S_3, and 697
    of the 887 of S_4, are trivial; the search starts with them oriented
    as (X, V) and calls `choose` only for the others."""
    g = doubled_bridge_ring()
    profiles, calls = choose_calls(g, 3, max_sk=256)
    assert (len(profiles), calls) == (3, 54)
    profiles, calls = choose_calls(g, 4, max_sk=1024)
    assert (len(profiles), calls) == (2, 437)


@pytest.mark.parametrize("name", ["triangle_ring3", "doubled_bridge_ring"])
def test_enumeration_order_on_relabelled_rings(name):
    """20 seeded relabellings of each ring at k = 3. The reference set is
    the identity labelling's, mapped: the unpruned oracle's on the
    three-triangle ring, and the search's own on the 16-vertex ring, where
    the oracle's scan over 4^16 side pairs is out of reach."""
    if name == "triangle_ring3":
        triangles = [(3 * i + a, 3 * i + b) for i in range(3) for a, b in ((0, 1), (1, 2), (0, 2))]
        g = Graph.from_edges(9, triangles + [(2, 3), (5, 6), (8, 0)])
        reference = oracles.brute_profiles(g, 3, scan_cap=64)
    else:
        g = doubled_bridge_ring()
        reference = [p.chosen for p in enumerate_k_profiles(g, 3, max_sk=256)]
    assert len(reference) == 3
    rng = random.Random(name)
    for _ in range(20):
        images = list(range(g.n))
        rng.shuffle(images)
        perm = dict(enumerate(images))
        mapped = [
            tuple(sorted((relabel(x, perm) for x in chosen), key=sep_sort_key))
            for chosen in reference
        ]
        assert_profiles_in_documented_order(g.relabelled(perm), 3, mapped, max_sk=256)


def test_enumeration_order_on_relabelled_doubled_bridge_ring_at_k4():
    """5 seeded relabellings of `doubled_bridge_ring()` at k = 4, where 697
    of the 887 separations of S_4 are forced, against the identity
    labelling's two profiles, mapped."""
    g = doubled_bridge_ring()
    reference = [p.chosen for p in enumerate_k_profiles(g, 4, max_sk=1024)]
    assert len(reference) == 2
    rng = random.Random("doubled_bridge_ring k4")
    for _ in range(5):
        images = list(range(g.n))
        rng.shuffle(images)
        perm = dict(enumerate(images))
        mapped = [
            tuple(sorted((relabel(x, perm) for x in chosen), key=sep_sort_key))
            for chosen in reference
        ]
        assert_profiles_in_documented_order(g.relabelled(perm), 4, mapped, max_sk=1024)


@DIFFERENTIAL
@given(small_graphs())
def test_every_profile_reads_off_the_universe_of_s_k(case):
    g, k = case
    s_k = enumerate_separations(g, k)
    assume(len(s_k) <= 24)
    ref = graph_universe(g, max_order=k - 1)
    for p in enumerate_k_profiles(g, k):
        assert tuple(map(canonical, p.chosen)) == s_k  # members in S_k order
        u = _s_k_universe(g, p)
        assert (u.elements, u.closed) == (ref.elements, ref.closed)


@pytest.mark.parametrize("ring", [triangle_ring, doubled_bridge_ring])
def test_ring_profiles_list_their_members_in_s_k_order(ring):
    # S_k order interleaves the orders, which the search takes in turn
    g = ring()
    s_k = enumerate_separations(g, 3, max_sk=256)
    assert [s.order for s in s_k] != sorted(s.order for s in s_k)
    for p in enumerate_k_profiles(g, 3, max_sk=256):
        assert tuple(map(canonical, p.chosen)) == s_k


@DIFFERENTIAL
@given(small_graphs(), st.randoms(use_true_random=False))
# the one-vertex edgeless graph at k = 1: its second profile lists ({0}, ∅)
# alone, the inverse of the canonical (∅, {0}), which it must follow
@example((Graph.from_edges(1, []), 1), random.Random(0))
def test_universe_order_does_not_depend_on_insertion_order(case, rng):
    g, k = case
    assume(len(enumerate_separations(g, k)) <= 24)
    expected = graph_universe(g, max_order=k - 1).elements
    lists = [list(p.chosen) for p in enumerate_k_profiles(g, k)]
    for _ in range(3):
        lists.append(list(expected))
        rng.shuffle(lists[-1])
    for seps in lists:
        assert oracles.brute_universe_elements(seps) == expected


@DIFFERENTIAL
@given(small_graphs(), st.randoms(use_true_random=False))
def test_relabelling_maps_profiles_onto_profiles(case, rng):
    g, k = case
    assume(len(enumerate_separations(g, k)) <= 40)
    images = list(range(g.n))
    rng.shuffle(images)
    perm = dict(enumerate(images))
    mapped = {frozenset(relabel(x, perm) for x in p.chosen) for p in enumerate_k_profiles(g, k)}
    relabelled = {frozenset(p.chosen) for p in enumerate_k_profiles(g.relabelled(perm), k)}
    assert mapped == relabelled


@DIFFERENTIAL
@given(small_graphs(), st.data())
def test_predicates_agree_with_oracle_on_random_orientations(case, data):
    g, k = case
    s_k = enumerate_separations(g, k)
    assume(len(s_k) <= 24)
    profiles = enumerate_k_profiles(g, k)
    if profiles and data.draw(st.booleans()):
        # a profile with a few orientations flipped: near misses of both properties
        flips = data.draw(st.sets(st.sampled_from(profiles[0].chosen), max_size=3))
        oriented = tuple(star(x) if x in flips else x for x in profiles[0].chosen)
    else:
        bits = data.draw(st.integers(0, (1 << len(s_k)) - 1))
        oriented = tuple(star(s) if bits >> i & 1 else s for i, s in enumerate(s_k))
    expected = oracles._full_profile_predicate(oriented)
    assert (is_consistent(oriented) and satisfies_profile_property(oriented)) == expected


def test_each_leaf_is_checked_once_and_a_failing_leaf_raises(graphs, monkeypatch):
    g = graphs["FIX_2K4"]
    calls = []
    certify = profiles_module._leaves_are_profiles

    def counting(g, s_k, slots, leaves):
        calls.append(leaves)
        return certify(g, s_k, slots, leaves)

    monkeypatch.setattr(profiles_module, "_leaves_are_profiles", counting)
    assert len(enumerate_k_profiles(g, 2)) == 9
    assert len(calls) == 1 and len(calls[0]) == 9
    monkeypatch.setattr(profiles_module, "_leaves_are_profiles", lambda *args: False)
    with pytest.raises(CertificationError):
        enumerate_k_profiles(g, 2)


LEAF_KINDS = ("profile", "random", "flipped", "meet", "toggled")


@DIFFERENTIAL
@given(small_graphs(), st.data())
def test_leaf_certifier_agrees_with_is_profile(case, data):
    """The certifier over the union of the leaves decides each leaf as the
    per-leaf definition does. Leaves are genuine profiles, random
    orientations, profiles with one separation flipped, profiles that
    take x* ∧ y* for two members x, y, and profiles with one slot bit
    toggled (so a separation is oriented twice or not at all)."""
    g, k = case
    s_k = enumerate_separations(g, k)
    assume(len(s_k) <= 40)
    slots = [side for s in s_k for side in ((s.a, s.b), (s.b, s.a))]
    slot_of = {sep: x for x, sep in enumerate(slots)}
    profiles = [
        sum(1 << slot_of[tuple(x)] for x in p.chosen) for p in enumerate_k_profiles(g, k)
    ]
    leaves = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(LEAF_KINDS if profiles else ("random",)))
        if kind == "random":
            bits = data.draw(st.integers(0, (1 << len(s_k)) - 1))
            leaves.append(sum(1 << (2 * i + (bits >> i & 1)) for i in range(len(s_k))))
            continue
        leaf = data.draw(st.sampled_from(profiles))
        members = [x for x in range(len(slots)) if leaf >> x & 1]
        if kind == "flipped":
            leaf ^= 3 << (data.draw(st.sampled_from(members)) & ~1)
        elif kind == "toggled":
            leaf ^= 1 << data.draw(st.integers(0, len(slots) - 1))
        elif kind == "meet":
            x, y = (slots[data.draw(st.sampled_from(members))] for _ in range(2))
            t = slot_of.get((x[1] & y[1], x[0] | y[0]))
            if t is not None:
                leaf = leaf & ~(3 << (t & ~1)) | 1 << t
        leaves.append(leaf)
    oriented = [
        tuple(Separation(*slots[x]) for x in range(len(slots)) if leaf >> x & 1) for leaf in leaves
    ]
    expected = all(is_profile(g, k, chosen, s_k=s_k) for chosen in oriented)
    assert profiles_module._leaves_are_profiles(g, s_k, slots, leaves) == expected


def test_leaf_certifier_agrees_with_is_profile_on_every_orientation():
    """Every orientation of S_k, k ≤ 3, of every graph on at most three
    vertices, one leaf at a time. On the edgeless graph with two vertices
    at k = 2, x = ({0}, V) and y = ({1}, {0}) are consistent and
    x* ∧ y* = x, so a meet equal to a member must count."""
    for n in (1, 2, 3):
        pairs = list(itertools.combinations(range(n), 2))
        for edges in itertools.chain.from_iterable(
            itertools.combinations(pairs, r) for r in range(len(pairs) + 1)
        ):
            g = Graph.from_edges(n, edges)
            for k in range(1, 4):
                s_k = enumerate_separations(g, k)
                slots = [side for s in s_k for side in ((s.a, s.b), (s.b, s.a))]
                for bits in range(1 << len(s_k)):
                    leaf = sum(1 << (2 * i + (bits >> i & 1)) for i in range(len(s_k)))
                    chosen = tuple(
                        Separation(*slots[x]) for x in range(len(slots)) if leaf >> x & 1
                    )
                    certified = profiles_module._leaves_are_profiles(g, s_k, slots, [leaf])
                    assert certified == is_profile(g, k, chosen, s_k=s_k), (edges, k, chosen)


def test_leaf_certifier_checks_the_small_members_below_a_co_small_one():
    """K4 at k = 3: the only profile holds every (X, V). With ({0, 1}, V)
    flipped to (V, {0, 1}) the leaf is consistent, and its only (P)
    violation is the pair ({0}, V), ({1}, V), whose inverses meet in
    (V, {0, 1}). A certificate that skipped every pair of small members
    would pass it."""
    g = Graph.from_edges(4, itertools.combinations(range(4), 2))
    s_k = enumerate_separations(g, 3)
    slots = [side for s in s_k for side in ((s.a, s.b), (s.b, s.a))]
    (profile,) = enumerate_k_profiles(g, 3)
    assert all(x.b == g.vertices for x in profile.chosen)
    flipped = sep([0, 1], range(4))
    chosen = tuple(star(x) if x == flipped else x for x in profile.chosen)
    assert is_consistent(chosen)
    violations = [(x, y) for x in chosen for y in chosen if meet(star(x), star(y)) in chosen]
    small = sep([0], range(4)), sep([1], range(4))
    assert violations == [small, small[::-1]]

    def leaf(members):
        return sum(1 << slots.index(x) for x in members)

    certify = profiles_module._leaves_are_profiles
    assert certify(g, s_k, slots, [leaf(profile.chosen)])
    assert not certify(g, s_k, slots, [leaf(chosen)])
    assert not certify(g, s_k, slots, [leaf(profile.chosen), leaf(chosen)])


def test_leaf_certifier_meets_a_free_member_with_a_proper_one():
    """Vertex 2 isolated, k = 2. The profile that holds (V, {2}), with that
    separation flipped to x = ({2}, V), is consistent, and its only (P)
    violation is the pair of x and y = ({0, 1, 3}, {2}): x* ∧ y* = x. No
    member (V, B) of the leaf has 2 ∈ B, so x is free and the certificate
    meets it with y only through the vertex columns."""
    g = Graph.from_edges(4, [(0, 1), (0, 3)])
    s_k = enumerate_separations(g, 2)
    slots = [side for s in s_k for side in ((s.a, s.b), (s.b, s.a))]
    x, y = sep([2], range(4)), sep([0, 1, 3], [2])
    (profile,) = [p for p in enumerate_k_profiles(g, 2) if star(x) in p]
    chosen = tuple(x if z == star(x) else z for z in profile.chosen)
    assert y in chosen and is_consistent(chosen)
    assert not any(z.a == g.vertices and z.b & x.a for z in chosen)
    violations = [(a, b) for a in chosen for b in chosen if meet(star(a), star(b)) in chosen]
    assert sorted(violations) == sorted([(x, y), (y, x)])
    assert meet(star(x), star(y)) == x

    def leaf(members):
        return sum(1 << slots.index(z) for z in members)

    certify = profiles_module._leaves_are_profiles
    assert certify(g, s_k, slots, [leaf(profile.chosen)])
    assert not certify(g, s_k, slots, [leaf(chosen)])
    assert not certify(g, s_k, slots, [leaf(profile.chosen), leaf(chosen)])


def certificate_batches(g, k, rng, batches):
    """Seeded batches of leaves over S_k of g: genuine profiles, and
    profiles with one to three separations flipped, with one slot bit
    toggled, or with a meet x* ∧ y* taken in place of the other slot of
    its separation. The meet is (B, A ∪ X) for a member x = (X, V) and a
    member y = (A, B), A, B ≠ V, when such a meet lies in S_k (at k ≥ 3 a
    profile holds no (V, B), so such an x is free; on 2-connected graphs
    the meet has order ≥ 3, so it lies in S_k only from k = 4 on), and
    x* ∧ y* for any two members otherwise. Yields (s_k, slots, leaves,
    kinds)."""
    s_k = enumerate_separations(g, k, max_sk=1024)
    slots = [side for s in s_k for side in ((s.a, s.b), (s.b, s.a))]
    slot_of = {side: x for x, side in enumerate(slots)}
    profiles = [
        sum(1 << slot_of[tuple(x)] for x in p.chosen)
        for p in enumerate_k_profiles(g, k, max_sk=1024)
    ]
    verts = g.vertices
    for _ in range(batches):
        leaves, kinds = [], []
        for _ in range(rng.randint(1, 3)):
            leaf = rng.choice(profiles)
            members = [slots[x] for x in iter_bits(leaf)]
            kind = rng.choice(("profile", "flipped", "toggled", "meet"))
            if kind == "flipped":
                for x in rng.sample(list(iter_bits(leaf)), rng.randint(1, 3)):
                    leaf ^= 3 << (x & ~1)
            elif kind == "toggled":
                leaf ^= 1 << rng.randrange(len(slots))
            elif kind == "meet":
                free = [x for x, b in members if b == verts]
                proper = [(a, b) for a, b in members if verts not in (a, b)]
                meets = [(b, a | x) for x in free for a, b in proper if x & ~a]
                if not any(z in slot_of for z in meets):
                    meets = [(xb & yb, xa | ya) for xa, xb in members for ya, yb in members]
                t = rng.choice(
                    [slot_of[z] for z in meets if z in slot_of and not leaf >> slot_of[z] & 1]
                )
                leaf = leaf & ~(3 << (t & ~1)) | 1 << t
            leaves.append(leaf)
            kinds.append(kind)
        yield s_k, slots, leaves, kinds


def three_triangle_ring():
    """Three triangles joined into a ring by bridges."""
    edges = [(3 * i + a, 3 * i + b) for i in range(3) for a, b in ((0, 1), (1, 2), (0, 2))]
    return Graph.from_edges(9, edges + [(2, 3), (5, 6), (8, 0)])


@pytest.mark.parametrize(
    "name,k,batches",
    [("doubled_bridge_ring", 3, 60), ("doubled_bridge_ring", 4, 6), ("triangle_ring3", 3, 60)],
)
def test_leaf_certifier_agrees_with_is_profile_at_scale(name, k, batches):
    """`test_leaf_certifier_agrees_with_is_profile` sees no S_k above 40
    separations; here S_k has 149, 887 and 58, most of them trivial, which
    the certificate meets with the proper members through its vertex
    columns. Each batch is
    certified at once, and each of its leaves alone, against `is_profile`
    leaf by leaf."""
    g = doubled_bridge_ring() if name == "doubled_bridge_ring" else three_triangle_ring()
    rng = random.Random(f"{name} {k}")
    certify = profiles_module._leaves_are_profiles
    seen = collections.Counter()
    for s_k, slots, leaves, kinds in certificate_batches(g, k, rng, batches):
        verdicts = [
            is_profile(g, k, tuple(Separation(*slots[x]) for x in iter_bits(leaf)), s_k=s_k)
            for leaf in leaves
        ]
        assert certify(g, s_k, slots, leaves) == all(verdicts), (kinds, leaves)
        for leaf, kind, verdict in zip(leaves, kinds, verdicts):
            assert certify(g, s_k, slots, [leaf]) == verdict, (kind, leaf)
        seen.update(zip(kinds, verdicts))
    assert seen["meet", False] and seen["profile", True]


def test_two_k4_census(graphs):
    # 9 profiles in total; the three regular ones point at the left K4, the
    # right K4, and the bridge edge (the bridge profile is easy to miss but
    # the unpruned oracle confirms it)
    g = graphs["FIX_2K4"]
    profs = enumerate_k_profiles(g, 2)
    assert len(profs) == 9
    regular = [p for p in profs if p.is_regular(g)]
    assert len(regular) == 3
    left, right = two_k4_side_profiles(g)
    assert left in regular and right in regular


def test_k2_profiles_at_k1():
    profs = enumerate_k_profiles(K2, 1)
    assert len(profs) == 2
    regular = [p for p in profs if p.is_regular(K2)]
    assert len(regular) == 1
    assert regular[0].chosen == (sep([], [0, 1]),)


def test_connected_fixtures_have_the_whole_graph_irregular_profile(graphs):
    # at k = 1 every connected graph has the profile {(V, ∅)}; from k = 2 on
    # no profile can contain (V, ∅) since it sits above everything
    for name in ("FIX_P4", "FIX_C4", "FIX_2K4", "FIX_GRID33"):
        g = graphs[name]
        top = Separation(g.vertices, 0)
        k1 = enumerate_k_profiles(g, 1)
        assert any(set(p.chosen) == {top} for p in k1)
        assert all(top not in p for p in enumerate_k_profiles(g, 2))


def test_profile_search_cap():
    grid = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(CapExceededError):
        enumerate_k_profiles(grid, 4, max_sk=5)


# ---------------------------------------------------------------------------
# flags

def test_k4_side_profiles_are_regular_robust_principal(graphs):
    g = graphs["FIX_2K4"]
    for p in two_k4_side_profiles(g):
        assert p.is_regular(g) and is_robust(g, p) and is_principal(g, p)


def test_irregular_profile_is_not_regular(graphs):
    g = graphs["FIX_P4"]
    top = Separation(g.vertices, 0)
    p = next(p for p in enumerate_k_profiles(g, 1) if top in p)
    assert not p.is_regular(g)


def test_regularity_reads_the_nontrivial_members(graphs):
    """`is_regular` scans `_nontrivial` only; on every profile of every
    fixture at k up to its pipeline k, and of the three-triangle ring at
    k = 3, it equals the scan over all of `chosen`."""
    cases = [(graphs[name], k) for name, top in PIPELINE_K.items() for k in range(1, top + 1)]
    seen = collections.Counter()
    for g, k in [*cases, (three_triangle_ring(), 3)]:
        for p in enumerate_k_profiles(g, k, max_sk=256):
            full_scan = not any(x.a == g.vertices for x in p.chosen)
            assert p.is_regular(g) == full_scan, (g, k, p.chosen)
            seen[full_scan] += 1
    assert seen[True] and seen[False]


@DIFFERENTIAL
@given(small_graphs())
def test_pipeline_profiles_match_flags_over_the_brute_universe(case):
    g, k = case
    assume(len(enumerate_separations(g, k)) <= 40)
    profs = enumerate_k_profiles(g, k)
    robust = [oracles.brute_is_robust(g, p.chosen) for p in profs]
    assert [is_robust(g, p) for p in profs] == robust
    expected = tuple(p for p, r in zip(profs, robust) if p.is_regular(g) and r)
    assert pipeline_profiles(g, profs) == expected


def larger_side_last(g, k):
    """The orientation of S_k that points every separation at its strictly
    larger side, ties to the lexicographically first one. It is consistent
    but breaks (P), so it is no profile."""
    return Profile(
        k,
        tuple(
            s if s.b.bit_count() > s.a.bit_count() else star(s)
            for s in enumerate_separations(g, k)
        ),
    )


def test_is_robust_matches_the_oracle_on_random_orientations():
    # Genuine profiles are all robust, so most cases are random orientations
    # of S_k, which break robustness often enough to tell a wrong check
    # from a right one.
    rng = random.Random(2019)
    checked = non_robust = 0
    while checked < 800:
        n, k = rng.randint(2, 7), rng.randint(2, 4)
        density = rng.random()
        g = Graph.from_edges(
            n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
        )
        s_k = enumerate_separations(g, k)
        if k > n or len(s_k) > 60:
            continue
        cases = [tuple(star(s) if rng.random() < 0.5 else s for s in s_k) for _ in range(3)]
        cases.append(larger_side_last(g, k).chosen)
        cases += [p.chosen for p in enumerate_k_profiles(g, k)[:2]]
        for chosen in cases:
            expected = oracles.brute_is_robust(g, chosen)
            assert is_robust(g, Profile(k, chosen)) == expected, (g, k, chosen)
            checked += 1
            non_robust += not expected
    assert non_robust >= checked / 10


def random_graph(rng, n):
    density = rng.random()
    return Graph.from_edges(
        n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
    )


def oriented(rng, s, verts, family):
    """One orientation of s: "uniform" flips a coin; "trivial" keeps every
    (X, V), X ≠ V, as it is and flips a coin for the rest; "co-small" turns
    (X, V) into (V, X) three times in four."""
    if s.b == verts and s.a != verts and family != "uniform":
        if family == "trivial" or rng.random() < 0.25:
            return s
        return star(s)
    return star(s) if rng.random() < 0.5 else s


def test_is_robust_matches_the_oracle_where_trivial_members_meet():
    # k runs up to n + 1, so (V, V) and trivial members (X, V) of every
    # size occur; the three families weight the trivial ones differently,
    # so that each case of `is_robust` meets orientations that break
    # robustness
    rng = random.Random(24)
    families = ("uniform", "trivial", "co-small")
    checked, non_robust = 0, collections.Counter()
    while checked < 450:
        n = rng.randint(1, 7)
        k = rng.randint(1, n + 1)
        g = random_graph(rng, n)
        s_k = enumerate_separations(g, k, max_k=n + 1)
        if len(s_k) > 40:
            continue
        family = families[checked % 3]
        chosen = tuple(oriented(rng, s, g.vertices, family) for s in s_k)
        expected = oracles.brute_is_robust(g, chosen)
        assert is_robust(g, Profile(k, chosen)) == expected, (g, k, chosen)
        checked += 1
        non_robust[family] += not expected
    assert all(non_robust[family] >= 10 for family in families), non_robust


def test_a_trivial_witness_breaks_robustness_on_the_four_cycle():
    # r = (V, V) and x = ({0, 1, 2}, V) break robustness through the
    # trivial j2* = ({1, 2, 3}, V): t = ({1, 2, 3}, {0, 1, 2}) separates,
    # as 0 and 3 are not adjacent
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    verts = g.vertices
    held = [Separation(verts, verts), sep([0, 1, 2], range(4)), sep([1, 2, 3], range(4))]
    r, t = held[0], sep([1, 2, 3], [0, 1, 2])
    assert [star(join(r, t)), star(join(r, star(t)))] == held[1:]
    assert max(join(r, t).order, join(r, star(t)).order) < r.order
    s_k = enumerate_separations(g, 5)
    rng = random.Random(5)
    for _ in range(20):
        chosen = tuple(
            next((x for x in held if canonical(x) == s), None)
            or oriented(rng, s, verts, "uniform")
            for s in s_k
        )
        assert not oracles.brute_is_robust(g, chosen)
        assert not is_robust(g, Profile(5, chosen))


def test_a_trivial_member_breaks_robustness_through_two_trivial_partners():
    # r = ({1, 2, 3, 4}, V) breaks robustness on the edgeless graph at
    # k = 5 through t = ({0, 1, 4}, {0, 2, 3}), whose two joins with r are
    # the inverses of the trivial members ({0, 2, 3}, V) and ({0, 1, 4}, V);
    # every other separation points to its larger side, so no other member
    # is trivial
    g = Graph.from_edges(5, [])
    verts = g.vertices
    held = [sep([1, 2, 3, 4], range(5)), sep([0, 2, 3], range(5)), sep([0, 1, 4], range(5))]
    r, t = held[0], sep([0, 1, 4], [0, 2, 3])
    assert {star(join(r, t)), star(join(r, star(t)))} == set(held[1:])
    chosen = tuple(
        next((x for x in held if canonical(x) == s), None)
        or (s if s.a.bit_count() >= s.b.bit_count() else star(s))
        for s in enumerate_separations(g, 5)
    )
    assert {x for x in chosen if x.b == verts != x.a} == set(held)
    assert not oracles.brute_is_robust(g, chosen)
    assert not is_robust(g, Profile(5, chosen))


def test_non_robust_and_non_principal_orientations_are_refused(graphs):
    # Every regular profile of a graph met so far is robust, and every one
    # is principal (the lemma in `is_principal`), so the robustness filter
    # and the principality preconditions are pinned on orientations that
    # are not profiles.
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = larger_side_last(claw, 2)
    assert not is_profile(claw, 2, p.chosen)
    assert (p.is_regular(claw), is_robust(claw, p), is_principal(claw, p)) == (True, True, False)
    assert pipeline_profiles(claw, [p]) == (p,)
    with pytest.raises(PreconditionError, match="not principal"):
        separators_to_separations(claw, canonical_nested_separators(claw, [p]))
    with pytest.raises(PreconditionError, match="not principal"):
        build_totd(claw, [p])
    path = graphs["FIX_P4"]
    q = larger_side_last(path, 3)
    assert (q.is_regular(path), is_robust(path, q), is_principal(path, q)) == (True, False, True)
    assert pipeline_profiles(path, [q]) == ()


@settings(max_examples=100)
@given(small_graphs(max_k=4))
def test_regular_profiles_are_the_principal_ones_on_random_graphs(case):
    """The lemma in `is_principal`'s docstring (regular ⇒ principal) and
    its converse, on every profile of the graph."""
    g, k = case
    assume(len(enumerate_separations(g, k)) <= 256)
    for p in enumerate_k_profiles(g, k, max_sk=256):
        assert is_principal(g, p) == p.is_regular(g)


def test_regular_profiles_are_the_principal_ones_on_fixtures(graphs):
    cases = [(g, k) for g in graphs.values() for k in range(1, 5)]
    cases += [(triangle_ring(), 3), (triangle_ring(pendant=True), 3)]
    checked = 0
    for g, k in cases:
        for p in enumerate_k_profiles(g, k, max_sk=256):
            assert is_principal(g, p) == p.is_regular(g)
            checked += 1
    assert checked == 58


def test_principal_flags_read_one_cut_table_for_profiles_of_every_order(graphs):
    """One `principal_flags` call over the profiles of every k ≤ 4 at once,
    its components computed for the largest k and read by each profile up
    to its own k, agrees with `is_principal` profile by profile."""
    seen = set()
    for g in graphs.values():
        profs = [p for k in range(1, 5) for p in enumerate_k_profiles(g, k, max_sk=256)]
        flags = principal_flags(g, profs)
        assert flags == tuple(is_principal(g, p) for p in profs)
        seen.update(flags)
    assert seen == {True, False}


def test_principal_implies_regular(graphs):
    for name in ("FIX_P4", "FIX_C4", "FIX_2K4", "FIX_2K2"):
        g = graphs[name]
        for k in (1, 2):
            for p in enumerate_k_profiles(g, k):
                if is_principal(g, p):
                    assert p.is_regular(g)


# ---------------------------------------------------------------------------
# irregular shapes
#
# The irregular-profile lemma: an irregular k-profile of G is either {(V, ∅)}
# on a connected G, or the orientation of S_k towards a vertex x that is not
# a cutvertex: every (A, B) with x ∈ B except ({x}, V).

def vertices_the_profile_points_to(g, p):
    """The non-cutvertices x for which p is the orientation towards x."""
    return [
        x
        for x in vertices_of(g.vertices)
        if len(g.components(1 << x)) <= len(g.components())
        and set(p.chosen)
        == {
            o
            for s in p.chosen
            for o in (s, star(s))
            if o.b >> x & 1 and o != Separation(1 << x, g.vertices)
        }
    ]


def test_irregular_whole_graph_shape(graphs):
    g = graphs["FIX_P4"]
    top = Separation(g.vertices, 0)
    p = next(p for p in enumerate_k_profiles(g, 1) if top in p)
    assert not p.is_regular(g)
    assert g.is_connected() and p.chosen == (top,)


def test_irregular_vertex_shape_on_p4(graphs):
    g = graphs["FIX_P4"]
    shapes = []
    for p in enumerate_k_profiles(g, 2):
        if not p.is_regular(g):
            assert Separation(g.vertices, 0) not in p
            shapes += vertices_the_profile_points_to(g, p)
    # the leaves are the only non-cutvertices of the path
    assert sorted(shapes) == [0, 3]


def test_every_fixture_irregular_profile_matches_a_lemma_shape(graphs):
    for name, g in graphs.items():
        for k in (1, 2):
            for p in enumerate_k_profiles(g, k):
                if p.is_regular(g):
                    continue
                whole_graph = g.is_connected() and p.chosen == (Separation(g.vertices, 0),)
                assert whole_graph or vertices_the_profile_points_to(g, p), (name, k, p)


def test_two_k2_has_no_whole_graph_irregular(graphs):
    g = graphs["FIX_2K2"]
    for p in enumerate_k_profiles(g, 1):
        assert p.is_regular(g)


# ---------------------------------------------------------------------------
# distinguishers

def test_two_k4_distinguishers_exact(graphs):
    g = graphs["FIX_2K4"]
    left, right = two_k4_side_profiles(g)
    dset = efficient_distinguishers(g, left, right)
    assert dset.order == 1
    assert set(dset.seps) == {
        canonical(sep([0, 1, 2, 3], [3, 4, 5, 6, 7])),
        canonical(sep([0, 1, 2, 3, 4], [4, 5, 6, 7])),
    }


def test_restriction_pair_is_indistinguishable(graphs):
    g = graphs["FIX_2K4"]
    k1_regular = next(p for p in enumerate_k_profiles(g, 1) if p.is_regular(g))
    left, _ = two_k4_side_profiles(g)
    dset = efficient_distinguishers(g, k1_regular, left)
    assert dset.order is None and not dset.seps


def test_distinguishability_symmetric_and_order_is_brute_minimum(graphs):
    for name in ("FIX_P4", "FIX_2K4", "FIX_2K2"):
        g = graphs[name]
        profs = enumerate_k_profiles(g, 2)
        for p, q in itertools.combinations(profs, 2):
            d1 = efficient_distinguishers(g, p, q)
            d2 = efficient_distinguishers(g, q, p)
            assert d1.order == d2.order
            assert set(d1.seps) == set(d2.seps)
            assert d1.order == oracles.brute_minimum_distinguishing_order(
                g, p.chosen, q.chosen
            )


@DIFFERENTIAL
@given(small_graphs())
def test_efficient_distinguishers_match_the_oracle(case):
    # profiles of S_k and of S_(k+1) together, so pairs of different k occur
    g, k = case
    assume(len(enumerate_separations(g, k + 1)) <= 40)
    profs = enumerate_k_profiles(g, k) + enumerate_k_profiles(g, k + 1)
    for p, q in itertools.permutations(profs, 2):
        dset = efficient_distinguishers(g, p, q)
        expected = oracles.brute_distinguishers(g, p.chosen, q.chosen)
        assert (dset.seps, dset.order) == (expected, expected[0].order if expected else None)


def test_efficient_distinguishers_match_the_oracle_on_orientations():
    # orientations of S_k and S_k' that are not profiles, co-small members
    # (V, X) included, so a trivial (X, V) of p is met through q's (V, X)
    rng = random.Random(23)
    checked = co_small = 0
    while checked < 300:
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        k, k2 = rng.randint(1, 4), rng.randint(1, 4)
        p, q = (
            Profile(
                order,
                tuple(oriented(rng, s, g.vertices, "uniform") for s in enumerate_separations(g, order)),
            )
            for order in (k, k2)
        )
        if p == q:
            continue
        dset = efficient_distinguishers(g, p, q)
        expected = oracles.brute_distinguishers(g, p.chosen, q.chosen)
        assert (dset.seps, dset.order) == (expected, expected[0].order if expected else None)
        checked += 1
        co_small += any(g.vertices in s and s.a != s.b for s in expected)
    assert co_small >= 30


def test_lattice_closure_of_distinguisher_sets(graphs):
    for name in ("FIX_P4", "FIX_2K4"):
        g = graphs[name]
        profs = enumerate_k_profiles(g, 2)
        for p, q in itertools.combinations(profs, 2):
            dset = efficient_distinguishers(g, p, q)
            toward_p = [p.orients(s) for s in dset.seps]
            for r, s in itertools.product(toward_p, repeat=2):
                assert canonical(join(r, s)) in dset.seps
                assert canonical(meet(r, s)) in dset.seps


# ---------------------------------------------------------------------------
# the corner lemmas

def in_dset(dset, c):
    """c is in the distinguisher set: of its order, and oriented oppositely
    by its pair."""
    return c.order == dset.order and distinguishes(dset.first, dset.second, c)


def opposite_corner_pairs(x, y):
    return ((join(x, y), join(star(x), star(y))), (join(x, star(y)), join(star(x), y)))


def crossing_equal_order_pairs(g, profiles):
    dsets = {}
    for i, j in itertools.combinations(range(len(profiles)), 2):
        dsets[(i, j)] = efficient_distinguishers(g, profiles[i], profiles[j])
    out = []
    for ka, kb in itertools.combinations(dsets, 2):
        da, db = dsets[ka], dsets[kb]
        if da.order != db.order:
            continue
        for x in da.seps:
            for y in db.seps:
                if x != y and not is_nested(x, y):
                    out.append((da, x, db, y))
    return out


def test_corner_equal_orders_on_triangle_ring(triring, triring_profiles):
    """The equal-order corner lemma: for crossing x and y in two
    distinguisher sets of equal order, either some opposite pair of corners
    has one corner in each set ("split"), or one opposite pair lies in the
    first set and one in the second ("both")."""
    cases = crossing_equal_order_pairs(triring, triring_profiles)
    assert len(cases) >= 100  # the ring's distinguishers cross massively
    kinds = set()
    for da, x, db, y in cases:
        pairs = opposite_corner_pairs(x, y)
        split = any(
            in_dset(da, c1) and in_dset(db, c2) or in_dset(db, c1) and in_dset(da, c2)
            for c1, c2 in pairs
        )
        both = any(in_dset(da, c1) and in_dset(da, c2) for c1, c2 in pairs) and any(
            in_dset(db, c1) and in_dset(db, c2) for c1, c2 in pairs
        )
        assert split or both, (x, y)
        kinds.add("split" if split else "both")
    assert kinds == {"split", "both"}


def test_opposite_corners_reduce_summed_crossing_numbers(triring, triring_profiles):
    """For crossing equal-order inputs, every pair of opposite corners has
    strictly smaller summed level-crossing numbers: each corner is nested
    with both inputs while the inputs cross each other."""
    g = triring
    dsets = {}
    for i, j in itertools.combinations(range(len(triring_profiles)), 2):
        dsets[(i, j)] = efficient_distinguishers(g, triring_profiles[i], triring_profiles[j])
    level = {s for d in dsets.values() for s in d.seps}

    def cn(x):
        return sum(1 for y in level if y != x and not is_nested(x, y))

    cases = crossing_equal_order_pairs(g, triring_profiles)
    assert cases
    for _, x, _, y in cases:
        for c1, c2 in opposite_corner_pairs(x, y):
            assert cn(c1) + cn(c2) < cn(x) + cn(y)


def crossing_unequal_order_pairs(g, profiles):
    dsets = {}
    for i, j in itertools.combinations(range(len(profiles)), 2):
        dsets[(i, j)] = efficient_distinguishers(g, profiles[i], profiles[j])
    out = []
    for ka, kb in itertools.combinations(dsets, 2):
        da, db = dsets[ka], dsets[kb]
        if da.order is None or db.order is None or da.order == db.order:
            continue
        lo, hi = (da, db) if da.order < db.order else (db, da)
        for x in lo.seps:
            for y in hi.seps:
                if not is_nested(x, y):
                    out.append((lo, x, hi, y))
    return out


def test_corner_unequal_orders_on_doubled_bridge_ring(k5ring, k5ring_profiles):
    """The unequal-order corner lemma on the doubled K5-K5 link, which forces
    an order-3 distinguisher pair whose members cross the order-2 ring
    splits: for every crossing x (lower order) and y (higher), some join of
    x or x* with y or y* has the higher set's order and distinguishes its
    pair."""
    from tangleforge.separators import separator_nested

    g = k5ring
    cases = crossing_unequal_order_pairs(g, k5ring_profiles)
    assert len(cases) >= 100
    for lo_set, x, hi_set, y in cases:
        hits = [c for pair in opposite_corner_pairs(x, y) for c in pair if in_dset(hi_set, c)]
        assert hits, (x, y)
        # when a corner's separator misses a tight side of the lower input,
        # it is nested with it at the separator level
        x_sep = x.separator
        tight = [comp for comp in g.components(x_sep) if g.neighbours(comp) == x_sep]
        for c in hits:
            if any(not comp & c.separator for comp in tight):
                assert separator_nested(g, c.separator, x_sep)


def test_no_crossing_unequal_order_distinguishers_on_small_graphs(graphs, triring, triring_profiles):
    """Crossing efficient distinguishers of strictly different orders do not
    occur on any fixture or on the triangle ring: an order-m separation
    crossing an order-n tight separation needs hanging structure these
    graphs lack. The scan documents the vacuity."""
    found = []
    for name in ("FIX_P4", "FIX_C4", "FIX_2K4", "FIX_2K2"):
        g = graphs[name]
        profs = list(enumerate_k_profiles(g, 2)) + list(enumerate_k_profiles(g, 1))
        dsets = [
            efficient_distinguishers(g, p, q)
            for p, q in itertools.combinations(profs, 2)
        ]
        for da, db in itertools.combinations([d for d in dsets if d.seps], 2):
            if da.order == db.order:
                continue
            for x in da.seps:
                for y in db.seps:
                    if not is_nested(x, y):
                        found.append((name, x, y))
    assert not found
