"""Profiles: enumeration against the unpruned oracle, flags, the irregular
shape lemma, distinguisher sets and the two corner lemmas on crossing
efficient distinguishers."""

import itertools
import random

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
    join,
    mask_of,
    meet,
    sep_sort_key,
    separation_universe,
    star,
    vertices_of,
)
from tangleforge.errors import CapExceededError, CertificationError, PreconditionError
from tangleforge.fixtures import doubled_bridge_ring, triangle_ring
from tangleforge.profiles import (
    Profile,
    ProfileFlags,
    distinguishes,
    efficient_distinguishers,
    enumerate_k_profiles,
    is_consistent,
    is_principal,
    is_profile,
    is_robust,
    pipeline_profiles,
    profile_flags,
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
        assert separation_universe(seps, closed=False).elements == expected


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
        flags = profile_flags(g, p)
        assert flags.regular and flags.robust and flags.principal


def test_irregular_profile_is_not_regular(graphs):
    g = graphs["FIX_P4"]
    top = Separation(g.vertices, 0)
    p = next(p for p in enumerate_k_profiles(g, 1) if top in p)
    assert not profile_flags(g, p).regular


@DIFFERENTIAL
@given(small_graphs())
def test_pipeline_profiles_match_flags_over_the_brute_universe(case):
    g, k = case
    assume(len(enumerate_separations(g, k)) <= 40)
    profs = enumerate_k_profiles(g, k)
    flags = [profile_flags(g, p) for p in profs]
    robust = [oracles.brute_is_robust(g, p.chosen) for p in profs]
    assert [f.robust for f in flags] == robust
    expected = tuple(p for p, f, r in zip(profs, flags, robust) if f.regular and r)
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


def test_non_robust_and_non_principal_orientations_are_refused(graphs):
    # Every regular profile of a graph met so far is robust, and every one
    # is principal (the lemma in `is_principal`), so the robustness filter
    # and the principality preconditions are pinned on orientations that
    # are not profiles.
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = larger_side_last(claw, 2)
    assert not is_profile(claw, 2, p.chosen)
    assert profile_flags(claw, p) == ProfileFlags(regular=True, robust=True, principal=False)
    assert pipeline_profiles(claw, [p]) == (p,)
    with pytest.raises(PreconditionError, match="not principal"):
        separators_to_separations(claw, canonical_nested_separators(claw, [p]))
    with pytest.raises(PreconditionError, match="not principal"):
        build_totd(claw, [p])
    path = graphs["FIX_P4"]
    q = larger_side_last(path, 3)
    assert profile_flags(path, q) == ProfileFlags(regular=True, robust=False, principal=True)
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


def test_principal_implies_regular(graphs):
    for name in ("FIX_P4", "FIX_C4", "FIX_2K4", "FIX_2K2"):
        g = graphs[name]
        for k in (1, 2):
            for p in enumerate_k_profiles(g, k):
                flags = profile_flags(g, p)
                if flags.principal:
                    assert flags.regular


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
