"""Tree sets and tree-decompositions: the orientation-based realisation of
regular tree sets, torsos, and the tree of tree-decompositions."""

import collections
import dataclasses
import itertools
import random

import pytest

from tangleforge.core import (
    Graph,
    Separation,
    canonical,
    iter_bits,
    mask_of,
    star,
    vertices_of,
)
from tangleforge.errors import CertificationError, PreconditionError
from tangleforge.oracles import (
    brute_consistent_orientations,
    brute_induced_separations,
    brute_treedecomposition_violations,
)
from tangleforge.profiles import (
    efficient_distinguishers,
    enumerate_k_profiles,
    pipeline_profiles,
)
from tangleforge.separators import canonical_nested_separators, separator_sort_key
from tangleforge.treedec import (
    TreeDecomposition,
    build_totd,
    certify_totd,
    induced_separations,
    torso,
    treeset_to_treedecomposition,
    verify_treedecomposition,
)
from tangleforge.verify import random_regular_tree_set, regular_separations


def sep(a, b):
    return Separation(mask_of(a), mask_of(b))


# ---------------------------------------------------------------------------
# tree set -> tree-decomposition

def test_single_separation_on_path():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    td = treeset_to_treedecomposition(p3, [sep([0, 1], [1, 2])])
    assert sorted(vertices_of(bag) for bag in td.bags) == [(0, 1), (1, 2)]


def test_empty_tree_set_gives_single_bag(graphs):
    g = graphs["FIX_P4"]
    td = treeset_to_treedecomposition(g, [])
    assert td.bags == (g.vertices,)


def test_two_k4_tree_set(graphs):
    g = graphs["FIX_2K4"]
    n_set = [sep([0, 1, 2, 3], [3, 4, 5, 6, 7]), sep([0, 1, 2, 3, 4], [4, 5, 6, 7])]
    td = treeset_to_treedecomposition(g, n_set)
    bags = sorted(vertices_of(bag) for bag in td.bags)
    assert bags == [(0, 1, 2, 3), (3, 4), (4, 5, 6, 7)]
    # the tree is a path with the {3,4} bag in the middle
    middle = td.bags.index(mask_of([3, 4]))
    assert sum(1 for e in td.edges if middle in e) == 2


def test_small_members_rejected(graphs):
    g = graphs["FIX_P4"]
    with pytest.raises(PreconditionError):
        treeset_to_treedecomposition(g, [sep([0], [0, 1, 2, 3])])


def test_crossing_members_rejected(graphs):
    g = graphs["FIX_C4"]
    with pytest.raises(PreconditionError):
        treeset_to_treedecomposition(
            g, [sep([0, 1, 2], [2, 3, 0]), sep([1, 2, 3], [3, 0, 1])]
        )


def test_non_separation_rejected(graphs):
    with pytest.raises(PreconditionError):
        treeset_to_treedecomposition(graphs["FIX_P4"], [sep([0, 1], [2, 3])])


def test_roundtrip_on_random_regular_tree_sets(graphs):
    rng = random.Random(5)
    pools = {name: regular_separations(g) for name, g in graphs.items()}
    for trial in range(25):
        name = sorted(graphs)[trial % len(graphs)]
        g = graphs[name]
        n_set = random_regular_tree_set(pools[name], rng, max_size=rng.randint(1, 8))
        td = treeset_to_treedecomposition(g, n_set)
        assert set(induced_separations(td)) == set(n_set)
        assert verify_treedecomposition(g, td).ok


def node_orientations(td, seps):
    """The orientation of `seps` at each node of td, as a 0/1 vector (0 for
    seps[i], 1 for its inverse), read off the tree alone: the separation
    induced by an edge (u, v) points to the side of v."""
    nodes = range(len(td.bags))
    adj = {t: set() for t in nodes}
    for u, v in td.edges:
        adj[u].add(v)
        adj[v].add(u)
    pick = {x: (i, o) for i, s in enumerate(seps) for o, x in enumerate((s, star(s)))}
    vectors = {t: [None] * len(seps) for t in nodes}
    for u, v in td.edges:
        side = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            for z in adj[w] - side - {v}:
                side.add(z)
                stack.append(z)
        a = b = 0
        for t in nodes:
            if t in side:
                a |= td.bags[t]
            else:
                b |= td.bags[t]
        for t in nodes:
            i, o = pick[Separation(b, a) if t in side else Separation(a, b)]
            vectors[t][i] = o
    return [tuple(vectors[t]) for t in nodes]


def test_nodes_and_edges_match_the_consistent_orientation_oracle(graphs):
    """The nodes are the consistent orientations, sorted, and the edges join
    those that differ at one separation, on 2,000 seeded regular tree sets
    of at most 10 separations, on the fixtures and on random graphs."""
    rng = random.Random(25)
    pool = list(graphs.values())
    for _ in range(35):
        n = rng.randint(5, 7)
        pool.append(
            Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        )
    pool = [(g, regular_separations(g)) for g in pool]
    sizes = set()
    for _ in range(2000):
        g, regular = rng.choice(pool)
        seps = random_regular_tree_set(regular, rng, max_size=rng.randint(0, 10))
        td = treeset_to_treedecomposition(g, seps)
        ref = brute_consistent_orientations(seps)
        assert len(td.bags) == len(ref)
        assert node_orientations(td, seps) == ref
        assert td.edges == tuple(
            (a, b)
            for a, b in itertools.combinations(range(len(ref)), 2)
            if sum(map(int.__ne__, ref[a], ref[b])) == 1
        )
        sizes.add(len(seps))
    assert sizes == set(range(11))


def test_star_with_twenty_leaves_gives_a_star_tree():
    """K_{1,20}: each leaf's separation ({c, leaf}, V - leaf) is one edge of a
    star tree around the bag {c}, with bag {c, leaf} at the leaf."""
    g = Graph.from_edges(21, [(0, leaf) for leaf in range(1, 21)])
    leaves = [Separation(mask_of([0, leaf]), g.vertices & ~(1 << leaf)) for leaf in range(1, 21)]
    td = treeset_to_treedecomposition(g, leaves)
    assert len(td.bags) == 21
    centre = td.bags.index(1)
    assert sorted(td.edges) == sorted(tuple(sorted((centre, t))) for t in range(21) if t != centre)
    assert sorted(bag for t, bag in enumerate(td.bags) if t != centre) == sorted(s.a for s in leaves)
    assert set(induced_separations(td)) == {canonical(s) for s in leaves}


# ---------------------------------------------------------------------------
# verification

def test_verify_flags_dropped_bag_vertex(graphs):
    g = graphs["FIX_P4"]
    td = treeset_to_treedecomposition(g, [sep([0, 1], [1, 2, 3])])
    broken = type(td)(tuple(bag & ~(1 << 3) for bag in td.bags), td.edges)
    rep = verify_treedecomposition(g, broken)
    assert any(axiom == "T1" for axiom, _ in rep.violations)


def test_verify_flags_edge_outside_bags(graphs):
    g = graphs["FIX_C4"]
    td = treeset_to_treedecomposition(g, [])
    broken = type(td)((mask_of([0, 1, 2]),), td.edges)
    rep = verify_treedecomposition(g, broken)
    assert any(axiom == "T1" for axiom, _ in rep.violations) or any(
        axiom == "T2" for axiom, _ in rep.violations
    )


def test_verify_flags_a_middle_bag_missing_a_vertex_both_ends_keep(graphs):
    """The path decomposition {0, 1, 2}, {1, 2}, {2, 3} of P4 with vertex 2
    dropped from the middle bag: both end bags keep 2, and only (T3)
    fires."""
    g = graphs["FIX_P4"]
    bags = (mask_of([0, 1, 2]), mask_of([1]), mask_of([2, 3]))
    td = TreeDecomposition(bags, ((0, 1), (1, 2)))
    assert verify_treedecomposition(g, td).violations == [("T3", 2)]
    assert brute_treedecomposition_violations(g, td) == [("T3", (0, 1, 2)), ("T3", (2, 1, 0))]


def corruptions(td, rng):
    """td, then td with a vertex dropped from one bag, with one edge re-hung
    from one of its ends to another node, with one edge deleted, and with
    that edge re-hung to node len(td.bags), which does not exist; the last
    three only where the tree has an edge, and re-hanging to another node
    only where it has a third node."""
    out = [td]
    t = rng.choice([t for t, bag in enumerate(td.bags) if bag])
    bags = list(td.bags)
    bags[t] &= ~(1 << rng.choice(vertices_of(bags[t])))
    out.append(TreeDecomposition(tuple(bags), td.edges))
    if td.edges:
        i = rng.randrange(len(td.edges))
        u, v = td.edges[i]
        others = [t for t in range(len(td.bags)) if t not in (u, v)]
        if others:
            edges = (*td.edges[:i], (u, rng.choice(others)), *td.edges[i + 1 :])
            out.append(TreeDecomposition(td.bags, edges))
        out.append(TreeDecomposition(td.bags, td.edges[:i] + td.edges[i + 1 :]))
        edges = (*td.edges[:i], (u, len(td.bags)), *td.edges[i + 1 :])
        out.append(TreeDecomposition(td.bags, edges))
    return out


def test_certificate_and_induced_separations_match_the_references(graphs):
    """On 2,000 and more seeded decompositions, valid ones and four
    corruptions of them, the certificate agrees with the pairwise
    reference: the tree verdict and the (T1) and (T2) payloads are equal,
    and the (T3) vertices are those of bags[t1] ∩ bags[t3] missing from
    bags[t2] over the reference's triples. On every tree the induced
    separations equal the per-edge reference, and on every decomposition
    whose tree is no tree induced_separations raises PreconditionError."""
    rng = random.Random(26)
    pool = list(graphs.values())
    for _ in range(30):
        n = rng.randint(5, 8)
        pool.append(
            Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        )
    pool = [(g, regular_separations(g)) for g in pool]
    seen = collections.Counter()
    for _ in range(600):
        g, regular = rng.choice(pool)
        seps = random_regular_tree_set(regular, rng, max_size=rng.randint(0, 10))
        for td in corruptions(treeset_to_treedecomposition(g, seps), rng):
            got = verify_treedecomposition(g, td).violations
            ref = brute_treedecomposition_violations(g, td)
            assert [x for x in got if x[0] != "T3"] == [x for x in ref if x[0] != "T3"]
            split = {
                v
                for _, (t1, t2, t3) in (x for x in ref if x[0] == "T3")
                for v in iter_bits(td.bags[t1] & td.bags[t3] & ~td.bags[t2])
            }
            assert [v for axiom, v in got if axiom == "T3"] == sorted(split)
            if ref[:1] != [("tree", "decomposition tree is not a tree")]:
                assert induced_separations(td) == brute_induced_separations(td)
            else:
                with pytest.raises(PreconditionError):
                    induced_separations(td)
            seen.update(axiom for axiom, _ in ref)
            seen["decompositions"] += 1
    assert seen["decompositions"] >= 2000
    assert all(seen[axiom] for axiom in ("tree", "T1", "T2", "T3"))


# ---------------------------------------------------------------------------
# torsos

def test_torso_of_leaf_bag_is_k4(graphs):
    g = graphs["FIX_2K4"]
    n_set = [sep([0, 1, 2, 3], [3, 4, 5, 6, 7]), sep([0, 1, 2, 3, 4], [4, 5, 6, 7])]
    td = treeset_to_treedecomposition(g, n_set)
    leaf = td.bags.index(mask_of([0, 1, 2, 3]))
    h = torso(g, td, leaf)
    assert h.vertices == mask_of([0, 1, 2, 3])
    for u, v in itertools.combinations(range(4), 2):
        assert h.adj[u] >> v & 1


def test_torso_of_single_bag_is_graph(graphs):
    """The one node's torso is G; nodes outside range(len(td.bags)) are
    refused rather than read off the end of the bag tuple."""
    g = graphs["FIX_P4"]
    td = treeset_to_treedecomposition(g, [])
    assert torso(g, td, 0) == g
    for t in (-1, len(td.bags)):
        with pytest.raises(PreconditionError):
            torso(g, td, t)


def test_torso_of_middle_bag_is_bridge_edge(graphs):
    g = graphs["FIX_2K4"]
    n_set = [sep([0, 1, 2, 3], [3, 4, 5, 6, 7]), sep([0, 1, 2, 3, 4], [4, 5, 6, 7])]
    td = treeset_to_treedecomposition(g, n_set)
    middle = td.bags.index(mask_of([3, 4]))
    h = torso(g, td, middle)
    assert h.vertices == mask_of([3, 4])
    assert h.adj[3] >> 4 & 1


def test_torso_completes_adhesion_sets(graphs):
    # C4 split along the {1,3} diagonal: each bag's torso gains the 1-3
    # edge, which the cycle itself does not have
    g = graphs["FIX_C4"]
    td = treeset_to_treedecomposition(g, [sep([0, 1, 3], [1, 2, 3])])
    assert not g.adj[1] >> 3 & 1
    for t in range(len(td.bags)):
        h = torso(g, td, t)
        assert h.adj[1] >> 3 & 1 and h.adj[3] >> 1 & 1


# ---------------------------------------------------------------------------
# trees of tree-decompositions

def totd_profiles(g):
    return pipeline_profiles(g, enumerate_k_profiles(g, 2))


def test_build_totd_two_k4(graphs):
    g = graphs["FIX_2K4"]
    profs = totd_profiles(g)
    totd = build_totd(g, profs)  # certification runs inside
    assert totd.graph == g
    root_bags = sorted(vertices_of(bag) for bag in totd.td.bags)
    assert root_bags == [(0, 1, 2, 3), (3, 4), (4, 5, 6, 7)]
    assert [c.graph for c in totd.children] == [torso(g, totd.td, t) for t in range(3)]
    out = totd.to_json()
    assert out["torso_of"] is None
    assert [c["torso_of"] for c in out["children"]] == [0, 1, 2]
    for child in totd.children:
        assert len(child.td.bags) == 1  # trivial decompositions
        assert not child.children


def test_build_totd_singleton_profile_set(graphs):
    g = graphs["FIX_2K4"]
    profs = totd_profiles(g)[:1]
    totd = build_totd(g, profs)
    assert [d for d, _ in totd.walk()] == [0]
    assert totd.td.bags == (g.vertices,)


def test_build_totd_rejects_disconnected(graphs):
    g = graphs["FIX_2K2"]
    profs = list(enumerate_k_profiles(g, 1))
    with pytest.raises(PreconditionError):
        build_totd(g, profs)


def test_build_totd_equivariant_under_swap(graphs):
    g = graphs["FIX_2K4"]
    profs = totd_profiles(g)
    totd = build_totd(g, profs)
    swap = {v: 7 - v for v in range(8)}
    root_bags = sorted(vertices_of(bag) for bag in totd.td.bags)
    mapped = sorted(
        tuple(sorted(swap[v] for v in bag)) for bag in root_bags
    )
    assert mapped == root_bags
    child_sets = sorted(vertices_of(c.graph.vertices) for c in totd.children)
    mapped_children = sorted(tuple(sorted(swap[v] for v in vs)) for vs in child_sets)
    assert mapped_children == child_sets


def test_totd_distinguishes_every_pair(graphs):
    g = graphs["FIX_2K4"]
    profs = totd_profiles(g)
    totd = build_totd(g, profs)
    for p, q in itertools.combinations(profs, 2):
        dset = efficient_distinguishers(g, p, q)
        hit = False
        for s in dset.seps:
            for _, node in totd.walk():
                vt = node.graph.vertices
                if canonical(Separation(s.a & vt, s.b & vt)) in induced_separations(node.td):
                    hit = True
        assert hit


def test_totd_on_triangle_ring(triring, triring_profiles):
    totd = build_totd(triring, triring_profiles)
    # separators have size 2, so levels run to depth 2 with the real
    # decompositions at depth 1
    assert max(d for d, _ in totd.walk()) == 2
    assert len(totd.td.bags) == 1  # no size-1 separators: trivial root
    depth1 = [node for d, node in totd.walk() if d == 1]
    assert depth1 == list(totd.children) and len(depth1) == 1
    assert len(depth1[0].td.bags) == 5  # four triangles around a centre


def test_totd_is_a_frozen_value(triring, triring_profiles):
    """The tree and its decompositions can be neither reassigned nor edited
    in place, and two builds on one input are equal, hashable values."""
    totd = build_totd(triring, triring_profiles)
    with pytest.raises(dataclasses.FrozenInstanceError):
        totd.children = ()
    with pytest.raises(TypeError):
        totd.td.bags[0] = 0
    assert [d for d, _ in totd.walk()] == [0, 1, 2, 2, 2, 2, 2]
    again = build_totd(triring, triring_profiles)
    assert again == totd and hash(again) == hash(totd)


def test_certify_totd_refuses_corrupted_trees(graphs, triring, triring_profiles):
    """Each check of certify_totd fires, with its message, on a finished tree
    corrupted to break it. The triangle ring's tree is a root over one
    depth-1 node over five depth-2 nodes."""
    g, profs = triring, triring_profiles
    totd = build_totd(g, profs)
    nested = canonical_nested_separators(g, profs)
    separators = nested.separators  # all of size 2
    closure = sorted(
        {*separators, *(x & ~(1 << v) for x in separators for v in iter_bits(x))},
        key=separator_sort_key,
    )
    certify_totd(g, totd, closure, nested.distinguishers.values())
    pairs = [mask_of(e) for e in itertools.combinations(range(g.n), 2)]
    (mid,) = totd.children
    minus_0 = g.induced(g.vertices & ~1)

    def with_mid(**fields):
        return dataclasses.replace(totd, children=(dataclasses.replace(mid, **fields),))

    def with_leaf(**fields):
        return with_mid(children=(dataclasses.replace(mid.children[0], **fields), *mid.children[1:]))

    cases = [
        (with_leaf(td=mid.td), closure, "node at depth 2 induces a separation of order 2"),
        (dataclasses.replace(totd, graph=minus_0, td=treeset_to_treedecomposition(minus_0, [])), closure,
         r"separator \(0, 2\) lies in 0 torsos at depth 0"),
        (totd, closure + pairs, "torso at depth 2 meets 2 components"),
        (with_mid(children=mid.children[:-1]), closure, "node has 4 children but 5 torsos"),
        (with_leaf(graph=mid.graph), closure, "child graph is not the stated torso"),
        (with_mid(children=(mid.children[1], mid.children[0], *mid.children[2:])), closure,
         "child graph is not the stated torso"),
    ]
    for broken, cl, message in cases:
        with pytest.raises(CertificationError, match=message):
            certify_totd(g, broken, cl, nested.distinguishers.values())
    g = graphs["FIX_2K4"]
    profs = enumerate_k_profiles(g, 2)
    totd = build_totd(g, pipeline_profiles(g, profs))
    every_pair = [efficient_distinguishers(g, p, q) for p, q in itertools.combinations(profs, 2)]
    with pytest.raises(CertificationError, match="a profile pair is not distinguished"):
        certify_totd(g, totd, [mask_of([3]), mask_of([4])], every_pair)
