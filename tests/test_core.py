"""Core separation universe: enumeration against the brute-force oracle,
lattice arithmetic, nestedness, corners, classification, tightness and the
universe axiom checker."""

import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangleforge import core, oracles
from tangleforge.core import (
    Graph,
    Separation,
    UniverseView,
    all_separations,
    canonical,
    enumerate_separations,
    graph_universe,
    is_nested,
    is_separation,
    is_small,
    is_tight,
    join,
    leq,
    mask_of,
    meet,
    sep_sort_key,
    separation_to_json,
    star,
    verify_universe,
    vertices_of,
)
from tangleforge.errors import CapExceededError, InputError, PreconditionError
from tangleforge.fixtures import FIXTURES, doubled_bridge_ring, triangle_ring
from tangleforge.verify import _random_graph

from jsonforms import separation_from_json

K2 = Graph.from_edges(2, [(0, 1)])


def sep(a, b):
    return Separation(mask_of(a), mask_of(b))


# ---------------------------------------------------------------------------
# graphs

def test_graph_rejects_self_loop():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 0)])


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(InputError):
        Graph(2, (0b10, 0b00))


def test_components_and_induced(graphs):
    g = graphs["FIX_2K4"]
    assert g.components(1 << 3) == (mask_of([0, 1, 2]), mask_of([4, 5, 6, 7]))
    sub = g.induced(mask_of([0, 1, 2, 3]))
    assert sub.vertices == mask_of([0, 1, 2, 3])
    assert sub.components() == (mask_of([0, 1, 2, 3]),)


def test_components_are_the_reachability_classes_in_least_vertex_order():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        g = Graph.from_edges(n, edges)
        removed = rng.getrandbits(n)
        reach = {v: 1 << v for v in range(n) if not removed >> v & 1}
        for _ in range(n):
            for v in reach:
                for w in vertices_of(g.adj[v] & ~removed):
                    reach[v] |= reach[w]
        classes = tuple(sorted(set(reach.values()), key=lambda c: c & -c))
        assert g.components(removed) == classes


def assert_components_each(g, xs):
    assert g.components_each(xs) == [g.components(x) for x in xs]


def test_components_each_on_every_graph_with_at_most_five_vertices():
    """Every labelled graph on 0..n−1, n ≤ 5: the list of every X ⊆ V, that
    list reversed, with repeats, and the empty list."""
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            xs = list(range(1 << n))
            for listed in (xs, xs[::-1], xs + xs[::2] + [xs[-1]] * 3, []):
                assert_components_each(g, listed)


def test_components_each_on_the_separator_walk_of_random_graphs():
    """2,000 seeded graphs on 1–16 vertices, edgeless, sparse (mostly
    disconnected) and dense, a quarter of them induced subgraphs with gaps
    in V, on the walk over the X with |X| < k of `small_separators` at
    k = 1 to 4; and a random list of X, absent vertices included."""
    rng = random.Random(59)
    seen = {"edgeless": 0, "disconnected": 0}
    for _ in range(2000):
        n = rng.randint(1, 16)
        p = rng.choice((0.0, 0.1, 0.2, 0.4, 0.7))
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        if rng.random() < 0.25:
            g = g.induced(rng.getrandbits(n))
        seen["edgeless"] += not g.edges()
        seen["disconnected"] += len(g.components()) > 1
        bits = [1 << v for v in vertices_of(g.vertices)]
        for k in range(1, 5):
            assert_components_each(g, core._lex_subsets(bits, min(k - 1, len(bits))))
        assert_components_each(g, [rng.getrandbits(n) for _ in range(rng.randint(1, 20))])
    assert min(seen.values()) > 200, seen


def test_components_each_on_the_fixtures_and_rings():
    graphs = [fx.graph for fx in FIXTURES.values()] + [
        ring_of_three_triangles(),
        triangle_ring(),
        triangle_ring(pendant=True),
        doubled_bridge_ring(),
    ]
    for g in graphs:
        bits = [1 << v for v in vertices_of(g.vertices)]
        for k in range(1, 5):
            assert_components_each(g, core._lex_subsets(bits, min(k - 1, len(bits))))


@pytest.mark.parametrize(
    "g,k,calls", [(doubled_bridge_ring(), 3, 12), (FIXTURES["FIX_C4"].graph, 2, 0)]
)
def test_enumeration_runs_components_on_the_separators_that_split_g(monkeypatch, g, k, calls):
    """Of the 137 X with |X| < 3 on the doubled bridge ring, 12 split G and
    go through `components`; on the 4-cycle no X with |X| < 2 does."""
    count = [0]
    real = Graph.components

    def components(self, *args):
        count[0] += 1
        return real(self, *args)

    monkeypatch.setattr(Graph, "components", components)
    enumerate_separations(g, k)
    assert count[0] == calls


# ---------------------------------------------------------------------------
# enumeration vs oracle

@pytest.mark.parametrize(
    "name,k",
    [("FIX_P4", 2), ("FIX_P4", 3), ("FIX_C4", 2), ("FIX_C4", 3), ("FIX_2K2", 2), ("FIX_2K4", 2)],
)
def test_enumeration_matches_pair_scan_oracle(graphs, name, k):
    g = graphs[name]
    assert enumerate_separations(g, k) == oracles.brute_separations(g, k)


def test_each_separation_is_built_once(monkeypatch):
    """On seeded random graphs, S_k has exactly the m separations that the
    cap counts from the components of G − X, each canonically oriented
    once (so none is built twice and merged), and equals the pair-scan
    oracle."""
    rng = random.Random(29)
    built = [0]

    def counting(s):
        built[0] += 1
        return canonical(s)

    monkeypatch.setattr(core, "canonical", counting)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 6))
        for k in range(1, g.n + 2):
            m = sum(
                2 ** (len(comps) - 1) if comps else 1
                for size in range(min(k, g.n + 1))
                for x in map(mask_of, itertools.combinations(range(g.n), size))
                for comps in [g.components(x)]
            )
            built[0] = 0
            seps = enumerate_separations(g, k, max_k=k, max_sk=m)
            assert len(seps) == built[0] == m
            assert seps == oracles.brute_separations(g, k)
            with pytest.raises(CapExceededError):
                enumerate_separations(g, k, max_k=k, max_sk=m - 1)


def ring_of_three_triangles():
    edges = [(3 * i + a, 3 * i + b) for i in range(3) for a, b in ((0, 1), (1, 2), (0, 2))]
    return Graph.from_edges(9, edges + [(2, 3), (5, 6), (8, 0)])


def s_k_size(g, k):
    """|S_k| counted from the components of G − X for every X ⊆ V with
    |X| < k: 2^(c − 1) for c ≥ 1 components, 1 for X = V."""
    return sum(
        2 ** (len(comps) - 1) if comps else 1
        for size in range(min(k, g.num_vertices + 1))
        for x in map(mask_of, itertools.combinations(vertices_of(g.vertices), size))
        for comps in [g.components(x)]
    )


def test_enumeration_order_with_gaps_in_v():
    """The block order of `enumerate_separations` reads "prefix" against V
    listed ascending, not against 0..n−1. Seeded random graphs on 1–7
    vertices, about 40% of them induced subgraphs with gaps in V, at every
    k from 1 to |V| + 1, equal the pair-scan oracle tuple for tuple. The
    two rings under seeded relabellings, where the oracle's 4^n scan is
    out of reach, come out sorted by `sep_sort_key`, distinct and as many
    as the components count; the three-triangle ring's S_3 is also the
    order < 3 part of `all_separations`."""
    rng = random.Random(27)
    gapped = 0
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 7))
        if rng.random() < 0.4:
            g = g.induced(rng.getrandbits(g.n))
            gapped += g.vertices != (1 << g.vertices.bit_length()) - 1
        for k in range(1, g.num_vertices + 2):
            assert enumerate_separations(g, k, max_k=8) == oracles.brute_separations(g, k)
    assert gapped >= 40
    for name, g in (("triangle_ring3", ring_of_three_triangles()), ("doubled", doubled_bridge_ring())):
        rng = random.Random(name)
        for _ in range(3):
            images = list(range(g.n))
            rng.shuffle(images)
            h = g.relabelled(dict(enumerate(images)))
            seps = enumerate_separations(h, 3, max_sk=256)
            assert seps == tuple(sorted(set(seps), key=sep_sort_key))
            assert len(seps) == s_k_size(h, 3)
            if name == "triangle_ring3":
                assert set(seps) == {s for s in all_separations(h) if s.order < 3}


def calls_inside(fn, codes, *args, **kwargs):
    """fn(*args, **kwargs), and the number of calls to each of the given
    code objects made inside it."""
    calls = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, [calls[code] for code in codes]


@pytest.mark.parametrize("name,expected", [("doubled", (12, 149)), ("triangle_ring3", (12, 58))])
def test_sort_keys_for_the_open_separations_only(name, expected):
    """S_3 has 149 separations on `doubled_bridge_ring()` and 58 on the
    three-triangle ring, 12 of them open on each. The trivial ones come
    out of the walk over X in order, so `sep_sort_key` runs on the open
    ones only, and `canonical` once per separation."""
    g = doubled_bridge_ring() if name == "doubled" else ring_of_three_triangles()
    codes = (core.sep_sort_key.__code__, core.canonical.__code__)
    seps, calls = calls_inside(enumerate_separations, codes, g, 3, max_sk=256)
    assert tuple(calls) == expected
    assert len(seps) == expected[1]
    assert sum(s.a != g.vertices != s.b for s in seps) == expected[0]


def test_all_separations_builds_each_separation_once(monkeypatch):
    """all_separations orients each unoriented separation canonically once
    (none is reached as both (A, B) and (B, A)), on the three graphs of the
    lollipop's demo chain and on seeded random graphs, where it equals the
    pair-scan oracle over every order."""
    from tangleforge.cli import _demo_chain

    built = [0]

    def counting(s):
        built[0] += 1
        return canonical(s)

    monkeypatch.setattr(core, "canonical", counting)
    lollipop = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    sizes = []
    for z in _demo_chain(lollipop):
        built[0] = 0
        sizes.append(len(all_separations(lollipop.induced(z))))
        assert built[0] == sizes[-1]
    assert sizes == [8, 19, 108]
    rng = random.Random(43)
    for _ in range(200):
        g = _random_graph(rng, rng.randint(0, 7))
        built[0] = 0
        seps = all_separations(g)
        assert built[0] == len(seps) == len(set(seps))
        assert set(seps) == set(oracles.brute_separations(g, g.n + 1))
        assert list(seps) == sorted(seps, key=sep_sort_key)


def test_graph_universe_walk_gives_the_sorted_order():
    """graph_universe lists s, then s*, in one walk over the sorted canonical
    list (`sorted_universe`). On seeded random graphs and induced subgraphs
    that is the order in which the oracle sorts both orientations, in the
    full branch and in the truncated branch at every order m < n."""
    rng = random.Random(41)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(1, 7))
        if rng.random() < 0.5:
            g = g.induced(rng.randint(1, g.vertices))
        n = g.num_vertices
        full = graph_universe(g)
        assert full.closed
        assert full.elements == oracles.brute_universe_elements(all_separations(g))
        for m in range(n):
            truncated = graph_universe(g, max_order=m)
            assert not truncated.closed
            assert truncated.elements == oracles.brute_universe_elements(
                enumerate_separations(g, m + 1, max_n=n, max_k=m + 1)
            )


def test_small_separators_walk_the_separators_of_enumerate_separations():
    """small_separators(g, k) maps every X with |X| < k to the components of
    G − X, in the lexicographic order of X's vertex tuple, the order in
    which enumerate_separations walks its separators and lists its trivial
    separations, on seeded random graphs with gaps in V at every k from 0
    to |V| + 1."""
    rng = random.Random(43)
    for _ in range(100):
        g = _random_graph(rng, rng.randint(1, 6))
        if rng.random() < 0.4:
            g = g.induced(rng.getrandbits(g.n))
        for k in range(g.num_vertices + 2):
            xs = sorted(
                (x for size in range(min(k, g.num_vertices + 1))
                 for x in oracles.subsets_of_size(g.vertices, size)),
                key=vertices_of,
            )
            cuts = core.small_separators(g, k)
            assert list(cuts.items()) == [(x, g.components(x)) for x in xs]
            if k:  # the trivial separations {X, V} come out in the walk's order
                verts = g.vertices
                seps = enumerate_separations(g, k, max_k=8)
                assert [s.b if s.a == verts else s.a for s in seps if verts in s] == xs


def test_p4_s2_census(graphs):
    # the exhaustive pair scan yields 7 unoriented separations of order < 2
    # on the path: {∅,V}, the four {{v},V}, and the two proper cuts
    g = graphs["FIX_P4"]
    seps = enumerate_separations(g, 2)
    assert len(seps) == 7
    assert canonical(sep([0, 1], [1, 2, 3])) in seps
    assert canonical(sep([], [0, 1, 2, 3])) in seps
    for v in range(4):
        assert canonical(sep([v], [0, 1, 2, 3])) in seps


def test_k2_k1_only_trivial_split():
    seps = enumerate_separations(K2, 1)
    assert seps == (sep([], [0, 1]),)


def test_c4_k3_contains_crossing_diagonals(graphs):
    g = graphs["FIX_C4"]
    seps = enumerate_separations(g, 3)
    d1 = canonical(sep([0, 1, 2], [2, 3, 0]))
    d2 = canonical(sep([1, 2, 3], [3, 0, 1]))
    assert d1 in seps and d2 in seps
    assert not is_nested(d1, d2)


def tuple_key(s):
    """The reference order on separations: the sorted vertex tuples of the
    two sides, the lexicographically least first. It ties s with s*."""
    return tuple(sorted((vertices_of(s.a), vertices_of(s.b))))


def reference_key(s):
    """The tuple key, with the tie broken: the orientation whose first
    side has the least tuple (the canonical one) before its inverse."""
    return tuple_key(s), vertices_of(s.a) > vertices_of(s.b)


def test_enumeration_output_is_canonical_and_sorted(graphs):
    seps = enumerate_separations(graphs["FIX_2K4"], 3, max_n=16, max_k=6)
    assert list(seps) == sorted(set(seps), key=tuple_key)
    assert all(s == canonical(s) for s in seps)


def test_canonical_orientation_matches_the_sorted_tuple_rule():
    # every pair of vertex sets on at most eight vertices
    for a in range(1 << 8):
        for b in range(1 << 8):
            expected = (a, b) if vertices_of(a) <= vertices_of(b) else (b, a)
            assert canonical(Separation(a, b)) == expected, (a, b)


# sides of every width up to 70 bits, so keys of different byte lengths meet
sides = st.integers(0, 70).flatmap(lambda width: st.integers(0, (1 << width) - 1))


# tuples that are prefixes of one another, and runs of vertices that end
# at or next to a byte boundary
RUNS = [(1 << w) - 1 for w in (0, 1, 2, 7, 8, 9, 16, 17)] + [0b1011, 0b101, 1 << 8, 1 << 9 | 1]


@settings(max_examples=300)
@given(st.lists(st.builds(Separation, sides, sides), min_size=1, max_size=10))
@example([Separation(a, b) for a in RUNS for b in RUNS[:4]])
def test_sep_sort_key_orders_as_the_tuple_key(seps):
    """On every pair the tuple key does not tie, sep_sort_key compares the
    same way; of s and s*, the canonical orientation comes first."""
    pool = seps + [star(s) for s in seps]
    keys = [(s, sep_sort_key(s), reference_key(s)) for s in pool]
    for (s, key_s, ref_s), (t, key_t, ref_t) in itertools.product(keys, repeat=2):
        assert (key_s < key_t) == (ref_s < ref_t)
        assert (key_s == key_t) == (s == t)


def test_vertices_of_lists_the_set_bits_in_order():
    for mask in range(1 << 12):
        assert vertices_of(mask) == tuple(v for v in range(12) if mask >> v & 1)


def test_enumeration_caps():
    big = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(CapExceededError):
        enumerate_separations(big, 2)
    with pytest.raises(CapExceededError):
        enumerate_separations(K2, 7)
    with pytest.raises(PreconditionError):
        enumerate_separations(K2, 0)


# ---------------------------------------------------------------------------
# lattice operations

def test_join_example_on_c4(graphs):
    g = graphs["FIX_C4"]
    x = sep([0, 1, 2], [2, 3, 0])
    y = sep([1, 2, 3], [3, 0, 1])
    j = join(x, y)
    assert j == sep([0, 1, 2, 3], [0, 3])
    assert j.order == 2
    # least upper bound among all separations of the graph
    for z in all_separations(g):
        for zo in (z, star(z)):
            if leq(x, zo) and leq(y, zo):
                assert leq(j, zo)


def test_star_is_involution(graphs):
    for s in all_separations(graphs["FIX_P4"]):
        assert star(star(s)) == s


def test_meet_with_star_fixes_small_separations(graphs):
    for s in all_separations(graphs["FIX_C4"]):
        for o in (s, star(s)):
            if is_small(o):
                assert meet(o, star(o)) == o


def test_join_meet_of_separations_are_separations(graphs):
    for name in ("FIX_P4", "FIX_C4", "FIX_2K2"):
        g = graphs[name]
        univ = all_separations(g)
        for x in univ:
            for y in univ:
                assert is_separation(g, join(x, y))
                assert is_separation(g, meet(x, y))


# ---------------------------------------------------------------------------
# nestedness and corners

def test_is_nested_examples(graphs):
    r = sep([0, 1], [1, 2, 3])
    s = sep([0, 1, 2], [2, 3])
    assert is_nested(r, s)
    d1 = sep([0, 1, 2], [2, 3, 0])
    d2 = sep([1, 2, 3], [3, 0, 1])
    assert not is_nested(d1, d2)
    for x in (r, s, d1, d2):
        assert is_nested(x, x)


def test_crossing_means_all_orientation_pairs_incomparable():
    d1 = sep([0, 1, 2], [2, 3, 0])
    d2 = sep([1, 2, 3], [3, 0, 1])
    for x in (d1, star(d1)):
        for y in (d2, star(d2)):
            assert not leq(x, y) and not leq(y, x)


def corners(r, s):
    """The four corners r ∨ s, r ∨ s*, r* ∨ s and r* ∨ s*, canonically oriented."""
    return {canonical(join(x, y)) for x in (r, star(r)) for y in (s, star(s))}


def test_corners_of_crossing_c4_pair():
    d1 = sep([0, 1, 2], [2, 3, 0])
    d2 = sep([1, 2, 3], [3, 0, 1])
    cs = corners(d1, d2)
    assert canonical(sep([0, 1, 2, 3], [0, 3])) in cs
    assert canonical(sep([0, 1, 2, 3], [1, 2])) in cs


def test_corners_of_nested_pair_stay_in_closure(graphs):
    r = sep([0, 1], [1, 2, 3])
    s = sep([0, 1, 2], [2, 3])
    for c in corners(r, s):
        assert (
            c in (canonical(r), canonical(s))
            or is_small(c)
            or is_small(star(c))
        )


def test_corners_of_equal_pair():
    r = sep([0, 1], [1, 2, 3])
    assert canonical(r) in corners(r, r)


def test_fish_lemma_small_scale(graphs):
    # a separation nested with two crossing separations is nested with all
    # four of their corners; exhaustive on the full universes of the
    # order-4 fixtures
    for name in ("FIX_C4", "FIX_2K2"):
        g = graphs[name]
        univ = all_separations(g)
        for r, s in itertools.combinations(univ, 2):
            if is_nested(r, s):
                continue
            for t in univ:
                if is_nested(t, r) and is_nested(t, s):
                    for c in corners(r, s):
                        assert is_nested(t, c)


def test_corner_nestedness_small_scale(graphs):
    g = graphs["FIX_C4"]
    univ = all_separations(g)
    for r in univ:
        for s in univ:
            for rv in (r, star(r)):
                for sv in (s, star(s)):
                    for t in univ:
                        if is_nested(t, r) or is_nested(t, s):
                            assert is_nested(t, join(rv, sv)) or is_nested(t, meet(rv, sv))


# ---------------------------------------------------------------------------
# small, trivial and regular separations and tightness

def trivial_witnesses(u, x):
    """The r other than x and x* with x ≤ r and x ≤ r*: each makes x trivial."""
    return [
        r
        for r in u.elements
        if r not in (x, star(x)) and leq(x, r) and leq(x, star(r))
    ]


def test_classify_trivial_small_cosmall_regular(graphs):
    g = graphs["FIX_P4"]
    u = graph_universe(g)
    empty = sep([], [0, 1, 2, 3])
    assert is_small(empty) and trivial_witnesses(u, empty)
    # so (V, ∅) is co-small, and it is not small
    assert not is_small(star(empty))
    regular = sep([0, 1], [1, 2, 3])
    assert not is_small(regular) and not is_small(star(regular))
    assert not trivial_witnesses(u, regular)


def test_trivial_witness_certifies_triviality(graphs):
    # every trivial separation is small
    g = graphs["FIX_2K4"]
    u = graph_universe(g)
    trivial = [x for x in u.elements if trivial_witnesses(u, x)]
    assert trivial
    for x in trivial:
        assert is_small(x)


def test_separation_json_roundtrip():
    s = sep([0, 2], [1, 2, 3])
    assert separation_from_json(separation_to_json(s)) == s
    assert separation_to_json(s)["order"] == 1


def test_verify_universe_pair_cap(graphs):
    with pytest.raises(CapExceededError):
        verify_universe(graph_universe(graphs["FIX_2K4"]), pair_cap=100)


def test_is_tight_examples(graphs):
    g = graphs["FIX_2K4"]
    assert is_tight(g, sep([0, 1, 2, 3], [3, 4, 5, 6, 7]))
    assert not is_tight(g, sep([], list(range(8))))
    p4 = graphs["FIX_P4"]
    assert is_tight(p4, sep([0, 1], [1, 2, 3]))
    # one-sided: ({v}, V) has an empty strict side
    assert not is_tight(p4, sep([0], [0, 1, 2, 3]))


# ---------------------------------------------------------------------------
# universe verification

def test_verify_universe_on_fixture_views(graphs):
    for name in ("FIX_P4", "FIX_C4", "FIX_2K2"):
        rep = verify_universe(graph_universe(graphs[name]))
        assert rep.ok, rep.violations[:3]
        assert rep.checked["least-upper-bound"] == "exhaustive"
    rep = verify_universe(graph_universe(graphs["FIX_P4"], max_order=2))
    assert rep.ok


def test_verify_universe_flags_broken_involution():
    u = UniverseView(
        elements=(0, 1),
        leq=lambda x, y: x <= y,
        star=lambda x: x,  # identity star on a 2-chain is not order-reversing
        join=max,
        meet=min,
        order_of=lambda x: 0,
        submodular_claimed=False,
    )
    rep = verify_universe(u)
    assert any(axiom == "order-reversal" for axiom, _ in rep.violations)


def test_verify_universe_flags_submodularity_violation():
    # a 2x2 grid poset with a constant-except-one order function
    elems = ((0, 0), (0, 1), (1, 0), (1, 1))
    u = UniverseView(
        elements=elems,
        leq=lambda x, y: x[0] <= y[0] and x[1] <= y[1],
        star=lambda x: (1 - x[0], 1 - x[1]),
        join=lambda x, y: (max(x[0], y[0]), max(x[1], y[1])),
        meet=lambda x, y: (min(x[0], y[0]), min(x[1], y[1])),
        order_of=lambda x: 1 if x in ((0, 1), (1, 0)) else 3,
        submodular_claimed=True,
    )
    rep = verify_universe(u)
    assert any(axiom == "submodularity" for axiom, _ in rep.violations)


def test_graph_universe_is_closed_and_submodular(graphs):
    g = graphs["FIX_C4"]
    u = graph_universe(g)
    rep = verify_universe(u)
    assert rep.ok
    assert rep.checked["submodularity-pairs"] > 0
