"""Core separation universe: enumeration against the brute-force oracle,
lattice arithmetic, nestedness, corners, classification, tightness and the
universe axiom checker."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangleforge import oracles
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


# ---------------------------------------------------------------------------
# enumeration vs oracle

@pytest.mark.parametrize(
    "name,k",
    [("FIX_P4", 2), ("FIX_P4", 3), ("FIX_C4", 2), ("FIX_C4", 3), ("FIX_2K2", 2), ("FIX_2K4", 2)],
)
def test_enumeration_matches_pair_scan_oracle(graphs, name, k):
    g = graphs[name]
    assert enumerate_separations(g, k) == oracles.brute_separations(g, k)


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
