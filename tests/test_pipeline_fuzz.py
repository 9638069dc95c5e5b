"""End-to-end pipeline fuzz: random small graphs through profile
enumeration, flags, the canonical separator set, separation emission, and
decomposition building. Every stage self-certifies; this drives those
certifications across graph shapes the targeted tests never construct.
The pipeline's output must also commute with relabelling the graph."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import census
from tangleforge import oracles
from tangleforge.core import (
    Graph,
    Separation,
    canonical,
    enumerate_separations,
    is_nested,
    mask_of,
    vertices_of,
)
from tangleforge.errors import CapExceededError
from tangleforge.profiles import (
    DEFAULT_MAX_SK,
    distinguishes,
    efficient_distinguishers,
    enumerate_k_profiles,
    pipeline_profiles,
)
from tangleforge.separators import canonical_nested_separators, separators_to_separations
from tangleforge.treedec import build_totd, induced_separations, treeset_to_treedecomposition, verify_treedecomposition


def random_graph(rng, n):
    p = rng.choice((0.3, 0.5, 0.7))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def distinguishable_subset(g, profiles):
    chosen = []
    for p in profiles:
        if all(
            efficient_distinguishers(g, q, p).order is not None for q in chosen
        ):
            chosen.append(p)
    return chosen


def test_pipeline_on_random_graphs():
    rng = random.Random(20240807)
    ran_pipelines = 0
    ran_totd = 0
    for trial in range(60):
        g = random_graph(rng, rng.randint(4, 7))
        k = rng.choice((2, 2, 3))
        try:
            profiles = enumerate_k_profiles(g, k, max_sk=40)
        except CapExceededError:
            continue
        family = distinguishable_subset(g, pipeline_profiles(g, profiles))
        if len(family) < 2:
            continue

        nested = canonical_nested_separators(g, family)
        inst = nested.instance
        chosen = set(nested.separators)
        assert all(fam & chosen for fam in inst.families.values())
        for x, y in itertools.combinations(chosen, 2):
            assert inst.nested(x, y)

        out = separators_to_separations(g, nested)
        for s, t in itertools.combinations(out, 2):
            assert is_nested(s, t)
        for p, q in itertools.combinations(family, 2):
            best = oracles.brute_minimum_distinguishing_order(g, p.chosen, q.chosen)
            assert any(
                s.order == best and distinguishes(p, q, s) for s in out
            )
        if out:
            td = treeset_to_treedecomposition(g, out)
            assert set(induced_separations(td)) == set(out)
            assert verify_treedecomposition(g, td).ok
        if g.is_connected():
            build_totd(g, family)  # certifies internally
            ran_totd += 1
        ran_pipelines += 1
    # the stream must actually exercise the machinery, not skip everything
    assert ran_pipelines >= 15
    assert ran_totd >= 8


@st.composite
def connected_graphs(draw, max_n=7):
    """A random connected graph on 2..max_n vertices (a random spanning tree
    plus random extra edges), an order bound k in {2, 3} and a random vertex
    permutation."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges |= {e for i, e in enumerate(pairs) if extra >> i & 1}
    perm = dict(enumerate(draw(st.permutations(range(n)))))
    return Graph.from_edges(n, sorted(edges)), draw(st.sampled_from((2, 3))), perm


def triangle_ring_of(t):
    """t triangles joined into a ring by bridges. The distinguishing
    separators of the three-triangle ring cross, so the thin splinter's
    choice among tied candidates shows in the output: a tie broken by
    vertex labels passes on the random graphs with at most 7 vertices
    below, and fails on this ring."""
    edges = [(3 * i + a, 3 * i + b) for i in range(t) for a, b in ((0, 1), (1, 2), (0, 2))]
    return Graph.from_edges(3 * t, edges + [(3 * i + 2, (3 * i + 3) % (3 * t)) for i in range(t)])


def pipeline(g, k, max_sk=DEFAULT_MAX_SK):
    """Separators, separations and totd (depth, bags) of the full pipeline."""
    profiles = pipeline_profiles(g, enumerate_k_profiles(g, k, max_sk=max_sk))
    nested = canonical_nested_separators(g, profiles)
    seps = separators_to_separations(g, nested)
    totd = build_totd(g, profiles)
    levels = Counter((d, tuple(sorted(x.td.bags))) for d, x in totd.walk())
    return set(nested.separators), set(seps), levels


@settings(max_examples=100)
@given(connected_graphs())
@example((triangle_ring_of(3), 3, {v: 8 - v for v in range(9)}))
@example((triangle_ring_of(3), 3, {v: (v + 1) % 9 for v in range(9)}))
def test_pipeline_commutes_with_relabelling(case):
    g, k, perm = case
    assume(len(enumerate_separations(g, k)) <= DEFAULT_MAX_SK)

    def image(mask):
        return mask_of(perm[v] for v in vertices_of(mask))

    separators, seps, levels = pipeline(g, k)
    assert pipeline(g.relabelled(perm), k) == (
        {image(x) for x in separators},
        {canonical(Separation(image(s.a), image(s.b))) for s in seps},
        Counter(
            {(d, tuple(sorted(map(image, bags)))): c for (d, bags), c in levels.items()}
        ),
    )


@pytest.mark.xfail(
    strict=True,
    reason="separators_to_separations groups loose components by label order (ROADMAP item 1)",
)
def test_separations_commute_with_relabelling_two_separators_sharing_a_vertex():
    """Separators {0, 2} and {2, 3} share vertex 2, and the component {5}
    of G - {0, 2} hangs off 2 alone. The relabelling 0 -> 1 -> 2 -> 3 -> 0
    puts {2, 3} first, and the pipeline emits 3 separations in one
    labelling and 4 in the other."""
    g = Graph.from_edges(
        7, [(0, 1), (0, 2), (0, 3), (0, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)]
    )
    perm = {0: 1, 1: 2, 2: 3, 3: 0, 4: 4, 5: 5, 6: 6}

    def image(mask):
        return mask_of(perm[v] for v in vertices_of(mask))

    _, seps, _ = pipeline(g, 3)
    _, relabelled, _ = pipeline(g.relabelled(perm), 3)
    assert relabelled == {canonical(Separation(image(s.a), image(s.b))) for s in seps}


@pytest.mark.parametrize("seed", range(3))
def test_pipeline_commutes_with_relabelling_the_five_triangle_ring(seed):
    """n = 15 at k = 3: |S_3| is 121 trivial separations plus 40 proper
    ones, above the default max_sk, so the cap is lifted."""
    g = triangle_ring_of(5)
    perm = dict(enumerate(random.Random(seed).sample(range(15), 15)))

    def image(mask):
        return mask_of(perm[v] for v in vertices_of(mask))

    separators, seps, levels = pipeline(g, 3, max_sk=256)
    assert pipeline(g.relabelled(perm), 3, max_sk=256) == (
        {image(x) for x in separators},
        {canonical(Separation(image(s.a), image(s.b))) for s in seps},
        Counter({(d, tuple(sorted(map(image, bags)))): c for (d, bags), c in levels.items()}),
    )


# The (graph6, k, part) whose part of the pipeline does not commute with
# v -> n - 1 - v or v -> v + 1 mod n, on the census graphs as
# `census.connected_graphs` labels them. All are separations: they are the
# known defect of ROADMAP item 1, which must empty this set.
CENSUS_FAILURES = {
    (g6, k, "separations")
    for g6, k in [
        ("EANw", 3), ("F?G^w", 3), ("F?IZw", 3), ("F?O~w", 3), ("F?S~w", 3), ("F?W^g", 3),
        ("F?XTw", 3), ("F?X\\w", 3), ("FAC~W", 3), ("FAG^w", 3), ("FAH\\w", 3), ("FAK^G", 3),
        ("FCGZw", 3), ("FGC~w", 3), ("FHC^W", 3), ("F_GZw", 3), ("F_G^w", 3),
        ("FAL~w", 4), ("FAN~o", 4), ("FAN~w", 4), ("FBS~W", 4),
    ]
}


def test_census_counts_every_connected_graph_up_to_seven_vertices():
    """OEIS A001349."""
    assert [len(census.connected_graphs()[n]) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_census_pipeline_certifies_and_commutes_with_relabelling():
    """Every connected graph on at most 7 vertices runs the pipeline at
    k = 2, 3 and 4 with the caps lifted, and every stage certifies. At
    k = 3 and 4 the separators, the separations and the totd levels must
    commute with reversing and with rotating the labels, except on the
    pinned CENSUS_FAILURES."""
    failures = set()
    for n, graphs in census.connected_graphs().items():
        perms = [{v: n - 1 - v for v in range(n)}, {v: (v + 1) % n for v in range(n)}]
        for g, k in itertools.product(graphs, (2, 3, 4)):
            separators, seps, levels = pipeline(g, k, max_sk=1 << 20)
            if k == 2:
                continue
            for perm in perms:

                def image(mask):
                    return mask_of(perm[v] for v in vertices_of(mask))

                expected = (
                    {image(x) for x in separators},
                    {canonical(Separation(image(s.a), image(s.b))) for s in seps},
                    Counter({(d, tuple(sorted(map(image, bags)))): c for (d, bags), c in levels.items()}),
                )
                got = pipeline(g.relabelled(perm), k, max_sk=1 << 20)
                failures |= {
                    (census.graph6(g), k, part)
                    for part, x, y in zip(("separators", "separations", "totd"), got, expected)
                    if x != y
                }
    assert failures == CENSUS_FAILURES
