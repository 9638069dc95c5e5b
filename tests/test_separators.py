"""Separator-level machinery: minimal separators (the oracle), the
nestedness relations, distinguishing separator sets, crossing numbers, the
canonical nested separator set and its conversion to separations."""

import dataclasses
import itertools

import pytest

from tangleforge import oracles
from tangleforge.core import (
    Graph,
    Separation,
    canonical,
    is_nested,
    is_tight,
    join,
    mask_of,
    star,
    vertices_of,
)
from tangleforge.errors import CertificationError, PreconditionError
from tangleforge.profiles import (
    distinguishes,
    efficient_distinguishers,
    enumerate_k_profiles,
    pipeline_profiles,
)
from tangleforge.separators import (
    build_separator_instance,
    canonical_nested_separators,
    separator_nested,
    separator_sort_key,
    separators_to_separations,
)
from tangleforge.splinter import thinly_splinters_check
from tangleforge.treedec import build_totd


def sep(a, b):
    return Separation(mask_of(a), mask_of(b))


def m(*vertices):
    return mask_of(vertices)


def witnesses_by_separator(g, p, q) -> dict:
    """The efficient distinguishers of the pair grouped by separator:
    separators in size-then-vertex order, each with its witnessing
    separations in separation order."""
    groups = {}
    for s in efficient_distinguishers(g, p, q).seps:
        groups.setdefault(s.separator, []).append(s)
    return {x: groups[x] for x in sorted(groups, key=separator_sort_key)}


# ---------------------------------------------------------------------------
# minimal separators

def test_minimal_separators_on_path(graphs):
    g = graphs["FIX_P4"]
    assert oracles.minimal_separators(g, 0, 3, 1) == (m(1), m(2))


def test_adjacent_vertices_have_no_separator():
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert oracles.minimal_separators(k4, 0, 1, 3) == ()


def test_minimal_separators_on_cycle(graphs):
    g = graphs["FIX_C4"]
    assert oracles.minimal_separators(g, 0, 2, 2) == (m(1, 3),)


def test_minimality_filter(graphs):
    g = graphs["FIX_P4"]
    # {1, 2} separates 0 from 3 but is not minimal
    assert m(1, 2) not in oracles.minimal_separators(g, 0, 3, 2)


# ---------------------------------------------------------------------------
# nestedness relations on separators

def test_subset_separators_are_nested(graphs):
    g = graphs["FIX_2K4"]
    assert separator_nested(g, m(3), m(3, 4))
    assert separator_nested(g, m(3), m(3))


def test_two_k4_separators_nested_both_ways(graphs):
    g = graphs["FIX_2K4"]
    assert separator_nested(g, m(3), m(4))
    assert separator_nested(g, m(4), m(3))


def test_unrestricted_relation_is_not_symmetric(graphs):
    # {1} does not separate the pair {0, 3}? it does: the relation fails
    # one way but holds the other, witnessing asymmetry off the
    # distinguisher collection
    g = graphs["FIX_P4"]
    x, y = m(0, 3), m(1)
    assert separator_nested(g, y, x)
    assert not separator_nested(g, x, y)


def test_symmetry_on_genuine_distinguisher_collections(graphs, triring, triring_profiles):
    cases = [
        (graphs["FIX_2K4"], [p for p in enumerate_k_profiles(graphs["FIX_2K4"], 2) if p.is_regular(graphs["FIX_2K4"])]),
        (triring, triring_profiles),
    ]
    for g, profs in cases:
        separators = set()
        for p, q in itertools.combinations(profs, 2):
            separators.update(witnesses_by_separator(g, p, q))
        for x, y in itertools.combinations(separators, 2):
            assert separator_nested(g, x, y) == separator_nested(g, y, x)


def strongly_nested(g, x, y):
    """Each of x and y lies in C ∪ N(C) for some component C of G minus the
    other; x is strongly nested with itself iff G - x has a tight component."""
    return all(
        any(not b & ~(c | g.neighbours(c)) for c in g.components(a))
        for a, b in ((x, y), (y, x))
    )


def test_strongly_nested_examples(graphs):
    g = graphs["FIX_2K4"]
    assert strongly_nested(g, m(3), m(4))
    # the full vertex set leaves no components at all
    assert not strongly_nested(g, g.vertices, g.vertices)


def test_nested_distinguishing_separators_are_strongly_nested(graphs, triring, triring_profiles):
    for g, profs in (
        (graphs["FIX_2K4"], [p for p in enumerate_k_profiles(graphs["FIX_2K4"], 2) if p.is_regular(graphs["FIX_2K4"])]),
        (triring, triring_profiles),
    ):
        separators = set()
        for p, q in itertools.combinations(profs, 2):
            separators.update(witnesses_by_separator(g, p, q))
        for x, y in itertools.combinations(sorted(separators), 2):
            if separator_nested(g, x, y):
                assert strongly_nested(g, x, y)


def test_strongly_nested_closed_under_subsets(triring, triring_profiles):
    g = triring
    separators = set()
    for p, q in itertools.combinations(triring_profiles, 2):
        separators |= witnesses_by_separator(g, p, q).keys()
    pairs = [
        (x, y)
        for x, y in itertools.product(sorted(separators), repeat=2)
        if strongly_nested(g, x, y)
    ]
    assert pairs
    for x, y in pairs:
        for xs in _nonempty_subsets(x):
            for ys in _nonempty_subsets(y):
                assert strongly_nested(g, xs, ys)


def _nonempty_subsets(mask):
    verts = vertices_of(mask)
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            yield mask_of(combo)


# ---------------------------------------------------------------------------
# distinguishing separators

def test_two_k4_separator_sets(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    m1 = canonical(sep([0, 1, 2, 3], [3, 4, 5, 6, 7]))
    m2 = canonical(sep([0, 1, 2, 3, 4], [4, 5, 6, 7]))
    left = next(p for p in profs if p.orients(m1) == star(m1) and p.orients(m2) == star(m2))
    right = next(p for p in profs if p.orients(m1) == m1 and p.orients(m2) == m2)
    groups = witnesses_by_separator(g, left, right)
    assert list(groups) == [m(3), m(4)]
    assert [len(w) for w in groups.values()] == [1, 1]
    assert groups[m(3)][0] == m1
    assert groups[m(4)][0] == m2


def test_witnesses_are_tight(graphs, triring, triring_profiles):
    for g, profs in (
        (graphs["FIX_2K4"], [p for p in enumerate_k_profiles(graphs["FIX_2K4"], 2) if p.is_regular(graphs["FIX_2K4"])]),
        (triring, triring_profiles),
    ):
        for p, q in itertools.combinations(profs, 2):
            for witnesses in witnesses_by_separator(g, p, q).values():
                for w in witnesses:
                    assert is_tight(g, w)


def test_crossing_separators_meet_tight_components(triring, triring_profiles):
    g = triring
    separators = set()
    for p, q in itertools.combinations(triring_profiles, 2):
        separators.update(witnesses_by_separator(g, p, q))
    crossing_pairs = [
        (x, y)
        for x, y in itertools.combinations(sorted(separators), 2)
        if not separator_nested(g, x, y)
    ]
    assert crossing_pairs
    for x, y in crossing_pairs:
        for comp in g.components(x):
            if g.neighbours(comp) == x:
                assert comp & y
        # and the minimal-separator consequence
        assert any(
            x in oracles.minimal_separators(g, v, w, x.bit_count())
            for v, w in itertools.combinations(vertices_of(y), 2)
        )


def test_separator_crossing_numbers(graphs, triring, triring_profiles):
    """No two-K4 separator crosses another. On the ring, every separator y
    crossing a separator x minimally separates two vertices of x (the
    crossing/minimal-separator lemma), checked in both directions."""
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    separators = set()
    for p, q in itertools.combinations(profs, 2):
        separators |= witnesses_by_separator(g, p, q).keys()
    for x, y in itertools.permutations(separators, 2):
        assert separator_nested(g, x, y)

    ring_separators = set()
    for p, q in itertools.combinations(triring_profiles, 2):
        ring_separators |= witnesses_by_separator(triring, p, q).keys()
    crossed = 0
    for x, y in itertools.permutations(sorted(ring_separators), 2):
        if separator_nested(triring, x, y):
            continue
        assert any(
            y in oracles.minimal_separators(triring, v, w, y.bit_count())
            for v, w in itertools.combinations(vertices_of(x), 2)
        )
        crossed += 1
    assert crossed > 0


# ---------------------------------------------------------------------------
# the canonical nested separator set

def test_two_k4_canonical_separators(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    res = canonical_nested_separators(g, profs)
    assert res.separators == (m(3), m(4))


def test_singleton_profile_set_gives_empty_set(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    res = canonical_nested_separators(g, profs[:1])
    assert res.separators == ()


def test_indistinguishable_profiles_rejected(graphs):
    g = graphs["FIX_2K4"]
    k1 = [p for p in enumerate_k_profiles(g, 1) if p.is_regular(g)]
    k2 = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    with pytest.raises(PreconditionError):
        canonical_nested_separators(g, [k1[0], k2[0]])


def test_equivariance_under_automorphism_and_relabelling(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    res = canonical_nested_separators(g, profs)
    swap = {v: 7 - v for v in range(8)}
    mapped = {mask_of(swap[v] for v in vertices_of(x)) for x in res.separators}
    assert mapped == set(res.separators)

    # cross-graph: relabel by a non-automorphism permutation and re-run
    perm = {0: 2, 1: 0, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 5}
    g2 = g.relabelled(perm)
    profs2 = [p for p in enumerate_k_profiles(g2, 2) if p.is_regular(g2)]
    res2 = canonical_nested_separators(g2, profs2)
    assert set(res2.separators) == {
        mask_of(perm[v] for v in vertices_of(x)) for x in res.separators
    }


def brute_nested_family_covers(inst):
    """All subsets of the ground set that are pairwise nested and meet every
    family, by exhaustive subset enumeration."""
    elems = list(inst.elements)
    out = []
    for bits in range(1 << len(elems)):
        subset = [e for i, e in enumerate(elems) if bits >> i & 1]
        if any(
            not inst.nested(a, b) for a, b in itertools.combinations(subset, 2)
        ):
            continue
        if all(set(subset) & fam for fam in inst.families.values()):
            out.append(frozenset(subset))
    return out


def test_thin_splinter_output_against_transversal_enumeration(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    res = canonical_nested_separators(g, profs)
    valid = brute_nested_family_covers(res.instance)
    # on the two-K4 fixture the only nested cover is {{3},{4}}
    assert valid == [frozenset({m(3), m(4)})]
    assert frozenset(res.separators) in valid


def test_triangle_ring_pipeline(triring, triring_profiles):
    res = canonical_nested_separators(triring, triring_profiles)
    assert [vertices_of(x) for x in res.separators] == [
        (0, 2),
        (3, 5),
        (6, 8),
        (9, 11),
    ]
    rep = thinly_splinters_check(res.instance)
    assert rep.ok


def test_separator_corner_oracle_returns_corners(triring, triring_profiles):
    inst, _ = build_separator_instance(triring, triring_profiles)
    exercised = 0
    for ka, kb in itertools.combinations(inst.family_keys(), 2):
        for a in inst.families[ka]:
            for b in inst.families[kb]:
                if inst.nested(a, b):
                    continue
                c = inst.corner_oracle(a, b).get(kb)
                if c is not None:
                    assert oracles.is_corner(inst, c, a, b)
                    assert c in inst.families[kb]
                    exercised += 1
    assert exercised > 0


def recomputed_corner_oracle(g, profiles):
    """The corner oracle recomputed from the profiles: the separator of the
    first of the four joins of a witness pair of a and b that has the
    target pair's distinguishing order and distinguishes that pair."""
    witnesses = {}
    for p, q in itertools.combinations(profiles, 2):
        for s in efficient_distinguishers(g, p, q).seps:
            witnesses.setdefault(s.separator, {})[s] = None

    def oracle(a, b, target):
        p, q = profiles[target[0]], profiles[target[1]]
        order = efficient_distinguishers(g, p, q).order
        for wa in witnesses[a]:
            for wb in witnesses[b]:
                for x in (wa, star(wa)):
                    for y in (wb, star(wb)):
                        c = join(x, y)
                        if c.order == order and distinguishes(p, q, c):
                            return c.separator
        return None

    return oracle


@pytest.mark.parametrize("case", ["triangle_ring", "pendant_ring", "FIX_GRID33"])
def test_corner_oracle_matches_a_recomputation_from_the_profiles(
    case, graphs, triring, triring_profiles, triring_pendant, triring_pendant_profiles
):
    g, profs = {
        "triangle_ring": (triring, triring_profiles),
        "pendant_ring": (triring_pendant, triring_pendant_profiles),
        "FIX_GRID33": (
            graphs["FIX_GRID33"],
            pipeline_profiles(graphs["FIX_GRID33"], enumerate_k_profiles(graphs["FIX_GRID33"], 3)),
        ),
    }[case]
    inst, _ = build_separator_instance(g, profs)
    expected = recomputed_corner_oracle(g, profs)
    answers = 0
    for a, b in itertools.product(inst.elements, repeat=2):
        found = inst.corner_oracle(a, b)
        assert found.keys() <= inst.families.keys(), (a, b)
        for target in inst.families:
            got = found.get(target)
            assert got == expected(a, b, target), (a, b, target)
            answers += got is not None
    assert answers > 0


# ---------------------------------------------------------------------------
# separations from separators

def test_two_k4_separations(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    res = canonical_nested_separators(g, profs)
    out = separators_to_separations(g, res)
    assert set(out) == {
        canonical(sep([0, 1, 2, 3], [3, 4, 5, 6, 7])),
        canonical(sep([0, 1, 2, 3, 4], [4, 5, 6, 7])),
    }


def test_conversion_certifies_every_pair_against_its_distinguisher_set(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    res = canonical_nested_separators(g, profs)
    assert len(res.distinguishers) == 3
    with pytest.raises(CertificationError, match="not efficiently distinguished"):
        separators_to_separations(g, dataclasses.replace(res, separators=(m(3),)))


def test_empty_separator_set_gives_empty_output(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    assert separators_to_separations(g, canonical_nested_separators(g, profs[:1])) == ()


def test_non_principal_profile_rejected(graphs):
    g = graphs["FIX_P4"]
    irregular = next(p for p in enumerate_k_profiles(g, 2) if not p.is_regular(g))
    nested = dataclasses.replace(canonical_nested_separators(g, []), profiles=(irregular,))
    with pytest.raises(PreconditionError):
        separators_to_separations(g, nested)


def test_the_first_non_principal_profile_is_named(graphs):
    """Both preconditions name the first profile that is not principal."""
    g = graphs["FIX_P4"]
    profs = enumerate_k_profiles(g, 2)
    regular = next(p for p in profs if p.is_regular(g))
    irregular = next(p for p in profs if not p.is_regular(g))
    nested = dataclasses.replace(
        canonical_nested_separators(g, []), profiles=(regular, irregular, irregular)
    )
    with pytest.raises(PreconditionError, match="^profile 1 is not principal"):
        separators_to_separations(g, nested)
    with pytest.raises(PreconditionError, match="^profile 1 is not principal"):
        build_totd(g, (regular, irregular, irregular))


def test_disconnected_two_k2(graphs):
    g = graphs["FIX_2K2"]
    profs = list(enumerate_k_profiles(g, 1))
    res = canonical_nested_separators(g, profs)
    assert res.separators == (0,)  # the empty separator
    out = separators_to_separations(g, res)
    assert out == (canonical(sep([0, 1], [2, 3])),)
    p, q = profs
    assert any(distinguishes(p, q, s) for s in out)


def test_output_efficiency_matches_brute_force(graphs, triring, triring_profiles):
    cases = [
        (graphs["FIX_2K4"], [p for p in enumerate_k_profiles(graphs["FIX_2K4"], 2) if p.is_regular(graphs["FIX_2K4"])]),
        (triring, triring_profiles),
    ]
    for g, profs in cases:
        res = canonical_nested_separators(g, profs)
        out = separators_to_separations(g, res)
        for x, y in itertools.combinations(out, 2):
            assert is_nested(x, y)
        for p, q in itertools.combinations(profs, 2):
            best = oracles.brute_minimum_distinguishing_order(g, p.chosen, q.chosen)
            assert any(s.order == best and distinguishes(p, q, s) for s in out)


def test_pendant_ring_exercises_component_grouping(triring_pendant, triring_pendant_profiles):
    """The pendant vertex is a non-tight component of the {3,5}-type
    separator complements; the emission loop must group it with the tight
    component its separations point to, yielding two separations on the
    same separator."""
    g = triring_pendant
    profs = triring_pendant_profiles
    res = canonical_nested_separators(g, profs)
    out = separators_to_separations(g, res)
    by_separator = {}
    for s in out:
        by_separator.setdefault(s.separator, []).append(s)
    assert any(len(v) == 2 for v in by_separator.values())
    for x, y in itertools.combinations(out, 2):
        assert is_nested(x, y)


def test_two_level_pipeline_on_doubled_bridge_ring(k5ring, k5ring_profiles):
    """Distinguisher families on two levels (orders 2 and 3): the thin
    splinter hypotheses include genuine cross-level crossings, the levelwise
    construction must respect the level-2 choices when picking level 3, and
    the emission loop mixes separator sizes."""
    g = k5ring
    inst, _ = build_separator_instance(g, k5ring_profiles)
    orders = sorted(set(inst.orders.values()))
    assert orders == [2, 3]
    cross_level = 0
    for ki, kj in itertools.combinations(inst.family_keys(), 2):
        if inst.orders[ki] == inst.orders[kj]:
            continue
        for a in inst.families[ki]:
            for b in inst.families[kj]:
                if not inst.nested(a, b):
                    cross_level += 1
    assert cross_level > 0  # property (2) of the hypothesis check is live

    res = canonical_nested_separators(g, k5ring_profiles)
    assert [vertices_of(x) for x in res.separators] == [
        (0, 9),
        (10, 12),
        (13, 15),
        (0, 3, 4),
        (5, 6, 9),
    ]
    assert [lv.k for lv in res.result.levels] == [2, 3]

    out = separators_to_separations(g, res)
    assert sorted(s.order for s in out) == [2, 2, 2, 3, 3]
    for x, y in itertools.combinations(out, 2):
        assert is_nested(x, y)
    for p, q in itertools.combinations(k5ring_profiles, 2):
        dset = efficient_distinguishers(g, p, q)
        assert any(s.order == dset.order and distinguishes(p, q, s) for s in out)


def test_notnested_strongnested_lemma_exhaustive(graphs):
    """For separations with distinct strongly nested separators oriented
    towards each other, failure to be nested forces a component of
    G - (X ∩ Y) meeting neither separator."""
    from tangleforge.core import all_separations

    for name in ("FIX_P4", "FIX_C4", "FIX_2K2"):
        g = graphs[name]
        univ = all_separations(g)
        for s, t in itertools.combinations(univ, 2):
            x, y = s.separator, t.separator
            if x == y or not strongly_nested(g, x, y):
                continue
            for so in (s, star(s)):
                if y & ~so.b:
                    continue
                for to in (t, star(t)):
                    if x & ~to.b:
                        continue
                    if is_nested(so, to):
                        continue
                    assert any(
                        not comp & (x | y) for comp in g.components(x & y)
                    ), (name, so, to)
