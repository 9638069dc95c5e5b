"""End-to-end pipeline fuzz: random small graphs through profile
enumeration, flags, the canonical separator set, separation emission, and
decomposition building. Every stage self-certifies; this drives those
certifications across graph shapes the targeted tests never construct."""

import itertools
import random

from tangleforge import oracles
from tangleforge.core import Graph, all_separations, is_nested
from tangleforge.errors import CapExceededError
from tangleforge.profiles import (
    distinguishes,
    efficient_distinguishers,
    enumerate_k_profiles,
    is_principal,
    is_robust,
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
        universe = all_separations(g)
        eligible = [
            p
            for p in profiles
            if p.is_regular(g) and is_robust(g, p, universe=universe)
        ]
        family = distinguishable_subset(g, eligible)
        if len(family) < 2:
            continue

        nested = canonical_nested_separators(g, family, check_flags=False)
        inst = nested.data.instance
        chosen = set(nested.separators)
        assert all(fam & chosen for fam in inst.families.values())
        for x, y in itertools.combinations(chosen, 2):
            assert inst.nested(x, y)

        principal_family = [p for p in family if is_principal(g, p)]
        if len(principal_family) == len(family):
            out = separators_to_separations(g, nested.separators, family)
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
                build_totd(g, family, check_flags=False)  # certifies internally
                ran_totd += 1
        ran_pipelines += 1
    # the stream must actually exercise the machinery, not skip everything
    assert ran_pipelines >= 15
    assert ran_totd >= 8
