"""Verification harness: every invariant suite behind `verify` and the
acceptance tests.

Each suite returns a SuiteResult; failures carry enough detail to
reproduce (including the seed for randomized suites).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import oracles
from .core import (
    Graph,
    Separation,
    all_separations,
    canonical,
    enumerate_separations,
    graph_universe,
    is_nested,
    is_tight,
    join,
    meet,
    sep_sort_key,
    verify_universe,
    vertices_of,
)
from .errors import CapExceededError
from .fixtures import FIXTURES, PIPELINE_K
from .profiles import (
    distinguishes,
    efficient_distinguishers,
    enumerate_k_profiles,
    is_principal,
    pipeline_profiles,
)
from .profinite import (
    DirectedPoset,
    InverseSystem,
    product_chain_universe,
    profinite_splinter,
)
from .separators import canonical_nested_separators, separators_to_separations
from .splinter import FiniteSplinterFamily, splinter_finite, splinters_check
from .treedec import build_totd, treeset_to_treedecomposition


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _suite(name):
    def wrap(fn):
        def run(seed: int = 7) -> SuiteResult:
            t0 = time.time()
            try:
                detail = fn(seed)
                return SuiteResult(name, True, detail or "", time.time() - t0)
            except Exception as exc:  # noqa: BLE001 - harness boundary
                return SuiteResult(
                    name, False, f"{type(exc).__name__}: {exc} (seed={seed})", time.time() - t0
                )

        run.suite_name = name
        return run

    return wrap


@_suite("universe-axioms")
def suite_universe_axioms(seed):
    pairs = 0
    for name, fx in FIXTURES.items():
        for k in range(1, 5):
            u = graph_universe(fx.graph, max_order=k - 1)
            rep = verify_universe(u)
            if not rep.ok:
                raise AssertionError(f"{name} k={k}: {rep.violations[:3]}")
            pairs += rep.checked["pairs"]
    return f"zero violations on all five fixtures at k <= 4 ({pairs} pairs)"


@_suite("fish-and-corner-nestedness")
def suite_fish_corner(seed):
    checked = 0
    for name in ("FIX_C4", "FIX_GRID33"):
        g = FIXTURES[name].graph
        seps = enumerate_separations(g, 4, max_n=9, max_k=4)
        masks = [(s.a, s.b) for s in seps]
        m = len(seps)

        def nested_raw(a, b, c, d):
            return (
                (not a & ~c and not d & ~b)
                or (not a & ~d and not c & ~b)
                or (not b & ~c and not d & ~a)
                or (not b & ~d and not c & ~a)
            )

        nested_mask = [0] * m
        for i in range(m):
            ai, bi = masks[i]
            for j in range(i, m):
                if nested_raw(ai, bi, *masks[j]):
                    nested_mask[i] |= 1 << j
                    nested_mask[j] |= 1 << i
        for i in range(m):
            ai, bi = masks[i]
            for j in range(i + 1, m):
                if nested_mask[i] >> j & 1:
                    continue
                aj, bj = masks[j]
                corners = (
                    (ai | aj, bi & bj),
                    (ai | bj, bi & aj),
                    (bi | aj, ai & bj),
                    (bi | bj, ai & aj),
                )
                both = nested_mask[i] & nested_mask[j]
                t = both
                while t:
                    low = t & -t
                    idx = low.bit_length() - 1
                    t ^= low
                    ta, tb = masks[idx]
                    for ca, cb in corners:
                        checked += 1
                        if not nested_raw(ta, tb, ca, cb):
                            raise AssertionError(f"fish fails on {name}: {i},{j},{idx}")
        # corner-nestedness: t nested with r or s is nested with join or meet.
        # Orientation combos (r*, s*) mirror (r, s), so two combos suffice.
        for i in range(m):
            ai, bi = masks[i]
            for j in range(i, m):
                aj, bj = masks[j]
                union = nested_mask[i] | nested_mask[j]
                for ra, rb, sa, sb in ((ai, bi, aj, bj), (ai, bi, bj, aj)):
                    ja, jb = ra | sa, rb & sb
                    ma, mb = ra & sa, rb | sb
                    t = union
                    while t:
                        low = t & -t
                        idx = low.bit_length() - 1
                        t ^= low
                        ta, tb = masks[idx]
                        checked += 1
                        if not (
                            nested_raw(ta, tb, ja, jb) or nested_raw(ta, tb, ma, mb)
                        ):
                            raise AssertionError(
                                f"corner-nestedness fails on {name}: {i},{j},{idx}"
                            )
    return f"{checked} triple checks, zero counterexamples"


@_suite("profile-census")
def suite_profile_census(seed):
    for name, fx in FIXTURES.items():
        g = fx.graph
        # graph_restriction_system builds its point universes with all_separations
        if set(all_separations(g)) != set(oracles.brute_separations(g, g.num_vertices + 1)):
            raise AssertionError(f"{name}: all_separations != brute-force universe")
        for k, (total, regular) in sorted(fx.census.items()):
            pruned = enumerate_k_profiles(g, k, max_sk=128)
            if (len(pruned), sum(p.is_regular(g) for p in pruned)) != (total, regular):
                raise AssertionError(f"{name} k={k}: census drifted from the locked table")
            s_k = enumerate_separations(g, k, max_n=16, max_k=6)
            if len(s_k) > 24:
                continue
            unpruned = oracles.brute_profiles(g, k)
            if {p.chosen for p in pruned} != set(unpruned):
                raise AssertionError(f"{name} k={k}: pruned != unpruned census")
    g = FIXTURES["FIX_2K4"].graph
    rrp = pipeline_profiles(g, enumerate_k_profiles(g, 2))
    # the third profile points at the bridge edge; see the census note in README
    if len(rrp) != 3:
        raise AssertionError(f"FIX_2K4@2 regular robust principal census = {len(rrp)}")
    if not all(is_principal(g, p) for p in rrp):
        raise AssertionError("FIX_2K4@2: a regular profile is not principal")
    return (
        "universe == brute-force universe on every fixture; "
        "pruned == unpruned on all capped combos; FIX_2K4@2 rrp census = 3"
    )


@_suite("lattice-and-tightness")
def suite_lattice_tight(seed):
    checked = 0
    for name, fx in FIXTURES.items():
        g = fx.graph
        for k in fx.census:
            profs = enumerate_k_profiles(g, k, max_sk=128)
            for p, q in itertools.combinations(profs, 2):
                dset = efficient_distinguishers(g, p, q)
                if dset.order is None:
                    continue
                toward_p = [p.orients(s) for s in dset.seps]
                for r, s in itertools.product(toward_p, repeat=2):
                    for c in (join(r, s), meet(r, s)):
                        checked += 1
                        if canonical(c) not in dset.seps:
                            raise AssertionError(f"lattice closure fails on {name} k={k}")
                        if p.orients(c) != c:
                            raise AssertionError(f"lattice corner not in P on {name} k={k}")
                if p.is_regular(g) and q.is_regular(g):
                    for s in dset.seps:
                        checked += 1
                        if not is_tight(g, s):
                            raise AssertionError(f"non-tight distinguisher on {name} k={k}")
    return f"{checked} closure/tightness checks"


# ---------------------------------------------------------------------------
# randomized splinter instances

def _random_graph(rng, n):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < rng.choice((0.35, 0.55, 0.75))
    ]
    return Graph.from_edges(n, edges)


def random_splinter_instances(seed: int, count: int):
    """Seeded stream of FiniteSplinterFamily instances passing the splinter
    check: distinguisher families of random graphs, plus random families
    repaired by corner insertion; at most 4000 attempts."""
    rng = random.Random(seed)
    found = []
    attempts = 0
    while len(found) < count and attempts < 4000:
        attempts += 1
        n = rng.randint(4, 6)
        g = _random_graph(rng, n)
        u = graph_universe(g)
        if rng.random() < 0.5:
            k = rng.randint(2, 3)
            try:
                profs = enumerate_k_profiles(g, k, max_sk=40)
            except CapExceededError:
                continue
            fams = []
            for p, q in itertools.combinations(profs, 2):
                d = efficient_distinguishers(g, p, q)
                if d.seps:
                    fams.append(frozenset(d.seps))
            rng.shuffle(fams)
            fams = fams[: rng.randint(1, 6)]
            if not fams or sum(len(f) for f in fams) > 20:
                continue
        else:
            elems = [e for e in u.elements if e == canonical(e)]
            rng.shuffle(elems)
            n_fam = rng.randint(1, 4)
            fams = [
                frozenset(rng.sample(elems, rng.randint(1, 4)))
                for _ in range(n_fam)
            ]
            # repair: give crossing cross-family pairs a corner
            for _ in range(12):
                fam_obj = FiniteSplinterFamily(u, tuple(fams))
                ok, witness = splinters_check(fam_obj)
                if ok:
                    break
                i, j, s, t = witness
                fams[i] = fams[i] | {canonical(join(s, t))}
            if sum(len(f) for f in fams) > 20:
                continue
        fam_obj = FiniteSplinterFamily(u, tuple(fams))
        ok, _ = splinters_check(fam_obj)
        if ok:
            found.append(fam_obj)
    return found


@_suite("finite-splinter-random")
def suite_splinter_random(seed):
    instances = random_splinter_instances(seed, 200)
    if len(instances) < 200:
        raise AssertionError(f"only generated {len(instances)} splintering instances")
    agree = 0
    for inst in instances:
        picks = splinter_finite(inst)  # certifies nestedness internally
        if not oracles.brute_nested_transversal_exists(inst.universe, inst.families):
            raise AssertionError("engine found a transversal the oracle says cannot exist")
        for i, fam in enumerate(inst.families):
            if picks[i] not in fam and inst.universe.star(picks[i]) not in fam:
                raise AssertionError("pick outside its family")
        agree += 1
    return f"200 instances, certified transversal and oracle agreement {agree}/200"


@_suite("thin-splinter-fixtures")
def suite_thin_splinter(seed):
    details = []
    auto_counts = {}
    for name in FIXTURES:
        g = FIXTURES[name].graph
        autos = oracles.find_automorphisms(g)
        auto_counts[name] = len(autos)
        profs = pipeline_profiles(g, enumerate_k_profiles(g, PIPELINE_K[name]))
        if len(profs) < 2:
            nested_set = set()
        else:
            res = canonical_nested_separators(g, profs)
            inst = res.instance
            nested_set = set(res.separators)
            for key, fam in inst.families.items():
                if not fam & nested_set:
                    raise AssertionError(f"{name}: family {key} missed")
            for x, y in itertools.combinations(nested_set, 2):
                if not inst.nested(x, y):
                    raise AssertionError(f"{name}: output not nested")
        for phi in autos:
            mapped = {
                sum(1 << phi[v] for v in vertices_of(x)) if x else 0 for x in nested_set
            }
            if mapped != nested_set:
                raise AssertionError(f"{name}: not equivariant under {phi}")
        details.append(f"{name}: |N|={len(nested_set)}, {len(autos)} automorphisms")
    if auto_counts["FIX_C4"] != 8:
        raise AssertionError("the 4-cycle must have 8 automorphisms")
    swap = {v: 7 - v for v in range(8)}
    if swap not in oracles.find_automorphisms(FIXTURES["FIX_2K4"].graph):
        raise AssertionError("the two-K4 swap automorphism was not found")
    return "; ".join(details)


# ---------------------------------------------------------------------------
# profinite random systems

def random_candidate_system(rng: random.Random) -> InverseSystem:
    """A chain of 1-4 points over one chain-product universe, bonded by
    compositions of star-symmetric monotone chain maps."""
    a = rng.choice((2, 3))
    b = rng.choice((2, 3))
    u = product_chain_universe(a, b)
    npts = rng.randint(1, 4)
    points = tuple(f"p{i}" for i in range(npts))
    # chain poset with top at the last point
    strict = [(points[i], points[j]) for i in range(npts) for j in range(i + 1, npts)]
    poset = DirectedPoset.from_pairs(points, strict)
    maps = {}

    def chain_map(size):
        mid = (size - 1) / 2
        kind = rng.choice(("id", "mid"))
        if kind == "id" or size % 2 == 0:
            return lambda x: x
        return lambda x: int(mid)

    step = {}
    for i in range(npts - 1, 0, -1):
        fa, fb = chain_map(a), chain_map(b)
        step[points[i]] = lambda e, fa=fa, fb=fb: (fa(e[0]), fb(e[1]))
    for j in range(npts - 1, -1, -1):
        for i in range(j - 1, -1, -1):
            def compose(e, lo=i, hi=j):
                for t in range(hi, lo, -1):
                    e = step[points[t]](e)
                return e

            maps[(points[j], points[i])] = {e: compose(e) for e in u.elements}
    return InverseSystem(poset, {p: u for p in points}, maps)


def random_inverse_systems(seed: int, count: int):
    """Up to `count` (system, families) pairs: random candidate systems
    (valid by construction) with 1-3 closed-form families that splinter at
    every point, from at most 3000 attempts."""
    rng = random.Random(seed)
    found = []
    attempts = 0
    while len(found) < count and attempts < 3000:
        attempts += 1
        sys = random_candidate_system(rng)
        points = sys.poset.points
        top = points[-1]
        u = sys.universe_at[top]
        fams = []
        for _ in range(rng.randint(1, 3)):
            seedset = frozenset(rng.sample(list(u.elements), rng.randint(1, 3)))
            fam = {top: seedset}
            for p in points[:-1]:
                fam[p] = frozenset(sys.maps[(top, p)][x] for x in seedset)
            fams.append(fam)
        splinters_everywhere = True
        for p in points:
            fam_obj = FiniteSplinterFamily(u, tuple(frozenset(f[p]) for f in fams))
            okp, _ = splinters_check(fam_obj)
            if not okp:
                splinters_everywhere = False
                break
        if splinters_everywhere:
            found.append((sys, fams))
    return found


@_suite("profinite-splinter-random")
def suite_profinite_random(seed):
    systems = random_inverse_systems(seed, 50)
    if len(systems) < 50:
        raise AssertionError(f"only generated {len(systems)} splintering systems")
    for sys, fams in systems:
        res = profinite_splinter(sys, fams)
        through = oracles.brute_inverse_limits(sys, restrict=res.nested_choice)
        if {frozenset(x.items()) for x in res.limits} != {frozenset(x.items()) for x in through}:
            raise AssertionError("limits are not those through the nested choice")
        for p in sys.poset.points:
            proj = {lim[p] for lim in res.limits}
            for x, y in itertools.combinations(proj, 2):
                if not oracles.brute_nested(sys.universe_at[p], x, y):
                    raise AssertionError("projection not nested")
        for fam in fams:
            restrict = {p: res.nested_choice[p] & frozenset(fam[p]) for p in sys.poset.points}
            if not oracles.brute_inverse_limits(sys, restrict=restrict):
                raise AssertionError("family missed (profinite intersection failed)")
    return "50 systems, projections nested, all families met"


@_suite("canonical-separators-2k4")
def suite_canonical_separators(seed):
    g = FIXTURES["FIX_2K4"].graph
    res = canonical_nested_separators(g, pipeline_profiles(g, enumerate_k_profiles(g, 2)))
    if [vertices_of(m) for m in res.separators] != [(3,), (4,)]:
        raise AssertionError(f"unexpected separator set: {res.separators}")
    for name in FIXTURES:
        g = FIXTURES[name].graph
        profs = pipeline_profiles(g, enumerate_k_profiles(g, PIPELINE_K[name]))
        if len(profs) < 2:
            continue
        res = canonical_nested_separators(g, profs)
        violations, _ = oracles.brute_thin_splinter_report(res.instance)
        if violations:
            raise AssertionError(f"{name}: thinly-splinters check failed")
    return "FIX_2K4 separators {3},{4}; all fixture instances thinly splinter"


@_suite("separations-from-separators")
def suite_separations_from_separators(seed):
    details = []
    for name in FIXTURES:
        g = FIXTURES[name].graph
        profs = pipeline_profiles(g, enumerate_k_profiles(g, PIPELINE_K[name]))
        if len(profs) < 2:
            details.append(f"{name}: trivial")
            continue
        res = canonical_nested_separators(g, profs)
        out = separators_to_separations(g, res)
        for s, t in itertools.combinations(out, 2):
            if not is_nested(s, t):
                raise AssertionError(f"{name}: output not nested")
        for p, q in itertools.combinations(profs, 2):
            best = oracles.brute_minimum_distinguishing_order(g, p.chosen, q.chosen)
            if best is None:
                continue
            if not any(s.order == best and distinguishes(p, q, s) for s in out):
                raise AssertionError(f"{name}: pair not distinguished at brute-force order")
        details.append(f"{name}: |N|={len(out)}")
    return "; ".join(details)


def regular_separations(g: Graph) -> tuple[Separation, ...]:
    """The separations (A, B) of g, canonically oriented, with A ≠ V ≠ B:
    those with neither orientation small, as (A, B) ≤ (B, A) iff B = V.
    In `all_separations` order, which is that of the canonical elements
    of `graph_universe(g)`."""
    return tuple(s for s in all_separations(g) if s.a != g.vertices != s.b)


def random_regular_tree_set(pool, rng, max_size: int = 8):
    """A random nested subset of at most max_size separations of pool,
    the `regular_separations` of a graph: the members of a shuffled copy
    of pool, in turn, that are nested with all those kept before them."""
    pool = list(pool)
    rng.shuffle(pool)
    chosen = []
    for s in pool:
        if len(chosen) >= max_size:
            break
        if all(is_nested(s, t) for t in chosen):
            chosen.append(s)
    return tuple(sorted(chosen, key=sep_sort_key))


@_suite("treeset-roundtrip-random")
def suite_treeset_roundtrip(seed):
    rng = random.Random(seed)
    names = sorted(FIXTURES)
    pools = {name: regular_separations(FIXTURES[name].graph) for name in names}
    done = 0
    for trial in range(100):
        name = names[trial % len(names)]
        g = FIXTURES[name].graph
        n_set = random_regular_tree_set(pools[name], rng, max_size=rng.randint(1, 8))
        td = treeset_to_treedecomposition(g, n_set)
        if set(oracles.brute_induced_separations(td)) != set(n_set):
            raise AssertionError("roundtrip failed")
        violations = oracles.brute_treedecomposition_violations(g, td)
        if violations:
            raise AssertionError(f"axioms failed: {violations[:2]}")
        done += 1
    return f"{done}/100 random regular tree sets round-trip"


@_suite("totd-2k4")
def suite_totd(seed):
    g = FIXTURES["FIX_2K4"].graph
    profs = pipeline_profiles(g, enumerate_k_profiles(g, 2))
    totd = build_totd(g, profs)  # certified internally
    root_bags = sorted(vertices_of(bag) for bag in totd.td.bags)
    if root_bags != [(0, 1, 2, 3), (3, 4), (4, 5, 6, 7)]:
        raise AssertionError(f"unexpected root decomposition: {root_bags}")
    if len(totd.children) != 3:
        raise AssertionError("root must have three torso children")
    child_vertex_sets = sorted(vertices_of(c.graph.vertices) for c in totd.children)
    if child_vertex_sets != [(0, 1, 2, 3), (3, 4), (4, 5, 6, 7)]:
        raise AssertionError("children are not the three torsos")
    swap = {v: 7 - v for v in range(8)}
    relabelled = g.relabelled(swap)
    if relabelled != g:
        raise AssertionError("swap is not an automorphism")
    mapped_root = sorted(tuple(sorted(swap[v] for v in vertices_of(bag))) for bag in totd.td.bags)
    if mapped_root != root_bags:
        raise AssertionError("root decomposition not equivariant under the swap")
    return "3-bag root path, 3 torso children, certified, swap-equivariant"


ALL_SUITES = [
    suite_universe_axioms,
    suite_fish_corner,
    suite_profile_census,
    suite_lattice_tight,
    suite_splinter_random,
    suite_thin_splinter,
    suite_profinite_random,
    suite_canonical_separators,
    suite_separations_from_separators,
    suite_treeset_roundtrip,
    suite_totd,
]


def run_suites(seed: int = 7, names=None) -> list[SuiteResult]:
    results = []
    for suite in ALL_SUITES:
        if names and suite.suite_name not in names:
            continue
        results.append(suite(seed))
    return results
