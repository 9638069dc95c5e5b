"""Both splinter engines: the finite fix-and-restrict algorithm and the
canonical levelwise thin splinter, plus their hypothesis checkers."""

import collections
import dataclasses
import itertools
import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tangleforge import oracles
from tangleforge.cli import _s_k_universe
from tangleforge.core import (
    Graph,
    Separation,
    UniverseView,
    canonical,
    graph_universe,
    iter_bits,
    leq,
    mask_of,
)
from tangleforge.errors import (
    CapExceededError,
    CertificationError,
    HypothesisError,
    PreconditionError,
    TangleforgeError,
)
from tangleforge.profiles import efficient_distinguishers, enumerate_k_profiles, pipeline_profiles
from tangleforge.profinite import product_chain_universe, universe_from_json
from tangleforge import separators as separators_module
from tangleforge import splinter as splinter_module
from tangleforge.separators import build_separator_instance, separator_nested
from tangleforge.splinter import (
    FiniteSplinterFamily,
    SplinterInstance,
    crossing_number,
    crossing_table,
    splinter_finite,
    splinters_check,
    thin_splinter,
    thinly_splinters_check,
)
from tangleforge.verify import _random_graph, random_splinter_instances

from jsonforms import universe_to_json


def sep(a, b):
    return Separation(mask_of(a), mask_of(b))


# ---------------------------------------------------------------------------
# the finite splinter condition

def test_single_family_always_splinters(graphs):
    u = graph_universe(graphs["FIX_P4"])
    fam = FiniteSplinterFamily(u, (frozenset({canonical(sep([0, 1], [1, 2, 3]))}),))
    ok, witness = splinters_check(fam)
    assert ok and witness is None


def test_crossing_singletons_without_corners_fail(graphs):
    g = graphs["FIX_C4"]
    u = graph_universe(g)
    d1 = canonical(sep([0, 1, 2], [2, 3, 0]))
    d2 = canonical(sep([1, 2, 3], [3, 0, 1]))
    fam = FiniteSplinterFamily(u, (frozenset({d1}), frozenset({d2})))
    ok, witness = splinters_check(fam)
    assert not ok
    i, j, s, t = witness
    assert {s, t} == {d1, d2}


def grid_distinguisher_families(g):
    profs = enumerate_k_profiles(g, 3, max_sk=64)
    fams = []
    for p, q in itertools.combinations(profs, 2):
        d = efficient_distinguishers(g, p, q)
        if d.seps:
            fams.append(frozenset(d.seps))
    return tuple(fams)


def test_grid_distinguisher_families_splinter(graphs):
    g = graphs["FIX_GRID33"]
    fams = grid_distinguisher_families(g)
    ok, _ = splinters_check(FiniteSplinterFamily(graph_universe(g), fams))
    assert ok


def test_picks_on_a_graph_universe_read_nestedness_off_the_codes(graphs, monkeypatch):
    """On a graph universe the picks test nestedness on the members' codes,
    so `_nested` runs only in the final check of the transversal, once per
    pair of picks. A universe with a leq of its own keeps `_nested` for the
    picks, and picks the same members."""
    g = graphs["FIX_GRID33"]
    fams = grid_distinguisher_families(g)
    calls = collections.Counter()
    monkeypatch.setattr(
        splinter_module, "_nested", counted(calls, "_nested", splinter_module._nested)
    )
    u = graph_universe(g)
    picks = splinter_finite(FiniteSplinterFamily(u, fams))
    assert calls["_nested"] == len(fams) * (len(fams) - 1) // 2
    calls.clear()
    own_leq = dataclasses.replace(u, leq=lambda x, y: leq(x, y))
    assert splinter_finite(FiniteSplinterFamily(own_leq, fams)) == picks
    assert calls["_nested"] > len(fams) * (len(fams) - 1) // 2


def test_empty_family_rejected(graphs):
    u = graph_universe(graphs["FIX_P4"])
    with pytest.raises(PreconditionError):
        FiniteSplinterFamily(u, (frozenset(),))


# ---------------------------------------------------------------------------
# the finite splinter algorithm

def test_single_family_transversal(graphs):
    u = graph_universe(graphs["FIX_P4"])
    member = canonical(sep([0, 1], [1, 2, 3]))
    fam = FiniteSplinterFamily(u, (frozenset({member}),))
    assert splinter_finite(fam) == (member,)


def test_two_k4_distinguisher_transversal(graphs):
    from tangleforge.core import is_nested

    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    fams = []
    for p, q in itertools.combinations(profs, 2):
        d = efficient_distinguishers(g, p, q)
        assert d.seps
        fams.append(frozenset(d.seps))
    picks = splinter_finite(FiniteSplinterFamily(graph_universe(g), tuple(fams)))
    assert len(picks) == len(fams)
    for x, y in itertools.combinations(picks, 2):
        assert is_nested(x, y)


def test_splinter_finite_raises_on_non_splintering_input(graphs):
    g = graphs["FIX_C4"]
    u = graph_universe(g)
    d1 = canonical(sep([0, 1, 2], [2, 3, 0]))
    d2 = canonical(sep([1, 2, 3], [3, 0, 1]))
    with pytest.raises(HypothesisError):
        splinter_finite(FiniteSplinterFamily(u, (frozenset({d1}), frozenset({d2}))))


def test_random_instances_property(graphs):
    from tangleforge.splinter import _nested

    for inst in random_splinter_instances(seed=11, count=40):
        picks = splinter_finite(inst)
        u = inst.universe
        for x, y in itertools.combinations(picks, 2):
            assert _nested(u, x, y)
        assert oracles.brute_nested_transversal_exists(u, inst.families)


# ---------------------------------------------------------------------------
# the coded check and its restrictions against the definition


def tabulated_universe(rng, n):
    """n elements (n even) with star x ↦ x ^ 1 and a random reflexive leq
    and join: no lattice, so corners land anywhere and restrictions can
    break pairs that the whole instance let pass."""
    elements = tuple(range(n))
    leq = {(x, y) for x in elements for y in elements if x == y or rng.random() < 0.2}
    join = {(x, y): rng.randrange(n) for x in elements for y in elements}
    return UniverseView(
        elements=elements,
        leq=lambda x, y: (x, y) in leq,
        star=lambda x: x ^ 1,
        join=lambda x, y: join[x, y],
        meet=lambda x, y: join[y, x],
        order_of=lambda x: 0,
        closed=True,
        submodular_claimed=False,
    )


def perturbed_families(u, fams, rng):
    """fams with members dropped, flipped to their star or added from u."""
    out = [set(f) for f in fams]
    elements = list(u.elements)
    for _ in range(rng.randint(1, 3)):
        fam = rng.choice(out)
        x = rng.choice(sorted(fam, key=elements.index))
        move = rng.choice(("drop", "flip", "add"))
        if move == "drop" and len(fam) > 1:
            fam.discard(x)
        elif move == "flip":
            fam.discard(x)
            fam.add(u.star(x))
        else:
            fam.add(rng.choice(elements))
    return tuple(frozenset(f) for f in out)


def splinter_universes(rng):
    """(universe, families) pairs: full graph universes and the truncated
    S_k universe of the splinter verb with distinguisher families, and
    product chains, their JSON form and tabulated universes with random
    families."""
    while True:
        kind = rng.choice(("graph", "s_k", "chain", "json", "tabulated"))
        if kind in ("graph", "s_k"):
            g = _random_graph(rng, rng.randint(4, 7))
            k = rng.randint(2, 3)
            profs = pipeline_profiles(g, enumerate_k_profiles(g, k, max_sk=512))
            fams = [frozenset(efficient_distinguishers(g, p, q).seps) for p, q in itertools.combinations(profs, 2)]
            fams = [f for f in fams if f]
            if not fams:
                continue
            u = graph_universe(g) if kind == "graph" else _s_k_universe(g, profs[0])
        else:
            if kind == "tabulated":
                u = tabulated_universe(rng, 2 * rng.randint(2, 5))
            else:
                u = product_chain_universe(rng.randint(2, 4), rng.randint(2, 4))
                if kind == "json":
                    u = universe_from_json(universe_to_json(u))
            elements = list(u.elements)
            fams = [frozenset(rng.sample(elements, rng.randint(1, 3))) for _ in range(rng.randint(2, 4))]
        yield kind, u, tuple(fams)


def test_splinters_check_matches_oracle_on_perturbed_families():
    rng = random.Random(17)
    seen = collections.Counter()
    universes = splinter_universes(rng)
    while min(seen[kind, ok] for kind in ("graph", "s_k", "chain", "json", "tabulated") for ok in (True, False)) < 10:
        kind, u, fams = next(universes)
        for families in (fams, perturbed_families(u, fams, rng), perturbed_families(u, fams, rng)):
            expected = oracles.brute_splinters_check(u, families)
            assert splinters_check(FiniteSplinterFamily(u, families)) == expected, (kind, families)
            seen[kind, expected[0]] += 1


def restated_splinter_finite(u, families):
    """splinter_finite as it was before witnesses: the brute-force check on
    the whole instance and again on every restricted sub-instance."""
    nested = splinter_module._nested
    rank = {x: i for i, x in enumerate(u.elements)}
    picks = {}
    active = dict(enumerate(families))
    failure = "splinter condition failed on the whole instance"
    while active:
        ok, witness = oracles.brute_splinters_check(u, tuple(active.values()))
        if not ok:
            keys = list(active)
            i, j, s, t = witness
            raise HypothesisError(failure, witness=(keys[i], keys[j], s, t))
        failure = "splinter condition failed on a restricted sub-instance"
        for idx in sorted(active):
            others = [fam for k, fam in active.items() if k != idx]
            cands = [
                c
                for c in sorted(active[idx], key=rank.__getitem__)
                if all(any(nested(u, c, x) for x in fam) for fam in others)
            ]
            if cands:
                picks[idx] = cands[0]
                active = {
                    k: frozenset(x for x in fam if nested(u, cands[0], x))
                    for k, fam in active.items()
                    if k != idx
                }
                break
        else:
            raise HypothesisError(
                "no family member is nested with an element of every other family",
                witness=tuple(sorted(active)),
            )
    out = tuple(picks[i] for i in range(len(families)))
    for x, y in itertools.combinations(out, 2):
        if not nested(u, x, y):
            raise CertificationError(f"transversal not nested: {x} vs {y}")
    return out


def run_outcome(run, *args):
    try:
        return "ok", run(*args)
    except TangleforgeError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def test_splinter_finite_names_a_whole_instance_failure():
    """Families that fail the splinter condition before any pick fail it
    on the whole instance, and the error says so: on the 4-cycle, the
    crossing separations ({0, 1, 2}, {0, 2, 3}) and ({1, 2, 3}, {0, 1, 3})
    have no corner in either family."""
    u = graph_universe(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    x, y = sep([0, 1, 2], [0, 2, 3]), sep([1, 2, 3], [0, 1, 3])
    families = (frozenset({x}), frozenset({y}))
    ok, witness = oracles.brute_splinters_check(u, families)
    assert not ok
    with pytest.raises(HypothesisError) as err:
        splinter_finite(FiniteSplinterFamily(u, families))
    assert str(err.value) == "splinter condition failed on the whole instance"
    assert err.value.witness == witness


def test_splinter_finite_matches_the_restated_recursion():
    """Picks, or the error and its witness, equal those of the recursion
    that checks every restricted sub-instance from scratch; tabulated
    universes give sub-instances that fail after the whole one passed."""
    rng = random.Random(5)
    failed_restrictions = 0
    universes = splinter_universes(rng)
    while failed_restrictions < 15:
        kind, u, fams = next(universes)
        for families in (fams, perturbed_families(u, fams, rng)):
            expected = run_outcome(restated_splinter_finite, u, families)
            assert run_outcome(splinter_finite, FiniteSplinterFamily(u, families)) == expected, (
                kind,
                families,
            )
            if expected[0] == "HypothesisError" and oracles.brute_splinters_check(u, families)[0]:
                failed_restrictions += expected[1].startswith("splinter condition")


def non_commuting_json_universe(rng):
    """A tabulated universe written through its JSON form and read back:
    `universe_from_json` keeps each ordered join, and this one has a pair
    whose two joins differ."""
    while True:
        u = universe_from_json(universe_to_json(tabulated_universe(rng, 2 * rng.randint(3, 6))))
        if any(u.join(x, y) != u.join(y, x) for x in u.elements for y in u.elements):
            return u


def test_member_pair_check_matches_the_oracle_on_non_commuting_json_universes():
    """The member-pair test reads each ordered pair (s, t) once, s first.
    On 300 seeded instances over JSON universes whose join does not
    commute, the verdict and first witness of `splinters_check` equal
    `oracles.brute_splinters_check`'s, and the outcome of `splinter_finite`
    equals that of the recursion that checks each restriction from
    scratch. 66 instances fail the whole check and 8 fail on a
    restriction."""
    rng = random.Random("member pairs")
    outcomes = collections.Counter()
    for _ in range(300):
        u = non_commuting_json_universe(rng)
        elements = list(u.elements)
        families = tuple(
            frozenset(rng.sample(elements, rng.randint(1, 2))) for _ in range(rng.randint(2, 5))
        )
        expected = oracles.brute_splinters_check(u, families)
        assert splinters_check(FiniteSplinterFamily(u, families)) == expected, families
        outcome = run_outcome(restated_splinter_finite, u, families)
        assert run_outcome(splinter_finite, FiniteSplinterFamily(u, families)) == outcome, families
        outcomes[outcome[1] if outcome[0] == "HypothesisError" else outcome[0]] += 1
    assert outcomes["splinter condition failed on the whole instance"] == 66
    assert outcomes["splinter condition failed on a restricted sub-instance"] == 8


def test_restrictions_to_any_subfamilies_match_the_oracle():
    """`_Splinters.restrict` holds for any chain of restrictions, not only
    those of `splinter_finite`, which take a member and its star out of
    every family at once: here each step drops families and random members
    of the others. After each step the first failure equals the oracle's
    on the restricted families, with their original indices. On 200
    seeded chains over graph and non-commuting JSON universes, 17 steps
    fail."""
    rng = random.Random("restrictions")
    failed = 0
    for n in range(200):
        u = non_commuting_json_universe(rng) if n % 2 else graph_universe(_random_graph(rng, 5))
        elements = list(u.elements)
        families = [frozenset(rng.sample(elements, rng.randint(2, 5))) for _ in range(rng.randint(3, 5))]
        check = splinter_module._Splinters(u, families)
        if check.failure is not None:
            continue
        while len(check.families) > 1:
            kept = {
                k: [m for m in fam if rng.random() < 0.8]
                for k, fam in check.families.items()
                if rng.random() < 0.8
            }
            keys = list(kept)
            restricted = tuple(frozenset(check.elements[m] for m in kept[k]) for k in keys)
            ok, witness = oracles.brute_splinters_check(u, restricted)
            expected = None if ok else (keys[witness[0]], keys[witness[1]], *witness[2:])
            assert check.restrict(kept) == expected, (families, kept)
            if not ok:
                failed += 1
                break
    assert failed == 17


def edge_case_families(shape, u, rng):
    """Families of u of one shape that the member-pair masks must get right."""
    elements = list(u.elements)
    fams = [set(rng.sample(elements, rng.randint(1, 3))) for _ in range(rng.randint(2, 4))]
    if shape == "both orientations":
        x = rng.choice(elements)
        fams[0] |= {x, u.star(x)}
    elif shape == "in every family":
        x = rng.choice(elements)
        for fam in fams:
            fam.add(x)
    elif shape == "two equal families":
        fams.append(set(fams[0]))
    elif shape == "single family":
        fams = fams[:1]
    else:
        fams = []
    return tuple(frozenset(fam) for fam in fams)


@pytest.mark.parametrize(
    "shape",
    ["both orientations", "in every family", "two equal families", "single family", "no families"],
)
def test_member_pair_masks_on_edge_cases(shape):
    """A family that holds both x and x*, a member of every family, two
    equal families, one family and none: 60 seeded instances each, over
    graph universes (coded) and non-commuting JSON universes, give the
    oracle's verdict and witness and the restated recursion's outcome.
    The first three shapes fail the check on some instances."""
    rng = random.Random(shape)
    verdicts = collections.Counter()
    for n in range(60):
        if n % 2:
            u = non_commuting_json_universe(rng)
        else:
            u = graph_universe(_random_graph(rng, rng.randint(3, 5)))
        families = edge_case_families(shape, u, rng)
        expected = oracles.brute_splinters_check(u, families)
        assert splinters_check(FiniteSplinterFamily(u, families)) == expected, families
        outcome = run_outcome(restated_splinter_finite, u, families)
        assert run_outcome(splinter_finite, FiniteSplinterFamily(u, families)) == outcome, families
        verdicts[expected[0]] += 1
    assert verdicts[True]
    assert bool(verdicts[False]) == (shape not in ("single family", "no families"))


# ---------------------------------------------------------------------------
# abstract thin splinter instances

def chain_instance():
    """Three elements, all pairwise nested, two families at levels 1 and 2."""
    nested = lambda a, b: True
    return SplinterInstance(
        elements=("x", "y", "z"),
        families={"f1": {"x", "y"}, "f2": {"z"}},
        orders={"f1": 1, "f2": 2},
        nested=nested,
    )


def crossing_instance():
    """a and b cross; the corner c is nested with everything and sits in
    both families, giving property (3) its witness."""
    crossing = {("a", "b"), ("b", "a")}
    return SplinterInstance(
        elements=("a", "b", "c"),
        families={"f1": {"a", "c"}, "f2": {"b", "c"}},
        orders={"f1": 1, "f2": 1},
        nested=lambda x, y: (x, y) not in crossing,
    )


def cornerless_instance():
    crossing = {("a", "b"), ("b", "a")}
    return SplinterInstance(
        elements=("a", "b"),
        families={"f1": {"a"}, "f2": {"b"}},
        orders={"f1": 1, "f2": 1},
        nested=lambda x, y: (x, y) not in crossing,
    )


def test_crossing_number_counts_level_members():
    inst = crossing_instance()
    assert crossing_number(inst, "a", 1) == 1  # b crosses a at level 1
    assert crossing_number(inst, "c", 1) == 0
    assert crossing_number(inst, "a", 2) == 0


def test_crossing_number_zero_for_fully_nested():
    inst = chain_instance()
    for e in inst.elements:
        for k in (0, 1, 2):
            assert crossing_number(inst, e, k) == 0


def test_crossing_profile_table():
    t = crossing_table(crossing_instance())
    assert [t.crossing[1][t.index[x]] for x in "abc"] == [1, 1, 0]


def test_crossing_table_counts_equal_the_crossing_number(graphs):
    """The crossing numbers the table counts once per element and level,
    which the check and the construction both read, equal the module-level
    `crossing_number` on the 3- and 5-triangle rings and on FIX_GRID33."""
    grid = graphs["FIX_GRID33"]
    instances = [
        ring_instance(3)[1],
        ring_instance(5)[1],
        build_separator_instance(grid, pipeline_profiles(grid, enumerate_k_profiles(grid, 3)))[0],
    ]
    for inst in instances:
        t = crossing_table(inst)
        assert list(t.crossing) == sorted(set(inst.orders.values()))
        for k, counts in t.crossing.items():
            assert counts == [crossing_number(inst, a, k) for a in inst.elements]
        assert thinly_splinters_check(inst).max_crossing == {
            k: max(crossing_number(inst, a, k) for fam in inst.families.values() for a in fam)
            for k in t.crossing
        }


def test_is_corner_definition():
    inst = crossing_instance()
    assert oracles.is_corner(inst, "c", "a", "b")
    # an input is always a corner of itself and anything else
    assert oracles.is_corner(cornerless_instance(), "a", "a", "b")


def test_thinly_splinters_check_reports():
    assert thinly_splinters_check(chain_instance()).ok
    assert thinly_splinters_check(crossing_instance()).ok
    rep = thinly_splinters_check(cornerless_instance())
    assert not rep.ok
    assert any(kind == "property-3" for kind, _ in rep.violations)


def test_thin_splinter_singleton():
    inst = SplinterInstance(
        elements=("a",),
        families={"f": {"a"}},
        orders={"f": 3},
        nested=lambda x, y: True,
    )
    res = thin_splinter(inst)
    assert res.nested_set == ("a",)
    assert res.levels[0].k == 3


def test_thin_splinter_prefers_low_crossing_numbers():
    inst = crossing_instance()
    res = thin_splinter(inst)
    # c has crossing number 0 in both families, a and b have 1
    assert res.nested_set == ("c",)


def test_thin_splinter_levels_monotone_and_meeting():
    inst = chain_instance()
    res = thin_splinter(inst)
    seen = set()
    for level in res.levels:
        seen |= set(level.added)
    for fam in inst.families.values():
        assert fam & seen


def test_thin_splinter_raises_on_cornerless():
    with pytest.raises(HypothesisError):
        thin_splinter(cornerless_instance())


def test_thin_splinter_equivariance_under_instance_isomorphism():
    inst = crossing_instance()
    rename = {"a": "b", "b": "a", "c": "c"}  # swapping a and b preserves ∼
    crossing = {("a", "b"), ("b", "a")}
    mapped = SplinterInstance(
        elements=("a", "b", "c"),
        families={"f1": {rename[x] for x in inst.families["f1"]},
                  "f2": {rename[x] for x in inst.families["f2"]}},
        orders=dict(inst.orders),
        nested=lambda x, y: (x, y) not in crossing,
    )
    res = thin_splinter(inst)
    res_mapped = thin_splinter(mapped)
    assert {rename[x] for x in res.nested_set} == set(res_mapped.nested_set)


def test_both_engines_on_the_same_distinguisher_data(graphs):
    """The two-K4 distinguisher families both splinter and thinly splinter;
    each engine returns a valid nested transversal of its own formulation."""
    from tangleforge.core import is_nested

    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    fams = []
    for p, q in itertools.combinations(profs, 2):
        fams.append(frozenset(efficient_distinguishers(g, p, q).seps))
    picks = splinter_finite(FiniteSplinterFamily(graph_universe(g), tuple(fams)))
    for x, y in itertools.combinations(picks, 2):
        assert is_nested(x, y)

    inst, _ = build_separator_instance(g, profs)
    res = thin_splinter(inst)
    for fam in inst.families.values():
        assert fam & set(res.nested_set)


def test_property3_corner_has_strictly_lower_crossing_number(triring, triring_profiles):
    """On the triangle ring separator instance, crossing same-level pairs
    admit corners whose level crossing number strictly drops."""
    inst, _ = build_separator_instance(triring, triring_profiles)
    keys = inst.family_keys()
    exercised = 0
    for ki, kj in itertools.combinations(keys, 2):
        k = inst.orders[ki]
        if inst.orders[kj] != k:
            continue
        for a in inst.families[ki]:
            for b in inst.families[kj]:
                if inst.nested(a, b):
                    continue
                cn_a = crossing_number(inst, a, k)
                cn_b = crossing_number(inst, b, k)
                corners = [
                    c
                    for fam in (inst.families[ki], inst.families[kj])
                    for c in fam
                    if oracles.is_corner(inst, c, a, b)
                ]
                assert any(
                    crossing_number(inst, c, k) < max(cn_a, cn_b) for c in corners
                )
                exercised += 1
    assert exercised > 0


# ---------------------------------------------------------------------------
# the tabulated check and engine against the per-call definitions


def per_pair(per_triple, keys):
    """The corner oracle of an instance with the family keys `keys` that
    answers for (a, b) every key at which per_triple(a, b, key) is not
    None, with that answer."""

    def corner_oracle(a, b):
        return {key: c for key in keys if (c := per_triple(a, b, key)) is not None}

    return corner_oracle


@st.composite
def thin_instances(draw):
    """A random instance: at most 10 elements, a reflexive nestedness
    relation that need not be symmetric, 1 to 4 families with orders in
    0..3 under int and tuple keys, and sometimes a corner oracle that
    answers with a family member or None."""
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    crossing = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
    if draw(st.booleans()):
        crossing |= {(b, a) for a, b in crossing}
    keys = draw(
        st.lists(
            st.one_of(st.integers(0, 5), st.tuples(st.integers(0, 3), st.integers(0, 3))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    families = {key: draw(st.sets(st.integers(0, n - 1), min_size=1)) for key in keys}
    orders = {key: draw(st.integers(0, 3)) for key in keys}

    def corner_oracle(a, b, key):
        members = sorted(families[key])
        pick = (7 * a + b) % (len(members) + 1)
        return members[pick] if pick < len(members) else None

    return SplinterInstance(
        elements=tuple(range(n)),
        families=families,
        orders=orders,
        nested=lambda a, b: (a, b) not in crossing,
        corner_oracle=per_pair(corner_oracle, keys) if draw(st.booleans()) else None,
    )


def one_way_instance():
    """b crosses a but a is nested with b. The check tests that pair from
    the lower level and passes; the engine then finds no member of the
    upper family nested with a."""
    return SplinterInstance(
        elements=("a", "b"),
        families={"low": {"a"}, "high": {"b"}},
        orders={"low": 0, "high": 1},
        nested=lambda x, y: (x, y) != ("b", "a"),
    )


def outcome(run, inst):
    """What a run of an engine on inst ends in: its result or its error."""
    try:
        return run(inst)
    except TangleforgeError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@settings(max_examples=300)
@given(thin_instances())
@example(chain_instance())
@example(crossing_instance())
@example(cornerless_instance())
@example(one_way_instance())
def test_tabulated_thin_splinter_matches_oracle(inst):
    rep = thinly_splinters_check(inst)
    violations, max_crossing = oracles.brute_thin_splinter_report(inst)
    assert rep.violations == violations
    assert rep.max_crossing == max_crossing

    def engine(i):
        res = thin_splinter(i)
        return res.nested_set, tuple((lv.k, lv.added) for lv in res.levels)

    assert outcome(engine, inst) == outcome(oracles.brute_thin_splinter, inst)


def ring_profiles(t):
    """The ring of t triangles joined by bridges, and its regular robust
    3-profiles."""
    edges = [(3 * i + a, 3 * i + b) for i in range(t) for a, b in ((0, 1), (1, 2), (0, 2))]
    g = Graph.from_edges(3 * t, edges + [(3 * i + 2, (3 * i + 3) % (3 * t)) for i in range(t)])
    return g, pipeline_profiles(g, enumerate_k_profiles(g, 3, max_sk=256))


def ring_instance(t):
    """The ring of t triangles joined by bridges, and the separator
    instance of its regular robust 3-profiles."""
    g, profiles = ring_profiles(t)
    return g, build_separator_instance(g, profiles)[0]


def counted(calls, name, real):
    """real, counting its calls under calls[name]."""

    def wrapper(*args):
        calls[name] += 1
        return real(*args)

    return wrapper


def test_thin_splinter_calls_nested_once_per_ordered_pair(monkeypatch):
    """The check and the engine share one crossing table, built once per
    run and filled with one `nested` call per ordered pair of elements."""
    _, inst = ring_instance(3)
    calls = {"nested": 0, "crossing_table": 0}
    monkeypatch.setattr(
        splinter_module,
        "crossing_table",
        counted(calls, "crossing_table", splinter_module.crossing_table),
    )
    thin_splinter(dataclasses.replace(inst, nested=counted(calls, "nested", inst.nested)))
    assert len(inst.elements) == 12
    assert calls == {"nested": len(inst.elements) ** 2, "crossing_table": 1}


def test_separator_crossing_table_calls_components_once_per_element(monkeypatch):
    """The separator instance computes the sides of each separator y from
    one `components` call of G - y when it is built, and the thin splinter
    run on it, which fills the crossing table from those sides, makes no
    more."""
    g, profiles = ring_profiles(3)
    calls = {"components": 0}
    monkeypatch.setattr(Graph, "components", counted(calls, "components", Graph.components))
    inst, _ = build_separator_instance(g, profiles)
    thin_splinter(inst)
    assert calls == {"components": 12}


def crossing_pairs(table):
    """The crossing pairs (a, b) of family members of a crossing table."""
    return sum((table.rows[i] & table.union).bit_count() for i in iter_bits(table.union))


def test_replacing_nested_replaces_the_crossing_relation():
    """The crossing table reads the instance's one nestedness relation: a
    replaced `nested` under which everything is nested leaves no crossing
    pair."""
    _, inst = ring_instance(3)
    assert crossing_pairs(crossing_table(inst)) > 0
    assert crossing_pairs(crossing_table(dataclasses.replace(inst, nested=lambda a, b: True))) == 0


def test_five_triangle_ring_asks_the_corner_oracle_once_per_triple(monkeypatch):
    """40 separators, so 40 `components` calls, all made when the instance
    is built, and 1,760 distinct (a, b, target) triples of crossing pairs
    reach the corner oracle (the per-family-pair walk asks 5,510
    questions), each read once off the answer for its pair: the check
    calls the oracle once for each of the 416 crossing pairs that ask some
    target. The instance thinly splinters, and each of its 420 crossing
    pairs gets one corner mask."""
    g, profiles = ring_profiles(5)
    calls = {"components": 0, "oracle": 0, "corner_mask": 0}
    monkeypatch.setattr(Graph, "components", counted(calls, "components", Graph.components))
    inst, _ = build_separator_instance(g, profiles)
    assert len(inst.elements) == calls["components"] == 40
    corner_mask = splinter_module._PairTests.corner_mask
    monkeypatch.setattr(
        splinter_module._PairTests, "corner_mask", counted(calls, "corner_mask", corner_mask)
    )
    triples = collections.Counter()

    class Answers(dict):
        def __init__(self, a, b, answers):
            super().__init__(answers)
            self.pair = a, b

        def get(self, key, default=None):
            triples[self.pair + (key,)] += 1
            return super().get(key, default)

    def counted_oracle(a, b):
        calls["oracle"] += 1
        return Answers(a, b, inst.corner_oracle(a, b))

    rep = thinly_splinters_check(dataclasses.replace(inst, corner_oracle=counted_oracle))
    assert rep.ok
    assert crossing_pairs(rep.table) == 420
    assert calls == {"components": 40, "oracle": 416, "corner_mask": 420}
    assert len(triples) == 1760 and set(triples.values()) == {1}


def test_five_triangle_ring_builds_the_corners_of_each_pair_once(monkeypatch):
    """The separator instance's corner oracle, `_first_corners`, builds
    the corners of a pair once and answers every target of the pair from
    them: a check builds corners for 416 of the 420 crossing pairs (the
    other four ask about no target), each once. The instance keeps no
    state between checks, so a second check builds each of the 416 once
    more."""
    g, profiles = ring_profiles(5)
    built = collections.Counter()
    first_corners = separators_module._first_corners

    def counted_build(a, b, *rest):
        built[a, b] += 1
        return first_corners(a, b, *rest)

    monkeypatch.setattr(separators_module, "_first_corners", counted_build)
    inst, _ = build_separator_instance(g, profiles)
    rep = thinly_splinters_check(inst)
    assert rep.ok and crossing_pairs(rep.table) == 420
    assert len(built) == 416 and set(built.values()) == {1}
    assert thinly_splinters_check(inst).violations == []
    assert len(built) == 416 and set(built.values()) == {2}


def assert_oracle_is_the_per_triple_reference(g, profiles, rng):
    """The instance's corner oracle answers every pair (a, b) with family
    keys only, and at every family key as `oracles.brute_corner_oracle`
    answers the triple (a, b, key), with the triples asked in a shuffled
    order and the oracle asked afresh for each, so its answers do not
    depend on the order of the questions. Returns the number of answers
    that are not None."""
    inst, distinguishers = build_separator_instance(g, profiles)
    reference = oracles.brute_corner_oracle(distinguishers)
    triples = [
        (a, b, key)
        for a, b in itertools.product(inst.elements, repeat=2)
        for key in inst.family_keys()
    ]
    rng.shuffle(triples)
    answers = 0
    for a, b, key in triples:
        found = inst.corner_oracle(a, b)
        assert found.keys() <= inst.families.keys(), (a, b)
        got = found.get(key)
        assert got == reference(a, b, key), (a, b, key)
        answers += got is not None
    return answers


@pytest.mark.parametrize("t", [3, 4, 5])
def test_corner_oracle_matches_the_per_triple_reference_on_rings(t):
    assert assert_oracle_is_the_per_triple_reference(*ring_profiles(t), random.Random(t)) > 0


def test_corner_oracle_matches_the_per_triple_reference_on_random_graphs():
    rng = random.Random(3535)
    checked = answered = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(5, 9), 0.45)
        profiles = distinguishable_profiles(g, rng.choice((2, 3)))
        if len(profiles) < 2:
            continue
        answered += assert_oracle_is_the_per_triple_reference(g, profiles, rng) > 0
        checked += 1
    assert checked >= 15 and answered >= 10


def test_column_predicate_is_separator_nestedness():
    """`separator_nested(g, ·, y)`, the relation that fills column y of a
    separator instance's crossing table, holds at x exactly when x meets at
    most one component of G - y (y separates no two vertices of x), on
    every pair of vertex sets of at most three vertices of seeded random
    graphs; it needs the graph only, not the profiles. A set outside the
    graph, as x or as y, is refused."""
    rng = random.Random(16)
    for _ in range(12):
        n = rng.randint(4, 7)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        )
        small = [mask_of(c) for r in range(4) for c in itertools.combinations(range(n), r)]
        for y in small:
            met = [sum(1 for comp in g.components(y) if comp & x) for x in small]
            assert [separator_nested(g, x, y) for x in small] == [m <= 1 for m in met]
    for x, y in ((1 << n, 1), (1, 1 << n)):
        with pytest.raises(PreconditionError):
            separator_nested(g, x, y)


def assert_column_table_is_pairwise(g, inst):
    """The crossing table of the separator instance, whose `nested` reads
    the sides computed once per element, equals the table filled from
    `separator_nested`, which computes them on every call."""
    column = crossing_table(inst)
    pairwise = crossing_table(dataclasses.replace(inst, nested=partial(separator_nested, g)))
    assert (column.rows, column.cols) == (pairwise.rows, pairwise.cols)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_column_crossing_table_equals_pairwise_table_on_rings(t):
    assert_column_table_is_pairwise(*ring_instance(t))


def random_graph(rng, n, p):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def distinguishable_profiles(g, k):
    """The regular robust k-profiles of g, keeping each that is
    distinguishable from every one kept before it; none when |S_k| > 256."""
    try:
        found = enumerate_k_profiles(g, k, max_sk=256)
    except CapExceededError:
        return []
    profiles = []
    for p in pipeline_profiles(g, found):
        if all(efficient_distinguishers(g, q, p) for q in profiles):
            profiles.append(p)
    return profiles


def test_column_crossing_table_equals_pairwise_table_on_random_graphs():
    rng = random.Random(1616)
    checked = 0
    for _ in range(80):
        g = random_graph(rng, rng.randint(5, 9), 0.45)
        if not g.is_connected():
            continue
        profiles = distinguishable_profiles(g, rng.choice((2, 3)))
        if len(profiles) < 2:
            continue
        assert_column_table_is_pairwise(g, build_separator_instance(g, profiles)[0])
        checked += 1
    assert checked >= 10


def beads(rng):
    """Three or four beads, each a triangle or a K4, strung between two
    hubs u and v: one vertex of a bead is joined to u, another to v, so
    G - {u, v} has one component per bead. Half of the time u and v are
    joined too. Labelled at random in a range with two unused labels: V
    has gaps."""
    edges, used = [], 2
    for _ in range(rng.randint(3, 4)):
        size = rng.choice((3, 4))
        bead = range(used, used + size)
        edges += [*itertools.combinations(bead, 2), (0, used), (1, used + 1)]
        used += size
    if rng.random() < 0.5:
        edges.append((0, 1))
    labels = rng.sample(range(used + 2), used)
    g = Graph.from_edges(used + 2, [(labels[u], labels[v]) for u, v in edges])
    return g.induced(mask_of(labels))


def test_separator_instance_nestedness_is_separator_nested():
    """The instance's `nested`, one lookup of the component at the least
    vertex of a ∖ b, equals `separator_nested` on every ordered pair of
    its elements, on seeded random graphs: induced subgraphs of random
    graphs with one or two vertices left out, and beads strung between
    two hubs y, for which G - y has three or more components. Both kinds
    have gaps in V."""
    rng = random.Random(3536)
    checked = gapped = spread = 0
    for i in range(80):
        if i % 2:
            g = beads(rng)
        else:
            host = random_graph(rng, rng.randint(6, 10), 0.45)
            g = host.induced(host.vertices & ~mask_of(rng.sample(range(host.n), rng.randint(1, 2))))
        profiles = distinguishable_profiles(g, rng.choice((2, 3)))
        if len(profiles) < 2:
            continue
        inst = build_separator_instance(g, profiles)[0]
        for a, b in itertools.product(inst.elements, repeat=2):
            assert inst.nested(a, b) == separator_nested(g, a, b), (a, b)
        checked += 1
        gapped += g.vertices != (1 << g.vertices.bit_length()) - 1
        spread += any(len(g.components(y)) >= 3 for y in inst.elements)
    assert checked >= 30 and gapped >= 25 and spread >= 20


def perturbed(inst, rng):
    """inst with one change: a member of least crossing number dropped from
    a family or moved to another family, or the order of a family moved up
    or down by one."""
    families = {key: set(fam) for key, fam in inst.families.items()}
    orders = dict(inst.orders)
    keys = inst.family_keys()
    ki = rng.choice(keys)
    kind = rng.choice(("drop", "move", "order"))
    if kind == "order" or len(families[ki]) < 2:
        orders[ki] = max(0, orders[ki] + rng.choice((-1, 1)))
    else:
        member = min(
            sorted(families[ki], key=repr),
            key=lambda x: crossing_number(inst, x, inst.orders[ki]),
        )
        families[ki].discard(member)
        if kind == "move":
            families[rng.choice([key for key in keys if key != ki])].add(member)
    return dataclasses.replace(inst, families=families, orders=orders)


def memoised(nested):
    table = {}

    def lookup(a, b):
        if (a, b) not in table:
            table[a, b] = nested(a, b)
        return table[a, b]

    return lookup


def engine(inst):
    res = thin_splinter(inst)
    return res.nested_set, tuple((lv.k, lv.added) for lv in res.levels)


def test_check_matches_oracle_on_perturbed_separator_instances(graphs, k5ring, k5ring_profiles):
    """Chains of perturbations of separator instances fail properties 2
    and 3, so the pair pass reports violations. At every step the check
    (crossing table and pair pass) and the engine agree with the oracles,
    which re-evaluate `nested` on every use."""
    grid = graphs["FIX_GRID33"]
    bases = [
        ring_instance(3)[1],
        build_separator_instance(k5ring, k5ring_profiles)[0],
        build_separator_instance(grid, pipeline_profiles(grid, enumerate_k_profiles(grid, 3)))[0],
    ]
    rng = random.Random(9)
    kinds = set()
    for base in bases:
        for _ in range(2):
            inst = dataclasses.replace(base, nested=memoised(base.nested))
            for _ in range(8):
                inst = perturbed(inst, rng)
                rep = thinly_splinters_check(inst)
                violations, max_crossing = oracles.brute_thin_splinter_report(inst)
                assert (rep.violations, rep.max_crossing) == (violations, max_crossing)
                assert outcome(engine, inst) == outcome(oracles.brute_thin_splinter, inst)
                kinds |= {kind for kind, _ in violations}
    assert kinds == {"property-2", "property-3"}


def test_check_reports_an_oracle_answer_that_is_no_corner():
    """a crosses b and c crosses d, which is nested with a and b, so c is
    no corner of a and b. The oracle answers c for (a, b, f1), asked by
    property 3 of (f1, f2), and None for (a, b, f3), asked by property 2
    of (f1, f3): only the first answer is reported. In the second case it
    answers c for (a, b, f3), asked by property 2 from f1 and from f2,
    both below f3; e, nested with everything, is the corner that keeps
    property 2, so the one answer is reported twice, once per family
    pair."""
    crossing = {("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")}
    answers = {("a", "b", "f1"): "c"}
    inst = SplinterInstance(
        elements=("a", "b", "c", "d", "e"),
        families={"f1": {"a", "c"}, "f2": {"b", "d"}, "f3": {"b", "e"}},
        orders={"f1": 1, "f2": 1, "f3": 2},
        nested=lambda x, y: (x, y) not in crossing,
        corner_oracle=per_pair(lambda a, b, key: answers.get((a, b, key)), ("f1", "f2", "f3")),
    )
    rep = thinly_splinters_check(inst)
    violations, max_crossing = oracles.brute_thin_splinter_report(inst)
    assert (rep.violations, rep.max_crossing) == (violations, max_crossing)
    assert ("corner-oracle", ("a", "b", "f1", "c")) in rep.violations
    assert not any(v[1][2] == "f3" for v in rep.violations if v[0] == "corner-oracle")

    inst = dataclasses.replace(
        inst,
        families={"f1": {"a"}, "f2": {"a", "d"}, "f3": {"b", "c", "e"}},
        corner_oracle=per_pair(
            lambda a, b, key: "c" if (a, b, key) == ("a", "b", "f3") else None, ("f1", "f2", "f3")
        ),
    )
    rep = thinly_splinters_check(inst)
    assert oracles.brute_thin_splinter_report(inst) == (rep.violations, rep.max_crossing)
    assert rep.violations == [("corner-oracle", ("a", "b", "f3", "c"))] * 2


def test_one_side_of_property_3_is_enough(monkeypatch):
    """a ∈ f1 crosses b ∈ f2 at one level. f1 holds no corner below a's
    crossing number, but f2 holds c, nested with everything: property 3
    holds through f2 alone, so the instance thinly splinters, and each of
    the two crossing pairs gets one corner mask."""
    crossing = {("a", "b"), ("b", "a")}
    inst = SplinterInstance(
        elements=("a", "b", "c"),
        families={"f1": {"a"}, "f2": {"b", "c"}},
        orders={"f1": 1, "f2": 1},
        nested=lambda x, y: (x, y) not in crossing,
    )
    calls = {"corner_mask": 0}
    corner_mask = splinter_module._PairTests.corner_mask
    monkeypatch.setattr(
        splinter_module._PairTests, "corner_mask", counted(calls, "corner_mask", corner_mask)
    )
    assert thinly_splinters_check(inst).ok
    assert oracles.brute_thin_splinter_report(inst) == ([], {1: 1})
    assert crossing_pairs(crossing_table(inst)) == calls["corner_mask"] == 2


def test_an_oracle_answer_outside_the_elements_is_decided_through_nested():
    """A corner oracle may answer a value that is no element. The check
    decides it as `oracles.is_corner` does, through `nested` against the
    members crossing neither a nor b. Only a crosses b, so the pair (a, b)
    asks the oracle about family 1, and 'zzz' is a corner while everything
    is nested with it, still one when a crosses it (a crosses b), and no
    corner once c, nested with a and b, crosses it."""
    crossing = {("a", "b"), ("b", "a")}
    inst = SplinterInstance(
        elements=("a", "b", "c"),
        families={0: {"a"}, 1: {"b", "c"}},
        orders={0: 1, 1: 2},
        nested=lambda x, y: (x, y) not in crossing,
        corner_oracle=per_pair(lambda a, b, key: "zzz", (0, 1)),
    )
    for crosses_zzz, violations in (
        ((), []),
        (("a",), []),
        (("a", "c"), [("corner-oracle", ("a", "b", 1, "zzz"))]),
    ):
        crossing -= {(x, "zzz") for x in "abc"}
        crossing |= {(x, "zzz") for x in crosses_zzz}
        rep = thinly_splinters_check(inst)
        assert oracles.brute_thin_splinter_report(inst) == (rep.violations, rep.max_crossing)
        assert rep.violations == violations


def test_bool_orders_are_refused():
    """An order is an int and not a bool, as `cli.instance_from_json`
    requires of a JSON instance: True is refused, not taken for order 1."""
    with pytest.raises(PreconditionError, match="non-negative integer"):
        SplinterInstance(
            elements=("a",),
            families={0: {"a"}},
            orders={0: True},
            nested=lambda x, y: True,
        )


def test_repeated_elements_are_refused():
    """The crossing table numbers elements by position, so a repeated
    element would leave a row that no family reaches."""
    with pytest.raises(PreconditionError, match="distinct"):
        SplinterInstance(
            elements=("a", "a", "b"),
            families={0: {"a"}, 1: {"b"}},
            orders={0: 1, 1: 1},
            nested=lambda x, y: x == y,
        )
