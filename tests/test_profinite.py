"""Inverse systems: validation, limits, projections, and the profinite
splinter procedure on graph-restriction systems and random abstract ones."""

import dataclasses
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangleforge import core, profinite
from tangleforge.cli import _demo_chain
from tangleforge.core import Graph, Separation, graph_universe, mask_of
from tangleforge.errors import (
    CapExceededError,
    CertificationError,
    HypothesisError,
    PreconditionError,
)
from tangleforge.fixtures import FIXTURES
from tangleforge.oracles import (
    brute_inverse_limits,
    brute_profinite_choice,
    brute_system_violations,
)
from tangleforge.profiles import efficient_distinguishers, enumerate_k_profiles, pipeline_profiles
from tangleforge.profinite import (
    DirectedPoset,
    InverseSystem,
    graph_restriction_system,
    inverse_limits,
    product_chain_universe,
    profinite_splinter,
    universe_from_json,
    validate_inverse_system,
)
from tangleforge.verify import random_candidate_system, random_inverse_systems

from jsonforms import universe_to_json


def identity_system(n_points=3, a=2, b=3):
    u = product_chain_universe(a, b)
    points = tuple(f"p{i}" for i in range(n_points))
    strict = [(points[i], points[j]) for i in range(n_points) for j in range(i + 1, n_points)]
    poset = DirectedPoset.from_pairs(points, strict)
    maps = {
        (q, p): {x: x for x in u.elements}
        for q in points
        for p in points
        if p != q and poset.leq(p, q)
    }
    return InverseSystem(poset, {p: u for p in points}, maps)


def test_directed_poset_basics():
    poset = DirectedPoset.from_pairs(("a", "b", "top"), [("a", "top"), ("b", "top")])
    assert poset.leq("a", "top") and not poset.leq("top", "a")
    assert poset.directedness_violations() == []
    assert poset.maximal_points() == ("top",)
    undirected = DirectedPoset.from_pairs(("a", "b"), [])
    assert undirected.directedness_violations() == [("a", "b")]
    assert undirected.maximal_points() == ("a", "b")
    assert DirectedPoset.from_pairs((), []).maximal_points() == ()


def test_identity_system_is_valid():
    assert validate_inverse_system(identity_system()).ok


def non_commuting_triangle():
    u = product_chain_universe(3, 1)  # a bare 3-chain
    points = ("p0", "p1", "p2")
    poset = DirectedPoset.from_pairs(points, [("p0", "p1"), ("p1", "p2"), ("p0", "p2")])
    ident = {x: x for x in u.elements}
    collapse = {x: (1, 0) for x in u.elements}  # constant map to the middle
    maps = {
        ("p2", "p1"): ident,
        ("p1", "p0"): ident,
        ("p2", "p0"): collapse,  # != ident ∘ ident
    }
    return InverseSystem(poset, {p: u for p in points}, maps)


def test_non_commuting_triangle_flagged():
    rep = validate_inverse_system(non_commuting_triangle())
    assert any(kind == "compatibility" for kind, _ in rep.violations)


def test_graph_restriction_system_is_valid(graphs):
    g = graphs["FIX_P4"]
    subsets = [mask_of(range(i + 1)) for i in range(4)]
    sys_ = graph_restriction_system(g, subsets)
    assert validate_inverse_system(sys_).ok


def test_projection_of_separation_restricts_both_sides(graphs):
    g = graphs["FIX_P4"]
    z = mask_of([0, 1])
    sys_ = graph_restriction_system(g, [z, g.vertices])
    s = Separation(mask_of([0, 1]), mask_of([1, 2, 3]))
    mapped = sys_.maps[(g.vertices, z)][s]
    assert mapped == Separation(mask_of([0, 1]), mask_of([1]))


def test_inverse_limits_of_identity_chain_are_diagonal():
    sys_ = identity_system()
    limits = inverse_limits(sys_)
    u = sys_.universe_at["p0"]
    assert len(limits) == len(u.elements)
    for lim in limits:
        assert len(set(lim.values())) == 1


def test_inverse_limits_restricted_to_one_separation_family(graphs):
    g = graphs["FIX_P4"]
    subsets = [mask_of(s) for s in ([0, 1], [0, 1, 2], [0, 1, 2, 3])]
    sys_ = graph_restriction_system(g, subsets)
    s = Separation(mask_of([0, 1]), mask_of([1, 2, 3]))
    restrict = {z: {Separation(s.a & z, s.b & z)} for z in sys_.poset.points}
    limits = inverse_limits(sys_, restrict=restrict)
    assert len(limits) == 1
    assert limits[0][g.vertices] == s


def test_every_random_system_has_a_limit():
    for sys_, _fams in random_inverse_systems(seed=3, count=10):
        assert validate_inverse_system(sys_).ok  # valid by construction
        assert inverse_limits(sys_)


# ---------------------------------------------------------------------------
# differential gate: the pass over the maximal points against backtracking

def two_tops():
    """Points a and b above c, with no upper bound of a and b: a poset that
    is not directed, so the limits are read off both maximal points."""
    u = product_chain_universe(3, 1)
    poset = DirectedPoset.from_pairs(("a", "b", "c"), [("c", "a"), ("c", "b")])
    ident = {x: x for x in u.elements}
    to_middle = {x: (min(x[0], 1), 0) for x in u.elements}  # (2, 0) -> (1, 0)
    return InverseSystem(poset, {p: u for p in "abc"}, {("a", "c"): ident, ("b", "c"): to_middle})


def random_restrict(rng, sys_):
    """Random subsets at random points, each with a stray that lies in no
    universe."""
    return {
        p: {*rng.sample(list(u.elements), rng.randint(0, len(u.elements))), ("stray", p)}
        for p, u in sys_.universe_at.items()
        if rng.random() < 0.7
    }


def maximal_points(sys_):
    poset = sys_.poset
    return [t for t in poset.points if not any(t != q and poset.leq(t, q) for q in poset.points)]


def limit_set(limits):
    return {frozenset(lim.items()) for lim in limits}


def assert_same_limits(sys_, restrict=None):
    """Equal to the backtracking oracle as a set of limits, and listed in
    product order of the values at the maximal points."""
    got = inverse_limits(sys_, restrict=restrict)
    assert len(got) == len(limit_set(got))
    assert limit_set(got) == limit_set(brute_inverse_limits(sys_, restrict=restrict))
    tops = maximal_points(sys_)
    rank = {t: {x: i for i, x in enumerate(sys_.universe_at[t].elements)} for t in tops}
    keys = [tuple(rank[t][lim[t]] for t in tops) for lim in got]
    assert keys == sorted(keys)
    return got


def test_limits_match_the_oracle_on_random_systems():
    rng = random.Random(11)
    systems = random_inverse_systems(seed=5, count=20)
    assert len(systems) == 20
    for sys_, fams in systems:
        assert assert_same_limits(sys_)
        for fam in fams:
            assert_same_limits(sys_, restrict=fam)
        assert_same_limits(sys_, restrict=random_restrict(rng, sys_))


def test_limits_match_the_oracle_on_identity_chains():
    rng = random.Random(12)
    for n_points, a, b in [(1, 2, 2), (2, 3, 2), (3, 2, 3), (4, 3, 3)]:
        sys_ = identity_system(n_points, a, b)
        assert len(assert_same_limits(sys_)) == a * b
        for _ in range(5):
            assert_same_limits(sys_, restrict=random_restrict(rng, sys_))


def test_limits_match_the_oracle_on_invalid_and_undirected_systems():
    """The non-commuting triangle keeps only the choices that pass every
    comparable pair; two maximal points are read off together."""
    rng = random.Random(13)
    triangle = non_commuting_triangle()
    assert [lim["p2"] for lim in assert_same_limits(triangle)] == [(1, 0)]
    top_b = {"b": {(0, 0), (2, 0)}}
    assert len(assert_same_limits(two_tops(), restrict=top_b)) == 2
    for sys_ in (triangle, two_tops()):
        assert_same_limits(sys_)
        for _ in range(10):
            assert_same_limits(sys_, restrict=random_restrict(rng, sys_))
    assert maximal_points(two_tops()) == ["a", "b"]
    # a at 2 has no partner at b; b at 2 meets a at 1
    assert [(lim["a"][0], lim["b"][0], lim["c"][0]) for lim in inverse_limits(two_tops())] == [
        (0, 0, 0),
        (1, 1, 1),
        (1, 2, 1),
    ]


def test_restrict_keeps_only_elements_of_each_universe():
    sys_ = identity_system(2, 2, 2)
    strays = {p: {(5, 5), "x"} for p in sys_.poset.points}
    assert inverse_limits(sys_, restrict=strays) == brute_inverse_limits(sys_, restrict=strays) == ()
    one = {"p1": {(0, 1), (5, 5)}}
    assert inverse_limits(sys_, restrict=one) == ({"p0": (0, 1), "p1": (0, 1)},)


def test_limits_of_a_system_missing_a_universe_map_or_image_are_refused():
    """On the chain a < b, a missing map f_ba, an f_ba that is undefined at
    an element of U_b, or a missing U_a raises PreconditionError naming
    it. Restricted to where f_ba is defined, the pass runs."""
    u = product_chain_universe(2, 2)
    poset = DirectedPoset.from_pairs(("a", "b"), [("a", "b")])
    with pytest.raises(PreconditionError, match=r"no bonding map \('b', 'a'\)"):
        inverse_limits(InverseSystem(poset, {"a": u, "b": u}, {}))
    partial_map = {("b", "a"): {(0, 0): (0, 0)}}
    with pytest.raises(PreconditionError, match=r"\('b', 'a'\) is undefined at \(0, 1\)"):
        inverse_limits(InverseSystem(poset, {"a": u, "b": u}, partial_map))
    restrict = {"b": [(0, 0)]}
    assert inverse_limits(InverseSystem(poset, {"a": u, "b": u}, partial_map), restrict) == (
        {"a": (0, 0), "b": (0, 0)},
    )
    with pytest.raises(PreconditionError, match="no universe at point 'a'"):
        inverse_limits(InverseSystem(poset, {"b": u}, partial_map))


def test_the_cap_bounds_the_choices_at_the_maximal_points():
    """A three-point identity chain of six-element universes has 6 limits,
    enumerated through 6 choices at its top, within a cap of 10; the
    backtracking oracle bounds the 6^3 product over all points instead."""
    sys_ = identity_system(3, 2, 3)
    assert len(inverse_limits(sys_, cap=10)) == 6
    with pytest.raises(CapExceededError):
        brute_inverse_limits(sys_, cap=10)
    top_four = {"p2": sys_.universe_at["p2"].elements[:4]}
    assert len(inverse_limits(sys_, restrict=top_four, cap=4)) == 4
    with pytest.raises(CapExceededError):
        inverse_limits(sys_, restrict=top_four, cap=3)
    with pytest.raises(CapExceededError):
        inverse_limits(two_tops(), cap=8)  # 3 x 3 choices at a and b


# ---------------------------------------------------------------------------
# profinite splinter

def test_single_point_degenerates_to_finite_splinter():
    u = product_chain_universe(3, 3)
    poset = DirectedPoset.from_pairs(("p",), [])
    sys_ = InverseSystem(poset, {"p": u}, {})
    fam = [{"p": frozenset({(0, 1), (1, 1)})}, {"p": frozenset({(2, 1)})}]
    res = profinite_splinter(sys_, fam)
    assert res.limits
    chosen = res.nested_choice["p"]
    assert chosen & fam[0]["p"] and chosen & fam[1]["p"]


def test_two_point_identity_chain_chooses_equal_sets():
    sys_ = identity_system(n_points=2)
    fam = [{p: frozenset({(0, 1)}) for p in sys_.poset.points}]
    res = profinite_splinter(sys_, fam)
    sets = list(res.nested_choice.values())
    assert sets[0] == sets[1]


def test_two_k4_restriction_chain(graphs):
    g = graphs["FIX_2K4"]
    profs = [p for p in enumerate_k_profiles(g, 2) if p.is_regular(g)]
    chain = [mask_of(range(4)), mask_of(range(6)), g.vertices]
    sys_ = graph_restriction_system(g, chain)
    families = []
    for p, q in itertools.combinations(profs, 2):
        dset = efficient_distinguishers(g, p, q)
        families.append(
            {z: frozenset(Separation(s.a & z, s.b & z) for s in dset.seps) for z in chain}
        )
    res = profinite_splinter(sys_, families)
    # at each level the projection is a nested transversal of the projections
    from tangleforge.core import is_nested

    for z in chain:
        proj = {lim[z] for lim in res.limits}
        for x, y in itertools.combinations(proj, 2):
            assert is_nested(x, y)
        for fam in families:
            assert set(res.nested_choice[z]) & set(fam[z])


def test_the_limit_cap_bounds_the_candidates_at_the_greatest_point():
    """Two nested elements give three nested transversals at each point of
    a two-point identity chain: the candidate limits are read off the 3
    at the top, where a product over both points would count 9."""
    sys_ = identity_system(n_points=2)
    fam = [{p: frozenset({(0, 0), (0, 1)}) for p in sys_.poset.points}]
    res = profinite_splinter(sys_, fam, limit_cap=3)
    assert res.nested_choice == {p: frozenset({(0, 0)}) for p in sys_.poset.points}
    with pytest.raises(CapExceededError):
        profinite_splinter(sys_, fam, limit_cap=2)


def test_the_union_cap_is_checked_below_the_greatest_point():
    """The projections at the lower point p0 have a union of 3 elements and
    those at the greatest point p1 one, so a cap checked only at p1 would
    let the cap-2 run through."""
    sys_ = identity_system(n_points=2)
    fam = [{"p0": frozenset({(0, 0), (0, 1), (0, 2)}), "p1": frozenset({(0, 0)})}]
    with pytest.raises(CapExceededError, match=r"has 3 elements \(cap 2\)"):
        profinite_splinter(sys_, fam, union_cap=2)
    assert profinite_splinter(sys_, fam, union_cap=3).limits


def test_the_empty_system_has_one_limit():
    sys_ = InverseSystem(DirectedPoset.from_pairs((), []), {}, {})
    res = profinite_splinter(sys_, [{}])
    assert res.nested_choice == {} and res.limits == ({},)


def assert_choice_matches_the_oracle(sys_, families):
    res = profinite_splinter(sys_, families)
    choice, limits = brute_profinite_choice(sys_, families)
    assert res.nested_choice == choice
    assert limit_set(res.limits) == limit_set(limits)


def test_no_families_give_the_empty_choice_and_no_limit():
    """With zero families the only nested transversal at every point is
    the empty set, and no limit runs through empty restrictions: the result
    is that choice with no limits, as the oracle has it, and not a
    certification error."""
    sys_ = identity_system(n_points=2)
    res = profinite_splinter(sys_, [])
    assert res.nested_choice == {p: frozenset() for p in sys_.poset.points}
    assert not res.limits
    assert_choice_matches_the_oracle(sys_, [])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_profinite_choice_matches_the_oracle_on_random_systems(seed):
    systems = random_inverse_systems(seed, count=40)
    assert len(systems) == 40
    for sys_, fams in systems:
        assert_choice_matches_the_oracle(sys_, fams)


def test_malformed_family_rejected():
    sys_ = identity_system(n_points=2)
    p0, p1 = sys_.poset.points
    bad = [{p0: frozenset({(0, 0)}), p1: frozenset({(1, 1)})}]  # image escapes O_p
    with pytest.raises(PreconditionError):
        profinite_splinter(sys_, bad)


def test_non_splintering_projection_rejected():
    u = product_chain_universe(3, 3)
    poset = DirectedPoset.from_pairs(("p",), [])
    sys_ = InverseSystem(poset, {"p": u}, {})
    # (2,0) and (0... (2,0) crosses (1,1); singleton families, no corners
    fam = [{"p": frozenset({(2, 0)})}, {"p": frozenset({(1, 1)})}]
    with pytest.raises(HypothesisError):
        profinite_splinter(sys_, fam)


def test_closure_equals_limits_through_projections():
    """On finite systems the closure of a set of limits is exactly the set
    of limits through its projections; both enumeration routes agree."""
    sys_ = identity_system(n_points=2, a=3, b=2)
    all_limits = inverse_limits(sys_)
    chosen = all_limits[:3]
    projections = {
        p: frozenset(lim[p] for lim in chosen) for p in sys_.poset.points
    }
    via_restrict = inverse_limits(sys_, restrict=projections)
    via_filter = [
        lim
        for lim in all_limits
        if all(lim[p] in projections[p] for p in sys_.poset.points)
    ]
    key = lambda lim: sorted(map(repr, lim.items()))
    assert sorted(via_restrict, key=key) == sorted(via_filter, key=key)
    for lim in chosen:
        assert lim in via_restrict


def test_universe_json_roundtrip():
    u = product_chain_universe(2, 3)
    v = universe_from_json(universe_to_json(u))
    names = {x: i for i, x in enumerate(u.elements)}
    for x in u.elements:
        assert v.star(names[x]) == names[u.star(x)]
        assert v.order_of(names[x]) == u.order_of(x)
        for y in u.elements:
            assert v.leq(names[x], names[y]) == u.leq(x, y)
            assert v.join(names[x], names[y]) == names[u.join(x, y)]


# ---------------------------------------------------------------------------
# differential gate: the tabulated validation against the definitional loop

def assert_same_violations(sys_):
    expected = brute_system_violations(sys_)
    assert validate_inverse_system(sys_).violations == expected
    return expected


def with_image(sys_, key, x, image):
    maps = {**sys_.maps, key: {**sys_.maps[key], x: image}}
    return InverseSystem(sys_.poset, sys_.universe_at, maps)


@st.composite
def maybe_altered(draw, sys_, outside):
    """sys_, or sys_ with one image of one map replaced by another element of
    its target universe or by `outside`, which lies in no universe."""
    if not sys_.maps or not draw(st.booleans()):
        return sys_
    key = draw(st.sampled_from(sorted(sys_.maps, key=repr)))
    x = draw(st.sampled_from(sorted(sys_.maps[key], key=repr)))
    image = draw(st.sampled_from(list(sys_.universe_at[key[1]].elements) + [outside]))
    return with_image(sys_, key, x, image)


@st.composite
def random_candidates(draw):
    sys_ = random_candidate_system(random.Random(draw(st.integers(0, 2**32))))
    return draw(maybe_altered(sys_, outside=(5, -1)))


@st.composite
def restriction_systems(draw):
    n = draw(st.integers(2, 4))
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    masks = draw(st.lists(st.integers(1, g.vertices), min_size=2, max_size=4))
    return draw(maybe_altered(graph_restriction_system(g, masks), outside=Separation(0, 0)))


@settings(max_examples=100)
@given(random_candidates())
def test_validation_matches_oracle_on_random_candidates(sys_):
    assert_same_violations(sys_)


@settings(max_examples=60)
@given(restriction_systems())
def test_validation_matches_oracle_on_restriction_systems(sys_):
    assert_same_violations(sys_)


def test_validation_matches_oracle_on_invalid_systems(graphs):
    g = graphs["FIX_P4"]
    half, top = mask_of([0, 1]), g.vertices
    two = graph_restriction_system(g, [half, top])
    x = two.universe_at[top].elements[3]
    # an image outside U_p
    assert ("map-range", (top, half, x)) in assert_same_violations(
        with_image(two, (top, half), x, Separation(0, 0))
    )
    # a missing key
    cut = {**two.maps[(top, half)]}
    del cut[x]
    missing_key = InverseSystem(two.poset, two.universe_at, {(top, half): cut})
    assert assert_same_violations(missing_key) == [("map-domain", (top, half))]
    # a missing map
    no_map = InverseSystem(two.poset, two.universe_at, {})
    assert assert_same_violations(no_map) == [("map-missing", (top, half))]
    # a universe not closed under star: the star of (0, 0) is left out
    chain = product_chain_universe(3, 1)
    lower = dataclasses.replace(chain, elements=chain.elements[:2], closed=False)
    poset = DirectedPoset.from_pairs(("p", "q"), [("p", "q")])
    unstarred = InverseSystem(
        poset, {"p": chain, "q": lower}, {("q", "p"): {x: x for x in lower.elements}}
    )
    assert ("hom-star", ("q", "p", (0, 0))) in assert_same_violations(unstarred)
    # the non-commuting triangle
    triangle = assert_same_violations(non_commuting_triangle())
    assert [kind for kind, _ in triangle].count("compatibility") == 2
    # in a chain of three points, a stray image of the top-to-middle map lies
    # off the domain of the middle-to-bottom map, and a key missing from the
    # top-to-bottom map leaves that side undefined: both are compatibility
    # violations at x
    chain = demo_chain_system(graphs, "FIX_P4")
    low, mid, top = chain.poset.points
    x = chain.universe_at[top].elements[3]
    found = assert_same_violations(with_image(chain, (top, mid), x, Separation(0, 0)))
    assert ("map-range", (top, mid, x)) in found
    assert ("compatibility", (top, mid, low, x)) in found
    cut = {**chain.maps[(top, low)]}
    del cut[x]
    found = assert_same_violations(
        InverseSystem(chain.poset, chain.universe_at, {**chain.maps, (top, low): cut})
    )
    assert ("map-domain", (top, low)) in found
    assert ("compatibility", (top, mid, low, x)) in found


def test_validation_matches_oracle_without_a_universe():
    """A point without a universe is reported, and every map and triple
    that touches it is skipped, so both return their report."""
    for n_points in (2, 3):
        full = identity_system(n_points, 2, 2)
        for gone in full.poset.points:
            universes = {p: u for p, u in full.universe_at.items() if p != gone}
            sys_ = InverseSystem(full.poset, universes, full.maps)
            assert assert_same_violations(sys_) == [("universe-missing", gone)]
    # the bond between the two points that keep their universes is still checked
    kept = {p: full.universe_at[p] for p in ("p0", "p2")}
    sys_ = InverseSystem(full.poset, kept, full.maps)
    found = assert_same_violations(with_image(sys_, ("p2", "p0"), (0, 0), (5, 5)))
    assert found[0] == ("universe-missing", "p1")
    assert ("map-range", ("p2", "p0", (0, 0))) in found


def test_validation_matches_oracle_on_a_non_closed_universe(graphs):
    """Joins and meets of order-1 separations leave U_q and U_p alike; such
    a pair is still a violation, because f.get gives no image off U_q."""
    g = graphs["FIX_P4"]
    chain = [mask_of([0, 1, 2]), g.vertices]
    full = graph_restriction_system(g, chain)
    universes = {z: graph_universe(g.induced(z), max_order=1) for z in chain}
    maps = {
        key: {x: f[x] for x in universes[key[0]].elements} for key, f in full.maps.items()
    }
    truncated = InverseSystem(full.poset, universes, maps)
    top, low = chain[1], chain[0]
    uq, up, f = universes[top], universes[low], maps[(top, low)]
    found = assert_same_violations(truncated)
    assert [
        (x, y)
        for kind, payload in found
        if kind == "hom-join"
        for x, y in [payload[2:]]
        if uq.join(x, y) not in uq.elements and up.join(f[x], f[y]) not in up.elements
    ]


# ---------------------------------------------------------------------------
# the exhaustive kernel on demo chains, whole and altered

# a triangle with the path 2-3-4-5 hanging off it
LOLLIPOP = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
# three triangles joined into a ring by bridges
TRIANGLE_RING3 = Graph.from_edges(
    9,
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8),
     (2, 3), (5, 6), (8, 0)],
)


def demo_graph(graphs, name):
    return {"lollipop": LOLLIPOP, "triangle_ring3": TRIANGLE_RING3}.get(name) or graphs[name]


def demo_chain_system(graphs, name):
    g = demo_graph(graphs, name)
    return graph_restriction_system(g, _demo_chain(g))


def demo_families(g, k, sys_):
    """The families of the profinite-splinter demo: the efficient
    distinguishers of each pair of profiles, restricted to each point."""
    profs = pipeline_profiles(g, enumerate_k_profiles(g, k))
    dsets = [efficient_distinguishers(g, p, q) for p, q in itertools.combinations(profs, 2)]
    return [
        {z: frozenset(Separation(s.a & z, s.b & z) for s in dset.seps) for z in sys_.poset.points}
        for dset in dsets
    ]


@pytest.mark.parametrize(
    "name,k", [("FIX_P4", 2), ("FIX_2K4", 2), ("FIX_GRID33", 3), ("lollipop", 2)]
)
def test_profinite_choice_matches_the_oracle_on_demo_chains(graphs, name, k):
    """The three-triangle ring is left out: its 41 x 330 x 326 candidate
    product is too slow for the oracle."""
    sys_ = demo_chain_system(graphs, name)
    assert_choice_matches_the_oracle(sys_, demo_families(demo_graph(graphs, name), k, sys_))


def test_transversals_are_enumerated_once(graphs, monkeypatch):
    """On the three-triangle ring at k = 3 the nested transversals are
    enumerated at the greatest point alone, not at each of the three."""
    sys_ = demo_chain_system(graphs, "triangle_ring3")
    families = demo_families(TRIANGLE_RING3, 3, sys_)
    real, counts = profinite._nested_subsets_meeting, []

    def counted(u, union, projs):
        out = real(u, union, projs)
        counts.append(len(out))
        return out

    monkeypatch.setattr(profinite, "_nested_subsets_meeting", counted)
    res = profinite_splinter(sys_, families)
    assert counts == [326]
    assert len(res.limits) == 3


def test_families_are_certified_from_the_limits_found(graphs, monkeypatch):
    """On the lollipop demo system the six families are certified by a
    scan of the three limits found, so inverse_limits runs once, for the
    limits through the choice."""
    sys_ = demo_chain_system(graphs, "lollipop")
    families = demo_families(LOLLIPOP, 2, sys_)
    real, calls = profinite.inverse_limits, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("restrict"))
        return real(*args, **kwargs)

    monkeypatch.setattr(profinite, "inverse_limits", counted)
    res = profinite_splinter(sys_, families)
    assert len(families) == 6 and len(res.limits) == 3
    assert calls == [res.nested_choice]


def test_the_family_certificate_catches_a_limit_set_that_misses_a_family(graphs, monkeypatch):
    """With every limit that meets family 0 dropped from what
    inverse_limits returns (one of the three on the lollipop), the limits
    left are still nested, and the certificate names family 0."""
    sys_ = demo_chain_system(graphs, "lollipop")
    families = demo_families(LOLLIPOP, 2, sys_)
    points, real = sys_.poset.points, profinite.inverse_limits

    def missing_family_0(*args, **kwargs):
        limits = real(*args, **kwargs)
        return tuple(
            lim for lim in limits if not all(lim[p] in families[0][p] for p in points)
        )

    monkeypatch.setattr(profinite, "inverse_limits", missing_family_0)
    with pytest.raises(CertificationError, match=r"^output misses family 0 \(bug\)$"):
        profinite_splinter(sys_, families)


def join_meet_calls(run):
    """run(), and the number of calls it made to core.join and core.meet,
    counted on their code objects: a wrapper would not be core.join, so the
    certificate would refuse every system."""
    counts = {core.join.__code__: 0, core.meet.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, sum(counts.values())


def kernel_runs(monkeypatch, names=("_Table", "_hom_violations")):
    """Count the calls of each of names in profinite: by default the
    _Table builds and _hom_violations calls of the exhaustive kernel."""
    counts = dict.fromkeys(names, 0)
    for name in counts:
        real = getattr(profinite, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(profinite, name, counted)
    return counts


@pytest.mark.parametrize("name", ["FIX_P4", "FIX_C4", "FIX_2K4", "lollipop"])
def test_validation_matches_oracle_on_demo_chains(graphs, name, monkeypatch):
    """Each demo chain unaltered, with one image of the map from the top to
    the bottom point swapped for another element of its target, and with
    one swapped for (0, 0), which lies in no graph universe. A swapped
    image sends the top point through the exhaustive kernel."""
    sys_ = demo_chain_system(graphs, name)
    assert assert_same_violations(sys_) == []
    counts = kernel_runs(monkeypatch)
    assert assert_same_violations(swapped_image(sys_))
    assert counts["_hom_violations"] == 1
    top, below = sys_.poset.points[-1], sys_.poset.points[0]
    x = sys_.universe_at[top].elements[len(sys_.maps[(top, below)]) // 2]
    found = assert_same_violations(with_image(sys_, (top, below), x, Separation(0, 0)))
    assert ("map-range", (top, below, x)) in found


def swapped_image(sys_):
    """sys_ with one image of the map from the top to the bottom point
    swapped for another element of its target."""
    top, below = sys_.poset.points[-1], sys_.poset.points[0]
    f = sys_.maps[(top, below)]
    x = sys_.universe_at[top].elements[len(f) // 2]
    other = next(y for y in sys_.universe_at[below].elements if y != f[x])
    return with_image(sys_, (top, below), x, other)


def test_a_stray_that_is_no_separation_takes_the_callable_path(graphs):
    """A plain tuple equals the Separation with the same masks but is not
    one: the kernel runs the target universe's join and meet on the stray
    and reports what the oracle reports."""
    sys_ = demo_chain_system(graphs, "FIX_P4")
    top, below = sys_.poset.points[-1], sys_.poset.points[0]
    x = sys_.universe_at[top].elements[0]
    altered = with_image(sys_, (top, below), x, (0, 0))
    found, calls = join_meet_calls(lambda: validate_inverse_system(altered).violations)
    assert found == brute_system_violations(altered)
    assert ("map-range", (top, below, x)) in found
    assert calls > 0


@pytest.mark.parametrize("name", ["FIX_P4", "lollipop"])
def test_validation_paths_match_the_oracle_on_demo_chains(graphs, name):
    """Four alterations of one image, each on the next bonding map in turn,
    are reported as the oracle reports them: an image replaced by its own
    star (the star check fails while the range check holds), the image of
    x* changed, an image outside every universe, and a plain tuple that
    equals no element."""
    sys_ = demo_chain_system(graphs, name)
    points = sys_.poset.points
    keys = sorted(sys_.maps, key=lambda key: (points.index(key[0]), points.index(key[1])))
    kinds = ["own star", "x* changed", "outside", "plain tuple"]
    for kind, (q, p) in zip(kinds, itertools.cycle(keys)):
        f, up = sys_.maps[(q, p)], sys_.universe_at[p]
        x = next(x for x in sys_.universe_at[q].elements[len(f) // 3:] if f[x].a != f[x].b)
        x_star = core.star(x)
        at, image = {
            "own star": (x, core.star(f[x])),
            "x* changed": (x_star, next(y for y in up.elements if y != f[x_star])),
            "outside": (x, Separation(0, 0)),
            "plain tuple": (x, (0, 0)),
        }[kind]
        found = assert_same_violations(with_image(sys_, (q, p), at, image))
        if kind in ("own star", "x* changed"):
            assert ("hom-star", (q, p, x)) in found and ("hom-star", (q, p, x_star)) in found
            assert not any(k == "map-range" for k, _ in found)
        else:
            assert ("map-range", (q, p, x)) in found


def test_building_the_demo_system_sorts_each_point_universe_once(monkeypatch):
    """Building the lollipop demo system calls sep_sort_key once per
    unoriented separation of each point universe: in the sort of
    all_separations, and never in graph_universe, which walks that sorted
    list."""
    chain = _demo_chain(LOLLIPOP)
    expected = sum(len(core.all_separations(LOLLIPOP.induced(z))) for z in chain)
    real, calls = core.sep_sort_key, [0]

    def counting(s):
        calls[0] += 1
        return real(s)

    monkeypatch.setattr(core, "sep_sort_key", counting)
    graph_restriction_system(LOLLIPOP, chain)
    assert calls[0] == expected


# ---------------------------------------------------------------------------
# the per-element certificate: full graph universes and mask restrictions


@st.composite
def graphs_up_to_six(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, itertools.compress(pairs, keep))


@settings(max_examples=50)
@given(graphs_up_to_six(), st.data())
def test_full_universe_certificate_on_random_graphs(g, data):
    """Accepts the universe of every induced subgraph; rejects it with an
    element dropped, with an element duplicated in place of another, and
    truncated by order."""
    is_full = profinite._is_full_graph_universe
    for z in range(1, g.vertices + 1):
        h = g.induced(z)
        u = graph_universe(h)
        assert is_full(u)
        elems = u.elements
        i = data.draw(st.integers(0, len(elems) - 1))
        j = data.draw(st.integers(0, len(elems) - 2))
        dropped = elems[:i] + elems[i + 1:]
        assert not is_full(dataclasses.replace(u, elements=dropped))
        duplicated = dropped + (dropped[j],)
        assert not is_full(dataclasses.replace(u, elements=duplicated))
        for m in range(z.bit_count()):
            truncated = graph_universe(h, max_order=m)
            assert len(truncated.elements) < len(elems)
            assert not is_full(truncated)


def test_full_universe_certificate_rejects_other_universes(graphs):
    is_full = profinite._is_full_graph_universe
    assert not is_full(product_chain_universe(3, 3))
    u = graph_universe(graphs["FIX_P4"])
    assert not is_full(universe_from_json(universe_to_json(u)))
    # a separation of the path 0-1-2-3 swapped for one that splits the edge
    # 1-2: the graph read off the set loses that edge and has more separations
    i = u.elements.index(Separation(mask_of([0, 1, 2]), mask_of([2, 3])))
    crossing = Separation(mask_of([0, 1]), mask_of([2, 3]))
    assert crossing not in u.elements
    swapped = u.elements[:i] + (crossing,) + u.elements[i + 1:]
    assert not is_full(dataclasses.replace(u, elements=swapped))


@pytest.mark.parametrize("name", [*sorted(FIXTURES), "lollipop", "triangle_ring3"])
def test_demo_chains_validate_without_the_exhaustive_kernel(graphs, name, monkeypatch):
    sys_ = demo_chain_system(graphs, name)
    counts = kernel_runs(monkeypatch)
    assert validate_inverse_system(sys_).ok
    assert counts == {"_Table": 0, "_hom_violations": 0}


def test_the_certificate_refuses_what_it_cannot_prove(graphs, monkeypatch):
    """A complete U_q whose map is a mask restriction on every element but
    one, and a mask restriction into a universe whose join, or whose meet,
    is not core's: each goes through the exhaustive kernel, which finds the
    oracle's hom-join, resp. hom-meet, violations."""
    g = graphs["FIX_P4"]
    half, top = mask_of([0, 1]), g.vertices
    two = graph_restriction_system(g, [half, top])
    x = Separation(mask_of([0, 1, 2]), mask_of([2, 3]))
    image = Separation(0, half)
    assert two.maps[(top, half)][x] != image and image in two.universe_at[half].elements
    up = two.universe_at[half]
    cases = [(with_image(two, (top, half), x, image), "hom-join")] + [
        (InverseSystem(two.poset, {**two.universe_at, half: twisted}, two.maps), kind)
        for twisted, kind in [
            (dataclasses.replace(up, join=core.meet), "hom-join"),
            (dataclasses.replace(up, meet=core.join), "hom-meet"),
        ]
    ]
    for sys_, kind in cases:
        counts = kernel_runs(monkeypatch)
        found = assert_same_violations(sys_)
        assert any(k == kind for k, _ in found)
        assert counts["_hom_violations"] == 1


WALKS = ("_star_violations", "_compatibility_violations")


@pytest.mark.parametrize("name", [*sorted(FIXTURES), "lollipop", "triangle_ring3"])
def test_demo_chains_validate_without_a_star_or_compatibility_walk(graphs, name, monkeypatch):
    """Every bond of a demo chain is covered by the restriction lemma, so
    neither the star walk nor the compatibility walk runs."""
    sys_ = demo_chain_system(graphs, name)
    counts = kernel_runs(monkeypatch, WALKS)
    assert validate_inverse_system(sys_).ok
    assert counts == dict.fromkeys(WALKS, 0)


def restriction(u, y):
    return {x: Separation(x.a & y, x.b & y) for x in u.elements}


def test_masks_that_do_not_compose_take_the_compatibility_walk(graphs, monkeypatch):
    """r > q > p over the path 0-1-2-3: U_r and U_q are the universes of
    the path and of its first three vertices, U_p holds the images of both
    maps into it, and every map is a mask restriction, which the lemma
    covers. With Y_rq & Y_qp = {0, 1} and Y_rp = {0, 1, 3}, every x of U_r
    is a compatibility violation, listed by the walk as the oracle lists
    them. With Y_rq = {0, 1, 2, 3} the masks compose, but the images of
    f_rq leave U_q and f_qp is undefined on them: the walk runs too."""
    g = graphs["FIX_P4"]
    z_q, y_qp = mask_of([0, 1, 2]), mask_of([0, 1])
    u_r, u_q = graph_universe(g), graph_universe(g.induced(z_q))
    poset = DirectedPoset.from_pairs("pqr", [("p", "q"), ("q", "r")])
    for y_rq, y_rp in [(z_q, mask_of([0, 1, 3])), (g.vertices, y_qp)]:
        images = [*restriction(u_q, y_qp).values(), *restriction(u_r, y_rp).values()]
        u_p = core.sorted_universe(
            sorted({core.canonical(s) for s in images}, key=core.sep_sort_key), closed=False
        )
        maps = {
            ("r", "q"): restriction(u_r, y_rq),
            ("q", "p"): restriction(u_q, y_qp),
            ("r", "p"): restriction(u_r, y_rp),
        }
        sys_ = InverseSystem(poset, {"p": u_p, "q": u_q, "r": u_r}, maps)
        counts = kernel_runs(monkeypatch, ("_hom_violations", *WALKS))
        found = assert_same_violations(sys_)
        assert list(counts.values()) == [0, 0, 1]   # kernel, star walk, compatibility walk
        compatibility = [payload for kind, payload in found if kind == "compatibility"]
        assert compatibility == [("r", "q", "p", x) for x in u_r.elements]
        ranges = [kind for kind, _ in found if kind == "map-range"]
        assert len(found) == len(compatibility) + len(ranges)
        assert bool(ranges) == (y_rq == g.vertices)


def test_a_target_star_other_than_cores_takes_the_star_walk(graphs, monkeypatch):
    """A mask restriction into a universe whose star is not core.star: the
    same map of pairs, and the identity. The lemma still covers join and
    meet, and the star walk reports what the oracle reports: nothing, then
    every x whose image is not its own star."""
    g = graphs["FIX_P4"]
    half, top = mask_of([0, 1]), g.vertices
    two = graph_restriction_system(g, [half, top])
    up, f = two.universe_at[half], two.maps[(top, half)]
    elems = two.universe_at[top].elements
    asymmetric = [("hom-star", (top, half, x)) for x in elems if f[x].a != f[x].b]
    assert asymmetric
    for twisted, expected in [(lambda x: core.star(x), []), (lambda x: x, asymmetric)]:
        universes = {**two.universe_at, half: dataclasses.replace(up, star=twisted)}
        sys_ = InverseSystem(two.poset, universes, two.maps)
        counts = kernel_runs(monkeypatch, ("_hom_violations", *WALKS))
        assert assert_same_violations(sys_) == expected
        assert list(counts.values()) == [0, 1, 0]   # kernel, star walk, compatibility walk


def test_the_lemma_covers_each_bond_on_its_own(graphs, monkeypatch):
    """On the FIX_P4 demo chain low < mid < top with the join of U_low
    twisted, the two bonds into low are left open: each takes the star
    walk, both take the exhaustive kernel, once per source point over one
    table, and their triple takes the compatibility walk. The bond from
    top to mid stays covered."""
    sys_ = demo_chain_system(graphs, "FIX_P4")
    low, mid, top = sys_.poset.points
    twisted = dataclasses.replace(sys_.universe_at[low], join=core.meet)
    sys_ = InverseSystem(sys_.poset, {**sys_.universe_at, low: twisted}, sys_.maps)
    counts = kernel_runs(monkeypatch, ("_Table", "_hom_violations", *WALKS))
    found = assert_same_violations(sys_)
    assert list(counts.values()) == [1, 2, 2, 1]
    assert {payload[:2] for kind, payload in found} == {(top, low), (mid, low)}
    assert {kind for kind, _ in found} == {"hom-join"}


@pytest.mark.parametrize("name", ["lollipop", "FIX_GRID33"])
def test_restriction_images_are_the_target_universes_own_elements(graphs, name):
    sys_ = demo_chain_system(graphs, name)
    for (q, p), f in sys_.maps.items():
        own = set(map(id, sys_.universe_at[p].elements))
        assert f.keys() == set(sys_.universe_at[q].elements)
        assert all(id(fx) in own for fx in f.values())
