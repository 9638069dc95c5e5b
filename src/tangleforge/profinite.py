"""Finite inverse systems of separation universes: validation, limits,
projections, and the profinite splinter procedure run end-to-end.

A system assigns a finite universe U_p to every point of a directed poset
and a bonding homomorphism f_qp : U_q -> U_p to every comparable pair q > p.
A limit is a compatible choice of one element per point. Families enter the
splinter procedure in closed form: one subset O_p per point with
f_qp(O_q) ⊆ O_p; the family itself is the set of limits through these.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, Optional

from .core import (
    Graph,
    Separation,
    UniverseView,
    codable,
    graph_universe,
    iter_bits,
    join,
    meet,
    star,
)
from .errors import (
    CapExceededError,
    CertificationError,
    HypothesisError,
    PreconditionError,
)
from .jsonshape import members, require, rows, scalars
from .splinter import FiniteSplinterFamily, splinters_check, _nested

_side_a, _side_b = itemgetter(0), itemgetter(1)
_new_separation = partial(tuple.__new__, Separation)   # a pair -> the Separation of its masks


@dataclass(frozen=True)
class DirectedPoset:
    """Finite poset in which every two points have a common upper bound.

    `relation` holds all pairs (p, q) with p ≤ q including the diagonal;
    the constructor completes it transitively and validates.
    """

    points: tuple
    relation: frozenset

    @staticmethod
    def from_pairs(points, strict_pairs) -> "DirectedPoset":
        points = tuple(points)
        rel = {(p, p) for p in points}
        rel.update(tuple(x) for x in strict_pairs)
        for m in points:   # Warshall: close through each point in turn
            rel |= {(a, d) for a, b in rel if b == m for c, d in rel if c == m}
        return DirectedPoset(points, frozenset(rel))

    def __post_init__(self):
        pts = set(self.points)
        for p, q in self.relation:
            if p not in pts or q not in pts:
                raise PreconditionError(f"relation pair ({p!r},{q!r}) off the point set")
        for p, q in self.relation:
            if (q, p) in self.relation and p != q:
                raise PreconditionError(f"antisymmetry violated at {p!r},{q!r}")

    def leq(self, p, q) -> bool:
        return (p, q) in self.relation

    def strictly_below(self, q):
        return tuple(p for p in self.points if p != q and self.leq(p, q))

    def maximal_points(self) -> tuple:
        """The points below no other point, in point order: the greatest
        point alone on a directed poset that is not empty."""
        below = {p for p, q in self.relation if p != q}
        return tuple(t for t in self.points if t not in below)

    def directedness_violations(self) -> list:
        out = []
        for p, q in itertools.combinations(self.points, 2):
            if not any(self.leq(p, r) and self.leq(q, r) for r in self.points):
                out.append((p, q))
        return out


@dataclass(frozen=True)
class InverseSystem:
    """poset + universes + bonding maps (finite maps as dicts, keyed (q, p)
    for q > p)."""

    poset: DirectedPoset
    universe_at: dict
    maps: dict


@dataclass
class SystemReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_inverse_system(sys: InverseSystem) -> SystemReport:
    """List every directedness, homomorphism and compatibility violation.

    The homomorphism check is complete: star on every x, join and meet on
    every ordered pair (x, y) of every U_q. The violations, their payloads
    and their order are those of oracles.brute_system_violations.

    Star, range, domain and compatibility are checked element by element;
    an x of U_r at which f_rp(x) or f_qp(f_rq(x)) is undefined is a
    compatibility violation. A map or triple that touches a point without a
    universe is not checked; the point is reported as universe-missing.
    Each map's images are gathered once, in the order of U_q, and serve
    domain (its keys against one element set per universe), range (one
    superset test, walked only when it fails), star (on plain pairs when
    both stars are core.star) and the lemma below.

    Join and meet are certified per source point q by the lemma of
    _preserves_joins_and_meets (O(|U_q|) per map, 2^|Z| component counts):
    when it holds for every checked map out of q, no pair is visited. Every
    other q goes through the exhaustive kernel: each target point is
    tabulated once (_tabulate) and each map becomes an index list. The rows
    join_q(x, ·) and meet_q(x, ·), computed once per x for all maps out of q
    by the universe's own join and meet (_op_rows), are compared whole with
    join_p(f x, f ·) and meet_p(f x, f ·), gathered once per map and image
    f x; only a row that differs is walked pair by pair.
    """
    rep = SystemReport()
    out = rep.violations
    poset = sys.poset
    universes = sys.universe_at
    out.extend(("directedness", pair) for pair in poset.directedness_violations())
    out.extend(("universe-missing", p) for p in poset.points if p not in universes)
    bonds = []    # (q, p, f, its images, violations so far); f is None if not checked further
    strays = {}   # p -> images outside U_p, in first-seen order
    element_sets = {p: set(universes[p].elements) for p in poset.points if p in universes}
    for q in poset.points:
        star_keys = None   # x* for every x of U_q, as plain pairs, built on first use
        for p in poset.strictly_below(q):
            if q not in universes or p not in universes:
                continue  # reported as universe-missing
            if (q, p) not in sys.maps:
                bonds.append((q, p, None, None, [("map-missing", (q, p))]))
                continue
            f = sys.maps[(q, p)]
            uq, up = universes[q], universes[p]
            if f.keys() != element_sets[q]:
                bonds.append((q, p, None, None, [("map-domain", (q, p))]))
                continue
            elems = uq.elements
            images = list(map(f.__getitem__, elems))
            stray = strays.setdefault(p, {})
            found = []
            elems_p = element_sets[p]
            if not elems_p.issuperset(images):
                for x, fx in zip(elems, images):
                    if fx not in elems_p:
                        found.append(("map-range", (q, p, x)))
                        stray[fx] = None
            if uq.star is star and up.star is star:
                if star_keys is None:
                    star_keys = [(x[1], x[0]) for x in elems]
                pulled = list(map(f.get, star_keys))
                pushed = [(fx[1], fx[0]) for fx in images]
            else:
                pulled = [f.get(uq.star(x)) for x in elems]
                pushed = list(map(up.star, images))
            if pulled != pushed:
                found.extend(
                    ("hom-star", (q, p, x)) for x, a, b in zip(elems, pulled, pushed) if a != b
                )
            bonds.append((q, p, f, images, found))
    tables = {}
    for q, group in itertools.groupby(bonds, key=lambda bond: bond[0]):
        group = list(group)
        uq = universes[q]
        checked = [(p, f, images) for _, p, f, images, _ in group if f is not None]
        if _preserves_joins_and_meets(uq, [(universes[p], f, images) for p, f, images in checked]):
            homs = repeat([])
        else:
            for p, _, _ in checked:
                if p not in tables:
                    tables[p] = _tabulate(universes[p], strays[p])
            homs = iter(_hom_violations(q, uq, [(p, f) for p, f, _ in checked], tables))
        for _, _, f, _, found in group:
            out.extend(found)
            if f is not None:
                out.extend(next(homs))
    for r in poset.points:
        for q in poset.strictly_below(r):
            for p in poset.strictly_below(q):
                if not {r, q, p} <= sys.universe_at.keys():
                    continue
                frq = sys.maps.get((r, q))
                fqp = sys.maps.get((q, p))
                frp = sys.maps.get((r, p))
                if frq is None or fqp is None or frp is None:
                    continue
                for x in sys.universe_at[r].elements:
                    defined = x in frp and x in frq and frq[x] in fqp
                    if not defined or frp[x] != fqp[frq[x]]:
                        out.append(("compatibility", (r, q, p, x)))
    return rep


def _preserves_joins_and_meets(uq: UniverseView, maps: list) -> bool:
    """True when a lemma shows that every f in maps, a list of (U_p, f,
    images) with f : U_q -> U_p and images = [f(x) for x in U_q], has no
    hom-join and no hom-meet violation.

    Lemma. Suppose (1) U_q's join and meet are core.join and core.meet and
    U_q is closed under them, (2) U_p's join and meet are core.join and
    core.meet, and (3) f(x) = (x.a & Y, x.b & Y) for every x in U_q, for
    one mask Y. Then f(x ∨ y) = f(x) ∨ f(y) and f(x ∧ y) = f(x) ∧ f(y) for
    every pair, because an AND mask distributes over | and &; and x ∨ y,
    x ∧ y lie in U_q, so f is defined on them.

    (1) holds when U_q is the full separation universe of a graph
    (_is_full_graph_universe), and (3) is checked on every element, as the
    plain pairs (a & Y, b & Y) against the image list, with Y read off the
    image of the top separation (Z, Z). No pair is visited.
    """
    if not maps:
        return True
    if not all(up.join is join and up.meet is meet for up, _, _ in maps):
        return False
    if not _is_full_graph_universe(uq):
        return False
    elems = uq.elements
    ground = elems[0].a | elems[0].b
    sides_a, sides_b = list(map(_side_a, elems)), list(map(_side_b, elems))
    for _, f, images in maps:
        top = f[Separation(ground, ground)]
        if type(top) is not Separation or type(top.a) is not int:
            return False
        y = top.a
        if list(zip(map(y.__and__, sides_a), map(y.__and__, sides_b))) != images:
            return False
    return True


def _is_full_graph_universe(u: UniverseView) -> bool:
    """True when u is closed under join and meet because it is the universe
    of all oriented separations of one graph H; asks nothing but u.

    - u and its elements pass core.codable, and the elements are distinct
      and have one common ground set Z = a | b.
    - H is read off u itself: two vertices of Z are adjacent unless some
      element puts them on opposite strict sides. Every element is then a
      separation of H.
    - An oriented separation of H is a separator X ⊆ Z and a side for each
      component of H − X, so H has Σ_{X ⊆ Z} 2^c(H − X) of them. When |u|
      equals that count, u is all of them, and the separations of a graph
      are closed under ∨ and ∧.

    The count takes 2^|Z| components() calls and stops once it exceeds |u|.
    """
    elems = u.elements
    if not elems or not codable(u, elems):
        return False
    ground = elems[0].a | elems[0].b
    if any(a | b != ground for a, b in elems) or len(set(elems)) != len(elems):
        return False
    opposite = {}  # strict side of an element -> union of the strict sides facing it
    for a, b in elems:
        opposite[a & ~b] = opposite.get(a & ~b, 0) | (b & ~a)
    apart = [0] * ground.bit_length()
    for side, other in opposite.items():
        for v in iter_bits(side):
            apart[v] |= other
        for v in iter_bits(other):
            apart[v] |= side
    h = Graph(
        len(apart),
        tuple(ground & ~apart[v] & ~(1 << v) if ground >> v & 1 else 0 for v in range(len(apart))),
        ground,
    )
    total, x = 0, ground
    while True:
        total += 1 << len(h.components(x))
        if total > len(elems):
            return False
        if not x:
            return total == len(elems)
        x = (x - 1) & ground


class _Table(NamedTuple):
    """A target universe over integer indices: its elements, then the
    strays (images that maps send into it from outside it)."""

    index: dict     # element or stray -> index, and None -> its code
    join: list      # join[i][j]: index of join(elems[i], elems[j])
    meet: list


def _op_rows(u: UniverseView, elems: tuple, index: dict, off: int) -> tuple:
    """The functions i -> join row and i -> meet row of elems[i]: the index
    of u.join(elems[i], y), resp. u.meet, for every y in elems, and off for
    a result not in elems. The universe's own join and meet run on every
    pair, so the kernel asks nothing of the element type."""
    return (
        lambda i: list(map(index.get, map(u.join, repeat(elems[i]), elems), repeat(off))),
        lambda i: list(map(index.get, map(u.meet, repeat(elems[i]), elems), repeat(off))),
    )


def _tabulate(u: UniverseView, strays) -> _Table:
    """Index tables of u (rows by _op_rows). A result that is not listed
    gets len(elems); None gets a code of its own unless listed, because the
    oracle reads a q-side result off U_q as None through f.get, which must
    equal a p-side None and nothing else."""
    elems = (*u.elements, *strays)
    index = {x: i for i, x in enumerate(elems)}
    index.setdefault(None, len(elems) + 1)
    join_row, meet_row = _op_rows(u, elems, index, len(elems))
    return _Table(
        index,
        [join_row(i) for i in range(len(elems))],
        [meet_row(i) for i in range(len(elems))],
    )


def _hom_violations(q, uq: UniverseView, checked: list, tables: dict) -> list:
    """For each (p, f) in checked, the hom-join and hom-meet violations of
    f : U_q -> U_p in the oracle's order: every x, y with join before
    meet."""
    elems = uq.elements
    index = {x: i for i, x in enumerate(elems)}
    off = len(elems)   # a result off U_q, which has no image: f.get reads None
    join_row, meet_row = _op_rows(uq, elems, index, off)
    maps = []
    for p, f in checked:
        tp = tables[p]
        fi = [tp.index[f[x]] for x in elems]
        fq = fi + [tp.index[None]]
        # targets: fx -> (join_p(fx, f y), meet_p(fx, f y)) over every y, gathered once
        maps.append((p, fi, fq, tp, {}, []))
    for i, x in enumerate(elems):
        jrow = join_row(i)
        mrow = meet_row(i)
        for p, fi, fq, tp, targets, found in maps:
            fx = fi[i]
            if fx not in targets:
                targets[fx] = (
                    list(map(tp.join[fx].__getitem__, fi)),
                    list(map(tp.meet[fx].__getitem__, fi)),
                )
            jp, mp = targets[fx]
            fj = list(map(fq.__getitem__, jrow))
            fm = list(map(fq.__getitem__, mrow))
            if fj == jp and fm == mp:
                continue
            for y, a, b, c, d in zip(elems, fj, jp, fm, mp):
                if a != b:
                    found.append(("hom-join", (q, p, x, y)))
                if c != d:
                    found.append(("hom-meet", (q, p, x, y)))
    return [found for *_, found in maps]


def inverse_limits(
    sys: InverseSystem, restrict: Optional[dict] = None, cap: int = 1_000_000
) -> tuple:
    """All limits: one x_p per point, in U_p and in restrict[p] where
    restrict names p, with f_qp(x_q) = x_p for every q > p; as dicts.

    Lemma. In a finite poset every point p lies at or below a maximal point
    m, and a limit has x_p = f_mp(x_m); so a limit is fixed by its values at
    the maximal points, and a choice of them extends to at most one limit.
    A directed poset has one maximal point t, its greatest, and in a valid
    system f_qp ∘ f_tq = f_tp, so each x in U_t with allowed images is one.
    The pass extends each allowed choice at the maximal points and keeps it
    when every image is allowed and every comparable pair agrees: exact on
    any system, validated or not. Limits come in itertools.product order of
    the maximal points' values, each in universe order; cap bounds the
    number of those choices and is checked before the pass. Only .elements
    of each universe is read, so any system of finite sets will do.
    """
    points = sys.poset.points

    def allowed(p):   # U_p ∩ restrict[p], in universe order
        elems = sys.universe_at[p].elements
        if restrict is None or p not in restrict:
            return elems
        return list(filter(set(restrict[p]).__contains__, elems))

    pairs = [(q, p, sys.maps[(q, p)]) for p, q in sys.poset.relation if p != q]
    tops = sys.poset.maximal_points()
    down = {p: (t, f, set(allowed(p))) for t, p, f in pairs if t in tops}  # via a maximal t
    domains = [allowed(t) for t in tops]
    if math.prod(map(len, domains)) > cap:
        raise CapExceededError(f"choices at the maximal points exceed cap {cap}")
    out = []
    for values in itertools.product(*domains):
        lim = dict(zip(tops, values))
        for p, (t, f, keep) in down.items():
            lim[p] = x = f[lim[t]]
            if x not in keep:
                break
        else:
            if all(f[lim[q]] == lim[p] for q, p, f in pairs):
                out.append({p: lim[p] for p in points})
    return tuple(out)


# ---------------------------------------------------------------------------
# the profinite splinter procedure

@dataclass(frozen=True)
class ProfiniteSplinterResult:
    nested_choice: dict          # point -> frozenset (the chosen N_p family)
    limits: tuple                # all limits through the choice: the set N


def _nested_transversal(u: UniverseView, combo, family_projs) -> bool:
    """True when combo is pairwise nested, each pair (x, y) taken in the
    order of combo, and meets every projection."""
    sset = frozenset(combo)
    return all(sset & proj for proj in family_projs) and all(
        _nested(u, x, y) for x, y in itertools.combinations(combo, 2)
    )


def _nested_subsets_meeting(u: UniverseView, union: list, family_projs) -> tuple:
    """All nested subsets of the union of the projected families (listed in
    universe order) that meet every projection. Enumerated over the union
    only: any nested transversal lives inside it."""
    subsets = (c for r in range(len(union) + 1) for c in itertools.combinations(union, r))
    return tuple(frozenset(c) for c in subsets if _nested_transversal(u, c, family_projs))


def profinite_splinter(
    sys: InverseSystem,
    families: list,
    union_cap: int = 12,
    limit_cap: int = 1_000_000,
) -> ProfiniteSplinterResult:
    """Run the profinite splinter procedure on a validated system.

    families: one dict per family, point -> subset of U_p (closed form).
    Per point, the projections must splinter, with at most union_cap
    elements in their union. The nested transversals of the projections
    form an inverse system under images, and its least limit is chosen: by
    the lemma of inverse_limits it is fixed at the greatest point t, so the
    at most limit_cap transversals N_t are enumerated at t alone and carried
    down as f_tp(N_t), each image certified a nested transversal at p. The
    returned limits are certified nested at every projection and to meet
    every family, through inverse_limits.
    """
    rep = validate_inverse_system(sys)
    if not rep.ok:
        raise PreconditionError(f"invalid inverse system: {rep.violations[:3]}")
    points = list(sys.poset.points)
    for fam in families:
        for q in points:
            for p in sys.poset.strictly_below(q):
                img = {sys.maps[(q, p)][x] for x in fam[q]}
                if not img <= set(fam[p]):
                    raise PreconditionError(
                        f"family not in closed form: image at {(q, p)} leaves O_p"
                    )

    rank = {p: {e: i for i, e in enumerate(sys.universe_at[p].elements)} for p in points}
    projs, unions = {}, {}
    for p in points:
        projs[p] = [frozenset(fam[p]) for fam in families]
        ok, w = splinters_check(FiniteSplinterFamily(sys.universe_at[p], tuple(projs[p])))
        if not ok:
            raise HypothesisError(f"projected families do not splinter at point {p!r}", witness=w)
        unions[p] = sorted({x for proj in projs[p] for x in proj}, key=rank[p].__getitem__)
        if len(unions[p]) > union_cap:
            raise CapExceededError(
                f"union of projected families has {len(unions[p])} elements (cap {union_cap})"
            )
    if not points:   # the empty system: one limit, through the empty choice
        return ProfiniteSplinterResult(nested_choice={}, limits=inverse_limits(sys))

    (t,) = sys.poset.maximal_points()   # directed, as validated: the greatest point
    top = _nested_subsets_meeting(sys.universe_at[t], unions[t], projs[t])
    if not top:
        raise CertificationError(
            f"no nested transversal exists at point {t!r}; finite splinter theorem violated (bug)"
        )
    if len(top) > limit_cap:
        raise CapExceededError(f"choices at the maximal points exceed cap {limit_cap}")
    down = {p: sys.maps[(t, p)].__getitem__ for p in sys.poset.strictly_below(t)}
    choices = [{p: frozenset(map(down[p], n)) if p in down else n for p in points} for n in top]
    for p in down:
        images = {tuple(sorted(c[p], key=rank[p].__getitem__)) for c in choices}
        if not all(_nested_transversal(sys.universe_at[p], img, projs[p]) for img in images):
            raise CertificationError(f"image of a nested transversal at {t!r} is not one at {p!r}")
    choice = min(choices, key=lambda c: [sorted(map(rank[p].__getitem__, c[p])) for p in points])
    limits = inverse_limits(sys, restrict=choice, cap=limit_cap)
    # a non-empty N_t has limits, by the greatest-point lemma; with no
    # families N_t is empty and so is the limit set
    if not limits and choice[t]:
        raise CertificationError("chosen nested sets admit no limit (bug)")

    # certify: projections nested, every family met
    for p in points:
        if not _nested_transversal(sys.universe_at[p], {lim[p] for lim in limits}, ()):
            raise CertificationError(f"projection at {p!r} not nested")
    for i, fam in enumerate(families):
        meets = {p: choice[p] & frozenset(fam[p]) for p in points}
        if not inverse_limits(sys, restrict=meets, cap=limit_cap):
            raise CertificationError(f"output misses family {i} (bug)")

    return ProfiniteSplinterResult(nested_choice=choice, limits=limits)


# ---------------------------------------------------------------------------
# ready-made systems

def product_chain_universe(a: int, b: int) -> UniverseView:
    """Universe on the grid C_a x C_b: componentwise order, join = max,
    meet = min, star = coordinate reflection. Small but has genuinely
    crossing pairs once a or b exceeds 2."""
    elements = tuple((i, j) for i in range(a) for j in range(b))

    def ord_(e):
        return min(e[0], a - 1 - e[0]) + min(e[1], b - 1 - e[1])

    return UniverseView(
        elements=elements,
        leq=lambda x, y: x[0] <= y[0] and x[1] <= y[1],
        star=lambda x: (a - 1 - x[0], b - 1 - x[1]),
        join=lambda x, y: (max(x[0], y[0]), max(x[1], y[1])),
        meet=lambda x, y: (min(x[0], y[0]), min(x[1], y[1])),
        order_of=ord_,
        closed=True,
        submodular_claimed=False,
    )


def graph_restriction_system(g: Graph, vertex_sets) -> InverseSystem:
    """Inverse system of the universes of the induced subgraphs G[Z] over a
    collection of vertex sets ordered by inclusion, with the restriction
    maps (A, B) -> (A ∩ Y, B ∩ Y)."""
    masks = sorted({m & g.vertices for m in vertex_sets})
    points = tuple(masks)
    strict = [
        (q, p) for q in points for p in points if p != q and not (p & ~q)
    ]
    poset = DirectedPoset.from_pairs(points, [(p, q) for q, p in strict])
    universes = {z: graph_universe(g.induced(z)) for z in points}
    maps = {}
    for q, p in strict:
        elems = universes[q].elements
        images = zip(map(p.__and__, map(_side_a, elems)), map(p.__and__, map(_side_b, elems)))
        maps[(q, p)] = dict(zip(elems, map(_new_separation, images)))
    return InverseSystem(poset, universes, maps)


# ---------------------------------------------------------------------------
# JSON forms (tiny abstract universes, fully tabulated)

def universe_from_json(obj) -> UniverseView:
    """Load {"elements": [...], "star": [...], "order": [...], "leq": [[x, y],
    ...], "join": [[x, y, z], ...], "meet": [[x, y, z], ...]}; star, order,
    join and meet must be total over the elements and land in them."""
    require(isinstance(obj, dict), "a universe must be a JSON object")
    elements = tuple(scalars(obj.get("elements"), "universe 'elements'"))
    names = set(elements)
    n = len(elements)
    star = members(obj.get("star"), names, "universe 'star'")
    order = obj.get("order")
    require(len(star) == n, "universe 'star' must have one entry per element")
    require(
        isinstance(order, list) and len(order) == n,
        "universe 'order' must be a list with one entry per element",
    )
    star_tab = dict(zip(elements, star))
    order_tab = dict(zip(elements, order))
    leq_set = {tuple(x) for x in rows(obj.get("leq"), (names, names), "universe 'leq'")}
    join_tab, meet_tab = (
        {(x, y): z for x, y, z in rows(obj.get(op), (names,) * 3, f"universe {op!r}")}
        for op in ("join", "meet")
    )
    require(
        len(join_tab) == len(meet_tab) == n * n,
        "universe 'join' and 'meet' must cover every pair of elements",
    )
    return UniverseView(
        elements=elements,
        leq=lambda x, y: (x, y) in leq_set,
        star=lambda x: star_tab[x],
        join=lambda x, y: join_tab[(x, y)],
        meet=lambda x, y: meet_tab[(x, y)],
        order_of=lambda x: order_tab[x],
        closed=True,
        submodular_claimed=False,
    )


def system_from_json(obj) -> tuple[InverseSystem, list]:
    """Load {"points": [...], "poset": [[lo, hi], ...], "universes": {...},
    "maps": {"q->p": [[x, fx], ...]}, "families": [{point: [elems]}]}.

    Input of any other shape raises InputError: points are distinct
    scalars, every map sends each element of U_q to one of U_p, and every
    family names a subset of U_p at every point."""
    require(isinstance(obj, dict), "system JSON must be an object")
    points = tuple(scalars(obj.get("points"), "system 'points'"))
    by_name = {str(p): p for p in points}
    require(len(by_name) == len(points), "system 'points' must have distinct names")
    pairs = rows(obj.get("poset"), (set(points),) * 2, "system 'poset'")
    poset = DirectedPoset.from_pairs(points, [tuple(e) for e in pairs])
    universes = obj.get("universes")
    require(
        isinstance(universes, dict) and all(name in universes for name in by_name),
        "system 'universes' must map every point name to a universe",
    )
    universes = {p: universe_from_json(universes[name]) for name, p in by_name.items()}
    elements = {p: set(u.elements) for p, u in universes.items()}
    maps = {}
    raw_maps = obj.get("maps")
    require(isinstance(raw_maps, dict), "system 'maps' must be an object")
    for key, pairs in raw_maps.items():
        ends = key.split("->")
        require(
            len(ends) == 2 and all(end in by_name for end in ends),
            f"map key {key!r} must read 'q->p' for two points q and p",
        )
        q, p = (by_name[end] for end in ends)
        f = dict(rows(pairs, (elements[q], elements[p]), f"map {key!r}"))
        require(len(f) == len(elements[q]), f"map {key!r} must send every element of {ends[0]}")
        maps[(q, p)] = f
    families = obj.get("families", [])
    require(
        isinstance(families, list)
        and all(isinstance(fam, dict) and set(fam) == set(by_name) for fam in families),
        "system 'families' must be a list of objects keyed by every point name",
    )
    families = [
        {
            by_name[name]: frozenset(
                members(vals, elements[by_name[name]], f"family entry at {name!r}")
            )
            for name, vals in fam.items()
        }
        for fam in families
    ]
    return InverseSystem(poset, universes, maps), families

