"""Independent brute-force oracles.

Everything here recomputes results straight from the definitions, sharing
no search or pruning code with the production implementations. The verify
harness and the test suite compare engine outputs against these.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Optional

from .core import (
    Graph,
    Separation,
    canonical,
    iter_bits,
    join,
    leq,
    mask_of,
    meet,
    sep_sort_key,
    star,
    vertices_of,
)
from .errors import CapExceededError, CertificationError, HypothesisError


def brute_separations(g: Graph, k: int) -> tuple[Separation, ...]:
    """All unoriented separations of order < k by scanning every (A, B)
    pair of subsets of the vertex set."""
    verts = g.vertices
    subsets = []
    # enumerate submasks of verts
    sub = verts
    while True:
        subsets.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & verts
    out = set()
    for a in subsets:
        for b in subsets:
            if a | b != verts:
                continue
            if (a & b).bit_count() >= k:
                continue
            strict_a = a & ~b
            if any(g.adj[v] & b & ~a for v in vertices_of(strict_a)):
                continue
            out.add(canonical(Separation(a, b)))
    return tuple(sorted(out, key=sep_sort_key))


def brute_universe_elements(seps) -> tuple[Separation, ...]:
    """Both orientations of the given separations, each once, sorted by
    sep_sort_key: the elements of the universe on them, from one sort."""
    return tuple(sorted({s for e in seps for s in (e, star(e))}, key=sep_sort_key))


def _full_profile_predicate(oriented) -> bool:
    members = set(oriented)
    for x in oriented:
        sx = star(x)
        for y in oriented:
            if y != x and y != sx and leq(sx, y):
                return False
    for x in oriented:
        for y in oriented:
            if meet(star(x), star(y)) in members:
                return False
    return True


def brute_profiles(g: Graph, k: int, scan_cap: int = 26) -> tuple[tuple[Separation, ...], ...]:
    """All k-profiles by unpruned orientation scan.

    Up to 16 separations every one of the 2^m orientation vectors is
    materialised and checked against the full predicate. Beyond that (up to
    scan_cap) a plain lexicographic orientation tree is walked instead,
    abandoning a branch only when two already-assigned orientations already
    violate consistency; no ordering heuristics, no profile-property
    lookahead, and the full predicate is still evaluated on every leaf.
    """
    seps = brute_separations(g, k)
    m = len(seps)
    if m > scan_cap:
        raise ValueError(f"oracle scan cap exceeded: {m} separations")
    results = []
    if m <= 16:
        for bits in range(1 << m):
            oriented = tuple(
                seps[i] if not bits >> i & 1 else star(seps[i]) for i in range(m)
            )
            if _full_profile_predicate(oriented):
                results.append(tuple(sorted(oriented, key=sep_sort_key)))
    else:
        chosen = []

        def rec(i):
            if i == m:
                oriented = tuple(chosen)
                if _full_profile_predicate(oriented):
                    results.append(tuple(sorted(oriented, key=sep_sort_key)))
                return
            for o in (seps[i], star(seps[i])):
                bad = False
                for x in chosen:
                    if (x != o and x != star(o)) and (
                        leq(star(x), o) or leq(star(o), x)
                    ):
                        bad = True
                        break
                if not bad:
                    chosen.append(o)
                    rec(i + 1)
                    chosen.pop()

        rec(0)
    return tuple(sorted(results))


def brute_is_robust(g: Graph, chosen) -> bool:
    """Robustness of an orientation by its definition: no member r and
    separation t of any order have |r ∨ t| < |r| and |r ∨ t*| < |r| with
    neither join a member, scanned over every separation of the graph."""
    members = set(chosen)
    universe = brute_separations(g, g.num_vertices + 1)
    for r in chosen:
        for t in universe:
            j1, j2 = join(r, t), join(r, star(t))
            if (
                j1.order < r.order
                and j2.order < r.order
                and j1 not in members
                and j2 not in members
            ):
                return False
    return True


def brute_distinguishers(g: Graph, p_members, q_members) -> tuple[Separation, ...]:
    """Minimum-order separations oriented oppositely by two orientation
    sets, scanned over every separation of the graph."""
    p_set, q_set = set(p_members), set(q_members)
    k = min(
        max((s.order for s in p_set), default=0),
        max((s.order for s in q_set), default=0),
    ) + 1
    hits = []
    for s in brute_separations(g, k):
        for o in (s, star(s)):
            if o in p_set and star(o) in q_set:
                hits.append(s)
                break
    if not hits:
        return ()
    best = min(s.order for s in hits)
    return tuple(sorted((s for s in hits if s.order == best), key=sep_sort_key))


def brute_nested(u, a, b) -> bool:
    """a and b are nested: a or a* lies below b or b*, tried in that order."""
    return any(u.leq(x, y) for x in (a, u.star(a)) for y in (b, u.star(b)))


def brute_nested_transversal_exists(universe, families) -> bool:
    """Exhaustive search for a pairwise nested transversal of the families."""
    fams = [sorted(f, key=repr) for f in families]

    def rec(i, picked):
        if i == len(fams):
            return True
        for cand in fams[i]:
            if all(brute_nested(universe, cand, x) for x in picked):
                if rec(i + 1, picked + [cand]):
                    return True
        return False

    return rec(0, [])


def brute_consistent_orientations(seps) -> list[tuple[int, ...]]:
    """The consistent orientations of the separations `seps`, as sorted
    0/1 vectors (0 picks seps[i], 1 its inverse), by testing every one of
    the 2^m vectors: no members x = (A, B), y = (C, D) of distinct
    separations have x* ≤ y, that is B ⊆ C and A ⊇ D."""
    seps = list(seps)
    out = []
    for vec in itertools.product((0, 1), repeat=len(seps)):
        chosen = [(b, a) if o else (a, b) for (a, b), o in zip(seps, vec)]
        if not any(
            not b & ~c and not d & ~a for (a, b), (c, d) in itertools.permutations(chosen, 2)
        ):
            out.append(vec)
    return sorted(out)


def _adjacency(nodes, edges) -> dict:
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _is_tree(nodes, edges) -> bool:
    if len(edges) != len(nodes) - 1 or not {t for e in edges for t in e} <= set(nodes):
        return False
    adj = _adjacency(nodes, edges)
    seen = set()
    stack = [nodes[0]] if nodes else []
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return len(seen) == len(nodes)


def _tree_path(adj, a, b):
    prev = {a: None}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            break
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                stack.append(w)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def brute_treedecomposition_violations(g: Graph, td) -> list:
    """The violations of the tree-decomposition td of g, straight from the
    definitions: ("tree", message) alone when the tree is not a tree, else
    (T1) bags cover V, (T2) every edge lies in a bag, tested bag by bag,
    and (T3) as one ("T3", (t1, t2, t3)) per ordered pair t1, t3 of nodes
    whose bags meet and node t2 on the tree path between them whose bag
    misses a vertex of bags[t1] ∩ bags[t3]."""
    violations = []
    nodes = range(len(td.bags))
    if not _is_tree(nodes, td.edges):
        violations.append(("tree", "decomposition tree is not a tree"))
        return violations
    cover = 0
    for t in nodes:
        cover |= td.bags[t]
    if cover != g.vertices:
        violations.append(("T1", f"vertices {vertices_of(g.vertices & ~cover)} uncovered"))
    for u, v in g.edges():
        e = (1 << u) | (1 << v)
        if not any(not e & ~td.bags[t] for t in nodes):
            violations.append(("T2", f"edge ({u},{v}) in no bag"))
    adj = _adjacency(nodes, td.edges)
    for t1 in nodes:
        for t3 in nodes:
            inter = td.bags[t1] & td.bags[t3]
            if not inter:
                continue
            for t2 in _tree_path(adj, t1, t3):
                if inter & ~td.bags[t2]:
                    violations.append(("T3", (t1, t2, t3)))
    return violations


def brute_induced_separations(td) -> tuple[Separation, ...]:
    """The separations induced by the decomposition td, one per tree edge:
    a depth-first search from one end that does not cross the edge finds
    that end's side, and the separation is the pair of bag unions of the
    two sides."""
    nodes = range(len(td.bags))
    adj = _adjacency(nodes, td.edges)
    out = set()
    for u, v in td.edges:
        side = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            for z in adj[w]:
                if z not in side and not (w == u and z == v):
                    side.add(z)
                    stack.append(z)
        a = 0
        b = 0
        for t in nodes:
            if t in side:
                a |= td.bags[t]
            else:
                b |= td.bags[t]
        out.add(canonical(Separation(a, b)))
    return tuple(sorted(out, key=sep_sort_key))


def brute_splinters_check(universe, families) -> tuple:
    """The splinter condition straight from its definition: (True, None),
    or (False, (i, j, s, t)) for the first offending pair in the order
    families i, j, then s in family i and t in family j in universe order.
    A pair is skipped when s or s* lies in family j or t or t* in family i,
    and offends when none of its corners s ∨ t, s ∨ t*, s* ∨ t, s* ∨ t*
    lies in family i or j, or has its star there."""
    u = universe
    rank = {x: i for i, x in enumerate(u.elements)}

    def unoriented_in(fam, x):
        return x in fam or u.star(x) in fam

    for i, fam_i in enumerate(families):
        for j, fam_j in enumerate(families):
            for s in sorted(fam_i, key=rank.__getitem__):
                if unoriented_in(fam_j, s):
                    continue
                for t in sorted(fam_j, key=rank.__getitem__):
                    if unoriented_in(fam_i, t):
                        continue
                    corners = (
                        u.join(s, t),
                        u.join(s, u.star(t)),
                        u.join(u.star(s), t),
                        u.join(u.star(s), u.star(t)),
                    )
                    if not any(unoriented_in(fam_i, c) or unoriented_in(fam_j, c) for c in corners):
                        return False, (i, j, s, t)
    return True, None


def find_automorphisms(g: Graph) -> tuple[dict, ...]:
    """All automorphisms of g by backtracking over degree-compatible
    assignments."""
    verts = vertices_of(g.vertices)
    deg = {v: g.adj[v].bit_count() for v in verts}
    out = []
    assignment: dict = {}
    used = set()

    def rec(i):
        if i == len(verts):
            out.append(dict(assignment))
            return
        v = verts[i]
        for w in verts:
            if w in used or deg[w] != deg[v]:
                continue
            ok = True
            for u2 in verts[:i]:
                if bool(g.adj[v] >> u2 & 1) != bool(g.adj[w] >> assignment[u2] & 1):
                    ok = False
                    break
            if ok:
                assignment[v] = w
                used.add(w)
                rec(i + 1)
                used.discard(w)
                del assignment[v]

    rec(0)
    return tuple(out)


def brute_minimum_distinguishing_order(g: Graph, p_members, q_members):
    hits = brute_distinguishers(g, p_members, q_members)
    return hits[0].order if hits else None


def subsets_of_size(mask: int, size: int):
    for combo in itertools.combinations(vertices_of(mask), size):
        yield mask_of(combo)


def minimal_separators(g: Graph, u: int, v: int, k: int) -> tuple[int, ...]:
    """All ⊆-minimal u-v separators of size ≤ k, by scanning every vertex set
    that avoids u and v, by size and then in `subsets_of_size` order.
    Adjacent endpoints have none."""

    def separates(x):
        return not any(c >> u & 1 and c >> v & 1 for c in g.components(x))

    out = []
    for size in range(k + 1):
        for x in subsets_of_size(g.vertices & ~(1 << u) & ~(1 << v), size):
            if separates(x) and not any(separates(x & ~(1 << w)) for w in iter_bits(x)):
                out.append(x)
    return tuple(out)


def brute_system_violations(sys) -> list:
    """Every directedness, homomorphism and compatibility violation of an
    inverse system, by recomputing each join and meet through the universe
    callables on both sides of every map, for every ordered pair. For r > q
    > p, every x of U_r at which f_rp(x) and f_qp(f_rq(x)) are not both
    defined and equal is a compatibility violation. Maps and triples that
    touch a point without a universe are skipped; that point is reported as
    universe-missing."""
    violations = []
    for pair in sys.poset.directedness_violations():
        violations.append(("directedness", pair))
    for p in sys.poset.points:
        if p not in sys.universe_at:
            violations.append(("universe-missing", p))
    for q in sys.poset.points:
        for p in sys.poset.strictly_below(q):
            if q not in sys.universe_at or p not in sys.universe_at:
                continue
            if (q, p) not in sys.maps:
                violations.append(("map-missing", (q, p)))
                continue
            f = sys.maps[(q, p)]
            uq, up = sys.universe_at[q], sys.universe_at[p]
            elems_p = set(up.elements)
            if set(f) != set(uq.elements):
                violations.append(("map-domain", (q, p)))
                continue
            for x in uq.elements:
                if f[x] not in elems_p:
                    violations.append(("map-range", (q, p, x)))
            for x in uq.elements:
                if f.get(uq.star(x)) != up.star(f[x]):
                    violations.append(("hom-star", (q, p, x)))
            for x in uq.elements:
                for y in uq.elements:
                    if f.get(uq.join(x, y)) != up.join(f[x], f[y]):
                        violations.append(("hom-join", (q, p, x, y)))
                    if f.get(uq.meet(x, y)) != up.meet(f[x], f[y]):
                        violations.append(("hom-meet", (q, p, x, y)))
    for r in sys.poset.points:
        for q in sys.poset.strictly_below(r):
            for p in sys.poset.strictly_below(q):
                if any(point not in sys.universe_at for point in (r, q, p)):
                    continue
                frq = sys.maps.get((r, q))
                fqp = sys.maps.get((q, p))
                frp = sys.maps.get((r, p))
                if frq is None or fqp is None or frp is None:
                    continue
                for x in sys.universe_at[r].elements:
                    defined = x in frp and x in frq and frq[x] in fqp
                    if not defined or frp[x] != fqp[frq[x]]:
                        violations.append(("compatibility", (r, q, p, x)))
    return violations


def brute_inverse_limits(
    sys, restrict: Optional[dict] = None, cap: int = 1_000_000
) -> tuple:
    """All limits, by exhaustive backtracking along a fixed point order.

    restrict optionally narrows the candidate set at each point. Limits are
    returned as dicts point -> element, deterministically ordered.
    """
    points = list(sys.poset.points)
    domains = []
    size = 1
    for p in points:
        dom = list(sys.universe_at[p].elements)
        if restrict is not None and p in restrict:
            allowed = set(restrict[p])
            dom = [x for x in dom if x in allowed]
        domains.append(dom)
        size *= max(len(dom), 1)
        if size > cap:
            raise CapExceededError(f"limit search space exceeds cap {cap}")
    out = []
    choice: dict = {}

    def rec(i):
        if i == len(points):
            out.append(dict(choice))
            return
        p = points[i]
        for x in domains[i]:
            ok = True
            for j in range(i):
                q = points[j]
                if sys.poset.leq(p, q) and p != q and sys.maps[(q, p)][choice[q]] != x:
                    ok = False
                    break
                if sys.poset.leq(q, p) and p != q and sys.maps[(p, q)][x] != choice[q]:
                    ok = False
                    break
            if ok:
                choice[p] = x
                rec(i + 1)
                del choice[p]

    rec(0)
    return tuple(out)


def brute_profinite_choice(sys, families) -> tuple:
    """(choice, limits) of the profinite splinter procedure, the long way
    round: at each point, every subset of the union of the projections that
    meets each projection and is pairwise nested (pairs in universe order);
    their compatible choices by brute_inverse_limits, within its cap; and the
    least by [sorted universe indices of N_p for p in points]."""
    points = list(sys.poset.points)
    rank = {p: {x: i for i, x in enumerate(sys.universe_at[p].elements)} for p in points}
    listed = {}
    for p in points:
        u = sys.universe_at[p]
        projs = [frozenset(fam[p]) for fam in families]
        union = sorted(set().union(*projs), key=rank[p].__getitem__)
        subsets = (c for r in range(len(union) + 1) for c in itertools.combinations(union, r))
        listed[p] = SimpleNamespace(elements=[
            frozenset(c) for c in subsets
            if all(proj & set(c) for proj in projs)
            and all(brute_nested(u, a, b) for a, b in itertools.combinations(c, 2))
        ])
    images = {
        key: {n: frozenset(f[x] for x in n) for n in listed[key[0]].elements}
        for key, f in sys.maps.items()
    }
    candidate_system = SimpleNamespace(poset=sys.poset, universe_at=listed, maps=images)
    choices = brute_inverse_limits(candidate_system)
    choice = min(choices, key=lambda c: [sorted(rank[p][x] for x in c[p]) for p in points])
    return choice, brute_inverse_limits(sys, restrict=choice)


def _crossing_number(inst, a, k: int) -> int:
    level = set()
    for key, fam in inst.families.items():
        if inst.orders[key] == k:
            level |= fam
    return sum(1 for x in level if not inst.nested(a, x))


def is_corner(inst, c, a, b) -> bool:
    """c is a corner of a and b: every family member crossing c crosses a or b."""
    union = frozenset().union(*inst.families.values())
    for x in union:
        if not inst.nested(x, c) and inst.nested(x, a) and inst.nested(x, b):
            return False
    return True


def brute_thin_splinter_report(inst) -> tuple[list, dict]:
    """(violations, max_crossing) of the three thin-splinter properties,
    with every crossing number and corner test re-evaluated through
    `inst.nested` on each use; the list is in the order the production
    check reports it, with the members of each family in `inst.elements`
    order."""
    violations = []
    max_crossing = {}
    keys = sorted(inst.families, key=repr)
    members = {key: [x for x in inst.elements if x in fam] for key, fam in inst.families.items()}
    levels = sorted({inst.orders[k] for k in keys})
    union = frozenset().union(*inst.families.values()) if inst.families else frozenset()
    for k in levels:
        max_crossing[k] = max((_crossing_number(inst, a, k) for a in union), default=0)

    def oracle_check(a, b, key):
        if inst.corner_oracle is None:
            return
        c = inst.corner_oracle(a, b, key)
        if c is not None and not is_corner(inst, c, a, b):
            violations.append(("corner-oracle", (a, b, key, c)))

    for ki in keys:
        for kj in keys:
            oi, oj = inst.orders[ki], inst.orders[kj]
            if oi < oj:
                for a in members[ki]:
                    for b in members[kj]:
                        if inst.nested(a, b):
                            continue
                        good = any(
                            inst.nested(c, a) and is_corner(inst, c, a, b)
                            for c in inst.families[kj]
                        )
                        if not good:
                            violations.append(("property-2", (ki, kj, a, b)))
                        oracle_check(a, b, kj)
            elif oi == oj and repr(ki) < repr(kj):
                k = oi
                for a in members[ki]:
                    for b in members[kj]:
                        if inst.nested(a, b):
                            continue
                        cn_a = _crossing_number(inst, a, k)
                        cn_b = _crossing_number(inst, b, k)
                        good = any(
                            _crossing_number(inst, c, k) < cn_a and is_corner(inst, c, a, b)
                            for c in inst.families[ki]
                        ) or any(
                            _crossing_number(inst, c, k) < cn_b and is_corner(inst, c, a, b)
                            for c in inst.families[kj]
                        )
                        if not good:
                            violations.append(("property-3", (ki, kj, a, b)))
                        oracle_check(a, b, ki)
    for ki in keys:
        k = inst.orders[ki]
        fam = sorted(inst.families[ki], key=repr)
        for ia, a in enumerate(fam):
            for b in fam[ia + 1 :]:
                if inst.nested(a, b):
                    continue
                cn_a = _crossing_number(inst, a, k)
                cn_b = _crossing_number(inst, b, k)
                good = any(
                    (_crossing_number(inst, c, k) < max(cn_a, cn_b))
                    and is_corner(inst, c, a, b)
                    for c in inst.families[ki]
                )
                if not good:
                    violations.append(("property-3", (ki, ki, a, b)))
    return violations, max_crossing


def brute_corner_oracle(distinguishers: dict):
    """The corner oracle of a separator instance asked one triple at a
    time, from the distinguisher sets of its profile pairs (keyed (i, j),
    as `separators.build_separator_instance` returns them). The witnesses
    of a separator are the distinguishers with that separator over all
    pairs, each once, in the order of `distinguishers`. For (a, b, target)
    the answer is the separator of the first join (xa ∪ ya, xb ∩ yb) of a
    witness of a and one of b, each in both orientations, that lies in the
    target's distinguisher set or its stars; None if there is none."""
    members = {
        key: frozenset(d.seps) | frozenset(map(star, d.seps)) for key, d in distinguishers.items()
    }
    witnesses: dict = {}
    for d in distinguishers.values():
        for s in d.seps:
            witnesses.setdefault(s.separator, {})[s] = None

    def corner_oracle(a, b, target_key):
        want = members[target_key]
        for wa in witnesses[a]:
            for wb in witnesses[b]:
                for xa, xb in (wa, wa[::-1]):
                    for ya, yb in (wb, wb[::-1]):
                        if (xa | ya, xb & yb) in want:
                            return (xa | ya) & xb & yb
        return None

    return corner_oracle


def brute_thin_splinter(inst) -> tuple[tuple, tuple]:
    """The levelwise thin splinter straight from its definition: (nested
    set, ((k, added), ...)). Raises HypothesisError or CertificationError
    with the same message and witness as the production engine."""
    violations, _ = brute_thin_splinter_report(inst)
    if violations:
        raise HypothesisError(
            "instance does not thinly splinter", witness=tuple(violations[:3])
        )
    rank = {x: i for i, x in enumerate(inst.elements)}
    keys = sorted(inst.families, key=repr)
    nested_set: list = []
    levels = []
    for k in sorted({inst.orders[key] for key in keys}):
        added = set()
        for key in keys:
            if inst.orders[key] != k:
                continue
            candidates = [
                a
                for a in sorted(inst.families[key], key=rank.__getitem__)
                if all(inst.nested(a, x) for x in nested_set)
            ]
            if not candidates:
                raise HypothesisError(
                    f"family {key!r} has no element nested with the set built "
                    "so far; the thin-splinter hypotheses cannot hold",
                    witness=key,
                )
            best = min(_crossing_number(inst, a, k) for a in candidates)
            added.update(a for a in candidates if _crossing_number(inst, a, k) == best)
        new = [a for a in sorted(added, key=rank.__getitem__) if a not in nested_set]
        levels.append((k, tuple(new)))
        nested_set.extend(new)
    for i, x in enumerate(nested_set):
        for y in nested_set[i + 1 :]:
            if not inst.nested(x, y):
                raise CertificationError(f"thin splinter output not nested: {x!r} vs {y!r}")
    for key in keys:
        if not inst.families[key] & set(nested_set):
            raise CertificationError(f"thin splinter output misses family {key!r}")
    return tuple(nested_set), tuple(levels)
