"""Tree sets, tree-decompositions, torsos, and the tree of
tree-decompositions with its certification suite.

A finite regular tree set of graph separations is realised as the edge tree
set of a tree whose nodes are the consistent orientations of the set; bags
are intersections of the inward-pointing b-sides. Everything constructed
here is certified against the definitions before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from .core import (
    Graph,
    Separation,
    canonical,
    is_nested,
    is_separation,
    is_small,
    iter_bits,
    leq,
    mask_of,
    sep_sort_key,
    star,
    vertices_of,
)
from .errors import CertificationError, PreconditionError
from .separators import canonical_nested_separators, separator_sort_key
from .profiles import principal_flags


# ---------------------------------------------------------------------------
# trees

def _is_tree(nodes, edges) -> bool:
    if len(edges) != len(nodes) - 1:
        return False
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
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


# ---------------------------------------------------------------------------
# tree-decompositions

@dataclass(frozen=True)
class TreeDecomposition:
    nodes: tuple
    edges: tuple
    bags: dict  # node -> vertex mask

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def to_json(self) -> dict:
        return {
            "nodes": [
                {"id": t, "bag": list(vertices_of(self.bags[t]))} for t in self.nodes
            ],
            "edges": [list(e) for e in self.edges],
        }


@dataclass
class TdReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_treedecomposition(g: Graph, td: TreeDecomposition) -> TdReport:
    """Check (T1) bags cover V, (T2) every edge lies in a bag, and
    (T3) bag intersections persist along tree paths."""
    rep = TdReport()
    if not _is_tree(td.nodes, td.edges):
        rep.violations.append(("tree", "decomposition tree is not a tree"))
        return rep
    cover = 0
    for t in td.nodes:
        cover |= td.bags[t]
    if cover != g.vertices:
        rep.violations.append(("T1", f"vertices {vertices_of(g.vertices & ~cover)} uncovered"))
    for u, v in g.edges():
        e = (1 << u) | (1 << v)
        if not any(not e & ~td.bags[t] for t in td.nodes):
            rep.violations.append(("T2", f"edge ({u},{v}) in no bag"))
    adj = td.adjacency()
    for t1 in td.nodes:
        for t3 in td.nodes:
            inter = td.bags[t1] & td.bags[t3]
            if not inter:
                continue
            for t2 in _tree_path(adj, t1, t3):
                if inter & ~td.bags[t2]:
                    rep.violations.append(("T3", (t1, t2, t3)))
    return rep


def induced_separations(td: TreeDecomposition) -> tuple[Separation, ...]:
    """The separations induced by the decomposition: one per tree edge, the
    unions of bags on the two sides."""
    adj = td.adjacency()
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
        for t in td.nodes:
            if t in side:
                a |= td.bags[t]
            else:
                b |= td.bags[t]
        out.add(canonical(Separation(a, b)))
    return tuple(sorted(out, key=sep_sort_key))


def treeset_to_treedecomposition(g: Graph, nested_set) -> TreeDecomposition:
    """Realise a regular tree set as a tree-decomposition of g.

    Nodes are the consistent orientations of the set (there are exactly
    |N| + 1 of them), sorted as vectors that pick 0 for a canonical
    separation s and 1 for s*; the edge of s joins the two nodes that
    differ at s alone. Bags intersect the b-sides of the separations on
    incident edges, oriented as the node orients them. The result is
    certified: (T1)-(T3) hold and the induced separations are exactly the
    input.

    The nodes are read off the oriented separations, with no search
    (Diestel, "Tree sets", Order 2018). An orientation O of N is consistent
    when no x, y ∈ O of distinct separations have x* ≤ y. For an
    orientation x of s ∈ N, O_x holds x and orients every other r ∈ N as
    the one z ∈ {r, r*} with z ≤ x or z ≤ x*; as that rule is the same for
    x and x*, O_s and O_{s*} differ at s alone.

    Lemma. Let N be nested and regular: no x ∈ N has x or x* small
    (x ≤ x*). Then the consistent orientations of N are the O_x, and two of
    them differ at s alone exactly when they are O_s and O_{s*}. Proof:
    (1) z exists, as r and s are nested: one of r ≤ x, x ≤ r, r* ≤ x,
    x ≤ r* holds, and x ≤ y iff y* ≤ x*. It is unique: z ≤ x and z* ≤ x
    give x* ≤ z ≤ x, and z ≤ x* and z* ≤ x* give x ≤ z* ≤ x*, so x* or x
    would be small; z ≤ x and z* ≤ x* give z = x, and z ≤ x* and z* ≤ x
    give z = x*, against r ≠ s.
    (2) O_x is consistent. Each w ∈ O_x has w ≤ u for some u ∈ {x, x*}
    (x ≤ x). Let y, w ∈ O_x of distinct separations have y* ≤ w ≤ u. If
    y ≠ x, y and y* both pass the rule at x, against (1). If y = x, then
    x* ≤ w ≤ u: u = x makes x* small and u = x* gives w = x*, whose
    separation is y's.
    (3) Every consistent O is O_x for any ≤-maximal x ∈ O. For z ∈ O of
    another separation, one of z ≤ x, x ≤ z, z* ≤ x, x ≤ z* holds; x ≤ z
    contradicts maximality, z* ≤ x is x* ≤ z, against consistency, so z
    passes the rule.
    (4) Let consistent O ∋ s and O' ∋ s* agree off s, and let z ∈ O orient
    another separation. s ≤ z would make O' inconsistent, as (s*)* = s,
    and z* ≤ s, that is s* ≤ z, would make O inconsistent, so z ≤ s or
    s ≤ z*, that is z ≤ s*: O = O_s and O' = O_{s*}.
    (5) For N = ∅ the one orientation is the empty one.
    """
    seps = tuple(sorted({canonical(s) for s in nested_set}, key=sep_sort_key))
    for s in seps:
        if not is_separation(g, s):
            raise PreconditionError(f"not a separation of the graph: {s}")
        if is_small(s) or is_small(star(s)):
            raise PreconditionError(f"tree set must be regular; {s} is small or cosmall")
    for s, t in itertools.combinations(seps, 2):
        if not is_nested(s, t):
            raise PreconditionError(f"set is not nested: {s} vs {t}")
    m = len(seps)

    oriented = [(s, star(s)) for s in seps]
    ends = []  # per separation i: (O_s, O_{s*}) as 0/1 vectors
    for i, (x, x_star) in enumerate(oriented):
        rest = []
        for j, pair in enumerate(oriented):
            if j == i:
                continue
            picks = [o for o, z in enumerate(pair) if leq(z, x) or leq(z, x_star)]
            if len(picks) != 1:
                raise CertificationError(
                    f"{len(picks)} orientations of {pair[0]} lie below {x} or its inverse"
                )
            rest += picks
        ends.append(tuple((*rest[:i], o, *rest[i:]) for o in (0, 1)))
    orientations = sorted({o for pair in ends for o in pair}) if m else [()]
    if len(orientations) != m + 1:
        raise CertificationError(
            f"expected {m + 1} consistent orientations, found {len(orientations)}"
        )

    nodes = tuple(range(m + 1))
    index = {o: t for t, o in enumerate(orientations)}
    edges = tuple(sorted((index[u], index[v]) for u, v in ends))
    if not _is_tree(nodes, edges):
        raise CertificationError("orientation graph is not a tree with one edge per separation")

    bags = dict.fromkeys(nodes, g.vertices)
    for (u, v), (x, x_star) in zip(ends, oriented):
        bags[index[u]] &= x.b
        bags[index[v]] &= x_star.b
    td = TreeDecomposition(nodes, edges, bags)

    rep = verify_treedecomposition(g, td)
    if not rep.ok:
        raise CertificationError(f"constructed decomposition invalid: {rep.violations[:3]}")
    if set(induced_separations(td)) != set(seps):
        raise CertificationError("induced separations differ from the input tree set")
    return td


def torso(g: Graph, td: TreeDecomposition, node) -> Graph:
    """Bag subgraph with every adhesion set (bag ∩ neighbour bag) completed."""
    bag = td.bags[node]
    sub = g.induced(bag)
    adj = list(sub.adj)
    for u, v in td.edges:
        if node not in (u, v):
            continue
        other = v if u == node else u
        adhesion = bag & td.bags[other]
        for x in iter_bits(adhesion):
            adj[x] |= adhesion & ~(1 << x)
    return Graph(g.n, tuple(adj), bag)


# ---------------------------------------------------------------------------
# trees of tree-decompositions

@dataclass
class TreeOfTreeDecompositions:
    root: int
    nodes: tuple
    parent: dict
    children: dict
    depth: dict
    graph_at: dict
    td_at: dict
    torso_of: dict  # node -> td-node of the parent whose torso it is

    def to_json(self) -> dict:
        def emit(t):
            return {
                "graph": {"vertices": list(vertices_of(self.graph_at[t].vertices))},
                "td": self.td_at[t].to_json(),
                "torso_of": self.torso_of.get(t),
                "children": [emit(c) for c in self.children[t]],
            }

        return emit(self.root)


def build_totd(g: Graph, profiles) -> TreeOfTreeDecompositions:
    """Canonical tree of tree-decompositions distinguishing the given
    principal robust profiles. Principality and regularity are checked;
    robustness is the caller's hypothesis. The result is certified by
    `certify_totd` before return.

    Level by level: the decomposition at depth d uses, inside each torso
    graph, the separations (C ∪ X, V(G_t)∖C) for subset-closed separators X
    of size d+1 whose removal leaves at least two components. Children are
    attached one per torso while separators remain.
    """
    if not g.is_connected():
        raise PreconditionError("graph must be connected")
    profiles = tuple(profiles)
    for idx, principal in enumerate(principal_flags(g, profiles)):
        if not principal:
            raise PreconditionError(f"profile {idx} is not principal")
    nested = canonical_nested_separators(g, profiles)
    closure = sorted(
        {
            mask_of(sub)
            for x in nested.separators
            for r in range(1, x.bit_count() + 1)
            for sub in itertools.combinations(vertices_of(x), r)
        },
        key=separator_sort_key,
    )
    k_max = max((x.bit_count() for x in closure), default=0)

    totd = TreeOfTreeDecompositions(
        root=0,
        nodes=(0,),
        parent={0: None},
        children={},
        depth={0: 0},
        graph_at={0: g},
        td_at={},
        torso_of={},
    )
    frontier = [0]
    next_id = 1
    for d in range(k_max + 1):
        new_frontier = []
        for t in frontier:
            gt = totd.graph_at[t]
            s_set = _level_separations(gt, closure, d + 1)
            totd.td_at[t] = treeset_to_treedecomposition(gt, s_set)
            if d + 1 <= k_max:
                for td_node in totd.td_at[t].nodes:
                    child = next_id
                    next_id += 1
                    totd.nodes += (child,)
                    totd.parent[child] = t
                    totd.depth[child] = d + 1
                    totd.graph_at[child] = torso(gt, totd.td_at[t], td_node)
                    totd.torso_of[child] = td_node
                    totd.children.setdefault(t, []).append(child)
                    new_frontier.append(child)
        frontier = new_frontier
    for t in totd.nodes:
        totd.children.setdefault(t, [])
        totd.children[t] = tuple(totd.children[t])

    certify_totd(g, totd, closure, nested.distinguishers.values())
    return totd


def _level_separations(gt: Graph, closure, size: int):
    out = set()
    for x in closure:
        if x.bit_count() != size or x & ~gt.vertices:
            continue
        comps = gt.components(x)
        if len(comps) < 2:
            continue
        for c in comps:
            out.add(canonical(Separation(c | x, gt.vertices & ~c)))
    return tuple(sorted(out, key=sep_sort_key))


def certify_totd(g: Graph, totd: TreeOfTreeDecompositions, closure, distinguishers):
    """Re-verify the construction invariants and the three stated
    properties of the finished tree of tree-decompositions; `distinguishers`
    are the distinguisher sets of the profile pairs the tree must tell
    apart."""
    depth_max = max(totd.depth.values(), default=0)
    induced = {t: induced_separations(totd.td_at[t]) for t in totd.nodes}
    torsos = {
        (t, td_node): torso(totd.graph_at[t], totd.td_at[t], td_node)
        for t in totd.nodes
        for td_node in totd.td_at[t].nodes
    }
    components = {x: g.components(x) for x in closure if x.bit_count() <= depth_max}

    # every node's decomposition uses only separations of order depth+1
    for t in totd.nodes:
        d = totd.depth[t]
        for s in induced[t]:
            if s.order != d + 1:
                raise CertificationError(
                    f"node at depth {d} induces a separation of order {s.order}"
                )

    # each large separator is contained in exactly one torso per depth
    for d in range(depth_max + 1):
        level = [h for (t, _), h in torsos.items() if totd.depth[t] == d]
        for x in closure:
            if x.bit_count() >= d + 2:
                hits = sum(1 for h in level if not x & ~h.vertices)
                if hits != 1:
                    raise CertificationError(
                        f"separator {vertices_of(x)} lies in {hits} torsos at depth {d}"
                    )

    # torsos meet at most one component of G - X for small X inside the node
    for t in totd.nodes:
        d = totd.depth[t]
        gt = totd.graph_at[t]
        for x in closure:
            if x.bit_count() > d or x & ~gt.vertices:
                continue
            for td_node in totd.td_at[t].nodes:
                h = torsos[t, td_node]
                met = sum(1 for c in components[x] if c & h.vertices)
                if met > 1:
                    raise CertificationError(
                        f"torso at depth {d} meets {met} components of the "
                        f"complement of {vertices_of(x)}"
                    )

    # children enumerate the torsos
    for t in totd.nodes:
        if totd.depth[t] == depth_max:
            if totd.children[t]:
                raise CertificationError("deepest level must not have children")
            continue
        kids = totd.children[t]
        if len(kids) != len(totd.td_at[t].nodes):
            raise CertificationError(
                f"node has {len(kids)} children but {len(totd.td_at[t].nodes)} torsos"
            )
        for c in kids:
            if totd.graph_at[c] != torsos[t, totd.torso_of[c]]:
                raise CertificationError("child graph is not the stated torso")

    # every profile pair is distinguished efficiently somewhere in the tree
    for dset in distinguishers:
        found = False
        for s in dset.seps:
            for t in totd.nodes:
                vt = totd.graph_at[t].vertices
                ind = canonical(Separation(s.a & vt, s.b & vt))
                if ind in induced[t]:
                    found = True
                    break
            if found:
                break
        if not found:
            raise CertificationError("a profile pair is not distinguished by the tree")
