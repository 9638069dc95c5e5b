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

def _rooted(m, edges):
    """(order, parent) of one breadth-first walk from node 0 over the nodes
    range(m): order lists every node after its parent, and parent[t] is the
    parent of t (None at the root). None when (m, edges) is not a tree:
    no nodes, not m - 1 edges, an edge off range(m), or not connected."""
    if len(edges) != m - 1 or any(not (0 <= t < m) for e in edges for t in e):
        return None
    adj = [[] for _ in range(m)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [None] * m
    order = [0]
    for t in order:
        for w in adj[t]:
            if w != 0 and parent[w] is None:
                parent[w] = t
                order.append(w)
    return (order, parent) if len(order) == m else None


# ---------------------------------------------------------------------------
# tree-decompositions

@dataclass(frozen=True)
class TreeDecomposition:
    """A tree-decomposition whose node t is index t: `bags[t]` is the
    vertex mask of node t, and `edges` are pairs of node indices."""

    bags: tuple
    edges: tuple

    def to_json(self) -> dict:
        return {
            "nodes": [{"id": t, "bag": list(vertices_of(bag))} for t, bag in enumerate(self.bags)],
            "edges": [list(e) for e in self.edges],
        }


@dataclass
class TdReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_treedecomposition(g: Graph, td: TreeDecomposition) -> TdReport:
    """Check that the tree is a tree, (T1) bags cover V, (T2) every edge
    lies in a bag, and (T3) for t2 on the tree path from t1 to t3, bags[t1]
    ∩ bags[t3] ⊆ bags[t2], in one pass over the bags and one over the tree
    edges. A (T3) violation names a vertex whose bags are not connected.

    Per vertex v, near[v] is the union of the bags holding v, and count[v]
    is their number.

    (T2) An edge uv lies in some bag iff v ∈ near[u], since that union
    holds v iff one of its bags, each holding u, holds v.

    (T3) holds iff for every v the set N_v of nodes whose bags hold v is
    connected in the tree: paths in a tree are unique, so N_v is connected
    iff it holds the path between any two of its nodes. Lemma: in a tree,
    a set N of j nodes is connected iff exactly j − 1 tree edges join two
    nodes of N. Proof: those edges form a subgraph of a tree, so a forest,
    and a forest on j nodes with e edges has j − e components. So (T3)
    fails at v iff count[v], less the tree edges whose two bags both hold
    v, is above 1.
    """
    rep = TdReport()
    if _rooted(len(td.bags), td.edges) is None:
        rep.violations.append(("tree", "decomposition tree is not a tree"))
        return rep
    cover = 0
    near, count = {}, {}
    for bag in td.bags:
        cover |= bag
        for v in iter_bits(bag):
            near[v] = near.get(v, 0) | bag
            count[v] = count.get(v, 0) + 1
    if cover != g.vertices:
        rep.violations.append(("T1", f"vertices {vertices_of(g.vertices & ~cover)} uncovered"))
    for u, v in g.edges():
        if not near.get(u, 0) >> v & 1:
            rep.violations.append(("T2", f"edge ({u},{v}) in no bag"))
    for t1, t2 in td.edges:
        for v in iter_bits(td.bags[t1] & td.bags[t2]):
            count[v] -= 1
    rep.violations += [("T3", v) for v in sorted(count) if count[v] > 1]
    return rep


def induced_separations(td: TreeDecomposition) -> tuple[Separation, ...]:
    """The separations induced by the decomposition: one per tree edge, the
    unions of bags on the two sides, from one rooted walk.

    Root the tree at node 0, and let D(t) be the subtree below t, t
    included. The edge from t to its parent induces (above[t], below[t]),
    the unions of the bags off and on D(t). below is taken bottom-up:
    below[t] is bags[t] with below[c] for every child c. above is taken
    top-down by the outside-union identity: for a node p with children
    c_1, ..., c_m, D(p) is the disjoint union of {p} and the D(c_j), so the
    nodes off D(c_i) are those off D(p), p itself, and the D(c_j) with
    j ≠ i. Hence above[c_i] = above[p] ∪ bags[p] ∪ below[c_1] ∪ ... ∪
    below[c_{i-1}] ∪ below[c_{i+1}] ∪ ... ∪ below[c_m], with above[root]
    empty: a prefix and a suffix OR over the children. The identity is
    about node sets alone, so the walk is exact on any tree, whether or not
    (T3) holds.
    """
    rooted = _rooted(len(td.bags), td.edges)
    if rooted is None:
        raise PreconditionError("decomposition tree is not a tree")
    order, parent = rooted
    below = list(td.bags)
    children = [[] for _ in order]
    for t in reversed(order[1:]):
        below[parent[t]] |= below[t]
        children[parent[t]].append(t)
    above = [0] * len(order)
    for p in order:
        kids = children[p]
        suffix = [0] * (len(kids) + 1)
        for i in range(len(kids) - 1, -1, -1):
            suffix[i] = suffix[i + 1] | below[kids[i]]
        prefix = above[p] | td.bags[p]
        for i, c in enumerate(kids):
            above[c] = prefix | suffix[i + 1]
            prefix |= below[c]
    out = {canonical(Separation(above[t], below[t])) for t in order[1:]}
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

    index = {o: t for t, o in enumerate(orientations)}
    edges = tuple(sorted((index[u], index[v]) for u, v in ends))

    bags = [g.vertices] * (m + 1)
    for (u, v), (x, x_star) in zip(ends, oriented):
        bags[index[u]] &= x.b
        bags[index[v]] &= x_star.b
    td = TreeDecomposition(tuple(bags), edges)

    rep = verify_treedecomposition(g, td)
    if not rep.ok:
        raise CertificationError(f"constructed decomposition invalid: {rep.violations[:3]}")
    if set(induced_separations(td)) != set(seps):
        raise CertificationError("induced separations differ from the input tree set")
    return td


def torso(g: Graph, td: TreeDecomposition, node: int) -> Graph:
    """Bag subgraph with every adhesion set (bag ∩ neighbour bag) completed."""
    if not 0 <= node < len(td.bags):
        raise PreconditionError(f"no node {node!r} in a decomposition of {len(td.bags)} nodes")
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

@dataclass(frozen=True)
class TreeOfTreeDecompositions:
    """A node of the tree of tree-decompositions with the tree below it:
    `graph` is G at the root and a torso below, `td` its decomposition,
    and `children` one subtree per node of `td` while separators remain,
    `children[t]` the one over the torso of node t."""

    graph: Graph
    td: TreeDecomposition
    children: tuple

    def walk(self):
        """(depth, node) for this node, at depth 0, and every node below,
        depth first, each after its parent."""
        yield 0, self
        for child in self.children:
            for d, node in child.walk():
                yield d + 1, node

    def to_json(self) -> dict:
        return {
            "graph": {"vertices": list(vertices_of(self.graph.vertices))},
            "td": self.td.to_json(),
            "torso_of": None,  # at the root; child t is the torso of node t
            "children": [dict(c.to_json(), torso_of=t) for t, c in enumerate(self.children)],
        }


def build_totd(g: Graph, profiles) -> TreeOfTreeDecompositions:
    """Canonical tree of tree-decompositions distinguishing the given
    principal robust profiles. Principality and regularity are checked;
    robustness is the caller's hypothesis. The result is certified by
    `certify_totd` before return.

    The decomposition of a node at depth d uses, inside its graph G_t, the
    separations (C ∪ X, V(G_t)∖C) for subset-closed separators X of size
    d+1 whose removal leaves at least two components. The node has one
    child per torso of that decomposition while separators remain.
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

    def grow(gt, d):
        td = treeset_to_treedecomposition(gt, _level_separations(gt, closure, d + 1))
        children = ()
        if d < k_max:
            children = tuple(grow(torso(gt, td, t), d + 1) for t in range(len(td.bags)))
        return TreeOfTreeDecompositions(gt, td, children)

    totd = grow(g, 0)
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
    nodes = list(totd.walk())
    depth_max = max(d for d, _ in nodes)
    induced = [induced_separations(node.td) for _, node in nodes]
    torsos = [[torso(x.graph, x.td, t) for t in range(len(x.td.bags))] for _, x in nodes]
    components = {x: g.components(x) for x in closure if x.bit_count() <= depth_max}

    # every node's decomposition uses only separations of order depth+1
    for (d, _), ind in zip(nodes, induced):
        for s in ind:
            if s.order != d + 1:
                raise CertificationError(
                    f"node at depth {d} induces a separation of order {s.order}"
                )

    # each large separator is contained in exactly one torso per depth
    for d in range(depth_max + 1):
        level = [h for (e, _), hs in zip(nodes, torsos) if e == d for h in hs]
        for x in closure:
            if x.bit_count() >= d + 2:
                hits = sum(1 for h in level if not x & ~h.vertices)
                if hits != 1:
                    raise CertificationError(
                        f"separator {vertices_of(x)} lies in {hits} torsos at depth {d}"
                    )

    # torsos meet at most one component of G - X for small X inside the node
    for (d, node), hs in zip(nodes, torsos):
        for x in closure:
            if x.bit_count() > d or x & ~node.graph.vertices:
                continue
            for h in hs:
                met = sum(1 for c in components[x] if c & h.vertices)
                if met > 1:
                    raise CertificationError(
                        f"torso at depth {d} meets {met} components of the "
                        f"complement of {vertices_of(x)}"
                    )

    # child t is the torso of node t; the deepest nodes have no children,
    # as their children would be deeper
    for (d, node), hs in zip(nodes, torsos):
        if d == depth_max:
            continue
        if len(node.children) != len(hs):
            raise CertificationError(
                f"node has {len(node.children)} children but {len(hs)} torsos"
            )
        for c, h in zip(node.children, hs):
            if c.graph != h:
                raise CertificationError("child graph is not the stated torso")

    # every profile pair is distinguished efficiently somewhere in the tree
    for dset in distinguishers:
        if not any(
            canonical(Separation(s.a & node.graph.vertices, s.b & node.graph.vertices)) in ind
            for s in dset.seps
            for (_, node), ind in zip(nodes, induced)
        ):
            raise CertificationError("a profile pair is not distinguished by the tree")
