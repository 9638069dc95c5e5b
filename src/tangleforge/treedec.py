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
from .errors import CapExceededError, CertificationError, PreconditionError
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


def treeset_to_treedecomposition(
    g: Graph, nested_set, orientation_cap: int = 1 << 18
) -> TreeDecomposition:
    """Realise a regular tree set as a tree-decomposition of g.

    Nodes are the consistent orientations of the set (there are exactly
    |N| + 1 of them); two nodes are adjacent when they differ in a single
    separation. Bags intersect the b-sides of the separations on incident
    edges, oriented as the node orients them. The result is certified:
    (T1)-(T3) hold and the induced separations are exactly the input.
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
    if 1 << m > orientation_cap:
        raise CapExceededError(f"tree set too large for orientation search: {m}")

    def orient(i, o):
        return seps[i] if o == 0 else star(seps[i])

    conflict = {}
    for i in range(m):
        for oi in (0, 1):
            x = orient(i, oi)
            bad = set()
            for j in range(m):
                if j == i:
                    continue
                for oj in (0, 1):
                    y = orient(j, oj)
                    if leq(star(x), y) or leq(star(y), x):
                        bad.add((j, oj))
            conflict[(i, oi)] = bad

    orientations = []
    chosen = [0] * m

    def rec(d, banned):
        if d == m:
            orientations.append(tuple(chosen))
            return
        for o in (0, 1):
            if (d, o) not in banned:
                chosen[d] = o
                rec(d + 1, banned | conflict[(d, o)])

    rec(0, frozenset())
    orientations.sort()
    if len(orientations) != m + 1:
        raise CertificationError(
            f"expected {m + 1} consistent orientations, found {len(orientations)}"
        )

    nodes = tuple(range(len(orientations)))
    edges = []
    flip_of = {}
    for a, b in itertools.combinations(nodes, 2):
        diff = [i for i in range(m) if orientations[a][i] != orientations[b][i]]
        if len(diff) == 1:
            edges.append((a, b))
            flip_of[(a, b)] = diff[0]
    if len(edges) != m or not _is_tree(nodes, tuple(edges)):
        raise CertificationError("orientation graph is not a tree with one edge per separation")

    bags = {}
    for t in nodes:
        bag = g.vertices
        for e, i in flip_of.items():
            if t in e:
                bag &= orient(i, orientations[t][i]).b
        bags[t] = bag
    td = TreeDecomposition(nodes, tuple(edges), bags)

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
