"""Finite separation universes over graphs, plus the abstract universe contract.

Vertex sets are bit masks over 0..n-1. An oriented separation of a graph G is
a pair (A, B) of vertex sets with A ∪ B = V(G) and no edge between A∖B and
B∖A; its order is |A ∩ B|. Separations form a lattice under

    (A,B) ≤ (C,D)  iff  A ⊆ C and B ⊇ D
    (A,B) ∨ (C,D) = (A ∪ C, B ∩ D)
    (A,B) ∧ (C,D) = (A ∩ C, B ∪ D)

with the order-reversing involution (A,B) ↦ (B,A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import CapExceededError, InputError, PreconditionError


# ---------------------------------------------------------------------------
# bit-mask vertex sets

def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class Graph:
    """Finite simple graph on a subset of {0..n-1}.

    `vertices` is the bit mask of vertices actually present; induced
    subgraphs and torsos keep the labels of the host graph, so n stays fixed
    along a decomposition pipeline.
    """

    n: int
    adj: tuple[int, ...]
    vertices: int = -1

    def __post_init__(self):
        if self.vertices == -1:
            object.__setattr__(self, "vertices", (1 << self.n) - 1)
        if len(self.adj) != self.n:
            raise InputError("adjacency table length must equal n")
        for v in range(self.n):
            row = self.adj[v]
            if row >> v & 1:
                raise InputError(f"self-loop at vertex {v}")
            if row & ~self.vertices:
                raise InputError(f"adjacency of {v} leaves the vertex set")
            if not (1 << v) & self.vertices and row:
                raise InputError(f"absent vertex {v} has neighbours")
            for w in iter_bits(row):
                if not self.adj[w] >> v & 1:
                    raise InputError(f"adjacency not symmetric at {v},{w}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @property
    def num_vertices(self) -> int:
        return self.vertices.bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v)
            for u in iter_bits(self.vertices)
            for v in iter_bits(self.adj[u])
            if u < v
        )

    def neighbours(self, mask: int) -> int:
        out = 0
        for v in iter_bits(mask & self.vertices):
            out |= self.adj[v]
        return out & ~mask & self.vertices

    def components(self, removed: int = 0) -> tuple[int, ...]:
        """Connected components of G - removed, as masks, in the order of
        their least vertices. Each grows by the neighbourhood of its newest
        layer of vertices until it stops."""
        adj = self.adj
        comps = []
        todo = self.vertices & ~removed
        while todo:
            comp = layer = todo & -todo
            while layer:
                reach = 0
                while layer:
                    low = layer & -layer
                    reach |= adj[low.bit_length() - 1]
                    layer ^= low
                layer = reach & todo & ~comp
                comp |= layer
            comps.append(comp)
            todo &= ~comp
        return tuple(comps)

    def components_each(self, xs: list) -> list:
        """`[self.components(x) for x in xs]`, where one bit-parallel search
        over every x decides which G − x are connected, and `components`
        runs only on the others.

        The search is a multi-source breadth-first search run bit-parallel
        (Then et al., "The More the Merrier: Efficient Multi-Source Graph
        Traversal", PVLDB 2014). Bit i of a per-vertex int stands for
        X_i = xs[i]: `live[v]` holds the i with v ∉ X_i, and `reach[v]`
        starts as the i whose seed, the least vertex outside X_i, is v.
        Sweeps up the vertex list and back down set reach[v] to (reach[v] |
        reach[w] for every neighbour w) & live[v], until a sweep changes
        nothing. They only add bits, so they end.

        Claim: then bit i of reach[v] is set iff v is reachable from X_i's
        seed s in G − X_i. Only if: at the start only s holds bit i, and an
        update gives it to v only when v ∉ X_i and a neighbour of v holds
        it; so, by induction over the updates, every vertex holding it is
        joined to s by a path in G − X_i. If: a sweep that changes nothing
        leaves reach[v] ⊇ reach[w] & live[v] on every edge vw. Along a path
        s = v_0, ..., v_m = v in G − X_i, v_0 holds bit i, and each v_j holds
        it when v_{j−1} does, as v_j ∉ X_i.

        So G − X_i is connected iff bit i is set at every vertex outside
        X_i; its entry is then (V ∖ X_i,), a single component and so in
        `components`' least-vertex order, or () when X_i ⊇ V."""
        verts, adj = self.vertices, self.adj
        full = (1 << len(xs)) - 1
        held = [0] * self.n  # v -> the i with v ∈ X_i
        for i, x in enumerate(xs):
            x &= verts
            while x:
                low = x & -x
                held[low.bit_length() - 1] |= 1 << i
                x ^= low
        reach = [0] * self.n
        up = []  # (v, live[v], v's neighbours) up the vertex list
        outside = full  # the i with every vertex so far in X_i
        for v in vertices_of(verts):
            reach[v] = outside & ~held[v]
            outside &= held[v]
            up.append((v, full ^ held[v], vertices_of(adj[v])))
        down = up[::-1]
        sweep, changed = up, True
        while changed:
            changed = False
            for v, live, nbrs in sweep:
                r = reach[v]
                for w in nbrs:
                    r |= reach[w]
                r &= live
                if r != reach[v]:
                    reach[v] = r
                    changed = True
            sweep = down if sweep is up else up
        connected = full & ~outside
        for v, live, _ in up:
            connected &= reach[v] | ~live
        out = [(verts & ~x,) for x in xs]
        for i in iter_bits(full & ~connected):
            out[i] = () if outside >> i & 1 else self.components(xs[i])
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def induced(self, mask: int) -> "Graph":
        mask &= self.vertices
        adj = tuple(self.adj[v] & mask if mask >> v & 1 else 0 for v in range(self.n))
        return Graph(self.n, adj, mask)

    def relabelled(self, perm: dict[int, int]) -> "Graph":
        """Apply a vertex permutation (used by equivariance tests)."""
        adj = [0] * self.n
        verts = mask_of(perm[v] for v in iter_bits(self.vertices))
        for v in iter_bits(self.vertices):
            adj[perm[v]] = mask_of(perm[w] for w in iter_bits(self.adj[v]))
        return Graph(self.n, tuple(adj), verts)


# ---------------------------------------------------------------------------
# separations

class Separation(NamedTuple):
    """Oriented separation (a, b); both fields are vertex-set masks."""

    a: int
    b: int

    @property
    def order(self) -> int:
        return (self.a & self.b).bit_count()

    @property
    def separator(self) -> int:
        return self.a & self.b


def leq(x: Separation, y: Separation) -> bool:
    return not (x[0] & ~y[0]) and not (y[1] & ~x[1])


def star(x: Separation) -> Separation:
    return Separation(x[1], x[0])


def join(x: Separation, y: Separation) -> Separation:
    return Separation(x[0] | y[0], x[1] & y[1])


def meet(x: Separation, y: Separation) -> Separation:
    return Separation(x[0] & y[0], x[1] | y[1])


def is_separation(g: Graph, s: Separation) -> bool:
    if (s.a | s.b) != g.vertices:
        return False
    strict_a = s.a & ~s.b
    return not (g.neighbours(strict_a) & s.b & ~s.a)


def canonical(s: Separation) -> Separation:
    """Canonical orientation: the side that is lexicographically least
    (as a sorted vertex tuple) comes first.

    Read off the masks: the sides agree below the lowest bit `low` of
    a ^ b, so the tuples first differ where one side has `low` and the
    other has its next vertex, or has ended. The side holding `low` comes
    first unless the other side has ended there."""
    a, b = s
    low = (a ^ b) & -(a ^ b)
    if not low or (b >= low << 1 if a & low else a < low):
        return s
    return Separation(b, a)


# _REVERSED[i] is the byte i with its eight bits in reverse order
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def sep_sort_key(s: Separation) -> tuple:
    """The total order on separations: by the sorted vertex tuples of the
    canonical orientation's sides, compared lexicographically, and the
    canonical orientation before its inverse.

    Read off the masks. The gap set of S is the set of vertices below
    max(S) missing from S; vertex tuples compare as (gap set, |S|), gap
    sets compared as bit strings read from vertex 0 upward. Let d be the
    lowest vertex of S ^ T, held by S. If T has a vertex above d, both gap
    sets agree below d and only T's holds d, so S comes first either way.
    Otherwise T's tuple is a proper prefix of S's, and S's gap set is T's
    plus the vertices above max(T) missing from S: it is not smaller, and
    when the two are equal, |T| < |S|. Little-endian bytes bit-reversed
    through `_REVERSED` compare as those bit strings whatever their
    widths, since a gap set's last byte is never zero.
    """
    a, b = s
    ga = ((1 << a.bit_length()) - 1 >> 1) & ~a  # the gap sets of a and b
    gb = ((1 << b.bit_length()) - 1 >> 1) & ~b
    key_a = (ga.to_bytes((ga.bit_length() + 7) // 8, "little").translate(_REVERSED), a.bit_count())
    key_b = (gb.to_bytes((gb.bit_length() + 7) // 8, "little").translate(_REVERSED), b.bit_count())
    return (key_a, key_b, False) if key_a <= key_b else (key_b, key_a, True)


def is_nested(r: Separation, s: Separation) -> bool:
    """True iff some orientations of r and s are ≤-comparable."""
    return leq(r, s) or leq(r, star(s)) or leq(star(r), s) or leq(star(r), star(s))


def is_small(x: Separation) -> bool:
    return leq(x, star(x))


def is_tight(g: Graph, s: Separation) -> bool:
    """Both strict sides contain a component C of G - (A∩B) with N(C) = A∩B."""
    x = s.separator
    sides = (s.a & ~s.b, s.b & ~s.a)
    found = [False, False]
    for comp in g.components(x):
        if g.neighbours(comp) != x:
            continue
        for i, side in enumerate(sides):
            if comp & side:
                found[i] = True
    return found[0] and found[1]


# ---------------------------------------------------------------------------
# enumeration

DEFAULT_MAX_N = 16
DEFAULT_MAX_K = 6


def small_separators(g: Graph, k: int) -> dict:
    """The components of G − X for every X ⊆ V(G) with |X| < k, keyed by X
    in the lexicographic order of X's sorted vertex tuple, the walk
    (`_lex_subsets`) that `enumerate_separations` takes over its
    separators, all read from one `Graph.components_each` call; X = V(G),
    with no components, is among them when k > |V(G)|. Empty when k < 1."""
    if k < 1:
        return {}
    xs = _lex_subsets([1 << v for v in vertices_of(g.vertices)], min(k - 1, g.num_vertices))
    return dict(zip(xs, g.components_each(xs)))


def _lex_subsets(bits: list, size: int) -> list:
    """Every union of at most `size` of `bits`, single-bit masks in
    ascending order, listed in the lexicographic order of their sorted
    vertex tuples: ∅, then for each bit b in turn, b joined to each such
    union of at most size − 1 of the bits above b. That is the preorder of
    a walk that extends a set only by bits above its largest one."""
    out = [0]
    if size == 1:
        out += bits
    elif size > 1:
        for j, b in enumerate(bits):
            out += [b | y for y in _lex_subsets(bits[j + 1 :], size - 1)]
    return out


def enumerate_separations(
    g: Graph,
    k: int,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
    max_sk: Optional[int] = None,
) -> tuple[Separation, ...]:
    """All unoriented separations of order < k, canonically oriented and sorted.

    Works separator-first: a separation of order < k is a pair (X, S) of a
    separator X with |X| < k and a choice S of the components of G - X lying
    on the a-side. S and its complement give the same unoriented
    separation, so S ranges over the sets of components that miss the last
    one: X contributes 2^(c − 1) separations for c components, each built
    once, and X = V(G) (no components) contributes (V, V) alone. That count
    is taken from the components before any separation is built, and a
    count above `max_sk` raises CapExceededError.

    S = ∅ gives the trivial separation {X, V}; every other S gives an open
    one, with A ≠ V ≠ B. Only the open separations are sorted: the trivial
    ones come in order from the walk over X.

    Lemma. List V in ascending order. For S ⊊ V, S's sorted tuple is below
    V's iff S is a proper prefix of that list (∅ included). Proof: a proper
    prefix of a tuple is below it. Otherwise S's tuple first differs from
    V's at some position i < |S|; the two agree before i and S ⊆ V, so
    s_i is a vertex of V other than v_0, ..., v_{i−1}, hence s_i > v_i.

    So `canonical` orients a trivial {X, V} as (X, V) when X is a proper
    prefix and as (V, X) otherwise, and `sep_sort_key` order (the first
    side's tuple, then the second side's) is three blocks:

    A. The separations whose first side P is a proper prefix, by |P|, as
       the prefixes' tuples ascend with their length. For each P, the
       trivial (P, V), when |P| < k, comes first, then each open (P, B) by
       `sep_sort_key`: P ∪ B = V with P a proper prefix and B ≠ V, so B is
       no prefix, and its tuple lies above V's.
    B. The first side V: (V, V) when k > |V|, whose second side is the
       least, then every (V, X) with X no prefix and |X| < k, in the
       lexicographic order of X's tuple.
    C. Every other open separation, by `sep_sort_key`: its first side is
       neither V nor a prefix, so its tuple lies above V's.

    The separators X are walked in lexicographic order of their tuples
    (`_lex_subsets`), which lists the prefixes first, as a chain: X = V
    comes right after the prefix of length |V| − 1, and so at position
    |V| when k > |V|. So the first min(k, |V|) separators X are the proper
    prefixes, with their (X, V) in block A, and the rest give block B in
    walk order. Each trivial separation is built in the orientation the
    lemma gives. `canonical` returns a prefix's (X, V) unchanged; block B,
    whose (V, X) the lemma leaves as they are, skips it and is built in
    one pass of `tuple.__new__`, as the profile search turns its (V, X)
    to (X, V). `small_separators`
    takes the same walk. Both read the components of every X from one
    `Graph.components_each` call, which runs `components` only on the X
    that split G, and only those X are kept here. The call's list, one
    entry per X, sets off more collections of the garbage collector's
    youngest generation: in 10 s of perfbench's deep_profile_search on a
    2-core host, 892 in 657 jobs against 255 in 689 with one `components`
    call per X, while the jobs per second still rose by about 9%.
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    n = g.num_vertices
    if n > max_n or k > max_k:
        raise CapExceededError(
            f"enumeration cap exceeded: n={n} (cap {max_n}), k={k} (cap {max_k})"
        )
    verts = g.vertices
    xs = _lex_subsets([1 << v for v in vertices_of(verts)], min(k - 1, n))
    split = [(x, comps) for x, comps in zip(xs, g.components_each(xs)) if len(comps) > 1]
    m = len(xs) + sum(2 ** (len(comps) - 1) - 1 for _, comps in split)
    if max_sk is not None and m > max_sk:
        raise CapExceededError(f"|S_k| = {m} exceeds max_sk {max_sk}")
    p = min(k, n)
    prefixes = [canonical(Separation(x, verts)) for x in xs[:p]]
    block_b = list(map(tuple.__new__, itertools.repeat(Separation), zip(itertools.repeat(verts), xs[p:])))
    opens = []
    for x, comps in split:
        rest = comps[:-1]
        for r in range(1, len(rest) + 1):
            for chosen in itertools.combinations(rest, r):
                a = x
                for c in chosen:
                    a |= c
                opens.append(canonical(Separation(a, verts & ~(a & ~x))))
    opens.sort(key=sep_sort_key)
    # block A: each (P, V), then the open (P, B), which lead the sorted open
    # separations; then those whose first side is a prefix of k or more
    # vertices, a mask holding every vertex of V below its largest
    out, j = [], 0
    for t in prefixes:
        out.append(t)
        while j < len(opens) and opens[j][0] == t[0]:
            out.append(opens[j])
            j += 1
    lead = j
    while lead < len(opens) and opens[lead][0] == verts & (1 << opens[lead][0].bit_length()) - 1:
        lead += 1
    return tuple(out + opens[j:lead] + block_b + opens[lead:])


def all_separations(g: Graph) -> tuple[Separation, ...]:
    """Every unoriented separation of G (any order), canonically oriented.

    Enumerated by assigning each vertex to A-only / B-only / both, skipping
    assignments that put adjacent vertices on opposite strict sides. While
    every vertex so far lies on both sides (a == b), a vertex goes to both
    sides or to A only, never to B only. So each unoriented separation is
    reached once: for (A, B) ≠ (B, A), the first vertex outside A ∩ B lies
    on exactly one strict side, and only the orientation with it in A is
    reached; (V, V) is the one assignment with every vertex on both sides.
    """
    seps = []
    adj = g.adj
    order = vertices_of(g.vertices)

    def rec(i, a, b):
        if i == len(order):
            seps.append(canonical(Separation(a, b)))
            return
        v = order[i]
        bit = 1 << v
        rec(i + 1, a | bit, b | bit)
        if not (adj[v] & b & ~a):
            rec(i + 1, a | bit, b)
        if a != b and not (adj[v] & a & ~b):
            rec(i + 1, a, b | bit)

    rec(0, 0, 0)
    seps.sort(key=sep_sort_key)
    return tuple(seps)


# ---------------------------------------------------------------------------
# the abstract universe contract

@dataclass(frozen=True)
class UniverseView:
    """A finite universe of separations: poset with order-reversing
    involution, lattice operations and an order function.

    Operations must be total on `elements`; `closed` declares whether join
    and meet always land back in `elements` (full graph universes are
    closed, order-truncated views generally are not).
    """

    elements: tuple
    leq: Callable
    star: Callable
    join: Callable
    meet: Callable
    order_of: Callable
    closed: bool = True
    submodular_claimed: bool = True


def graph_universe(g: Graph, max_order: Optional[int] = None) -> UniverseView:
    """The universe of separations of g, optionally truncated to order ≤ max_order.

    The untruncated universe is closed under joins and meets; a truncated one
    is not (the operations still compute the ambient result).

    It is `sorted_universe` of the sorted canonical list: all_separations,
    or enumerate_separations when truncated.
    """
    if max_order is None or max_order >= g.num_vertices:
        return sorted_universe(all_separations(g), closed=True)
    seps = enumerate_separations(g, max_order + 1, max_n=g.num_vertices, max_k=max_order + 1)
    return sorted_universe(seps, closed=False)


def sorted_universe(seps: Iterable[Separation], closed: bool) -> UniverseView:
    """The universe of both orientations of seps, canonical separations
    sorted by sep_sort_key, with the lattice operations of separations. One
    walk lists each s, then s*, except (Z, Z), which is its own star and is
    listed once; by the lemma below, that is sep_sort_key order.

    Lemma. For canonical s ≠ s*, sep_sort_key(s) and sep_sort_key(s*) share
    their first two components, the keys of the two sides in ascending
    order, and differ only in the final flag. That flag is False for s,
    because canonical puts the side with the lesser vertex tuple first and
    the side keys compare as those tuples. Distinct unoriented separations
    differ in those two components. So s* sorts right after s and no other
    separation sorts between them.
    """
    oriented = []
    for s in seps:
        oriented.append(s)
        if s.a != s.b:
            oriented.append(Separation(s.b, s.a))
    return UniverseView(
        elements=tuple(oriented),
        leq=leq,
        star=star,
        join=join,
        meet=meet,
        order_of=lambda s: s.order,
        closed=closed,
        submodular_claimed=True,
    )


def codable(u: UniverseView, elems) -> bool:
    """True when u's star, join and meet are those of separations and
    every one of elems is a Separation with non-negative int masks.

    Such elements are coded as ints: with w at least the bit length of
    every mask involved, (A, B) ↦ A << w | (full & ~B), full = 2^w − 1, is
    injective, join is | and meet is & on the codes."""
    return u.star is star and u.join is join and u.meet is meet and all(
        type(x) is Separation and type(x.a) is int and type(x.b) is int and x.a >= 0 and x.b >= 0
        for x in elems
    )


# ---------------------------------------------------------------------------
# universe verification

@dataclass
class UniverseReport:
    violations: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom: str, detail: str):
        self.violations.append((axiom, detail))


LUB_CAP = 60  # largest universe whose least/greatest-bound property is checked


def verify_universe(u: UniverseView, pair_cap: int = 4_000_000) -> UniverseReport:
    """Exhaustively check the universe axioms on u.

    Checks: involution (self-inverse, order-reversing), order symmetry,
    join/meet upper/lower bound property on every pair, submodularity on
    every pair when claimed, and closure of the operations when declared.
    The least/greatest-bound property is cubic and only checked exhaustively
    when |elements| ≤ LUB_CAP; the report records what ran.
    """
    rep = UniverseReport()
    elems = u.elements
    m = len(elems)
    if m * m > pair_cap:
        raise CapExceededError(f"universe too large for pairwise verification: {m} elements")
    present = set(elems)

    for x in elems:
        sx = u.star(x)
        if sx not in present:
            rep.add("involution", f"star({x}) leaves the universe")
            continue
        if u.star(sx) != x:
            rep.add("involution", f"star(star({x})) != {x}")
        if u.order_of(x) != u.order_of(sx):
            rep.add("order-symmetry", f"|{x}| != |star({x})|")
    for x in elems:
        for y in elems:
            if u.leq(x, y) and not u.leq(u.star(y), u.star(x)):
                rep.add("order-reversal", f"{x} <= {y} but star({y}) !<= star({x})")
    rep.checked["involution"] = m
    rep.checked["order-reversal-pairs"] = m * m

    submod_viol = 0
    for i, x in enumerate(elems):
        for y in elems[i:]:
            j = u.join(x, y)
            mt = u.meet(x, y)
            if u.closed:
                if j not in present:
                    rep.add("closure", f"join({x},{y}) = {j} not in universe")
                if mt not in present:
                    rep.add("closure", f"meet({x},{y}) = {mt} not in universe")
            if not (u.leq(x, j) and u.leq(y, j)):
                rep.add("lattice-bounds", f"join({x},{y}) is not an upper bound")
            if not (u.leq(mt, x) and u.leq(mt, y)):
                rep.add("lattice-bounds", f"meet({x},{y}) is not a lower bound")
            if u.submodular_claimed:
                if u.order_of(x) + u.order_of(y) < u.order_of(j) + u.order_of(mt):
                    submod_viol += 1
                    rep.add("submodularity", f"|{x}|+|{y}| < |join|+|meet|")
    rep.checked["pairs"] = m * (m + 1) // 2
    rep.checked["submodularity-pairs"] = m * (m + 1) // 2 if u.submodular_claimed else 0

    if m <= LUB_CAP:
        for x in elems:
            for y in elems:
                j = u.join(x, y)
                mt = u.meet(x, y)
                for z in elems:
                    if u.leq(x, z) and u.leq(y, z) and not u.leq(j, z):
                        rep.add("lattice-least", f"join({x},{y}) not least: {z}")
                    if u.leq(z, x) and u.leq(z, y) and not u.leq(z, mt):
                        rep.add("lattice-greatest", f"meet({x},{y}) not greatest: {z}")
        rep.checked["least-upper-bound"] = "exhaustive"
    else:
        rep.checked["least-upper-bound"] = f"skipped (> {LUB_CAP} elements)"
    return rep


# ---------------------------------------------------------------------------
# JSON forms

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}
