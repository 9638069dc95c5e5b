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


def subsets_of_size(mask: int, size: int):
    for combo in itertools.combinations(vertices_of(mask), size):
        yield mask_of(combo)


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
    separation, so X contributes 2^(c − 1) of them for c components, and
    X = V(G) (no components) contributes (V, V) alone. That count is taken
    from the components before any separation is built, and a count above
    `max_sk` raises CapExceededError.
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    if g.num_vertices > max_n or k > max_k:
        raise CapExceededError(
            f"enumeration cap exceeded: n={g.num_vertices} (cap {max_n}), k={k} (cap {max_k})"
        )
    verts = g.vertices
    split = [
        (x, g.components(x))
        for size in range(min(k, g.num_vertices + 1))
        for x in subsets_of_size(verts, size)
    ]
    m = sum(2 ** (len(comps) - 1) if comps else 1 for _, comps in split)
    if max_sk is not None and m > max_sk:
        raise CapExceededError(f"|S_k| = {m} exceeds the profile search cap {max_sk}")
    out = set()
    for x, comps in split:
        for r in range(len(comps) + 1):
            for chosen in itertools.combinations(comps, r):
                a = x
                for c in chosen:
                    a |= c
                b = verts & ~(a & ~x)
                out.add(canonical(Separation(a, b)))
    return tuple(sorted(out, key=sep_sort_key))


def all_separations(g: Graph) -> tuple[Separation, ...]:
    """Every unoriented separation of G (any order), canonically oriented.

    Enumerated by assigning each vertex to A-only / B-only / both, skipping
    assignments that put adjacent vertices on opposite strict sides.
    """
    seps = set()
    adj = g.adj
    order = vertices_of(g.vertices)

    def rec(i, a, b):
        if i == len(order):
            seps.add(canonical(Separation(a, b)))
            return
        v = order[i]
        bit = 1 << v
        rec(i + 1, a | bit, b | bit)
        if not (adj[v] & b & ~a):
            rec(i + 1, a | bit, b)
        if not (adj[v] & a & ~b):
            rec(i + 1, a, b | bit)

    rec(0, 0, 0)
    return tuple(sorted(seps, key=sep_sort_key))


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
    """
    if max_order is None or max_order >= g.num_vertices:
        return separation_universe(all_separations(g), closed=True)
    elems = enumerate_separations(g, max_order + 1, max_n=g.num_vertices, max_k=max_order + 1)
    return separation_universe(elems, closed=False)


def separation_universe(seps: Iterable[Separation], closed: bool) -> UniverseView:
    """The universe of both orientations of the given separations, ordered
    by sep_sort_key, with the lattice operations of separations."""
    oriented = tuple(sorted({s for e in seps for s in (e, star(e))}, key=sep_sort_key))
    return UniverseView(
        elements=oriented,
        leq=leq,
        star=star,
        join=join,
        meet=meet,
        order_of=lambda s: s.order,
        closed=closed,
        submodular_claimed=True,
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

def separation_to_json(s: Separation) -> dict:
    return {"a": list(vertices_of(s.a)), "b": list(vertices_of(s.b)), "order": s.order}


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}
