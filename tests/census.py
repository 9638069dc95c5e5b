"""Every connected graph on at most 7 vertices, one per isomorphism class,
without networkx.

A connected graph on n vertices has a vertex whose removal leaves it
connected (a leaf of a spanning tree), so giving each graph on n - 1
vertices a new vertex with every non-empty neighbourhood reaches every
class on n vertices; `canonical_form` keeps one graph of each, labelled
by its form."""

import functools
import itertools

from tangleforge.core import Graph


def canonical_form(n, edges):
    """The least sorted edge list over the vertex orders that keep the
    colour classes in order, where colours start as degrees and are refined
    by the multiset of the neighbours' colours until no class splits.
    Classes are named by sorting their signatures, so an isomorphism maps
    each class onto the class of the same name, and two graphs get the same
    form iff they are isomorphic."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colour = [len(ns) for ns in nbrs]
    while True:
        sig = [(colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in range(n)]
        names = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [names[s] for s in sig]
        if len(names) == len(set(colour)):
            break
        colour = refined
    classes = [[v for v in range(n) if refined[v] == c] for c in range(len(names))]
    best = None
    for parts in itertools.product(*map(itertools.permutations, classes)):
        pos = {v: i for i, v in enumerate(itertools.chain.from_iterable(parts))}
        form = sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges)
        if best is None or form < best:
            best = form
    return tuple(best)


@functools.cache
def connected_graphs(max_n=7):
    """{n: [Graph, ...]} for n = 1..max_n, one graph per isomorphism class,
    each labelled by its canonical form, sorted by that form."""
    forms = {1: [()]}
    for n in range(2, max_n + 1):
        found = set()
        for edges in forms[n - 1]:
            for r in range(1, n):
                for nbhd in itertools.combinations(range(n - 1), r):
                    found.add(canonical_form(n, edges + tuple((u, n - 1) for u in nbhd)))
        forms[n] = sorted(found)
    return {n: [Graph.from_edges(n, edges) for edges in fs] for n, fs in forms.items()}


def graph6(g):
    """The graph6 string of g (n < 63): chr(63 + n), then the upper
    triangle of the adjacency matrix column by column, six bits a
    character."""
    bits = "".join(str(g.adj[j] >> i & 1) for j in range(1, g.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return chr(63 + g.n) + "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
