"""Built-in graphs used throughout the CLI, the verify harness and the
test suite. Vertices are 0-based everywhere.

Each fixture documents its profile census (total and regular counts per k);
a verify suite regression-locks these against the enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _two_k4():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    edges.append((3, 4))
    return Graph.from_edges(8, edges)


def _grid33():
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    return Graph.from_edges(9, edges)


def _two_k2():
    return Graph.from_edges(4, [(0, 1), (2, 3)])


def triangle_ring(pendant: bool = False) -> Graph:
    """Four triangles joined into a ring by bridges; the smallest graph in
    this collection whose distinguisher families genuinely cross. With
    `pendant`, an extra vertex hangs off vertex 5, creating a non-tight
    component for the {5, 8}-type separators."""
    edges = []
    for i in range(4):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (a, c)]
    edges += [(2, 3), (5, 6), (8, 9), (11, 0)]
    n = 12
    if pendant:
        edges.append((5, 12))
        n = 13
    return Graph.from_edges(n, edges)


def doubled_bridge_ring() -> Graph:
    """Two K5s and two triangles in a ring, the K5-K5 link doubled.

    The K5s carry 4-profiles separated only at order 3, while every other
    pair separates at order 2, so the distinguisher families live on two
    levels and members of different levels cross: the only graph here that
    drives the unequal-order corner search and the cross-level thin
    splinter hypotheses non-vacuously."""
    edges = []
    edges += [(a, b) for a in range(5) for b in range(a + 1, 5)]        # K5 {0..4}
    edges += [(a, b) for a in range(5, 10) for b in range(a + 1, 10)]   # K5 {5..9}
    edges += [(10, 11), (11, 12), (10, 12)]                             # triangle
    edges += [(13, 14), (14, 15), (13, 15)]                             # triangle
    edges += [(3, 5), (4, 6)]                                           # doubled link
    edges += [(9, 10), (12, 13), (15, 0)]
    return Graph.from_edges(16, edges)


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    description: str
    # census[k] = (total profiles, regular profiles); regression-locked
    census: dict


FIXTURES = {
    "FIX_P4": Fixture(
        "FIX_P4",
        _path(4),
        "path on 4 vertices",
        {1: (2, 1), 2: (5, 3), 3: (0, 0), 4: (0, 0)},
    ),
    "FIX_C4": Fixture(
        "FIX_C4",
        _cycle(4),
        "cycle on 4 vertices",
        {1: (2, 1), 2: (5, 1), 3: (0, 0), 4: (0, 0)},
    ),
    "FIX_2K4": Fixture(
        "FIX_2K4",
        _two_k4(),
        "two K4s on {0..3} and {4..7} joined by the edge 3-4",
        {1: (2, 1), 2: (9, 3), 3: (2, 2)},
    ),
    "FIX_GRID33": Fixture(
        "FIX_GRID33",
        _grid33(),
        "3x3 grid, row-major vertex numbering",
        {1: (2, 1), 2: (10, 1), 3: (5, 5)},
    ),
    "FIX_2K2": Fixture(
        "FIX_2K2",
        _two_k2(),
        "two disjoint edges (disconnected)",
        {1: (2, 2), 2: (2, 2), 3: (0, 0), 4: (0, 0)},
    ),
}


# per-fixture profile scope: k values with documented census, and the k used
# for the separator pipeline
PIPELINE_K = {"FIX_P4": 2, "FIX_C4": 2, "FIX_2K4": 2, "FIX_GRID33": 3, "FIX_2K2": 1}


def get_fixture(name: str) -> Fixture:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(sorted(FIXTURES))}")
    return FIXTURES[name]
