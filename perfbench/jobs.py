"""Workloads, pinned caps and seeded job streams.

A job is one CLI verb run on one relabelled graph file at one k. A workload
is a fixed list of (graph, k) inputs and verbs; one *pass* runs every verb on
every graph once. Each job gets its own relabelling, drawn from the workload
seed, so the program only ever sees generated graph files and the same seed
reproduces the same job list.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# Caps pinned for every job through TANGLEFORGE_CAPS, so that a change of the
# library's default caps cannot change which jobs run. max_sk covers |S_3| = 50
# of FIX_GRID33, |S_3| = 149 and |S_4| = 887 of doubled_bridge_ring.
CAPS = {
    "max_n": 16,
    "max_k": 6,
    "max_sk": 1024,
    "profinite_union": 12,
    "profinite_product": 1_000_000,
}

FIXTURE_VERBS = (
    "separations",
    "profiles",
    "distinguish",
    "splinter",
    "thin-splinter",
    "nested-separators",
    "nested-separations",
    "treedec",
    "totd",
)

# k of each fixture is its PIPELINE_K in tangleforge.verify
FIXTURE_INPUTS = (("FIX_P4", 2), ("FIX_C4", 2), ("FIX_2K4", 2), ("FIX_GRID33", 3), ("FIX_2K2", 1))

# attempts at drawing a relabelling of a graph not yet used in the process;
# tiny graphs (FIX_C4, FIX_2K2) have only three distinct labelled copies
FRESH_DRAWS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple  # (graph name, k) pairs
    verbs: tuple
    why: str
    # percentile reported as job_tail_s: the highest with at least ten jobs
    # beyond it in every 25 s run of the baseline
    tail_pct: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixture_verbs",
            FIXTURE_INPUTS,
            FIXTURE_VERBS,
            "many short jobs: per-call CLI cost, repeated stage work and small-input set-up dominate",
            95,
        ),
        Workload(
            "ring_decompose",
            (("triangle_ring3", 3),),
            ("nested-separations", "totd"),
            "ring of three triangles at k=3: the thin-splinter check and the flag scans do real work in every job",
            85,
        ),
        Workload(
            "deep_profile_search",
            (("doubled_bridge_ring", 3),),
            ("distinguish",),
            "the profile search takes over 90% of the job; no flags and no separator stage run",
            70,
        ),
        Workload(
            "profinite_demo",
            (("lollipop", 2),),
            ("profinite-splinter",),
            "inverse-system validation takes over 90% of the job; every other layer is near idle",
            70,
        ),
    )
}


def triangle_ring3() -> tuple:
    """(n, edges) of three triangles joined into a ring by bridges, the
    three-triangle sibling of tangleforge.fixtures.triangle_ring()."""
    edges = []
    for i in range(3):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (a, c)]
    edges += [(2, 3), (5, 6), (8, 0)]
    return 9, edges


def lollipop() -> tuple:
    """(n, edges) of a triangle on {0, 1, 2} with the path 2-3-4-5 hanging
    off it: 360 labelled copies, three inverse limits at k=2."""
    return 6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]


def build_graphs(fixtures_module) -> dict:
    """Graph name -> (n, edges) for every graph a workload uses, built from
    the given tangleforge.fixtures module and the two graphs above."""
    graphs = {name: fx.graph for name, fx in fixtures_module.FIXTURES.items()}
    graphs["doubled_bridge_ring"] = fixtures_module.doubled_bridge_ring()
    built = {name: (g.n, g.edges()) for name, g in graphs.items()}
    built["triangle_ring3"] = triangle_ring3()
    built["lollipop"] = lollipop()
    return built


@dataclass(frozen=True)
class Job:
    verb: str
    graph: str
    k: int
    path: str

    @property
    def key(self) -> str:
        return f"{self.graph}|{self.verb}|{self.k}"

    def argv(self) -> list:
        return [self.verb, "--graph", self.path, "--k", str(self.k)]


def relabel(edges, perm) -> tuple:
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


class JobStream:
    """Seeded passes of jobs, each with a fresh relabelled graph file.

    A labelled graph is used once per process, whatever the verb, while an
    unused labelling is left; `repeats` counts the jobs that had to reuse one.
    """

    def __init__(self, workload: Workload, seed: int, graphs: dict, workdir: str, identity=False):
        self.workload = workload
        self.graphs = graphs
        self.workdir = workdir
        self.identity = identity
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.used = set()
        self.repeats = 0
        self.passes = 0

    def _draw(self, graph):
        n, edges = self.graphs[graph]
        if self.identity:
            return n, relabel(edges, range(n))
        for _ in range(FRESH_DRAWS):
            perm = list(range(n))
            self.rng.shuffle(perm)
            new = relabel(edges, perm)
            if (graph, new) not in self.used:
                self.used.add((graph, new))
                return n, new
        self.repeats += 1
        return n, new

    def next_pass(self) -> list:
        jobs = []
        for graph, k in self.workload.inputs:
            for verb in self.workload.verbs:
                n, edges = self._draw(graph)
                path = os.path.join(self.workdir, f"{self.passes}_{len(jobs)}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"n": n, "edges": [list(e) for e in edges]}, fh)
                jobs.append(Job(verb, graph, k, path))
        self.passes += 1
        return jobs
