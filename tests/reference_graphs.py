"""Strong components and reachability as they stood before the edge graphs
read every question off one reachability relation, kept as the reference that
`test_reachability.py` compares the library with.

`strongly_connected_components` is an iterative Tarjan; `component_analysis`
derives sinks and sources from the condensation; `reachable` and
`_s_ancestors` search the edge set.  The library must return the same
components (in the same order), sinks, sources, x-min and weak components, and
the same reachable and ancestor sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from taylor_edges.algebra import Partition
from taylor_edges.edges import Edge, EdgeGraph


@dataclass(frozen=True)
class ComponentDecomposition:
    flavor: str
    components: tuple[tuple[int, ...], ...]      # each sorted; ordered by least element
    condensation: frozenset[tuple[int, int]]     # edges between component indices
    sinks: frozenset[int]                        # component indices without out-edges
    sources: frozenset[int]                      # component indices without in-edges
    x_min: frozenset[int]                        # union of sink components
    weak_components: tuple[tuple[int, ...], ...]

    def is_weakly_connected(self) -> bool:
        return len(self.weak_components) <= 1


def strongly_connected_components(n: int, edges: frozenset[Edge]) -> list[list[int]]:
    """Iterative Tarjan; components returned sorted by least element."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in sorted(edges):
        if a != b:
            adj[a].append(b)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def component_analysis(graph: EdgeGraph, flavor: str) -> ComponentDecomposition:
    """Strong components, condensation, sinks/sources, x-min, weak components.

    Loops are ignored; component numbering is by least contained element.
    """
    n = graph.algebra.size
    edges = graph.proper(flavor)
    comps = strongly_connected_components(n, edges)
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    cond = frozenset(
        (comp_of[a], comp_of[b]) for a, b in edges if comp_of[a] != comp_of[b]
    )
    sinks = frozenset(i for i in range(len(comps)) if not any(x == i for x, _ in cond))
    sources = frozenset(i for i in range(len(comps)) if not any(y == i for _, y in cond))
    x_min = frozenset(v for i in sinks for v in comps[i])

    weak_comps = tuple(map(tuple, Partition.from_pairs(n, edges).blocks()))

    return ComponentDecomposition(
        flavor,
        tuple(tuple(c) for c in comps),
        cond,
        sinks,
        sources,
        x_min,
        weak_comps,
    )


def reachable(edges: frozenset[Edge], start: int) -> frozenset[int]:
    seen = {start}
    work = [start]
    while work:
        v = work.pop()
        for a, b in edges:
            if a == v and b not in seen and a != b:
                seen.add(b)
                work.append(b)
    return frozenset(seen)


def _s_ancestors(graph: EdgeGraph, target: int) -> frozenset[int]:
    rev = frozenset((b, a) for a, b in graph.proper("s"))
    return reachable(rev, target)
