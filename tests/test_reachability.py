"""Edge-graph reachability against its reference implementation.

`reference_graphs` holds strong components, sinks and sources as an iterative
Tarjan with a condensation, and `reachable` / `_s_ancestors` as edge searches.
The library reads all of them off one reach mask per vertex; it must give the
same components in the same order, the same sinks, sources, x-min and weak
components, the same reachable and ancestor sets, and the same certificates
from `shift_tolerance_chain`.
"""

from __future__ import annotations

import itertools
import random

import pytest

import reference_graphs
from taylor_edges.algebra import BinaryRelation, FiniteAlgebra, OperationTable
from taylor_edges.catalog import a1, builtin_algebras
from taylor_edges.edges import (
    EdgeGraph,
    _s_ancestors,
    component_analysis,
    compute_edges,
    reachable,
    shift_tolerance_chain,
)
from taylor_edges.terms import universal_meet

FLAVORS = ("as", "sm", "s", "asm")


def assert_graph_matches_reference(graph: EdgeGraph) -> None:
    n = graph.algebra.size
    for flavor in FLAVORS:
        got = component_analysis(graph, flavor)
        want = reference_graphs.component_analysis(graph, flavor)
        assert got.components == want.components, flavor
        assert got.sinks == want.sinks, flavor
        assert got.sources == want.sources, flavor
        assert got.x_min == want.x_min, flavor
        assert got.weak_components == want.weak_components, flavor
        for edges in (graph.edges(flavor), graph.proper(flavor)):
            for v in range(n):
                assert reachable(edges, v) == reference_graphs.reachable(edges, v), (flavor, v)
    for v in range(n):
        assert _s_ancestors(graph, v) == reference_graphs._s_ancestors(graph, v), v


def test_catalog_graphs_match_reference(full_catalog):
    # every built-in algebra and every member of the two HS closures
    for alg in list(builtin_algebras().values()) + list(full_catalog):
        assert_graph_matches_reference(compute_edges(alg))


def blank_algebra(n: int) -> FiniteAlgebra:
    """An n-element algebra (a binary projection) to carry a given graph."""
    table = tuple(x for x in range(n) for _ in range(n))
    return FiniteAlgebra(f"blank{n}", n, (OperationTable("p", 2, table),))


def random_graph(rng: random.Random, alg: FiniteAlgebra) -> EdgeGraph:
    """as and sm drawn independently, so the four flavors differ."""
    pairs = list(itertools.product(range(alg.size), repeat=2))
    p_as, p_sm = rng.choice((0.1, 0.25, 0.5)), rng.choice((0.1, 0.25, 0.5))
    as_edges = [e for e in pairs if rng.random() < p_as]
    sm_edges = [e for e in pairs if rng.random() < p_sm]
    return EdgeGraph(alg, frozenset(as_edges), frozenset(sm_edges), frozenset(), ())


@pytest.mark.parametrize("n", range(1, 13))
def test_random_digraphs_match_reference(n):
    alg = blank_algebra(n)
    loops = frozenset((v, v) for v in range(n))
    every = frozenset(itertools.product(range(n), repeat=2))
    for as_edges, sm_edges in [
        (frozenset(), frozenset()),
        (loops, loops),
        (every, every),
        (every, loops),
    ]:
        assert_graph_matches_reference(EdgeGraph(alg, as_edges, sm_edges, frozenset(), ()))
    rng = random.Random(n)
    for _ in range(30):
        assert_graph_matches_reference(random_graph(rng, alg))


def test_shift_certificates_match_reference():
    # random s-graphs on A1 with the full tolerance: the shifted chain need not
    # lie above the original one, so both certificate values occur
    alg = a1()
    n = alg.size
    meet = universal_meet(alg)
    tol = BinaryRelation.full(n, n)
    rng = random.Random(26)
    seen = set()
    for _ in range(300):
        graph = random_graph(rng, alg)
        s_edges = sorted(graph.proper("s"))
        chain = tuple(rng.randrange(n) for _ in range(rng.randint(1, 4)))
        i = rng.randrange(len(chain))
        path = [chain[i]]
        for _ in range(rng.randint(0, 3)):
            outs = [b for a, b in s_edges if a == path[-1]]
            if not outs:
                break
            path.append(rng.choice(outs))
        out = shift_tolerance_chain(alg, tol, chain, i, tuple(path), meet, graph=graph)
        want = all(
            chain[j] in reference_graphs._s_ancestors(graph, out.chain[j])
            for j in range(len(chain))
        )
        assert out.s_reachable_certified == want
        seen.add(want)
    assert seen == {True, False}
