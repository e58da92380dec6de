"""Size guards that internal callers set to the algebra's own size, and edge
graphs that build each flavor's sets once."""

import itertools

from taylor_edges.absorption import _audit_transport
from taylor_edges.algebra import FiniteAlgebra, OperationTable
from taylor_edges.catalog import a1
from taylor_edges.edges import compute_edges


def z11_affine() -> FiniteAlgebra:
    """x - y + z over Z_11: simple, so only the trivial congruences."""
    table = tuple((x - y + z) % 11 for x, y, z in itertools.product(range(11), repeat=3))
    return FiniteAlgebra("z11", 11, (OperationTable("f", 3, table),))


def test_transport_audit_runs_above_ten_elements():
    # the congruence lattice is computed at the algebra's own size, so the
    # audit no longer reports False because of the default size guard
    assert _audit_transport(z11_affine(), [], cap=4096)


def test_edge_graph_builds_each_flavor_once():
    graph = compute_edges(a1())
    sets = {
        "as": graph.as_edges,
        "sm": graph.sm_edges,
        "s": graph.as_edges & graph.sm_edges,
        "asm": graph.as_edges | graph.sm_edges,
    }
    for flavor, edges in sets.items():
        assert graph.edges(flavor) == edges
        assert graph.proper(flavor) == {(a, b) for a, b in edges if a != b}
        assert graph.edges(flavor) is graph.edges(flavor)
        assert graph.proper(flavor) is graph.proper(flavor)
    assert graph.s_edges == sets["s"] and graph.asm_edges == sets["asm"]
