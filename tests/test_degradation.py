"""Cap/degradation paths, the positive Maroti witness, and dispatcher parity."""

import itertools

import pytest

from taylor_edges.absorption import is_2_absorbing, is_3_absorbing
from taylor_edges.algebra import (
    FiniteAlgebra,
    OperationTable,
    Partition,
    derive_algebra,
    product_algebra,
)
from taylor_edges.axioms import verify_edge_theorems
from taylor_edges.csp import (
    ConsistentMapSet,
    Instance,
    consistent_maps,
    maroti_witness,
)
from taylor_edges.edges import compute_edges
from taylor_edges.errors import CapExceeded, NoCyclicWitness
from taylor_edges.terms import Var, free_algebra, term_apply


def flat_meet3():
    """Three elements, x ^ y = x if x == y else 0: a flat meet semilattice."""
    table = tuple(
        x if x == y else 0 for x, y in itertools.product(range(3), repeat=2)
    )
    return FiniteAlgebra("flatmeet3", 3, (OperationTable("meet", 2, table),))


def projections_only():
    table = tuple(x for x, _, _ in itertools.product(range(2), repeat=3))
    return FiniteAlgebra("proj2", 2, (OperationTable("f", 3, table),))


class TestMarotiPositive:
    def test_flat_meet_has_elimination_witness(self):
        alg = flat_meet3()
        w = maroti_witness(alg)
        assert w is not None
        t = w.term
        for b in range(3):
            section = [t.apply(b, x) for x in range(3)]
            assert len(set(section)) < 3
            assert all(section[section[x]] == section[x] for x in range(3))
        for c in w.permutation_set:
            assert len({t.apply(x, c) for x in range(3)}) == 3
        assert len(w.generated) < 3


class TestDegradation:
    def test_tiny_cap_produces_unknown_edges(self, alg_a1):
        g = compute_edges(alg_a1, cap=2)
        assert g.unknown  # every off-diagonal pair is undecidable at cap 2

    def test_unknown_edges_poison_theorem_checks(self, alg_a1):
        g = compute_edges(alg_a1, cap=2)
        rep = verify_edge_theorems(alg_a1, graph=g)
        assert rep.skipped and not rep.failures

    def test_ternary_absorption_without_cross_check_is_single_method(self, alg_a1):
        # F(3) is incomplete at cap 2, so a "no" from the structural test is
        # not cross-checked either
        assert not free_algebra(alg_a1, 3, cap=2).complete
        dec = is_3_absorbing(alg_a1, frozenset({1}), cap=2)
        assert not dec.absorbing and dec.single_method

    def test_binary_absorption_computes_edges_at_the_callers_cap(self, alg_a1):
        # at cap 2 both F(2) and every edge pair are out of reach
        assert not free_algebra(alg_a1, 2, cap=2).complete
        with pytest.raises(CapExceeded, match="neither absorption method"):
            is_2_absorbing(alg_a1, frozenset({0}), cap=2)

    def test_non_taylor_algebra_rejected(self):
        with pytest.raises(NoCyclicWitness):
            compute_edges(projections_only())


class TestDispatchers:
    def test_derive_algebra_kinds(self, alg_a1, z2):
        sub = derive_algebra(alg_a1, "subalgebra", {1, 2})
        assert sub.size == 2
        quot = derive_algebra(z2, "quotient", Partition.one(2))
        assert quot.size == 1
        prod = derive_algebra(z2, "product", z2)
        assert prod.size == 4 and prod == product_algebra(z2, z2)
        power = derive_algebra(z2, "power", 2)
        assert power.size == 4
        with pytest.raises(ValueError):
            derive_algebra(z2, "mystery", None)

    def test_consistent_maps_dispatch(self, z2):
        inst = Instance.make(
            "eq", [("x", z2), ("y", z2)], [(("x", "y"), {(0, 0), (1, 1)})]
        )
        cm = ConsistentMapSet.identity(inst)
        report = consistent_maps(inst, cm)
        assert report.consistent
        retracted = consistent_maps(inst, cm, apply=True)
        assert retracted.variables == inst.variables

    def test_term_apply_value_and_table(self, semilattice):
        meet = ("meet", Var(0), Var(1))
        assert term_apply(meet, semilattice, (1, 0)) == 0
        op = term_apply(meet, semilattice, arity=2)
        assert op.table == (0, 0, 0, 1)
