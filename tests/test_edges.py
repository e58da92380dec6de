import itertools

import numpy as np
import pytest

from taylor_edges.algebra import (
    BinaryRelation,
    generate_subproduct,
    induced_subalgebra,
    quotient_algebra,
    sg_closure,
)
from taylor_edges.congruences import congruences, homomorphisms_between
from taylor_edges.edges import (
    EdgeGraph,
    component_analysis,
    compute_edges,
    is_x_closed,
    s_path_between,
    shift_tolerance_chain,
)
from taylor_edges.errors import CapExceeded, PreconditionViolated
from taylor_edges.terms import universal_meet


class TestTwoElementEdges:
    def test_z2_as_both_directions_sm_empty(self, z2):
        g = compute_edges(z2)
        assert g.proper("as") == {(0, 1), (1, 0)}
        assert g.proper("sm") == set()
        assert g.unknown == frozenset()

    def test_majority_sm_both_directions_as_empty(self, majority):
        g = compute_edges(majority)
        assert g.proper("sm") == {(0, 1), (1, 0)}
        assert g.proper("as") == set()

    def test_semilattice_single_s_edge(self, semilattice):
        g = compute_edges(semilattice)
        assert g.proper("s") == {(1, 0)}
        assert g.proper("asm") == {(1, 0)}  # no reverse edge of any flavor


class TestA1Edges:
    def test_exact_edge_sets(self, alg_a1):
        g = compute_edges(alg_a1)
        expected_s = {(x, 0) for x in (1, 2, 3)}
        expected_as = expected_s | {
            (i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j
        }
        assert g.proper("s") == expected_s
        assert g.proper("sm") == expected_s
        assert g.proper("as") == expected_as
        # nothing leaves 0
        assert not any(a == 0 for a, _ in g.proper("asm"))

    def test_provenance_records_arity_three(self, alg_a1):
        g = compute_edges(alg_a1)
        assert all(arities == (3,) for _, arities in g.arities_by_pair)

    def test_loops_present_but_not_proper(self, alg_a1):
        g = compute_edges(alg_a1)
        for a in range(4):
            assert (a, a) in g.as_edges and (a, a) in g.sm_edges


class TestLocality:
    def test_edges_match_induced_subalgebra(self, full_catalog):
        # edges of (a, b) in alg equal the edges computed inside Sg(a, b)
        for alg in full_catalog:
            g = compute_edges(alg)
            for a, b in itertools.permutations(range(alg.size), 2):
                sub_set = sg_closure(alg, {a, b})
                sub = induced_subalgebra(alg, sub_set)
                elems = sorted(sub_set)
                ia, ib = elems.index(a), elems.index(b)
                sub_g = compute_edges(sub)
                assert ((a, b) in g.as_edges) == ((ia, ib) in sub_g.as_edges)
                assert ((a, b) in g.sm_edges) == ((ia, ib) in sub_g.sm_edges)

    def test_quotient_edges_contain_images(self, full_catalog):
        for alg in full_catalog:
            g = compute_edges(alg)
            for theta in congruences(alg).all_congruences:
                if theta.is_zero():
                    continue
                quot = quotient_algebra(alg, theta)
                gq = compute_edges(quot)
                for a, b in g.proper("as"):
                    assert (theta.blocks_of[a], theta.blocks_of[b]) in gq.as_edges
                for a, b in g.proper("sm"):
                    assert (theta.blocks_of[a], theta.blocks_of[b]) in gq.sm_edges

    def test_homomorphisms_are_graph_homomorphisms(self, ternary_template):
        for src in ternary_template.members:
            g_src = compute_edges(src)
            for dst in ternary_template.members:
                g_dst = compute_edges(dst)
                for h in homomorphisms_between(src, dst):
                    for a, b in g_src.proper("as"):
                        assert (h(a), h(b)) in g_dst.as_edges
                    for a, b in g_src.proper("sm"):
                        assert (h(a), h(b)) in g_dst.sm_edges


class TestAntisymmetry:
    def test_noedge_on_catalog(self, full_catalog):
        for alg in full_catalog:
            g = compute_edges(alg)
            asm = g.proper("asm")
            for a, b in g.proper("s"):
                assert (b, a) not in asm


class TestComponents:
    def test_a1_asm(self, alg_a1):
        comp = component_analysis(compute_edges(alg_a1), "asm")
        assert comp.components == ((0,), (1, 2, 3))
        assert comp.sinks == frozenset({0})
        assert comp.x_min == frozenset({0})
        assert comp.is_weakly_connected()
        source_comps = [comp.components[i] for i in comp.sources]
        assert source_comps == [(1, 2, 3)]

    def test_a1_s_min(self, alg_a1):
        comp = component_analysis(compute_edges(alg_a1), "s")
        assert comp.x_min == frozenset({0})

    def test_edgeless_graph(self, alg_a1):
        loops = frozenset((a, a) for a in range(4))
        g = EdgeGraph(alg_a1, loops, loops, frozenset(), ())
        comp = component_analysis(g, "asm")
        assert comp.components == ((0,), (1,), (2,), (3,))
        assert comp.sinks == frozenset({0, 1, 2, 3})
        assert comp.x_min == frozenset({0, 1, 2, 3})
        assert len(comp.weak_components) == 4

    def test_x_min_closed_and_reachable(self, full_catalog):
        for alg in full_catalog:
            g = compute_edges(alg)
            for flavor in ("s", "as", "sm", "asm"):
                comp = component_analysis(g, flavor)
                assert is_x_closed(g, flavor, comp.x_min)
                edges = g.proper(flavor)
                for a in range(alg.size):
                    seen, work = {a}, [a]
                    while work:
                        v = work.pop()
                        for x, y in edges:
                            if x == v and y not in seen:
                                seen.add(y)
                                work.append(y)
                    assert seen & comp.x_min


class TestShiftToleranceChain:
    def test_trivial_path_returns_chain(self, semilattice):
        tol = BinaryRelation.full(2, 2)
        meet = universal_meet(semilattice)
        out = shift_tolerance_chain(
            semilattice, tol, (1, 1), 0, (1,), meet
        )
        assert out.chain == (1, 1)
        assert out.s_reachable_certified and out.tolerance_certified

    def test_semilattice_full_tolerance_shift(self, semilattice):
        tol = BinaryRelation.full(2, 2)
        meet = universal_meet(semilattice)
        out = shift_tolerance_chain(semilattice, tol, (1, 1), 0, (1, 0), meet)
        assert out.chain == (0, 0)
        assert out.s_reachable_certified and out.tolerance_certified

    def test_single_element_chain(self, alg_a1):
        tol = BinaryRelation.from_pairs(4, 4, [(a, a) for a in range(4)])
        meet = universal_meet(alg_a1)
        out = shift_tolerance_chain(alg_a1, tol, (1,), 0, (1, 0), meet)
        assert out.chain == (0,)

    def test_undecided_step_names_the_cap(self, alg_a1):
        # at cap 2 the cyclic search of every proper pair of A1 is incomplete,
        # so (1, 0) is unknown, not a missing s-edge
        graph = compute_edges(alg_a1, cap=2)
        assert (1, 0) in graph.unknown
        tol = BinaryRelation.from_pairs(4, 4, [(a, a) for a in range(4)])
        meet = universal_meet(alg_a1)
        with pytest.raises(CapExceeded, match=r"\(1,0\) is undecided.*cap"):
            shift_tolerance_chain(alg_a1, tol, (1,), 0, (1, 0), meet, graph=graph)

    def test_rejects_empty_s_path(self, alg_a1):
        # an empty s-path does not start at the chain entry either
        meet = universal_meet(alg_a1)
        with pytest.raises(PreconditionViolated, match="s-path must start"):
            shift_tolerance_chain(alg_a1, BinaryRelation.full(4, 4), (1,), 0, (), meet)

    def test_rejects_non_tolerance(self, z2):
        meet = universal_meet(z2)
        not_refl = BinaryRelation.from_pairs(2, 2, [(0, 0)])
        with pytest.raises(PreconditionViolated):
            shift_tolerance_chain(z2, not_refl, (0, 0), 0, (0,), meet)

    def test_rejects_chain_outside_tolerance(self, semilattice):
        meet = universal_meet(semilattice)
        diag = BinaryRelation.from_pairs(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(PreconditionViolated):
            shift_tolerance_chain(semilattice, diag, (0, 1), 0, (0,), meet)

    def test_rejects_non_s_path(self, semilattice):
        meet = universal_meet(semilattice)
        tol = BinaryRelation.full(2, 2)
        with pytest.raises(PreconditionViolated):
            shift_tolerance_chain(semilattice, tol, (0, 0), 0, (0, 1), meet)

    def test_random_triples_postconditions(self, full_catalog):
        # seeded random (tolerance, chain, s-path) triples per algebra
        rng = np.random.default_rng(2024)
        for alg in full_catalog:
            if alg.size < 2:
                continue
            n = alg.size
            graph = compute_edges(alg)
            meet = universal_meet(alg)
            s_edges = sorted(graph.proper("s"))
            for _ in range(25):
                seeds = {(int(rng.integers(n)), int(rng.integers(n)))}
                seeds |= {(b, a) for a, b in seeds} | {(a, a) for a in range(n)}
                rows = generate_subproduct([alg, alg], sorted(seeds))
                tol = BinaryRelation.from_pairs(n, n, rows)
                pairs = sorted(tol.pairs)
                chain = [int(rng.integers(n))]
                for _ in range(int(rng.integers(0, 4))):
                    nexts = [b for a, b in pairs if a == chain[-1]]
                    chain.append(nexts[int(rng.integers(len(nexts)))])
                i = int(rng.integers(len(chain)))
                path = [chain[i]]
                for _ in range(int(rng.integers(0, 3))):
                    outs = [b for a, b in s_edges if a == path[-1]]
                    if not outs:
                        break
                    path.append(outs[int(rng.integers(len(outs)))])
                out = shift_tolerance_chain(
                    alg, tol, tuple(chain), i, tuple(path), meet, graph=graph
                )
                assert out.s_reachable_certified
                assert out.tolerance_certified
                assert out.chain[i] == path[-1]


class TestSPath:
    def test_path_exists_in_a1(self, alg_a1):
        g = compute_edges(alg_a1)
        assert s_path_between(g, 1, 0) == [1, 0]
        assert s_path_between(g, 1, 1) == [1]
        assert s_path_between(g, 0, 1) is None
