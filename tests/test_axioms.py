import time

import numpy as np

from taylor_edges.algebra import generate_subproduct
from taylor_edges.axioms import verify_edge_axioms, verify_edge_theorems
from taylor_edges.edges import compute_edges


class TestEdgeAxiomsOnCatalog:
    def test_full_catalog_passes(self, full_catalog):
        rep = verify_edge_axioms(full_catalog)
        assert rep.passed, [c.detail for c in rep.failures]
        assert not rep.skipped

    def test_empty_catalog_vacuously_passes(self):
        rep = verify_edge_axioms([])
        assert rep.passed
        assert rep.checks == ()

    def test_coverage_recorded(self, full_catalog):
        rep = verify_edge_axioms(full_catalog)
        cov = dict(rep.coverage)
        assert cov.get("homomorphisms", 0) > 0
        assert cov.get("relational-axiom-1-instances", 0) > 0
        # every relational instance came from the joint closures
        assert cov.get("relational-joint-rows", 0) > 0
        assert "relational-fallback-instances" not in cov


class TestCorruptionDetection:
    def test_spec_example_added_s_edge_on_z2(self, z2):
        # adding 0 ->s 1 must surface a concrete relational-axiom-1 failure:
        # Sg((0,1),(1,0)) misses (1,1)
        g = compute_edges(z2)
        bad = g.replace(sm_edges=g.sm_edges | {(0, 1)})
        rep = verify_edge_axioms([z2], graphs={z2: bad})
        assert not rep.passed
        names = {c.name for c in rep.failures}
        assert "relational-axiom-1" in names or "stronger-base-axiom-1" in names
        rows = generate_subproduct([z2, z2], [(0, 1), (1, 0)])
        assert (1, 1) not in {tuple(r) for r in rows}

    def test_removed_as_edge_on_z2_hits_base_axiom_1(self, z2):
        g = compute_edges(z2)
        bad = g.replace(as_edges=g.as_edges - {(0, 1)})
        rep = verify_edge_axioms([z2], graphs={z2: bad}, fail_fast=True)
        assert not rep.passed
        assert rep.failures[0].name == "base-axiom-1"

    def test_removed_sm_edge_on_majority_hits_base_axiom_2(self, majority):
        g = compute_edges(majority)
        bad = g.replace(sm_edges=g.sm_edges - {(1, 0)})
        rep = verify_edge_axioms([majority], graphs={majority: bad}, fail_fast=True)
        assert not rep.passed
        assert rep.failures[0].name == "base-axiom-2"

    def test_removed_s_edge_on_semilattice_hits_base_axiom_3(self, semilattice):
        g = compute_edges(semilattice)
        bad = g.replace(sm_edges=g.sm_edges - {(1, 0)})
        rep = verify_edge_axioms([semilattice], graphs={semilattice: bad}, fail_fast=True)
        assert not rep.passed
        assert rep.failures[0].name == "base-axiom-3"

    def test_seeded_single_edge_mutations_all_detected(self, full_catalog):
        # 20 seeded random single-edge toggles; each must yield a concrete
        # counterexample within 10 seconds
        rng = np.random.default_rng(99)
        graphs = {alg: compute_edges(alg) for alg in full_catalog}
        mutable = [a for a in full_catalog if a.size >= 2]
        detected = 0
        for _ in range(20):
            alg = mutable[int(rng.integers(len(mutable)))]
            g = graphs[alg]
            a = int(rng.integers(alg.size))
            b = int(rng.integers(alg.size - 1))
            if b >= a:
                b += 1
            flavor = ("as", "sm")[int(rng.integers(2))]
            edges = g.as_edges if flavor == "as" else g.sm_edges
            toggled = edges ^ {(a, b)}
            bad = g.replace(
                as_edges=toggled if flavor == "as" else None,
                sm_edges=toggled if flavor == "sm" else None,
            )
            start = time.time()
            rep = verify_edge_axioms(
                [alg], graphs={alg: bad}, fail_fast=True
            )
            elapsed = time.time() - start
            assert elapsed < 10.0
            assert not rep.passed, (alg.name, flavor, (a, b))
            assert rep.counterexamples() or rep.failures[0].detail
            detected += 1
        assert detected == 20


class TestEdgeTheorems:
    def test_catalog_theorems_pass(self, full_catalog):
        for alg in full_catalog:
            rep = verify_edge_theorems(alg)
            assert rep.passed, (alg.name, [c.detail for c in rep.failures])

    def test_one_element_vacuous(self, ternary_template):
        triv = next(m for m in ternary_template.members if m.size == 1)
        rep = verify_edge_theorems(triv)
        assert rep.passed

    def test_a1_check_names(self, alg_a1):
        rep = verify_edge_theorems(alg_a1)
        names = {c.name for c in rep.checks}
        assert names == {
            "weak-connectivity",
            "smin-mutually-asm-reachable",
            "asmmin-single-component",
            "noedge-antisymmetry",
            "existsaterm-witness",
            "two-absorption-characterization",
        }

    def test_corrupted_graph_fails_theorems(self, alg_a1):
        g = compute_edges(alg_a1)
        # make 0 point back at 1: breaks noedge antisymmetry
        bad = g.replace(as_edges=g.as_edges | {(0, 1)}, sm_edges=g.sm_edges | {(0, 1)})
        rep = verify_edge_theorems(alg_a1, graph=bad)
        assert not rep.passed
        assert any(c.name == "noedge-antisymmetry" for c in rep.failures)
