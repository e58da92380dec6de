"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every check here is exact (no numeric tolerances in this domain), and
each criterion carries the time budget it must meet.
"""

import json
import time

import numpy as np

from taylor_edges.absorption import is_2_absorbing, is_3_absorbing
from taylor_edges.algebra import Partition, generate_subproduct
from taylor_edges.axioms import verify_edge_axioms, verify_edge_theorems
from taylor_edges.catalog import builtin_algebras
from taylor_edges.cli import main
from taylor_edges.congruences import centralizer_condition, congruences, unary_polynomials
from taylor_edges.csp import (
    ConsistentMapSet,
    brute_force_solve,
    check_consistent_maps,
    kl_minimize,
    largecentred_retraction,
    retract_instance,
)
from taylor_edges.algebra import BinaryRelation
from taylor_edges.edges import component_analysis, compute_edges, is_x_closed
from taylor_edges.errors import HypothesisUnmet
from taylor_edges.fileio import emit_algebra, parse_algebras
from taylor_edges.terms import free_algebra, taylor_report, universal_meet

from helpers import random_instance, solutions_set


class _Stopwatch:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f}s, budget {self.budget}s)")
        assert elapsed < self.budget, f"{self.label} exceeded its {self.budget}s budget"


def test_criterion_1_two_element_edges(semilattice, z2, majority):
    with _Stopwatch("1 two-element stronger base axioms", 1.0):
        g = compute_edges(z2)
        assert g.proper("as") == {(0, 1), (1, 0)}
        assert g.proper("sm") == set()
        g = compute_edges(majority)
        assert g.proper("sm") == {(0, 1), (1, 0)}
        assert g.proper("as") == set()
        g = compute_edges(semilattice)
        assert g.proper("s") == {(1, 0)}
        assert g.proper("asm") == {(1, 0)}  # no reverse asm-edge


def test_criterion_2_a1_example(alg_a1):
    with _Stopwatch("2 paper example algebra", 5.0):
        rep = taylor_report(alg_a1)
        assert rep.has_taylor is True and rep.witness_arity == 3
        assert rep.witness.is_cyclic() and rep.witness.is_idempotent()

        g = compute_edges(alg_a1)
        s = {(x, 0) for x in (1, 2, 3)}
        assert g.proper("s") == s
        assert g.proper("sm") == s
        assert g.proper("as") == s | {
            (i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j
        }

        asm = component_analysis(g, "asm")
        assert asm.is_weakly_connected()
        assert asm.x_min == frozenset({0})
        assert component_analysis(g, "s").x_min == frozenset({0})
        assert len(asm.sinks) == 1
        sources = [asm.components[i] for i in asm.sources]
        assert sources == [(1, 2, 3)]

        zero = frozenset({0})
        assert is_2_absorbing(alg_a1, zero, graph=g).absorbing
        assert is_3_absorbing(alg_a1, zero).absorbing
        from taylor_edges.absorption import bounded_projectivity

        assert bounded_projectivity(alg_a1, zero, arity_cap=3).strongly_projective_upto == 3


def test_criterion_3_axiom_verifier_and_mutations(full_catalog):
    with _Stopwatch("3 edge axioms + mutation detection", 120.0):
        report = verify_edge_axioms(full_catalog)
        assert report.passed, [c.detail for c in report.failures]
        assert not report.skipped
        # every relational instance came from the joint closures
        assert dict(report.coverage).get("relational-joint-rows", 0) > 0
        assert "relational-fallback-instances" not in dict(report.coverage)

        rng = np.random.default_rng(1234)
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
            corrupted = g.replace(
                as_edges=edges ^ {(a, b)} if flavor == "as" else None,
                sm_edges=edges ^ {(a, b)} if flavor == "sm" else None,
            )
            t0 = time.perf_counter()
            rep = verify_edge_axioms([alg], graphs={alg: corrupted}, fail_fast=True)
            assert time.perf_counter() - t0 < 10.0
            if not rep.passed:
                detected += 1
        assert detected == 20  # 100% detection


def test_criterion_4_absorption_cross_validation(full_catalog):
    with _Stopwatch("4 absorption cross-validation", 60.0):
        disagreements = 0
        for alg in full_catalog:
            if alg.size > 6:
                continue
            graph = compute_edges(alg)
            f3_complete = free_algebra(alg, 3).complete
            for bits in range(1, 1 << alg.size):
                subset = frozenset(i for i in range(alg.size) if bits >> i & 1)
                dec = is_2_absorbing(alg, subset, graph=graph)
                if dec.absorbing != is_x_closed(graph, "asm", subset):
                    disagreements += 1
                if f3_complete:
                    # raises (counts as failure) on structural/witness mismatch
                    is_3_absorbing(alg, subset)
        assert disagreements == 0


def test_criterion_5_universal_meet_identities(full_catalog):
    with _Stopwatch("5 universal meet identities", 10.0):
        for alg in full_catalog:
            f = universal_meet(alg).f
            n = alg.size
            for x in range(n):
                for y in range(n):
                    v = f.apply(x, y)
                    assert f.apply(x, v) == v
                    assert f.apply(v, x) == v
            for a, b in compute_edges(alg).proper("s"):
                assert f.apply(a, b) == b and f.apply(b, a) == b


def test_criterion_6_smin_and_chain_shifting(full_catalog):
    from taylor_edges.edges import reachable, shift_tolerance_chain

    with _Stopwatch("6 s-min reachability + chain shifting", 30.0):
        for alg in full_catalog:
            g = compute_edges(alg)
            s_min = sorted(component_analysis(g, "s").x_min)
            asm = g.proper("asm")
            reach = {a: reachable(asm, a) for a in s_min}
            for a in s_min:
                for b in s_min:
                    assert b in reach[a] and a in reach[b]

        failures = 0
        for alg in full_catalog:
            if alg.size < 2:
                continue
            rng = np.random.default_rng(500 + alg.size)
            n = alg.size
            g = compute_edges(alg)
            meet = universal_meet(alg)
            s_edges = sorted(g.proper("s"))
            for _ in range(100):
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
                shifted = shift_tolerance_chain(
                    alg, tol, tuple(chain), i, tuple(path), meet, graph=g
                )
                if not (shifted.s_reachable_certified and shifted.tolerance_certified):
                    failures += 1
        assert failures == 0


def test_criterion_7_csp_roundtrip(ternary_template):
    with _Stopwatch("7 minimization + retraction equivalence", 120.0):
        rng = np.random.default_rng(777)
        members = list(ternary_template.members)
        retraction_cases = 0
        for _ in range(200):
            inst = random_instance(rng, members)
            expected = solutions_set(inst)
            mini, status = kl_minimize(inst)
            if status == "unsat":
                assert expected == set()
            else:
                assert solutions_set(mini) == expected

            idem = {
                v: [
                    p for p in unary_polynomials(inst.domain(v))
                    if all(p[p[x]] == p[x] for x in range(len(p)))
                ]
                for v in inst.variables
            }
            for _ in range(5):
                cm = ConsistentMapSet(
                    tuple(
                        (v, idem[v][int(rng.integers(len(idem[v])))])
                        for v in inst.variables
                    )
                )
                rep = check_consistent_maps(inst, cm)
                if not (rep.consistent and rep.retractive):
                    continue
                retracted = retract_instance(inst, cm)
                assert (
                    brute_force_solve(retracted).satisfiable
                    == brute_force_solve(inst).satisfiable
                )
                retraction_cases += 1
        assert retraction_cases > 0
        print(f"  (retraction equivalence exercised on {retraction_cases} map sets)")


def test_criterion_8_largecentred_retraction(full_catalog, ternary_template):
    with _Stopwatch("8 large-centralizer retraction properties", 30.0):
        # outputs always retractive and consistent on seeded solvable instances
        rng = np.random.default_rng(88)
        members = list(ternary_template.members)
        runs = 0
        for _ in range(40):
            inst = random_instance(rng, members)
            if not brute_force_solve(inst).satisfiable:
                continue
            try:
                res = largecentred_retraction(inst)
            except HypothesisUnmet:
                continue
            assert res.report.retractive and res.report.consistent
            runs += 1
        assert runs > 0

        # the strict-shrink branch needs an SI large-centralizer domain WITH
        # an s-edge; search the capped catalog for one
        qualifying = []
        for alg in full_catalog:
            if alg.size < 2:
                continue
            rep = congruences(alg)
            if not rep.is_subdirectly_irreducible:
                continue
            if not centralizer_condition(alg, Partition.one(alg.size), rep.monolith):
                continue
            if compute_edges(alg).proper("s"):
                qualifying.append(alg)
        if not qualifying:
            print("  strict-shrink case NOT EXERCISED: no SI large-centralizer "
                  "domain with an s-edge exists in the capped catalog")
        else:  # pragma: no cover - the capped catalog has no such member
            for alg in qualifying:
                inst = random_instance(np.random.default_rng(1), [alg])
                res = largecentred_retraction(inst)
                assert set(res.shrunk) == {v for v, _ in res.edges_chosen}
        # the final clause with a PROPER absorbing subuniverse needs the same
        # kind of domain; with the trivial subuniverse it is immediate
        print("  final-clause proper-subuniverse case NOT EXERCISED on this catalog")


def test_criterion_9_roundtrip_and_determinism(tmp_path, capsys):
    with _Stopwatch("9 file round-trip + byte determinism", 30.0):
        for alg in builtin_algebras().values():
            text = emit_algebra(alg)
            assert parse_algebras(text) == [alg]
            assert emit_algebra(parse_algebras(text)[0]) == text

        path = tmp_path / "a1.alg"
        path.write_text(emit_algebra(builtin_algebras()["a1"]))
        outputs = []
        for _ in range(2):
            code = main(["analyze", str(path), "--format", "json", "--seed", "5"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["seed"] == 5

        for _ in range(2):
            assert main(["edges", str(path), "--dot"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[2] == outputs[3]
