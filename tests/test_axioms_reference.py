"""The edge-axiom verifier against `reference_axioms`, the versions of
`_base_axioms`, `_homomorphism_axioms` and `verify_edge_theorems` that write
each verdict by hand: whole reports, checks and coverage, must agree."""

import itertools
import random

import pytest

import reference_axioms
from taylor_edges import axioms
from taylor_edges.axioms import _Recorder, verify_edge_axioms, verify_edge_theorems
from taylor_edges.edges import EdgeGraph, compute_edges

FLIPS = ("as", "sm", "both")


def reference_report(catalog, graphs, fail_fast, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(axioms, "_base_axioms", reference_axioms._base_axioms)
        m.setattr(axioms, "_homomorphism_axioms", reference_axioms._homomorphism_axioms)
        return verify_edge_axioms(catalog, graphs=graphs, fail_fast=fail_fast)


def flipped(graphs, alg, pair, flip):
    """`graphs` with `pair` toggled in the as-edges, the sm-edges or both of
    `alg`; flipping both turns an as-only pair into an sm-only one, which
    fails a base axiom and its stronger form on the same pair."""
    g = graphs[alg]
    as_edges = g.as_edges ^ {pair} if flip in ("as", "both") else None
    sm_edges = g.sm_edges ^ {pair} if flip in ("sm", "both") else None
    return {**graphs, alg: g.replace(as_edges=as_edges, sm_edges=sm_edges)}


def every_flip(catalog, graphs):
    for alg in catalog:
        for pair, flip in itertools.product(itertools.permutations(range(alg.size), 2), FLIPS):
            yield flipped(graphs, alg, pair, flip)


def seeded_flips(rng, catalog, graphs, count):
    mutable = [alg for alg in catalog if alg.size >= 2]
    for _ in range(count):
        alg = rng.choice(mutable)
        yield flipped(graphs, alg, tuple(rng.sample(range(alg.size), 2)), rng.choice(FLIPS))


def failing_names(report):
    return {c.name for c in report.failures}


@pytest.mark.parametrize("fail_fast", [False, True])
def test_every_single_pair_flip_of_the_full_catalog(full_catalog, fail_fast, monkeypatch):
    graphs = {alg: compute_edges(alg) for alg in full_catalog}
    names, same_pair = set(), set()
    for trial, bad in enumerate(itertools.chain([graphs], every_flip(full_catalog, graphs))):
        got = verify_edge_axioms(full_catalog, graphs=bad, fail_fast=fail_fast)
        want = reference_report(full_catalog, bad, fail_fast, monkeypatch)
        assert got == want, trial
        if trial == 0:
            assert got.passed
        names |= failing_names(got)
        fails = got.failures
        same_pair |= {
            (first.name, second.name)
            for first, second in zip(fails, fails[1:])
            # a base counterexample is (algebra, flavor, a, b)
            if (first.counterexample[0], *first.counterexample[2:])
            == (second.counterexample[0], *second.counterexample[2:])
        }
    # every base verdict, and unless a base failure stops first, every
    # homomorphism verdict was exercised
    for axiom in (1, 2, 3):
        assert {f"base-axiom-{axiom}", f"stronger-base-axiom-{axiom}"} <= names
    assert ({"homomorphism-axiom-1", "homomorphism-axiom-2"} <= names) != fail_fast
    if not fail_fast:
        # both forms of a base axiom failed on one pair, so their order counts
        assert {("base-axiom-1", "stronger-base-axiom-1"),
                ("base-axiom-2", "stronger-base-axiom-2")} <= same_pair


@pytest.mark.parametrize("fail_fast", [False, True])
def test_each_check_family_stops_where_the_reference_stops(full_catalog, fail_fast):
    # each family on its own, so fail-fast also cuts homomorphism checks short
    graphs = {alg: compute_edges(alg) for alg in full_catalog}
    stops = 0
    for bad in every_flip(full_catalog, graphs):
        calls = [("_base_axioms", (alg, bad[alg]), (4096,)) for alg in full_catalog]
        calls += [
            ("_homomorphism_axioms", (src, dst, bad), ())
            for src, dst in itertools.product(full_catalog, repeat=2)
            if src.signature == dst.signature
        ]
        for fn, args, cap in calls:
            got, want = _Recorder(fail_fast), _Recorder(fail_fast)
            stopped = getattr(axioms, fn)(*args, got, *cap)
            assert stopped == getattr(reference_axioms, fn)(*args, want, *cap)
            assert got.report() == want.report()
            stops += stopped
    assert (stops > 0) == fail_fast


@pytest.mark.parametrize("fail_fast", [False, True])
@pytest.mark.parametrize("group", ["ternary", "semilattice"])
def test_templates_under_seeded_flips(
    group, fail_fast, ternary_template, semilattice_template, monkeypatch
):
    template = ternary_template if group == "ternary" else semilattice_template
    catalog = list(template.members)
    graphs = {alg: compute_edges(alg) for alg in catalog}
    rng = random.Random(f"axioms-{group}-{fail_fast}")
    for bad in itertools.chain([graphs], seeded_flips(rng, catalog, graphs, 12)):
        got = verify_edge_axioms(catalog, graphs=bad, fail_fast=fail_fast)
        assert got == reference_report(catalog, bad, fail_fast, monkeypatch)


def test_theorems_on_every_single_pair_flip(full_catalog):
    # cap 2 leaves F(3) incomplete, so an unwitnessed asm-edge is a SKIP
    graphs = {alg: compute_edges(alg) for alg in full_catalog}
    verdicts = set()
    for alg, cap in itertools.product(full_catalog, (4096, 2)):
        variants = [graphs[alg]] + [bad[alg] for bad in every_flip([alg], graphs)]
        for graph in variants:
            got = verify_edge_theorems(alg, graph, cap=cap)
            assert got == reference_axioms.verify_edge_theorems(alg, graph, cap=cap), alg.name
            verdicts |= {(c.name, c.status) for c in got.checks}
    theorems = (
        "weak-connectivity",
        "smin-mutually-asm-reachable",
        "asmmin-single-component",
        "noedge-antisymmetry",
        "existsaterm-witness",
        "two-absorption-characterization",
    )
    assert {(name, status) for name in theorems for status in ("pass", "fail")} <= verdicts
    assert ("existsaterm-witness", "skipped") in verdicts


def test_skips_match(full_catalog, alg_a1, monkeypatch):
    graph = compute_edges(alg_a1)
    got = verify_edge_theorems(alg_a1, graph, subset_cap=3)
    assert got == reference_axioms.verify_edge_theorems(alg_a1, graph, subset_cap=3)
    assert [c.name for c in got.skipped] == ["two-absorption-characterization"]
    # one undecided pair skips a1's base axioms and all its theorems
    undecided = EdgeGraph(alg_a1, graph.as_edges, graph.sm_edges, frozenset({(0, 1)}), ())
    got = verify_edge_theorems(alg_a1, undecided)
    assert got == reference_axioms.verify_edge_theorems(alg_a1, undecided)
    assert [(c.name, c.status) for c in got.checks] == [("edge-theorems", "skipped")]
    graphs = {alg: compute_edges(alg) for alg in full_catalog}
    graphs[alg_a1] = undecided
    got = verify_edge_axioms(full_catalog, graphs=graphs)
    assert got == reference_report(full_catalog, graphs, False, monkeypatch)
    assert [c.detail for c in got.skipped] == ["a1: 1 unknown edges"]
