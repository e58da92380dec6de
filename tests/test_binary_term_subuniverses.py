"""Binary-term conditions read off generated subuniverses, against the
binary-clone scans in `reference_term_scans`.

{t(b, w) : t binary} is Sg{b, w}, and {(t(a, b), t(b, a)) : t binary} is
Sg{(a, b), (b, a)} <= A^2.  On every ordered pair of every input the library
must give the answers the F(2) scans gave: as-, sm- and unknown edges,
semilattice-witness tables, Base Axiom reports and absorption reports.
"""

import contextlib
import importlib
import itertools
import random

import pytest

import reference_term_scans as ref
from test_homomorphism_closure import random_algebra
from test_theory import z2_with_absorbing_top
from taylor_edges.algebra import induced_subalgebra, product_algebra, sg_closure
from taylor_edges.catalog import a1, builtin_algebras
from taylor_edges.csp import Template
from taylor_edges.errors import TaylorEdgesError
from taylor_edges.terms import (
    free_algebra,
    least_prime_above,
    semilattice_term,
    semilattice_witness,
    term_apply,
)

# the package re-exports functions that hide some module names
absorption = importlib.import_module("taylor_edges.absorption")
axioms = importlib.import_module("taylor_edges.axioms")
edges = importlib.import_module("taylor_edges.edges")

CAP = 4096
SIGNATURES = ((("f", 2),), (("g", 3),), (("f", 2), ("g", 3)))


def random_group(seed: int, count: int = 8) -> list:
    """`count` seeded idempotent algebras of sizes 2-5 in one signature."""
    rng = random.Random(seed)
    signature = SIGNATURES[seed % len(SIGNATURES)]
    return [random_algebra(rng, rng.randint(2, 5), signature, True) for _ in range(count)]


def input_groups() -> dict[str, list]:
    b = builtin_algebras()
    ternary = [b["z2minority"], b["majority2"], b["a1"]]
    z2top = product_algebra(z2_with_absorbing_top(), b["majority2"])
    return {
        "builtins": list(b.values()),
        "ternary-hs": list(Template.hs_closure(ternary).members),
        "semilattice-hs": list(Template.hs_closure([b["semilattice2"]]).members),
        "z2top-x-majority2-hs": list(Template.hs_closure([z2top], size_cap=z2top.size).members),
        **{f"random-{seed}": random_group(seed) for seed in range(6)},
    }


GROUPS = input_groups()


@contextlib.contextmanager
def reference_scans():
    """The library with each of its four sites running the F(2) scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edges, "_edge_pair_in_subalgebra", ref._edge_pair_in_subalgebra)
        mp.setattr(
            edges, "semilattice_term", lambda alg, a, b: ref.semilattice_witness(alg, a, b, CAP)
        )
        mp.setattr(
            axioms, "semilattice_term",
            lambda alg, a, b: True if ref._semilattice_term_witness(alg, a, b, CAP) else None,
        )
        mp.setattr(absorption, "_audit_transport", ref._audit_transport)
        yield


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except TaylorEdgesError as exc:
        return type(exc).__name__, str(exc)


def edge_answer(alg):
    # uncached, so the reference run never fills compute_edges' cache
    graph = edges.compute_edges.__wrapped__(alg)
    return graph.as_edges, graph.sm_edges, graph.unknown


def library_graph(alg):
    graph = outcome(edges.compute_edges, alg)
    return graph if isinstance(graph, edges.EdgeGraph) else None


def base_axiom_report(alg, graph):
    rec = axioms._Recorder(fail_fast=False)
    axioms._base_axioms(alg, graph, rec, CAP)
    return rec.report()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_edges_match_the_reference(group):
    for alg in GROUPS[group]:
        got = outcome(edge_answer, alg)
        with reference_scans():
            assert got == outcome(edge_answer, alg), alg


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_edge_pairs_match_the_reference(group):
    """Pair by pair and at more arities, so that an error on one pair, which
    aborts `compute_edges`, hides no other pair.  A cap is compared by type:
    the reference names the binary clone, the library the cyclic one."""
    def kind(answer):
        return answer[0] if isinstance(answer[0], str) else answer

    for alg in GROUPS[group]:
        for a, b in itertools.permutations(range(alg.size), 2):
            elems = sorted(sg_closure(alg, {a, b}))
            sub = induced_subalgebra(alg, frozenset(elems))
            args = (sub, elems.index(a), elems.index(b))
            for arities in ((least_prime_above(len(elems)),), (2,), (3,)):
                got = outcome(edges._edge_pair_in_subalgebra, *args, arities, CAP)
                want = outcome(ref._edge_pair_in_subalgebra, *args, arities, CAP)
                assert kind(got) == kind(want), (alg, a, b, arities)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_semilattice_witnesses_match_the_reference(group):
    for alg in GROUPS[group]:
        for a, b in itertools.product(range(alg.size), repeat=2):
            got = semilattice_witness(alg, a, b)
            want = ref.semilattice_witness(alg, a, b)
            assert (got and got.table) == (want and want.table), (alg, a, b)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_semilattice_terms_match_the_binary_clone(group):
    for alg in GROUPS[group]:
        complete = free_algebra(alg, 2, cap=CAP).complete
        for a, b in itertools.permutations(range(alg.size), 2):
            tree = semilattice_term(alg, a, b)
            if tree is not None:
                assert term_apply(tree, alg, (a, b)) == b == term_apply(tree, alg, (b, a))
            if complete:
                assert (tree is not None) == ref._semilattice_term_witness(alg, a, b, CAP)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_base_axiom_reports_match_the_reference(group):
    for alg in GROUPS[group]:
        graph = library_graph(alg)
        if graph is None:
            continue
        got = outcome(base_axiom_report, alg, graph)
        with reference_scans():
            assert got == outcome(base_axiom_report, alg, graph), alg


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_absorption_reports_match_the_reference(group):
    for alg in GROUPS[group]:
        graph = library_graph(alg)
        if graph is None:
            continue
        got = outcome(absorption.absorption_report, alg, graph=graph)
        with reference_scans():
            want = outcome(absorption.absorption_report, alg, graph=graph)
        # the dataclass equality covers transport_audited
        assert got == want, alg


def test_inputs_decide_edges_and_audit_transport():
    """The comparisons above see decided s-edges, unknown pairs, raised
    errors, audited transports, and binary clones within the cap and above."""
    s_edges = unknown = errors = audited = 0
    algs = list(itertools.chain.from_iterable(GROUPS.values()))
    complete = sum(free_algebra(alg, 2, cap=CAP).complete for alg in algs)
    assert 0 < complete < len(algs)
    for alg in algs:
        graph = library_graph(alg)
        if graph is None:
            errors += 1
            continue
        s_edges += len(graph.proper("s"))
        unknown += len(graph.unknown)
        if alg.size > 1 and not graph.unknown:
            audited += absorption.absorption_report(alg, graph=graph).transport_audited
    assert s_edges and unknown and errors and audited


def test_base_axiom_3_needs_no_binary_clone():
    # F(2) of a1 exceeds a cap of 2, which used to skip all 12 ordered pairs
    alg = a1()
    report = axioms.verify_edge_axioms([alg], graphs={alg: edges.compute_edges(alg)}, cap=2)
    statuses = [c.status for c in report.checks if c.name == "base-axiom-3"]
    assert statuses == [axioms.PASS]
