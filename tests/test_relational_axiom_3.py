"""Relational Axiom 3 from one joint ternary closure, against the reference
per-instance closures in `reference_relational`."""

import itertools
import random

import pytest

import reference_relational
from reference_relational import comparable, relational_axiom_3 as reference_axiom_3
from test_closure_engine import random_algebra
from taylor_edges import axioms
from taylor_edges.axioms import (
    _AXIOMS,
    FAIL,
    _group_masks,
    _Recorder,
    _relational_product,
    _slot_choices,
    verify_edge_axioms,
)
from taylor_edges.catalog import z2_minority
from taylor_edges.csp import Template
from taylor_edges.edges import EdgeGraph, compute_edges


def reference_report(catalog, graphs, fail_fast, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(axioms, "_relational_axioms", reference_relational.relational_axioms)
        return verify_edge_axioms(catalog, graphs=graphs, fail_fast=fail_fast)


def toggled_graphs(rng, catalog, graphs, toggles):
    """`graphs` with `toggles` random proper sm-edges flipped."""
    out = dict(graphs)
    mutable = [a for a in catalog if a.size >= 2]
    for _ in range(toggles):
        alg = rng.choice(mutable)
        a, b = rng.sample(range(alg.size), 2)
        out[alg] = out[alg].replace(sm_edges=out[alg].sm_edges ^ {(a, b)})
    return out


def ra3_failures(report):
    return [c for c in report.failures if c.name == "relational-axiom-3"]


GROUPS = {
    "ternary": lambda t, s: list(t.members),
    "semilattice": lambda t, s: list(s.members),
    # z2minority and its one-element quotient: no sm-edge anywhere
    "no-sm-edges": lambda t, s: list(Template.hs_closure([z2_minority()]).members),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("fail_fast", [False, True])
def test_reports_match_reference_under_sm_toggles(
    group, fail_fast, ternary_template, semilattice_template, monkeypatch
):
    catalog = GROUPS[group](ternary_template, semilattice_template)
    graphs = {alg: compute_edges(alg) for alg in catalog}
    rng = random.Random(f"{group}-{fail_fast}")
    ra3_fails = 0
    # toggles would add sm-edges to the group that has none
    for trial in range(1 if group == "no-sm-edges" else 8):
        bad = graphs if trial == 0 else toggled_graphs(rng, catalog, graphs, rng.randint(1, 3))
        got = verify_edge_axioms(catalog, graphs=bad, fail_fast=fail_fast)
        want = reference_report(catalog, bad, fail_fast, monkeypatch)
        assert comparable(got.checks, got.coverage) == comparable(want.checks, want.coverage)
        ra3_fails += len(ra3_failures(got))
    if group == "no-sm-edges":
        assert "relational-axiom-3-instances" not in dict(got.coverage)
        statuses = [c.status for c in got.checks if c.name == "relational-axiom-3"]
        assert statuses == ["pass"] * len(catalog) ** 3
    elif not fail_fast:
        assert ra3_fails > 0


def ternary_masks(group, graphs):
    return _group_masks(group, _slot_choices(group, graphs), _Recorder(False))["relational-axiom-3"]


def compare_every_triple(group, graphs):
    """Both versions on every triple of `group`, with and without fail-fast;
    returns the number of relational-axiom-3 failures seen."""
    choices = _slot_choices(group, graphs)
    masks = _group_masks(group, choices, _Recorder(False))
    failures = 0
    for triple in itertools.product(group, repeat=3):
        for fail_fast in (False, True):
            got, want = _Recorder(fail_fast), _Recorder(fail_fast)
            stopped = _relational_product("relational-axiom-3", _AXIOMS[2:], triple, choices, got, masks)
            assert stopped == reference_axiom_3(triple, graphs, want)
            assert comparable(got.checks, got.coverage) == comparable(want.checks, want.coverage)
            assert got.checks == want.checks
            failures += sum(c.status == FAIL for c in got.checks)
    return failures


def test_every_triple_matches_reference_on_toggled_catalog(ternary_template):
    catalog = list(ternary_template.members)
    graphs = {alg: compute_edges(alg) for alg in catalog}
    assert ternary_masks(catalog, graphs) is not None  # decided by the joint closure
    rng = random.Random(12)
    failures = sum(
        compare_every_triple(catalog, toggled_graphs(rng, catalog, graphs, rng.randint(1, 4)))
        for _ in range(6)
    )
    assert failures > 0


def test_every_triple_matches_reference_on_random_groups():
    # random idempotent algebras of mixed sizes with arbitrary sm-edge sets:
    # the joint closure does not rely on the edges being the real ones, and
    # the ternary clones of most of these pass the joint row threshold
    rng = random.Random(20261019)
    signature = (("g", 2), ("f", 3))
    failures = 0
    joint = []
    for _ in range(12):
        group = [random_algebra(rng, rng.randint(2, 3), signature) for _ in range(rng.randint(1, 3))]
        graphs = {}
        for alg in group:
            pairs = list(itertools.permutations(range(alg.size), 2))
            sm = frozenset(rng.sample(pairs, rng.randint(0, 2)))
            graphs[alg] = EdgeGraph(alg, frozenset(), sm, frozenset(), ())
        joint.append(ternary_masks(group, graphs) is not None)
        failures += compare_every_triple(group, graphs)
    assert failures > 0
    # both the joint closure and the per-instance fallback were exercised
    assert any(joint) and not all(joint)


def test_added_sm_edge_on_z2_fails_relational_axiom_3(z2, monkeypatch):
    # (0,1),(0,1),(0,1) as sm-edges: Sg{(0,1,1),(1,0,1),(1,1,0)} in Z2^3 is
    # the even-weight vectors, so (1,1,1) is missing
    g = compute_edges(z2)
    bad = {z2: g.replace(sm_edges=g.sm_edges | {(0, 1)})}
    got = ra3_failures(verify_edge_axioms([z2], graphs=bad))
    want = ra3_failures(reference_report([z2], bad, False, monkeypatch))
    assert got == want
    assert [(c.detail, c.counterexample) for c in got] == [(
        "z2minorityxz2minorityxz2minority: sm-edges (0,1),(0,1),(0,1): "
        "(1,1,1) missing from the generated subproduct",
        ("z2minority", "z2minority", "z2minority", (0, 1), (0, 1), (0, 1)),
    )]
