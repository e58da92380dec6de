"""Relational Axioms 1-2 from one joint closure per axiom, against the
reference per-pair checks in `reference_relational`, and the subuniverse
enumerator against the joint closures on every small product."""

import itertools
import random

import pytest

import reference_relational
from reference_relational import comparable, decide_12
from test_closure_engine import random_algebra
from test_theory import z2_with_absorbing_top
from taylor_edges import axioms
from taylor_edges.algebra import generate_subproduct, product_algebra
from taylor_edges.axioms import (
    _AXIOMS,
    FAIL,
    _group_masks,
    _Recorder,
    _relational_axioms,
    _relational_product,
    _slot_choices,
    verify_edge_axioms,
)
from taylor_edges.catalog import two_element_majority
from taylor_edges.csp import Template
from taylor_edges.edges import EdgeGraph, compute_edges

AXIOMS_12 = ("relational-axiom-1", "relational-axiom-2")


def toggled_graphs(rng, catalog, graphs, toggles):
    """`graphs` with `toggles` random proper as- or sm-edges flipped."""
    out = dict(graphs)
    mutable = [a for a in catalog if a.size >= 2]
    for _ in range(toggles):
        alg = rng.choice(mutable)
        edge = tuple(rng.sample(range(alg.size), 2))
        g = out[alg]
        if rng.random() < 0.5:
            out[alg] = g.replace(as_edges=g.as_edges ^ {edge})
        else:
            out[alg] = g.replace(sm_edges=g.sm_edges ^ {edge})
    return out


def relational_fails(checks):
    return [c for c in checks if c.status == FAIL and c.name in AXIOMS_12]


def compare_group(group, graphs, fail_fast):
    """The library and the reference on every relational instance of
    `group`; returns the library's recorder."""
    got, want = _Recorder(fail_fast), _Recorder(fail_fast)
    assert _relational_axioms(group, graphs, got) == reference_relational.relational_axioms(
        group, graphs, want
    )
    assert comparable(got.checks, got.coverage) == comparable(want.checks, want.coverage)
    return got


@pytest.mark.parametrize("fail_fast", [False, True])
@pytest.mark.parametrize("group", ["ternary", "semilattice"])
def test_reports_match_reference_under_edge_toggles(
    group, fail_fast, ternary_template, semilattice_template, monkeypatch
):
    template = ternary_template if group == "ternary" else semilattice_template
    catalog = list(template.members)
    graphs = {alg: compute_edges(alg) for alg in catalog}
    rng = random.Random(f"12-{group}-{fail_fast}")
    fails = 0
    for trial in range(8):
        bad = graphs if trial == 0 else toggled_graphs(rng, catalog, graphs, rng.randint(1, 3))
        got = verify_edge_axioms(catalog, graphs=bad, fail_fast=fail_fast)
        with monkeypatch.context() as m:
            m.setattr(axioms, "_relational_axioms", reference_relational.relational_axioms)
            want = verify_edge_axioms(catalog, graphs=bad, fail_fast=fail_fast)
        assert comparable(got.checks, got.coverage) == comparable(want.checks, want.coverage)
        # the relational checks alone, which a base-axiom failure hides under fail-fast
        fails += len(relational_fails(compare_group(catalog, bad, fail_fast).checks))
    assert fails > 0


def random_group(rng):
    signature = (("g", 2), ("f", 3))
    group = [random_algebra(rng, rng.randint(2, 3), signature) for _ in range(rng.randint(1, 3))]
    graphs = {}
    for alg in group:
        pairs = list(itertools.permutations(range(alg.size), 2))
        as_ = frozenset(rng.sample(pairs, rng.randint(0, 2)))
        sm = frozenset(rng.sample(pairs, rng.randint(0, 2)))
        graphs[alg] = EdgeGraph(alg, as_, sm, frozenset(), ())
    return group, graphs


def test_random_groups_match_reference():
    # random idempotent algebras with arbitrary edge sets: the joint closures
    # do not rely on the edges being the real ones, and the binary and
    # ternary clones of many of these pass the joint row threshold
    rng = random.Random(20261020)
    fails = 0
    joint = {name: set() for name, _ in _AXIOMS}
    for _ in range(16):
        group, graphs = random_group(rng)
        masks = _group_masks(group, _slot_choices(group, graphs), _Recorder(False))
        for name in joint:
            if masks[name] != {}:  # {}: the axiom has no instance in this group
                joint[name].add(masks[name] is not None)
        for fail_fast in (False, True):
            fails += len(relational_fails(compare_group(group, graphs, fail_fast).checks))
    assert fails > 0
    # the joint closure and the per-instance fallback both ran, at arity 2
    # (axiom 1) and at arity 3 (axiom 2)
    assert joint["relational-axiom-1"] == {True, False}
    assert joint["relational-axiom-2"] == {True, False}


def complete_graph(alg):
    pairs = frozenset(itertools.permutations(range(alg.size), 2))
    return EdgeGraph(alg, pairs, pairs, frozenset(), ())


def test_enumeration_matches_joint_closures(ternary_template, semilattice_template):
    # every ordered pair of distinct elements as both an as- and an sm-edge,
    # so each product runs every instance the axioms can have, and the
    # enumerator's subuniverses must decide each one as the library does
    pairs = fallbacks = failing = holding = 0
    for template in (ternary_template, semilattice_template):
        for left, right in itertools.product(template.members, repeat=2):
            if left.size * right.size > reference_relational.ENUMERATION_BOUND:
                continue
            pairs += 1
            graphs = {alg: complete_graph(alg) for alg in (left, right)}
            rec = _Recorder(False)
            choices = _slot_choices([left, right], graphs)
            masks = _group_masks([left, right], choices, rec)
            _relational_product("relational-axioms-1-2", _AXIOMS[:2], (left, right), choices, rec, masks)
            failed = {(c.name, *c.counterexample[2:4]) for c in relational_fails(rec.checks)}
            fallbacks += dict(rec.coverage).get("relational-fallback-instances", 0)
            sm = sorted(graphs[right].proper("sm"))
            as_l, as_r = sorted(graphs[left].proper("as")), sorted(graphs[right].proper("as"))
            want = set()
            for (a1, a2), (b1, b2) in itertools.product(as_l, sm):
                if not decide_12(left, right, [(a1, b2), (a2, b1)], (a2, b2))[0]:
                    want.add(("relational-axiom-1", (a1, a2), (b1, b2)))
            for (a1, a2), (b1, b2) in itertools.product(as_l, as_r):
                if not decide_12(left, right, [(a1, b1), (a1, b2), (a2, b1)], (a2, b2))[0]:
                    want.add(("relational-axiom-2", (a1, a2), (b1, b2)))
            assert failed == want, (left.name, right.name)
            failing += len(want)
            holding += len(as_l) * (len(sm) + len(as_r)) - len(want)
    assert pairs == 40
    assert failing > 0 and holding > 0
    assert fallbacks == 0  # every instance came from a joint closure


def hypotheses(name, a, b):
    (a1, a2), (b1, b2) = a, b
    if name == "relational-axiom-1":
        return [(a1, b2), (a2, b1)]
    return [(a1, b1), (a1, b2), (a2, b1)]


def assert_witnesses_are_relations(fails, by_name):
    for c in fails:
        left, right = by_name[c.counterexample[0]], by_name[c.counterexample[1]]
        a, b, r = c.counterexample[2:]
        closed = {tuple(row) for row in generate_subproduct([left, right], r)}
        assert closed == set(r), c.detail
        assert set(hypotheses(c.name, a, b)) <= set(r), c.detail
        assert (a[1], b[1]) not in r, c.detail
        assert f"R={list(r)}" in c.detail


def test_counterexample_relations_are_closed(ternary_template):
    # above 16 pairs as well: z2top x majority2 has 4x5 and 5x4 products
    big = Template.hs_closure(
        [product_algebra(z2_with_absorbing_top(), two_element_majority())], size_cap=6
    )
    sizes = set()
    for template, seed in ((ternary_template, 3), (big, 5)):
        catalog = list(template.members)
        by_name = {alg.name: alg for alg in catalog}
        assert len(by_name) == len(catalog)
        graphs = {alg: compute_edges(alg) for alg in catalog}
        rng = random.Random(seed)
        for _ in range(4):
            rec = _Recorder(False)
            _relational_axioms(catalog, toggled_graphs(rng, catalog, graphs, 1), rec)
            fails = relational_fails(rec.checks)
            assert_witnesses_are_relations(fails, by_name)
            sizes |= {by_name[c.counterexample[0]].size * by_name[c.counterexample[1]].size
                      for c in fails}
    assert min(sizes) <= 16 < max(sizes)
