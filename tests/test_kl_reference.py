"""`kl_minimize` against its reference implementation.

`reference_kl.kl_minimize` is the pairwise sweep as it stood before the
worklist rewrite.  Both compute the greatest fixpoint of the same projection
and restriction steps, so on a satisfiable instance the library must return an
equal `Instance`.  On an unsatisfiable one the reference stops when a relation
empties, at a state that depends on the order of its steps: the status and the
scope list must agree, and the library's answer must hold an empty relation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import reference_kl
from helpers import planted_instance, random_instance
from taylor_edges.algebra import induced_subalgebra, product_algebra
from taylor_edges.catalog import a1, two_element_majority
from taylor_edges.csp import Instance, kl_minimize

KL_PAIRS = ((1, 2), (2, 3), (3, 3), (1, 3))


def assert_matches_reference(inst: Instance, k: int, l: int) -> str:
    expected, expected_status = reference_kl.kl_minimize(inst, k, l)
    got, status = kl_minimize(inst, k, l)
    assert status == expected_status, (inst.name, k, l)
    if status == "sat":
        assert got == expected, (inst.name, k, l)
    else:
        assert [c.scope for c in got.constraints] == [c.scope for c in expected.constraints]
        assert any(not c.tuples for c in got.constraints), (inst.name, k, l)
    return status


def wide_instance(rng, members) -> Instance:
    """One random relation on 4 or 5 variables, pinned by a unary constraint,
    plus a few narrow random relations."""
    n_vars = int(rng.integers(4, 7))
    variables = [f"v{i}" for i in range(n_vars)]
    domains = [(v, members[int(rng.integers(len(members)))]) for v in variables]
    dom = dict(domains)

    def random_relation(scope):
        space = list(itertools.product(*(range(dom[v].size) for v in scope)))
        picks = rng.choice(len(space), size=int(rng.integers(1, len(space) + 1)), replace=False)
        return {space[i] for i in picks}

    constraints = []
    for _ in range(int(rng.integers(1, 3))):
        width = int(rng.integers(4, min(5, n_vars) + 1))
        scope = tuple(variables[i] for i in sorted(rng.choice(n_vars, size=width, replace=False)))
        constraints.append((scope, random_relation(scope)))
    for _ in range(int(rng.integers(1, 4))):
        scope = tuple(variables[i] for i in rng.choice(n_vars, size=int(rng.integers(1, 3)), replace=False))
        constraints.append((scope, random_relation(scope)))
    return Instance.make("wide", domains, constraints)


@pytest.mark.parametrize("k,l", KL_PAIRS)
def test_seeded_random_instances(ternary_template, k, l):
    rng = np.random.default_rng(1000 + 10 * k + l)
    members = list(ternary_template.members)
    statuses = [assert_matches_reference(random_instance(rng, members), k, l) for _ in range(80)]
    assert {"sat", "unsat"} <= set(statuses)


@pytest.mark.parametrize("k,l", KL_PAIRS)
def test_planted_instances(ternary_template, k, l):
    # 14 variables, 24 constraints on 2 or 3 variables; satisfiable by design
    rng = np.random.default_rng(2000 + 10 * k + l)
    members = [m for m in ternary_template.members if m.size >= 2]
    for _ in range(3):
        assert assert_matches_reference(planted_instance(rng, members), k, l) == "sat"


@pytest.mark.parametrize("k,l", KL_PAIRS)
def test_unplanted_instances(ternary_template, k, l):
    # the same shape without a planted solution: almost always unsatisfiable
    rng = np.random.default_rng(3000 + 10 * k + l)
    members = [m for m in ternary_template.members if m.size >= 2]
    for n_constraints in (8, 16, 24):
        inst = planted_instance(rng, members, n_constraints=n_constraints, planted=False)
        assert_matches_reference(inst, k, l)


@pytest.mark.parametrize("k,l", KL_PAIRS)
def test_wide_scope_instances(ternary_template, k, l):
    rng = np.random.default_rng(4000 + 10 * k + l)
    members = [m for m in ternary_template.members if m.size >= 2]
    statuses = [assert_matches_reference(wide_instance(rng, members), k, l) for _ in range(25)]
    assert "sat" in statuses


@pytest.mark.parametrize("k,l", KL_PAIRS)
def test_sparse_wide_constraint(ternary_template, k, l):
    # One constraint on 12 variables holds 5 tuples.  Its work must follow
    # those tuples, not the product of its domains (16.7 million tuples).
    rng = np.random.default_rng(5000 + 10 * k + l)
    largest = max(m.size for m in ternary_template.members)
    members = [m for m in ternary_template.members if m.size == largest]
    variables = [f"w{i}" for i in range(12)]
    domains = [(v, members[int(rng.integers(len(members)))]) for v in variables]
    assert math.prod(alg.size for _, alg in domains) > 10**7
    rows = {tuple(int(rng.integers(alg.size)) for _, alg in domains) for _ in range(5)}
    planted = sorted(rows)[0]
    constraints = [(tuple(variables), rows)]
    for i in range(0, 12, 3):
        pair = (variables[i], variables[(i + 5) % 12])
        constraints.append((pair, {(planted[i], planted[(i + 5) % 12])}))
    inst = Instance.make("sparse-wide", domains, constraints)
    assert assert_matches_reference(inst, k, l) == "sat"


def test_empty_relation_is_unsat_without_propagation(z2):
    # a lone variable has no scope pairs to propagate over
    inst = Instance.make("empty", [("x", z2)], [(("x",), set())])
    for k, l in KL_PAIRS:
        assert assert_matches_reference(inst, k, l) == "unsat"


def planted_random(rng, domains, n_constraints: int, name: str) -> Instance:
    """Random relations on 1-3 variables, each holding the projection of one
    planted solution, so the instance is satisfiable."""
    dom = dict(domains)
    variables = list(dom)
    solution = {v: int(rng.integers(alg.size)) for v, alg in domains}
    constraints = []
    for _ in range(n_constraints):
        width = int(rng.integers(1, min(3, len(variables)) + 1))
        scope = tuple(variables[i] for i in rng.choice(len(variables), size=width, replace=False))
        space = list(itertools.product(*(range(dom[v].size) for v in scope)))
        picks = rng.choice(len(space), size=int(rng.integers(1, len(space) + 1)), replace=False)
        rows = {space[i] for i in picks} | {tuple(solution[v] for v in scope)}
        constraints.append((scope, rows))
    return Instance.make(name, domains, constraints)


def edge_case_instances(members) -> list[Instance]:
    """No variables, fewer variables than l, a one-element domain, domains of
    sizes 1-8 side by side (most cells of the padded arrays lie outside a
    scope's domains), and a wide constraint with no tuples."""
    rng = np.random.default_rng(7000)
    square = product_algebra(a1(), a1())
    by_size = {m.size: m for m in members}
    for elems in ({0, 1, 2, 3, 7}, {0, 1, 2, 4, 8, 10}, {0, 1, 2, 3, 4, 8, 11}):
        by_size[len(elems)] = induced_subalgebra(square, frozenset(elems))
    by_size[8] = product_algebra(a1(), two_element_majority())
    assert sorted(by_size) == list(range(1, 9))

    out = [Instance.make("no-variables", [], [])]
    for n_vars in (1, 2):
        for _ in range(4):
            out.append(random_instance(rng, members, max_vars=n_vars, max_constraints=3))
    one = [("p", by_size[1]), ("q", by_size[3]), ("r", by_size[4]), ("s", by_size[2])]
    out.append(planted_random(rng, one, 5, "one-element"))
    for i in range(4):
        # five consecutive sizes, cyclically, so the four instances cover 1-8
        domains = [(f"m{j}", by_size[1 + (5 * i + j) % 8]) for j in range(5)]
        out.append(planted_random(rng, domains, 4, f"sizes-1-8-{i}"))
    wide = [(f"w{j}", by_size[2 + j % 3]) for j in range(5)]
    out.append(Instance.make("empty-wide", wide, [(("w0", "w1", "w2", "w3"), set()),
                                                  (("w1", "w4"), {(0, 1), (1, 0)})]))
    return out


@pytest.mark.parametrize("k,l", KL_PAIRS)
def test_edge_case_instances(ternary_template, k, l):
    instances = edge_case_instances(list(ternary_template.members))
    statuses = {inst.name: assert_matches_reference(inst, k, l) for inst in instances}
    assert statuses["no-variables"] == "sat" and statuses["empty-wide"] == "unsat"
    assert statuses["one-element"] == "sat"
    assert all(statuses[f"sizes-1-8-{i}"] == "sat" for i in range(4))
