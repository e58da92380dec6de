"""`brute_force_solve` against its reference implementation.

`reference_solve.brute_force_solve` builds each constraint's tuple with a
generator; the library reads it with one itemgetter per constraint, wrapped
to a 1-tuple for a unary scope.  Both search in declaration order, so every
solution list, and the first solution, must be equal, as must the
`LimitExceeded` message.  The library's solver also leaves no reference cycle
behind.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import reference_solve
from helpers import planted_instance, random_instance
from taylor_edges.csp import Instance, brute_force_solve
from taylor_edges.errors import LimitExceeded


def assert_matches_reference(inst: Instance, limit: int = 10**6) -> str:
    for first_only in (False, True):
        expected = reference_solve.brute_force_solve(inst, limit, first_only)
        assert brute_force_solve(inst, limit, first_only) == expected, (inst.name, first_only)
    return expected.status


def reversed_scopes(inst: Instance) -> Instance:
    """The same instance with every scope, and its tuples, listed backwards."""
    constraints = [(c.scope[::-1], {t[::-1] for t in c.tuples}) for c in inst.constraints]
    return Instance.make(inst.name + "-reversed", list(inst.domain_list), constraints)


def test_seeded_random_instances(ternary_template):
    rng = np.random.default_rng(6001)
    members = list(ternary_template.members)
    statuses = []
    for _ in range(120):
        inst = random_instance(rng, members)
        statuses.append(assert_matches_reference(inst))
        assert assert_matches_reference(reversed_scopes(inst)) == statuses[-1]
    assert {"sat", "unsat"} <= set(statuses)


def test_planted_instances(ternary_template):
    rng = np.random.default_rng(6002)
    members = [m for m in ternary_template.members if m.size >= 2]
    for planted in (True, False):
        for _ in range(4):
            inst = planted_instance(rng, members, n_vars=9, n_constraints=14, planted=planted)
            status = assert_matches_reference(inst)
            assert status == "sat" or not planted
            assert_matches_reference(reversed_scopes(inst))


def test_unary_scopes(ternary_template):
    # unary constraints alone, and next to binary ones on the same variables
    rng = np.random.default_rng(6003)
    members = [m for m in ternary_template.members if m.size >= 2]
    variables = [f"u{i}" for i in range(5)]
    for _ in range(20):
        domains = [(v, members[int(rng.integers(len(members)))]) for v in variables]
        unary = []
        for v, alg in domains:
            kept = rng.choice(alg.size, size=int(rng.integers(1, alg.size + 1)), replace=False)
            unary.append(((v,), {(int(x),) for x in kept}))
        assert assert_matches_reference(Instance.make("unary", domains, unary)) == "sat"
        binary = [((variables[0], variables[3]), {(0, 0), (1, 1)})]
        assert_matches_reference(Instance.make("mixed", domains, unary + binary))


def test_empty_relations_and_no_variables(z2):
    domains = [("x", z2), ("y", z2)]
    for scope in (("x",), ("y", "x"), ("x", "y")):
        inst = Instance.make("empty", domains, [(scope, set())])
        assert assert_matches_reference(inst) == "unsat"
    none = Instance.make("none", [], [])
    assert assert_matches_reference(none) == "sat"
    assert brute_force_solve(none).solutions == ((),)


def test_limit_message(ternary_template):
    rng = np.random.default_rng(6004)
    inst = planted_instance(rng, [m for m in ternary_template.members if m.size >= 2], n_vars=12)
    limit = inst.search_space() - 1
    with pytest.raises(LimitExceeded) as expected:
        reference_solve.brute_force_solve(inst, limit)
    with pytest.raises(LimitExceeded) as got:
        brute_force_solve(inst, limit)
    assert str(got.value) == str(expected.value)


def test_solver_leaves_no_reference_cycle(z2):
    # a cycle would keep the instance's relations and the solution list
    # alive until the next garbage collection
    inst = Instance.make("cycle", [("x", z2), ("y", z2)], [(("x", "y"), {(0, 1), (1, 0)})])
    gc.collect()
    gc.disable()
    try:
        result = brute_force_solve(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.solutions == ((0, 1), (1, 0))
