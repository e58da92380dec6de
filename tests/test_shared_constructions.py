"""The shared constructions against their former copies and against brute force.

- The universal meet, for one algebra and jointly for several, against the
  two constructions it replaced (`reference_meet`): same f tables, same f
  trees, same exponents, and the same exception type where those raise.
- The union-find behind partitions, principal congruences, weak components
  and subuniverse-hypergraph connectivity, against transitive closures
  computed by brute force on seeded random inputs.
- `push_to_quotient` against the former binary and ternary pushes.
- The derivation-to-tree function against the trees' own tables.
"""

from __future__ import annotations

import itertools
import random

import pytest

import reference_meet
from test_closure_engine import SIGNATURES, random_algebra
from taylor_edges.algebra import (
    FiniteAlgebra,
    OperationTable,
    Partition,
    enumerate_subuniverses,
    generate_subproduct,
    product_algebra,
)
from taylor_edges.catalog import a1, two_element_majority, two_element_semilattice
from taylor_edges.congruences import congruences, principal_congruence
from taylor_edges.csp import joint_cyclic_tree, joint_universal_meet
from taylor_edges.edges import EdgeGraph, component_analysis
from taylor_edges.errors import NoCyclicWitness
from taylor_edges.terms import (
    TermOperation,
    Var,
    derivation_trees,
    evaluate_tree_table,
    free_algebra,
    projection_table,
    push_to_quotient,
    universal_meet,
)


def same_tree(a, b, memo=None) -> bool:
    """Structural equality of two term DAGs, each shared node compared once."""
    memo = {} if memo is None else memo
    if isinstance(a, Var) or isinstance(b, Var) or a is None or b is None:
        return a == b
    key = (id(a), id(b))
    if key not in memo:
        memo[key] = (
            len(a) == len(b)
            and a[0] == b[0]
            and all(same_tree(x, y, memo) for x, y in zip(a[1:], b[1:]))
        )
    return memo[key]


def outcome(construct, *args):
    try:
        return "built", construct(*args)
    except Exception as exc:  # the type must match the reference's
        return "raised", type(exc)


def assert_same_meet(alg, cap=4096):
    got = outcome(universal_meet, alg, cap)
    want = outcome(reference_meet.universal_meet, alg, cap)
    assert got[0] == want[0], alg.name
    if got[0] == "raised":
        assert got[1] is want[1], alg.name
        return
    new, old = got[1], want[1]
    assert new.f.table == old.f.table, alg.name
    assert same_tree(new.f.tree, old.f.tree), alg.name
    assert (new.witness_arity, new.t_exponent, new.q_exponent) == (
        old.witness_arity, old.t_exponent, old.q_exponent
    ), alg.name


def test_meet_matches_reference_on_catalog(full_catalog, ternary_template, semilattice_template):
    members = list(ternary_template.members) + list(semilattice_template.members)
    for alg in full_catalog + members:
        assert_same_meet(alg)


def test_meet_matches_reference_on_random_algebras():
    rng = random.Random(20261019)
    for _ in range(24):
        alg = random_algebra(rng, rng.randint(2, 4), rng.choice(SIGNATURES))
        assert_same_meet(alg)


def joint_key(algebras):
    """The distinct algebras in the order `joint_universal_meet` caches them."""
    distinct = []
    for a in algebras:
        if a not in distinct:
            distinct.append(a)
    return tuple(sorted(distinct, key=lambda a: (a.size, [op.table for op in a.ops], a.name)))


def test_joint_meet_matches_reference(ternary_template, semilattice_template):
    rng = random.Random(7)
    cases = []
    for template in (ternary_template, semilattice_template):
        members = list(template.members)
        cases += [[m] for m in members]
        for _ in range(6):
            cases.append([rng.choice(members) for _ in range(rng.randint(2, 4))])
    for algebras in cases:
        got = outcome(joint_universal_meet, algebras)
        want = outcome(reference_meet._joint_universal_meet_cached, joint_key(algebras), 4096)
        names = [a.name for a in algebras]
        assert got[0] == want[0], names
        if got[0] == "raised":
            assert got[1] is want[1], names
            continue
        assert same_tree(got[1].tree, want[1].tree), names
        assert [(a, t.table) for a, t in got[1].tables] == [
            (a, t.table) for a, t in want[1].tables
        ], names


def test_joint_meet_raises_like_reference_without_witness():
    # the projection algebra has no cyclic term at any arity
    proj = FiniteAlgebra("proj2", 2, (OperationTable("g", 2, (0, 0, 1, 1)),))
    got = outcome(joint_universal_meet, [proj])
    want = outcome(reference_meet._joint_universal_meet_cached, (proj,), 4096)
    assert got == want == ("raised", NoCyclicWitness)
    with pytest.raises(NoCyclicWitness) as info:
        joint_cyclic_tree([proj])
    assert "cap" not in str(info.value)


def test_joint_cyclic_tree_names_the_cap_and_skipped_arities():
    with pytest.raises(NoCyclicWitness) as info:
        joint_cyclic_tree([two_element_semilattice()], max_arity=4, cap=2)
    message = str(info.value)
    assert "cap of 2" in message
    assert "[2, 3, 4]" in message
    # with room to close, the same search finds the semilattice operation
    tree, arity = joint_cyclic_tree([two_element_semilattice()], max_arity=4)
    assert arity == 2


# ---------------------------------------------------------------------------
# The union-find, against brute-force transitive closure


def equivalence_closure(n: int, pairs) -> frozenset[tuple[int, int]]:
    rel = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        rel[a][b] = rel[b][a] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return frozenset((a, b) for a in range(n) for b in range(n) if rel[a][b])


def classes(n: int, rel: frozenset) -> tuple[tuple[int, ...], ...]:
    """The classes of an equivalence, ordered by least element, each ascending."""
    out = []
    for a in range(n):
        if not any(a in c for c in out):
            out.append(tuple(b for b in range(n) if (a, b) in rel))
    return tuple(out)


def test_partition_from_pairs_is_the_equivalence_closure():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        p = Partition.from_pairs(n, pairs)
        closure = equivalence_closure(n, pairs)
        assert p.pairs() == closure
        assert p == Partition.normalize([min(b for b in range(n) if (a, b) in closure)
                                         for a in range(n)])


def brute_principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> frozenset:
    n = alg.size
    rel = equivalence_closure(n, [(a, b)])
    while True:
        images = set(rel)
        for x, y in rel:
            for op in alg.ops:
                for pos in range(op.arity):
                    for rest in itertools.product(range(n), repeat=op.arity - 1):
                        images.add((op.apply(*rest[:pos], x, *rest[pos:]),
                                    op.apply(*rest[:pos], y, *rest[pos:])))
        grown = equivalence_closure(n, images)
        if grown == rel:
            return rel
        rel = grown


def random_algebras(seed: int, count: int, sizes=(2, 6)):
    rng = random.Random(seed)
    return [random_algebra(rng, rng.randint(*sizes), rng.choice(SIGNATURES)) for _ in range(count)]


def test_principal_congruence_is_the_translation_closure():
    for alg in random_algebras(5, 40) + [a1()]:
        for a, b in itertools.combinations(range(alg.size), 2):
            assert principal_congruence(alg, a, b).pairs() == brute_principal_congruence(
                alg, a, b
            ), (alg, a, b)


def test_weak_components_are_the_undirected_closure():
    rng = random.Random(9)
    for alg in random_algebras(9, 60, sizes=(2, 8)):
        n = alg.size
        proper = [(a, b) for a in range(n) for b in range(n) if a != b]
        as_edges = frozenset(e for e in proper if rng.random() < 0.2)
        sm_edges = frozenset(e for e in proper if rng.random() < 0.2)
        graph = EdgeGraph(alg, as_edges, sm_edges, frozenset(), ())
        for flavor in ("as", "sm", "s", "asm"):
            weak = component_analysis(graph, flavor).weak_components
            assert weak == classes(n, equivalence_closure(n, graph.proper(flavor))), flavor


def test_subuniverse_hypergraph_connectivity_by_brute_force():
    for alg in random_algebras(13, 60):
        n = alg.size
        proper = [s for s in enumerate_subuniverses(alg).subuniverses if len(s) < n]
        covered = set().union(*proper)
        linked = equivalence_closure(n, [(x, y) for s in proper for x in s for y in s])
        expected = covered == set(range(n)) and len(linked) == n * n
        assert enumerate_subuniverses(alg).proper_hypergraph_connected == expected, alg


# ---------------------------------------------------------------------------
# One push to a quotient, for any arity


def test_push_to_quotient_matches_former_pushes(full_catalog):
    former = {2: reference_meet._push_binary, 3: reference_meet._push_term_to_quotient}
    for alg in full_catalog + [product_algebra(a1(), two_element_majority())]:
        thetas = congruences(alg, cap=max(10, alg.size)).all_congruences
        for arity, push in former.items():
            terms = free_algebra(alg, arity).elements[:60]
            for theta in thetas:
                for t in terms:
                    got = push_to_quotient(t, theta)
                    assert got == push(t, theta), (alg.name, arity, theta)
                    assert got is not None  # term operations respect congruences


def test_push_to_quotient_rejects_a_table_that_breaks_the_congruence():
    theta = Partition.from_pairs(3, [(0, 1)])  # blocks {0, 1} and {2}
    # t(x, y) = x, except t(1, y) = 2: 0 and 1 are related but t(0, 0) and
    # t(1, 0) are not
    table = tuple(2 if x == 1 else x for x in range(3) for _ in range(3))
    t2 = TermOperation(2, table)
    assert push_to_quotient(t2, theta) is None
    assert reference_meet._push_binary(t2, theta) is None
    t3 = TermOperation(3, tuple(2 if x == 1 else x for x in range(3) for _ in range(9)))
    assert push_to_quotient(t3, theta) is None
    assert reference_meet._push_term_to_quotient(t3, theta) is None
    # a table that respects theta is pushed block by block
    assert push_to_quotient(TermOperation(2, tuple(x for x in range(3) for _ in range(3))),
                            theta).table == (0, 0, 1, 1)


# ---------------------------------------------------------------------------
# One derivation-to-tree function


def test_derivation_trees_evaluate_to_their_rows(full_catalog):
    for alg in full_catalog:
        n, k = alg.size, 2
        seeds = [projection_table(n, k, i) for i in range(k)]
        rows, derivs = generate_subproduct([alg] * n**k, seeds, want_derivations=True)
        for row, tree in zip(rows, derivation_trees(alg.ops, seeds, rows, derivs)):
            assert evaluate_tree_table(tree, alg, k) == tuple(row)
        for t in free_algebra(alg, k).elements:
            assert evaluate_tree_table(t.tree, alg, k) == t.table
