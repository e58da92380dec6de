"""Derived, pushed and relabelled tables against their per-entry builders.

Every table the library builds by reading another table at a list of flat
indices (`algebra.flat_indices`, `algebra.push_table`) is compared with the
builder it replaced (`reference_tables`), which fills the table one entry at
a time through `apply`.  The inputs are the built-in algebras, their HS
closures and seeded random algebras of sizes 1-6 with unary to ternary
operations, idempotent or not.  Results must be equal, and where the
reference raises, the library must raise the same type with the same message.
"""

from __future__ import annotations

import itertools
import random

import pytest

import reference_tables as ref
from helpers import all_partitions
from taylor_edges.algebra import (
    FiniteAlgebra,
    OperationTable,
    enumerate_subuniverses,
    induced_subalgebra,
    product_algebra,
    quotient_algebra,
)
from taylor_edges.catalog import builtin_algebras, two_element_majority, z2_minority
from taylor_edges.congruences import is_congruence, is_homomorphism, unary_polynomials
from taylor_edges.csp import ConsistentMapSet, Instance, retract_instance
from taylor_edges.errors import PreconditionViolated
from taylor_edges.terms import TermOperation, condition_checks, push_to_quotient

SIGNATURES = [
    (("u", 1),),
    (("g", 2),),
    (("f", 3),),
    (("u", 1), ("g", 2)),
    (("g", 2), ("f", 3)),
]


def random_algebra(rng: random.Random, n: int, signature, idempotent: bool) -> FiniteAlgebra:
    ops = []
    for symbol, arity in signature:
        table = [rng.randrange(n) for _ in range(n**arity)]
        if idempotent and n > 1:
            stride = (n**arity - 1) // (n - 1)
            for a in range(n):
                table[a * stride] = a
        ops.append(OperationTable(symbol, arity, tuple(table)))
    return FiniteAlgebra(f"r{n}{'i' if idempotent else 'n'}", n, tuple(ops))


RANDOM = [
    random_algebra(random.Random(1000 * n + 10 * s + idem), n, sig, bool(idem))
    for n in range(1, 7)
    for s, sig in enumerate(SIGNATURES)
    for idem in (1, 0)
]


@pytest.fixture(scope="module")
def algebras(full_catalog):
    builtins = list(builtin_algebras().values())
    return builtins + [a for a in full_catalog if a not in builtins] + RANDOM


def outcome(build, *args):
    """The built value, or the type and message of what building raised."""
    try:
        return "built", build(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def test_every_subset_restricts_like_the_reference(algebras):
    raised = 0
    for alg in algebras:
        subs = set(enumerate_subuniverses(alg, cap=alg.size).subuniverses)
        for r in range(1, alg.size + 1):
            for subset in map(frozenset, itertools.combinations(range(alg.size), r)):
                got = outcome(induced_subalgebra, alg, subset)
                assert got == outcome(ref.induced_subalgebra, alg, subset), (alg, subset)
                assert (got[0] == "built") == (subset in subs), (alg, subset)
                raised += got[0] == "raised"
    assert raised  # NotClosed is exercised


def test_every_partition_pushes_like_the_reference(algebras):
    kinds = set()
    for alg in algebras:
        terms = [TermOperation(op.arity, op.table) for op in alg.ops]
        for p in all_partitions(alg.size):
            congruence = is_congruence(alg, p)
            assert congruence == ref.is_congruence(alg, p), (alg, p)
            got = outcome(quotient_algebra, alg, p)
            assert got == outcome(ref.quotient_algebra, alg, p), (alg, p)
            assert (got[0] == "built") == congruence
            for t in terms:
                assert push_to_quotient(t, p) == ref.push_to_quotient(t, p), (alg, p, t)
            kinds.add(congruence)
    assert kinds == {True, False}


def test_quotient_by_a_partition_of_another_size_is_refused(z2):
    for p in all_partitions(3):
        assert not is_congruence(z2, p)
        assert outcome(quotient_algebra, z2, p) == outcome(ref.quotient_algebra, z2, p)


def test_pairwise_products_match_the_reference(algebras):
    built = 0
    for a, b in itertools.product(algebras, repeat=2):
        if a.size * b.size > 24 and a.signature == b.signature:
            continue  # keeps the per-entry reference fast
        if a.signature != b.signature and (a.size, b.size) != (2, 3):
            continue  # a few mismatches suffice
        got = outcome(product_algebra, a, b)
        assert got == outcome(ref.product_algebra, a, b), (a, b)
        built += got[0] == "built"
    assert built > 100


def test_all_maps_of_small_algebras_match_the_reference(algebras):
    small = [a for a in algebras if a.size <= 3]
    verdicts = set()
    for src, dst in itertools.product(small, repeat=2):
        for mapping in itertools.product(range(dst.size), repeat=src.size):
            got = is_homomorphism(src, dst, mapping)
            assert got == ref.is_homomorphism(src, dst, mapping), (src, dst, mapping)
            verdicts.add(got)
    assert verdicts == {True, False}


def condition_algebras(algebras):
    products = [
        product_algebra(z2_minority(), two_element_majority()),
        product_algebra(two_element_majority(), z2_minority()),
    ]
    # larger random algebras make the Taylor tests inside slow
    return [a for a in algebras if a.signature == (("f", 3),) and a.size <= 3] + products


def test_condition_checks_match_the_reference(algebras):
    rng = random.Random(31)
    messages = set()
    for alg in condition_algebras(algebras):
        n = alg.size
        triples = list(itertools.product(range(n), repeat=3))
        candidates = [TermOperation(3, alg.ops[0].table)]
        for _ in range(6):
            # conservative tables keep every subuniverse, so they reach the
            # congruence push; arbitrary ones mostly leave a subuniverse
            conservative = tuple(rng.choice(args) for args in triples)
            arbitrary = tuple(rng.randrange(n) for _ in range(n**3))
            candidates += [TermOperation(3, conservative), TermOperation(3, arbitrary)]
        for t in candidates:
            got = outcome(condition_checks, alg, t)
            assert got == outcome(ref.condition_checks, alg, t), (alg, t)
            if got[0] == "raised":
                assert got[1] is PreconditionViolated
                messages.add(got[2])
    assert messages == {
        "t does not preserve a generated subuniverse; not a term operation",
        "t does not respect a congruence; not a term operation",
    }


def retractions(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    return [p for p in unary_polynomials(alg) if all(p[p[x]] == p[x] for x in range(alg.size))]


def test_retracted_instances_match_the_reference(algebras):
    rng = random.Random(17)
    groups: dict[tuple, list[FiniteAlgebra]] = {}
    for alg in algebras:
        if alg.size <= 3 or alg not in RANDOM:
            # the unary polynomials of larger random algebras are slow to close
            groups.setdefault(alg.signature, []).append(alg)
    shrunk = 0
    for group in groups.values():
        for _ in range(12):
            doms = [rng.choice(group) for _ in range(3)]
            names = ["x", "y", "z"]
            maps = [rng.choice(retractions(d)) for d in doms]
            constraints = []
            for i, j in ((0, 1), (1, 2)):
                pairs = {(rng.randrange(doms[i].size), rng.randrange(doms[j].size))
                         for _ in range(4)}
                pairs |= {(maps[i][a], maps[j][b]) for a, b in pairs}
                constraints.append(((names[i], names[j]), pairs))
            inst = Instance.make("t", list(zip(names, doms)), constraints)
            cm = ConsistentMapSet(tuple(zip(names, maps)))
            got = outcome(retract_instance, inst, cm)
            assert got == outcome(ref.retract_instance, inst, cm), (doms, maps)
            assert got[0] == "built"
            shrunk += any(len(set(m)) < len(m) for m in maps)
    assert shrunk
