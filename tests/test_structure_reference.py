"""Structure questions with one answer each, against `reference_structure`,
the versions that asked them separately.

On the built-ins' HS closures and on seeded random algebras of sizes 1-4 in
every signature of `test_closure_engine.SIGNATURES`, the library must give
the reference's answers: Taylor reports, affine reports (with and without a
ternary relation), ternary absorption, bounded projectivity, sampled terms'
verdicts in each absorption scan, relation closedness and the partition
lattice operations.  The one intended difference: where the reference's
`affine_checks` said None ("unknown") for a non-abelian algebra, the library
says False, because a non-abelian algebra is never affine.
"""

import dataclasses
import importlib
import itertools
import random
from operator import itemgetter
from types import SimpleNamespace

import pytest

import reference_structure as ref
from helpers import all_partitions
from test_closure_engine import SIGNATURES, random_algebra
from taylor_edges.algebra import (
    BinaryRelation,
    FiniteAlgebra,
    OperationTable,
    Partition,
    generate_subproduct,
    is_closed,
)
from taylor_edges.errors import TaylorEdgesError
from taylor_edges.terms import free_algebra, taylor_report

# the package re-exports functions that hide some module names
absorption = importlib.import_module("taylor_edges.absorption")
congruences = importlib.import_module("taylor_edges.congruences")


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the library error it raised."""
    try:
        return fn(*args, **kwargs)
    except TaylorEdgesError as exc:
        return type(exc).__name__, str(exc)


def small_random_algebra(rng: random.Random, n: int, signature) -> FiniteAlgebra:
    if n == 1:  # every table on one element is constant
        return FiniteAlgebra("random1", 1, tuple(
            OperationTable(symbol, arity, (0,)) for symbol, arity in signature
        ))
    return random_algebra(rng, n, signature)


def random_inputs() -> list[FiniteAlgebra]:
    rng = random.Random(1)
    return [
        small_random_algebra(rng, n, signature)
        for n in (1, 2, 3, 4)
        for signature in SIGNATURES
        for _ in range(3)
    ]


RANDOM = random_inputs()


@pytest.fixture(scope="module")
def inputs(full_catalog):
    return list(full_catalog) + RANDOM


def subsets(n: int):
    for bits in range(1, 1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def test_taylor_reports_match_the_reference(inputs):
    for alg in inputs:
        got, want = taylor_report(alg), ref.taylor_report(alg)
        assert got == want, alg
        if want.witness is not None:
            assert got.witness.tree == want.witness.tree, alg


def test_affine_checks_match_the_reference_or_say_not_affine(inputs):
    unknown_made_false = 0
    for alg in inputs:
        got, want = congruences.affine_checks(alg), ref.affine_checks(alg)
        if want.is_affine is None and not want.is_abelian:
            want = dataclasses.replace(want, is_affine=False)
            unknown_made_false += 1
        assert got == want, alg
        # "unknown" now only ever means that an abelian algebra's Taylor search was capped
        assert got.is_affine is not None or got.is_abelian, alg
    assert unknown_made_false >= 1


def ternary_relations(rng: random.Random, alg: FiniteAlgebra):
    cube = list(itertools.product(range(alg.size), repeat=3))
    for _ in range(4):
        yield frozenset(rng.sample(cube, rng.randint(0, len(cube))))
        seeds = rng.choices(cube, k=rng.randint(1, 3))
        yield frozenset(generate_subproduct([alg] * 3, seeds))  # closed


def test_affine_checks_with_a_relation_match_the_reference(inputs):
    rng = random.Random(2)
    criteria = set()
    for alg in inputs:
        if alg.size > 3:
            continue
        for r3 in ternary_relations(rng, alg):
            got = outcome(congruences.affine_checks, alg, r3)
            want = outcome(ref.affine_checks, alg, r3)
            if isinstance(want, congruences.AffineReport):
                if want.is_affine is None and not want.is_abelian:
                    want = dataclasses.replace(want, is_affine=False)
                criteria.add(want.r3_criterion)
            else:
                criteria.add(want[0])
            assert got == want, (alg, sorted(r3))
    assert criteria == {True, False, "NotCompatible"}


def test_three_absorption_matches_the_reference(inputs):
    for alg in inputs:
        for subset in subsets(alg.size):
            got = outcome(absorption.is_3_absorbing, alg, subset)
            assert got == outcome(ref.is_3_absorbing, alg, subset), (alg, sorted(subset))


def test_bounded_projectivity_matches_the_reference(inputs):
    for alg in inputs:
        for subset in subsets(alg.size):
            got = absorption.bounded_projectivity(alg, subset)
            assert got == ref.bounded_projectivity(alg, subset), (alg, sorted(subset))


def sampled_terms(rng: random.Random, alg: FiniteAlgebra, k: int, count: int = 40):
    elements = free_algebra(alg, k).elements
    return rng.sample(elements, min(count, len(elements)))


def test_sampled_terms_get_the_reference_verdict_in_each_scan(inputs):
    """Term by term, also in incomplete free algebras, where the searches
    above stop early or do not run."""
    rng = random.Random(5)
    sends_into = absorption._sends_into
    verdicts = set()
    for alg in inputs:
        n = alg.size
        binary, ternary = sampled_terms(rng, alg, 2), sampled_terms(rng, alg, 3)
        for subset in subsets(n):
            for t in binary:
                got = absorption._witnesses_2abs(t, subset, n)
                assert got == ref._witnesses_2abs(t, subset, n), (alg, t, subset)
            for t in ternary:
                got = sends_into(t, subset, absorption._two_of_three)
                want = ref._ternary_witness(SimpleNamespace(elements=(t,)), subset, n)
                assert got == (want is not None), (alg, t, subset)
                verdicts.add(got)
            for t in binary + ternary:
                for i in range(t.arity):
                    got = sends_into(t, subset, itemgetter(i))
                    assert got == ref._coordinate_pulls(t, i, subset), (alg, t, i, subset)
    assert verdicts == {True, False}


def test_is_closed_matches_relation_compatibility():
    rng = random.Random(3)
    answers = set()
    for left in RANDOM:
        right = rng.choice([a for a in RANDOM if a.signature == left.signature])
        square = list(itertools.product(range(left.size), range(right.size)))
        relations = [frozenset()] + [
            frozenset(rng.sample(square, rng.randint(1, len(square)))) for _ in range(6)
        ]
        seeds = rng.choices(square, k=rng.randint(1, 2))
        relations.append(frozenset(generate_subproduct([left, right], seeds)))
        for pairs in relations:
            rel = BinaryRelation(left.size, right.size, pairs)
            want = ref.is_compatible(rel, left, right)
            assert rel.is_compatible(left, right) == want, (left, right, sorted(pairs))
            assert is_closed([left, right], pairs) == want, (left, right, sorted(pairs))
            answers.add(want)
    assert answers == {True, False}


def partition_pairs():
    for n in range(5):
        parts = list(all_partitions(n)) or [Partition(())]
        yield from itertools.product(parts, repeat=2)
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(5, 9)
        yield tuple(
            Partition.normalize([rng.randrange(rng.randint(1, n)) for _ in range(n)])
            for _ in range(2)
        )


def test_partition_join_and_refines_match_the_pairwise_definitions():
    sizes = set()
    for p, q in partition_pairs():
        assert p.join(q) == ref.join(p, q), (p, q)
        assert p.refines(q) == ref.refines(p, q), (p, q)
        sizes.add(p.size)
    assert {0, 1} <= sizes
