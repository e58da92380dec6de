"""Homomorphisms as subuniverses of src x dst, and principal congruences
from table rows, against the reference backtracker and per-entry closure in
`reference_homomorphisms`."""

import itertools
import random

import pytest

import reference_homomorphisms as ref
from test_theory import z2_with_absorbing_top
from taylor_edges.algebra import FiniteAlgebra, OperationTable, product_algebra
from taylor_edges.catalog import builtin_algebras
from taylor_edges.congruences import homomorphisms_between, principal_congruence
from taylor_edges.csp import Template
from taylor_edges.errors import SignatureMismatch

SIGNATURES = (
    (("f", 2),),
    (("f", 3),),
    (("f", 2), ("g", 3)),
    (("f", 2), ("g", 2)),
)


def random_algebra(rng: random.Random, n: int, signature, idempotent: bool) -> FiniteAlgebra:
    ops = []
    for symbol, arity in signature:
        table = [rng.randrange(n) for _ in range(n**arity)]
        if idempotent:
            for a in range(n):
                table[a * sum(n**i for i in range(arity))] = a
        ops.append(OperationTable(symbol, arity, tuple(table)))
    return FiniteAlgebra(f"random{n}", n, tuple(ops))


def random_group(seed: int, signature, count: int = 15) -> list[FiniteAlgebra]:
    """`count` seeded algebras of sizes 1-5 in one signature, idempotent or not."""
    rng = random.Random(seed)
    return [
        random_algebra(rng, rng.randint(1, 5), signature, rng.random() < 0.5)
        for _ in range(count)
    ]


def catalog_groups() -> dict[str, list[FiniteAlgebra]]:
    """Signature groups of the built-ins' HS closures, z2top x majority2's HS
    closure, and the products of built-ins."""
    b = builtin_algebras()
    ternary = [b["z2minority"], b["majority2"], b["a1"]]
    products = [
        product_algebra(x, y) for x, y in itertools.combinations_with_replacement(ternary, 2)
    ]
    z2top = product_algebra(z2_with_absorbing_top(), b["majority2"])
    return {
        "ternary-hs": list(Template.hs_closure(ternary).members),
        "semilattice-hs": list(Template.hs_closure([b["semilattice2"]]).members),
        "z2top-x-majority2-hs": list(Template.hs_closure([z2top], size_cap=z2top.size).members),
        "products": [a for a in products if a.size <= 8] + ternary,
    }


GROUPS = {
    **catalog_groups(),
    **{f"random-{i}": random_group(i, sig) for i, sig in enumerate(SIGNATURES)},
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_homomorphisms_match_the_reference(group):
    algs = GROUPS[group]
    for src, dst in itertools.product(algs, repeat=2):
        got = homomorphisms_between(src, dst)
        assert got == ref.homomorphisms_between(src, dst), (src, dst)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_principal_congruences_match_the_reference(group):
    for alg in GROUPS[group]:
        for a, b in itertools.product(range(alg.size), repeat=2):
            assert principal_congruence(alg, a, b) == ref.principal_congruence(alg, a, b)


def test_signature_mismatch_raises_as_the_reference():
    src, dst = GROUPS["random-0"][0], GROUPS["random-1"][0]
    for search in (homomorphisms_between, ref.homomorphisms_between):
        with pytest.raises(SignatureMismatch, match="different signatures"):
            search(src, dst)


def test_random_groups_cover_unequal_sizes_and_trivial_algebras():
    for i in range(len(SIGNATURES)):
        sizes = {a.size for a in GROUPS[f"random-{i}"]}
        assert 1 in sizes and len(sizes) >= 3, sizes
