"""`csp.canonical_key` against its reference implementation and against an
independent isomorphism test.

`reference_canonical_key.canonical_key` relabels tables through
`OperationTable.apply`; the library indexes them directly.  Keys must be
equal, invariant under relabelling, and tell non-isomorphic algebras apart.
"""

from __future__ import annotations

import itertools
import random

import reference_canonical_key
from taylor_edges.algebra import FiniteAlgebra, OperationTable
from taylor_edges.csp import canonical_key

MIXED_SIGNATURE = (("u", 1), ("g", 2), ("f", 3))


def relabel(alg: FiniteAlgebra, perm: list[int]) -> FiniteAlgebra:
    """The copy of `alg` in which element a is called perm[a]."""
    n = alg.size
    inv = [0] * n
    for a, p in enumerate(perm):
        inv[p] = a
    ops = []
    for op in alg.ops:
        table = tuple(
            perm[op.apply(*(inv[a] for a in args))]
            for args in itertools.product(range(n), repeat=op.arity)
        )
        ops.append(OperationTable(op.symbol, op.arity, table))
    return FiniteAlgebra(alg.name + "'", n, tuple(ops))


def isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    if a.size != b.size or a.signature != b.signature:
        return False
    return any(relabel(a, list(perm)).ops == b.ops for perm in itertools.permutations(range(a.size)))


def random_algebra(rng: random.Random, n: int) -> FiniteAlgebra:
    """A random idempotent algebra with a unary, a binary and a ternary operation."""
    ops = []
    for symbol, arity in MIXED_SIGNATURE:
        table = [rng.randrange(n) for _ in range(n**arity)]
        stride = (n**arity - 1) // (n - 1) if n > 1 else 1
        for a in range(n):
            table[a * stride] = a
        ops.append(OperationTable(symbol, arity, tuple(table)))
    return FiniteAlgebra(f"random{n}", n, tuple(ops))


def test_matches_reference_on_catalog_templates(full_catalog):
    for alg in full_catalog:
        assert canonical_key(alg) == reference_canonical_key.canonical_key(alg), alg.name


def test_matches_reference_on_mixed_arities():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            alg = random_algebra(rng, n)
            assert canonical_key(alg) == reference_canonical_key.canonical_key(alg)


def test_invariant_under_relabelling(full_catalog):
    rng = random.Random(11)
    for alg in full_catalog:
        perm = list(range(alg.size))
        rng.shuffle(perm)
        assert canonical_key(relabel(alg, perm)) == canonical_key(alg), alg.name


def test_separates_non_isomorphic_members_of_equal_size(full_catalog):
    pairs = 0
    for a, b in itertools.combinations(full_catalog, 2):
        if a.size == b.size and a.signature == b.signature:
            assert not isomorphic(a, b)
            assert canonical_key(a) != canonical_key(b), (a.name, b.name)
            pairs += 1
    assert pairs >= 3
