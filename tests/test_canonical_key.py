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
from taylor_edges import csp
from taylor_edges.algebra import (
    FiniteAlgebra,
    OperationTable,
    induced_subalgebra,
    power_algebra,
    product_algebra,
)
from taylor_edges.catalog import a1, two_element_majority, z2_minority
from taylor_edges.csp import Template, canonical_key

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


def table_algebra(name: str, n: int, ops) -> FiniteAlgebra:
    """The algebra on {0..n-1} with one operation per (symbol, arity, fn)."""
    return FiniteAlgebra(
        name,
        n,
        tuple(
            OperationTable(symbol, arity, tuple(fn(*args) for args in itertools.product(range(n), repeat=arity)))
            for symbol, arity, fn in ops
        ),
    )


def first(*args):
    return args[0]


def affine(n: int):
    return lambda x, y, z: (x - y + z) % n


# algebras with many automorphisms or many relabelings tied on the first rows,
# where the row filter keeps many survivors for long
SYMMETRIC = [
    table_algebra("projection6", 6, [("f", 3, first)]),
    table_algebra("affine5", 5, [("f", 3, affine(5))]),
    table_algebra("affine7", 7, [("f", 3, affine(7))]),
    table_algebra("chain7", 7, [("g", 2, min)]),
]


def mixed(name: str, n: int, unary, binary, ternary, reverse: bool) -> FiniteAlgebra:
    ops = [("u", 1, unary), ("g", 2, binary), ("f", 3, ternary)]
    return table_algebra(name, n, ops[::-1] if reverse else ops)


def test_matches_reference_with_large_automorphism_groups():
    for alg in SYMMETRIC:
        assert canonical_key(alg) == reference_canonical_key.canonical_key(alg), alg.name


def test_matches_reference_on_mixed_signatures_in_both_orders():
    """A unary, a binary and a ternary operation, listed either way round.
    With projections beside it, the unary operation alone separates the
    relabelings, so in the reversed order the very last row decides."""
    rng = random.Random(13)
    cases = []
    for reverse in (False, True):
        cases.append(mixed("capped_successor", 5, lambda x: min(x + 1, 4), first, first, reverse))
        cases.append(mixed("affine_translate", 5, lambda x: (x + 1) % 5, first, affine(5), reverse))
        cases.append(mixed("chain_retract", 5, lambda x: x // 2, min, first, reverse))
        for n in (2, 3, 4, 5):
            alg = random_algebra(rng, n)
            cases.append(FiniteAlgebra(alg.name, n, alg.ops[::-1] if reverse else alg.ops))
    for alg in cases:
        assert canonical_key(alg) == reference_canonical_key.canonical_key(alg), alg.name


def pattern_counts(alg: FiniteAlgebra) -> tuple[int, int]:
    """The numbers of (x, y) with f(x, y, y) = x and with f(x, y, x) = y:
    isomorphism invariants of a ternary operation f."""
    f = alg.ops[0]
    pairs = list(itertools.product(range(alg.size), repeat=2))
    return sum(f.apply(x, y, y) == x for x, y in pairs), sum(f.apply(x, y, x) == y for x, y in pairs)


def test_invariant_and_separating_at_eight_elements():
    """At n = 8 the reference takes seconds, so only invariance under
    relabelling and separation of non-isomorphic algebras are checked."""
    algs = [
        product_algebra(a1(), two_element_majority()),
        product_algebra(a1(), z2_minority()),
        table_algebra("affine8", 8, [("f", 3, affine(8))]),
        power_algebra(z2_minority(), 3),
    ]
    keys = [canonical_key(alg) for alg in algs]
    rng = random.Random(17)
    for alg, key in zip(algs, keys):
        perm = list(range(8))
        rng.shuffle(perm)
        assert canonical_key(relabel(alg, perm)) == key, alg.name
    assert len({pattern_counts(alg) for alg in algs}) == len(algs)
    assert len(set(keys)) == len(algs)


def test_hs_closure_members_unchanged_under_reference_keys(monkeypatch):
    """The template's members, representatives and order are those that the
    reference keys give, with a six-element seed among the seeds."""
    six = induced_subalgebra(product_algebra(a1(), two_element_majority()), frozenset(range(6)))
    assert six.size == 6
    seeds = [z2_minority(), two_element_majority(), a1(), six]
    members = Template.hs_closure(seeds, size_cap=7).members
    assert max(m.size for m in members) == 6
    monkeypatch.setattr(csp, "canonical_key", reference_canonical_key.canonical_key)
    assert Template.hs_closure(seeds, size_cap=7).members == members
