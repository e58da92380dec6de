"""The closure engine against its reference implementation.

`reference_closure.generate_subproduct` is the engine as it stood before the
two-tier rewrite.  The library must return the same rows in the same order,
the same derivations, and, when a cap trips, the same partial set.  Each case
runs with the tier thresholds as shipped and with every block forced into the
narrow tier or into the wide tier, so both tiers and their mixing are covered.
"""

from __future__ import annotations

import itertools
import random

import pytest

import reference_closure
from taylor_edges import algebra
from taylor_edges.algebra import (
    FiniteAlgebra,
    OperationTable,
    generate_subproduct,
    power_algebra,
    product_algebra,
    sg_closure,
)
from taylor_edges.catalog import a1, two_element_majority
from taylor_edges.edges import compute_edges
from taylor_edges.errors import CapExceeded

SIGNATURES = [
    (("f", 3),),
    (("g", 2),),
    (("g", 2), ("f", 3)),
    (("u", 1), ("g", 2)),
]
CAPS = (None, 2, 5, 17, 60)


def random_algebra(rng: random.Random, n: int, signature) -> FiniteAlgebra:
    """A random idempotent algebra on n elements."""
    ops = []
    for symbol, arity in signature:
        table = [rng.randrange(n) for _ in range(n**arity)]
        stride = (n**arity - 1) // (n - 1)
        for a in range(n):
            table[a * stride] = a
        ops.append(OperationTable(symbol, arity, tuple(table)))
    return FiniteAlgebra(f"random{n}", n, tuple(ops))


def outcome(engine, coords, seeds, cap):
    """(rows, derivations) of a closure, or the partial set and message of its cap."""
    try:
        return "closed", engine(coords, seeds, cap=cap, want_derivations=True)
    except CapExceeded as exc:
        return "capped", exc.partial, str(exc)


@pytest.fixture(params=["shipped", "narrow", "wide"])
def tier(request, monkeypatch):
    if request.param == "narrow":
        monkeypatch.setattr(algebra, "_NARROW_BLOCK_WORK", 1 << 62)
    elif request.param == "wide":
        monkeypatch.setattr(algebra, "_NARROW_BLOCK_WORK", 0)
    return request.param


def narrow_cases():
    """Seeded closures over 1-4 coordinates of random algebras of sizes 2-6."""
    rng = random.Random(20260418)
    cases = []
    while len(cases) < 150:
        signature = rng.choice(SIGNATURES)
        algs = [random_algebra(rng, rng.randint(2, 6), signature) for _ in range(rng.randint(1, 2))]
        coords = [rng.choice(algs) for _ in range(rng.randint(1, 4))]
        space = 1
        for c in coords:
            space *= c.size
        max_arity = max(arity for _, arity in signature)
        if space > (48 if max_arity == 3 else 216):
            continue  # keeps the reference engine fast
        seeds = [tuple(rng.randrange(c.size) for c in coords) for _ in range(rng.randint(1, 3))]
        cases.append((coords, seeds))
    return cases


def test_narrow_closures_match_reference(tier):
    for coords, seeds in narrow_cases():
        for cap in CAPS:
            got = outcome(generate_subproduct, coords, seeds, cap)
            want = outcome(reference_closure.generate_subproduct, coords, seeds, cap)
            assert got == want, (tier, [c.size for c in coords], seeds, cap)


@pytest.mark.parametrize("signature, seed, cap", [
    ((("g", 2),), 4, None),  # closes at 83 rows
    ((("g", 2),), 4, 20),
    ((("g", 2),), 4, 60),
    ((("g", 2), ("f", 3)), 7, 40),
    ((("g", 2), ("f", 3)), 7, 150),
])
def test_wide_closure_matches_reference(tier, signature, seed, cap, monkeypatch):
    # the 9-coordinate closure of the projections of alg^(3^2), i.e. the
    # binary part of the clone; a small chunk budget splits its blocks into
    # many chunks, so a cap trips in the middle of a block
    monkeypatch.setattr(algebra, "_CHUNK_BUDGET", 1 << 10)
    monkeypatch.setattr(reference_closure, "_CHUNK_BUDGET", 1 << 10)
    alg = random_algebra(random.Random(seed), 3, signature)
    n, k = alg.size, 2
    coords = [alg] * n**k
    seeds = [tuple(t[i] for t in itertools.product(range(n), repeat=k)) for i in range(k)]
    got = outcome(generate_subproduct, coords, seeds, cap)
    want = outcome(reference_closure.generate_subproduct, coords, seeds, cap)
    assert got == want
    assert got[0] == ("closed" if cap is None else "capped")


def test_mixed_coordinate_algebras_in_wide_tier(monkeypatch):
    # distinct coordinate algebras with distinct sizes exercise the stacked
    # table's per-coordinate offsets and size multipliers
    monkeypatch.setattr(algebra, "_NARROW_BLOCK_WORK", 0)
    rng = random.Random(11)
    algs = [random_algebra(rng, n, (("g", 2), ("f", 3))) for n in (2, 3, 5)]
    coords = [algs[0], algs[1], algs[2], algs[1]]
    seeds = [(0, 1, 4, 2), (1, 0, 2, 0), (1, 2, 0, 1)]
    for cap in (None, 10, 50):
        got = outcome(generate_subproduct, coords, seeds, cap)
        want = outcome(reference_closure.generate_subproduct, coords, seeds, cap)
        assert got == want


def reference_sg(alg: FiniteAlgebra, seed) -> frozenset:
    rows = reference_closure.generate_subproduct([alg], [(a,) for a in sorted(seed)])
    return frozenset(r[0] for r in rows)


def nonempty_subsets(n: int):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(n), r)


def test_set_closure_matches_reference_on_catalog(full_catalog):
    for alg in full_catalog:
        for subset in nonempty_subsets(alg.size):
            want = reference_sg(alg, subset)
            assert sg_closure(alg, subset) == want, (alg.name, subset)
            assert algebra._closure_mask(alg, frozenset(subset)) == want, (alg.name, subset)


def test_set_closure_matches_reference_on_random_algebras():
    # random tables are far from symmetric, so an argument position the
    # closure skipped would show; sizes 9-12 sample their seeds
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 6, 9, 12):
        for signature in SIGNATURES:
            alg = random_algebra(rng, n, signature)
            if n <= 6:
                seeds = [frozenset(s) for s in nonempty_subsets(n)]
            else:
                seeds = [frozenset(rng.sample(range(n), rng.randint(1, 3))) for _ in range(30)]
            for seed in seeds:
                assert algebra._closure_mask(alg, seed) == reference_sg(alg, seed), (n, seed)


def test_set_closure_matches_reference_on_products():
    # 16 and 32 elements, larger than the catalog and random algebras above
    majority = two_element_majority()
    for alg in (product_algebra(a1(), a1()), product_algebra(a1(), power_algebra(majority, 3))):
        rng = random.Random(alg.size)
        for _ in range(40):
            seed = frozenset(rng.sample(range(alg.size), rng.randint(1, 3)))
            assert algebra._closure_mask(alg, seed) == reference_sg(alg, seed), (alg.name, seed)


def test_derivations_are_built_only_on_request(tier, monkeypatch):
    # a closure without want_derivations never builds an argument tuple, a
    # set closure included; one with it still returns the reference's
    calls = []
    block_args = algebra._block_args

    def spy(q, ranges):
        calls.append(q)
        return block_args(q, ranges)

    monkeypatch.setattr(algebra, "_block_args", spy)
    for coords, seeds in narrow_cases()[:50]:
        rows, derivs = reference_closure.generate_subproduct(coords, seeds, want_derivations=True)
        assert generate_subproduct(coords, seeds) == rows
        assert algebra._closure_mask(coords[0], frozenset(s[0] for s in seeds))
        assert calls == []
        assert generate_subproduct(coords, seeds, want_derivations=True) == (rows, derivs)
        assert len(calls) == sum(d is not None for d in derivs)
        calls.clear()


def test_default_caps_leave_unknown_edges():
    # at the default caps, 24 of the 56 ordered pairs of a1 x majority2 hit a
    # closure cap; the decided edges must stay exactly as they are
    graph = compute_edges(product_algebra(a1(), two_element_majority()))
    assert len(graph.unknown) == 24
    assert len(graph.proper("as")) == 18
    assert len(graph.proper("sm")) == 14
    assert len(graph.proper("s")) == 6
