"""The wide tier's chunk keys against the reference engine.

A wide chunk collapses to its distinct rows through a narrow integer key:
a mixed-radix value in the narrowest unsigned dtype that holds it when the
product of the coordinate sizes is at most 2**62, and otherwise a hash of the
row's 8-byte words, checked byte for byte, with an exact fallback.  These
tests hold both keys to `reference_closure.generate_subproduct`: the same
rows in the same order, the same derivations and the same partial set.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import reference_closure
from test_closure_engine import outcome, random_algebra
from taylor_edges import algebra
from taylor_edges.algebra import generate_subproduct
from taylor_edges.catalog import z2_minority

SIGNATURE = (("g", 2), ("f", 3))


@pytest.fixture(params=["shipped", "wide"])
def wide_tier(request, monkeypatch):
    if request.param == "wide":
        monkeypatch.setattr(algebra, "_NARROW_BLOCK_WORK", 0)
    return request.param


def projections(n: int, k: int) -> list[tuple[int, ...]]:
    """The k projections of {0..n-1}^k, as rows over its n**k points."""
    return [tuple(t[i] for t in itertools.product(range(n), repeat=k)) for i in range(k)]


def assert_matches_reference(coords, seeds, caps):
    for cap in caps:
        got = outcome(generate_subproduct, coords, seeds, cap)
        want = outcome(reference_closure.generate_subproduct, coords, seeds, cap)
        assert got == want, ([c.size for c in coords], cap)


def test_hashed_closure_of_minority_projections(wide_tier):
    # 64 coordinates of a 2-element algebra: 2**64 rows do not pack, so every
    # wide chunk is hashed; the closure is the 32 affine maps
    coords = [z2_minority()] * 64
    assert algebra._WideTables(coords, [2] * 64).rows.key_dtype is None
    seeds = projections(2, 6)
    assert len(generate_subproduct(coords, seeds)) == 32
    assert_matches_reference(coords, seeds, (None, 7, 20))


@pytest.mark.parametrize("signature, seed", [((("g", 2),), 4), (SIGNATURE, 7), ((("f", 3),), 3)])
def test_hashed_closure_capped_in_small_chunks(wide_tier, signature, seed, monkeypatch):
    # 3**4 = 81 coordinates of a random 3-element algebra; a 1 KiB chunk
    # budget cuts each block into 1024-row chunks with mostly distinct rows,
    # and the cap trips in the middle of a block
    monkeypatch.setattr(algebra, "_CHUNK_BUDGET", 1 << 10)
    monkeypatch.setattr(reference_closure, "_CHUNK_BUDGET", 1 << 10)
    alg = random_algebra(random.Random(seed), 3, signature)
    coords = [alg] * 81
    assert algebra._WideTables(coords, [3] * 81).rows.key_dtype is None
    assert_matches_reference(coords, projections(3, 4), (50, 300, 2000))


@pytest.mark.parametrize("hash_rows", [
    lambda words, mults: np.zeros(len(words), dtype=np.uint64),  # every row collides
    lambda words, mults: words[:, 0].copy(),  # rows sharing their first word collide
])
def test_hash_collisions_fall_back_to_exact_rows(hash_rows, monkeypatch):
    # a chunk whose hash groups hold different rows must not lose or merge
    # any of them: the byte check fails and the exact whole-row path runs
    monkeypatch.setattr(algebra, "_hash_rows", hash_rows)
    monkeypatch.setattr(algebra, "_NARROW_BLOCK_WORK", 0)
    assert_matches_reference([z2_minority()] * 64, projections(2, 6), (None, 20))
    monkeypatch.setattr(algebra, "_CHUNK_BUDGET", 1 << 10)
    monkeypatch.setattr(reference_closure, "_CHUNK_BUDGET", 1 << 10)
    alg = random_algebra(random.Random(7), 3, SIGNATURE)
    assert_matches_reference([alg] * 81, projections(3, 4), (300,))


def extreme_rows(sizes: list[int], rng: random.Random) -> np.ndarray:
    """Rows whose keys sit at the ends of the key range and differ only in
    the most significant coordinate, plus random rows, with repeats."""
    top = [s - 1 for s in sizes]
    zero = [0] * len(sizes)
    rows = [top, zero, [0] + top[1:], [1] + zero[1:], top[:-1] + [0]]
    rows += [[rng.randrange(s) for s in sizes] for _ in range(40)]
    rows = [rows[rng.randrange(len(rows))] for _ in range(300)] + rows
    rng.shuffle(rows)
    return np.asarray(rows, dtype=np.uint8)


def exact_first(rows: np.ndarray) -> np.ndarray:
    void = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()
    return np.unique(void, return_index=True)[1]


@pytest.mark.parametrize("sizes, dtype", [
    ([2] * 8, np.uint8),
    ([2] * 9, np.uint16),
    ([2] * 16, np.uint16),
    ([2] * 17, np.uint32),
    ([2] * 32, np.uint32),
    ([2] * 33, np.uint64),
    ([3, 2] * 6, np.uint16),  # 46656 rows
    ([3, 2] * 6 + [2], np.uint32),  # 93312 rows
])
def test_packed_key_dtype_boundaries(wide_tier, sizes, dtype):
    rng = random.Random(len(sizes) * 10 + sizes[-1])
    algs = {n: random_algebra(rng, n, SIGNATURE) for n in set(sizes)}
    coords = [algs[n] for n in sizes]
    keys = algebra._WideTables(coords, sizes).rows
    assert keys.key_dtype is dtype and keys.width == len(sizes)
    # the key of a row must not wrap: rows differing only in the first
    # coordinate, and the largest row, stay apart
    rows = extreme_rows(sizes, rng)
    assert np.array_equal(keys.distinct_first(rows), exact_first(rows))
    seeds = [tuple(rng.randrange(n) for n in sizes) for _ in range(2)]
    seeds.append(tuple(n - 1 for n in sizes))
    assert_matches_reference(coords, seeds, (10, 60))


def test_hashed_distinct_first_on_padded_rows():
    # 8 coordinates of size 255 do not pack; rows are padded to 8-byte words
    sizes = [255] * 8 + [2] * 3
    rng = random.Random(3)
    algs = {n: random_algebra(rng, n, (("u", 1),)) for n in set(sizes)}
    keys = algebra._WideTables([algs[n] for n in sizes], sizes).rows
    assert keys.key_dtype is None and keys.width == 16
    rows = extreme_rows(sizes, rng)
    buf = np.zeros((len(rows), keys.width), dtype=np.uint8)
    buf[:, : len(sizes)] = rows
    assert np.array_equal(keys.distinct_first(buf), exact_first(rows))
