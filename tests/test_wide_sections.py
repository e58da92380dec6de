"""Wide chunks evaluate each distinct prefix section once.

In a block of op t the argument tuple at a position is (prefix, l): the
prefix fixes one *section*, the unary maps z -> t(prefix at c, z) of every
coordinate c, and a chunk skips a prefix when an earlier prefix of the round,
for the same op and the same range of l, had the same section.  These tests
hold the engine to `reference_closure.generate_subproduct` (rows, their order,
derivations, and the partial set and message of a capped closure), and count
the skipped prefixes through a spy against a plain-Python replay of that
rule, so they fail both when deduplication is off and when it skips a prefix
it must evaluate.
"""

from __future__ import annotations

import importlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import reference_closure
from test_closure_engine import outcome, random_algebra
from taylor_edges import algebra
from taylor_edges.algebra import FiniteAlgebra, OperationTable, Partition, generate_subproduct
from taylor_edges.catalog import a1

SIGNATURE = (("u", 1), ("g", 2), ("f", 3))
SMALL_BUDGET = 1 << 10  # chunks of 1024 positions, which split prefixes


def affine(n: int) -> FiniteAlgebra:
    """Idempotent affine operations of Z_n: u(x) = x, g(x,y) = x (n = 2) or
    2x + 2y (n = 3), f(x,y,z) = x - y + z.  Their clone is small, and f's
    section at a prefix (s, t) depends only on s - t: at (t, t) it is u's."""
    g = {2: lambda x, y: x, 3: lambda x, y: (2 * x + 2 * y) % 3}[n]
    ops = [
        OperationTable("u", 1, tuple(range(n))),
        OperationTable("g", 2, tuple(g(x, y) for x, y in itertools.product(range(n), repeat=2))),
        OperationTable("f", 3, tuple((x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3))),
    ]
    return FiniteAlgebra(f"affine{n}", n, tuple(ops))


def with_identity_row(alg: FiniteAlgebra) -> FiniteAlgebra:
    """`alg` with g(0, z) = z: g's section at the all-zero prefix is u's."""
    ops = []
    for op in alg.ops:
        table = list(op.table)
        if op.symbol == "g":
            table[: alg.size] = range(alg.size)
        ops.append(OperationTable(op.symbol, op.arity, tuple(table)))
    return FiniteAlgebra(alg.name + "+id", alg.size, tuple(ops))


def projections(sizes_per_part: list[tuple[int, int]], k: int) -> list[tuple[int, ...]]:
    """The k projections of a product of free-algebra coordinate blocks: for
    each (n, count) part, one coordinate per point of {0..n-1}^k."""
    rows = []
    for i in range(k):
        row = []
        for n, _ in sizes_per_part:
            row += [t[i] for t in itertools.product(range(n), repeat=k)]
        rows.append(tuple(row))
    return rows


def cases():
    """(name, coords, seeds): closures that close, with unary, binary and
    ternary ops in one signature."""
    rng = random.Random(20261019)
    alg3 = with_identity_row(random_algebra(rng, 3, SIGNATURE))
    algs = [with_identity_row(random_algebra(rng, n, SIGNATURE)) for n in (2, 3, 4)]
    z2, z3 = affine(2), affine(3)
    binary = random_algebra(random.Random(4), 3, (("g", 2),))
    return [
        # F(2) of a random binary algebra: 83 rows, most of them found in
        # blocks of many chunks, so a chunk's first, cut prefix finds new rows
        ("binary3 F(2)", [binary] * 9, projections([(3, 9)], 2)),
        # packed rows; g's all-zero prefix repeats u's section
        ("random3^4", [alg3] * 4, [(0, 0, 0, 0), (1, 2, 0, 1), (2, 1, 1, 0)]),
        # mixed sizes: stacked tables with offsets and per-coordinate radices
        ("mixed", [algs[0], algs[1], algs[2], algs[1]], [(0, 0, 0, 0), (1, 2, 3, 1), (1, 0, 2, 2)]),
        # F(4) of Z3: 81 coordinates, rows too wide to pack, so hashed
        ("affine3 F(4)", [z3] * 81, projections([(3, 81)], 4)),
        # F(3) of the variety of Z2 and Z3 together: mixed sizes, many repeats
        ("affine2+3 F(3)", [z3] * 27 + [z2] * 8, projections([(3, 27), (2, 8)], 3)),
    ]


CASE_IDS = [c[0] for c in cases()]


def rounds(rows, derivs):
    """(old, cur) of every round of a closure, from its derivations: a row
    found in round r has an argument found in round r - 1."""
    label = []
    for d in derivs:
        label.append(0 if d is None else 1 + max(label[a] for a in d[1]))
    return [(sum(x < r for x in label), sum(x <= r for x in label)) for r in range(max(label) + 1)]


def replay_skips(coords, rows, derivs, chunk_rows) -> dict[str, int]:
    """The engine's skip rule replayed in plain Python over a closed run with
    every block wide: per chunk, the prefixes that an earlier prefix of the
    round (same op, same range of the last argument) has the same section as.

    "skipped" counts them once per chunk; "blocks", "chunks" and "rounds"
    count the repeats of a section first seen in another block, an earlier
    chunk or an earlier round (which a dict kept across rounds would skip),
    and "ops" the first sections of an op that an earlier op of the round
    had (which a key without the op would skip); "cut" counts chunks that
    start inside a prefix."""
    ops = coords[0].ops
    nested = [[c.ops[oi].nested for c in coords] for oi in range(len(ops))]
    count = dict.fromkeys(("skipped", "blocks", "chunks", "rounds", "ops", "cut"), 0)
    earlier_rounds: set = set()
    for old, cur in rounds(rows, derivs):
        first: dict = {}
        op_of: dict = {}  # (llo, section) -> the first op that had it
        for oi, op in enumerate(ops):
            for p in range(op.arity):
                ranges = [(0, old)] * p + [(old, cur)] + [(0, cur)] * (op.arity - p - 1)
                total = (cur - old) * old**p * cur ** (op.arity - p - 1)
                llo, lhi = ranges[-1]
                span = lhi - llo
                for start in range(0, total, chunk_rows):
                    stop = min(start + chunk_rows, total)
                    count["cut"] += start % span != 0
                    for prefix in range(start // span, (stop - 1) // span + 1):
                        args = algebra._block_args(prefix * span, ranges)[:-1]
                        section = []
                        for c, table in enumerate(nested[oi]):
                            for a in args:
                                table = table[rows[a][c]]
                            section.append(table)
                        key = (oi, llo, tuple(section))
                        had = first.setdefault(key, (p, prefix))
                        if had != (p, prefix):
                            count["skipped"] += 1
                            count["blocks"] += had[0] != p
                            count["chunks"] += had[0] == p and had[1] < start // span
                        else:
                            count["rounds"] += key in earlier_rounds
                            count["ops"] += op_of.setdefault(key[1:], oi) != oi
        earlier_rounds |= first.keys()
    return count


def replay(coords, seeds) -> dict[str, int]:
    rows, derivs = reference_closure.generate_subproduct(coords, seeds, want_derivations=True)
    return replay_skips(coords, rows, derivs, max(1024, algebra._CHUNK_BUDGET // len(coords)))


@pytest.fixture
def all_wide(monkeypatch):
    monkeypatch.setattr(algebra, "_NARROW_BLOCK_WORK", 0)


@pytest.fixture
def skipped(monkeypatch):
    """A list whose one entry counts the prefixes `_WideTables.keep` skips."""
    count = [0]
    keep = algebra._WideTables.keep

    def spy(self, *args):
        mask = keep(self, *args)
        count[0] += len(mask) - int(np.count_nonzero(mask))
        return mask

    monkeypatch.setattr(algebra._WideTables, "keep", spy)
    return count


def small_chunks(monkeypatch):
    monkeypatch.setattr(algebra, "_CHUNK_BUDGET", SMALL_BUDGET)
    monkeypatch.setattr(reference_closure, "_CHUNK_BUDGET", SMALL_BUDGET)


@pytest.mark.parametrize("case", range(len(CASE_IDS)), ids=CASE_IDS)
@pytest.mark.parametrize("budget", ["shipped", "small"])
def test_sections_match_reference_and_skip_exactly(case, budget, all_wide, skipped, monkeypatch):
    if budget == "small":
        small_chunks(monkeypatch)
    _, coords, seeds = cases()[case]
    got = outcome(generate_subproduct, coords, seeds, None)
    want = outcome(reference_closure.generate_subproduct, coords, seeds, None)
    assert got == want
    assert skipped[0] == replay(coords, seeds)["skipped"]


@pytest.mark.parametrize("case", range(len(CASE_IDS)), ids=CASE_IDS)
def test_capped_partials_match_reference(case, all_wide, monkeypatch):
    small_chunks(monkeypatch)
    _, coords, seeds = cases()[case]
    rows = reference_closure.generate_subproduct(coords, seeds)
    for cap in sorted({len(seeds) + 1, len(rows) // 3, len(rows) // 2, len(rows) - 1}):
        got = outcome(generate_subproduct, coords, seeds, cap)
        want = outcome(reference_closure.generate_subproduct, coords, seeds, cap)
        assert got == want, cap
        assert got[0] == "capped"


def test_cases_repeat_sections_everywhere(monkeypatch):
    # the cases above must exercise each kind of repeat the rule handles,
    # and chunks that cut a prefix
    small_chunks(monkeypatch)
    totals = dict.fromkeys(("skipped", "blocks", "chunks", "rounds", "ops", "cut"), 0)
    for _, coords, seeds in cases():
        count = replay(coords, seeds)
        for k in totals:
            totals[k] += count[k]
    assert all(totals.values()), totals


@pytest.mark.parametrize("sections", [0, 3])
def test_section_dict_byte_bound(sections, all_wide, skipped, monkeypatch):
    # a dict that holds no section, or fills after three, only evaluates more
    # prefixes: the rows, derivations and partials stay the same, and equal
    # sections within one slice of a chunk are still skipped
    small_chunks(monkeypatch)
    bounded = unbounded = 0
    for _, coords, seeds in cases():
        unbounded += replay(coords, seeds)["skipped"]
        width = algebra._WideTables(coords, [c.size for c in coords]).sections.width
        monkeypatch.setattr(algebra, "_SECTION_BUDGET", sections * width)
        for cap in (None, 40):
            skipped[0] = 0
            got = outcome(generate_subproduct, coords, seeds, cap)
            want = outcome(reference_closure.generate_subproduct, coords, seeds, cap)
            assert got == want, cap
            if cap is None:
                bounded += skipped[0]
    assert 0 < bounded < unbounded


def test_centralizer_condition_memory_peak():
    # the matrix-method closure of C(1,1) on a1 runs over 4 coordinates in
    # chunks of a million positions; no per-chunk array may scale with that
    congruences = importlib.import_module("taylor_edges.congruences")
    alg = a1()
    one = Partition.one(alg.size)
    tracemalloc.start()
    try:
        holds = congruences.centralizer_condition.__wrapped__(alg, one, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds is False
    assert peak <= 8 << 20, peak
