"""Finite idempotent algebras as flat operation tables, plus closure machinery.

Elements are 0-based integers.  A k-ary operation is stored as a flat value
vector of length n^k, indexed row-major with the leftmost argument most
significant, so tables are bit-stable across runs and platforms.

There is one closure engine, `generate_subproduct`: it closes a set of
vectors under coordinatewise application of the basic operations.  Subpowers,
relations, free algebras (via `terms`) and the matrix method (via
`congruences`) all reduce to it, and so does a set closure: `sg_closure` and
`enumerate_subuniverses` close a seed set as the one-coordinate vectors it
consists of.  Each block of argument tuples takes one of two tiers, picked
from its size:

- Narrow blocks.  A block whose argument tuples times coordinates is at most
  `_NARROW_BLOCK_WORK` is evaluated in plain Python over nested tables.
- Wide chunks.  Larger blocks are cut into chunks of `_CHUNK_BUDGET`
  elements.  In a block of op t, each argument prefix (all but the last
  argument) fixes one *section*: per coordinate, the row z -> t(prefix, z)
  of the coordinate's table.  A chunk builds its prefixes' sections with one
  row gather per slice of `_GATHER_SLICE` bytes, skips every prefix whose
  section an earlier prefix of the round had (for the same op and the same
  range of the last argument), and reads the rows of the others from their
  sections with one `np.take` over a per-round index of the argument rows.
  Skipping is exact: a skipped prefix's rows repeat, with the same last
  argument, rows at earlier positions, which are already known or are found
  first in this chunk, so each chunk keeps its new rows, their first
  positions and its cap check.  Repeats are found within a slice by the
  sections' own keys (below) and across slices and chunks by a dict local
  to the round, from exact section bytes to the first (block, prefix) that
  had them, holding at most `_SECTION_BUDGET` bytes; a prefix cut by a chunk
  boundary finds its own entry and is evaluated again in the next chunk.
  The chunk then collapses to its distinct rows with `np.unique` over one
  narrow integer key per row, never over whole rows.
  When the product of the coordinate sizes is at most 2**62 the key is the
  row's mixed-radix value in the narrowest unsigned dtype that holds it.
  Otherwise it is a hash of the row's 8-byte words; every row is then
  checked byte for byte against the first row of its hash group, the groups'
  first rows are sorted among themselves, and any mismatch falls back to
  `np.unique` over whole rows, so no hash value decides a row or an order.

Both tiers keep one contract, so the output does not depend on the tier:

- Rows come in discovery order: the seeds (deduplicated, in given order),
  then round by round.  A round enumerates, per operation and per position p
  of the first argument found in the previous round, the argument tuples in
  row-major order; that (op, p) block is cut into chunks at multiples of the
  chunk size.  A chunk's unseen rows are appended in ascending lexicographic
  order.  Rows found in a round become arguments in the next round.
- A row's derivation is (op index, argument indices) of the first argument
  tuple, in enumeration order, that produced it; it is built only when the
  caller asks for derivations.
- The cap is checked after each chunk: once more than `cap` rows exist,
  `CapExceeded` is raised with every row found so far as `partial`.

Derived tables are read, not evaluated: `flat_indices` lists the flat
positions of every tuple over a list of arguments, and a subalgebra, a
product, a homomorphism test or a relabelling reads the source table at that
list and maps the values.  `push_table` does the same at the least
representatives of a partition's blocks, and is the one congruence test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from operator import eq, getitem
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, NotACongruence, NotClosed, NotSubdirect, SignatureMismatch

# Element budget per vectorized closure chunk; keeps peak memory flat.  The
# chunk boundaries decide which partial set a capped closure returns.
_CHUNK_BUDGET = 1 << 22
# A block of at most this many (argument tuple, coordinate) lookups is
# evaluated in plain Python, where numpy's per-call set-up would dominate.
_NARROW_BLOCK_WORK = 2048
# Bytes of sections built, and 8-byte words compared by the hash check, per
# slice of a wide chunk; small enough to stay in cache.
_GATHER_SLICE = 1 << 17
# Bytes of distinct sections one closure round remembers to skip repeats.
_SECTION_BUDGET = 1 << 22


def table_side(length: int, arity: int) -> int | None:
    """The n with n**arity == length, or None when there is none."""
    n = round(length ** (1.0 / arity))
    # guard against float rounding for the tiny sizes we use
    for cand in (n - 1, n, n + 1):
        if cand >= 1 and cand**arity == length:
            return cand
    return None


@dataclass(frozen=True)
class OperationTable:
    """A k-ary operation on {0..n-1} given by its flat value table."""

    symbol: str
    arity: int
    table: tuple[int, ...]
    # the side n of the table, computed once; None for a malformed length,
    # which validate_algebra reports
    n: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", table_side(len(self.table), self.arity))

    def size(self) -> int:
        if self.n is None:
            raise ValueError(f"table length {len(self.table)} is not a {self.arity}-th power")
        return self.n

    def apply(self, *args: int) -> int:
        n = self.n
        idx = 0
        for a in args:
            idx = idx * n + a
        return self.table[idx]

    @functools.cached_property
    def nested(self) -> tuple:
        """The table as nested tuples: nested[a][b]...[z] is the value at (a, b, ..., z)."""
        out = self.table
        for _ in range(self.arity - 1):
            out = tuple(out[i : i + self.n] for i in range(0, len(out), self.n))
        return out


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite idempotent algebra over elements 0..size-1.

    The name is a label only: equality and hashing read the size and the
    operation tables, so every cache keyed by an algebra holds one entry per
    table set, whatever its name.  A cached result that holds an algebra
    comes back holding the caller's (see `tables_cache`)."""

    name: str = field(compare=False)
    size: int
    ops: tuple[OperationTable, ...]
    # the hash of the tables, computed once: caches keyed by an algebra would
    # otherwise hash every table on every call
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        seen = set()
        for op in self.ops:
            if op.symbol in seen:
                raise ValueError(f"duplicate operation symbol {op.symbol!r}")
            seen.add(op.symbol)
        object.__setattr__(self, "_hash", hash((self.size, self.ops)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between interpreters
        return (type(self), (self.name, self.size, self.ops))

    @property
    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.symbol, op.arity) for op in self.ops)

    def op(self, symbol: str) -> OperationTable:
        for op in self.ops:
            if op.symbol == symbol:
                return op
        raise KeyError(symbol)

    def rename(self, name: str) -> "FiniteAlgebra":
        return FiniteAlgebra(name, self.size, self.ops)


def tables_cache(rebind):
    """An unbounded `functools.lru_cache` for a function whose result holds
    the algebras it was called with.  Equal algebras share an entry whatever
    their names, so each result is passed through `rebind(result, *args)`,
    which returns it holding the caller's own algebras.  `cache_info` is the
    cache's; `__wrapped__` is the uncached function."""

    def decorate(fn):
        cached = functools.lru_cache(maxsize=None)(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            return rebind(cached(*args, **kwargs), *args)

        call.cache_info = cached.cache_info
        return call

    return decorate


def with_algebra(result, alg: FiniteAlgebra, *_):
    """`result` holding `alg` in its `algebra` field, for `tables_cache`."""
    return result if result.algebra is alg else replace(result, algebra=alg)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_algebra; carries failures instead of raising."""

    table_length_errors: tuple[str, ...]
    range_errors: tuple[str, ...]
    idempotency_failures: tuple[tuple[str, int], ...]  # (symbol, witness element)

    @property
    def ok(self) -> bool:
        return not (self.table_length_errors or self.range_errors or self.idempotency_failures)


def validate_algebra(alg: FiniteAlgebra) -> ValidationReport:
    """Check table lengths, entry ranges, and idempotency of every operation."""
    length_errors = []
    range_errors = []
    idem_failures = []
    n = alg.size
    for op in alg.ops:
        expected = n**op.arity
        if len(op.table) != expected:
            length_errors.append(
                f"{op.symbol}: table has {len(op.table)} entries, expected {expected}"
            )
            continue
        if any(not (0 <= v < n) for v in op.table):
            range_errors.append(f"{op.symbol}: entry out of range 0..{n - 1}")
            continue
        stride = (expected - 1) // (n - 1) if n > 1 else 1
        for a in range(n):
            # the constant tuple (a,..,a) sits at flat index a * (n^k-1)/(n-1)
            if op.table[a * stride] != a:
                idem_failures.append((op.symbol, a))
                break
    return ValidationReport(tuple(length_errors), tuple(range_errors), tuple(idem_failures))


# ---------------------------------------------------------------------------
# Closure engine


def _check_similar(coords: Sequence[FiniteAlgebra]) -> None:
    sig = coords[0].signature
    for c in coords[1:]:
        if c is not coords[0] and c.signature != sig:
            raise SignatureMismatch(
                f"coordinate algebras differ in signature: {sig} vs {c.signature}"
            )


def _narrow_block(nested, rows, ranges) -> list[tuple[tuple[int, ...], int]]:
    """Evaluate one block in plain Python over the coordinates' nested tables.

    Returns the block's distinct result rows in ascending order, each with the
    position, in enumeration order, of the first argument tuple producing it.
    """
    # vals holds, per argument prefix, each coordinate's table with the
    # prefix applied; unrolled for the common coordinate counts
    m = len(nested)
    (lo, hi), *rest = ranges
    if m == 1:
        (t0,) = nested
        vals = [(t0[x],) for (x,) in rows[lo:hi]]
        for lo, hi in rest:
            seg = rows[lo:hi]
            vals = [(v0[x],) for (v0,) in vals for (x,) in seg]
    elif m == 2:
        t0, t1 = nested
        vals = [(t0[x], t1[y]) for x, y in rows[lo:hi]]
        for lo, hi in rest:
            seg = rows[lo:hi]
            vals = [(v0[x], v1[y]) for v0, v1 in vals for x, y in seg]
    elif m == 3:
        t0, t1, t2 = nested
        vals = [(t0[x], t1[y], t2[z]) for x, y, z in rows[lo:hi]]
        for lo, hi in rest:
            seg = rows[lo:hi]
            vals = [(v0[x], v1[y], v2[z]) for v0, v1, v2 in vals for x, y, z in seg]
    else:
        vals = [tuple(map(getitem, nested, r)) for r in rows[lo:hi]]
        for lo, hi in rest:
            seg = rows[lo:hi]
            vals = [tuple(map(getitem, v, r)) for v in vals for r in seg]
    # walking backwards, the first position of each row is written last
    return sorted(dict(zip(reversed(vals), range(len(vals) - 1, -1, -1))).items())


def _block_args(q: int, ranges) -> tuple[int, ...]:
    """The argument tuple at position q of a block's enumeration."""
    args = []
    for lo, hi in reversed(ranges):
        q, r = divmod(q, hi - lo)
        args.append(lo + r)
    return tuple(reversed(args))


def _hash_multipliers(count: int) -> np.ndarray:
    """`count` fixed odd 64-bit multipliers (the splitmix64 sequence from 0),
    the same on every run and platform."""
    mask = (1 << 64) - 1
    out, x = [], 0
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31) | 1)
    return np.asarray(out, dtype=np.uint64)


def _hash_rows(words: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """One 64-bit hash per row of 8-byte words: sum of word * multiplier,
    wrapping mod 2**64.  Only groups rows; it never decides an order."""
    return words @ mults


class _RowKeys:
    """Exact grouping of the equal rows of a uint8 buffer by one narrow key per row.

    `radices[j]` bounds the values of column j.  When the product of the
    radices is at most 2**62, a row's key is its mixed-radix value, built by
    Horner steps over the columns of radix above 1 in the narrowest unsigned
    dtype that holds it, and `np.unique` sorts that key (a radix sort for 16
    bits or fewer); key order is lexicographic row order.  Otherwise a buffer
    holds `width` bytes per row, the columns zero-padded to whole 8-byte
    words; each row is hashed from its words with fixed odd multipliers and
    `np.unique` groups the rows by hash.  Every row is then compared byte for
    byte with its group's first row: when all match, the groups are the
    distinct rows; on any mismatch the buffer falls back to `np.unique` over
    whole rows.  Either way no hash value decides a row or an order.
    """

    def __init__(self, radices: Sequence[int]):
        self.radices = list(radices)
        self.cols = [j for j, r in enumerate(radices) if r > 1]  # of the packed key
        product = 1
        for r in radices:
            product *= r
            if product > 1 << 62:
                break
        self.key_dtype = None  # of the mixed-radix key; None when rows are hashed
        self.width = len(radices)  # bytes per row of a buffer
        if product <= 1 << 62:
            for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
                if product <= 1 << 8 * np.dtype(dtype).itemsize:
                    self.key_dtype = dtype
                    break
        else:
            self.width = -(-len(radices) // 8) * 8
            self.mults = _hash_multipliers(self.width // 8)
        self.void_t = np.dtype((np.void, self.width))

    def distinct_first(self, buf: np.ndarray) -> np.ndarray:
        """Positions of the first occurrence of each distinct row, ordered by ascending row."""
        first, _, ordered = self._groups(buf, inverse=False)
        if ordered:
            return first
        return first[np.argsort(buf[first].view(self.void_t).ravel())]

    def first_equal(self, buf: np.ndarray) -> np.ndarray:
        """Per row, the position of the first row equal to it."""
        first, group, _ = self._groups(buf, inverse=True)
        return first[group]

    def _groups(self, buf: np.ndarray, inverse: bool):
        """(first, group, ordered): the first position of each distinct row;
        with `inverse`, each row's index into `first` (else None); and whether
        `first` is in ascending row order."""
        if self.key_dtype is not None:
            cols = self.cols or [0]  # all radices 1: every row is zeros
            key = buf[:, cols[0]].astype(self.key_dtype)
            for j in cols[1:]:
                key *= self.radices[j]
                key += buf[:, j]
            _, first, *group = np.unique(key, return_index=True, return_inverse=inverse)
            return first, group[0] if inverse else None, True
        words = buf.view(np.uint64)
        _, first, group = np.unique(
            _hash_rows(words, self.mults), return_index=True, return_inverse=True
        )
        step = max(1, _GATHER_SLICE // words.shape[1])
        for s in range(0, len(words), step):
            if not np.array_equal(words[s : s + step], words[first[group[s : s + step]]]):
                void = buf.view(self.void_t).ravel()
                _, first, group = np.unique(void, return_index=True, return_inverse=True)
                return first, group, True
        return first, group, False


class _WideTables:
    """Numpy state of one closure's wide chunks.

    In a block of op t, the argument tuple at a position splits into a prefix
    (every argument but the last) and a last argument l.  The prefix fixes,
    per coordinate c, the unary map z -> t(prefix at c, z), which is one row of
    c's table viewed as rows of n_c entries.  A prefix's *section* puts those
    rows side by side, nmax entries per coordinate (zeros past n_c), then
    blocks of zeros up to a whole number of 8-byte words.  Per op, the tables
    of the distinct coordinate algebras are stacked, as rows of nmax entries,
    over one zero row, so a slice of prefixes reads all its sections with one
    row gather: block c of a section is row (offset of c's algebra + the
    prefix's mixed-radix value at c), and the pad blocks read the zero row.

    The row at (prefix, l) is the section read at `idx[l]`, where
    idx[l, c] = c*nmax + arr[l, c], and the columns past m (zero padding of
    hashed rows) point at the zero entry `self.zero`.  `extend` grows `arr`
    and `idx` once per round, and a chunk reads the rows of its evaluated
    prefixes with `np.take(sections, idx[lo:hi], axis=1)`.

    A prefix is skipped when an earlier prefix of the round, for the same op
    and the same range of the last argument, had the same section: each of
    its rows then sits, with the same l, at an earlier position, in this chunk
    or an earlier one, so it is already known or is found first there.  A
    chunk therefore keeps its new rows, their first positions and its cap
    check.  (Within a round every range ends at the round's row count, so
    the range's start names it.)  Sections are built in slices of at most
    _GATHER_SLICE bytes; equal sections within a slice are found by
    `first_equal`, across slices
    and chunks by a dict local to the round, from exact section bytes to the
    first (block, prefix) that had them, holding at most _SECTION_BUDGET bytes
    of sections.  The identity check keeps a prefix that spans a chunk
    boundary: the second chunk finds its own entry and evaluates the rest.
    """

    def __init__(self, coords: Sequence[FiniteAlgebra], sizes: Sequence[int]):
        slot: dict[int, int] = {}  # id(algebra) -> position in `algebras`
        algebras: list[FiniteAlgebra] = []
        for c in coords:
            if id(c) not in slot:
                slot[id(c)] = len(algebras)
                algebras.append(c)
        m = self.m = len(coords)
        nmax = max(sizes)
        self.rows = _RowKeys(sizes)
        self.zero = m * nmax  # a zero entry of every section
        # blocks of nmax entries per section: the m coordinates, then zeros
        self.blocks = m + 1
        while self.blocks * nmax % 8:
            self.blocks += 1
        self.sections = _RowKeys(
            [n if z < n else 1 for n in sizes for z in range(nmax)]
            + [1] * ((self.blocks - m) * nmax)
        )
        # a scalar multiplier keeps numpy's inner loop over the whole slice
        # instead of over one row's m coordinates
        self.mult = sizes[0] if len(set(sizes)) == 1 else np.asarray(sizes, dtype=np.intp)
        # per op: (stacked rows over a zero row, row offsets or None)
        self.ops: list[tuple[np.ndarray, np.ndarray | None]] = []
        for oi in range(len(coords[0].ops)):
            tabs = []
            for a in algebras:
                t = np.zeros((a.size ** (a.ops[oi].arity - 1), nmax), dtype=np.uint8)
                t[:, : a.size] = np.asarray(a.ops[oi].table, dtype=np.uint8).reshape(len(t), a.size)
                tabs.append(t)
            table = np.concatenate(tabs + [np.zeros((1, nmax), dtype=np.uint8)])
            offsets = None
            if len(algebras) > 1:
                starts = np.cumsum([0] + [len(t) for t in tabs[:-1]])
                offsets = starts[[slot[id(c)] for c in coords]].astype(np.intp)
            self.ops.append((table, offsets))
        self.arr = np.empty((0, m), dtype=np.uint8)
        self.idx = np.empty((0, self.rows.width), dtype=np.intp)
        self.columns = np.arange(m, dtype=np.intp) * nmax

    def extend(self, rows: list[tuple[int, ...]]) -> None:
        """Take rows[len(arr):] in as arguments: their bytes and their index rows."""
        fresh = np.asarray(rows[len(self.arr) :], dtype=np.uint8).reshape(-1, self.m)
        idx = np.full((len(fresh), self.rows.width), self.zero, dtype=np.intp)
        np.add(fresh, self.columns, out=idx[:, : self.m])
        self.arr = np.concatenate([self.arr, fresh])
        self.idx = np.concatenate([self.idx, idx])

    def chunk(self, oi: int, block: int, ranges, start: int, stop: int, seen: dict):
        """The distinct rows at positions start..stop-1 of block (op oi,
        block), in ascending order, and a function from the index of one of
        them to the position of its first occurrence in the block.

        Rows of prefixes whose section an earlier prefix had are never
        evaluated.  The chunk collapses to its distinct rows here, before the
        caller touches its (Python-level) index of rows.
        """
        llo, lhi = ranges[-1]
        span = lhi - llo
        first_p, last_p = start // span, (stop - 1) // span
        head = start - first_p * span  # rows of the first prefix in earlier chunks
        tail = stop - last_p * span  # rows of the last prefix in this chunk
        idx = self.idx[llo:lhi]
        buf = np.empty((stop - start, self.rows.width), dtype=np.uint8)
        n = 0

        def put(sections: np.ndarray, lo: int, hi: int) -> None:
            nonlocal n
            count = len(sections) * (hi - lo)
            out = buf[n : n + count].reshape(len(sections), hi - lo, -1)
            np.take(sections, idx[lo:hi], axis=1, out=out)
            n += count

        kept_parts = []
        step = max(1, _GATHER_SLICE // self.sections.width)
        for s in range(first_p, last_p + 1, step):
            prefixes = np.arange(s, min(s + step, last_p + 1))
            sections = self._sections(oi, prefixes, ranges)
            keep = self.keep(sections, prefixes, (oi, llo), block, seen)
            kept = prefixes[keep]
            if not len(kept):
                continue
            kept_parts.append(kept)
            sections = sections[keep]
            # only the chunk's first and last prefix can be cut by its ends
            i = 1 if kept[0] == first_p and head else 0
            j = len(kept) - 1 if kept[-1] == last_p and tail < span else len(kept)
            if i:
                put(sections[:1], head, tail if kept[0] == last_p else span)
            if i < j:
                put(sections[i:j], 0, span)
            if i <= j < len(kept):
                put(sections[j:], 0, tail)
        if not kept_parts:
            return np.empty((0, self.m), dtype=np.uint8), None
        kept = np.concatenate(kept_parts)
        shift = head if kept[0] == first_p else 0
        first = self.rows.distinct_first(buf[:n])

        def position(i: int) -> int:
            d, l = divmod(int(first[i]) + shift, span)
            return int(kept[d]) * span + l

        return buf[first, : self.m], position

    def _sections(self, oi: int, prefixes: np.ndarray, ranges) -> np.ndarray:
        """The sections of some prefixes of a block of op oi, one per row."""
        table, offsets = self.ops[oi]
        rem = prefixes
        args = []
        for lo, hi in reversed(ranges[:-1]):
            rem, r = np.divmod(rem, hi - lo)
            args.append(r + lo)
        at = np.full((len(prefixes), self.blocks), len(table) - 1, dtype=np.intp)
        base = at[:, : self.m]
        base[:] = 0
        for i, x in enumerate(reversed(args)):
            if i:
                base *= self.mult
            base += self.arr[x]
        if offsets is not None:
            base += offsets
        return np.take(table, at, axis=0).reshape(len(prefixes), -1)

    def keep(self, sections: np.ndarray, prefixes: np.ndarray, tag, block: int, seen: dict):
        """Which prefixes of a slice to evaluate: those whose section no
        earlier prefix of the round had, under the same tag (op index, start
        of the last argument's range).  `seen` maps (tag, section bytes) to
        the first (block, prefix) that had them."""
        first = self.sections.first_equal(sections)
        keep = first == np.arange(len(first))
        room = _SECTION_BUDGET // self.sections.width - len(seen)
        plist = prefixes.tolist()
        for i in np.flatnonzero(keep).tolist():
            key = (*tag, sections[i].tobytes())
            had = seen.get(key)
            if had is None:
                if room > 0:
                    seen[key] = (block, plist[i])
                    room -= 1
            elif had != (block, plist[i]):
                keep[i] = False
        return keep


def generate_subproduct(
    coords: Sequence[FiniteAlgebra],
    seeds: Iterable[tuple[int, ...]],
    cap: int | None = None,
    want_derivations: bool = False,
):
    """Close a set of vectors under coordinatewise application of the basic ops.

    `coords` lists the algebra acting on each coordinate (all similar); the
    result is the least superset of `seeds` closed under every operation,
    i.e. the subuniverse of the product generated by the seeds.  Returned in
    discovery order (seeds first), deterministic; the module docstring fixes
    that order.

    With `want_derivations`, also returns per-element provenance:
    None for seeds, else (op_index, arg_element_indices).

    Raises CapExceeded (partial result attached) when more than `cap`
    elements appear.
    """
    m = len(coords)
    _check_similar(coords)
    sizes = [c.size for c in coords]
    if any(s > 255 for s in sizes):
        raise ValueError("coordinate algebras larger than 255 elements are unsupported")
    ops = coords[0].ops
    nested: list[list | None] = [None] * len(ops)  # per op, built by its first narrow block

    index: dict[bytes, int] = {}
    rows: list[tuple[int, ...]] = []
    derivs: list[None | tuple[int, tuple[int, ...]]] = []
    for s in seeds:
        r = tuple(map(int, s))
        if len(r) != m:
            raise ValueError(f"seed {r} has length {len(r)}, expected {m}")
        key = bytes(r)
        if key not in index:
            index[key] = len(rows)
            rows.append(r)
            derivs.append(None)

    old = 0  # rows < old were fully processed in earlier rounds
    chunk_rows = max(1024, _CHUNK_BUDGET // max(1, m))
    wide = None  # built by the first wide block

    while old < len(rows):
        cur = len(rows)
        new_rows: list[tuple[int, ...]] = []
        new_derivs: list[tuple[int, tuple[int, ...]]] = []
        seen: dict = {}  # the round's evaluated sections; see _WideTables

        def check_cap() -> None:
            if cap is not None and cur + len(new_rows) > cap:
                raise CapExceeded(
                    f"closure exceeded cap of {cap} elements "
                    f"({cur + len(new_rows)} found, still growing)",
                    partial=rows + new_rows,
                )

        for oi, op in enumerate(ops):
            # every arity-tuple of indices < cur containing at least one >= old,
            # enumerated once: position p holds the first "new" index
            for p in range(op.arity):
                ranges = [(0, old)] * p + [(old, cur)] + [(0, cur)] * (op.arity - p - 1)
                total = (cur - old) * old**p * cur ** (op.arity - p - 1)
                if total == 0:
                    continue
                # the chunk bound always holds at the shipped constants; with
                # _NARROW_BLOCK_WORK raised, it sends a block larger than one
                # chunk to the wide tier, which keeps the chunked row order
                if total * m <= _NARROW_BLOCK_WORK and total <= chunk_rows:
                    if nested[oi] is None:
                        nested[oi] = [c.ops[oi].nested for c in coords]
                    for row, q in _narrow_block(nested[oi], rows, ranges):
                        key = bytes(row)
                        if key not in index:
                            index[key] = cur + len(new_rows)
                            new_rows.append(row)
                            if want_derivations:
                                new_derivs.append((oi, _block_args(q, ranges)))
                    check_cap()
                    continue
                if wide is None:
                    wide = _WideTables(coords, sizes)
                if len(wide.arr) < cur:
                    wide.extend(rows)
                for start in range(0, total, chunk_rows):
                    stop = min(start + chunk_rows, total)
                    distinct, position = wide.chunk(oi, p, ranges, start, stop, seen)
                    for i, row in enumerate(distinct):
                        key = row.tobytes()
                        if key not in index:
                            index[key] = cur + len(new_rows)
                            new_rows.append(tuple(row.tolist()))
                            if want_derivations:
                                new_derivs.append((oi, _block_args(position(i), ranges)))
                    check_cap()
        old = cur
        rows.extend(new_rows)
        derivs.extend(new_derivs)

    if want_derivations:
        return rows, derivs
    return rows


# ---------------------------------------------------------------------------
# Subuniverse generation and enumeration


def _closure_mask(alg: FiniteAlgebra, seed: frozenset[int]) -> frozenset[int]:
    """Sg(seed) in `alg`: the one-coordinate case of `generate_subproduct`."""
    return frozenset(x for (x,) in generate_subproduct([alg], [(x,) for x in sorted(seed)]))


@functools.lru_cache(maxsize=None)
def _sg_closure_cached(alg: FiniteAlgebra, seed: frozenset) -> frozenset:
    return _closure_mask(alg, seed)


def sg_closure(alg: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Least superset of `seed` closed under all operations of `alg`."""
    fseed = frozenset(seed)
    if not fseed:
        raise ValueError("sg_closure requires a nonempty seed")
    if any(not (0 <= a < alg.size) for a in fseed):
        raise ValueError("seed element out of range")
    return _sg_closure_cached(alg, fseed)


def is_closed(coords: Sequence[FiniteAlgebra], rows: Iterable[tuple[int, ...]]) -> bool:
    """Is the set of `rows` a subuniverse of the product of `coords`?  The
    closure is capped at the set's size, so it stops at the first chunk that
    outgrows the set."""
    rows = sorted(set(rows))
    try:
        generate_subproduct(coords, rows, cap=len(rows))
    except CapExceeded:
        return False
    return True


def is_subuniverse(alg: FiniteAlgebra, subset: Iterable[int]) -> bool:
    fs = frozenset(subset)
    if not fs:
        return True  # no nullary operations, so the empty set is closed
    return sg_closure(alg, fs) == fs


@dataclass(frozen=True)
class SubuniverseEnumeration:
    subuniverses: tuple[frozenset[int], ...]  # lectic order, nonempty
    size: int  # of the enumerated algebra

    @property
    def proper_hypergraph_connected(self) -> bool:
        """Are any two elements linked by a chain of pairwise-intersecting
        proper subuniverses (the hypergraph of proper subuniverses, with
        shared elements as adjacency)?"""
        proper = [s for s in self.subuniverses if len(s) < self.size]
        return _hypergraph_connected(self.size, proper)


@functools.lru_cache(maxsize=None)
def enumerate_subuniverses(alg: FiniteAlgebra, cap: int = 8) -> SubuniverseEnumeration:
    """All nonempty subuniverses by NextClosure over the generation operator."""
    n = alg.size
    if n > cap:
        raise CapExceeded(f"subuniverse enumeration capped at size {cap}, got {n}")

    closed: list[frozenset[int]] = []
    current: frozenset[int] = frozenset()  # no nullary operations: Sg({}) is empty
    while True:
        if current:
            closed.append(current)
        nxt = None
        for i in range(n - 1, -1, -1):
            if i in current:
                continue
            candidate = _closure_mask(alg, frozenset(x for x in current if x < i) | {i})
            if all(x in current for x in candidate if x < i):
                nxt = candidate
                break
        if nxt is None:
            break
        current = nxt

    return SubuniverseEnumeration(tuple(closed), n)


def _hypergraph_connected(n: int, edges: list[frozenset[int]]) -> bool:
    """Are all n vertices joined by chains of pairwise-intersecting edges?"""
    if n <= 1:
        return True
    if set().union(*edges) != set(range(n)):
        return False
    return Partition.from_pairs(n, ((min(e), x) for e in edges for x in e)).is_one()


# ---------------------------------------------------------------------------
# Derived algebras (canonical renumbering fixed for bit-stable output)


def induced_subalgebra(alg: FiniteAlgebra, subset: frozenset) -> FiniteAlgebra:
    """Restrict `alg` to a closed subset; elements renamed by ascending index.
    The tables are cached, the name is the caller's."""
    name = f"{alg.name}|{{{','.join(map(str, sorted(subset)))}}}"
    return FiniteAlgebra(name, len(subset), _induced_tables(alg, subset))


@functools.lru_cache(maxsize=None)
def _induced_tables(alg: FiniteAlgebra, subset: frozenset) -> tuple[OperationTable, ...]:
    elems = sorted(subset)
    if not is_subuniverse(alg, elems):
        raise NotClosed(f"{elems} is not a subuniverse of {alg.name}")
    old_to_new = {e: i for i, e in enumerate(elems)}
    ops = []
    for op in alg.ops:
        values = map(op.table.__getitem__, flat_indices(elems, alg.size, op.arity))
        ops.append(OperationTable(op.symbol, op.arity, tuple(map(old_to_new.__getitem__, values))))
    return tuple(ops)


def quotient_algebra(alg: FiniteAlgebra, partition: "Partition") -> FiniteAlgebra:
    """Quotient by a congruence; blocks renamed by ascending least representative."""
    tables = [push_table(op.table, alg.size, op.arity, partition) for op in alg.ops]
    if partition.size != alg.size or None in tables:
        raise NotACongruence(f"partition {partition.blocks_of} is not a congruence of {alg.name}")
    k = partition.block_count()
    ops = tuple(OperationTable(op.symbol, op.arity, t) for op, t in zip(alg.ops, tables))
    return FiniteAlgebra(f"{alg.name}/theta{k}", k, ops)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product; element (x, y) is numbered x*|B| + y (lexicographic)."""
    if a.signature != b.signature:
        raise SignatureMismatch(f"{a.name} and {b.name} have different signatures")
    nb = b.size
    n = a.size * nb
    left = [x // nb for x in range(n)]
    right = [x % nb for x in range(n)]
    ops = []
    for oa, ob in zip(a.ops, b.ops):
        ta, tb = oa.table, ob.table
        table = tuple(
            ta[i] * nb + tb[j]
            for i, j in zip(
                flat_indices(left, a.size, oa.arity), flat_indices(right, nb, oa.arity)
            )
        )
        ops.append(OperationTable(oa.symbol, oa.arity, table))
    return FiniteAlgebra(f"{a.name}x{b.name}", n, tuple(ops))


def power_algebra(alg: FiniteAlgebra, k: int) -> FiniteAlgebra:
    """Direct power alg^k with lexicographic tuple numbering."""
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    result = alg
    for _ in range(k - 1):
        result = product_algebra(result, alg)
    return result.rename(f"{alg.name}^{k}")


def derive_algebra(alg: FiniteAlgebra, kind: str, argument) -> FiniteAlgebra:
    """Dispatch to the four derivations: subalgebra, quotient, product, power."""
    if kind == "subalgebra":
        return induced_subalgebra(alg, frozenset(argument))
    if kind == "quotient":
        return quotient_algebra(alg, argument)
    if kind == "product":
        return product_algebra(alg, argument)
    if kind == "power":
        return power_algebra(alg, int(argument))
    raise ValueError(f"unknown derivation kind {kind!r}")


def flat_indices(args: Sequence[int], n: int, arity: int) -> list[int]:
    """The flat positions, in a table of side n, of every arity-tuple over
    `args`, listed in row-major order of the tuples' positions in `args`."""
    idxs = [0]
    for _ in range(arity):
        idxs = [q * n + x for q in idxs for x in args]
    return idxs


def push_table(
    table: Sequence[int], n: int, arity: int, partition: "Partition"
) -> tuple[int, ...] | None:
    """The action of a table of side n on the blocks of `partition`, read at
    the blocks' least representatives; None when the table does not respect
    the partition, i.e. blocks_of[t(x)] != pushed[blocks_of[x]] for some x."""
    if partition.size != n:
        return None
    blocks_of = partition.blocks_of
    reps = partition.block_representatives()
    pushed = tuple(map(blocks_of.__getitem__, map(table.__getitem__, flat_indices(reps, n, arity))))
    through = map(pushed.__getitem__, flat_indices(blocks_of, len(reps), arity))
    if not all(map(eq, map(blocks_of.__getitem__, table), through)):
        return None
    return pushed


# ---------------------------------------------------------------------------
# Partitions and binary relations


class UnionFind:
    """Disjoint sets over 0..n-1; the root of each set is its least element."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of x and y; True when they were different sets."""
        find = self.find
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        self.parent[max(rx, ry)] = min(rx, ry)
        return True

    def partition(self) -> "Partition":
        return Partition.normalize([self.find(x) for x in range(len(self.parent))])


@dataclass(frozen=True)
class Partition:
    """A partition of 0..n-1, normalized so block ids appear in first-use order."""

    blocks_of: tuple[int, ...]

    @staticmethod
    def normalize(raw: Sequence[int]) -> "Partition":
        remap: dict[int, int] = {}
        out = []
        for b in raw:
            if b not in remap:
                remap[b] = len(remap)
            out.append(remap[b])
        return Partition(tuple(out))

    @staticmethod
    def zero(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def one(n: int) -> "Partition":
        return Partition((0,) * n)

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        uf = UnionFind(n)
        union = uf.union
        for a, b in pairs:
            union(a, b)
        return uf.partition()

    @property
    def size(self) -> int:
        return len(self.blocks_of)

    def block_count(self) -> int:
        return max(self.blocks_of) + 1 if self.blocks_of else 0

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count())]
        for e, b in enumerate(self.blocks_of):
            out[b].append(e)
        return out

    def block_representatives(self) -> list[int]:
        reps = {}
        for e, b in enumerate(self.blocks_of):
            reps.setdefault(b, e)
        return [reps[b] for b in range(self.block_count())]

    def same(self, a: int, b: int) -> bool:
        return self.blocks_of[a] == self.blocks_of[b]

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b)
            for a in range(self.size)
            for b in range(self.size)
            if self.blocks_of[a] == self.blocks_of[b]
        )

    def is_zero(self) -> bool:
        return self.block_count() == self.size

    def is_one(self) -> bool:
        return self.block_count() <= 1

    def join(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise ValueError("partition size mismatch")
        # tie each element to its block's least element in both partitions
        pairs = []
        for p in (self, other):
            reps = p.block_representatives()
            pairs += [(x, reps[b]) for x, b in enumerate(p.blocks_of)]
        return Partition.from_pairs(self.size, pairs)

    def meet(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise ValueError("partition size mismatch")
        return Partition.normalize(
            [self.blocks_of[x] * (other.block_count() + 1) + other.blocks_of[x]
             for x in range(self.size)]
        )

    def refines(self, other: "Partition") -> bool:
        """Every block of self lies inside a block of other (self <= other)."""
        return len(set(zip(self.blocks_of, other.blocks_of))) == self.block_count()


@dataclass(frozen=True)
class BinaryRelation:
    """A relation between two carriers 0..n_left-1 and 0..n_right-1."""

    n_left: int
    n_right: int
    pairs: frozenset[tuple[int, int]]

    @staticmethod
    def from_pairs(n_left: int, n_right: int, pairs: Iterable[tuple[int, int]]) -> "BinaryRelation":
        ps = frozenset((int(a), int(b)) for a, b in pairs)
        for a, b in ps:
            if not (0 <= a < n_left and 0 <= b < n_right):
                raise ValueError(f"pair ({a},{b}) out of range")
        return BinaryRelation(n_left, n_right, ps)

    @staticmethod
    def full(n_left: int, n_right: int) -> "BinaryRelation":
        return BinaryRelation(
            n_left, n_right,
            frozenset((a, b) for a in range(n_left) for b in range(n_right)),
        )

    def contains(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def left_neighbors(self, b: int) -> frozenset[int]:
        return frozenset(x for x, y in self.pairs if y == b)

    def is_subdirect(self) -> bool:
        return (
            {a for a, _ in self.pairs} == set(range(self.n_left))
            and {b for _, b in self.pairs} == set(range(self.n_right))
        )

    def converse(self) -> "BinaryRelation":
        return BinaryRelation(self.n_right, self.n_left,
                              frozenset((b, a) for a, b in self.pairs))

    def is_reflexive(self) -> bool:
        if self.n_left != self.n_right:
            return False
        return all((a, a) in self.pairs for a in range(self.n_left))

    def is_symmetric(self) -> bool:
        return all((b, a) in self.pairs for a, b in self.pairs)

    def is_compatible(self, alg_left: FiniteAlgebra, alg_right: FiniteAlgebra | None = None) -> bool:
        """Closed under coordinatewise operations (a subuniverse of the product)."""
        alg_right = alg_right or alg_left
        if alg_left.signature != alg_right.signature:
            raise SignatureMismatch("relation sides have different signatures")
        return is_closed([alg_left, alg_right], self.pairs)

    def is_tolerance(self, alg: FiniteAlgebra) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_compatible(alg)


@dataclass(frozen=True)
class LinkStructure:
    tolerance: BinaryRelation          # tol_i, on the chosen side
    link_congruence: Partition         # lk_i, its transitive closure
    tol_connected: bool                # lk_i is the full relation
    has_full_fiber: bool               # some element of the other side sees everything


def link_structure(rel: BinaryRelation, coordinate: int) -> LinkStructure:
    """Link tolerance and link congruence of a subdirect binary relation.

    tol_i relates two elements of side i when they share a neighbor on the
    other side; lk_i is its transitive closure.  `has_full_fiber` reports
    whether some element of the opposite side is related to the whole side i.
    """
    if coordinate not in (1, 2):
        raise ValueError("coordinate must be 1 or 2")
    if not rel.is_subdirect():
        raise NotSubdirect("link structure requires a subdirect relation")
    r = rel if coordinate == 1 else rel.converse()
    n = r.n_left
    pairs = set()
    for b in range(r.n_right):
        fiber = sorted(r.left_neighbors(b))
        for x in fiber:
            for y in fiber:
                pairs.add((x, y))
    tol = BinaryRelation(n, n, frozenset(pairs))
    lk = Partition.from_pairs(n, pairs)
    full_fiber = any(len(r.left_neighbors(b)) == n for b in range(r.n_right))
    return LinkStructure(tol, lk, lk.is_one(), full_fiber)
