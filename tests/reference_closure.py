"""The closure engine as it stood before the two-tier rewrite, kept as the
reference that `test_closure_engine.py` compares the library's engine with.

It evaluates every block with numpy: one column at a time, then `np.unique`
over the chunk.  The library must reproduce its rows, their order, the
derivations and the partial set of a capped closure exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from taylor_edges.algebra import FiniteAlgebra
from taylor_edges.errors import CapExceeded, SignatureMismatch

_CHUNK_BUDGET = 1 << 22


def _check_similar(coords: Sequence[FiniteAlgebra]) -> None:
    sig = coords[0].signature
    for c in coords[1:]:
        if c.signature != sig:
            raise SignatureMismatch(
                f"coordinate algebras differ in signature: {sig} vs {c.signature}"
            )


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
    discovery order (seeds first), deterministic.

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
    op_tables = []  # per op: list of per-coordinate numpy tables
    arities = []
    for oi, op in enumerate(coords[0].ops):
        arities.append(op.arity)
        op_tables.append([np.asarray(c.ops[oi].table, dtype=np.uint8) for c in coords])

    index: dict[bytes, int] = {}
    rows: list[tuple[int, ...]] = []
    derivs: list[None | tuple[int, tuple[int, ...]]] = []
    for s in seeds:
        r = tuple(int(v) for v in s)
        if len(r) != m:
            raise ValueError(f"seed {r} has length {len(r)}, expected {m}")
        key = bytes(r)
        if key not in index:
            index[key] = len(rows)
            rows.append(r)
            derivs.append(None)

    arr = np.asarray(rows, dtype=np.uint8).reshape(len(rows), m)
    old = 0  # rows < old were fully processed in earlier rounds
    chunk_rows = max(1024, _CHUNK_BUDGET // max(1, m))
    void_t = np.dtype((np.void, m))
    # rows pack into a single int64 when the coordinate value space is small
    # enough; sorting scalars is much faster than sorting void records
    packable = 1
    for s in sizes:
        packable *= s
        if packable > 1 << 62:
            break
    use_packed = packable <= 1 << 62
    if use_packed:
        strides = np.empty(m, dtype=np.int64)
        acc = 1
        for j in range(m - 1, -1, -1):
            strides[j] = acc
            acc *= sizes[j]

    while old < len(rows):
        cur = len(rows)
        new_rows: list[tuple[int, ...]] = []
        new_derivs: list[tuple[int, tuple[int, ...]]] = []
        for oi, arity in enumerate(arities):
            tables = op_tables[oi]
            # every arity-tuple of indices < cur containing at least one >= old,
            # enumerated once: position p holds the first "new" index
            for p in range(arity):
                ranges = []
                for q in range(arity):
                    if q < p:
                        ranges.append((0, old))
                    elif q == p:
                        ranges.append((old, cur))
                    else:
                        ranges.append((0, cur))
                total = 1
                for lo, hi in ranges:
                    total *= hi - lo
                if total == 0:
                    continue
                for start in range(0, total, chunk_rows):
                    stop = min(start + chunk_rows, total)
                    arg_idx = []
                    rem = np.arange(start, stop, dtype=np.int64)
                    for lo, hi in reversed(ranges):
                        span = hi - lo
                        arg_idx.append(rem % span + lo)
                        rem = rem // span
                    arg_idx.reverse()
                    out = np.empty((stop - start, m), dtype=np.uint8)
                    args = [arr[ai] for ai in arg_idx]
                    for j in range(m):
                        idx = args[0][:, j].astype(np.int64)
                        for a in args[1:]:
                            idx = idx * sizes[j] + a[:, j]
                        out[:, j] = tables[j][idx]
                    # collapse the chunk to its distinct rows before touching
                    # the (python-level) global index
                    if use_packed:
                        packed = out.astype(np.int64) @ strides
                        _, first = np.unique(packed, return_index=True)
                    else:
                        uniq, first = np.unique(
                            np.ascontiguousarray(out).view(void_t).ravel(),
                            return_index=True,
                        )
                    for rr in first:
                        key = out[rr].tobytes()
                        if key not in index:
                            index[key] = cur + len(new_rows)
                            new_rows.append(tuple(int(v) for v in out[rr]))
                            new_derivs.append(
                                (oi, tuple(int(ai[rr]) for ai in arg_idx))
                            )
                    if cap is not None and cur + len(new_rows) > cap:
                        raise CapExceeded(
                            f"closure exceeded cap of {cap} elements "
                            f"({cur + len(new_rows)} found, still growing)",
                            partial=list(rows) + list(new_rows),
                        )
        old = cur
        if new_rows:
            arr = np.concatenate(
                [arr, np.asarray(new_rows, dtype=np.uint8).reshape(len(new_rows), m)]
            )
            rows.extend(new_rows)
            derivs.extend(new_derivs)

    if want_derivations:
        return rows, derivs
    return rows
