"""The isomorphism key as it stood before table indexing, kept as the
reference that `test_canonical_key.py` compares `csp.canonical_key` with.

It relabels every table through `OperationTable.apply`, one entry at a time.
"""

from __future__ import annotations

import itertools

from taylor_edges.algebra import FiniteAlgebra


def canonical_key(alg: FiniteAlgebra) -> tuple:
    """Isomorphism-invariant key: the least relabeled table vector."""
    n = alg.size
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        tables = []
        for op in alg.ops:
            table = tuple(
                perm[op.apply(*(inv[a] for a in args))]
                for args in itertools.product(range(n), repeat=op.arity)
            )
            tables.append(table)
        key = tuple(tables)
        if best is None or key < best:
            best = key
    return (n, alg.signature, best)
