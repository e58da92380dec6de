"""The homomorphism search and the principal-congruence closure as they
stood before they were rewritten on the closure engine and on table rows,
kept as the reference that `test_homomorphism_closure.py` compares the
library with.

`homomorphisms_between` was a backtracker: assigning an image to the least
unassigned element triggered propagation, which re-applied every operation
to every tuple of assigned elements, and a conflict pruned the branch.
`principal_congruence` applied each operation entry by entry to every
translation of each merged pair.
"""

from __future__ import annotations

import itertools

from taylor_edges.algebra import FiniteAlgebra, Partition, UnionFind
from taylor_edges.congruences import Homomorphism
from taylor_edges.errors import CapExceeded, SignatureMismatch


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Cg(a, b): close the pair under basic-operation translations."""
    n = alg.size
    uf = UnionFind(n)
    union = uf.union
    work = [(a, b)]
    union(a, b)
    while work:
        u, v = work.pop()
        for op in alg.ops:
            k = op.arity
            for pos in range(k):
                for rest in itertools.product(range(n), repeat=k - 1):
                    args_u = rest[:pos] + (u,) + rest[pos:]
                    args_v = rest[:pos] + (v,) + rest[pos:]
                    x, y = op.apply(*args_u), op.apply(*args_v)
                    if union(x, y):
                        work.append((x, y))
    return uf.partition()


def homomorphisms_between(
    src: FiniteAlgebra, dst: FiniteAlgebra, cap: int = 10**6
) -> tuple[Homomorphism, ...]:
    """All homomorphisms src -> dst by backtracking with forward propagation.

    Assigning a value to an unassigned element triggers propagation: every
    operation application whose arguments are all assigned forces the value
    of its result, and conflicts prune the branch.
    """
    if src.signature != dst.signature:
        raise SignatureMismatch(
            f"{src.name} and {dst.name} have different signatures"
        )
    n = src.size
    found: list[Homomorphism] = []
    nodes = 0

    def propagate(mapping: dict[int, int]) -> dict[int, int] | None:
        mapping = dict(mapping)
        changed = True
        while changed:
            changed = False
            for op_s, op_d in zip(src.ops, dst.ops):
                for args in itertools.product(sorted(mapping), repeat=op_s.arity):
                    res = op_s.apply(*args)
                    val = op_d.apply(*(mapping[a] for a in args))
                    if res in mapping:
                        if mapping[res] != val:
                            return None
                    else:
                        mapping[res] = val
                        changed = True
        return mapping

    def extend(mapping: dict[int, int]):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"homomorphism search exceeded {cap} nodes")
        free = [x for x in range(n) if x not in mapping]
        if not free:
            found.append(Homomorphism(src, dst, tuple(mapping[x] for x in range(n))))
            return
        x = free[0]
        for v in range(dst.size):
            trial = propagate({**mapping, x: v})
            if trial is not None:
                extend(trial)

    extend({})
    uniq = sorted({h.mapping for h in found})
    return tuple(Homomorphism(src, dst, m) for m in uniq)
