"""The universal-meet constructions and quotient pushes as they stood before
they were merged into one copy each, kept as the reference that
`test_shared_constructions.py` compares the library with.

There were two universal-meet constructions: `universal_meet`, which iterates
the tables of one algebra, and `_joint_universal_meet_cached`, which iterates
a term tree over several algebras and re-evaluates the tree at every step.
There were two pushes of a term to a quotient: `_push_binary` for binary
terms and `_push_term_to_quotient` for ternary ones.  The library must give
the same tables, the same trees and the same exponents.
"""

from __future__ import annotations

import itertools

import numpy as np

from taylor_edges.algebra import FiniteAlgebra, generate_subproduct
from taylor_edges.csp import JointMeet
from taylor_edges.errors import CapExceeded, NoCyclicWitness
from taylor_edges.terms import (
    TermOperation,
    TermTree,
    UniversalMeet,
    Var,
    evaluate_tree_table,
    projection_table,
    substitute,
    taylor_report,
)


def _iterate_first_slot(table: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Least k with T_k(x, T_k(x, y)) = T_k(x, y), where T_{i+1}(x,y)=T(x,T_i(x,y))."""
    rows = np.arange(n)[:, None]
    t_i = table.copy()
    k = 1
    while True:
        if np.array_equal(t_i[rows, t_i], t_i):
            return t_i, k
        t_i = table[rows, t_i]
        k += 1
        if k > 1 << 20:  # unreachable for finite tables; guards a logic bug
            raise AssertionError("first-slot iteration failed to stabilize")


def universal_meet(alg: FiniteAlgebra, cap: int = 4096) -> UniversalMeet:
    """Construct the binary term f from a cyclic witness.

    Steps: t(x,y) := c(x,y,..,y); iterate in the first variable to the least
    idempotent power t_k; q(x,y) := t_k(x, t_k(y,x)); iterate q likewise to
    q_j =: f.  Both defining identities are then verified on the full table.
    """
    report = taylor_report(alg, cap=cap)
    if not report.has_taylor:
        raise NoCyclicWitness(f"{alg.name} has no cyclic witness within caps")
    c = report.witness
    n = alg.size
    p = c.arity

    t_table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            t_table[x, y] = c.apply(*((x,) + (y,) * (p - 1)))
    t_tree = None
    if c.tree is not None:
        t_tree = substitute(c.tree, {i: Var(1) for i in range(1, p)})

    t_k, k_exp = _iterate_first_slot(t_table, n)

    def iter_tree(base: TermTree | None, exponent: int) -> TermTree | None:
        if base is None:
            return None
        out = base
        for _ in range(exponent - 1):
            out = substitute(base, {1: out})
        return out

    t_k_tree = iter_tree(t_tree, k_exp)

    q_table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            q_table[x, y] = t_k[x, t_k[y, x]]
    q_tree = None
    if t_k_tree is not None:
        inner = substitute(t_k_tree, {0: Var(1), 1: Var(0)})
        q_tree = substitute(t_k_tree, {1: inner})

    f_table, j_exp = _iterate_first_slot(q_table, n)
    f_tree = iter_tree(q_tree, j_exp)

    rows = np.arange(n)[:, None]
    if not np.array_equal(f_table[rows, f_table], f_table):
        raise AssertionError("universal meet lost f(x,f(x,y)) = f(x,y)")
    if not np.array_equal(f_table[f_table, rows], f_table):
        raise AssertionError("universal meet lost f(f(x,y),x) = f(x,y)")

    f = TermOperation(2, tuple(int(v) for v in f_table.ravel()), f_tree)
    return UniversalMeet(f, p, k_exp, j_exp)


def joint_cyclic_tree(
    algebras: list[FiniteAlgebra], max_arity: int = 7, cap: int = 4096
) -> tuple:
    """A term tree cyclic in every listed algebra simultaneously, found by
    closing joint projection vectors; returns (tree, arity)."""
    if not algebras:
        raise ValueError("need at least one algebra")
    for arity in range(2, max_arity + 1):
        coords: list[FiniteAlgebra] = []
        for a in algebras:
            coords.extend([a] * (a.size**arity))
        seeds = []
        for i in range(arity):
            row: tuple[int, ...] = ()
            for a in algebras:
                row = row + projection_table(a.size, arity, i)
            seeds.append(row)
        try:
            rows, derivs = generate_subproduct(
                coords, seeds, cap=cap, want_derivations=True
            )
        except CapExceeded:
            continue
        trees: list = []
        segments = [(a, a.size**arity) for a in algebras]
        for row, d in zip(rows, derivs):
            if d is None:
                trees.append(Var(seeds.index(tuple(row))))
            else:
                oi, args = d
                trees.append((algebras[0].ops[oi].symbol,) + tuple(trees[i] for i in args))
        for row, tree in zip(rows, trees):
            offset = 0
            cyclic = True
            for a, width in segments:
                seg = TermOperation(arity, tuple(row[offset : offset + width]))
                if not seg.is_cyclic():
                    cyclic = False
                    break
                offset += width
            if cyclic:
                return tree, arity
    raise NoCyclicWitness(
        f"no joint cyclic term of arity <= {max_arity} for "
        f"{[a.name for a in algebras]}"
    )


def _joint_universal_meet_cached(distinct: tuple[FiniteAlgebra, ...], cap: int) -> JointMeet:
    distinct = list(distinct)
    c_tree, arity = joint_cyclic_tree(distinct, cap=cap)
    t_tree = substitute(c_tree, {i: Var(1) for i in range(1, arity)})

    def tables_of(tree):
        return [
            np.asarray(evaluate_tree_table(tree, a, 2), dtype=np.int64).reshape(a.size, a.size)
            for a in distinct
        ]

    def iterate(base_tree):
        base = tables_of(base_tree)
        current = [b.copy() for b in base]
        k = 1
        while True:
            ok = all(
                np.array_equal(t[np.arange(len(t))[:, None], t], t) for t in current
            )
            if ok:
                break
            current = [
                b[np.arange(len(b))[:, None], t] for b, t in zip(base, current)
            ]
            k += 1
            if k > 1 << 20:
                raise AssertionError("joint iteration failed to stabilize")
        out_tree = base_tree
        for _ in range(k - 1):
            out_tree = substitute(base_tree, {1: out_tree})
        return out_tree

    t_k_tree = iterate(t_tree)
    inner = substitute(t_k_tree, {0: Var(1), 1: Var(0)})
    q_tree = substitute(t_k_tree, {1: inner})
    f_tree = iterate(q_tree)

    tables = []
    for a in distinct:
        table = evaluate_tree_table(f_tree, a, 2)
        top = TermOperation(2, table, f_tree)
        n = a.size
        for x in range(n):
            for y in range(n):
                v = top.apply(x, y)
                if top.apply(x, v) != v or top.apply(v, x) != v:
                    raise AssertionError("joint universal meet lost its identities")
        tables.append((a, top))
    return JointMeet(f_tree, tuple(tables))


def _push_binary(t: TermOperation, theta) -> TermOperation | None:
    n = t.size()
    reps = theta.block_representatives()
    k = len(reps)
    table = []
    for bx, by in itertools.product(range(k), repeat=2):
        table.append(theta.blocks_of[t.apply(reps[bx], reps[by])])
    for x, y in itertools.product(range(n), repeat=2):
        if theta.blocks_of[t.apply(x, y)] != table[theta.blocks_of[x] * k + theta.blocks_of[y]]:
            return None
    return TermOperation(2, tuple(table))


def _push_term_to_quotient(t: TermOperation, theta) -> TermOperation | None:
    n = t.size()
    reps = theta.block_representatives()
    k = len(reps)
    table = []
    for blocks in itertools.product(range(k), repeat=3):
        val = theta.blocks_of[t.apply(*(reps[b] for b in blocks))]
        table.append(val)
    # well-definedness: every representative choice must agree
    for args in itertools.product(range(n), repeat=3):
        blocks = tuple(theta.blocks_of[a] for a in args)
        idx = (blocks[0] * k + blocks[1]) * k + blocks[2]
        if theta.blocks_of[t.apply(*args)] != table[idx]:
            return None
    return TermOperation(3, tuple(table))
