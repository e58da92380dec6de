"""Term operations, free algebras, cyclic witnesses, and special terms.

A term operation is a value table over one algebra; where useful it carries a
provenance tree over the basic operation symbols, so the same term can be
re-interpreted in any similar algebra (this is what makes per-instance
constructions in the CSP engine coherent across different domain algebras).

Free algebras are computed as closures of the projection tables under
pointwise application of the basic operations, deduplicated by table, and
canonically ordered (ascending table lexicographic).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FiniteAlgebra,
    OperationTable,
    flat_indices,
    generate_subproduct,
    induced_subalgebra,
    push_table,
    quotient_algebra,
    sg_closure,
    table_side,
    tables_cache,
    with_algebra,
)
from .errors import ArityMismatch, CapExceeded, NoCyclicWitness, PreconditionViolated

# ---------------------------------------------------------------------------
# Term trees: Var(i) leaves and (symbol, children...) tuples, shared as a DAG.


@dataclass(frozen=True)
class Var:
    index: int


TermTree = Var | tuple  # (symbol, child, ..., child)


def tree_arity_ok(tree: TermTree, signature: dict[str, int]) -> bool:
    if isinstance(tree, Var):
        return tree.index >= 0
    symbol, *children = tree
    if symbol not in signature or signature[symbol] != len(children):
        return False
    return all(tree_arity_ok(c, signature) for c in children)


def substitute(tree: TermTree, replacements: dict[int, TermTree]) -> TermTree:
    """Replace variables by subtrees, preserving sharing."""
    memo: dict[int, TermTree] = {}

    def walk(node: TermTree) -> TermTree:
        if isinstance(node, Var):
            return replacements.get(node.index, node)
        key = id(node)
        if key in memo:
            return memo[key]
        out = (node[0],) + tuple(walk(c) for c in node[1:])
        memo[key] = out
        return out

    return walk(tree)


def evaluate_tree_table(tree: TermTree, alg: FiniteAlgebra, arity: int) -> tuple[int, ...]:
    """Interpret a term tree in `alg` as a table of the given arity.

    Evaluates the tree as a DAG: each distinct node is computed once, as a
    numpy vector over all n^arity argument tuples.
    """
    n = alg.size
    m = n**arity
    sig = {op.symbol: op.arity for op in alg.ops}
    if not tree_arity_ok(tree, sig):
        raise ArityMismatch("term tree does not fit the algebra's signature")
    tables = {op.symbol: np.asarray(op.table, dtype=np.int64) for op in alg.ops}
    proj_cache: dict[int, np.ndarray] = {}

    def projection(i: int) -> np.ndarray:
        if i not in proj_cache:
            if i >= arity:
                raise ArityMismatch(f"variable x{i + 1} exceeds arity {arity}")
            tup = np.arange(m, dtype=np.int64)
            proj_cache[i] = (tup // n ** (arity - 1 - i)) % n
        return proj_cache[i]

    memo: dict[int, np.ndarray] = {}

    def walk(node: TermTree) -> np.ndarray:
        if isinstance(node, Var):
            return projection(node.index)
        key = id(node)
        if key in memo:
            return memo[key]
        children = [walk(c) for c in node[1:]]
        idx = children[0].copy()
        for c in children[1:]:
            idx *= n
            idx += c
        out = tables[node[0]][idx]
        memo[key] = out
        return out

    return tuple(int(v) for v in walk(tree))


def evaluate_tree_on(tree: TermTree, alg: FiniteAlgebra, args: tuple[int, ...]) -> int:
    memo: dict[int, int] = {}

    def walk(node: TermTree) -> int:
        if isinstance(node, Var):
            if node.index >= len(args):
                raise ArityMismatch(f"variable x{node.index + 1} has no argument")
            return args[node.index]
        key = id(node)
        if key in memo:
            return memo[key]
        vals = [walk(c) for c in node[1:]]
        out = alg.op(node[0]).apply(*vals)
        memo[key] = out
        return out

    return walk(tree)


# ---------------------------------------------------------------------------
# Term operations and free algebras


@dataclass(frozen=True)
class TermOperation:
    """A k-ary operation table over one algebra, with optional provenance tree."""

    arity: int
    table: tuple[int, ...]
    tree: TermTree | None = field(default=None, compare=False, hash=False, repr=False)
    n: int | None = field(init=False, compare=False, repr=False)  # side, computed once

    def __post_init__(self):
        object.__setattr__(self, "n", table_side(len(self.table), self.arity))

    def size(self) -> int:
        if self.n is None:
            raise ValueError("table length is not a perfect power")
        return self.n

    def apply(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        n = self.n
        idx = 0
        for a in args:
            idx = idx * n + a
        return self.table[idx]

    def is_idempotent(self) -> bool:
        n = self.size()
        return all(self.apply(*(a,) * self.arity) == a for a in range(n))

    def is_cyclic(self) -> bool:
        n = self.size()
        nd = np.asarray(self.table, dtype=np.int64).reshape((n,) * self.arity)
        rotated = np.transpose(nd, axes=tuple(range(1, self.arity)) + (0,))
        return bool(np.array_equal(nd, rotated))

    def essential_coordinates(self) -> tuple[int, ...]:
        n = self.size()
        nd = np.asarray(self.table, dtype=np.int64).reshape((n,) * self.arity)
        out = []
        for i in range(self.arity):
            moved = np.moveaxis(nd, i, 0)
            if any(not np.array_equal(moved[0], moved[v]) for v in range(1, n)):
                out.append(i)
        return tuple(out)


def projection_table(n: int, arity: int, i: int) -> tuple[int, ...]:
    return tuple(args[i] for args in itertools.product(range(n), repeat=arity))


@dataclass(frozen=True)
class FreeAlgebra:
    """The k-generated free algebra over one algebra: its clone's k-ary part."""

    algebra: FiniteAlgebra
    generators: int
    elements: tuple[TermOperation, ...]  # ascending table lexicographic
    complete: bool

    def tables(self) -> frozenset[tuple[int, ...]]:
        return frozenset(t.table for t in self.elements)

    def __contains__(self, table) -> bool:
        if isinstance(table, TermOperation):
            table = table.table
        return tuple(table) in self.tables()

    def find(self, table: tuple[int, ...]) -> TermOperation | None:
        table = tuple(table)
        for t in self.elements:
            if t.table == table:
                return t
        return None


def derivation_trees(ops, seeds: list, rows: list, derivs: list) -> list[TermTree]:
    """The term tree of each row of a closure from its derivation: a seed is
    the variable of its position in `seeds`, any other row its operation over
    the trees of its arguments."""
    trees: list[TermTree] = []
    for row, d in zip(rows, derivs):
        if d is None:
            trees.append(Var(seeds.index(tuple(row))))
        else:
            oi, arg_indices = d
            trees.append((ops[oi].symbol,) + tuple(trees[i] for i in arg_indices))
    return trees


@tables_cache(with_algebra)
def free_algebra(
    alg: FiniteAlgebra, k: int, cap: int = 4096, work_cap: int = 50_000_000
) -> FreeAlgebra:
    """Close the k projections under pointwise basic operations.

    On cap overflow the partial element set is returned with the completeness
    flag cleared rather than raising; callers that need exactness must check
    the flag.
    """
    if k < 1:
        raise ValueError("generator count must be >= 1")
    n = alg.size
    m = n**k
    seeds = [projection_table(n, k, i) for i in range(k)]
    effective_cap = cap
    if work_cap is not None:
        # each closure round costs |F|^arity * m table lookups; bound |F| so the
        # total stays near work_cap even for the largest basic arity
        max_ar = max(op.arity for op in alg.ops)
        bound = max(8, int((work_cap / m) ** (1.0 / max_ar)))
        effective_cap = min(cap, bound) if cap is not None else bound
    complete = True
    try:
        rows, derivs = generate_subproduct(
            [alg] * m, seeds, cap=effective_cap, want_derivations=True
        )
    except CapExceeded as exc:
        rows = exc.partial
        derivs = None
        complete = False

    trees: list[TermTree | None]
    if derivs is not None:
        trees = derivation_trees(alg.ops, seeds, rows, derivs)
    else:
        trees = [None] * len(rows)

    elems = [TermOperation(k, tuple(r), tree) for r, tree in zip(rows, trees)]
    elems.sort(key=lambda t: t.table)
    return FreeAlgebra(alg, k, tuple(elems), complete)


@functools.lru_cache(maxsize=None)
def cyclic_operations(
    alg: FiniteAlgebra, arity: int, cap: int = 4096
) -> tuple[tuple[TermOperation, ...], bool]:
    """Cyclic term operations of the given arity, plus a completeness flag."""
    if arity < 2:
        raise ValueError("cyclic operations need arity >= 2")
    free = free_algebra(alg, arity, cap=cap)
    found = tuple(t for t in free.elements if t.is_cyclic())
    return found, free.complete


def least_prime_above(n: int) -> int:
    p = n + 1
    while True:
        if p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1)):
            return p
        p += 1


@dataclass(frozen=True)
class TaylorReport:
    has_taylor: bool | None           # None = unknown (caps prevented a verdict)
    witness: TermOperation | None     # a cyclic term operation, lowest arity found
    witness_arity: int | None
    arities_searched: tuple[int, ...]
    minimal_taylor_bounded: bool | None  # every found cyclic op regenerates the basics


@functools.lru_cache(maxsize=None)
def taylor_report(alg: FiniteAlgebra, cap: int = 4096) -> TaylorReport:
    """Search for cyclic witnesses at ascending arities up to the least prime > |A|.

    Any cyclic witness proves a Taylor term exists; a definitive "no" needs the
    complete free algebra at the prime arity.  Minimality evidence is bounded:
    each found cyclic operation must regenerate all basic operation tables.
    """
    p = least_prime_above(alg.size)
    for witness_arity in range(2, p + 1):
        witnesses, complete = cyclic_operations(alg, witness_arity, cap=cap)
        if witnesses:
            break
    else:
        # no cyclic term up to p: only a complete F(p) rules a Taylor term out
        return TaylorReport(False if complete else None, None, None, tuple(range(2, p + 1)), None)

    minimal: bool | None = True
    for c in witnesses:
        reduct = FiniteAlgebra(
            f"{alg.name}~cyc{witness_arity}", alg.size, (OperationTable("c", c.arity, c.table),)
        )
        for op in alg.ops:
            sub = free_algebra(reduct, op.arity, cap=cap)
            if op.table not in sub.tables():
                minimal = False if sub.complete else None
                break
        if minimal is not True:
            break
    searched = tuple(range(2, witness_arity + 1))
    return TaylorReport(True, witnesses[0], witness_arity, searched, minimal)


# ---------------------------------------------------------------------------
# Applying terms: trees and full composition


def term_apply(tree: TermTree, alg: FiniteAlgebra, args=None, arity: int | None = None):
    """Evaluate a term tree on concrete arguments, or (with `arity` given and
    no arguments) build its full table as a TermOperation."""
    if args is not None:
        return evaluate_tree_on(tree, alg, tuple(args))
    if arity is None:
        raise ArityMismatch("term_apply needs either arguments or an arity")
    return TermOperation(arity, evaluate_tree_table(tree, alg, arity), tree)


def full_composition(s: TermOperation, t: TermOperation) -> TermOperation:
    """The (m*n)-ary term s(t(x1..xn), t(x_{n+1}..x_{2n}), ..., t(..x_{mn}))."""
    if s.size() != t.size():
        raise ArityMismatch("full composition requires terms over the same algebra")
    n_alg = s.size()
    m_ar, n_ar = s.arity, t.arity
    arity = m_ar * n_ar
    t_nd = np.asarray(t.table, dtype=np.int64)
    total = n_alg**arity
    # evaluate blockwise: argument index decomposes into m_ar blocks of n_ar digits
    idx = np.arange(total, dtype=np.int64)
    block_vals = []
    block_size = n_alg**n_ar
    for b in range(m_ar):
        shift = n_alg ** (n_ar * (m_ar - 1 - b))
        block_vals.append(t_nd[(idx // shift) % block_size])
    s_nd = np.asarray(s.table, dtype=np.int64)
    acc = block_vals[0].copy()
    for v in block_vals[1:]:
        acc *= n_alg
        acc += v
    table = tuple(int(x) for x in s_nd[acc])

    tree = None
    if s.tree is not None and t.tree is not None:
        blocks = []
        for b in range(m_ar):
            repl = {i: Var(b * n_ar + i) for i in range(n_ar)}
            blocks.append(substitute(t.tree, repl))
        tree = substitute(s.tree, {i: blocks[i] for i in range(m_ar)})
    return TermOperation(arity, table, tree)


# ---------------------------------------------------------------------------
# The universal meet term


@dataclass(frozen=True)
class UniversalMeet:
    """The binary term f with f(x,y) = f(x,f(x,y)) = f(f(x,y),x), built from a
    cyclic witness by iterating to least idempotent powers in the first slot."""

    f: TermOperation
    witness_arity: int
    t_exponent: int
    q_exponent: int

    def apply(self, a: int, b: int) -> int:
        return self.f.apply(a, b)


def _iterate_first_slot(tables: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Least k with T_k(x, T_k(x, y)) = T_k(x, y) in every table, where
    T_1 = T and T_{i+1}(x, y) = T(x, T_i(x, y)); returns the tables T_k and k."""
    rows = [np.arange(len(t))[:, None] for t in tables]
    current = list(tables)
    k = 1
    while not all(np.array_equal(t[r, t], t) for t, r in zip(current, rows)):
        current = [base[r, t] for base, t, r in zip(tables, current, rows)]
        k += 1
        if k > 1 << 20:  # unreachable for finite tables; guards a logic bug
            raise AssertionError("first-slot iteration failed to stabilize")
    return current, k


def _power_tree(base: TermTree | None, exponent: int) -> TermTree | None:
    """The tree of T_exponent, where T_{i+1}(x, y) = T(x, T_i(x, y))."""
    if base is None:
        return None
    out = base
    for _ in range(exponent - 1):
        out = substitute(base, {1: out})
    return out


def meet_from_binary(
    t_tables: list[np.ndarray], t_tree: TermTree | None
) -> tuple[list[tuple[int, ...]], TermTree | None, int, int]:
    """The universal-meet construction from a binary term t(x,y) = c(x,y,..,y).

    `t_tables` holds t as an n x n table in each algebra, `t_tree` its tree or
    None.  Iterates t in the first variable to the least power t_k idempotent
    in every table; q(x,y) := t_k(x, t_k(y,x)); iterates q likewise to
    q_j =: f.  Both defining identities are then verified on every table.
    Returns (f tables as flat row-major tuples, f tree, k, j).
    """
    t_k, k_exp = _iterate_first_slot(t_tables)
    t_k_tree = _power_tree(t_tree, k_exp)
    q_tables = [t[np.arange(len(t))[:, None], t.T] for t in t_k]
    q_tree = None
    if t_k_tree is not None:
        inner = substitute(t_k_tree, {0: Var(1), 1: Var(0)})
        q_tree = substitute(t_k_tree, {1: inner})
    f_tables, j_exp = _iterate_first_slot(q_tables)
    for f in f_tables:
        rows = np.arange(len(f))[:, None]
        if not np.array_equal(f[rows, f], f):
            raise AssertionError("universal meet lost f(x,f(x,y)) = f(x,y)")
        if not np.array_equal(f[f, rows], f):
            raise AssertionError("universal meet lost f(f(x,y),x) = f(x,y)")
    flat = [tuple(f.ravel().tolist()) for f in f_tables]
    return flat, _power_tree(q_tree, j_exp), k_exp, j_exp


def universal_meet(alg: FiniteAlgebra, cap: int = 4096) -> UniversalMeet:
    """Construct the binary term f from the Taylor report's cyclic witness c,
    by `meet_from_binary` on t(x,y) := c(x,y,..,y)."""
    report = taylor_report(alg, cap=cap)
    if not report.has_taylor:
        raise NoCyclicWitness(f"{alg.name} has no cyclic witness within caps")
    c = report.witness
    n = alg.size
    p = c.arity
    t_table = np.array(
        [[c.apply(x, *(y,) * (p - 1)) for y in range(n)] for x in range(n)], dtype=np.int64
    )
    t_tree = None
    if c.tree is not None:
        t_tree = substitute(c.tree, {i: Var(1) for i in range(1, p)})
    (f_table,), f_tree, k_exp, j_exp = meet_from_binary([t_table], t_tree)
    return UniversalMeet(TermOperation(2, f_table, f_tree), p, k_exp, j_exp)


# ---------------------------------------------------------------------------
# Majority / minority conditions and local structure


def majority_table(n: int) -> tuple[int, ...]:
    """The table m(x,x,y)=m(x,y,x)=m(y,x,x)=x; ties broken to the first argument."""
    table = []
    for x, y, z in itertools.product(range(n), repeat=3):
        table.append(y if y == z else x)
    return tuple(table)


def is_majority_op(t: TermOperation) -> bool:
    n = t.size()
    return all(
        t.apply(x, x, y) == x and t.apply(x, y, x) == x and t.apply(y, x, x) == x
        for x in range(n)
        for y in range(n)
    )


def is_maltsev_op(t: TermOperation) -> bool:
    n = t.size()
    return all(
        t.apply(x, y, y) == x and t.apply(y, y, x) == x for x in range(n) for y in range(n)
    )


def has_majority_term(alg: FiniteAlgebra, cap: int = 4096) -> bool | None:
    """Does the clone contain a majority operation?  None when F(3) is capped."""
    free = free_algebra(alg, 3, cap=cap)
    if any(is_majority_op(t) for t in free.elements):
        return True
    return False if free.complete else None


def is_two_element_majority_algebra(alg: FiniteAlgebra, cap: int = 4096) -> bool:
    """Term-equivalent to the two-element majority algebra: F(3) is exactly
    the three projections plus the majority operation."""
    if alg.size != 2:
        return False
    free = free_algebra(alg, 3, cap=cap)
    if not free.complete:
        return False
    expected = {projection_table(2, 3, i) for i in range(3)}
    expected.add(majority_table(2))
    return free.tables() == frozenset(expected)


def is_affine_algebra(alg: FiniteAlgebra, cap: int = 4096) -> bool | None:
    """Abelian and Taylor; exact for idempotent algebras (None if Taylor unknown)."""
    from .congruences import is_abelian

    if not is_abelian(alg):
        return False
    return taylor_report(alg, cap=cap).has_taylor


@dataclass(frozen=True)
class ConditionReport:
    majority_condition: bool
    minority_condition: bool
    majority_witness: tuple | None  # (kind, detail) of the first failure
    minority_witness: tuple | None


def condition_checks(alg: FiniteAlgebra, t: TermOperation) -> ConditionReport:
    """Bulatov-style majority/minority conditions for a ternary term operation.

    Identity (b) of each condition is a full table scan; condition (a)
    enumerates, per pair (a, b), the congruences of Sg(a, b) whose quotient is
    a two-element majority algebra (resp. an affine algebra) and evaluates the
    action of t there.
    """
    from .congruences import congruences as congruence_report

    if t.arity != 3 or t.size() != alg.size:
        raise PreconditionViolated("condition checks need a ternary term over alg")
    n = alg.size

    maj_ok, maj_wit = True, None
    min_ok, min_wit = True, None

    # identity (b) for both conditions
    for x in range(n):
        for y in range(n):
            w = t.apply(x, y, y)
            if t.apply(x, w, w) != w and maj_ok:
                maj_ok, maj_wit = False, ("identity", (x, y))
            if t.apply(w, y, y) != w and min_ok:
                min_ok, min_wit = False, ("identity", (x, y))

    for a in range(n):
        for b in range(a + 1, n):
            sub_set = sg_closure(alg, {a, b})
            sub = induced_subalgebra(alg, sub_set)
            elems = sorted(sub_set)
            renum = {e: i for i, e in enumerate(elems)}
            # t restricted to the subuniverse (term operations respect closure)
            try:
                values = map(t.table.__getitem__, flat_indices(elems, n, 3))
                t_sub = TermOperation(3, tuple(map(renum.__getitem__, values)))
            except KeyError:
                raise PreconditionViolated(
                    "t does not preserve a generated subuniverse; not a term operation"
                )
            rep = congruence_report(sub, cap=sub.size)
            for theta in rep.all_congruences:
                if theta.is_one() or theta.block_count() == 1:
                    continue
                if theta.is_zero():
                    quot = sub
                    t_quot = t_sub
                else:
                    quot = quotient_algebra(sub, theta)
                    t_quot = push_to_quotient(t_sub, theta)
                    if t_quot is None:
                        raise PreconditionViolated(
                            "t does not respect a congruence; not a term operation"
                        )
                if quot.size < 2:
                    continue
                if maj_ok and quot.size == 2 and is_two_element_majority_algebra(quot):
                    if not is_majority_op(t_quot):
                        maj_ok, maj_wit = False, ("quotient", (a, b, theta.blocks_of))
                if min_ok and is_affine_algebra(quot):
                    if not is_maltsev_op(t_quot):
                        min_ok, min_wit = False, ("quotient", (a, b, theta.blocks_of))
    return ConditionReport(maj_ok, min_ok, maj_wit, min_wit)


def push_to_quotient(t: TermOperation, theta) -> TermOperation | None:
    """The action of t on the blocks of the partition theta, or None when t
    does not respect theta (some choice of block representatives disagrees)."""
    pushed = push_table(t.table, t.size(), t.arity, theta)
    return None if pushed is None else TermOperation(t.arity, pushed)


@dataclass(frozen=True)
class LocalStructure:
    has_majority_term: bool | None
    semilattice_pairs: tuple[tuple[int, int], ...]  # (a, b) with absorbing b


def local_structure(alg: FiniteAlgebra, subset: frozenset, cap: int = 4096) -> LocalStructure:
    """Majority-term and semilattice-pair structure inside a subuniverse."""
    sub = induced_subalgebra(alg, frozenset(subset))
    elems = sorted(subset)
    maj = has_majority_term(sub, cap=cap)
    pairs = []
    for a in elems:
        for b in elems:
            if a == b:
                continue
            if semilattice_witness(alg, a, b) is not None:
                pairs.append((a, b))
    return LocalStructure(maj, tuple(pairs))


def semilattice_term(alg: FiniteAlgebra, a: int, b: int) -> TermTree | None:
    """The tree of a binary term t with t(a, b) = t(b, a) = b, or None.

    The pairs (t(a, b), t(b, a)) over all binary terms t form the subuniverse
    of A^2 generated by (a, b) and (b, a), so such a t exists iff (b, b) lies
    in it; the closure's derivation of (b, b) is the tree."""
    seeds = [(a, b), (b, a)]
    rows, derivs = generate_subproduct([alg, alg], seeds, want_derivations=True)
    if (b, b) not in rows:
        return None
    return derivation_trees(alg.ops, seeds, rows, derivs)[rows.index((b, b))]


def semilattice_witness(alg: FiniteAlgebra, a: int, b: int) -> TermOperation | None:
    """A binary term of the induced algebra on {a, b} acting as the semilattice
    with absorbing element b; requires {a, b} to be a subuniverse.  The table
    is `semilattice_term`'s tree evaluated on {a, b} (idempotence fixes its
    diagonal)."""
    if a == b:
        return None
    pair = frozenset({a, b})
    if sg_closure(alg, pair) != pair:
        return None
    tree = semilattice_term(alg, a, b)
    if tree is None:
        return None
    return term_apply(tree, induced_subalgebra(alg, pair), arity=2)
