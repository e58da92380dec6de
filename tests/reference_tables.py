"""Derived, pushed and relabelled tables as they were built before the shared
flat-index list, kept as the reference that `test_table_transport.py`
compares the library with.

Every builder here fills its table one entry at a time, through
`OperationTable.apply` or `TermOperation.apply` over `itertools.product`.
Names, numbering and exception messages are the library's.
"""

from __future__ import annotations

import itertools

from taylor_edges.algebra import FiniteAlgebra, OperationTable, is_subuniverse, sg_closure
from taylor_edges.congruences import congruences as congruence_report
from taylor_edges.csp import Constraint, Instance, check_consistent_maps
from taylor_edges.errors import (
    NotACongruence,
    NotClosed,
    NotConsistent,
    NotPolynomial,
    NotRetractive,
    PreconditionViolated,
    SignatureMismatch,
)
from taylor_edges.terms import (
    ConditionReport,
    TermOperation,
    is_affine_algebra,
    is_maltsev_op,
    is_majority_op,
    is_two_element_majority_algebra,
)


def induced_subalgebra(alg, subset):
    elems = sorted(subset)
    if not is_subuniverse(alg, elems):
        raise NotClosed(f"{sorted(subset)} is not a subuniverse of {alg.name}")
    old_to_new = {e: i for i, e in enumerate(elems)}
    k = len(elems)
    ops = []
    for op in alg.ops:
        table = []
        for args in itertools.product(elems, repeat=op.arity):
            table.append(old_to_new[op.apply(*args)])
        ops.append(OperationTable(op.symbol, op.arity, tuple(table)))
    name = f"{alg.name}|{{{','.join(map(str, elems))}}}"
    return FiniteAlgebra(name, k, tuple(ops))


def is_congruence(alg, p) -> bool:
    if p.size != alg.size:
        return False
    n = alg.size
    same_pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if p.same(a, b)]
    for op in alg.ops:
        k = op.arity
        for a, b in same_pairs:
            for pos in range(k):
                for rest in itertools.product(range(n), repeat=k - 1):
                    args_a = rest[:pos] + (a,) + rest[pos:]
                    args_b = rest[:pos] + (b,) + rest[pos:]
                    if not p.same(op.apply(*args_a), op.apply(*args_b)):
                        return False
    return True


def quotient_algebra(alg, partition):
    if not is_congruence(alg, partition):
        raise NotACongruence(f"partition {partition.blocks_of} is not a congruence of {alg.name}")
    reps = partition.block_representatives()
    k = len(reps)
    ops = []
    for op in alg.ops:
        table = []
        for blocks in itertools.product(range(k), repeat=op.arity):
            args = [reps[b] for b in blocks]
            table.append(partition.blocks_of[op.apply(*args)])
        ops.append(OperationTable(op.symbol, op.arity, tuple(table)))
    return FiniteAlgebra(f"{alg.name}/theta{partition.block_count()}", k, tuple(ops))


def product_algebra(a, b):
    if a.signature != b.signature:
        raise SignatureMismatch(f"{a.name} and {b.name} have different signatures")
    n = a.size * b.size
    ops = []
    for oa, ob in zip(a.ops, b.ops):
        table = []
        for args in itertools.product(range(n), repeat=oa.arity):
            xa = [arg // b.size for arg in args]
            xb = [arg % b.size for arg in args]
            table.append(oa.apply(*xa) * b.size + ob.apply(*xb))
        ops.append(OperationTable(oa.symbol, oa.arity, tuple(table)))
    return FiniteAlgebra(f"{a.name}x{b.name}", n, tuple(ops))


def is_homomorphism(src, dst, mapping) -> bool:
    if src.signature != dst.signature:
        return False
    for op_s, op_d in zip(src.ops, dst.ops):
        for args in itertools.product(range(src.size), repeat=op_s.arity):
            if mapping[op_s.apply(*args)] != op_d.apply(*(mapping[a] for a in args)):
                return False
    return True


def push_to_quotient(t, theta):
    reps = theta.block_representatives()
    blocks_of = theta.blocks_of
    pushed = TermOperation(
        t.arity,
        tuple(
            blocks_of[t.apply(*(reps[b] for b in blocks))]
            for blocks in itertools.product(range(len(reps)), repeat=t.arity)
        ),
    )
    for args in itertools.product(range(t.size()), repeat=t.arity):
        if blocks_of[t.apply(*args)] != pushed.apply(*(blocks_of[a] for a in args)):
            return None
    return pushed


def condition_checks(alg, t, cap: int = 10):
    if t.arity != 3 or t.size() != alg.size:
        raise PreconditionViolated("condition checks need a ternary term over alg")
    n = alg.size

    maj_ok, maj_wit = True, None
    min_ok, min_wit = True, None

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
            try:
                t_sub = TermOperation(
                    3,
                    tuple(
                        renum[t.apply(*args)]
                        for args in itertools.product(elems, repeat=3)
                    ),
                )
            except KeyError:
                raise PreconditionViolated(
                    "t does not preserve a generated subuniverse; not a term operation"
                )
            rep = congruence_report(sub, cap=max(cap, sub.size))
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


def retract_instance(instance, maps):
    report = check_consistent_maps(instance, maps)
    if not report.polynomial:
        raise NotPolynomial(f"map of {report.witness[1]} is not a unary polynomial")
    if not report.consistent:
        raise NotConsistent("maps send a tuple outside its relation", report.witness)
    if not report.retractive:
        raise NotRetractive("maps must satisfy p(p(x)) = p(x) to retract")

    new_domains = []
    renum = {}
    for v in instance.variables:
        alg = instance.domain(v)
        m = maps.map_of(v)
        image = sorted(set(m))
        renum[v] = {e: i for i, e in enumerate(image)}
        ops = []
        for op in alg.ops:
            table = tuple(
                renum[v][m[op.apply(*args)]]
                for args in itertools.product(image, repeat=op.arity)
            )
            ops.append(OperationTable(op.symbol, op.arity, table))
        new_domains.append((v, FiniteAlgebra(f"{alg.name}@{v}", len(image), tuple(ops))))

    new_constraints = []
    for c in instance.constraints:
        ms = [maps.map_of(v) for v in c.scope]
        kept = frozenset(
            tuple(renum[v][x] for v, x in zip(c.scope, t))
            for t in c.tuples
            if all(m[x] == x for m, x in zip(ms, t))
        )
        new_constraints.append(Constraint(c.scope, kept))
    return Instance(
        f"{instance.name}@retract", instance.variables, tuple(new_domains),
        tuple(new_constraints),
    )
