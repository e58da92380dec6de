"""The four binary-clone scans as they stood before each was replaced by
the subuniverse it stands for, kept as the reference that
`test_binary_term_subuniverses.py` compares the library with.

Each builds a binary free algebra F(2) and scans its elements:

- `_edge_pair_in_subalgebra` (edges) read a ->sm b off t(b, w) for every
  element t of F(2) of Sg(a, b), and raised CapExceeded when that F(2) was
  incomplete;
- `_semilattice_term_witness` (axioms, Base Axiom 3) looked in F(2) of the
  whole algebra for t with t(a, b) = t(b, a) = b, and raised CapExceeded when
  it was incomplete;
- `semilattice_witness` (terms) returned the first such t, in ascending
  table order, of F(2) of the subalgebra {a, b};
- `_lift_binary` (absorption) looked in F(2) of the algebra for a term whose
  quotient table is a given witness; `_audit_transport` is the audit that
  called it, kept whole so that it can stand in for the library's.
"""

from __future__ import annotations

from taylor_edges.absorption import _binary_witness, _witnesses_2abs
from taylor_edges.algebra import FiniteAlgebra, induced_subalgebra, quotient_algebra, sg_closure
from taylor_edges.congruences import congruences as congruence_report
from taylor_edges.errors import CapExceeded, NoCyclicWitness
from taylor_edges.terms import TermOperation, cyclic_operations, free_algebra, push_to_quotient


def _edge_pair_in_subalgebra(
    sub: FiniteAlgebra, a: int, b: int, arities: tuple[int, ...], cap: int
) -> tuple[bool, bool]:
    """Decide (a ->as b, a ->sm b) inside the subalgebra generated by {a, b}."""
    as_ok = True
    sm_ok = True
    binary = free_algebra(sub, 2, cap=cap)
    if not binary.complete:
        raise CapExceeded(f"binary clone of {sub.name} incomplete at cap {cap}")
    for p in arities:
        cyclics, complete = cyclic_operations(sub, p, cap=cap)
        if not complete:
            raise CapExceeded(f"cyclic search of {sub.name} at arity {p} incomplete")
        if not cyclics:
            raise NoCyclicWitness(
                f"{sub.name} has no cyclic operation at arity {p}; not Taylor?"
            )
        for c in cyclics:
            if as_ok:
                v = c.apply(*((a,) * (p - 1) + (b,)))
                if b not in sg_closure(sub, {a, v}):
                    as_ok = False
            if sm_ok:
                for k in range(1, p // 2 + 1):
                    w = c.apply(*((a,) * k + (b,) * (p - k)))
                    for t in binary.elements:
                        if b not in sg_closure(sub, {a, t.apply(b, w)}):
                            sm_ok = False
                            break
                    if not sm_ok:
                        break
            if not as_ok and not sm_ok:
                return False, False
    return as_ok, sm_ok


def _semilattice_term_witness(alg: FiniteAlgebra, a: int, b: int, cap: int) -> bool:
    """Is there a binary term of alg acting on {a, b} as a semilattice with
    absorbing element b?  (Idempotence supplies the other two entries.)"""
    free = free_algebra(alg, 2, cap=cap)
    if not free.complete:
        raise CapExceeded(f"binary clone of {alg.name} incomplete")
    return any(t.apply(a, b) == b and t.apply(b, a) == b for t in free.elements)


def semilattice_witness(
    alg: FiniteAlgebra, a: int, b: int, cap: int = 4096
) -> TermOperation | None:
    """A binary term of the induced algebra on {a, b} acting as the semilattice
    with absorbing element b; requires {a, b} to be a subuniverse."""
    if a == b:
        return None
    pair = frozenset({a, b})
    if sg_closure(alg, pair) != pair:
        return None
    sub = induced_subalgebra(alg, pair)
    ia, ib = sorted(pair).index(a), sorted(pair).index(b)
    free = free_algebra(sub, 2, cap=cap)
    for t in free.elements:
        if t.apply(ia, ib) == ib and t.apply(ib, ia) == ib:
            return t
    return None


def _audit_transport(alg: FiniteAlgebra, rows, cap: int) -> bool:
    """Replay absorption witnesses along quotient maps, both directions."""
    report = congruence_report(alg, cap=alg.size)
    ok = True
    proper = [
        th for th in report.all_congruences if not th.is_zero() and not th.is_one()
    ]
    for theta in proper:
        quot = quotient_algebra(alg, theta)
        blocks_of = theta.blocks_of
        for r in rows:
            if not r.two_absorbing:
                continue
            witness, _ = _binary_witness(alg, r.subset, cap)
            if witness is None:
                ok = False
                continue
            image = frozenset(blocks_of[x] for x in r.subset)
            pushed = push_to_quotient(witness, theta)
            if pushed is None or not _witnesses_2abs(pushed, image, quot.size):
                ok = False
        # preimage direction: witnesses of quotient subsets lift along any
        # term preimage; check via the pulled-back subset and a fresh search
        qfree = free_algebra(quot, 2, cap=cap)
        if qfree.complete:
            for bits in range(1, 1 << quot.size):
                dsub = frozenset(i for i in range(quot.size) if bits >> i & 1)
                wit, _ = _binary_witness(quot, dsub, cap)
                if wit is None:
                    continue
                pre = frozenset(x for x in range(alg.size) if blocks_of[x] in dsub)
                lifted = _lift_binary(alg, wit, theta, cap)
                if lifted is None or not _witnesses_2abs(lifted, pre, alg.size):
                    ok = False
    return ok


def _lift_binary(alg: FiniteAlgebra, t: TermOperation, theta, cap: int) -> TermOperation | None:
    """Some binary term of `alg` whose quotient table is t."""
    free = free_algebra(alg, 2, cap=cap)
    for cand in free.elements:
        pushed = push_to_quotient(cand, theta)
        if pushed is not None and pushed.table == t.table:
            return cand
    return None
