"""The structure tests as they stood before each question got one answer,
kept verbatim as the reference that `test_structure_reference.py` compares the
library with.

- `affine_checks` combined `is_abelian` with its own Taylor search, and said
  None ("unknown") whenever that search was capped, even for a non-abelian
  algebra; the library takes `is_affine_algebra`, which says False there.
- `taylor_report` had a separate branch for one-element algebras.
- `is_3_absorbing`, `is_compatible` (a `BinaryRelation` method, here a
  function of the relation) and `affine_checks` closed a whole set of tuples
  and compared lengths; the library asks `algebra.is_closed`.
- `_witnesses_2abs`, `_ternary_witness` and `_coordinate_pulls` were three
  scans over argument tuples; the library asks `absorption._sends_into`.
- `join` and `refines` (`Partition` methods, here functions of the first
  partition) listed all n^2 pairs.
"""

from __future__ import annotations

import functools
import itertools

from taylor_edges.absorption import AbsorptionDecision, AbsorptionWitness, ProjectivityReport
from taylor_edges.algebra import (
    FiniteAlgebra,
    OperationTable,
    Partition,
    generate_subproduct,
    is_subuniverse,
)
from taylor_edges.congruences import AffineReport, _r3_sections_bijective, is_abelian
from taylor_edges.errors import NotCompatible, SEdgeMismatch, SignatureMismatch
from taylor_edges.terms import (
    TaylorReport,
    TermOperation,
    Var,
    cyclic_operations,
    free_algebra,
    least_prime_above,
)


def affine_checks(alg: FiniteAlgebra, r3: frozenset | None = None) -> AffineReport:
    """Abelianness (matrix method), affineness (abelian and Taylor), and the
    bijection-sections criterion for an optional compatible ternary relation."""
    abelian = is_abelian(alg)
    taylor = taylor_report(alg)
    if taylor.has_taylor is None:
        affine = None
    else:
        affine = abelian and taylor.has_taylor

    criterion = None
    witness = None
    if r3 is not None:
        triples = frozenset(tuple(t) for t in r3)
        closed = generate_subproduct([alg] * 3, sorted(triples))
        if len(closed) != len(triples):
            raise NotCompatible("the ternary relation is not closed under the operations")
        criterion, witness = _r3_sections_bijective(alg.size, triples)
    return AffineReport(abelian, affine, criterion, witness)


@functools.lru_cache(maxsize=None)
def taylor_report(alg: FiniteAlgebra, cap: int = 4096) -> TaylorReport:
    """Search for cyclic witnesses at ascending arities up to the least prime > |A|.

    Any cyclic witness proves a Taylor term exists; a definitive "no" needs the
    complete free algebra at the prime arity.  Minimality evidence is bounded:
    each found cyclic operation must regenerate all basic operation tables.
    """
    if alg.size == 1:
        op = TermOperation(2, (0,), Var(0))
        return TaylorReport(True, op, 2, (2,), True)
    p = least_prime_above(alg.size)
    searched = []
    witnesses: tuple[TermOperation, ...] = ()
    witness_arity = None
    definitive_no = False
    for arity in range(2, p + 1):
        searched.append(arity)
        ops, complete = cyclic_operations(alg, arity, cap=cap)
        if ops:
            witnesses = ops
            witness_arity = arity
            break
        if arity == p and complete:
            definitive_no = True
        if arity == p and not complete:
            return TaylorReport(None, None, None, tuple(searched), None)

    if witness_arity is None:
        if definitive_no:
            return TaylorReport(False, None, None, tuple(searched), None)
        return TaylorReport(None, None, None, tuple(searched), None)

    minimal: bool | None = True
    for c in witnesses:
        reduct = FiniteAlgebra(
            f"{alg.name}~cyc{witness_arity}", alg.size, (_op_from_term(c),)
        )
        for op in alg.ops:
            sub = free_algebra(reduct, op.arity, cap=cap)
            if op.table not in sub.tables():
                minimal = False if sub.complete else None
                break
        if minimal is not True:
            break
    return TaylorReport(True, witnesses[0], witness_arity, tuple(searched), minimal)


def _op_from_term(t: TermOperation):
    return OperationTable("c", t.arity, t.table)


def is_3_absorbing(
    alg: FiniteAlgebra,
    subset: frozenset[int],
    cap: int = 4096,
) -> AbsorptionDecision:
    """Ternary absorption via the structural test: (B x A) u (A x B) closed.

    When the ternary clone is complete within the cap, the direct witness
    search must agree; a mismatch raises SEdgeMismatch.
    """
    subset = frozenset(subset)
    if not subset:
        raise ValueError("absorption is about nonempty subsets")
    n = alg.size
    cross = sorted(
        {(x, y) for x in subset for y in range(n)}
        | {(x, y) for x in range(n) for y in subset}
    )
    closed_rows = generate_subproduct([alg, alg], cross)
    structural = len(closed_rows) == len(cross)
    witness = None
    free = free_algebra(alg, 3, cap=cap)
    if free.complete:
        witness = _ternary_witness(free, subset, n)
        if (witness is not None) != structural:
            raise SEdgeMismatch(
                f"{alg.name}: subset {sorted(subset)} structural ternary "
                f"absorption={structural} but witness={witness is not None}"
            )
    wit = None
    if structural:
        wit = AbsorptionWitness(subset, "ternary", witness, frozenset(cross), "structural")
    return AbsorptionDecision(
        structural, wit, is_subuniverse(alg, subset), single_method=not free.complete
    )


def _ternary_witness(free, subset, n):
    inside = [x in subset for x in range(n)]
    for t in free.elements:
        ok = True
        for args in itertools.product(range(n), repeat=3):
            outside = sum(1 for a in args if not inside[a])
            if outside <= 1 and not inside[t.apply(*args)]:
                ok = False
                break
        if ok:
            return t
    return None


def bounded_projectivity(
    alg: FiniteAlgebra, subset: frozenset[int], arity_cap: int = 3, cap: int = 4096
) -> ProjectivityReport:
    """Projectivity of a subuniverse, verified arity by arity up to the cap.

    Projective: each term has some coordinate pulling subset-inputs to
    subset-outputs; strongly projective: every essential coordinate does.
    A singleton that is strongly projective up to the cap is reported as an
    absorbing element (bounded evidence; the definitions quantify over all
    arities).
    """
    subset = frozenset(subset)
    proj_upto = 0
    strong_upto = 0
    first_failure = None
    for k in range(1, arity_cap + 1):
        free = free_algebra(alg, k, cap=cap)
        if not free.complete:
            break
        proj_ok = True
        strong_ok = True
        for ti, t in enumerate(free.elements):
            pulls = [_coordinate_pulls(t, i, subset) for i in range(k)]
            if not any(pulls):
                proj_ok = False
                strong_ok = False  # idempotence: some coordinate is essential
                if first_failure is None:
                    first_failure = (k, ti)
                break
            if strong_ok and any(not pulls[i] for i in t.essential_coordinates()):
                strong_ok = False
                if first_failure is None:
                    first_failure = (k, ti)
        if proj_ok and proj_upto == k - 1:
            proj_upto = k
        if strong_ok and strong_upto == k - 1:
            strong_upto = k
        if not proj_ok:
            break
    return ProjectivityReport(
        proj_upto or None,
        strong_upto or None,
        len(subset) == 1 and strong_upto >= arity_cap,
        first_failure,
    )


def _coordinate_pulls(t: TermOperation, i: int, subset: frozenset[int]) -> bool:
    n = t.size()
    for args in itertools.product(range(n), repeat=t.arity):
        if args[i] in subset and t.apply(*args) not in subset:
            return False
    return True


def _witnesses_2abs(t: TermOperation, subset: frozenset[int], n: int) -> bool:
    return all(
        t.apply(b, x) in subset and t.apply(x, b) in subset
        for b in subset
        for x in range(n)
    )


def join(self, other: "Partition") -> "Partition":
    if self.size != other.size:
        raise ValueError("partition size mismatch")
    pairs = [(a, b) for a in range(self.size) for b in range(self.size)
             if self.same(a, b) or other.same(a, b)]
    return Partition.from_pairs(self.size, pairs)


def refines(self, other: "Partition") -> bool:
    """Every block of self lies inside a block of other (self <= other)."""
    return all(
        other.same(a, b)
        for a in range(self.size)
        for b in range(self.size)
        if self.same(a, b)
    )


def is_compatible(self, alg_left: FiniteAlgebra, alg_right: FiniteAlgebra | None = None) -> bool:
    """Closed under coordinatewise operations (a subuniverse of the product)."""
    alg_right = alg_right or alg_left
    if alg_left.signature != alg_right.signature:
        raise SignatureMismatch("relation sides have different signatures")
    if not self.pairs:
        return True
    closed = generate_subproduct([alg_left, alg_right], sorted(self.pairs))
    return len(closed) == len(self.pairs)
