"""Binary and ternary absorption, bounded projectivity, and full reports.

Two-element absorption is decided two independent ways and the answers are
required to agree: a direct search of the binary clone for a witness term,
and asm-closedness in the computed edge graph.  Ternary absorption is decided
structurally (is (B x A) u (A x B) a subuniverse of the square?) and
cross-checked by a ternary witness search whenever F(3) is complete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .algebra import FiniteAlgebra, is_closed, is_subuniverse, quotient_algebra
from .congruences import congruences as congruence_report
from .edges import EdgeGraph, compute_edges, is_x_closed
from .errors import CapExceeded, SEdgeMismatch
from .terms import TermOperation, free_algebra, push_to_quotient, term_apply


@dataclass(frozen=True)
class AbsorptionWitness:
    subset: frozenset[int]
    kind: str            # binary | ternary | projective | strongly-projective | ...
    term: TermOperation | None
    structural: frozenset | None   # e.g. the closed set (B x A) u (A x B)
    method: str


@dataclass(frozen=True)
class AbsorptionDecision:
    absorbing: bool
    witness: AbsorptionWitness | None
    is_subuniverse: bool
    single_method: bool = False    # the cross-check could not run


def _binary_witness(alg: FiniteAlgebra, subset: frozenset[int], cap: int):
    """A binary term t with t(B, A) <= B and t(A, B) <= B, if any."""
    free = free_algebra(alg, 2, cap=cap)
    witness = next((t for t in free.elements if _witnesses_2abs(t, subset, alg.size)), None)
    return witness, free.complete


def is_2_absorbing(
    alg: FiniteAlgebra,
    subset: frozenset[int],
    graph: EdgeGraph | None = None,
    cap: int = 4096,
) -> AbsorptionDecision:
    """Exact binary absorption: F(2) witness search, cross-checked against
    asm-closedness of the subset.  Disagreement raises SEdgeMismatch."""
    subset = frozenset(subset)
    if not subset:
        raise ValueError("absorption is about nonempty subsets")
    witness, complete = _binary_witness(alg, subset, cap)
    subuniv = is_subuniverse(alg, subset)
    if graph is None:
        graph = compute_edges(alg, cap=cap)
    if graph.unknown:
        # the secondary method is unavailable; report single-method
        if not complete:
            raise CapExceeded("neither absorption method could complete")
        return AbsorptionDecision(
            witness is not None,
            _wrap_binary(subset, witness),
            subuniv,
            single_method=True,
        )
    closed = is_x_closed(graph, "asm", subset)
    if not complete:
        return AbsorptionDecision(closed, None, subuniv, single_method=True)
    if closed != (witness is not None):
        raise SEdgeMismatch(
            f"{alg.name}: subset {sorted(subset)} has F(2)-witness="
            f"{witness is not None} but asm-closed={closed}"
        )
    return AbsorptionDecision(witness is not None, _wrap_binary(subset, witness), subuniv)


def _wrap_binary(subset, witness):
    if witness is None:
        return None
    return AbsorptionWitness(subset, "binary", witness, None, "f2-witness")


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
    cross = frozenset(
        {(x, y) for x in subset for y in range(n)}
        | {(x, y) for x in range(n) for y in subset}
    )
    structural = is_closed([alg, alg], cross)
    witness = None
    free = free_algebra(alg, 3, cap=cap)
    if free.complete:
        witness = next((t for t in free.elements if _sends_into(t, subset, _two_of_three)), None)
        if (witness is not None) != structural:
            raise SEdgeMismatch(
                f"{alg.name}: subset {sorted(subset)} structural ternary "
                f"absorption={structural} but witness={witness is not None}"
            )
    wit = None
    if structural:
        wit = AbsorptionWitness(subset, "ternary", witness, cross, "structural")
    return AbsorptionDecision(
        structural, wit, is_subuniverse(alg, subset), single_method=not free.complete
    )


@dataclass(frozen=True)
class ProjectivityReport:
    projective_upto: int | None           # verified arity bound, None if fails
    strongly_projective_upto: int | None
    absorbing_element: bool
    failure: tuple | None                 # (arity, table index) of first violation


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
            pulls = [_sends_into(t, subset, itemgetter(i)) for i in range(k)]
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


@dataclass(frozen=True)
class SubsetClassification:
    subset: frozenset[int]
    is_subuniverse: bool
    two_absorbing: bool
    three_absorbing: bool
    projective_upto: int | None
    strongly_projective_upto: int | None


@dataclass(frozen=True)
class AbsorptionReport:
    algebra: FiniteAlgebra
    subsets: tuple[SubsetClassification, ...]
    equivalence_audited: bool     # 2-absorbing <=> projective <=> strongly projective
    transport_audited: bool       # witnesses move along quotient maps


def absorption_report(
    alg: FiniteAlgebra,
    subset_cap: int = 6,
    arity_cap: int = 3,
    cap: int = 4096,
    graph: EdgeGraph | None = None,
) -> AbsorptionReport:
    """Classify every nonempty subset and audit the structural theorems.

    Audits: the equivalence of binary absorption, projectivity, and strong
    projectivity (at the verified arity bound), and witness transport along
    the available quotient maps (images and preimages reuse the same term).
    """
    n = alg.size
    if n > subset_cap:
        raise CapExceeded(f"absorption report capped at size {subset_cap}, got {n}")
    if graph is None:
        graph = compute_edges(alg, cap=cap)
    rows = []
    for bits in range(1, 1 << n):
        subset = frozenset(i for i in range(n) if bits >> i & 1)
        two = is_2_absorbing(alg, subset, graph=graph, cap=cap)
        three = is_3_absorbing(alg, subset, cap=cap)
        proj = bounded_projectivity(alg, subset, arity_cap=arity_cap, cap=cap)
        rows.append(
            SubsetClassification(
                subset,
                two.is_subuniverse,
                two.absorbing,
                three.absorbing,
                proj.projective_upto,
                proj.strongly_projective_upto,
            )
        )
        # absorbing sets must be subuniverses
        if (two.absorbing or three.absorbing) and not two.is_subuniverse:
            raise SEdgeMismatch(
                f"{alg.name}: absorbing subset {sorted(subset)} is not a subuniverse"
            )

    equivalence = all(
        (r.two_absorbing == (r.projective_upto is not None and r.projective_upto >= arity_cap))
        and (r.two_absorbing == (r.strongly_projective_upto is not None
                                 and r.strongly_projective_upto >= arity_cap))
        for r in rows
        if r.is_subuniverse
    )

    transport = _audit_transport(alg, rows, cap=cap)
    rows.sort(key=lambda r: (len(r.subset), sorted(r.subset)))
    return AbsorptionReport(alg, tuple(rows), equivalence, transport)


def _audit_transport(alg: FiniteAlgebra, rows, cap: int) -> bool:
    """Replay absorption witnesses along quotient maps, both directions."""
    report = congruence_report(alg, cap=alg.size)
    ok = True
    proper = [
        th for th in report.all_congruences if not th.is_zero() and not th.is_one()
    ]
    # a subset's witness does not depend on the congruence it is pushed along
    witnesses = [
        (r.subset, _binary_witness(alg, r.subset, cap)[0])
        for r in rows
        if proper and r.two_absorbing
    ]
    for theta in proper:
        quot = quotient_algebra(alg, theta)
        blocks_of = theta.blocks_of
        for subset, witness in witnesses:
            if witness is None:
                ok = False
                continue
            image = frozenset(blocks_of[x] for x in subset)
            pushed = push_to_quotient(witness, theta)
            if pushed is None or not _witnesses_2abs(pushed, image, quot.size):
                ok = False
        # preimage direction: a quotient witness lifts to its own term read in
        # alg, which must push back to it and witness the pulled-back subset
        qfree = free_algebra(quot, 2, cap=cap)
        if qfree.complete:
            for bits in range(1, 1 << quot.size):
                dsub = frozenset(i for i in range(quot.size) if bits >> i & 1)
                wit, _ = _binary_witness(quot, dsub, cap)
                if wit is None:
                    continue
                pre = frozenset(x for x in range(alg.size) if blocks_of[x] in dsub)
                lifted = term_apply(wit.tree, alg, arity=2)
                pushed = push_to_quotient(lifted, theta)
                if (pushed is None or pushed.table != wit.table
                        or not _witnesses_2abs(lifted, pre, alg.size)):
                    ok = False
    return ok


def _sends_into(t: TermOperation, subset: frozenset[int], need) -> bool:
    """Does t send into `subset` every argument tuple whose pattern (one bool
    per argument: is it in `subset`?) satisfies `need`?  The patterns run in
    the row-major order of t's table."""
    inside = [x in subset for x in range(t.size())]
    patterns = itertools.product(inside, repeat=t.arity)
    return all(inside[v] for pattern, v in zip(patterns, t.table) if need(pattern))


def _two_of_three(pattern) -> bool:
    return sum(pattern) >= 2


def _witnesses_2abs(t: TermOperation, subset: frozenset[int], n: int) -> bool:
    """t(B, A) <= B and t(A, B) <= B for the binary t over n elements."""
    return _sends_into(t, subset, any)

