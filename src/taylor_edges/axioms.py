"""Verifies the Edge Axioms and the downstream structural theorems.

Relational-axiom instances are monotone in the relation: the conclusion
tuple lies in every admissible R iff it lies in the subproduct generated by
the hypothesis tuples.  For Relational Axioms 1-2 we still enumerate all
subuniverses of small products (complete lectic enumeration up to a
configurable size bound) because the catalog lives there and the exhaustive
run doubles as a stress test of the enumerator; beyond the bound the
generated subproduct decides exactly.  Each unordered pair {L, R} is
enumerated once per verification: the subuniverses of R x L are those of
L x R transposed, and sorting them by the lectic key sum(2**(n-1-x)), x the
index of a pair in R x L, puts them in the order NextClosure would list them.

Relational Axiom 3 is decided from one closure per signature group.  Three
tuples generate {t(s1, s2, s3) : t a ternary term}, so (a2, b2, c2) lies in
the subproduct generated by (a1, b2, c2), (a2, b1, c2), (a2, b2, c1) exactly
when one ternary term t has t(a1, a2, a2) = a2, t(b2, b1, b2) = b2 and
t(c2, c2, c1) = c2.  The subproduct generated by the three projection rows
over one coordinate per (algebra, sm-edge, slot) lists the values of every
ternary term on every such pattern (projection commutes with Sg), so each
instance is an AND of three bitmasks over its rows (`_ternary_masks`).  A
group whose joint closure outgrows `_JOINT_TERNARY_ROWS` rows closes each
instance in A x B x C on its own instead, with the same answers.

Cross-algebra axioms (homomorphism and relational) only make sense between
similar algebras, so the verifier partitions its catalog by signature and
runs those checks within each group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .absorption import is_2_absorbing
from .algebra import (
    FiniteAlgebra,
    enumerate_subuniverses,
    generate_subproduct,
    induced_subalgebra,
    product_algebra,
    sg_closure,
)
from .congruences import homomorphisms_between
from .edges import EdgeGraph, component_analysis, compute_edges, is_x_closed, reachable
from .errors import CapExceeded, SEdgeMismatch
from .terms import free_algebra, has_majority_term, is_affine_algebra

PASS, FAIL, SKIP = "pass", "fail", "skipped"

# Relational Axiom 3 falls back to one closure per instance when the joint
# ternary closure of a signature group outgrows this many rows.  Catalogs of
# minimal Taylor algebras stay at a handful of rows; the ternary clone of a
# random algebra can grow like |A|**(3 * sm-edges) and passes it at once.
_JOINT_TERNARY_ROWS = 64


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""
    counterexample: tuple | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[CheckResult, ...]
    coverage: tuple[tuple[str, int], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    @property
    def skipped(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == SKIP)

    def counterexamples(self) -> tuple[tuple, ...]:
        return tuple(c.counterexample for c in self.failures if c.counterexample)


class _Recorder:
    def __init__(self, fail_fast: bool):
        self.fail_fast = fail_fast
        self.checks: list[CheckResult] = []
        self.coverage: dict[str, int] = {}

    def bump(self, key: str, by: int = 1):
        self.coverage[key] = self.coverage.get(key, 0) + by

    def record(self, result: CheckResult) -> bool:
        """Returns True when verification should stop (fail-fast hit)."""
        self.checks.append(result)
        return self.fail_fast and result.status == FAIL

    def mark(self) -> int:
        return len(self.checks)

    def clean_since(self, mark: int) -> bool:
        return all(c.status != FAIL for c in self.checks[mark:])

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.checks), tuple(sorted(self.coverage.items())))


def _semilattice_term_witness(alg: FiniteAlgebra, a: int, b: int, cap: int) -> bool:
    """Is there a binary term of alg acting on {a, b} as a semilattice with
    absorbing element b?  (Idempotence supplies the other two entries.)"""
    free = free_algebra(alg, 2, cap=cap)
    if not free.complete:
        raise CapExceeded(f"binary clone of {alg.name} incomplete")
    return any(t.apply(a, b) == b and t.apply(b, a) == b for t in free.elements)


def _structures(alg: FiniteAlgebra, cap: int):
    """(affine subuniverses, majority subuniverses, unknown-status subuniverses)."""
    affine, majority, unknown = [], [], []
    enum = enumerate_subuniverses(alg, cap=alg.size)
    for sub_set in enum.subuniverses:
        if len(sub_set) < 2:
            continue
        sub = induced_subalgebra(alg, sub_set)
        aff = is_affine_algebra(sub, cap=cap)
        maj = has_majority_term(sub, cap=cap)
        if aff is None or maj is None:
            unknown.append(sub_set)
            continue
        if aff:
            affine.append(sub_set)
        if maj:
            majority.append(sub_set)
    return affine, majority, unknown


def verify_edge_axioms(
    catalog: list[FiniteAlgebra],
    graphs: dict[FiniteAlgebra, EdgeGraph] | None = None,
    cap: int = 4096,
    enumeration_bound: int = 16,
    fail_fast: bool = False,
) -> AxiomReport:
    """Check Base Axioms 1-3 (and their stronger variants), Homomorphism
    Axioms 1-2, and Relational Axioms 1-3 over a catalog of algebras.

    `graphs` may inject externally supplied (e.g. deliberately corrupted)
    edge graphs; missing entries are computed.  Every failure carries a fully
    concrete counterexample.
    """
    rec = _Recorder(fail_fast)
    graphs = dict(graphs or {})
    usable: list[FiniteAlgebra] = []
    for alg in catalog:
        if alg not in graphs:
            try:
                graphs[alg] = compute_edges(alg, cap=cap)
            except (CapExceeded, SEdgeMismatch) as exc:
                rec.record(CheckResult("edges", SKIP, f"{alg.name}: {exc}"))
                continue
        usable.append(alg)

    for alg in usable:
        if _base_axioms(alg, graphs[alg], rec, cap):
            return rec.report()

    groups: dict[tuple, list[FiniteAlgebra]] = {}
    for alg in usable:
        groups.setdefault(alg.signature, []).append(alg)
    for group in groups.values():
        for src, dst in itertools.product(group, repeat=2):
            if _homomorphism_axioms(src, dst, graphs, rec, cap):
                return rec.report()
        known: dict[tuple[FiniteAlgebra, FiniteAlgebra], list] = {}
        for left, right in itertools.product(group, repeat=2):
            subs = _product_subuniverses(left, right, enumeration_bound, known)
            if _relational_axioms_12(left, right, graphs, rec, subs):
                return rec.report()
        masks = _ternary_masks(group, graphs)
        for triple in itertools.product(group, repeat=3):
            if _relational_axiom_3(triple, graphs, rec, masks):
                return rec.report()
    return rec.report()


def _base_axioms(alg, graph, rec, cap) -> bool:
    name = alg.name
    if graph.unknown:
        return rec.record(
            CheckResult("base-axioms", SKIP, f"{name}: {len(graph.unknown)} unknown edges")
        )
    try:
        affine, majority, unknown = _structures(alg, cap)
    except CapExceeded as exc:
        return rec.record(CheckResult("base-axioms", SKIP, f"{name}: {exc}"))
    for sub_set in unknown:
        rec.record(
            CheckResult(
                "base-axioms", SKIP, f"{name}: structure of {sorted(sub_set)} unknown"
            )
        )

    asm, as_, sm, s = (graph.edges(x) for x in ("asm", "as", "sm", "s"))
    rec.bump("affine-subuniverses", len(affine))
    rec.bump("majority-subuniverses", len(majority))

    mark = rec.mark()
    for sub_set in affine:
        for a, b in itertools.permutations(sorted(sub_set), 2):
            if (a, b) not in as_:
                if rec.record(CheckResult(
                    "base-axiom-1", FAIL,
                    f"{name}: affine subuniverse {sorted(sub_set)} misses as-edge ({a},{b})",
                    (name, "as", a, b),
                )):
                    return True
            if (a, b) in sm:
                if rec.record(CheckResult(
                    "stronger-base-axiom-1", FAIL,
                    f"{name}: sm-edge ({a},{b}) inside affine subuniverse {sorted(sub_set)}",
                    (name, "sm", a, b),
                )):
                    return True
    if rec.clean_since(mark):
        rec.record(CheckResult("base-axiom-1", PASS, f"{name}: {len(affine)} affine subuniverses"))

    mark = rec.mark()
    for sub_set in majority:
        for a, b in itertools.permutations(sorted(sub_set), 2):
            if (a, b) not in sm:
                if rec.record(CheckResult(
                    "base-axiom-2", FAIL,
                    f"{name}: majority subuniverse {sorted(sub_set)} misses sm-edge ({a},{b})",
                    (name, "sm", a, b),
                )):
                    return True
            if (a, b) in as_:
                if rec.record(CheckResult(
                    "stronger-base-axiom-2", FAIL,
                    f"{name}: as-edge ({a},{b}) inside majority subuniverse {sorted(sub_set)}",
                    (name, "as", a, b),
                )):
                    return True
    if rec.clean_since(mark):
        rec.record(CheckResult("base-axiom-2", PASS, f"{name}: {len(majority)} majority subuniverses"))

    mark = rec.mark()
    for a, b in itertools.permutations(range(alg.size), 2):
        try:
            witness = _semilattice_term_witness(alg, a, b, cap)
        except CapExceeded as exc:
            if rec.record(CheckResult("base-axiom-3", SKIP, f"{name}: {exc}")):
                return True
            continue
        rec.bump("semilattice-pairs-tested")
        if witness and (a, b) not in s:
            if rec.record(CheckResult(
                "base-axiom-3", FAIL,
                f"{name}: semilattice term on ({a},{b}) but no s-edge",
                (name, "s", a, b),
            )):
                return True
        if not witness and (a, b) in s:
            if rec.record(CheckResult(
                "stronger-base-axiom-3", FAIL,
                f"{name}: s-edge ({a},{b}) without a semilattice term witness",
                (name, "s", a, b),
            )):
                return True
        if (a, b) in s and (b, a) in asm:
            if rec.record(CheckResult(
                "stronger-base-axiom-3", FAIL,
                f"{name}: s-edge ({a},{b}) coexists with reverse asm-edge ({b},{a})",
                (name, "asm", b, a),
            )):
                return True
    if rec.clean_since(mark):
        rec.record(CheckResult("base-axiom-3", PASS, f"{name}: all ordered pairs checked"))
    return False


def _homomorphism_axioms(src, dst, graphs, rec, cap) -> bool:
    try:
        homs = homomorphisms_between(src, dst)
    except CapExceeded as exc:
        return rec.record(CheckResult("homomorphism-axioms", SKIP, f"{src.name}->{dst.name}: {exc}"))
    g_src, g_dst = graphs[src], graphs[dst]
    rec.bump("homomorphisms", len(homs))
    mark = rec.mark()
    for h in homs:
        for flavor in ("as", "sm"):
            for a, b in g_src.proper(flavor):
                if (h(a), h(b)) not in g_dst.edges(flavor):
                    if rec.record(CheckResult(
                        "homomorphism-axiom-1", FAIL,
                        f"{src.name}->{dst.name} via {h.mapping}: {flavor}-edge ({a},{b}) "
                        f"maps to missing ({h(a)},{h(b)})",
                        (src.name, dst.name, h.mapping, flavor, a, b),
                    )):
                        return True
        image = set(h.mapping)
        for flavor in ("as", "sm", "s"):
            for a in range(src.size):
                for d in sorted(image):
                    if d == h(a) or (h(a), d) not in g_dst.edges(flavor):
                        continue
                    candidates = [c for c in range(src.size) if h(c) == d]
                    sgs = {c: sg_closure(src, {a, c}) for c in candidates}
                    minimal = [
                        c for c in candidates
                        if not any(sgs[c2] < sgs[c] for c2 in candidates)
                    ]
                    for b_prime in minimal:
                        if (a, b_prime) not in g_src.edges(flavor):
                            if rec.record(CheckResult(
                                "homomorphism-axiom-2", FAIL,
                                f"{src.name}->{dst.name} via {h.mapping}: "
                                f"{flavor}-edge ({h(a)},{d}) does not lift to ({a},{b_prime})",
                                (src.name, dst.name, h.mapping, flavor, a, b_prime),
                            )):
                                return True
    if rec.clean_since(mark):
        rec.record(CheckResult(
            "homomorphism-axioms", PASS, f"{src.name}->{dst.name}: {len(homs)} homomorphisms"
        ))
    return False


def _product_subuniverses(left, right, bound, known):
    """All subuniverses of left x right as pair sets in lectic order, or None
    above the bound.

    `known` maps the ordered pairs listed earlier in the same verification to
    their lists.  When it holds right x left, that list is transposed and
    sorted by the lectic key sum(2**(n-1-x)), x = a*|right| + b the index of
    (a, b) in left x right, instead of enumerating again."""
    if left.size * right.size > bound:
        return None
    nr = right.size
    if (right, left) in known:
        n = left.size * nr
        subs = sorted(
            (frozenset((a, b) for b, a in s) for s in known[right, left]),
            key=lambda s: sum(1 << (n - 1 - a * nr - b) for a, b in s),
        )
    else:
        prod = product_algebra(left, right)
        enum = enumerate_subuniverses(prod, cap=prod.size)
        subs = [frozenset((x // nr, x % nr) for x in s) for s in enum.subuniverses]
    known[left, right] = subs
    return subs


def _relational_axioms_12(left, right, graphs, rec, subs) -> bool:
    """Relational Axioms 1-2 on left x right; `subs` lists its subuniverses
    (from `_product_subuniverses`), or is None to decide by generation."""
    gl, gr = graphs[left], graphs[right]
    as_l = sorted(gl.proper("as"))
    as_r = sorted(gr.proper("as"))
    sm_r = sorted(gr.proper("sm"))
    mode = "enumerated" if subs is not None else "generated"
    rec.bump(f"relational-products-{mode}")
    mark = rec.mark()

    def holds_1(a1, a2, b1, b2):
        if subs is not None:
            for r in subs:
                if (a1, b2) in r and (a2, b1) in r and (a2, b2) not in r:
                    return False, r
            return True, None
        rows = generate_subproduct([left, right], [(a1, b2), (a2, b1)])
        return ((a2, b2) in {tuple(r) for r in rows}), frozenset({(a1, b2), (a2, b1)})

    def holds_2(a1, a2, b1, b2):
        if subs is not None:
            for r in subs:
                if {(a1, b1), (a1, b2), (a2, b1)} <= r and (a2, b2) not in r:
                    return False, r
            return True, None
        rows = generate_subproduct([left, right], [(a1, b1), (a1, b2), (a2, b1)])
        return ((a2, b2) in {tuple(r) for r in rows}), frozenset({(a1, b1), (a1, b2), (a2, b1)})

    for (a1, a2), (b1, b2) in itertools.product(as_l, sm_r):
        rec.bump("relational-axiom-1-instances")
        ok, witness = holds_1(a1, a2, b1, b2)
        if not ok:
            if rec.record(CheckResult(
                "relational-axiom-1", FAIL,
                f"{left.name}x{right.name}: as({a1},{a2}), sm({b1},{b2}): "
                f"({a2},{b2}) missing from R={sorted(witness)}",
                (left.name, right.name, (a1, a2), (b1, b2), tuple(sorted(witness))),
            )):
                return True
    for (a1, a2), (b1, b2) in itertools.product(as_l, as_r):
        rec.bump("relational-axiom-2-instances")
        ok, witness = holds_2(a1, a2, b1, b2)
        if not ok:
            if rec.record(CheckResult(
                "relational-axiom-2", FAIL,
                f"{left.name}x{right.name}: as({a1},{a2}), as({b1},{b2}): "
                f"({a2},{b2}) missing from R={sorted(witness)}",
                (left.name, right.name, (a1, a2), (b1, b2), tuple(sorted(witness))),
            )):
                return True
    if rec.clean_since(mark):
        rec.record(CheckResult(
            "relational-axioms-1-2", PASS, f"{left.name}x{right.name} ({mode})"
        ))
    return False


def _ternary_masks(group, graphs) -> dict[FiniteAlgebra, list[list[tuple]]] | None:
    """Per algebra X and slot p, X's sm-edges (x1, x2) each with a bitmask
    over the rows of one closure: bit r is set when ternary term row r sends
    the slot-p pattern (x1 at argument p, x2 elsewhere) to x2.  See the
    module docstring for why Relational Axiom 3 needs nothing else.

    None when the closure outgrows `_JOINT_TERNARY_ROWS`, and the caller
    closes each instance on its own instead."""
    sms = {alg: sorted(graphs[alg].proper("sm")) for alg in group}
    keys = [(alg, edge, p) for alg, edges in sms.items() for edge in edges for p in range(3)]
    masks = {}
    if keys:
        seeds = [tuple(x1 if j == p else x2 for _, (x1, x2), p in keys) for j in range(3)]
        try:
            rows = generate_subproduct(
                [alg for alg, _, _ in keys], seeds, cap=_JOINT_TERNARY_ROWS
            )
        except CapExceeded:
            return None
        masks = {
            key: sum(1 << r for r, row in enumerate(rows) if row[i] == key[1][1])
            for i, key in enumerate(keys)
        }
    return {
        alg: [[(edge, masks[alg, edge, p]) for edge in edges] for p in range(3)]
        for alg, edges in sms.items()
    }


def _relational_axiom_3(triple, graphs, rec, masks) -> bool:
    a_alg, b_alg, c_alg = triple
    if masks is None:  # the joint closure was too large: one closure per instance
        slots = [[(edge, edge) for edge in sorted(graphs[x].proper("sm"))] for x in triple]

        def holds(a, b, c):
            seeds = [(a[0], b[1], c[1]), (a[1], b[0], c[1]), (a[1], b[1], c[0])]
            return (a[1], b[1], c[1]) in generate_subproduct(triple, seeds)
    else:
        slots = [masks[x][p] for p, x in enumerate(triple)]

        def holds(a, b, c):
            return a & b & c
    mark = rec.mark()
    for ((a1, a2), ma), ((b1, b2), mb), ((c1, c2), mc) in itertools.product(*slots):
        rec.bump("relational-axiom-3-instances")
        if not holds(ma, mb, mc):
            if rec.record(CheckResult(
                "relational-axiom-3", FAIL,
                f"{a_alg.name}x{b_alg.name}x{c_alg.name}: sm-edges "
                f"({a1},{a2}),({b1},{b2}),({c1},{c2}): ({a2},{b2},{c2}) missing "
                f"from the generated subproduct",
                (a_alg.name, b_alg.name, c_alg.name, (a1, a2), (b1, b2), (c1, c2)),
            )):
                return True
    if rec.clean_since(mark):
        rec.record(CheckResult(
            "relational-axiom-3", PASS, f"{a_alg.name}x{b_alg.name}x{c_alg.name}"
        ))
    return False


# ---------------------------------------------------------------------------
# Structural theorems for a single algebra


def verify_edge_theorems(
    alg: FiniteAlgebra,
    graph: EdgeGraph | None = None,
    subset_cap: int = 6,
    cap: int = 4096,
) -> AxiomReport:
    """Check the weak-connectivity, sink-component, antisymmetry, witness-term,
    and absorption-characterization consequences on one algebra."""
    rec = _Recorder(fail_fast=False)
    if graph is None:
        graph = compute_edges(alg, cap=cap)
    if graph.unknown:
        rec.record(CheckResult("edge-theorems", SKIP,
                               f"{alg.name}: {len(graph.unknown)} unknown edges"))
        return rec.report()

    asm_comp = component_analysis(graph, "asm")
    s_comp = component_analysis(graph, "s")
    asm_edges = graph.proper("asm")

    if asm_comp.is_weakly_connected():
        rec.record(CheckResult("weak-connectivity", PASS, alg.name))
    else:
        rec.record(CheckResult(
            "weak-connectivity", FAIL,
            f"{alg.name}: asm weak components {asm_comp.weak_components}",
            (alg.name, asm_comp.weak_components),
        ))

    s_min = sorted(s_comp.x_min)
    reach = {a: reachable(asm_edges, a) for a in s_min}
    bad = [
        (a, b) for a in s_min for b in s_min
        if b not in reach[a] or a not in reach[b]
    ]
    if bad:
        rec.record(CheckResult(
            "smin-mutually-asm-reachable", FAIL,
            f"{alg.name}: s-min pair {bad[0]} not mutually asm-reachable",
            (alg.name, bad[0]),
        ))
    else:
        rec.record(CheckResult("smin-mutually-asm-reachable", PASS,
                               f"{alg.name}: |s-min|={len(s_min)}"))

    asm_min = asm_comp.x_min
    single = len(asm_comp.sinks) == 1
    contains = set(s_min) <= set(asm_min)
    if single and contains:
        rec.record(CheckResult("asmmin-single-component", PASS, alg.name))
    else:
        rec.record(CheckResult(
            "asmmin-single-component", FAIL,
            f"{alg.name}: sinks={sorted(asm_comp.sinks)}, "
            f"s-min={s_min}, asm-min={sorted(asm_min)}",
            (alg.name, tuple(sorted(asm_min)), tuple(s_min)),
        ))

    viol = [
        (a, b) for a, b in graph.proper("s") if (b, a) in asm_edges
    ]
    if viol:
        rec.record(CheckResult(
            "noedge-antisymmetry", FAIL,
            f"{alg.name}: s-edge {viol[0]} has a reverse asm-edge",
            (alg.name, viol[0]),
        ))
    else:
        rec.record(CheckResult("noedge-antisymmetry", PASS, alg.name))

    free3 = free_algebra(alg, 3, cap=cap)
    missing = None
    for a, b in sorted(asm_edges):
        hit = False
        for t in free3.elements:
            ess = t.essential_coordinates()
            if 0 in ess and 2 in ess and any(
                t.apply(a, c, b) == b for c in range(alg.size)
            ):
                hit = True
                break
        if not hit:
            missing = (a, b)
            break
    if missing is not None and not free3.complete:
        rec.record(CheckResult("existsaterm-witness", SKIP,
                               f"{alg.name}: F(3) incomplete, edge {missing} unresolved"))
    elif missing is not None:
        rec.record(CheckResult(
            "existsaterm-witness", FAIL,
            f"{alg.name}: no ternary witness with essential outer variables "
            f"for asm-edge {missing}",
            (alg.name, missing),
        ))
    else:
        rec.record(CheckResult("existsaterm-witness", PASS,
                               f"{alg.name}: {len(asm_edges)} asm-edges witnessed"))

    if alg.size > subset_cap:
        rec.record(CheckResult("two-absorption-characterization", SKIP,
                               f"{alg.name}: size above subset cap {subset_cap}"))
    else:
        bad_subset = None
        for bits in range(1, 1 << alg.size):
            subset = frozenset(i for i in range(alg.size) if bits >> i & 1)
            try:
                decision = is_2_absorbing(alg, subset, graph=graph, cap=cap)
            except SEdgeMismatch as exc:
                bad_subset = (subset, str(exc))
                break
            if decision.absorbing != is_x_closed(graph, "asm", subset):
                bad_subset = (subset, "decision/closedness mismatch")
                break
        if bad_subset is None:
            rec.record(CheckResult("two-absorption-characterization", PASS, alg.name))
        else:
            rec.record(CheckResult(
                "two-absorption-characterization", FAIL,
                f"{alg.name}: subset {sorted(bad_subset[0])}: {bad_subset[1]}",
                (alg.name, tuple(sorted(bad_subset[0]))),
            ))
    return rec.report()
