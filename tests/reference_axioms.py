"""Reference `_base_axioms`, `_homomorphism_axioms` and
`verify_edge_theorems`: the verifier's earlier versions, kept verbatim, which
write each PASS and FAIL record by hand.

The library records every verdict through `_Recorder.check`.  The tests swap
these in for the library's functions and compare whole reports, so both must
record the same checks, in the same order, with the same details,
counterexamples and coverage counters.
"""

from __future__ import annotations

import itertools

from taylor_edges.absorption import is_2_absorbing
from taylor_edges.algebra import FiniteAlgebra, sg_closure
from taylor_edges.axioms import FAIL, PASS, SKIP, AxiomReport, CheckResult, _Recorder, _structures
from taylor_edges.congruences import homomorphisms_between
from taylor_edges.edges import EdgeGraph, component_analysis, compute_edges, is_x_closed
from taylor_edges.errors import CapExceeded, SEdgeMismatch
from taylor_edges.terms import free_algebra, semilattice_term


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
        witness = semilattice_term(alg, a, b) is not None
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


def _homomorphism_axioms(src, dst, graphs, rec) -> bool:
    homs = homomorphisms_between(src, dst)
    flavors = ("as", "sm", "s")
    src_edges = {flavor: graphs[src].edges(flavor) for flavor in flavors}
    dst_edges = {flavor: graphs[dst].edges(flavor) for flavor in flavors}
    src_proper = {flavor: graphs[src].proper(flavor) for flavor in ("as", "sm")}
    sgs: dict[tuple[int, int], frozenset] = {}  # (a, c) -> Sg{a, c} in src
    rec.bump("homomorphisms", len(homs))
    mark = rec.mark()
    for h in homs:
        for flavor in ("as", "sm"):
            for a, b in src_proper[flavor]:
                if (h(a), h(b)) not in dst_edges[flavor]:
                    if rec.record(CheckResult(
                        "homomorphism-axiom-1", FAIL,
                        f"{src.name}->{dst.name} via {h.mapping}: {flavor}-edge ({a},{b}) "
                        f"maps to missing ({h(a)},{h(b)})",
                        (src.name, dst.name, h.mapping, flavor, a, b),
                    )):
                        return True
        image = sorted(set(h.mapping))
        minimal: dict[tuple[int, int], list[int]] = {}  # (a, d) -> lifting candidates
        for flavor in flavors:
            for a in range(src.size):
                for d in image:
                    if d == h(a) or (h(a), d) not in dst_edges[flavor]:
                        continue
                    if (a, d) not in minimal:
                        candidates = [c for c in range(src.size) if h(c) == d]
                        for c in candidates:
                            if (a, c) not in sgs:
                                sgs[a, c] = sg_closure(src, {a, c})
                        minimal[a, d] = [
                            c for c in candidates
                            if not any(sgs[a, c2] < sgs[a, c] for c2 in candidates)
                        ]
                    for b_prime in minimal[a, d]:
                        if (a, b_prime) not in src_edges[flavor]:
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
    reach = graph.reach("asm")
    bad = [(a, b) for a in s_min for b in s_min if not (reach[a] >> b & 1 and reach[b] >> a & 1)]
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
