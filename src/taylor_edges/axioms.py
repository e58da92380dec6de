"""Verifies the Edge Axioms and the downstream structural theorems.

Relational-axiom instances are monotone in the relation: the conclusion
tuple lies in every admissible R iff it lies in R = Sg(hypothesis tuples).
k tuples generate {t(s1, ..., sk) : t a k-ary term}, so an instance holds iff
one k-ary term sends every slot's column (that slot's entries of the k
hypothesis tuples) to the slot's entry of the conclusion:

- Axiom 1, as-edge (a1, a2) and sm-edge (b1, b2), hypotheses (a1, b2),
  (a2, b1): a binary t with t(a1, a2) = a2 and t(b2, b1) = b2;
- Axiom 2, as-edges (a1, a2) and (b1, b2), hypotheses (a1, b1), (a1, b2),
  (a2, b1): a ternary t with t(a1, a1, a2) = a2 and t(b1, b2, b1) = b2;
- Axiom 3, sm-edges (a1, a2), (b1, b2), (c1, c2), hypotheses (a1, b2, c2),
  (a2, b1, c2), (a2, b2, c1): a ternary t with t(a1, a2, a2) = a2,
  t(b2, b1, b2) = b2 and t(c2, c2, c1) = c2.

Projection commutes with Sg, so the subproduct generated by the k projection
rows over one coordinate per (algebra, column) lists the values of every
k-ary term on all those columns at once.  One such closure per axiom and
signature group thus decides every instance of the axiom, each an AND of one
bitmask per slot over the closure's rows (`_joint_masks`).  (Axioms 2 and 3
keep separate ternary closures: closing their columns together multiplies
the rows.)  Where a joint closure outgrows `_JOINT_ROWS` rows, each instance
of that axiom closes its own hypothesis tuples instead, with the same
answers.  A failing instance of Axiom 1 or 2 reports Sg(hypothesis tuples)
as its R.

Cross-algebra axioms (homomorphism and relational) only make sense between
similar algebras, so the verifier partitions its catalog by signature and
runs those checks within each group.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .absorption import is_2_absorbing
from .algebra import (
    FiniteAlgebra,
    enumerate_subuniverses,
    generate_subproduct,
    induced_subalgebra,
    sg_closure,
)
from .congruences import homomorphisms_between
from .edges import EdgeGraph, component_analysis, compute_edges
from .errors import CapExceeded, SEdgeMismatch
from .terms import free_algebra, has_majority_term, is_affine_algebra, semilattice_term

PASS, FAIL, SKIP = "pass", "fail", "skipped"

# A relational axiom falls back to one closure per instance when its joint
# closure in a signature group outgrows this many rows.  Catalogs of minimal
# Taylor algebras stay at a handful of rows; the ternary clone of a random
# algebra can grow like |A|**(3 * sm-edges) and passes it at once.
_JOINT_ROWS = 64

# Each relational axiom: its name, and per slot (one algebra of the product)
# the flavor of the slot's edge (x1, x2) and the pattern that picks the slot's
# entries of the hypothesis tuples from it.  The conclusion takes x2 in every
# slot; the module docstring says why.
_AXIOMS = (
    ("relational-axiom-1", (("as", (0, 1)), ("sm", (1, 0)))),
    ("relational-axiom-2", (("as", (0, 0, 1)), ("as", (0, 1, 0)))),
    ("relational-axiom-3", (("sm", (0, 1, 1)), ("sm", (1, 0, 1)), ("sm", (1, 1, 0)))),
)


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

    def check(self, name: str, passed: str, failures) -> bool:
        """Records each (check, detail, counterexample) of `failures` as a
        FAIL, stopping at the first under fail-fast, or one PASS of `name`
        with detail `passed` when there is none.  True when fail-fast stops
        verification."""
        mark = self.mark()
        for check, detail, counterexample in failures:
            if self.record(CheckResult(check, FAIL, detail, counterexample)):
                return True
        if self.clean_since(mark):
            self.record(CheckResult(name, PASS, passed))
        return False

    def mark(self) -> int:
        return len(self.checks)

    def clean_since(self, mark: int) -> bool:
        return all(c.status != FAIL for c in self.checks[mark:])

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.checks), tuple(sorted(self.coverage.items())))


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
            if _homomorphism_axioms(src, dst, graphs, rec):
                return rec.report()
        if _relational_axioms(group, graphs, rec):
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
    for sub in map(sorted, unknown):
        rec.record(CheckResult("base-axioms", SKIP, f"{name}: structure of {sub} unknown"))

    edges = {x: graph.edges(x) for x in ("asm", "as", "sm", "s")}
    rec.bump("affine-subuniverses", len(affine))
    rec.bump("majority-subuniverses", len(majority))
    # Base Axioms 1 and 2: (axiom, structure, its subuniverses, the flavor that
    # must join each pair of one, the flavor that none may have)
    for axiom, structure, subs, needed, forbidden in (
        (1, "affine", affine, "as", "sm"), (2, "majority", majority, "sm", "as")
    ):
        failures = _subuniverse_failures(name, edges, axiom, structure, subs, needed, forbidden)
        passed = f"{name}: {len(subs)} {structure} subuniverses"
        if rec.check(f"base-axiom-{axiom}", passed, failures):
            return True
    failures = _semilattice_failures(alg, edges, rec)
    return rec.check("base-axiom-3", f"{name}: all ordered pairs checked", failures)


def _subuniverse_failures(name, edges, axiom, structure, subs, needed, forbidden):
    """Base Axiom `axiom` and its stronger form on every pair of each of `subs`."""
    for sub_set in subs:
        sub = sorted(sub_set)
        for a, b in itertools.permutations(sub, 2):
            if (a, b) not in edges[needed]:
                yield (f"base-axiom-{axiom}", f"{name}: {structure} subuniverse {sub} "
                       f"misses {needed}-edge ({a},{b})", (name, needed, a, b))
            if (a, b) in edges[forbidden]:
                yield (f"stronger-base-axiom-{axiom}", f"{name}: {forbidden}-edge ({a},{b}) "
                       f"inside {structure} subuniverse {sub}", (name, forbidden, a, b))


def _semilattice_failures(alg, edges, rec):
    """Base Axiom 3 and its stronger form on every ordered pair of `alg`."""
    name, s = alg.name, edges["s"]
    for a, b in itertools.permutations(range(alg.size), 2):
        witness = semilattice_term(alg, a, b) is not None
        rec.bump("semilattice-pairs-tested")
        if witness and (a, b) not in s:
            yield ("base-axiom-3", f"{name}: semilattice term on ({a},{b}) but no s-edge",
                   (name, "s", a, b))
        if not witness and (a, b) in s:
            yield ("stronger-base-axiom-3", f"{name}: s-edge ({a},{b}) without a semilattice "
                   "term witness", (name, "s", a, b))
        if (a, b) in s and (b, a) in edges["asm"]:
            yield ("stronger-base-axiom-3", f"{name}: s-edge ({a},{b}) coexists with reverse "
                   f"asm-edge ({b},{a})", (name, "asm", b, a))


def _homomorphism_axioms(src, dst, graphs, rec) -> bool:
    homs = homomorphisms_between(src, dst)
    rec.bump("homomorphisms", len(homs))
    passed = f"{src.name}->{dst.name}: {len(homs)} homomorphisms"
    return rec.check("homomorphism-axioms", passed, _homomorphism_failures(src, dst, homs, graphs))


def _homomorphism_failures(src, dst, homs, graphs):
    """Homomorphism Axioms 1 and 2 along each of `homs`."""
    flavors = ("as", "sm", "s")
    src_edges = {flavor: graphs[src].edges(flavor) for flavor in flavors}
    dst_edges = {flavor: graphs[dst].edges(flavor) for flavor in flavors}
    src_proper = {flavor: graphs[src].proper(flavor) for flavor in ("as", "sm")}
    sgs: dict[tuple[int, int], frozenset] = {}  # (a, c) -> Sg{a, c} in src
    for h in homs:
        via, at = f"{src.name}->{dst.name} via {h.mapping}", (src.name, dst.name, h.mapping)
        for flavor in ("as", "sm"):
            for a, b in src_proper[flavor]:
                if (h(a), h(b)) not in dst_edges[flavor]:
                    yield ("homomorphism-axiom-1", f"{via}: {flavor}-edge ({a},{b}) maps to "
                           f"missing ({h(a)},{h(b)})", (*at, flavor, a, b))
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
                            yield ("homomorphism-axiom-2", f"{via}: {flavor}-edge ({h(a)},{d}) "
                                   f"does not lift to ({a},{b_prime})", (*at, flavor, a, b_prime))


def _joint_masks(keys, arity, rec) -> dict[tuple, int] | None:
    """One bitmask per key (algebra, column, target) over the rows of one
    closure of the `arity` projection rows, one coordinate per distinct
    (algebra, column): bit r is set when term row r sends the column to the
    target.  None when the closure outgrows `_JOINT_ROWS` rows."""
    coords: dict[tuple, int] = {}
    for alg, column, _ in keys:
        coords.setdefault((alg, column), len(coords))
    if not coords:
        return {}
    seeds = [tuple(column[j] for _, column in coords) for j in range(arity)]
    try:
        rows = generate_subproduct([alg for alg, _ in coords], seeds, cap=_JOINT_ROWS)
    except CapExceeded as exc:
        rec.bump("relational-joint-rows", len(exc.partial))
        return None
    rec.bump("relational-joint-rows", len(rows))
    return {
        key: sum(1 << r for r, row in enumerate(rows) if row[coords[key[:2]]] == key[2])
        for key in keys
    }


def _hypothesis_closure(algs, keys) -> set[tuple]:
    """Sg of one instance's hypothesis tuples, the rows of its slots' columns."""
    seeds = zip(*(column for _, column, _ in keys))
    return set(generate_subproduct(algs, seeds))


def _slot_choices(group, graphs) -> dict[tuple, list[list[tuple]]]:
    """Per relational axiom name and algebra of `group`, per slot of the
    axiom, (edge, key) for each proper edge (x1, x2) of the slot's flavor in
    the algebra; the key (algebra, column, target) holds the edge's entries
    picked by the slot's pattern, and x2."""
    return {
        (name, alg): [
            [
                (edge, (alg, tuple(edge[i] for i in pattern), edge[1]))
                for edge in sorted(graphs[alg].proper(flavor))
            ]
            for flavor, pattern in slots
        ]
        for name, slots in _AXIOMS
        for alg in group
    }


def _group_masks(group, choices, rec) -> dict[str, dict[tuple, int] | None]:
    """Per relational axiom, the masks of its joint closure over `group`."""
    masks = {}
    for name, slots in _AXIOMS:
        keys = dict.fromkeys(
            key for alg in group for slot in choices[name, alg] for _, key in slot
        )
        masks[name] = _joint_masks(list(keys), len(slots[0][1]), rec)
    return masks


def _relational_axioms(group, graphs, rec) -> bool:
    """Relational Axioms 1-2 on every pair and 3 on every triple of `group`.
    True when fail-fast stops verification."""
    choices = _slot_choices(group, graphs)
    masks = _group_masks(group, choices, rec)
    for algs in itertools.product(group, repeat=2):
        if _relational_product("relational-axioms-1-2", _AXIOMS[:2], algs, choices, rec, masks):
            return True
    for algs in itertools.product(group, repeat=3):
        if _relational_product("relational-axiom-3", _AXIOMS[2:], algs, choices, rec, masks):
            return True
    return False


def _relational_product(check, axioms, algs, choices, rec, masks) -> bool:
    """Every instance of `axioms` on the product of `algs`, each decided by
    its slots' masks, or by `_hypothesis_closure` where its axiom's joint
    closure was too large; one `check` PASS when none fails.  True when
    fail-fast stops verification."""
    names = "x".join(alg.name for alg in algs)
    failures = _relational_failures(axioms, algs, names, choices, rec, masks)
    stopped = rec.check(check, names, failures)
    failures.close()  # counts the instances of an axiom that fail-fast cut short
    return stopped


def _relational_failures(axioms, algs, names, choices, rec, masks):
    for name, slots in axioms:
        joint = masks[name]
        slot_choices = [choices[name, alg][i] for i, alg in enumerate(algs)]
        # without a joint closure every mask is 0: each instance closes on its own
        bits = [[0 if joint is None else joint[key] for _, key in slot] for slot in slot_choices]
        n = 0
        instances = zip(itertools.product(*slot_choices), itertools.product(*bits))
        try:
            for n, (instance, slot_bits) in enumerate(instances, 1):
                if functools.reduce(operator.and_, slot_bits):
                    continue
                edges = tuple(edge for edge, _ in instance)
                keys = [key for _, key in instance]
                target = tuple(x2 for _, x2 in edges)
                if joint is None:
                    closure = _hypothesis_closure(algs, keys)
                    if target in closure:
                        continue
                conclusion = "(" + ",".join(map(str, target)) + ")"
                if name == "relational-axiom-3":
                    detail = (
                        f"{names}: sm-edges {','.join(f'({x1},{x2})' for x1, x2 in edges)}: "
                        f"{conclusion} missing from the generated subproduct"
                    )
                    yield name, detail, (*(alg.name for alg in algs), *edges)
                else:
                    r = sorted(closure if joint is None else _hypothesis_closure(algs, keys))
                    hypotheses = ", ".join(
                        f"{flavor}({x1},{x2})" for (flavor, _), (x1, x2) in zip(slots, edges)
                    )
                    detail = f"{names}: {hypotheses}: {conclusion} missing from R={r}"
                    yield name, detail, (*(alg.name for alg in algs), *edges, tuple(r))
        finally:
            if n:
                rec.bump(f"{name}-instances", n)
                if joint is None:
                    rec.bump("relational-fallback-instances", n)


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

    name, asm_edges = alg.name, graph.proper("asm")
    asm_comp, s_comp = component_analysis(graph, "asm"), component_analysis(graph, "s")
    weak = asm_comp.weak_components
    rec.check("weak-connectivity", name, [] if asm_comp.is_weakly_connected() else [
        ("weak-connectivity", f"{name}: asm weak components {weak}", (name, weak))
    ])

    s_min, reach = sorted(s_comp.x_min), graph.reach("asm")
    bad = [(a, b) for a in s_min for b in s_min if not (reach[a] >> b & 1 and reach[b] >> a & 1)]
    rec.check("smin-mutually-asm-reachable", f"{name}: |s-min|={len(s_min)}", [
        ("smin-mutually-asm-reachable", f"{name}: s-min pair {p} not mutually asm-reachable",
         (name, p)) for p in bad[:1]
    ])

    asm_min = sorted(asm_comp.x_min)
    single = len(asm_comp.sinks) == 1 and set(s_min) <= set(asm_min)
    rec.check("asmmin-single-component", name, [] if single else [
        ("asmmin-single-component",
         f"{name}: sinks={sorted(asm_comp.sinks)}, s-min={s_min}, asm-min={asm_min}",
         (name, tuple(asm_min), tuple(s_min)))
    ])

    viol = [(a, b) for a, b in graph.proper("s") if (b, a) in asm_edges]
    rec.check("noedge-antisymmetry", name, [
        ("noedge-antisymmetry", f"{name}: s-edge {p} has a reverse asm-edge", (name, p))
        for p in viol[:1]
    ])

    free3 = free_algebra(alg, 3, cap=cap)
    # the ternary terms whose outer variables are both essential
    outer = [t for t in free3.elements if {0, 2} <= set(t.essential_coordinates())]
    missing = [(a, b) for a, b in sorted(asm_edges)
               if not any(t.apply(a, c, b) == b for t in outer for c in range(alg.size))][:1]
    if missing and not free3.complete:
        rec.record(CheckResult("existsaterm-witness", SKIP,
                               f"{name}: F(3) incomplete, edge {missing[0]} unresolved"))
    else:
        rec.check("existsaterm-witness", f"{name}: {len(asm_edges)} asm-edges witnessed", [
            ("existsaterm-witness", f"{name}: no ternary witness with essential outer "
             f"variables for asm-edge {p}", (name, p)) for p in missing
        ])

    if alg.size > subset_cap:
        rec.record(CheckResult("two-absorption-characterization", SKIP,
                               f"{name}: size above subset cap {subset_cap}"))
    else:
        rec.check("two-absorption-characterization", name, (
            ("two-absorption-characterization", f"{name}: subset {sorted(subset)}: {why}",
             (name, tuple(sorted(subset))))
            for subset, why in itertools.islice(_absorption_mismatches(alg, graph, cap), 1)
        ))
    return rec.report()


def _absorption_mismatches(alg, graph, cap):
    """Each nonempty subset whose F(2) witness search disagrees with its
    asm-closedness, which `is_2_absorbing` raises as SEdgeMismatch, and how."""
    for bits in range(1, 1 << alg.size):
        subset = frozenset(i for i in range(alg.size) if bits >> i & 1)
        try:
            is_2_absorbing(alg, subset, graph=graph, cap=cap)
        except SEdgeMismatch as exc:
            yield subset, str(exc)
