"""Reference Relational Axioms 1-3: every instance decided on its own.

These are the checks the axiom verifier ran before it decided every instance
from one joint term closure per axiom and signature group.

- Axioms 1-2 on L x R: for |L x R| <= `ENUMERATION_BOUND`, scan every
  subuniverse of `product_algebra(L, R)` from `enumerate_subuniverses` for
  one that holds the hypothesis pairs and misses the conclusion; its R is the
  first such subuniverse in lectic order.  Above the bound, close the
  hypothesis pairs with `generate_subproduct`; R is then the seed set.
- Axiom 3 on A x B x C: close the three hypothesis tuples with
  `generate_subproduct` and look for the conclusion among the rows.

They share no code with the bitmask path beyond the closure engine and the
subuniverse enumerator.  `relational_axioms` runs them in the verifier's
order, so it can stand in for `axioms._relational_axioms`.
"""

from __future__ import annotations

import functools
import itertools

from taylor_edges.algebra import enumerate_subuniverses, generate_subproduct, product_algebra
from taylor_edges.axioms import FAIL, PASS, CheckResult

ENUMERATION_BOUND = 16

# coverage counters of the joint path, which the reference has no part in
JOINT_COUNTERS = ("relational-joint-rows", "relational-fallback-instances")


@functools.lru_cache(maxsize=None)
def product_subuniverses(left, right) -> tuple[frozenset, ...]:
    """Every subuniverse of left x right as a set of pairs, in lectic order."""
    prod = product_algebra(left, right)
    enum = enumerate_subuniverses(prod, cap=prod.size)
    nr = right.size
    return tuple(frozenset((x // nr, x % nr) for x in s) for s in enum.subuniverses)


def decide_12(left, right, hypotheses, conclusion):
    """(holds, R): does every subuniverse of left x right holding the
    hypothesis pairs hold the conclusion?  R is a counterexample or None."""
    if left.size * right.size <= ENUMERATION_BOUND:
        for r in product_subuniverses(left, right):
            if set(hypotheses) <= r and conclusion not in r:
                return False, r
        return True, None
    rows = generate_subproduct([left, right], hypotheses)
    return conclusion in {tuple(r) for r in rows}, frozenset(hypotheses)


def relational_axioms_12(left, right, graphs, rec) -> bool:
    gl, gr = graphs[left], graphs[right]
    as_l = sorted(gl.proper("as"))
    as_r = sorted(gr.proper("as"))
    sm_r = sorted(gr.proper("sm"))
    mark = rec.mark()
    for (a1, a2), (b1, b2) in itertools.product(as_l, sm_r):
        rec.bump("relational-axiom-1-instances")
        ok, witness = decide_12(left, right, [(a1, b2), (a2, b1)], (a2, b2))
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
        ok, witness = decide_12(left, right, [(a1, b1), (a1, b2), (a2, b1)], (a2, b2))
        if not ok:
            if rec.record(CheckResult(
                "relational-axiom-2", FAIL,
                f"{left.name}x{right.name}: as({a1},{a2}), as({b1},{b2}): "
                f"({a2},{b2}) missing from R={sorted(witness)}",
                (left.name, right.name, (a1, a2), (b1, b2), tuple(sorted(witness))),
            )):
                return True
    if rec.clean_since(mark):
        rec.record(CheckResult("relational-axioms-1-2", PASS, f"{left.name}x{right.name}"))
    return False


def relational_axiom_3(triple, graphs, rec) -> bool:
    a_alg, b_alg, c_alg = triple
    sms = [sorted(graphs[x].proper("sm")) for x in triple]
    mark = rec.mark()
    for (a1, a2), (b1, b2), (c1, c2) in itertools.product(*sms):
        rec.bump("relational-axiom-3-instances")
        seeds = [(a1, b2, c2), (a2, b1, c2), (a2, b2, c1)]
        rows = generate_subproduct([a_alg, b_alg, c_alg], seeds)
        if (a2, b2, c2) not in {tuple(r) for r in rows}:
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


def relational_axioms(group, graphs, rec) -> bool:
    """Axioms 1-2 on every pair, then 3 on every triple of `group`."""
    for left, right in itertools.product(group, repeat=2):
        if relational_axioms_12(left, right, graphs, rec):
            return True
    for triple in itertools.product(group, repeat=3):
        if relational_axiom_3(triple, graphs, rec):
            return True
    return False


def comparable(checks, coverage):
    """Checks and coverage with what may differ from the reference left out:
    the R of a relational-axiom-1/2 counterexample (and the detail naming it),
    and the joint path's own counters."""
    out = []
    for c in checks:
        if c.status == FAIL and c.name in ("relational-axiom-1", "relational-axiom-2"):
            out.append((c.name, c.status, c.counterexample[:-1]))
        else:
            out.append((c.name, c.status, c.detail, c.counterexample))
    return out, {k: v for k, v in dict(coverage).items() if k not in JOINT_COUNTERS}
