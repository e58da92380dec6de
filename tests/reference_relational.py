"""Reference Relational Axiom 3: one closure per instance.

This is the per-instance check the axiom verifier used before it decided
every instance from one joint ternary closure per signature group.  It
closes the three hypothesis tuples in A x B x C with `generate_subproduct`
and looks for the conclusion tuple among the rows, so it shares no code
with the bitmask path beyond the closure engine itself.
"""

from __future__ import annotations

import itertools

from taylor_edges.algebra import generate_subproduct
from taylor_edges.axioms import FAIL, PASS, CheckResult


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
