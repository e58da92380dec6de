"""(k, l)-minimization as it stood before the worklist rewrite, kept as the
reference that `test_kl_reference.py` compares the library's `kl_minimize`
with.

It sweeps every ordered pair of scopes until a whole sweep changes nothing,
projecting one tuple at a time.  On a satisfiable instance the library must
return an equal `Instance`; on an unsatisfiable one the same status and scope
list (its non-empty relations are an intermediate state of either sweep).
"""

from __future__ import annotations

import itertools

from taylor_edges.csp import Constraint, Instance


def _project(tuples: frozenset, src_scope: tuple[str, ...], dst_scope: tuple[str, ...]):
    idxs = [src_scope.index(v) for v in dst_scope]
    return frozenset(tuple(t[i] for i in idxs) for t in tuples)


def kl_minimize(instance: Instance, k: int = 2, l: int = 3) -> tuple[Instance, str]:
    """Refine to a (k, l)-minimal instance with the same solution set.

    One constraint is introduced per scope of size <= l (initialized from the
    projections of the original constraints covering it, or the full
    product); original constraints with larger scopes are kept.  Projection /
    restriction propagation runs to a fixpoint over scope pairs S' <= S with
    |S'| <= k.  Returns (instance, "unsat") as soon as a relation empties.
    """
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    variables = instance.variables
    order = {v: i for i, v in enumerate(variables)}
    dom = instance.domains()

    relations: dict[tuple[str, ...], frozenset] = {}
    big: dict[tuple[str, ...], frozenset] = {}
    for c in instance.constraints:
        canonical = tuple(sorted(c.scope, key=order.get))
        reordered = _project(c.tuples, c.scope, canonical)
        target = relations if len(canonical) <= l else big
        if canonical in target:
            target[canonical] = target[canonical] & reordered
        else:
            target[canonical] = reordered

    for size in range(1, l + 1):
        for combo in itertools.combinations(variables, size):
            if combo in relations:
                continue
            full = frozenset(
                itertools.product(*(range(dom[v].size) for v in combo))
            )
            covering = [s for s in list(relations) + list(big) if set(combo) <= set(s)]
            rel = full
            for s in covering:
                src = relations[s] if s in relations else big[s]
                rel = rel & _project(src, s, combo)
            relations[combo] = rel

    all_scopes = list(relations) + list(big)

    def rel_of(s):
        return relations[s] if s in relations else big[s]

    def set_rel(s, val):
        if s in relations:
            relations[s] = val
        else:
            big[s] = val

    changed = True
    while changed:
        changed = False
        for s_small, s_large in itertools.permutations(all_scopes, 2):
            if not set(s_small) <= set(s_large) or len(s_small) > k:
                continue
            small, large = rel_of(s_small), rel_of(s_large)
            proj = _project(large, s_large, s_small)
            new_small = small & proj
            if new_small != small:
                set_rel(s_small, new_small)
                changed = True
                small = new_small
            keep = frozenset(
                t for t in large
                if _project(frozenset({t}), s_large, s_small) <= small
            )
            if keep != large:
                set_rel(s_large, keep)
                changed = True
            if not new_small or not keep:
                out = instance.with_constraints(
                    tuple(
                        Constraint(s, rel_of(s)) for s in sorted(relations) + sorted(big)
                    )
                )
                return out, "unsat"

    cons = tuple(Constraint(s, rel_of(s)) for s in sorted(relations) + sorted(big))
    status = "unsat" if any(not c.tuples for c in cons) else "sat"
    return instance.with_constraints(cons), status
