"""The backtracking solver as it stood before constraints were read by
itemgetters, kept as the reference that `test_solve_reference.py` compares
`csp.brute_force_solve` with.

It builds each constraint's tuple with a generator over the scope's
positions and checks the constraints of a variable with `all`.
"""

from __future__ import annotations

from taylor_edges.csp import Instance, SolveResult
from taylor_edges.errors import LimitExceeded


def brute_force_solve(
    instance: Instance, limit: int = 10**6, first_only: bool = False
) -> SolveResult:
    """Exhaustive backtracking over the variables in declaration order."""
    if instance.search_space() > limit:
        raise LimitExceeded(
            f"search space {instance.search_space()} exceeds limit {limit}"
        )
    variables = instance.variables
    pos = {v: i for i, v in enumerate(variables)}
    sizes = [instance.domain(v).size for v in variables]
    # constraints become checkable once their last-positioned variable is set
    ready: list[list[tuple[tuple[int, ...], frozenset]]] = [[] for _ in variables]
    for c in instance.constraints:
        idxs = tuple(pos[v] for v in c.scope)
        ready[max(idxs)].append((idxs, c.tuples))

    solutions: list[tuple[int, ...]] = []
    assignment = [0] * len(variables)

    def backtrack(i: int) -> bool:
        if i == len(variables):
            solutions.append(tuple(assignment))
            return first_only
        for v in range(sizes[i]):
            assignment[i] = v
            if all(
                tuple(assignment[j] for j in idxs) in tuples
                for idxs, tuples in ready[i]
            ):
                if backtrack(i + 1):
                    return True
        return False

    backtrack(0)
    if not solutions:
        return SolveResult("unsat", ())
    return SolveResult("sat", tuple(solutions))
