"""Seeded CSP instances with a planted solution, and a reference solver.

Nothing here calls the library's closure engine or solver: relations are
closed by a naive fixpoint over the domain tables, and the reference solver
is a plain backtracking search, so the library's answers are checked against
independent code.
"""

from __future__ import annotations

import itertools
import json
import random

N_VARS = 14
N_CONSTRAINTS = 24


def flat_index(args, n: int) -> int:
    """Position of an argument tuple in a flat row-major operation table."""
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def naive_closure(domains, seeds) -> frozenset:
    """Least set of tuples containing `seeds` and closed under every basic
    operation, applied coordinatewise over the given domain algebras."""
    current = set(seeds)
    frontier = set(current)
    ops = [
        (op.arity, [d.ops[i].table for d in domains], [d.size for d in domains])
        for i, op in enumerate(domains[0].ops)
    ]
    while frontier:
        ordered = sorted(current)
        fresh = set()
        for arity, tables, sizes in ops:
            for args in itertools.product(ordered, repeat=arity):
                if not any(a in frontier for a in args):
                    continue
                image = tuple(
                    tables[j][flat_index([a[j] for a in args], sizes[j])]
                    for j in range(len(domains))
                )
                if image not in current:
                    fresh.add(image)
        current |= fresh
        frontier = fresh
    return frozenset(current)


def generate(seed: int, count: int, domains: list) -> list[dict]:
    """`count` instances over `domains` (a list of algebras), as plain data:
    {"name", "domains": [domain index per variable], "planted",
    "constraints": [[scope indices, sorted tuples], ...]}."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        doms = [rng.randrange(len(domains)) for _ in range(N_VARS)]
        planted = [rng.randrange(domains[d].size) for d in doms]
        constraints = []
        for _ in range(N_CONSTRAINTS):
            scope = sorted(rng.sample(range(N_VARS), rng.choice((2, 3))))
            algs = [domains[doms[v]] for v in scope]
            seeds = {tuple(planted[v] for v in scope)}
            for _ in range(rng.choice((1, 2))):
                seeds.add(tuple(rng.randrange(a.size) for a in algs))
            rel = naive_closure(algs, seeds)
            constraints.append([scope, sorted(rel)])
        out.append({"name": f"planted{seed}_{i}", "domains": doms,
                    "planted": planted, "constraints": constraints})
    return out


def dumps(instances: list[dict]) -> str:
    return json.dumps(instances, sort_keys=True, separators=(",", ":"))


def solve_all(sizes: list[int], constraints) -> frozenset:
    """Every solution of a CSP given by domain sizes and (scope, tuples) pairs,
    by backtracking in variable order; each constraint is checked as soon as
    its last variable is assigned."""
    ready = [[] for _ in sizes]
    for scope, tuples in constraints:
        ready[max(scope)].append((tuple(scope), frozenset(map(tuple, tuples))))
    solutions = []
    assignment = [0] * len(sizes)

    def extend(i: int):
        if i == len(sizes):
            solutions.append(tuple(assignment))
            return
        for x in range(sizes[i]):
            assignment[i] = x
            if all(tuple(assignment[j] for j in scope) in rel for scope, rel in ready[i]):
                extend(i + 1)

    extend(0)
    return frozenset(solutions)
