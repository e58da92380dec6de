"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the library's closure engine: closures
are naive nested-loop fixpoints, free algebras are enumerated syntactically
by term-tree depth, and partitions come from restricted-growth strings, so
the main implementation is checked against genuinely different code paths.
"""

from __future__ import annotations

import itertools

from taylor_edges.algebra import FiniteAlgebra, Partition
from taylor_edges.csp import Constraint, Instance


def naive_closure(alg: FiniteAlgebra, seed) -> frozenset:
    current = set(seed)
    changed = True
    while changed:
        changed = False
        for op in alg.ops:
            for args in itertools.product(sorted(current), repeat=op.arity):
                v = op.apply(*args)
                if v not in current:
                    current.add(v)
                    changed = True
    return frozenset(current)


def naive_subuniverses(alg: FiniteAlgebra, proper_only=False):
    out = []
    for r in range(1, alg.size + 1):
        for combo in itertools.combinations(range(alg.size), r):
            s = frozenset(combo)
            if naive_closure(alg, s) == s:
                if not proper_only or len(s) < alg.size:
                    out.append(s)
    return out


def all_partitions(n: int):
    """All partitions of 0..n-1 via restricted growth strings."""

    def grow(prefix, m):
        if len(prefix) == n:
            yield Partition(tuple(prefix))
            return
        for b in range(m + 1):
            yield from grow(prefix + [b], max(m, b + 1))

    yield from grow([0], 1) if n else iter(())


def naive_is_congruence(alg: FiniteAlgebra, p: Partition) -> bool:
    """Full compatibility: arbitrary tuples of related pairs."""
    n = alg.size
    pairs = [(a, b) for a in range(n) for b in range(n) if p.same(a, b)]
    for op in alg.ops:
        for combo in itertools.product(pairs, repeat=op.arity):
            left = op.apply(*(a for a, _ in combo))
            right = op.apply(*(b for _, b in combo))
            if not p.same(left, right):
                return False
    return True


def terms_by_depth(alg: FiniteAlgebra, k: int, depth: int) -> set:
    """Tables of all terms in k variables up to composition depth, syntactically."""
    n = alg.size
    tuples = list(itertools.product(range(n), repeat=k))
    level = {tuple(t[i] for t in tuples) for i in range(k)}
    for _ in range(depth):
        new = set(level)
        for op in alg.ops:
            for args in itertools.product(sorted(level), repeat=op.arity):
                new.add(tuple(op.apply(*vals) for vals in zip(*args)))
        if new == level:
            break
        level = new
    return level


def all_tolerances(alg: FiniteAlgebra):
    """Every reflexive symmetric compatible relation, by brute enumeration."""
    n = alg.size
    off_diag = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = []
    for bits in range(1 << len(off_diag)):
        pairs = {(a, a) for a in range(n)}
        for i, (a, b) in enumerate(off_diag):
            if bits >> i & 1:
                pairs.add((a, b))
                pairs.add((b, a))
        if _compatible(alg, pairs):
            out.append(frozenset(pairs))
    return out


def _compatible(alg: FiniteAlgebra, pairs) -> bool:
    for op in alg.ops:
        for combo in itertools.product(sorted(pairs), repeat=op.arity):
            img = (op.apply(*(x for x, _ in combo)), op.apply(*(y for _, y in combo)))
            if img not in pairs:
                return False
    return True


def random_instance(rng, template_members, max_vars=6, max_constraints=5) -> Instance:
    """A seeded toy instance: catalog domains, scopes of size <= 3, relations
    mixing random subsets and generated subalgebras of the scope product."""
    from taylor_edges.algebra import generate_subproduct

    n_vars = rng.integers(1, max_vars + 1)
    variables = [f"v{i}" for i in range(n_vars)]
    domains = [
        (v, template_members[rng.integers(0, len(template_members))]) for v in variables
    ]
    dom = dict(domains)
    constraints = []
    for _ in range(rng.integers(1, max_constraints + 1)):
        size = int(rng.integers(1, min(3, n_vars) + 1))
        scope = tuple(rng.choice(n_vars, size=size, replace=False))
        scope = tuple(variables[i] for i in sorted(scope))
        space = list(itertools.product(*(range(dom[v].size) for v in scope)))
        if rng.integers(0, 2):
            count = int(rng.integers(1, len(space) + 1))
            picks = rng.choice(len(space), size=count, replace=False)
            tuples = {space[i] for i in picks}
        else:
            count = int(rng.integers(1, 4))
            picks = rng.choice(len(space), size=min(count, len(space)), replace=False)
            rows = generate_subproduct([dom[v] for v in scope], [space[i] for i in picks])
            tuples = {tuple(r) for r in rows}
        constraints.append((scope, tuples))
    return Instance.make(f"rand{rng.integers(0, 10**9)}", domains, constraints)


def solutions_set(instance: Instance, limit=10**6):
    from taylor_edges.csp import brute_force_solve

    res = brute_force_solve(instance, limit=limit)
    return set(res.solutions)


def planted_instance(rng, template_members, n_vars=14, n_constraints=24, planted=True):
    """A seeded instance in the shape of the benchmark's: scopes of 2 or 3
    variables, each relation generated in the scope's product by one or two
    random tuples, plus the projection of a planted solution when `planted`
    (then the instance is satisfiable)."""
    from taylor_edges.algebra import generate_subproduct

    variables = [f"x{i}" for i in range(n_vars)]
    domains = [
        (v, template_members[rng.integers(0, len(template_members))]) for v in variables
    ]
    solution = [int(rng.integers(0, alg.size)) for _, alg in domains]
    constraints = []
    for _ in range(n_constraints):
        picks = sorted(rng.choice(n_vars, size=int(rng.integers(2, 4)), replace=False))
        algs = [domains[i][1] for i in picks]
        seeds = [tuple(solution[i] for i in picks)] if planted else []
        for _ in range(rng.integers(1, 3)):
            seeds.append(tuple(int(rng.integers(0, a.size)) for a in algs))
        rows = generate_subproduct(algs, seeds)
        constraints.append((tuple(variables[i] for i in picks), {tuple(r) for r in rows}))
    name = f"planted{rng.integers(0, 10**9)}" if planted else f"open{rng.integers(0, 10**9)}"
    return Instance.make(name, domains, constraints)
