"""Multisorted CSP instances over small algebras: local consistency,
consistent retractive maps, and the large-centralizer retraction.

All domains of one instance share a signature (constraints live in products).
Per-instance term constructions (the binary meet used by the retraction) are
built jointly across the distinct domain algebras, as a single term tree over
the common signature, so that applying them coordinatewise preserves every
constraint relation.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    FiniteAlgebra,
    Partition,
    enumerate_subuniverses,
    flat_indices,
    generate_subproduct,
    induced_subalgebra,
    OperationTable,
    quotient_algebra,
    sg_closure,
)
from .congruences import (
    centralizer_condition,
    congruences as congruence_report,
    is_congruence,
    is_unary_polynomial,
)
from .edges import EdgeGraph, compute_edges
from .errors import (
    CapExceeded,
    HypothesisUnmet,
    LimitExceeded,
    NoCyclicWitness,
    NotACongruence,
    NotConsistent,
    NotPolynomial,
    NotRetractive,
    SignatureMismatch,
)
from .terms import (
    TermOperation,
    Var,
    derivation_trees,
    evaluate_tree_table,
    free_algebra,
    is_affine_algebra,
    meet_from_binary,
    projection_table,
    substitute,
    universal_meet,
)


# ---------------------------------------------------------------------------
# Templates: HS-closed catalogs of isomorphism types


def canonical_key(alg: FiniteAlgebra) -> tuple:
    """Isomorphism-invariant key: the least relabeled table vector.

    Under a relabeling `perm` with inverse `inv`, a k-ary table's entry at
    (a_1, ..., a_k) is perm[table[flat(inv[a_1], ..., inv[a_k])]]; the flat
    indices are listed once per arity and permutation, in row-major order.
    """
    n = alg.size
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        indices: dict[int, list[int]] = {}
        tables = []
        for op in alg.ops:
            if op.arity not in indices:
                indices[op.arity] = flat_indices(inv, n, op.arity)
            values = map(op.table.__getitem__, indices[op.arity])
            tables.append(tuple(map(perm.__getitem__, values)))
        key = tuple(tables)
        if best is None or key < best:
            best = key
    return (n, alg.signature, best)


@dataclass(frozen=True)
class Template:
    """Isomorphism types closed under subalgebras and quotients up to a cap."""

    seeds: tuple[FiniteAlgebra, ...]
    members: tuple[FiniteAlgebra, ...]
    size_cap: int

    @staticmethod
    def hs_closure(seeds: list[FiniteAlgebra], size_cap: int = 8) -> "Template":
        for s in seeds[1:]:
            if s.signature != seeds[0].signature:
                raise SignatureMismatch("template seeds must share a signature")
        seen: dict[tuple, FiniteAlgebra] = {}
        queue: list[FiniteAlgebra] = []
        for s in seeds:
            if s.size <= size_cap:
                key = canonical_key(s)
                if key not in seen:
                    seen[key] = s
                    queue.append(s)
        while queue:
            alg = queue.pop(0)
            derived: list[FiniteAlgebra] = []
            enum = enumerate_subuniverses(alg, cap=alg.size)
            for sub in enum.subuniverses:
                if len(sub) < alg.size:
                    derived.append(induced_subalgebra(alg, sub))
            for theta in congruence_report(alg, cap=alg.size).all_congruences:
                if not theta.is_zero():
                    derived.append(quotient_algebra(alg, theta))
            for d in derived:
                if d.size > size_cap:
                    continue
                key = canonical_key(d)
                if key not in seen:
                    seen[key] = d
                    queue.append(d)
        # a key starts with the algebra's size, so this orders by (size, key)
        members = tuple(seen[key] for key in sorted(seen))
        return Template(tuple(seeds), members, size_cap)


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class Constraint:
    scope: tuple[str, ...]
    tuples: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class Instance:
    name: str
    variables: tuple[str, ...]
    domain_list: tuple[tuple[str, FiniteAlgebra], ...]
    constraints: tuple[Constraint, ...]

    @staticmethod
    def make(
        name: str,
        domains: list[tuple[str, FiniteAlgebra]],
        constraints: list[tuple[tuple[str, ...], set]],
    ) -> "Instance":
        """Normalize: validate arities/scopes and intersect equal scopes."""
        variables = tuple(v for v, _ in domains)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        dom = dict(domains)
        sig = None
        for v, alg in domains:
            if sig is None:
                sig = alg.signature
            elif alg.signature != sig:
                raise SignatureMismatch(f"domain of {v} differs in signature")
        merged: dict[tuple[str, ...], frozenset] = {}
        for scope, tuples in constraints:
            scope = tuple(scope)
            if not scope:
                raise ValueError("constraint scope must be nonempty")
            if len(set(scope)) != len(scope):
                raise ValueError(f"repeated variable in scope {scope}")
            for v in scope:
                if v not in dom:
                    raise ValueError(f"unknown variable {v!r} in scope")
            ts = frozenset(tuple(int(x) for x in t) for t in tuples)
            for t in ts:
                if len(t) != len(scope):
                    raise ValueError(f"tuple {t} does not match scope {scope}")
                for v, x in zip(scope, t):
                    if not 0 <= x < dom[v].size:
                        raise ValueError(f"value {x} out of range for {v}")
            if scope in merged:
                merged[scope] = merged[scope] & ts
            else:
                merged[scope] = ts
        cons = tuple(Constraint(s, merged[s]) for s in sorted(merged))
        return Instance(name, variables, tuple(domains), cons)

    def domain(self, var: str) -> FiniteAlgebra:
        for v, alg in self.domain_list:
            if v == var:
                return alg
        raise KeyError(var)

    def domains(self) -> dict[str, FiniteAlgebra]:
        return dict(self.domain_list)

    def search_space(self) -> int:
        out = 1
        for _, alg in self.domain_list:
            out *= alg.size
        return out

    def with_constraints(self, constraints: tuple[Constraint, ...]) -> "Instance":
        return Instance(self.name, self.variables, self.domain_list, constraints)


@dataclass(frozen=True)
class SolveResult:
    status: str                      # "sat" | "unsat"
    solutions: tuple[tuple[int, ...], ...]  # aligned with instance.variables

    @property
    def satisfiable(self) -> bool:
        return self.status == "sat"


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
    # a constraint is checked once its last-positioned variable is set; an
    # itemgetter reads its tuple, except that a unary one needs a 1-tuple
    ready: list[list[tuple[Callable, frozenset]]] = [[] for _ in variables]
    for c in instance.constraints:
        idxs = tuple(pos[v] for v in c.scope)
        read = operator.itemgetter(*idxs)
        if len(idxs) == 1:
            read = lambda a, j=idxs[0]: (a[j],)
        ready[max(idxs)].append((read, c.tuples))

    solutions: list[tuple[int, ...]] = []
    assignment = [0] * len(variables)

    def backtrack(i: int) -> bool:
        if i == len(variables):
            solutions.append(tuple(assignment))
            return first_only
        for v in range(sizes[i]):
            assignment[i] = v
            for read, tuples in ready[i]:
                if read(assignment) not in tuples:
                    break
            else:
                if backtrack(i + 1):
                    return True
        return False

    backtrack(0)
    # backtrack holds itself through its closure: break that cycle, so what
    # it holds is freed now rather than at some later garbage collection
    del backtrack
    if not solutions:
        return SolveResult("unsat", ())
    return SolveResult("sat", tuple(solutions))


# ---------------------------------------------------------------------------
# (k, l)-minimality


@functools.lru_cache(maxsize=256)
def _sweep_plan(n: int, k: int, l: int):
    """The scope pairs that a sweep over n variables visits, for any domains.

    Returns (combos, ranks, subs, narrow).  `combos[r]` lists the r-subsets
    of range(n) in lexicographic order, for 1 <= r <= min(l, n), and
    `ranks[r]` numbers them.  `subs[r]` holds, for each set P of
    min(k, r - 1) positions, the row of every r-scope's sub-scope on P.
    `narrow[s]` lists the (r, P) whose projections meet in the s-scopes, with
    the order that sorts their concatenated sub-scope rows and the start of
    each row's run in that order.
    """
    top = min(l, n)
    combos = {r: list(itertools.combinations(range(n), r)) for r in range(1, top + 1)}
    ranks = {r: {c: i for i, c in enumerate(cs)} for r, cs in combos.items()}
    subs: dict[int, list[tuple[tuple[int, ...], np.ndarray]]] = {}
    sources = collections.defaultdict(list)
    for r in range(2, top + 1):
        s = min(k, r - 1)
        subs[r] = []
        for P in itertools.combinations(range(r), s):
            rows = np.array([ranks[s][tuple(c[p] for p in P)] for c in combos[r]], dtype=np.intp)
            subs[r].append((P, rows))
            sources[s].append((r, P, rows))
    # grouped in Python once per plan, which keeps numpy's search code out of
    # the memory of a process that minimizes
    narrow = {}
    for s, srcs in sources.items():
        rows = [row for _, _, sub_rows in srcs for row in sub_rows.tolist()]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        ordered = [rows[at] for at in order]
        starts = [bisect.bisect_left(ordered, t) for t in range(len(combos[s]))]
        narrow[s] = ([(r, P) for r, P, _ in srcs], np.array(order), np.array(starts))
    return combos, ranks, subs, narrow


@functools.lru_cache(maxsize=256)
def _cell_tuples(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The cells of a (d, ..., d) array of r axes, in row-major order."""
    return tuple(itertools.product(range(d), repeat=r))


def _hit(rows: np.ndarray, positions, d: int) -> np.ndarray:
    """The (d, ..., d) array that marks the projections of `rows` (one tuple
    per row) onto `positions`."""
    out = np.zeros((d,) * len(positions), dtype=bool)
    out[tuple(rows[:, list(positions)].T)] = True
    return out


def _project(rel: np.ndarray, positions) -> np.ndarray:
    """The projections of the rows of a (rows, d, ..., d) array onto
    `positions`, one flat row each.  Every other axis is ORed away slice by
    slice, several times faster than `any` over it."""
    for q in reversed(range(rel.ndim - 1)):
        if q not in positions:
            at = (slice(None),) * (q + 1)
            out = rel[at + (0,)].copy()
            for x in range(1, rel.shape[q + 1]):
                out |= rel[at + (x,)]
            rel = out
    return rel.reshape(len(rel), -1)


def kl_minimize(instance: Instance, k: int = 2, l: int = 3) -> tuple[Instance, str]:
    """Refine to a (k, l)-minimal instance with the same solution set.

    One constraint is introduced per scope of size <= l (initialized from the
    original constraint on it, or else from the projections of the original
    constraints covering it, or the full product); original constraints with
    larger scopes are kept.  The scopes of one size r form one boolean array
    of shape (C(n, r), d, ..., d), one row per r-subset of the variables in
    lexicographic order, where d is the largest domain; cells outside a
    scope's domains stay False.  A constraint wider than l is a vector over
    its own tuples, so it costs what its tuples cost.

    Projection and restriction run over the pairs S' < S with |S'| =
    min(k, |S| - 1), planned once per (n, k, l); the pairs with smaller S'
    follow from these along a chain of sub-scopes.  A sweep narrows each
    sub-relation to the AND of its super-scopes' projections, largest first,
    then filters each scope by its sub-relations, smallest first, until a
    filter step removes nothing.  Narrowing yields the covers of sub-scopes
    of size <= k, so only those of size in (k, l] are projected explicitly.

    The result is the greatest common fixpoint of those operations below the
    initial relations, independent of their order; the status is "unsat"
    when one of its relations is empty.
    """
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    variables = instance.variables
    order = {v: i for i, v in enumerate(variables)}
    given: dict[tuple[int, ...], frozenset] = {}
    for c in instance.constraints:
        idx = tuple(map(order.__getitem__, c.scope))
        scope = tuple(sorted(idx))
        tuples = c.tuples
        if scope != idx:
            perm = [idx.index(i) for i in scope]
            tuples = frozenset(tuple(t[i] for i in perm) for t in tuples)
        given[scope] = given.get(scope, tuples) & tuples
    arrays = {
        scope: np.array(sorted(tuples), dtype=np.intp).reshape(-1, len(scope))
        for scope, tuples in given.items()
    }

    combos, ranks, subs, narrow = _sweep_plan(len(variables), k, l)
    sizes = np.array([alg.size for _, alg in instance.domain_list], dtype=np.intp)
    d = int(sizes.max(initial=1))
    valid = np.arange(d) < sizes[:, None]
    cube: dict[int, np.ndarray] = {}
    for r, cs in combos.items():
        scopes = np.array(cs, dtype=np.intp)
        rel = np.ones((len(cs),) + (d,) * r, dtype=bool)
        for q in range(r):
            rel &= valid[scopes[:, q]].reshape((len(cs),) + (1,) * q + (d,) + (1,) * (r - q - 1))
        cube[r] = rel
    flat = {r: rel.reshape(len(rel), -1) for r, rel in cube.items()}
    for scope, rows in arrays.items():
        if len(scope) <= l:
            cube[len(scope)][ranks[len(scope)][scope]] = _hit(rows, range(len(scope)), d)
    # only original constraints can cover a scope that is not one of them
    for scope, rows in arrays.items():
        for s in range(k + 1, min(l, len(scope) - 1) + 1):
            for P in itertools.combinations(range(len(scope)), s):
                sub = tuple(scope[p] for p in P)
                if sub not in given:
                    cube[s][ranks[s][sub]] &= _hit(rows, P, d)
    # per wide constraint: its alive tuples, the rows of its k-sub-scopes, and
    # the flat index in flat[k] of each tuple's projection onto each of them
    wide = {}
    for scope, rows in arrays.items():
        if len(scope) > l:
            positions = list(itertools.combinations(range(len(scope)), k))
            sub_rows = np.array([ranks[k][tuple(scope[p] for p in P)] for P in positions],
                                dtype=np.intp)
            keys = np.array([np.ravel_multi_index(tuple(rows[:, list(P)].T), (d,) * k)
                             for P in positions], dtype=np.intp).reshape(len(positions), -1)
            keys += sub_rows[:, None] * d**k
            wide[scope] = (np.ones(len(rows), dtype=bool), sub_rows, keys)

    def cells_left() -> int:
        masks = [*flat.values(), *(alive for alive, _, _ in wide.values())]
        return sum(map(np.count_nonzero, masks))

    while True:
        for s in range(min(k, len(flat)), 0, -1):
            if s in narrow:
                sources, perm, starts = narrow[s]
                projections = np.concatenate([_project(cube[r], P) for r, P in sources])
                flat[s] &= np.logical_and.reduceat(projections[perm], starts)
            if s == k:
                for alive, sub_rows, keys in wide.values():
                    hit = np.zeros(flat[k].size, dtype=bool)
                    hit[keys[:, alive]] = True
                    flat[k][sub_rows] &= hit.reshape(flat[k].shape)[sub_rows]
        narrowed = cells_left()
        for r, pairs in subs.items():
            for P, rows in pairs:
                shape = tuple(d if q in P else 1 for q in range(r))
                cube[r] &= cube[len(P)][rows].reshape((len(rows),) + shape)
        for alive, _, keys in wide.values():
            alive &= flat[k].reshape(-1)[keys].all(axis=0)
        if cells_left() == narrowed:
            break

    relations: dict[tuple[str, ...], frozenset] = {}
    for r, rel in flat.items():
        cells = _cell_tuples(r, d)
        rows, cols = (a.tolist() for a in np.nonzero(rel))
        bounds = [bisect.bisect_left(rows, i) for i in range(len(rel) + 1)]
        for i, name in enumerate(itertools.combinations(variables, r)):
            relations[name] = frozenset(map(cells.__getitem__, cols[bounds[i]:bounds[i + 1]]))
    big = {
        tuple(map(variables.__getitem__, scope)):
            frozenset(map(tuple, arrays[scope][alive].tolist()))
        for scope, (alive, _, _) in wide.items()
    }
    cons = tuple(Constraint(s, relations[s]) for s in sorted(relations)) + tuple(
        Constraint(s, big[s]) for s in sorted(big)
    )
    status = "sat" if all(relations.values()) and all(big.values()) else "unsat"
    return instance.with_constraints(cons), status


# ---------------------------------------------------------------------------
# Consistent maps and retractions


@dataclass(frozen=True)
class ConsistentMapSet:
    maps: tuple[tuple[str, tuple[int, ...]], ...]

    @staticmethod
    def identity(instance: Instance) -> "ConsistentMapSet":
        return ConsistentMapSet(
            tuple((v, tuple(range(instance.domain(v).size))) for v in instance.variables)
        )

    def map_of(self, var: str) -> tuple[int, ...]:
        for v, m in self.maps:
            if v == var:
                return m
        raise KeyError(var)

    def is_retractive(self) -> bool:
        return all(all(m[m[x]] == m[x] for x in range(len(m))) for _, m in self.maps)


@dataclass(frozen=True)
class ConsistencyReport:
    polynomial: bool
    consistent: bool
    retractive: bool
    witness: tuple | None   # (kind, detail) for the first failure


def check_consistent_maps(instance: Instance, maps: ConsistentMapSet) -> ConsistencyReport:
    """Verify each map is a unary polynomial of its domain and that every
    constraint tuple maps back into its relation."""
    witness = None
    polynomial = True
    for v in instance.variables:
        m = maps.map_of(v)
        if len(m) != instance.domain(v).size or not is_unary_polynomial(instance.domain(v), m):
            polynomial = False
            witness = witness or ("polynomial", v)
    consistent = True
    for c in instance.constraints:
        ms = [maps.map_of(v) for v in c.scope]
        for t in sorted(c.tuples):
            image = tuple(m[x] for m, x in zip(ms, t))
            if image not in c.tuples:
                consistent = False
                witness = witness or ("tuple", (c.scope, t, image))
                break
        if not consistent:
            break
    return ConsistencyReport(polynomial, consistent, maps.is_retractive(), witness)


def consistent_maps(instance: Instance, maps: ConsistentMapSet, apply: bool = False):
    """Check a map family against an instance; with `apply`, build the retract.

    The check mode returns a ConsistencyReport carrying any failure witness;
    apply mode raises NotPolynomial / NotConsistent / NotRetractive instead.
    """
    if apply:
        return retract_instance(instance, maps)
    return check_consistent_maps(instance, maps)


def retract_instance(instance: Instance, maps: ConsistentMapSet) -> Instance:
    """Build p(P): domains become polynomial retracts (operations composed
    with p), relations are intersected with the product of the images."""
    report = check_consistent_maps(instance, maps)
    if not report.polynomial:
        raise NotPolynomial(f"map of {report.witness[1]} is not a unary polynomial")
    if not report.consistent:
        raise NotConsistent("maps send a tuple outside its relation", report.witness)
    if not report.retractive:
        raise NotRetractive("maps must satisfy p(p(x)) = p(x) to retract")

    new_domains = []
    renum: dict[str, dict[int, int]] = {}
    for v in instance.variables:
        alg = instance.domain(v)
        m = maps.map_of(v)
        image = sorted(set(m))
        renum[v] = {e: i for i, e in enumerate(image)}
        to_image = [renum[v][x] for x in m]  # renum[v] after m
        ops = []
        for op in alg.ops:
            values = map(op.table.__getitem__, flat_indices(image, alg.size, op.arity))
            table = tuple(map(to_image.__getitem__, values))
            ops.append(OperationTable(op.symbol, op.arity, table))
        new_domains.append((v, FiniteAlgebra(f"{alg.name}@{v}", len(image), tuple(ops))))

    new_constraints = []
    for c in instance.constraints:
        ms = [maps.map_of(v) for v in c.scope]
        kept = frozenset(
            tuple(renum[v][x] for v, x in zip(c.scope, t))
            for t in c.tuples
            if all(m[x] == x for m, x in zip(ms, t))
        )
        new_constraints.append(Constraint(c.scope, kept))
    return Instance(
        f"{instance.name}@retract", instance.variables, tuple(new_domains),
        tuple(new_constraints),
    )


def quotient_instance(
    instance: Instance, partitions: dict[str, Partition]
) -> Instance:
    """Factor chosen domains by congruences; relations become blockwise images."""
    new_domains = []
    block: dict[str, tuple[int, ...]] = {}
    for v in instance.variables:
        alg = instance.domain(v)
        if v in partitions:
            theta = partitions[v]
            if not is_congruence(alg, theta):
                raise NotACongruence(f"partition for {v} is not a congruence")
            new_domains.append((v, quotient_algebra(alg, theta)))
            block[v] = theta.blocks_of
        else:
            new_domains.append((v, alg))
            block[v] = tuple(range(alg.size))
    new_constraints = tuple(
        Constraint(
            c.scope,
            frozenset(tuple(block[v][x] for v, x in zip(c.scope, t)) for t in c.tuples),
        )
        for c in instance.constraints
    )
    return Instance(
        f"{instance.name}/quotient", instance.variables, tuple(new_domains),
        new_constraints,
    )


# ---------------------------------------------------------------------------
# Large centralizer analysis and the retraction construction


@dataclass(frozen=True)
class DomainAnalysis:
    variable: str
    is_si: bool
    monolith: Partition | None
    is_large_centralizer: bool


def large_centralizer_analysis(instance: Instance) -> tuple[DomainAnalysis, ...]:
    """Per-variable SI/monolith/centralizer flags.

    A domain is a large centralizer domain when it is subdirectly irreducible
    and C(1, mu; 0) holds for its monolith mu.  Non-SI domains are flagged,
    not fatal; callers wanting the theorem's hypotheses decompose first.
    """
    out = []
    for v in instance.variables:
        alg = instance.domain(v)
        if alg.size <= 1:
            out.append(DomainAnalysis(v, False, None, False))
            continue
        rep = congruence_report(alg, cap=alg.size)
        if not rep.is_subdirectly_irreducible:
            out.append(DomainAnalysis(v, False, None, False))
            continue
        mu = rep.monolith
        large = centralizer_condition(alg, Partition.one(alg.size), mu)
        out.append(DomainAnalysis(v, True, mu, large))
    return tuple(out)


@dataclass(frozen=True)
class JointMeet:
    """A single binary term over the shared signature, with its table in each
    distinct domain algebra."""

    tree: object
    tables: tuple[tuple[FiniteAlgebra, TermOperation], ...]

    def table_for(self, alg: FiniteAlgebra) -> TermOperation:
        for a, t in self.tables:
            if a == alg:
                return t
        raise KeyError(alg.name)


def joint_cyclic_tree(
    algebras: list[FiniteAlgebra], max_arity: int = 7, cap: int = 4096
) -> tuple:
    """A term tree cyclic in every listed algebra simultaneously, found by
    closing joint projection vectors; returns (tree, arity).

    An arity whose closure exceeds `cap` is skipped, and the NoCyclicWitness
    raised when no arity gives a witness names the cap and those arities."""
    if not algebras:
        raise ValueError("need at least one algebra")
    capped = []
    for arity in range(2, max_arity + 1):
        coords: list[FiniteAlgebra] = []
        for a in algebras:
            coords.extend([a] * (a.size**arity))
        seeds = []
        for i in range(arity):
            row: tuple[int, ...] = ()
            for a in algebras:
                row = row + projection_table(a.size, arity, i)
            seeds.append(row)
        try:
            rows, derivs = generate_subproduct(
                coords, seeds, cap=cap, want_derivations=True
            )
        except CapExceeded:
            capped.append(arity)
            continue
        trees = derivation_trees(algebras[0].ops, seeds, rows, derivs)
        ends = itertools.accumulate((a.size**arity for a in algebras), initial=0)
        segments = list(itertools.pairwise(ends))  # each algebra's slice of a row
        for row, tree in zip(rows, trees):
            if all(TermOperation(arity, row[lo:hi]).is_cyclic() for lo, hi in segments):
                return tree, arity
    message = (
        f"no joint cyclic term of arity <= {max_arity} for "
        f"{[a.name for a in algebras]}"
    )
    if capped:
        message += (
            f"; the closure exceeded the cap of {cap} elements at arities "
            f"{capped}, which were not searched"
        )
    raise NoCyclicWitness(message)


def joint_universal_meet(algebras: list[FiniteAlgebra], cap: int = 4096) -> JointMeet:
    """The universal-meet construction carried out simultaneously on several
    similar algebras, producing one term tree valid in all of them."""
    distinct: list[FiniteAlgebra] = []
    for a in algebras:
        if a not in distinct:
            distinct.append(a)
    key = sorted(distinct, key=lambda a: (a.size, [op.table for op in a.ops], a.name))
    return _joint_universal_meet_cached(tuple(key), cap)


@functools.lru_cache(maxsize=None)
def _joint_universal_meet_cached(distinct: tuple[FiniteAlgebra, ...], cap: int) -> JointMeet:
    c_tree, arity = joint_cyclic_tree(list(distinct), cap=cap)
    t_tree = substitute(c_tree, {i: Var(1) for i in range(1, arity)})
    t_tables = [
        np.asarray(evaluate_tree_table(t_tree, a, 2), dtype=np.int64).reshape(a.size, a.size)
        for a in distinct
    ]
    f_tables, f_tree, _, _ = meet_from_binary(t_tables, t_tree)
    return JointMeet(
        f_tree, tuple((a, TermOperation(2, f, f_tree)) for a, f in zip(distinct, f_tables))
    )


@dataclass(frozen=True)
class RetractionResult:
    maps: ConsistentMapSet
    vacuous: bool                    # no s-edged large-centralizer domain existed
    edges_chosen: tuple[tuple[str, tuple[int, int]], ...]
    shrunk: tuple[str, ...]          # s-edged large-centralizer domains that shrank
    report: ConsistencyReport


def largecentred_retraction(
    instance: Instance,
    targets: dict[str, frozenset] | None = None,
    cap: int = 4096,
    solve_limit: int = 10**6,
) -> RetractionResult:
    """The retraction construction for SI instances with large centralizer domains.

    Chooses an s-edge a_i -> b_i in every large-centralizer domain that has
    one, lifts a solution of the monolith-quotient instance through each
    [b_i], and composes the per-variable polynomials
    p'(x) = f(..f(f(x, h_1), h_2).., h_k) to their least idempotent power.

    Each quotient solution is found by brute force (HypothesisUnmet is raised
    when none exists).  `targets` optionally directs the edge choice into a
    binary absorbing subuniverse, for the theorem's final clause.
    """
    analyses = large_centralizer_analysis(instance)
    lc_vars = {a.variable: a for a in analyses if a.is_large_centralizer}
    graphs: dict[str, EdgeGraph] = {}
    edges_chosen: list[tuple[str, tuple[int, int]]] = []
    for v in instance.variables:
        if v not in lc_vars:
            continue
        graphs[v] = compute_edges(instance.domain(v), cap=cap)
        s_edges = sorted(graphs[v].proper("s"))
        if targets and v in targets:
            s_edges = [e for e in s_edges if e[1] in targets[v]]
        if s_edges:
            edges_chosen.append((v, s_edges[0]))

    identity = ConsistentMapSet.identity(instance)
    if not edges_chosen:
        report = check_consistent_maps(instance, identity)
        return RetractionResult(identity, True, (), (), report)

    quotient = quotient_instance(
        instance, {v: lc_vars[v].monolith for v in lc_vars}
    )

    def solution_through(var: str, point: int) -> tuple[int, ...]:
        pin = Constraint((var,), frozenset({(point,)}))
        pinned = quotient.with_constraints(quotient.constraints + (pin,))
        res = brute_force_solve(pinned, limit=solve_limit, first_only=True)
        if not res.satisfiable:
            raise HypothesisUnmet(
                f"quotient instance has no solution through {var}={point}",
                hypothesis="quotient-solution",
            )
        return res.solutions[0]

    meet = joint_universal_meet([alg for _, alg in instance.domain_list], cap=cap)

    h_vectors: list[tuple[int, ...]] = []
    for var_i, (a_i, b_i) in edges_chosen:
        point = lc_vars[var_i].monolith.blocks_of[b_i]
        g = solution_through(var_i, point)
        h = []
        for j, v in enumerate(instance.variables):
            if v in lc_vars:
                blocks = lc_vars[v].monolith.blocks_of
                members = [x for x in range(len(blocks)) if blocks[x] == g[j]]
                if v == var_i and b_i in members:
                    h.append(b_i)
                else:
                    h.append(members[0])
            else:
                h.append(g[j])
        h_vectors.append(tuple(h))

    maps = []
    for j, v in enumerate(instance.variables):
        alg = instance.domain(v)
        f = meet.table_for(alg)
        p = tuple(range(alg.size))
        for h in h_vectors:
            p = tuple(f.apply(p[x], h[j]) for x in range(alg.size))
        maps.append((v, _least_idempotent_power(p)))
    result = ConsistentMapSet(tuple(maps))

    report = check_consistent_maps(instance, result)
    shrunk = tuple(
        v for v, _ in edges_chosen
        if len(set(result.map_of(v))) < instance.domain(v).size
    )
    return RetractionResult(result, False, tuple(edges_chosen), shrunk, report)


def _least_idempotent_power(p: tuple[int, ...]) -> tuple[int, ...]:
    current = p
    while True:
        square = tuple(current[current[x]] for x in range(len(p)))
        if square == current:
            return current
        current = tuple(current[p[x]] for x in range(len(p)))


# ---------------------------------------------------------------------------
# The elimination witness and the s-edge injection lemma


@dataclass(frozen=True)
class MarotiWitness:
    term: TermOperation
    permutation_set: frozenset[int]      # C = {c : x -> t(x, c) is a permutation}
    generated: frozenset[int]            # Sg(C), a proper subuniverse


def maroti_witness(alg: FiniteAlgebra, cap: int = 4096) -> MarotiWitness | None:
    """A binary term t where every section t(b, -) is a non-surjective
    retraction and the permutation columns generate a proper subuniverse."""
    free = free_algebra(alg, 2, cap=cap)
    if not free.complete:
        raise CapExceeded(f"binary clone of {alg.name} incomplete at cap {cap}")
    n = alg.size
    for t in free.elements:
        ok = True
        for b in range(n):
            section = [t.apply(b, x) for x in range(n)]
            if len(set(section)) == n:
                ok = False  # surjective
                break
            if any(section[section[x]] != section[x] for x in range(n)):
                ok = False  # not a retraction
                break
        if not ok:
            continue
        perm_set = frozenset(
            c for c in range(n)
            if len({t.apply(x, c) for x in range(n)}) == n
        )
        generated = sg_closure(alg, perm_set) if perm_set else frozenset()
        if len(generated) < n:
            return MarotiWitness(t, perm_set, generated)
    return None


@dataclass(frozen=True)
class SedgeInjectionReport:
    assignment: tuple[tuple[int, int], ...]  # (b, unique c) pairs
    unique_forward: bool
    injective: bool
    meet_selects: bool


def sedge_injection_check(
    alg: FiniteAlgebra,
    beta: Partition,
    eta: Partition,
    block_b: frozenset[int],
    block_c: frozenset[int],
    cap: int = 4096,
) -> SedgeInjectionReport:
    """Replay the s-edge injection lemma between two congruence blocks.

    Hypotheses are checked, not assumed: beta and eta are congruences, B and C
    are distinct beta-blocks inside one eta-block, every beta-block induces an
    affine algebra, C(eta, beta; 0) holds, and B ->s C in the quotient by
    beta.  The three conclusions are then verified exhaustively.
    """
    if not is_congruence(alg, beta):
        raise HypothesisUnmet("beta is not a congruence", hypothesis="beta-congruence")
    if not is_congruence(alg, eta):
        raise HypothesisUnmet("eta is not a congruence", hypothesis="eta-congruence")
    blocks = {frozenset(b) for b in map(tuple, beta.blocks())}
    if frozenset(block_b) not in blocks or frozenset(block_c) not in blocks:
        raise HypothesisUnmet("B and C must be beta-blocks", hypothesis="beta-blocks")
    if frozenset(block_b) == frozenset(block_c):
        raise HypothesisUnmet("B and C must be distinct", hypothesis="distinct-blocks")
    eta_ids = {eta.blocks_of[x] for x in block_b} | {eta.blocks_of[x] for x in block_c}
    if len(eta_ids) != 1:
        raise HypothesisUnmet("B and C must lie in one eta-block", hypothesis="eta-block")
    for blk in beta.blocks():
        sub = induced_subalgebra(alg, frozenset(blk))
        if not is_affine_algebra(sub, cap=cap):
            raise HypothesisUnmet(
                f"beta-block {blk} is not affine", hypothesis="affine-blocks"
            )
    if not centralizer_condition(alg, eta, beta):
        raise HypothesisUnmet("C(eta, beta; 0) fails", hypothesis="centralizer")
    quot = quotient_algebra(alg, beta)
    qb = beta.blocks_of[min(block_b)]
    qc = beta.blocks_of[min(block_c)]
    if (qb, qc) not in compute_edges(quot, cap=cap).proper("s"):
        raise HypothesisUnmet("B ->s C fails in the quotient", hypothesis="s-edge")

    graph = compute_edges(alg, cap=cap)
    s = graph.proper("s")
    meet = universal_meet(alg, cap=cap)
    assignment = []
    unique_forward = True
    for b in sorted(block_b):
        succ = [c for c in sorted(block_c) if (b, c) in s]
        if len(succ) == 1:
            assignment.append((b, succ[0]))
        else:
            unique_forward = False
    injective = len({c for _, c in assignment}) == len(assignment)
    meet_selects = unique_forward and all(
        meet.f.apply(b, c) == dict(assignment)[b]
        for b in sorted(block_b)
        for c in sorted(block_c)
    )
    return SedgeInjectionReport(tuple(assignment), unique_forward, injective, meet_selects)
