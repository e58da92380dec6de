"""Multisorted CSP instances over small algebras: local consistency,
consistent retractive maps, and the large-centralizer retraction.

All domains of one instance share a signature (constraints live in products).
Per-instance term constructions (the binary meet used by the retraction) are
built jointly across the distinct domain algebras, as a single term tree over
the common signature, so that applying them coordinatewise preserves every
constraint relation.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

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
    tuple_to_index,
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


# ---------------------------------------------------------------------------
# (k, l)-minimality


# A relation on a scope is an int over a fixed list of rows: bit p is set when
# row p is in the relation.  A scope of size <= l has as rows the product of
# its domains, in row-major order.  An original constraint wider than l has its
# own tuples as rows, so its cost follows the size of its relation, not of the
# product of its domains.

_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _shape_tuples(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The tuples of a product of domains of sizes `shape`, in row-major order."""
    return tuple(itertools.product(*map(range, shape)))


def _positions_mask(positions, width: int) -> int:
    """The int with exactly the given bits set, built in one pass."""
    bits = bytearray((width + 7) >> 3)
    for p in positions:
        bits[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(bits, "little")


def _fibers(rows, sub_shape: tuple[int, ...], idx: tuple[int, ...]) -> tuple[int, ...]:
    """For each tuple j (row-major) of a product of domains of sizes
    `sub_shape`, the mask of the `rows` whose coordinates `idx` form j."""
    positions: list[list[int]] = [[] for _ in range(math.prod(sub_shape))]
    for p, t in enumerate(rows):
        positions[tuple_to_index([t[i] for i in idx], sub_shape)].append(p)
    return tuple(_positions_mask(ps, len(rows)) for ps in positions)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _product_fibers(shape: tuple[int, ...], idx: tuple[int, ...]) -> tuple[int, ...]:
    return _fibers(_shape_tuples(shape), tuple(shape[i] for i in idx), idx)


def _project_mask(mask: int, fibers: tuple[int, ...]) -> int:
    out = 0
    for j, f in enumerate(fibers):
        if mask & f:
            out |= 1 << j
    return out


def _mask_tuples(mask: int, rows) -> frozenset:
    return frozenset(rows[p] for p, b in enumerate(bin(mask)[:1:-1]) if b == "1")


def kl_minimize(instance: Instance, k: int = 2, l: int = 3) -> tuple[Instance, str]:
    """Refine to a (k, l)-minimal instance with the same solution set.

    One constraint is introduced per scope of size <= l (initialized from the
    projections of the original constraints covering it, or the full
    product); original constraints with larger scopes are kept.  Projection /
    restriction then runs over scope pairs S' < S with |S'| <= k as a
    worklist: the pairs are listed once per instance, processing S intersects
    each S' with the projection of S and filters S by every S', and a scope
    is queued again only when a sub-relation it filters by shrank.
    Relations are bitmasks: over the product of the domains for a scope of
    size <= l, over the constraint's own tuples for a wider one.

    On a satisfiable instance the result is the greatest common fixpoint of
    those operations below the initial relations, so it does not depend on
    the order of the queue.  Returns (instance, "unsat") as soon as a
    relation empties; the other relations of that instance are an
    intermediate state of the propagation, not a fixpoint.
    """
    if not 1 <= k <= l:
        raise ValueError("need 1 <= k <= l")
    variables = instance.variables
    order = {v: i for i, v in enumerate(variables)}
    dom = instance.domains()

    def shape_of(scope: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(dom[v].size for v in scope)

    given: dict[tuple[str, ...], frozenset] = {}
    for c in instance.constraints:
        canonical = tuple(sorted(c.scope, key=order.get))
        tuples = c.tuples
        if canonical != c.scope:
            perm = [c.scope.index(v) for v in canonical]
            tuples = frozenset(tuple(t[i] for i in perm) for t in tuples)
        given[canonical] = given.get(canonical, tuples) & tuples
    original: dict[tuple[str, ...], int] = {}
    wide_rows: dict[tuple[str, ...], tuple[tuple[int, ...], ...]] = {}
    for scope, tuples in given.items():
        if len(scope) > l:
            wide_rows[scope] = tuple(sorted(tuples))
            original[scope] = (1 << len(tuples)) - 1
        else:
            shape = shape_of(scope)
            positions = (tuple_to_index(t, shape) for t in tuples)
            original[scope] = _positions_mask(positions, math.prod(shape))

    def fibers_of(
        scope: tuple[str, ...], shape: tuple[int, ...], idx: tuple[int, ...]
    ) -> tuple[int, ...]:
        if scope in wide_rows:
            return _fibers(wide_rows[scope], tuple(shape[i] for i in idx), idx)
        return _product_fibers(shape, idx)

    # only original constraints can cover a scope that is not one of them
    cover: dict[tuple[str, ...], int] = {}
    for scope, mask in original.items():
        shape = shape_of(scope)
        for r in range(1, min(l, len(scope) - 1) + 1):
            positions = itertools.combinations(range(len(scope)), r)
            for idx, sub in zip(positions, itertools.combinations(scope, r)):
                if sub not in original:
                    proj = _project_mask(mask, fibers_of(scope, shape, idx))
                    cover[sub] = cover.get(sub, proj) & proj
    relations: dict[tuple[str, ...], int] = {}
    for size in range(1, l + 1):
        for combo in itertools.combinations(variables, size):
            if combo in original:
                relations[combo] = original[combo]
            elif combo in cover:
                relations[combo] = cover[combo]
            else:
                relations[combo] = (1 << math.prod(shape_of(combo))) - 1
    big = {s: original[s] for s in wide_rows}

    scopes = list(relations) + list(big)
    masks = list(relations.values()) + list(big.values())
    ident = {s: i for i, s in enumerate(scopes)}
    subs: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in scopes]
    supers: list[list[int]] = [[] for _ in scopes]
    shapes = [shape_of(s) for s in scopes]
    for i, scope in enumerate(scopes):
        for r in range(1, min(k, len(scope) - 1) + 1):
            positions = itertools.combinations(range(len(scope)), r)
            for idx, sub in zip(positions, itertools.combinations(scope, r)):
                t = ident[sub]
                subs[i].append((t, fibers_of(scope, shapes[i], idx)))
                supers[t].append(i)

    def result(status: str) -> tuple[Instance, str]:
        cons = []
        for s in sorted(relations) + sorted(big):
            i = ident[s]
            rows = wide_rows[s] if s in wide_rows else _shape_tuples(shapes[i])
            cons.append(Constraint(s, _mask_tuples(masks[i], rows)))
        return instance.with_constraints(tuple(cons)), status

    if not all(masks):
        return result("unsat")
    queue = collections.deque(i for i in reversed(range(len(scopes))) if subs[i])
    queued = [bool(s) for s in subs]
    while queue:
        s = queue.popleft()
        queued[s] = False
        m = masks[s]
        shrunk: list[int] = []
        # narrow each sub-relation to the projection of m and filter m by it,
        # until m stops shrinking
        while True:
            before = m
            for t, fibers in subs[s]:
                mt = masks[t]
                kept = allowed = 0
                for j, f in enumerate(fibers):
                    if mt >> j & 1 and m & f:
                        kept |= 1 << j
                        allowed |= f
                if kept != mt:
                    masks[t] = kept
                    shrunk.append(t)
                    if not kept:
                        masks[s] = m
                        return result("unsat")
                m &= allowed
            if not m:
                masks[s] = m
                return result("unsat")
            if m == before:
                break
        masks[s] = m
        # Every sub-relation of s is now the projection of m, so s and its
        # sub-scopes agree with each other.  A scope outside them that filters
        # by a shrunk sub-relation must be redone.  A larger scope that filters
        # by s itself need not: whatever m lost, it lost for a sub-relation
        # that scope filters by too.
        if shrunk:
            inside = {t for t, _ in subs[s]}
            inside.add(s)
            for t in shrunk:
                for u in supers[t]:
                    if not queued[u] and u not in inside:
                        queued[u] = True
                        queue.append(u)
    return result("sat")


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
