"""Congruences, unary polynomials, the centralizer condition, homomorphisms.

Principal congruences are computed by the standard translation closure:
close {(a,b)} under single-coordinate images by basic operations and
union-find the results.  The translations at an element are read as one row
of each table, with the varying argument's axis moved first.  The congruence
set is the join-closure of the principal congruences, which is the whole
congruence lattice.

A map is a homomorphism iff its graph is a subuniverse of src x dst, so
homomorphisms are found by closing pairs (generator, image) with
`generate_subproduct` and keeping the image choices whose closure has no
more rows than the generated part of src: one row more means some element
got two images.

The centralizer condition C(alpha, beta; 0) is decided by the matrix
method: close the set of 2x2 matrices (as elements of alg^4, flattened
row-major) generated by alpha-rows and beta-columns, and check that equal
top rows force equal bottom rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteAlgebra,
    Partition,
    UnionFind,
    flat_indices,
    generate_subproduct,
    induced_subalgebra,
    is_closed,
    push_table,
    quotient_algebra,
    sg_closure,
    tables_cache,
)
from .errors import CapExceeded, NotACongruence, NotCompatible, SignatureMismatch
from .terms import is_affine_algebra


def is_congruence(alg: FiniteAlgebra, p: Partition) -> bool:
    """Compatibility: every operation pushes to the blocks of p."""
    return p.size == alg.size and all(
        push_table(op.table, alg.size, op.arity, p) is not None for op in alg.ops
    )


@functools.lru_cache(maxsize=None)
def _translations(alg: FiniteAlgebra) -> list[list[list[int]]]:
    """Per operation and argument position, row u lists the value at u of
    every translation: the table with that axis moved first."""
    n = alg.size
    return [
        np.moveaxis(np.reshape(op.table, (n,) * op.arity), pos, 0).reshape(n, -1).tolist()
        for op in alg.ops
        for pos in range(op.arity)
    ]


@functools.lru_cache(maxsize=None)
def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Cg(a, b): close the pair under basic-operation translations."""
    translations = _translations(alg)
    uf = UnionFind(alg.size)
    union = uf.union
    work = [(a, b)]
    union(a, b)
    while work:
        u, v = work.pop()
        for rows in translations:
            for x, y in zip(rows[u], rows[v]):
                if union(x, y):
                    work.append((x, y))
    return uf.partition()


@dataclass(frozen=True)
class CongruenceReport:
    principals: tuple[Partition, ...]       # distinct nontrivial Cg(a,b), deterministic order
    all_congruences: tuple[Partition, ...]  # full lattice incl. bounds
    monolith: Partition | None              # unique minimal nonzero congruence
    is_subdirectly_irreducible: bool


@functools.lru_cache(maxsize=None)
def congruences(alg: FiniteAlgebra, cap: int = 10) -> CongruenceReport:
    """Principal congruences, their join-closure, monolith, and SI flag."""
    n = alg.size
    if n > cap:
        raise CapExceeded(f"congruence computation capped at size {cap}, got {n}")
    zero = Partition.zero(n)
    principals = []
    seen = {zero}
    for a in range(n):
        for b in range(a + 1, n):
            cg = principal_congruence(alg, a, b)
            if cg not in seen:
                seen.add(cg)
                principals.append(cg)

    lattice = {zero} | set(principals)
    frontier = list(principals)
    while frontier:
        nxt = []
        for p in frontier:
            for q in list(lattice):
                j = p.join(q)
                if j not in lattice:
                    lattice.add(j)
                    nxt.append(j)
        frontier = nxt

    ordered = sorted(lattice, key=lambda p: (p.size - p.block_count(), p.blocks_of))
    nonzero = [p for p in ordered if not p.is_zero()]
    monolith = None
    if nonzero:
        candidate = nonzero[0]
        if all(candidate.refines(p) for p in nonzero):
            monolith = candidate
    return CongruenceReport(
        tuple(principals), tuple(ordered), monolith, monolith is not None and n > 1
    )


# ---------------------------------------------------------------------------
# Unary polynomials


@functools.lru_cache(maxsize=None)
def unary_polynomials(alg: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """All unary polynomials of `alg` as value vectors.

    Computed as the subuniverse of the transformation algebra alg^A generated
    by the identity map and all constant maps, closed under pointwise basic
    operations.  Sorted for determinism.
    """
    n = alg.size
    seeds = [tuple(range(n))] + [(c,) * n for c in range(n)]
    rows = generate_subproduct([alg] * n, seeds)
    return tuple(sorted(rows))


def is_unary_polynomial(alg: FiniteAlgebra, mapping: tuple[int, ...]) -> bool:
    return tuple(mapping) in set(unary_polynomials(alg))


# ---------------------------------------------------------------------------
# Centralizer condition and abelian / affine tests


@functools.lru_cache(maxsize=None)
def centralizer_condition(alg: FiniteAlgebra, alpha: Partition, beta: Partition) -> bool:
    """Decide C(alpha, beta; 0) by the matrix method.

    A matrix (x1,x2,x3,x4) in alg^4 is read as rows (x1,x2) / (x3,x4).
    Generators: (a,a,b,b) for (a,b) in alpha and (c,d,c,d) for (c,d) in beta.
    The condition holds iff every generated matrix with equal top row has an
    equal bottom row.
    """
    if not is_congruence(alg, alpha):
        raise NotACongruence("alpha is not a congruence")
    if not is_congruence(alg, beta):
        raise NotACongruence("beta is not a congruence")
    n = alg.size
    seeds = []
    for a in range(n):
        for b in range(n):
            if alpha.same(a, b):
                seeds.append((a, a, b, b))
            if beta.same(a, b):
                seeds.append((a, b, a, b))
    rows = generate_subproduct([alg] * 4, seeds)
    return all(x3 == x4 for x1, x2, x3, x4 in rows if x1 == x2)


def is_abelian(alg: FiniteAlgebra) -> bool:
    n = alg.size
    return centralizer_condition(alg, Partition.one(n), Partition.one(n))


@dataclass(frozen=True)
class AffineReport:
    is_abelian: bool
    is_affine: bool | None        # None when abelian and the Taylor status is unknown
    r3_criterion: bool | None     # None when no ternary relation was supplied
    r3_witness: tuple | None      # first failing (a, coordinate) if criterion fails


def affine_checks(alg: FiniteAlgebra, r3: frozenset | None = None) -> AffineReport:
    """Abelianness (matrix method), affineness (`is_affine_algebra`), and the
    bijection-sections criterion for an optional compatible ternary relation."""
    abelian, affine = is_abelian(alg), is_affine_algebra(alg)
    criterion = None
    witness = None
    if r3 is not None:
        triples = frozenset(tuple(t) for t in r3)
        if not is_closed([alg] * 3, triples):
            raise NotCompatible("the ternary relation is not closed under the operations")
        criterion, witness = _r3_sections_bijective(alg.size, triples)
    return AffineReport(abelian, affine, criterion, witness)


def _r3_sections_bijective(n: int, triples: frozenset) -> tuple[bool, tuple | None]:
    for coord in (1, 2, 3):
        for a in range(n):
            if coord == 1:
                section = [(y, z) for (x, y, z) in triples if x == a]
            elif coord == 2:
                section = [(x, z) for (x, y, z) in triples if y == a]
            else:
                section = [(x, y) for (x, y, z) in triples if z == a]
            firsts = [p[0] for p in section]
            seconds = [p[1] for p in section]
            if (
                len(section) != n
                or len(set(firsts)) != n
                or len(set(seconds)) != n
            ):
                return False, (a, coord)
    return True, None


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def kernel(self) -> Partition:
        return Partition.normalize(self.mapping)


def is_homomorphism(src: FiniteAlgebra, dst: FiniteAlgebra, mapping: tuple[int, ...]) -> bool:
    if src.signature != dst.signature:
        return False
    for op_s, op_d in zip(src.ops, dst.ops):
        through = map(op_d.table.__getitem__, flat_indices(mapping, dst.size, op_s.arity))
        if list(map(mapping.__getitem__, op_s.table)) != list(through):
            return False
    return True


def _with_ends(homs: tuple[Homomorphism, ...], src: FiniteAlgebra, dst: FiniteAlgebra):
    """`homs` with the caller's source and target, for `tables_cache`."""
    if not homs or (homs[0].source is src and homs[0].target is dst):
        return homs
    return tuple(Homomorphism(src, dst, h.mapping) for h in homs)


@tables_cache(_with_ends)
def homomorphisms_between(src: FiniteAlgebra, dst: FiniteAlgebra) -> tuple[Homomorphism, ...]:
    """All homomorphisms src -> dst, as the graphs that are subuniverses of src x dst.

    Generators g_1..g_k of src are picked in index order, each outside the
    subuniverse generated by the earlier ones, and b_i = |Sg(g_1..g_i)|.
    Images d_1..d_i extend to a homomorphism on Sg(g_1..g_i) iff the pairs
    (g_j, d_j) generate at most b_i rows of src x dst: a row more gives some
    element two images.  Images are extended one generator at a time.
    """
    if src.signature != dst.signature:
        raise SignatureMismatch(
            f"{src.name} and {dst.name} have different signatures"
        )
    gens: list[int] = []
    bounds: list[int] = []
    span: frozenset[int] = frozenset()
    for x in range(src.size):
        if x not in span:
            gens.append(x)
            span = sg_closure(src, gens)
            bounds.append(len(span))
    level: list[tuple[tuple[int, ...], list]] = [((), [])]
    for g, bound in zip(gens, bounds):
        grown = []
        for images, _ in level:
            for d in range(dst.size):
                seeds = [*zip(gens, images), (g, d)]
                try:
                    graph = generate_subproduct([src, dst], seeds, cap=bound)
                except CapExceeded:
                    continue
                grown.append((images + (d,), graph))
        level = grown
    mappings = sorted(tuple(y for _, y in sorted(graph)) for _, graph in level)
    return tuple(Homomorphism(src, dst, m) for m in mappings)


def quotient_map(alg: FiniteAlgebra, theta: Partition) -> Homomorphism:
    """The natural surjection onto the quotient by a congruence."""
    q = quotient_algebra(alg, theta)
    return Homomorphism(alg, q, tuple(theta.blocks_of))


def subalgebra_embedding(alg: FiniteAlgebra, subset: frozenset) -> Homomorphism:
    """The inclusion of an induced subalgebra, as a map with renumbered source."""
    sub = induced_subalgebra(alg, subset)
    return Homomorphism(sub, alg, tuple(sorted(subset)))
