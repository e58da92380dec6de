"""The colored edge digraphs: as- and sm-edges, components, and chain shifting.

Edges of a pair (a, b) are computed inside the generated subalgebra
Sg(a, b) (edges are local to subalgebras, which is also what makes this
cheap), quantifying over the cyclic operations of that subalgebra at a
configurable arity set -- by default the least prime above |Sg(a, b)|.

    a ->as b  iff  for every cyclic c:  b in Sg(a, c(a,..,a,b))
    a ->sm b  iff  for every binary term t, every cyclic c, every 0 < k <= p/2:
                   b in Sg(a, t(b, c(a^k b^(p-k))))

The values t(b, w) over the binary terms t are exactly Sg{b, w}, so the
sm-test closes Sg{b, w} and asks b in Sg(a, e) for each of its elements e;
it never builds the binary clone.

s-edges (as and sm together) are cross-checked against the independent
two-element absorption characterization: {a,b} is a subuniverse on which some
binary term acts as a semilattice absorbing b, i.e. (b, b) lies in
Sg{(a, b), (b, a)} <= A^2.  A disagreement is a hard error, not a warning: it
cannot happen over a minimal Taylor algebra.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from .algebra import (
    FiniteAlgebra,
    BinaryRelation,
    Partition,
    induced_subalgebra,
    sg_closure,
    tables_cache,
    with_algebra,
)
from .errors import CapExceeded, NoCyclicWitness, PreconditionViolated, SEdgeMismatch
from .terms import (
    UniversalMeet,
    cyclic_operations,
    free_algebra,
    least_prime_above,
    semilattice_term,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class EdgeGraph:
    """The pair of digraphs as(A), sm(A) with derived s and asm views.

    Loops are present by definition and excluded from component semantics.
    Pairs whose status could not be decided within caps are in `unknown`.
    """

    algebra: FiniteAlgebra
    as_edges: frozenset[Edge]
    sm_edges: frozenset[Edge]
    unknown: frozenset[Edge]
    arities_by_pair: tuple[tuple[Edge, tuple[int, ...]], ...]

    @property
    def s_edges(self) -> frozenset[Edge]:
        return self.as_edges & self.sm_edges

    @property
    def asm_edges(self) -> frozenset[Edge]:
        return self.as_edges | self.sm_edges

    @functools.cached_property
    def _flavors(self) -> dict[str, tuple[frozenset[Edge], frozenset[Edge], tuple[int, ...]]]:
        """Each flavor's edge set, its loop-free part and its reach masks,
        built once per graph."""
        sets = {"as": self.as_edges, "sm": self.sm_edges, "s": self.s_edges, "asm": self.asm_edges}
        out = {}
        for f, e in sets.items():
            proper = frozenset((a, b) for a, b in e if a != b)
            out[f] = (e, proper, reach_masks(self.algebra.size, proper))
        return out

    def edges(self, flavor: str) -> frozenset[Edge]:
        return self._flavors[flavor][0]

    def proper(self, flavor: str) -> frozenset[Edge]:
        return self._flavors[flavor][1]

    def reach(self, flavor: str) -> tuple[int, ...]:
        """The flavor's reach masks; see `reach_masks`."""
        return self._flavors[flavor][2]

    def replace(self, as_edges=None, sm_edges=None) -> "EdgeGraph":
        return EdgeGraph(
            self.algebra,
            frozenset(as_edges) if as_edges is not None else self.as_edges,
            frozenset(sm_edges) if sm_edges is not None else self.sm_edges,
            self.unknown,
            self.arities_by_pair,
        )


def _edge_pair_in_subalgebra(
    sub: FiniteAlgebra, a: int, b: int, arities: tuple[int, ...], cap: int
) -> tuple[bool, bool]:
    """Decide (a ->as b, a ->sm b) inside the subalgebra generated by {a, b}."""
    as_ok = True
    sm_ok = True
    for p in arities:
        # an incomplete F(p) leaves the pair unknown: fail before filtering it
        if not free_algebra(sub, p, cap=cap).complete:
            raise CapExceeded(f"cyclic search of {sub.name} at arity {p} incomplete")
        cyclics, _ = cyclic_operations(sub, p, cap=cap)
        if not cyclics:
            raise NoCyclicWitness(
                f"{sub.name} has no cyclic operation at arity {p}; not Taylor?"
            )
        for c in cyclics:
            if as_ok:
                v = c.apply(*((a,) * (p - 1) + (b,)))
                if b not in sg_closure(sub, {a, v}):
                    as_ok = False
            if sm_ok:
                for k in range(1, p // 2 + 1):
                    w = c.apply(*((a,) * k + (b,) * (p - k)))
                    # the values t(b, w) of the binary terms t are Sg{b, w}
                    if any(b not in sg_closure(sub, {a, e}) for e in sg_closure(sub, {b, w})):
                        sm_ok = False
                        break
            if not as_ok and not sm_ok:
                return False, False
    return as_ok, sm_ok


@tables_cache(with_algebra)
def compute_edges(
    alg: FiniteAlgebra, arities: tuple[int, ...] | None = None, cap: int = 4096
) -> EdgeGraph:
    """Compute as(A) and sm(A) pairwise inside generated subalgebras.

    `arities` overrides the per-pair default {least prime > |Sg(a,b)|}.
    Pairs that exceed caps become `unknown` rather than silently absent.
    """
    n = alg.size
    as_edges: set[Edge] = set()
    sm_edges: set[Edge] = set()
    unknown: set[Edge] = set()
    provenance: list[tuple[Edge, tuple[int, ...]]] = []

    for a in range(n):
        as_edges.add((a, a))
        sm_edges.add((a, a))
    for a, b in itertools.permutations(range(n), 2):
        sub_set = sg_closure(alg, {a, b})
        sub = induced_subalgebra(alg, sub_set)
        elems = sorted(sub_set)
        ia, ib = elems.index(a), elems.index(b)
        pair_arities = arities if arities is not None else (least_prime_above(len(elems)),)
        provenance.append(((a, b), pair_arities))
        try:
            as_ok, sm_ok = _edge_pair_in_subalgebra(sub, ia, ib, pair_arities, cap)
        except CapExceeded:
            unknown.add((a, b))
            continue
        if as_ok:
            as_edges.add((a, b))
        if sm_ok:
            sm_edges.add((a, b))
        # independent s-edge characterization: {a,b} is a subuniverse and
        # (b, b) lies in Sg{(a, b), (b, a)} <= A^2, i.e. some binary term acts
        # on {a, b} as a semilattice absorbing b
        s_direct = len(sub_set) == 2 and semilattice_term(alg, a, b) is not None
        if s_direct != (as_ok and sm_ok):
            raise SEdgeMismatch(
                f"{alg.name}: pair ({a},{b}) is s-edge={as_ok and sm_ok} by the "
                f"edge definition but {s_direct} by two-element absorption"
            )

    return EdgeGraph(
        alg,
        frozenset(as_edges),
        frozenset(sm_edges),
        frozenset(unknown),
        tuple(provenance),
    )


# ---------------------------------------------------------------------------
# Reachability: strong components (classes of mutual reachability), sinks,
# sources, x-min


def reach_masks(n: int, edges: Iterable[Edge]) -> tuple[int, ...]:
    """Bit v of entry u is set iff some directed path, possibly empty, leads
    from u to v: a Warshall closure over ints, in which loops add nothing."""
    reach = [1 << v for v in range(n)]
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(n):
        bit, through = 1 << k, reach[k]
        for u in range(n):
            if reach[u] & bit:
                reach[u] |= through
    return tuple(reach)


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@dataclass(frozen=True)
class ComponentDecomposition:
    flavor: str
    components: tuple[tuple[int, ...], ...]      # each sorted; ordered by least element
    sinks: frozenset[int]                        # component indices reaching no other
    sources: frozenset[int]                      # component indices no other reaches
    x_min: frozenset[int]                        # union of sink components
    weak_components: tuple[tuple[int, ...], ...]

    def is_weakly_connected(self) -> bool:
        return len(self.weak_components) <= 1


def component_analysis(graph: EdgeGraph, flavor: str) -> ComponentDecomposition:
    """Strong components, sinks/sources, x-min, weak components.

    Strong components are the classes of mutual reachability, numbered by
    least contained element; loops are ignored.
    """
    n = graph.algebra.size
    reach = graph.reach(flavor)
    masks: list[int] = []
    for v in range(n):
        if not any(m >> v & 1 for m in masks):
            masks.append(sum(1 << u for u in range(n) if reach[v] >> u & 1 and reach[u] >> v & 1))
    comps = tuple(map(_bits, masks))
    sinks = frozenset(i for i, m in enumerate(masks) if reach[comps[i][0]] == m)
    sources = frozenset(
        i for i, m in enumerate(masks) if not any(reach[u] & m for u in range(n) if not m >> u & 1)
    )
    x_min = frozenset(v for i in sinks for v in comps[i])
    weak_comps = tuple(map(tuple, Partition.from_pairs(n, graph.proper(flavor)).blocks()))
    return ComponentDecomposition(flavor, comps, sinks, sources, x_min, weak_comps)


def is_x_closed(graph: EdgeGraph, flavor: str, subset: frozenset[int]) -> bool:
    """No flavor-edge leaves the subset."""
    return not any(
        a in subset and b not in subset for a, b in graph.proper(flavor)
    )


def reachable(edges: frozenset[Edge], start: int) -> frozenset[int]:
    n = 1 + max((start, *itertools.chain.from_iterable(edges)))
    return frozenset(_bits(reach_masks(n, edges)[start]))


def s_path_between(graph: EdgeGraph, start: int, goal: int) -> list[int] | None:
    """Some directed s-path from start to goal (BFS, deterministic), or None."""
    if start == goal:
        return [start]
    edges = sorted(graph.proper("s"))
    prev: dict[int, int | None] = {start: None}
    queue = [start]
    while queue:
        v = queue.pop(0)
        for a, b in edges:
            if a == v and b not in prev:
                prev[b] = v
                if b == goal:
                    path = [goal]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                queue.append(b)
    return None


# ---------------------------------------------------------------------------
# Shifting a tolerance chain along an s-path


@dataclass(frozen=True)
class ShiftedChain:
    chain: tuple[int, ...]
    s_reachable_certified: bool
    tolerance_certified: bool


def shift_tolerance_chain(
    alg: FiniteAlgebra,
    tolerance: BinaryRelation,
    chain: tuple[int, ...],
    i: int,
    s_path: tuple[int, ...],
    meet: UniversalMeet,
    graph: EdgeGraph | None = None,
) -> ShiftedChain:
    """Shift every chain entry along the s-path at position i.

    Given a tolerance S, a chain c_0..c_k with consecutive pairs in S, and a
    directed s-path c_i = e_0 ->s e_1 ->s .. ->s e_m = d_i, produces d_0..d_k
    via the iteration e_{j,l+1} = f(e_{j,l}, e_{i,l+1}), certifying
    c_j ->s* d_j and (d_j, d_{j+1}) in S.

    Without a `graph`, the edges come from `compute_edges` at its default
    cap.  A step of the s-path that the graph left undecided raises
    CapExceeded: its cyclic search outgrew the graph's closure cap.
    """
    if not tolerance.is_tolerance(alg):
        raise PreconditionViolated("S is not a tolerance")
    k = len(chain) - 1
    if k < 0 or not (0 <= i <= k):
        raise PreconditionViolated("chain empty or index out of range")
    for j in range(k):
        if not tolerance.contains(chain[j], chain[j + 1]):
            raise PreconditionViolated(f"chain pair ({chain[j]},{chain[j + 1]}) not in S")
    if graph is None:
        graph = compute_edges(alg)
    if not s_path or s_path[0] != chain[i]:
        raise PreconditionViolated("s-path must start at the chain entry")
    s = graph.edges("s")
    for u, v in zip(s_path, s_path[1:]):
        if u != v and (u, v) in graph.unknown:
            raise CapExceeded(
                f"({u},{v}) is undecided: its cyclic search outgrew the closure cap "
                f"(compute_edges' cap) of the edge graph of {alg.name}"
            )
        if u != v and (u, v) not in s:
            raise PreconditionViolated(f"({u},{v}) is not an s-edge")

    f = meet.f
    current = list(chain)
    for step in range(1, len(s_path)):
        target = s_path[step]
        current = [f.apply(current[j], target) if j != i else target for j in range(k + 1)]

    s_cert = all(
        chain[j] in _s_ancestors(graph, current[j]) for j in range(k + 1)
    )
    tol_cert = all(tolerance.contains(current[j], current[j + 1]) for j in range(k))
    return ShiftedChain(tuple(current), s_cert, tol_cert)


def _s_ancestors(graph: EdgeGraph, target: int) -> frozenset[int]:
    return frozenset(u for u, m in enumerate(graph.reach("s")) if m >> target & 1)
