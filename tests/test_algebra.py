import itertools

import numpy as np
import pytest

from taylor_edges.algebra import (
    BinaryRelation,
    FiniteAlgebra,
    OperationTable,
    Partition,
    enumerate_subuniverses,
    induced_subalgebra,
    link_structure,
    power_algebra,
    product_algebra,
    quotient_algebra,
    sg_closure,
    validate_algebra,
)
from taylor_edges.congruences import (
    affine_checks,
    centralizer_condition,
    congruences,
    homomorphisms_between,
    is_abelian,
    is_congruence,
    principal_congruence,
    unary_polynomials,
)
from taylor_edges.errors import (
    CapExceeded,
    NotACongruence,
    NotClosed,
    NotCompatible,
    NotSubdirect,
    SignatureMismatch,
)

from helpers import (
    all_partitions,
    all_tolerances,
    naive_closure,
    naive_is_congruence,
    naive_subuniverses,
)


class TestValidation:
    def test_a1_valid_and_cyclic(self, alg_a1):
        rep = validate_algebra(alg_a1)
        assert rep.ok
        f = alg_a1.ops[0]
        for x, y, z in itertools.product(range(4), repeat=3):
            assert f.apply(x, y, z) == f.apply(y, z, x)

    def test_one_element_algebra_valid(self):
        alg = FiniteAlgebra("triv", 1, (OperationTable("f", 3, (0,)),))
        assert validate_algebra(alg).ok

    def test_idempotency_failure_witness(self):
        bad = FiniteAlgebra("bad", 2, (OperationTable("g", 2, (1, 0, 0, 1)),))
        rep = validate_algebra(bad)
        assert not rep.ok
        assert rep.idempotency_failures == (("g", 0),)

    def test_table_length_and_range_errors(self):
        rep = validate_algebra(
            FiniteAlgebra("short", 2, (OperationTable("g", 2, (0, 0, 1)),))
        )
        assert rep.table_length_errors
        rep = validate_algebra(
            FiniteAlgebra("range", 2, (OperationTable("g", 2, (0, 0, 5, 1)),))
        )
        assert rep.range_errors


class TestClosure:
    def test_a1_pair_closed(self, alg_a1):
        assert sg_closure(alg_a1, {1, 2}) == frozenset({1, 2})

    def test_a1_rainbow_generates_everything(self, alg_a1):
        assert sg_closure(alg_a1, {1, 2, 3}) == frozenset({0, 1, 2, 3})

    def test_singleton_closure(self, full_catalog):
        for alg in full_catalog:
            for a in range(alg.size):
                assert sg_closure(alg, {a}) == frozenset({a})

    def test_empty_seed_rejected(self, z2):
        with pytest.raises(ValueError):
            sg_closure(z2, set())

    def test_matches_naive_oracle(self, full_catalog):
        rng = np.random.default_rng(7)
        for alg in full_catalog:
            for _ in range(10):
                size = int(rng.integers(1, alg.size + 1))
                seed = frozenset(rng.choice(alg.size, size=size, replace=False).tolist())
                assert sg_closure(alg, seed) == naive_closure(alg, seed)

    def test_closure_operator_laws(self, full_catalog):
        rng = np.random.default_rng(11)
        for alg in full_catalog:
            subsets = []
            for _ in range(6):
                size = int(rng.integers(1, alg.size + 1))
                subsets.append(
                    frozenset(rng.choice(alg.size, size=size, replace=False).tolist())
                )
            for s in subsets:
                cl = sg_closure(alg, s)
                assert s <= cl                       # extensive
                assert sg_closure(alg, cl) == cl     # idempotent
                for t in subsets:
                    if s <= t:
                        assert cl <= sg_closure(alg, t)  # monotone


class TestSubuniverses:
    def test_semilattice(self, semilattice):
        enum = enumerate_subuniverses(semilattice)
        assert set(enum.subuniverses) == {
            frozenset({0}), frozenset({1}), frozenset({0, 1})
        }

    def test_a1_matches_oracle_and_rainbow_open(self, alg_a1):
        enum = enumerate_subuniverses(alg_a1)
        assert set(enum.subuniverses) == set(naive_subuniverses(alg_a1))
        for pair in ({1, 2}, {1, 3}, {2, 3}, {0, 1}, {0, 2}, {0, 3}):
            assert frozenset(pair) in enum.subuniverses
        assert frozenset({1, 2, 3}) not in enum.subuniverses

    def test_one_element_proper_only_empty(self):
        triv = FiniteAlgebra("triv", 1, (OperationTable("f", 3, (0,)),))
        enum = enumerate_subuniverses(triv)
        assert [s for s in enum.subuniverses if len(s) < enum.size] == []
        assert enum.proper_hypergraph_connected

    def test_cap(self, z2):
        big = power_algebra(z2, 4)  # 16 elements
        with pytest.raises(CapExceeded):
            enumerate_subuniverses(big, cap=8)

    def test_hypergraph_connectivity_against_tolerances(self, full_catalog):
        # connected tolerance != full forces a connected proper-subuniverse graph
        for alg in full_catalog:
            if alg.size > 4:
                continue
            full = {(a, b) for a in range(alg.size) for b in range(alg.size)}
            for tol in all_tolerances(alg):
                lk = Partition.from_pairs(alg.size, tol)
                if lk.is_one() and set(tol) != full:
                    assert enumerate_subuniverses(alg).proper_hypergraph_connected


class TestDerivedAlgebras:
    def test_a1_pair_restriction_is_minority(self, alg_a1, z2):
        sub = induced_subalgebra(alg_a1, frozenset({1, 2}))
        assert sub.ops[0].table == z2.ops[0].table

    def test_subalgebra_requires_closed(self, alg_a1):
        with pytest.raises(NotClosed):
            induced_subalgebra(alg_a1, frozenset({1, 2, 3}))

    def test_quotient_by_zero_is_isomorphic_copy(self, alg_a1):
        q = quotient_algebra(alg_a1, Partition.zero(4))
        assert q.size == alg_a1.size
        assert tuple(op.table for op in q.ops) == tuple(op.table for op in alg_a1.ops)

    def test_quotient_requires_congruence(self, alg_a1):
        with pytest.raises(NotACongruence):
            quotient_algebra(alg_a1, Partition((0, 0, 1, 1)))

    def test_square_of_minority_acts_coordinatewise(self, z2):
        sq = product_algebra(z2, z2)
        assert sq.size == 4
        m = z2.ops[0]
        for args in itertools.product(range(4), repeat=3):
            first = m.apply(*(a // 2 for a in args))
            second = m.apply(*(a % 2 for a in args))
            assert sq.ops[0].apply(*args) == first * 2 + second

    def test_product_signature_mismatch(self, z2, semilattice):
        with pytest.raises(SignatureMismatch):
            product_algebra(z2, semilattice)


class TestCongruences:
    def test_z2(self, z2):
        rep = congruences(z2)
        assert len(rep.all_congruences) == 2
        assert rep.is_subdirectly_irreducible
        assert rep.monolith == Partition.one(2)

    def test_semilattice(self, semilattice):
        rep = congruences(semilattice)
        assert len(rep.all_congruences) == 2
        assert rep.is_subdirectly_irreducible

    def test_square_contains_projection_kernels_not_si(self, z2):
        sq = product_algebra(z2, z2)
        rep = congruences(sq)
        ker1 = Partition.normalize([x // 2 for x in range(4)])
        ker2 = Partition.normalize([x % 2 for x in range(4)])
        assert ker1 in rep.all_congruences
        assert ker2 in rep.all_congruences
        assert not rep.is_subdirectly_irreducible

    def test_full_lattice_matches_partition_filter(self, full_catalog):
        for alg in full_catalog:
            expected = {
                p for p in all_partitions(alg.size) if naive_is_congruence(alg, p)
            }
            assert set(congruences(alg).all_congruences) == expected

    def test_principal_congruence_minimality(self, alg_a1):
        # Cg(a,b) is the least congruence joining a and b
        for a in range(4):
            for b in range(a + 1, 4):
                cg = principal_congruence(alg_a1, a, b)
                assert naive_is_congruence(alg_a1, cg)
                assert cg.same(a, b)
                for p in all_partitions(4):
                    if naive_is_congruence(alg_a1, p) and p.same(a, b):
                        assert cg.refines(p)

    def test_cap(self, z2):
        big = power_algebra(z2, 4)
        with pytest.raises(CapExceeded):
            congruences(big, cap=10)


class TestLinkStructure:
    def test_identity_graph_links_nothing(self, z2):
        rel = BinaryRelation.from_pairs(2, 2, [(0, 0), (1, 1)])
        ls = link_structure(rel, 1)
        assert ls.link_congruence == Partition.zero(2)
        assert not ls.tol_connected
        assert not ls.has_full_fiber

    def test_full_relation(self, z2):
        rel = BinaryRelation.full(2, 2)
        ls = link_structure(rel, 1)
        assert len(ls.tolerance.pairs) == 4
        assert ls.tol_connected
        assert ls.has_full_fiber

    def test_shared_neighbor_connects(self):
        rel = BinaryRelation.from_pairs(2, 2, [(0, 0), (1, 0), (1, 1)])
        ls = link_structure(rel, 1)
        assert len(ls.tolerance.pairs) == 4  # 0 and 1 share the neighbor 0
        assert ls.tol_connected

    def test_not_subdirect(self):
        rel = BinaryRelation.from_pairs(2, 2, [(0, 0)])
        with pytest.raises(NotSubdirect):
            link_structure(rel, 1)

    def test_link_properties_on_generated_subproducts(self, full_catalog):
        # for every subdirect compatible R: tol_i is a tolerance, lk_i a
        # congruence, and connectivity agrees between the two sides
        from taylor_edges.algebra import generate_subproduct

        rng = np.random.default_rng(23)
        for alg in full_catalog:
            if alg.size < 2:
                continue
            n = alg.size
            for _ in range(10):
                seeds = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(3)}
                seeds |= {(a, a) for a in range(n)}  # force subdirectness
                rows = generate_subproduct([alg, alg], sorted(seeds))
                rel = BinaryRelation.from_pairs(n, n, rows)
                ls1 = link_structure(rel, 1)
                ls2 = link_structure(rel, 2)
                assert ls1.tolerance.is_tolerance(alg)
                assert is_congruence(alg, ls1.link_congruence)
                assert ls1.tol_connected == ls2.tol_connected


class TestHomomorphisms:
    def test_z2_selfmaps(self, z2):
        homs = homomorphisms_between(z2, z2)
        # exhaustive oracle over all 4 self-maps: identity, x+1, two constants
        expected = {
            m for m in itertools.product(range(2), repeat=2)
            if all(
                m[z2.ops[0].apply(x, y, z)]
                == z2.ops[0].apply(m[x], m[y], m[z])
                for x, y, z in itertools.product(range(2), repeat=3)
            )
        }
        assert {h.mapping for h in homs} == expected == {(0, 1), (1, 0), (0, 0), (1, 1)}

    def test_semilattice_selfmaps(self, semilattice):
        homs = homomorphisms_between(semilattice, semilattice)
        assert {h.mapping for h in homs} == {(0, 0), (1, 1), (0, 1)}

    def test_every_algebra_maps_onto_trivial(self, ternary_template):
        triv = next(m for m in ternary_template.members if m.size == 1)
        for alg in ternary_template.members:
            homs = homomorphisms_between(alg, triv)
            assert len(homs) == 1

    def test_signature_mismatch(self, z2, semilattice):
        with pytest.raises(SignatureMismatch):
            homomorphisms_between(z2, semilattice)

    def test_exhaustive_against_filter(self, ternary_template):
        # backtracking finds exactly the brute-force homomorphism set
        small = [m for m in ternary_template.members if m.size <= 2]
        for src in small:
            for dst in small:
                expected = set()
                for m in itertools.product(range(dst.size), repeat=src.size):
                    if all(
                        m[src.ops[0].apply(*args)] == dst.ops[0].apply(*(m[a] for a in args))
                        for args in itertools.product(range(src.size), repeat=3)
                    ):
                        expected.add(m)
                got = {h.mapping for h in homomorphisms_between(src, dst)}
                assert got == expected


class TestCentralizer:
    def test_z2_abelian(self, z2):
        assert centralizer_condition(z2, Partition.one(2), Partition.one(2))
        assert is_abelian(z2)

    def test_semilattice_not_abelian(self, semilattice):
        assert not is_abelian(semilattice)

    def test_majority_not_abelian(self, majority):
        assert not is_abelian(majority)

    def test_zero_alpha_always_holds(self, full_catalog):
        for alg in full_catalog:
            for beta in congruences(alg).all_congruences:
                assert centralizer_condition(alg, Partition.zero(alg.size), beta)

    def test_requires_congruences(self, alg_a1):
        with pytest.raises(NotACongruence):
            centralizer_condition(alg_a1, Partition((0, 0, 1, 1)), Partition.one(4))


class TestAffineChecks:
    def test_z2_affine(self, z2):
        rep = affine_checks(z2)
        assert rep.is_abelian and rep.is_affine

    def test_majority_not_abelian(self, majority):
        rep = affine_checks(majority)
        assert not rep.is_abelian and rep.is_affine is False

    def test_r3_criterion_on_graph_of_sum(self, z2):
        triples = frozenset(
            (x, y, (x + y) % 2) for x in range(2) for y in range(2)
        )
        rep = affine_checks(z2, r3=triples)
        assert rep.r3_criterion is True

    def test_r3_rejects_incompatible(self, z2):
        # minority applied to these three triples escapes the set
        bad = frozenset({(0, 0, 0), (1, 1, 1), (0, 1, 1)})
        with pytest.raises(NotCompatible):
            affine_checks(z2, r3=bad)

    def test_r3_failure_witness(self, z2):
        # the full cube is compatible but its sections are not bijections
        cube = frozenset(itertools.product(range(2), repeat=3))
        rep = affine_checks(z2, r3=cube)
        assert rep.r3_criterion is False
        assert rep.r3_witness is not None


class TestUnaryPolynomials:
    def test_contains_identity_and_constants(self, full_catalog):
        for alg in full_catalog:
            polys = set(unary_polynomials(alg))
            assert tuple(range(alg.size)) in polys
            for c in range(alg.size):
                assert (c,) * alg.size in polys

    def test_z2_polynomials(self, z2):
        # x, x+1, and the constants
        assert set(unary_polynomials(z2)) == {(0, 1), (1, 0), (0, 0), (1, 1)}

    def test_closed_under_composition(self, alg_a1):
        polys = set(unary_polynomials(alg_a1))
        for p in polys:
            for q in polys:
                assert tuple(p[q[x]] for x in range(4)) in polys


class TestQuotientHomConsistency:
    def test_natural_maps_are_homomorphisms(self, full_catalog):
        from taylor_edges.congruences import is_homomorphism, quotient_map

        for alg in full_catalog:
            for theta in congruences(alg).all_congruences:
                h = quotient_map(alg, theta)
                assert is_homomorphism(alg, h.target, h.mapping)

    def test_embeddings_are_homomorphisms(self, alg_a1):
        from taylor_edges.congruences import is_homomorphism, subalgebra_embedding

        for sub in enumerate_subuniverses(alg_a1).subuniverses:
            h = subalgebra_embedding(alg_a1, sub)
            assert is_homomorphism(h.source, alg_a1, h.mapping)


class TestAlgebraHash:
    def test_equal_algebras_built_apart_hash_equal(self, alg_a1):
        from taylor_edges.algebra import _sg_closure_cached

        twin = FiniteAlgebra(
            alg_a1.name,
            alg_a1.size,
            tuple(OperationTable(op.symbol, op.arity, tuple(op.table)) for op in alg_a1.ops),
        )
        assert twin == alg_a1 and twin is not alg_a1
        assert hash(twin) == hash(alg_a1)
        assert hash(twin) == hash((alg_a1.name, alg_a1.size, alg_a1.ops))
        seed = frozenset({1, 2})
        sg_closure(alg_a1, seed)
        hits = _sg_closure_cached.cache_info().hits
        assert sg_closure(twin, seed) == sg_closure(alg_a1, seed)
        assert _sg_closure_cached.cache_info().hits == hits + 2

    def test_pickle_recomputes_the_hash(self, alg_a1):
        # string hashes differ between interpreters, so the cached hash must
        # not travel with the pickle
        import pickle

        data = pickle.dumps(alg_a1)
        assert b"_hash" not in data
        clone = pickle.loads(data)
        assert clone == alg_a1 and hash(clone) == hash(alg_a1)
