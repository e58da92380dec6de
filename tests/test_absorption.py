import itertools


from taylor_edges.absorption import (
    absorption_report,
    bounded_projectivity,
    is_2_absorbing,
    is_3_absorbing,
)
from taylor_edges.algebra import generate_subproduct, is_subuniverse
from taylor_edges.edges import compute_edges, is_x_closed
from taylor_edges.terms import free_algebra


class TestBinaryAbsorption:
    def test_semilattice_absorbing_element(self, semilattice):
        dec = is_2_absorbing(semilattice, frozenset({0}))
        assert dec.absorbing and dec.is_subuniverse
        assert dec.witness.term.table == (0, 0, 0, 1)

    def test_z2_singleton_not_absorbing(self, z2):
        dec = is_2_absorbing(z2, frozenset({0}))
        assert not dec.absorbing

    def test_a1_zero_absorbing(self, alg_a1):
        dec = is_2_absorbing(alg_a1, frozenset({0}))
        assert dec.absorbing
        t = dec.witness.term
        for a in range(4):
            assert t.apply(0, a) == 0 and t.apply(a, 0) == 0

    def test_full_set_always_absorbing(self, full_catalog):
        for alg in full_catalog:
            assert is_2_absorbing(alg, frozenset(range(alg.size))).absorbing

    def test_witness_replays_against_definition(self, full_catalog):
        for alg in full_catalog:
            for bits in range(1, 1 << alg.size):
                subset = frozenset(i for i in range(alg.size) if bits >> i & 1)
                dec = is_2_absorbing(alg, subset)
                if dec.absorbing and dec.witness and dec.witness.term:
                    t = dec.witness.term
                    for b in subset:
                        for x in range(alg.size):
                            assert t.apply(b, x) in subset
                            assert t.apply(x, b) in subset


class TestTernaryAbsorption:
    def test_majority_singletons(self, majority):
        assert is_3_absorbing(majority, frozenset({0})).absorbing
        assert is_3_absorbing(majority, frozenset({1})).absorbing

    def test_z2_singleton_escapes(self, z2):
        assert not is_3_absorbing(z2, frozenset({0})).absorbing
        # the escape is concrete: minority((0,1),(1,0),(0,0)) = (1,1)
        m = z2.ops[0]
        assert (m.apply(0, 1, 0), m.apply(1, 0, 0)) == (1, 1)

    def test_full_set(self, alg_a1):
        assert is_3_absorbing(alg_a1, frozenset(range(4))).absorbing

    def test_structural_set_is_closed_for_majority(self, majority):
        dec = is_3_absorbing(majority, frozenset({0}))
        cross = sorted(dec.witness.structural)
        rows = generate_subproduct([majority, majority], cross)
        assert len(rows) == len(cross)


class TestProjectivity:
    def test_a1_zero_strongly_projective(self, alg_a1):
        rep = bounded_projectivity(alg_a1, frozenset({0}), arity_cap=3)
        assert rep.strongly_projective_upto == 3
        assert rep.absorbing_element

    def test_semilattice_zero(self, semilattice):
        rep = bounded_projectivity(semilattice, frozenset({0}), arity_cap=3)
        assert rep.strongly_projective_upto == 3
        assert rep.absorbing_element

    def test_majority_singleton_fails_at_three(self, majority):
        rep = bounded_projectivity(majority, frozenset({0}), arity_cap=3)
        assert rep.projective_upto == 2  # maj(0,1,1) = 1 kills arity 3
        assert not rep.absorbing_element
        assert rep.failure is not None and rep.failure[0] == 3


class TestReports:
    def test_a1_report(self, alg_a1):
        rep = absorption_report(alg_a1)
        by_subset = {r.subset: r for r in rep.subsets}
        zero = by_subset[frozenset({0})]
        assert zero.two_absorbing and zero.three_absorbing
        pair = by_subset[frozenset({1, 2})]
        assert pair.is_subuniverse and not pair.two_absorbing
        assert rep.equivalence_audited
        assert rep.transport_audited

    def test_majority_report(self, majority):
        rep = absorption_report(majority)
        by_subset = {r.subset: r for r in rep.subsets}
        for x in (0, 1):
            assert by_subset[frozenset({x})].three_absorbing
            assert not by_subset[frozenset({x})].two_absorbing

    def test_one_element_report(self, ternary_template):
        triv = next(m for m in ternary_template.members if m.size == 1)
        rep = absorption_report(triv)
        assert len(rep.subsets) == 1
        row = rep.subsets[0]
        assert row.is_subuniverse and row.two_absorbing and row.three_absorbing

    def test_absorbing_sets_are_subuniverses(self, full_catalog):
        for alg in full_catalog:
            for r in absorption_report(alg).subsets:
                if r.two_absorbing or r.three_absorbing:
                    assert r.is_subuniverse


class TestCrossValidation:
    def test_two_absorption_equals_asm_closedness(self, full_catalog):
        # both directions of the characterization, every algebra, every subset
        disagreements = 0
        for alg in full_catalog:
            graph = compute_edges(alg)
            for bits in range(1, 1 << alg.size):
                subset = frozenset(i for i in range(alg.size) if bits >> i & 1)
                dec = is_2_absorbing(alg, subset, graph=graph)
                if dec.absorbing != is_x_closed(graph, "asm", subset):
                    disagreements += 1
        assert disagreements == 0

    def test_structural_ternary_equals_witness_search(self, full_catalog):
        for alg in full_catalog:
            free3 = free_algebra(alg, 3)
            assert free3.complete
            for bits in range(1, 1 << alg.size):
                subset = frozenset(i for i in range(alg.size) if bits >> i & 1)
                # is_3_absorbing raises on mismatch
                is_3_absorbing(alg, subset)

    def test_s_edge_coherence(self, full_catalog):
        # a ->s b  iff  {a,b} is a subuniverse and {b} absorbs the pair algebra
        from taylor_edges.algebra import induced_subalgebra, sg_closure

        for alg in full_catalog:
            g = compute_edges(alg)
            for a, b in itertools.permutations(range(alg.size), 2):
                pair = frozenset({a, b})
                direct = False
                if sg_closure(alg, pair) == pair:
                    sub = induced_subalgebra(alg, pair)
                    ib = sorted(pair).index(b)
                    direct = is_2_absorbing(sub, frozenset({ib})).absorbing
                assert ((a, b) in g.proper("s")) == direct
