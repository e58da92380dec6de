"""One subuniverse enumeration per unordered pair in the axiom verifier.

`axioms._product_subuniverses` lists the subuniverses of L x R in lectic
order.  Once R x L is known in the same verification, L x R's list is R x L's
transposed and re-sorted by the lectic key, not enumerated again; it must
equal the enumeration of `product_algebra(L, R)`, set for set and in order.
"""

from __future__ import annotations

import itertools

from taylor_edges import axioms
from taylor_edges.algebra import enumerate_subuniverses, product_algebra

BOUND = 16


def enumerated(left, right):
    prod = product_algebra(left, right)
    return [
        frozenset((x // right.size, x % right.size) for x in s)
        for s in enumerate_subuniverses(prod, cap=prod.size).subuniverses
    ]


def test_transposed_lists_equal_enumeration(ternary_template, semilattice_template, monkeypatch):
    pairs = 0
    for template in (ternary_template, semilattice_template):
        for left, right in itertools.product(template.members, repeat=2):
            if left.size * right.size > BOUND:
                continue
            known: dict = {}
            first = axioms._product_subuniverses(right, left, BOUND, known)
            # the second list of the pair comes from the first, not from a product
            with monkeypatch.context() as m:
                m.setattr(axioms, "product_algebra", None)
                got = axioms._product_subuniverses(left, right, BOUND, known)
            assert first == enumerated(right, left)
            assert got == enumerated(left, right), (left.name, right.name)
            pairs += 1
    assert pairs == 40


def test_verifier_enumerates_each_unordered_pair_once(ternary_template, monkeypatch):
    members = list(ternary_template.members)
    built = []

    def counting_product(left, right):
        built.append((left.name, right.name))
        return product_algebra(left, right)

    monkeypatch.setattr(axioms, "product_algebra", counting_product)
    report = axioms.verify_edge_axioms(members)
    assert report.passed
    n = len(members)
    assert sorted(built) == sorted(set(built))
    assert len(built) == n * (n + 1) // 2
    # the coverage counter still counts every ordered pair
    assert dict(report.coverage)["relational-products-enumerated"] == n * n
