"""Regenerate the pinned algebra files in perfbench/inputs and their checksums.

    PYTHONPATH=src python3 perfbench/make_inputs.py

The benchmark never runs this: it reads the committed files and refuses to
run when a checksum differs, so every run of every commit sees the same
inputs.  Rerun it only to change the inputs on purpose.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

from taylor_edges.algebra import FiniteAlgebra, OperationTable, induced_subalgebra, product_algebra
from taylor_edges.catalog import a1, builtin_algebras, two_element_majority, z2_minority
from taylor_edges.csp import Template
from taylor_edges.fileio import emit_algebra, emit_algebras

INPUTS = Path(__file__).resolve().parent / "inputs"
CHECKSUMS = INPUTS / "SHA256SUMS"
TEMPLATE_DOMAIN_SIZES = range(2, 5)


def z2top() -> FiniteAlgebra:
    """Three elements: the minority operation on {0,1}, with 2 absorbing."""

    def f(x, y, z):
        return 2 if 2 in (x, y, z) else (x + y + z) % 2

    table = tuple(f(*args) for args in itertools.product(range(3), repeat=3))
    return FiniteAlgebra("z2top", 3, (OperationTable("f", 3, table),))


def template_seeds(sub7: FiniteAlgebra) -> list[FiniteAlgebra]:
    return [z2_minority(), two_element_majority(), a1(), z2top(), sub7]


def build() -> dict[str, str]:
    a1_maj = product_algebra(a1(), two_element_majority())
    sub7 = induced_subalgebra(product_algebra(z2top(), z2top()), frozenset(range(2, 9)))
    template = Template.hs_closure(template_seeds(sub7), size_cap=7)
    return {
        "catalog.alg": emit_algebras(list(builtin_algebras().values())),
        "a1.alg": emit_algebra(a1()),
        "z2top.alg": emit_algebra(z2top()),
        "z2top_x_majority2.alg": emit_algebra(product_algebra(z2top(), two_element_majority())),
        "z2minority_x_majority2.alg": emit_algebra(
            product_algebra(z2_minority(), two_element_majority())
        ),
        "a1_x_majority2.alg": emit_algebra(a1_maj),
        "a1_x_majority2_sg03.alg": emit_algebra(induced_subalgebra(a1_maj, frozenset({0, 1, 3}))),
        "z2top2_sub7.alg": emit_algebra(sub7),
        "template_domains.alg": emit_algebras(
            [m for m in template.members if m.size in TEMPLATE_DOMAIN_SIZES]
        ),
    }


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    lines = []
    for name, text in sorted(build().items()):
        (INPUTS / name).write_text(text, encoding="utf-8")
        lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n")
    CHECKSUMS.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
