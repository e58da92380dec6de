"""Renamed twins: algebras with the same tables under different names.

An algebra's name is a label.  Equality, hashing and every cache read the
size and the tables, so a twin shares each cache entry with the original,
and a cached result comes back holding the caller's algebra and name.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import taylor_edges
from taylor_edges.algebra import (
    FiniteAlgebra,
    OperationTable,
    _sg_closure_cached,
    induced_subalgebra,
    sg_closure,
)
from taylor_edges.catalog import a1
from taylor_edges.congruences import homomorphisms_between
from taylor_edges.csp import joint_universal_meet
from taylor_edges.edges import compute_edges
from taylor_edges.fileio import emit_dot
from taylor_edges.terms import cyclic_operations, free_algebra

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def renamed(alg: FiniteAlgebra, name: str) -> FiniteAlgebra:
    return alg.rename(name)


def rebuilt(alg: FiniteAlgebra, name: str) -> FiniteAlgebra:
    """The same tables, copied one by one into new operation tables."""
    ops = tuple(OperationTable(op.symbol, op.arity, tuple(op.table)) for op in alg.ops)
    return FiniteAlgebra(name, alg.size, ops)


@pytest.fixture(params=[renamed, rebuilt], ids=["rename", "rebuild"])
def twin_of(request):
    return request.param


def test_twins_are_equal_and_hash_equal(twin_of):
    original = a1()
    twin = twin_of(original, "twin")
    assert twin == original and hash(twin) == hash(original)
    assert twin.name == "twin" and original.name == "a1"
    assert len({original, twin}) == 1


CACHED = {
    "sg_closure": (_sg_closure_cached, lambda alg: sg_closure(alg, {1, 2})),
    "free_algebra": (free_algebra, lambda alg: free_algebra(alg, 2).elements),
    "cyclic_operations": (cyclic_operations, lambda alg: cyclic_operations(alg, 3)),
    "compute_edges": (compute_edges, lambda alg: compute_edges(alg).arities_by_pair),
}


@pytest.mark.parametrize("layer", sorted(CACHED))
def test_one_miss_for_both_names(layer, twin_of):
    cache, call = CACHED[layer]
    original = a1()
    twin = twin_of(original, "twin")
    before = cache.cache_info()
    want = call(original)
    after_original = cache.cache_info()
    got = call(twin)
    after_twin = cache.cache_info()
    # the original may already be cached by an earlier test
    assert after_original.misses - before.misses <= 1
    assert after_twin.misses == after_original.misses
    assert after_twin.hits > after_original.hits
    assert got == want


def test_cached_results_carry_the_callers_names(twin_of):
    original = a1()
    # fill every cache under the original's name first
    compute_edges(original)
    induced_subalgebra(original, frozenset({0, 1}))
    free_algebra(original, 2)
    homomorphisms_between(original, original)
    joint_universal_meet([original])

    twin = twin_of(original, "twin")
    assert emit_dot(compute_edges(twin)).splitlines()[0] == 'digraph "twin" {'
    assert compute_edges(twin).algebra is twin
    sub = induced_subalgebra(twin, frozenset({0, 1}))
    assert sub.name == "twin|{0,1}" and sub == induced_subalgebra(original, frozenset({0, 1}))
    assert free_algebra(twin, 2).algebra is twin
    homs = homomorphisms_between(twin, twin)
    assert homs and all(h.source is twin and h.target is twin for h in homs)
    mixed = homomorphisms_between(original, twin)
    assert all(h.source is original and h.target is twin for h in mixed)
    meet = joint_universal_meet([twin])
    assert meet.tables[0][0] is twin
    assert meet.table_for(original) == meet.table_for(twin)


def test_cached_results_keep_the_first_callers_names():
    """A hit for the original after a twin filled the cache is the original's."""
    original = a1()
    twin = original.rename("twin")
    free_algebra(twin, 2)
    compute_edges(twin)
    assert free_algebra(original, 2).algebra is original
    assert compute_edges(original).algebra is original
    assert induced_subalgebra(original, frozenset({0, 1})).name == "a1|{0,1}"


SPY = """
import contextlib, io, sys
from taylor_edges import cli, terms
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", sys.argv[1], "--format", "json"])
print(terms.free_algebra.cache_info().misses)
"""


def test_verify_runs_one_free_algebra_closure_per_table_set():
    """`verify` on z2top x majority2 needs 16 distinct (tables, k) free
    algebras; the members of its HS closure cut many of them under several
    names, and each must be closed once."""
    package_root = str(Path(taylor_edges.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", SPY, str(INPUTS / "z2top_x_majority2.alg")],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert int(out.stdout) <= 16
