"""Spans around calls into the library's public functions, recorded from outside.

The tracer wraps each public function listed in `Tracer._layers` and rebinds the
wrapper in every loaded `taylor_edges` module namespace that holds the
original (and on `Template.hs_closure`), so calls between library modules are
seen too.  `restore()` puts every original back.  `OperationTable.apply` is
deliberately not wrapped: it is called tens of millions of times per run and
is not a layer boundary.

Spans are kept in memory as [name, start, end, parent] and written out by the
caller; counts are kept in a plain dict next to them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

NARROW_MAX_COORDS = 3


def _closure_name(args, kwargs):
    coords = args[0] if args else kwargs["coords"]
    return "algebra.closure_narrow" if len(coords) <= NARROW_MAX_COORDS else "algebra.closure_wide"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._distinct: dict[str, set] = defaultdict(set)
        self._keep: list = []  # results whose id() marks them as counted
        self._keyed: set = set()
        self._cap_exceeded: type = Exception  # the library's CapExceeded, set by install()

    # -- span recording ---------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def first_time(self, layer: str, result) -> bool:
        """True the first time an lru-cached layer hands out this result."""
        seen = self._distinct[layer]
        if id(result) in seen:
            return False
        seen.add(id(result))
        self._keep.append(result)
        return True

    # -- per-layer counters -------------------------------------------------

    def _closure(self, original, args, kwargs):
        name = _closure_name(args, kwargs)
        self.counts[name + ".calls"] += 1
        try:
            result = self.span(name, original, *args, **kwargs)
        except self._cap_exceeded as exc:
            self.counts["algebra.closure.cap_hits"] += 1
            self.counts[name + ".rows"] += len(exc.partial or ())
            raise
        want = kwargs.get("want_derivations", args[3] if len(args) > 3 else False)
        self.counts[name + ".rows"] += len(result[0] if want else result)
        return result

    def _sg_closure(self, original, args, kwargs):
        cached = sys.modules["taylor_edges.algebra"]._sg_closure_cached
        misses = cached.cache_info().misses
        result = self.span("algebra.sg_closure", original, *args, **kwargs)
        self.counts["algebra.sg_closure.calls"] += 1
        if cached.cache_info().misses == misses:
            self.counts["algebra.sg_closure.repeats"] += 1
        return result

    def _free_algebra(self, original, args, kwargs):
        result = self.span("terms.free_algebra", original, *args, **kwargs)
        if self.first_time("terms.free_algebra", result):
            self.counts["terms.free_algebra.calls"] += 1
            self.counts["terms.free_algebra.elements"] += len(result.elements)
            self.counts["terms.free_algebra.incomplete"] += not result.complete
        return result

    def _compute_edges(self, original, args, kwargs):
        result = self.span("edges.compute_edges", original, *args, **kwargs)
        if self.first_time("edges.compute_edges", result):
            self.counts["edges.compute_edges.calls"] += 1
            self.counts["edges.compute_edges.pairs"] += len(result.arities_by_pair)
            self.counts["edges.compute_edges.unknown_pairs"] += len(result.unknown)
        return result

    def _homomorphisms(self, original, args, kwargs):
        result = self.span("congruences.homomorphisms_between", original, *args, **kwargs)
        if self.first_time("congruences.homomorphisms_between", result):
            self.counts["congruences.homomorphisms_between.homs"] += len(result)
        return result

    def _checks(self, name):
        def hook(original, args, kwargs):
            report = self.span(name, original, *args, **kwargs)
            for check in report.checks:
                self.counts["axioms.checks_" + check.status] += 1
            return report
        return hook

    def _canonical_key(self, original, args, kwargs):
        alg = args[0] if args else kwargs["alg"]
        self.counts["csp.canonical_key.calls"] += 1
        if alg in self._keyed:
            self.counts["csp.canonical_key.repeats"] += 1
        else:
            self._keyed.add(alg)
        return self.span("csp.canonical_key", original, *args, **kwargs)

    def _hs_closure(self, original, args, kwargs):
        template = self.span("csp.hs_closure", original, *args, **kwargs)
        self.counts["csp.hs_closure.members"] += len(template.members)
        return template

    def _kl_minimize(self, original, args, kwargs):
        self.counts["csp.kl_minimize.calls"] += 1
        return self.span("csp.kl_minimize", original, *args, **kwargs)

    def _retraction(self, original, args, kwargs):
        result = self.span("csp.largecentred_retraction", original, *args, **kwargs)
        self.counts["csp.largecentred_retraction.vacuous"] += result.vacuous
        return result

    def _layers(self):
        """(module, function, hook) for every traced public function; a hook is
        a span name or a method taking (original, args, kwargs)."""
        return [
            ("algebra", "generate_subproduct", self._closure),
            ("algebra", "sg_closure", self._sg_closure),
            ("algebra", "enumerate_subuniverses", "algebra.enumerate_subuniverses"),
            ("algebra", "induced_subalgebra", "algebra.derive"),
            ("algebra", "quotient_algebra", "algebra.derive"),
            ("algebra", "product_algebra", "algebra.derive"),
            ("algebra", "power_algebra", "algebra.derive"),
            ("terms", "free_algebra", self._free_algebra),
            ("terms", "taylor_report", "terms.taylor_report"),
            ("terms", "cyclic_operations", "terms.cyclic_operations"),
            ("edges", "compute_edges", self._compute_edges),
            ("edges", "component_analysis", "edges.component_analysis"),
            ("congruences", "congruences", "congruences.congruences"),
            ("congruences", "centralizer_condition", "congruences.centralizer_condition"),
            ("congruences", "homomorphisms_between", self._homomorphisms),
            ("congruences", "unary_polynomials", "congruences.unary_polynomials"),
            ("axioms", "verify_edge_axioms", self._checks("axioms.verify_edge_axioms")),
            ("axioms", "verify_edge_theorems", self._checks("axioms.verify_edge_theorems")),
            ("absorption", "is_2_absorbing", "absorption.is_2_absorbing"),
            ("absorption", "is_3_absorbing", "absorption.is_3_absorbing"),
            ("absorption", "absorption_report", "absorption.absorption_report"),
            ("csp", "canonical_key", self._canonical_key),
            ("csp", "kl_minimize", self._kl_minimize),
            ("csp", "brute_force_solve", "csp.brute_force_solve"),
            ("csp", "largecentred_retraction", self._retraction),
            ("csp", "check_consistent_maps", "csp.check_consistent_maps"),
            ("fileio", "parse_algebras", "fileio.parse"),
            ("fileio", "parse_instance", "fileio.parse"),
            ("fileio", "emit_algebra", "fileio.emit"),
            ("fileio", "emit_algebras", "fileio.emit"),
            ("fileio", "emit_instance", "fileio.emit"),
            ("fileio", "emit_dot", "fileio.emit"),
            ("cli", "cmd_verify", "cli.verify"),
            ("cli", "cmd_analyze", "cli.analyze"),
        ]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever a library module refers to it."""
        for short in ("algebra", "terms", "edges", "congruences", "axioms",
                      "absorption", "csp", "fileio", "cli"):
            importlib.import_module("taylor_edges." + short)
        self._cap_exceeded = sys.modules["taylor_edges.errors"].CapExceeded
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "taylor_edges" or name.startswith("taylor_edges.")]
        for module, func, hook in self._layers():
            original = getattr(sys.modules["taylor_edges." + module], func)
            wrapper = self._make_wrapper(original, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._installed.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        template = sys.modules["taylor_edges.csp"].Template
        original = template.__dict__["hs_closure"]
        self._installed.append((template, "hs_closure", original))
        template.hs_closure = staticmethod(self._make_wrapper(original.__func__, self._hs_closure))

    def _make_wrapper(self, original, hook):
        if isinstance(hook, str):
            def wrapper(*args, **kwargs):
                return self.span(hook, original, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return hook(original, args, kwargs)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    def restore(self) -> None:
        """Put every original function back, in reverse order of wrapping."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of it
    that its child spans cover.  `spans` holds [name, start, end, parent]
    with parent an index into `spans` or -1."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)
