"""Command-line front end.

Subcommands: analyze, edges, verify, csp minimize|solve, catalog.

Exit codes: 0 all checks pass / solved; 1 counterexample or UNSAT;
2 usage or parse error; 3 a cap was exceeded and the answer has unknowns
(for verify: checks were skipped and none failed).
The environment variable TAYLOR_EDGES_CAPS may hold default cap flags
(same syntax as the command line); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from .absorption import absorption_report
from .algebra import FiniteAlgebra, validate_algebra
from .axioms import verify_edge_axioms, verify_edge_theorems
from .catalog import builtin_algebras
from .csp import Template, brute_force_solve, kl_minimize
from .edges import component_analysis, compute_edges
from .errors import CapExceeded, LimitExceeded, ParseError, TaylorEdgesError
from .fileio import (
    emit_algebra,
    emit_dot,
    emit_instance,
    parse_algebras,
    parse_instance,
    resolve_algebras,
)
from .terms import taylor_report

OK, COUNTEREXAMPLE, USAGE, CAPPED = 0, 1, 2, 3


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--arities", type=str, default=None,
                   help="comma-separated cyclic arities for edge computation")
    p.add_argument("--closure-cap", type=int, default=4096,
                   help="free-algebra / closure element cap")
    p.add_argument("--subset-cap", type=int, default=6,
                   help="subset enumeration cap for absorption reports")
    p.add_argument("--search-limit", type=int, default=10**6,
                   help="brute-force search space limit")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in JSON reports; no computation samples it")
    p.add_argument("--out", type=str, default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taylor-edges",
        description="Edge digraphs, absorption, and CSP reductions on finite idempotent algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validation, Taylor report, edges, components, absorption")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("edges", help="emit the edge graph (text, json, or dot)")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="shorthand for --format dot")
    _add_common(p)

    p = sub.add_parser("verify", help="edge axioms and theorems over the HS-closed catalog of the inputs")
    p.add_argument("files", nargs="+")
    _add_common(p)

    p = sub.add_parser("csp", help="CSP instance operations")
    p.add_argument("action", choices=("minimize", "solve"))
    p.add_argument("instance")
    p.add_argument("algebras", nargs="*", help="extra algebra files for domain resolution")
    _add_common(p)

    p = sub.add_parser("catalog", help="emit the built-in algebras")
    _add_common(p)
    return parser


def _arity_tuple(args) -> tuple[int, ...] | None:
    if args.arities is None:
        return None
    try:
        arities = tuple(int(x) for x in args.arities.split(","))
    except ValueError:
        raise ParseError(f"bad --arities value {args.arities!r}")
    if any(a < 2 for a in arities):
        raise ParseError("--arities entries must be >= 2")
    return arities


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _edge_payload(alg: FiniteAlgebra, graph) -> dict:
    asm = component_analysis(graph, "asm")
    s = component_analysis(graph, "s")
    return {
        "algebra": alg.name,
        "as": sorted(graph.proper("as")),
        "sm": sorted(graph.proper("sm")),
        "s": sorted(graph.proper("s")),
        "unknown": sorted(graph.unknown),
        "asm_components": [list(c) for c in asm.components],
        "asm_min": sorted(asm.x_min),
        "s_min": sorted(s.x_min),
        "asm_weakly_connected": asm.is_weakly_connected(),
    }


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = []

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}." if prefix else f"{key}.", value[key])
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for v in value:
                rendered = "  ".join(f"{k}={v[k]}" for k in v)
                lines.append(f"{prefix[:-1]}: {rendered}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", payload)
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    alg = parse_algebras(_read(args.file))[0]
    capped = False
    payload: dict = {"algebra": alg.name, "size": alg.size, "seed": args.seed}
    report = validate_algebra(alg)
    payload["valid"] = report.ok
    payload["validation_errors"] = list(
        report.table_length_errors + report.range_errors
    ) + [f"{sym}: not idempotent at {w}" for sym, w in report.idempotency_failures]
    if not report.ok:
        _write_out(args, _render(payload, args.format))
        return COUNTEREXAMPLE
    tr = taylor_report(alg, cap=args.closure_cap)
    payload["has_taylor"] = tr.has_taylor
    payload["taylor_witness_arity"] = tr.witness_arity
    payload["minimal_taylor_bounded"] = tr.minimal_taylor_bounded
    capped |= tr.has_taylor is None
    if tr.has_taylor:
        graph = compute_edges(alg, _arity_tuple(args), cap=args.closure_cap)
        payload["edges"] = _edge_payload(alg, graph)
        capped |= bool(graph.unknown)
        if alg.size <= args.subset_cap:
            rep = absorption_report(alg, subset_cap=args.subset_cap, cap=args.closure_cap,
                                    graph=graph)
            payload["two_absorbing"] = [sorted(r.subset) for r in rep.subsets if r.two_absorbing]
            payload["three_absorbing"] = [sorted(r.subset) for r in rep.subsets if r.three_absorbing]
            payload["absorption_equivalence_audit"] = rep.equivalence_audited
        else:
            payload["absorption"] = f"skipped (size above subset cap {args.subset_cap})"
            capped = True
    _write_out(args, _render(payload, args.format))
    return CAPPED if capped else OK


def cmd_edges(args) -> int:
    alg = parse_algebras(_read(args.file))[0]
    graph = compute_edges(alg, _arity_tuple(args), cap=args.closure_cap)
    fmt = "dot" if args.dot else args.format
    if fmt == "dot":
        _write_out(args, emit_dot(graph))
    else:
        _write_out(args, _render(_edge_payload(alg, graph), fmt))
    return CAPPED if graph.unknown else OK


def cmd_verify(args) -> int:
    seeds = []
    for path in args.files:
        seeds.extend(parse_algebras(_read(path)))
    groups: dict[tuple, list[FiniteAlgebra]] = {}
    for s in seeds:
        groups.setdefault(s.signature, []).append(s)
    checks = []
    coverage: dict[str, int] = {}  # AxiomReport.coverage summed over every report
    passed = True  # every check passed; skipped ones make this False
    failed = False
    arities = _arity_tuple(args)
    for group in groups.values():
        template = Template.hs_closure(group, size_cap=max(a.size for a in group))
        catalog = list(template.members)
        graphs = {alg: compute_edges(alg, arities, cap=args.closure_cap) for alg in catalog}
        reports = [verify_edge_axioms(catalog, graphs, cap=args.closure_cap)] + [
            verify_edge_theorems(alg, graphs[alg], subset_cap=args.subset_cap,
                                 cap=args.closure_cap)
            for alg in catalog
        ]
        for rep in reports:
            passed &= rep.passed
            failed |= bool(rep.failures)
            checks.extend(
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in rep.checks
            )
            for key, count in rep.coverage:
                coverage[key] = coverage.get(key, 0) + count
    payload = {
        "seed": args.seed,
        "algebras": sorted(a.name for a in seeds),
        "passed": passed,
        "checks": checks,
        "coverage": coverage,
    }
    _write_out(args, _render(payload, args.format))
    if failed:
        return COUNTEREXAMPLE
    return OK if passed else CAPPED


def cmd_csp(args) -> int:
    algebras = resolve_algebras([_read(p) for p in args.algebras])
    instance = parse_instance(_read(args.instance), algebras)
    if args.action == "minimize":
        refined, status = kl_minimize(instance)
        _write_out(args, emit_instance(refined))
        return OK if status == "sat" else COUNTEREXAMPLE
    result = brute_force_solve(instance, limit=args.search_limit, first_only=True)
    if result.satisfiable:
        sol = result.solutions[0]
        text = "".join(
            f"{v} = {x}\n" for v, x in zip(instance.variables, sol)
        )
        _write_out(args, text)
        return OK
    _write_out(args, "UNSAT\n")
    return COUNTEREXAMPLE


def cmd_catalog(args) -> int:
    algs = builtin_algebras()
    text = "\n".join(emit_algebra(a).rstrip("\n") for a in algs.values()) + "\n"
    _write_out(args, text)
    return OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    env = os.environ.get("TAYLOR_EDGES_CAPS", "")
    if env and argv:
        # env caps act as defaults: insert after the subcommand so explicit
        # flags (parsed later) win
        argv = argv[:1] + shlex.split(env) + argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "edges":
            return cmd_edges(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "csp":
            return cmd_csp(args)
        if args.command == "catalog":
            return cmd_catalog(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (CapExceeded, LimitExceeded) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return CAPPED
    except TaylorEdgesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COUNTEREXAMPLE
    return USAGE


if __name__ == "__main__":
    sys.exit(main())
