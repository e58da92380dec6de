"""The three workloads: their requests, answer records and reference answers.

An answer record is the part of a request's answer that shows how much it
decided: exit code, pass/fail/skipped counts, unknown pairs, sizes.  Each
record carries `decisions` (verdicts attempted) and `undecided` (unknown edge
pairs, skipped checks, report sections skipped at a cap, results with
complete=False), so a faster run that decides less shows as a lower
decided_share.  `failed` is set when a request crashed, timed out, exited 2 or
disagreed with a reference answer computed independently of the library.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from pathlib import Path

from csp_gen import flat_index, solve_all

INPUTS = Path(__file__).resolve().parent / "inputs"

# verify-cli: one fresh `taylor-edges` interpreter per request.
CLI_REQUESTS = [
    ("verify catalog", ["verify", "catalog.alg"]),
    ("verify z2top x majority2", ["verify", "z2top_x_majority2.alg"]),
    ("verify z2minority x majority2", ["verify", "z2minority_x_majority2.alg"]),
    ("analyze a1", ["analyze", "a1.alg"]),
    ("analyze a1 x majority2", ["analyze", "a1_x_majority2.alg"]),
    ("analyze z2top^2 {2..8}", ["analyze", "z2top2_sub7.alg"]),
]
CLI_INPUTS = sorted({argv[1] for _, argv in CLI_REQUESTS})

# The paper's example algebra A1 (acceptance criterion 2): s = sm = {x -> 0},
# and `as` adds every edge inside {1,2,3}.
A1_S = sorted([x, 0] for x in (1, 2, 3))
A1_AS = sorted(A1_S + [[i, j] for i in (1, 2, 3) for j in (1, 2, 3) if i != j])

# clone-wide: budgets lifted so every closure runs to completion.
LIFTED = {"cap": 10**6, "work_cap": None}
FREE_SIZES = {"a1_x_majority2_sg03": 206, "z2top": 121, "a1": 112}

# template-csp
TEMPLATE_SEEDS = ["z2minority", "majority2", "a1", "z2top.alg", "z2top2_sub7.alg"]
TEMPLATE_SIZE_CAP = 7
TEMPLATE_MEMBERS = 24
INSTANCES_PER_PASS = 120
TEMPLATE_REQUEST = "hs_closure"
SOLVE_LIMIT = 4**14


def read_input(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# verify-cli answers, classified from the JSON payload


def cli_record(label: str, argv: list[str], exit_code: int | None, stdout: str) -> dict:
    """Answer record of one CLI request from its exit code and JSON payload."""
    record = {"request": label, "exit": exit_code, "decisions": 1, "undecided": 0}
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if exit_code is None or exit_code == 2 or not isinstance(payload, dict):
        record.update(failed=True, reason="crashed, timed out or exited 2")
        return record
    if argv[0] == "verify":
        statuses = [c["status"] for c in payload["checks"]]
        counts = {s: statuses.count(s) for s in ("pass", "fail", "skipped")}
        record.update(counts, decisions=len(statuses), undecided=counts["skipped"])
        if argv[1] == "catalog.alg" and (exit_code != 0 or counts["pass"] != len(statuses)):
            record.update(failed=True, reason="built-in catalog must pass every check")
    else:
        n = payload["size"]
        edges = payload.get("edges")
        unknown = len(edges["unknown"]) if edges else n * (n - 1)
        skipped_sections = int("absorption" in payload)
        record.update(
            size=n,
            has_taylor=payload.get("has_taylor"),
            unknown_pairs=unknown,
            edges={k: len(edges[k]) for k in ("as", "sm", "s")} if edges else None,
            skipped_sections=skipped_sections,
            decisions=n * (n - 1) + 2,
            undecided=unknown + skipped_sections + (payload.get("has_taylor") is None),
        )
        if argv[1] == "a1.alg" and not (
            edges and edges["s"] == A1_S and edges["sm"] == A1_S and edges["as"] == A1_AS
        ):
            record.update(failed=True, reason="a1 edges differ from the paper's example")
    return record


# ---------------------------------------------------------------------------
# clone-wide


def clone_wide_setup():
    """Parse the inputs; returns the requests as (label, thunk, checker).

    The thunks look the library functions up on their modules when they run,
    so a tracer installed after set-up still sees every call.  (The package
    re-exports the function `congruences`, which hides the module of that name
    from `from taylor_edges import ...`.)"""
    congruences = importlib.import_module("taylor_edges.congruences")
    terms = importlib.import_module("taylor_edges.terms")
    from taylor_edges.algebra import Partition
    from taylor_edges.catalog import a1
    from taylor_edges.fileio import parse_algebras

    alg = {name: parse_algebras(read_input(name + ".alg"))[0] for name in (
        "a1_x_majority2_sg03", "z2top", "z2minority_x_majority2",
        "z2top_x_majority2", "z2top2_sub7", "a1_x_majority2")}
    alg["a1"] = a1()

    def free(name, k):
        def run():
            f = terms.free_algebra(alg[name], k, **LIFTED)
            return {"elements": len(f.elements), "complete": f.complete}

        def check(r):
            return r["complete"] and r["elements"] == FREE_SIZES[name]
        return (f"free_algebra {name} k={k}", run, check)

    def centralizer(name, expected):
        def run():
            one = Partition.one(alg[name].size)
            holds = congruences.centralizer_condition(alg[name], one, one)
            return {"holds": holds, "complete": True}
        check = None if expected is None else (lambda r: r["holds"] == expected)
        return (f"C(1,1) {name}", run, check)

    def polynomials(name):
        def run():
            return {"polynomials": len(congruences.unary_polynomials(alg[name])), "complete": True}
        return (f"unary_polynomials {name}", run, None)

    return [
        free("a1_x_majority2_sg03", 5),
        free("z2top", 5),
        free("a1", 4),
        centralizer("a1", False),
        centralizer("z2minority_x_majority2", None),
        polynomials("z2top_x_majority2"),
        polynomials("z2top2_sub7"),
        polynomials("a1_x_majority2"),
    ]


def clone_wide_pass(requests) -> list[dict]:
    out = []
    for label, run, check in requests:
        start = time.perf_counter()
        answer = run()
        ms = (time.perf_counter() - start) * 1000
        record = {"request": label, **answer, "decisions": 1,
                  "undecided": int(not answer["complete"])}
        if check is not None and not check(answer):
            record.update(failed=True, reason="differs from the reference answer")
        out.append({"ms": ms, "record": record})
    return out


# ---------------------------------------------------------------------------
# template-csp


def template_csp_setup(instances_json: str):
    """Parse the domains and the generated instances and build `Instance`s."""
    from taylor_edges.catalog import builtin_algebras
    from taylor_edges.csp import Instance
    from taylor_edges.fileio import parse_algebras

    builtins = builtin_algebras()
    seeds = [builtins[s] if s in builtins else parse_algebras(read_input(s))[0]
             for s in TEMPLATE_SEEDS]
    domains = parse_algebras(read_input("template_domains.alg"))
    data = json.loads(instances_json)
    instances = []
    for d in data:
        names = [f"v{i}" for i in range(len(d["domains"]))]
        instances.append(Instance.make(
            d["name"],
            [(v, domains[k]) for v, k in zip(names, d["domains"])],
            [([names[i] for i in scope], {tuple(t) for t in tuples})
             for scope, tuples in d["constraints"]],
        ))
    return seeds, domains, data, instances


def template_csp_pass(seeds, domains, data, instances):
    """hs_closure once, then each instance in turn; returns (template seconds,
    template record, per-instance [{"ms", "record"}])."""
    from taylor_edges.csp import Template, brute_force_solve, kl_minimize, largecentred_retraction

    start = time.perf_counter()
    template = Template.hs_closure(seeds, size_cap=TEMPLATE_SIZE_CAP)
    template_s = time.perf_counter() - start
    template_record = template_check(template.members, domains)

    out = []
    for d, inst in zip(data, instances):
        start = time.perf_counter()
        minimized, status = kl_minimize(inst)
        solved = brute_force_solve(inst, limit=SOLVE_LIMIT)
        retraction = largecentred_retraction(inst, solve_limit=SOLVE_LIMIT)
        ms = (time.perf_counter() - start) * 1000
        record = instance_check(d, inst, minimized, status, solved, retraction)
        out.append({"ms": ms, "record": record})
    return template_s, template_record, out


def _isomorphic(a, b) -> bool:
    if a.size != b.size or a.signature != b.signature:
        return False
    n = a.size
    for perm in itertools.permutations(range(n)):
        if all(
            op_b.table[flat_index([perm[x] for x in args], n)]
            == perm[op_a.table[flat_index(args, n)]]
            for op_a, op_b in zip(a.ops, b.ops)
            for args in itertools.product(range(n), repeat=op_a.arity)
        ):
            return True
    return False


def template_check(members, domains) -> dict:
    """The HS closure must have 24 members, and its members of size 2-4 must
    match the pinned domains one-to-one up to isomorphism."""
    small = [m for m in members if 2 <= m.size <= 4]
    unmatched = list(small)
    for d in domains:
        hit = next((m for m in unmatched if _isomorphic(d, m)), None)
        if hit is None:
            break
        unmatched.remove(hit)
    ok = len(members) == TEMPLATE_MEMBERS and not unmatched and len(small) == len(domains)
    record = {"request": TEMPLATE_REQUEST, "members": len(members),
              "sizes": sorted(m.size for m in members), "decisions": 1, "undecided": 0}
    if not ok:
        record.update(failed=True, reason="HS closure differs from the pinned template")
    return record


def instance_check(d, inst, minimized, status, solved, retraction) -> dict:
    """Reference answers for one planted instance, by the benchmark's own
    backtracking solver: the same solution set before and after kl_minimize,
    equal to brute_force_solve's, and containing the planted solution; the
    retraction's maps send every constraint tuple back into its relation."""
    order = {v: i for i, v in enumerate(inst.variables)}
    sizes = [inst.domain(v).size for v in inst.variables]
    before = solve_all(sizes, d["constraints"])
    after = solve_all(sizes, [([order[v] for v in c.scope], c.tuples)
                              for c in minimized.constraints])
    maps = dict(retraction.maps.maps)
    consistent = all(
        tuple(maps[v][x] for v, x in zip(c.scope, t)) in c.tuples
        for c in inst.constraints for t in c.tuples
    )
    record = {"request": d["name"], "status": status, "solutions": len(before),
              "vacuous": retraction.vacuous, "decisions": 3, "undecided": 0}
    if not (
        tuple(d["planted"]) in before
        and after == before
        and set(solved.solutions) == before
        and status == "sat"
        and consistent
    ):
        record.update(failed=True, reason="differs from the reference solver")
    return record
