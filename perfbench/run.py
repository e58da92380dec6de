"""The repository benchmark: time to a verdict, and how many verdicts are left undecided.

    python3 perfbench/run.py --workload verify-cli|clone-wide|template-csp|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The library is imported from ./src and
nothing under src/ is changed.  Scratch files go to .bench_build/perfbench.

Load model: a closed loop with one client.  Each request starts after the
previous one returns and at most one child process runs at a time.  Every
pass runs in fresh interpreters, so the library's caches start cold, as they
do for a user of the command line.  Child processes get the caller's
environment without TAYLOR_EDGES_CAPS.

Workloads (why each was chosen is in BENCHMARK.json):
  verify-cli    `taylor-edges verify|analyze --format json` on pinned algebra
                files, one interpreter per request
  clone-wide    free algebras, centralizers and unary polynomials with
                budgets lifted, in one interpreter
  template-csp  Template.hs_closure, then seeded planted CSP instances
                through kl_minimize, brute_force_solve and
                largecentred_retraction, one at a time

A run makes as many whole passes as fit in --seconds, and always at least one.
With --trace 0 it prints the end-to-end metrics: medians over passes,
per-request percentiles over every request of every pass, and set-up time as
the median of several set-up probes.  With --trace 1 it makes one untraced and
one traced pass and prints the per-layer metrics, the tracing overhead and the
self-time ranking of the layers.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

A request fails when it crashes, times out, exits 2, or disagrees with a
reference answer computed by the benchmark's own code.  The run exits 1
without a result when the checkout has no library or an input's checksum
differs from inputs/SHA256SUMS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKER = HERE / "worker.py"
ANSWERS = HERE / "answers.json"
sys.path.insert(0, str(HERE))

import csp_gen  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

WORKLOADS = ("verify-cli", "clone-wide", "template-csp")
SETUP_PROBES = 7
RUN_DEADLINE_S = 170.0

# End-to-end metrics (name -> unit), each reported on every workload.
# request_p50/p90 are over every request of the run: CLI invocations,
# library calls or CSP instances.  Undecided and failed requests are reported
# as the complementary shares decided_share and ok_share, so no metric is 0
# and a relative bound on it means something; the table row also prints
# undecided_share and failed_share.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "decided_share": "ratio",
    "ok_share": "ratio",
}

# Per-layer metrics, one group per library module.
SELF_TIMES = [
    "algebra.closure_narrow", "algebra.closure_wide", "algebra.sg_closure",
    "algebra.enumerate_subuniverses", "algebra.derive",
    "terms.free_algebra", "terms.taylor_report", "terms.cyclic_operations",
    "edges.compute_edges", "edges.component_analysis",
    "congruences.congruences", "congruences.centralizer_condition",
    "congruences.homomorphisms_between", "congruences.unary_polynomials",
    "axioms.verify_edge_axioms", "axioms.verify_edge_theorems",
    "absorption.is_2_absorbing", "absorption.is_3_absorbing", "absorption.absorption_report",
    "csp.canonical_key", "csp.hs_closure", "csp.kl_minimize", "csp.brute_force_solve",
    "csp.largecentred_retraction", "csp.check_consistent_maps",
    "fileio.parse", "fileio.emit",
]
# Inclusive span time: hs_closure's total is the template build time.
TOTAL_TIMES = ["csp.hs_closure"]
CLI_SELF_TIMES = {"cli.verify": "cli.verify_s", "cli.analyze": "cli.analyze_s"}
COUNTS = [
    "algebra.closure_narrow.calls", "algebra.closure_narrow.rows",
    "algebra.closure_wide.calls", "algebra.closure_wide.rows",
    "algebra.closure.cap_hits", "algebra.sg_closure.calls",
    "terms.free_algebra.calls", "terms.free_algebra.elements", "terms.free_algebra.incomplete",
    "edges.compute_edges.calls", "edges.compute_edges.pairs", "edges.compute_edges.unknown_pairs",
    "congruences.homomorphisms_between.homs",
    "axioms.checks_pass", "axioms.checks_fail", "axioms.checks_skipped",
    "csp.canonical_key.calls", "csp.hs_closure.members", "csp.kl_minimize.calls",
    "csp.largecentred_retraction.vacuous",
]
RATIOS = {  # name -> (numerator count, denominator count)
    "algebra.sg_closure.repeat_ratio": ("algebra.sg_closure.repeats", "algebra.sg_closure.calls"),
    "csp.canonical_key.repeat_ratio": ("csp.canonical_key.repeats", "csp.canonical_key.calls"),
}
# The layer that should hold the largest self time on each workload.
DOMINANT = {
    "verify-cli": "algebra.closure_narrow",
    "clone-wide": "algebra.closure_wide",
    "template-csp": "csp.kl_minimize",
}


class Failure(Exception):
    """The benchmark cannot run here; exit 1 without a result."""


# ---------------------------------------------------------------------------
# environment and inputs


def check_checkout() -> None:
    if not (SRC / "taylor_edges" / "__init__.py").is_file():
        raise Failure(f"no library at {SRC / 'taylor_edges'}")
    sums = workloads.INPUTS / "SHA256SUMS"
    if not sums.is_file():
        raise Failure(f"missing {sums}")
    for line in sums.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        path = workloads.INPUTS / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            raise Failure(f"pinned input {name} is missing or differs from its checksum")


def commit_hash() -> str:
    """HEAD of the checkout; git does not look above the checkout's root."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"env: cores={cores} python={platform.python_version()} numpy={numpy_version} "
            f"commit={commit_hash()}")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TAYLOR_EDGES_CAPS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts children one at a time, each bounded by the run's deadline, and
    keeps the largest resident set any of them reached."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = child_env()
        self.peak_rss_kb = 0

    def run(self, argv: list[str], cwd: Path = ROOT):
        """(exit code or None on timeout, stdout, seconds)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return None, "", 0.0
        out_path, err_path = self.scratch / "child.out", self.scratch / "child.err"
        killed = threading.Event()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                # wait4, unlike Popen.wait, reports this child's own peak memory
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        err_text = err_path.read_text(encoding="utf-8", errors="replace")
        if proc.returncode not in (0, 1, 3) or "Traceback" in err_text:
            sys.stderr.write(err_text[-2000:])
        if killed.is_set():
            return None, "", elapsed
        return proc.returncode, out_path.read_text(encoding="utf-8"), elapsed

    def worker(self, *args: str):
        return self.run([sys.executable, str(WORKER), *args])


def setup_seconds(runner: Runner, workload: str, instances: Path) -> float:
    """Median wall time of fresh interpreters that import the library and
    parse the workload's inputs.  One unmeasured probe first, so that every
    measured probe finds the compiled bytecode the first one wrote."""
    times = []
    for i in range(SETUP_PROBES + 1):
        code, _, elapsed = runner.worker("setup", workload, str(instances))
        if code != 0:
            raise Failure(f"set-up probe for {workload} exited {code}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def cli_pass(runner: Runner, trace: bool) -> dict:
    requests = []
    spans, counts = [], {}
    for i, (label, argv) in enumerate(workloads.CLI_REQUESTS):
        args = argv + ["--format", "json"]
        if trace:
            spans_file = runner.scratch / f"cli_spans_{i}.json"
            cmd = [sys.executable, str(WORKER), "cli", str(spans_file)] + args
        else:
            cmd = [sys.executable, "-m", "taylor_edges.cli"] + args
        code, out, elapsed = runner.run(cmd, cwd=workloads.INPUTS)
        record = workloads.cli_record(label, argv, code, out)
        requests.append({"ms": elapsed * 1000, "record": record})
        if trace and code is not None and spans_file.is_file():
            traced = json.loads(spans_file.read_text(encoding="utf-8"))
            spans.append(traced["spans"])
            for k, v in traced["counts"].items():
                counts[k] = counts.get(k, 0) + v
    wall = sum(r["ms"] for r in requests) / 1000
    return {"wall_s": wall, "requests": requests, "span_sets": spans, "counts": counts}


def worker_pass(runner: Runner, workload: str, instances: Path, trace: bool) -> dict:
    result_file = runner.scratch / f"pass_{workload}_{int(trace)}.json"
    result_file.unlink(missing_ok=True)
    code, _, elapsed = runner.worker("pass", workload, str(instances), str(result_file),
                                     str(int(trace)))
    if code != 0 or not result_file.is_file():
        record = {"request": f"{workload} pass", "failed": True, "decisions": 1, "undecided": 0,
                  "reason": f"worker exited {code}"}
        return {"wall_s": elapsed, "requests": [{"ms": elapsed * 1000, "record": record}],
                "span_sets": [], "counts": {}}
    result = json.loads(result_file.read_text(encoding="utf-8"))
    requests = result["requests"]
    wall = sum(r["ms"] for r in requests) / 1000
    if workload == "template-csp":
        wall += result["template_s"]
        requests = [{"ms": result["template_s"] * 1000, "record": result["template_record"],
                     "template": True}] + requests
    return {"wall_s": wall, "requests": requests,
            "span_sets": [result["spans"]] if trace else [], "counts": result.get("counts", {})}


def one_pass(runner: Runner, workload: str, instances: Path, trace: bool) -> dict:
    if workload == "verify-cli":
        return cli_pass(runner, trace)
    return worker_pass(runner, workload, instances, trace)


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10), interpolated as
    statistics.quantiles does with the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def answer_summary(passes: list[dict]) -> dict:
    records = [r["record"] for p in passes for r in p["requests"]]
    attempted = len(records)
    failed = sum(1 for r in records if r.get("failed"))
    decisions = sum(r["decisions"] for r in records)
    undecided = sum(r["undecided"] for r in records)
    return {"records": records, "attempted": attempted, "failed": failed,
            "decisions": decisions, "undecided": undecided}


def end_to_end(passes: list[dict], setup_s: float, peak_rss_kb: int) -> tuple[dict, dict]:
    answers = answer_summary(passes)
    latencies = [r["ms"] for p in passes for r in p["requests"] if not r.get("template")]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "request_p50_ms": percentile(latencies, 50),
        "request_p90_ms": percentile(latencies, 90),
        "decided_share": 1 - answers["undecided"] / answers["decisions"],
        "ok_share": 1 - answers["failed"] / answers["attempted"],
    }
    info = {"passes": len(passes), "samples": len(latencies), **answers}
    return metrics, info


def per_layer(traced: dict, untraced: dict) -> dict:
    selfs: dict[str, float] = {}
    totals: dict[str, float] = {}
    for spans in traced["span_sets"]:
        for name, value in self_times(spans).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, start, end, _parent in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
    counts = traced["counts"]
    metrics = {f"{name}.self_s": selfs.get(name, 0.0) for name in SELF_TIMES}
    metrics.update({label: selfs.get(name, 0.0) for name, label in CLI_SELF_TIMES.items()})
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    metrics.update({f"{name}.total_s": totals.get(name, 0.0) for name in TOTAL_TIMES})
    metrics["trace.traced_wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics["trace.outside_layers_s"] = traced["wall_s"] - sum(selfs.values())
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# reporting


def is_instance(workload: str, record: dict) -> bool:
    """A seeded template-csp instance, whose record changes with the seed."""
    return workload == "template-csp" and record["request"] != workloads.TEMPLATE_REQUEST


def pinned_differences(workload: str, records: list[dict]) -> list[str]:
    """Requests whose answer record differs from the one pinned in ANSWERS.
    A difference is reported, not counted as a failure: only the reference
    answers decide failure, so a change that decides more is not refused.
    ANSWERS is committed data: a change that alters a record updates it by
    hand, and the decided_share bound catches one that decides less."""
    pinned = json.loads(ANSWERS.read_text(encoding="utf-8")).get(workload, {})
    latest = {r["request"]: r for r in records}
    return [label for label, record in pinned.items() if latest.get(label) != record]


def print_records(workload: str, info: dict) -> None:
    print(f"answers {workload}: attempted={info['attempted']} failed={info['failed']} "
          f"decisions={info['decisions']} undecided={info['undecided']}")
    records = info["records"]
    shown = [r for r in records if not is_instance(workload, r) or r.get("failed")]
    for record in {r["request"]: r for r in shown}.values():
        print("  " + json.dumps(record, sort_keys=True))
    if workload == "template-csp":
        inst = [r for r in records if is_instance(workload, r)]
        print(f"  instances={len(inst)} sat={sum(r.get('status') == 'sat' for r in inst)} "
              f"solutions={sum(r.get('solutions', 0) for r in inst)} "
              f"vacuous_retractions={sum(bool(r.get('vacuous')) for r in inst)}")
    changed = pinned_differences(workload, records)
    print(f"  answer records vs {ANSWERS.name}: " + (
        "all match" if not changed else "CHANGED for " + "; ".join(changed)))


def table_row(workload: str, metrics: dict, info: dict) -> str:
    cells = [f"{name}={value:.6g} {END_TO_END[name]}" for name, value in metrics.items()]
    cells += [f"failed_share={info['failed'] / info['attempted']:.6g} ratio",
              f"undecided_share={info['undecided'] / info['decisions']:.6g} ratio "
              f"({info['undecided']}/{info['decisions']})",
              f"passes={info['passes']}", f"latency_samples={info['samples']}"]
    return f"{workload:13s} " + "  ".join(cells)


def print_layers(workload: str, metrics: dict) -> None:
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {unit_of(name)}")
    ranked = sorted(((metrics[f"{n}.self_s"], n) for n in SELF_TIMES), reverse=True)
    total = sum(v for v, _ in ranked) or 1.0
    print(f"  self-time ranking on {workload}: " + ", ".join(
        f"{n} {v / total:.1%}" for v, n in ranked[:5]))
    top = ranked[0][1]
    verdict = "holds" if top == DOMINANT[workload] else f"does NOT hold (top is {top})"
    print(f"  expected dominant layer {DOMINANT[workload]}: {verdict}")
    print(f"  tracing overhead on {workload}: {metrics['trace.overhead_s']:.3f} s "
          f"(traced pass {metrics['trace.traced_wall_s']:.3f} s)")


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """Returns (metrics, answer info, table row or None)."""
    scratch = SCRATCH / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(scratch)
        instances = scratch / "instances.json"
        generated = []
        if workload == "template-csp":
            generated = csp_gen.generate(seed, workloads.INSTANCES_PER_PASS, parse_domains())
        instances.write_text(csp_gen.dumps(generated), encoding="utf-8")

        if trace:
            untraced = one_pass(runner, workload, instances, False)
            traced = one_pass(runner, workload, instances, True)
            info = answer_summary([untraced, traced])
            if answer_summary([untraced])["records"] != answer_summary([traced])["records"]:
                info["failed"] += 1
                print(f"{workload}: traced and untraced answer records differ")
            metrics = per_layer(traced, untraced)
            print_records(workload, info)
            print_layers(workload, metrics)
            return metrics, info, None

        setup_s = setup_seconds(runner, workload, instances)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(one_pass(runner, workload, instances, False))
            spent = time.perf_counter() - start
            per_pass = spent / len(passes)
            if spent + per_pass > seconds or time.perf_counter() + 1.5 * per_pass > runner.deadline:
                break
        metrics, info = end_to_end(passes, setup_s, runner.peak_rss_kb)
        print_records(workload, info)
        return metrics, info, table_row(workload, metrics, info)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def parse_domains():
    """The pinned template domains, which the generator closes relations over."""
    sys.path.insert(0, str(SRC))
    from taylor_edges.fileio import parse_algebras

    return parse_algebras(workloads.read_input("template_domains.alg"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        check_checkout()
        print(environment())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics: dict = {}
        rows = []
        attempted = failed = 0
        for name in names:
            m, info, row = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = "" if len(names) == 1 else name + "/"
            metrics.update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in m.items()})
            attempted += info["attempted"]
            failed += info["failed"]
            rows.append(row)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for row in filter(None, rows):
        print(row)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
