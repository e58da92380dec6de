"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import csp_gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_times_subtract_covered_child_time():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],   # nested in a
        ["a", 5.0, 6.0, 0],
        ["c", 5.5, 9.0, 0],   # overlaps the second a
        ["other", 20.0, 21.0, -1],
    ]
    got = self_times(spans)
    assert got["root"] == 10.0 - 3.0 - 4.0  # children cover [1,4] and [5,9]
    assert got["a"] == (3.0 - 1.0) + 1.0
    assert got["b"] == 1.0
    assert got["c"] == 3.5
    assert got["other"] == 1.0


def _library_bindings():
    bindings = {}
    for name, module in sys.modules.items():
        if name == "taylor_edges" or name.startswith("taylor_edges."):
            bindings.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    template = sys.modules["taylor_edges.csp"].Template
    bindings[("Template", "hs_closure")] = template.__dict__["hs_closure"]
    return bindings


def test_tracer_restores_every_wrapped_function():
    from taylor_edges.catalog import a1

    tracer = Tracer()
    tracer.install()  # imports every layer module first
    tracer.restore()
    before = _library_bindings()
    tracer.install()
    try:
        from taylor_edges import edges

        graph = edges.compute_edges(a1())
        assert graph.unknown == frozenset()
        assert any(name == "edges.compute_edges" for name, *_ in tracer.spans)
        assert tracer.counts["edges.compute_edges.pairs"] == 12
    finally:
        tracer.restore()
    after = _library_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_installed_after_clone_wide_setup_sees_its_calls():
    wanted = ("free_algebra a1 k=4", "C(1,1) a1", "unary_polynomials a1_x_majority2")
    requests = [r for r in workloads.clone_wide_setup() if r[0] in wanted]
    tracer = Tracer()
    tracer.install()  # after set-up, as in a traced pass
    try:
        out = workloads.clone_wide_pass(requests)
    finally:
        tracer.restore()
    assert len(out) == 3 and not any(r["record"].get("failed") for r in out)
    names = {name for name, *_ in tracer.spans}
    assert {"terms.free_algebra", "congruences.centralizer_condition",
            "congruences.unary_polynomials"} <= names
    assert tracer.counts["terms.free_algebra.calls"] >= 1
    assert tracer.counts["terms.free_algebra.elements"] >= workloads.FREE_SIZES["a1"]


def test_traced_and_untraced_cli_records_agree(tmp_path):
    env = run.child_env()
    for label, argv in workloads.CLI_REQUESTS:
        if argv[1] not in ("catalog.alg", "a1.alg"):
            continue
        args = argv + ["--format", "json"]
        plain = subprocess.run([sys.executable, "-m", "taylor_edges.cli"] + args,
                               cwd=workloads.INPUTS, env=env, capture_output=True, text=True)
        spans = tmp_path / "spans.json"
        traced = subprocess.run([sys.executable, str(run.WORKER), "cli", str(spans)] + args,
                                cwd=workloads.INPUTS, env=env, capture_output=True, text=True)
        a = workloads.cli_record(label, argv, plain.returncode, plain.stdout)
        b = workloads.cli_record(label, argv, traced.returncode, traced.stdout)
        assert a == b and not a.get("failed")
        assert spans.is_file()


def test_traced_and_untraced_template_records_agree(tmp_path):
    domains = run.parse_domains()
    instances = tmp_path / "instances.json"
    instances.write_text(csp_gen.dumps(csp_gen.generate(7, 2, domains)))
    runner = run.Runner(tmp_path)
    plain = run.worker_pass(runner, "template-csp", instances, False)
    traced = run.worker_pass(runner, "template-csp", instances, True)
    records = [r["record"] for r in plain["requests"]]
    assert records == [r["record"] for r in traced["requests"]]
    assert len(records) == 3 and not any(r.get("failed") for r in records)
    assert traced["span_sets"] and not plain["span_sets"]


def test_generator_is_determined_by_its_seed():
    domains = run.parse_domains()
    first = csp_gen.dumps(csp_gen.generate(11, 4, domains))
    assert first == csp_gen.dumps(csp_gen.generate(11, 4, domains))
    assert first != csp_gen.dumps(csp_gen.generate(12, 4, domains))


def test_generated_instances_contain_their_planted_solution():
    domains = run.parse_domains()
    for inst in csp_gen.generate(3, 3, domains):
        sizes = [domains[k].size for k in inst["domains"]]
        assert tuple(inst["planted"]) in csp_gen.solve_all(sizes, inst["constraints"])
        assert len(inst["constraints"]) == csp_gen.N_CONSTRAINTS


def test_benchmark_json_names_the_metrics_the_run_prints():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    empty = {"span_sets": [], "counts": {}, "wall_s": 1.0}
    layers = run.per_layer(empty, empty)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in layers}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_runner_kills_a_child_at_the_deadline(tmp_path):
    runner = run.Runner(tmp_path)
    code, out, _ = runner.run([sys.executable, "-c", "print('hi')"])
    assert (code, out) == (0, "hi\n") and runner.peak_rss_kb > 0
    runner.deadline = run.time.perf_counter() + 0.5
    code, out, elapsed = runner.run([sys.executable, "-c", "import time; time.sleep(30)"])
    assert code is None and out == "" and elapsed < 10
