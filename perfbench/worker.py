"""Child process of the benchmark: one fresh interpreter, so caches start cold.

    worker.py setup WORKLOAD INSTANCES_JSON
        import the library and parse the inputs, then exit (the set-up probe)
    worker.py pass WORKLOAD INSTANCES_JSON RESULT_JSON TRACE
        run one pass of clone-wide or template-csp and write its timings,
        answer records and, when TRACE is 1, spans and counts
    worker.py cli SPANS_JSON ARG...
        run `taylor-edges ARG...` with the tracer installed and write its spans

Run from the root of a checkout; the library is imported from ./src.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    sys.path.insert(0, str(SRC))
    import taylor_edges

    if Path(taylor_edges.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"taylor_edges imported from {taylor_edges.__file__}, not from {SRC}")
    from taylor_edges import cli  # noqa: F401  (the whole library, as the CLI loads it)


def _tracer(trace: bool):
    if not trace:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _dump(path: str, payload: dict, tracer) -> None:
    if tracer is not None:
        tracer.restore()
        payload["spans"] = tracer.spans
        payload["counts"] = dict(tracer.counts)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def setup(workload: str, instances_path: str):
    import workloads

    if workload == "verify-cli":
        from taylor_edges.fileio import parse_algebras

        return [parse_algebras(workloads.read_input(name)) for name in workloads.CLI_INPUTS]
    if workload == "clone-wide":
        return workloads.clone_wide_setup()
    return workloads.template_csp_setup(Path(instances_path).read_text(encoding="utf-8"))


def run_pass(workload: str, instances_path: str, result_path: str, trace: bool) -> None:
    import workloads

    prepared = setup(workload, instances_path)
    tracer = _tracer(trace)  # after set-up, so spans cover exactly the timed pass
    payload: dict = {}
    if workload == "clone-wide":
        payload["requests"] = workloads.clone_wide_pass(prepared)
    else:
        template_s, template_record, requests = workloads.template_csp_pass(*prepared)
        payload.update(template_s=template_s, template_record=template_record, requests=requests)
    _dump(result_path, payload, tracer)


def run_cli(spans_path: str, argv: list[str]) -> int:
    from taylor_edges import cli

    tracer = _tracer(True)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        _dump(spans_path, {}, tracer)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import_library()
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], argv[2])
        return 0
    if mode == "pass":
        run_pass(argv[1], argv[2], argv[3], argv[4] == "1")
        return 0
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
