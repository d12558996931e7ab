"""One cold run of one workload, in a fresh interpreter.

Started by run.py, one at a time.  The child imports operadlab from the
``src`` directory beside this benchmark, writes ``ready`` on standard output
(the parent's set-up clock stops there), then runs the workload, optionally
with span tracing at the layer boundaries, and writes its result as JSON to
``--out``.  With ``--setup-only`` it exits after ``ready``.

Exit status: 0 done, 3 operadlab cannot be imported from ``src``.  Any
other failure is an uncaught exception (status 1), which the parent counts
as every expected check failed.
"""
import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_operadlab():
    sys.path.insert(0, str(SRC))
    try:
        import operadlab.cli_report  # imports every layer
    except ImportError as exc:
        return f"cannot import operadlab from {SRC}: {exc}"
    where = Path(operadlab.__file__).resolve()
    if SRC not in where.parents:
        return f"operadlab was imported from {where}, not from {SRC}"
    return None


def _exported(report, payload):
    if payload is None:
        from operadlab import cli_report
        payload = cli_report.export(report, "json")
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    error = _import_operadlab()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0
    sys.stdout = sys.stderr  # stdout carries only the ready line

    import tracing
    import workloads
    tracer = tracing.Tracer(args.run_id)
    if args.trace:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outputs = workloads.WORKLOADS[args.workload](args.seed)
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()

    verdict_s = t1 - t0
    reports = {}
    for name, report, payload in outputs:
        text = _exported(report, payload)
        reports[name] = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "config": report.get("config"),
            "checks": report["checks"],
        }
    result = {"run_id": args.run_id, "verdict_s": verdict_s,
              "reports": reports}
    if args.trace:
        result["trace"] = tracer.summary(verdict_s)
        if args.spans:
            tracer.write_spans(args.spans, t0)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, default=str)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
