"""Cold-process verdict benchmark for operadlab.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 40 --trace 0

Every measured run of a workload happens in a fresh interpreter (child.py),
because operadlab keeps module-global memo tables and a warm process would
measure a different program.  The loop is closed with one caller: one child
at a time, the next started only after the previous one has exited.

A run first starts ``SETUP_PROBES`` children that only import operadlab,
then as many workload children as fit in ``--seconds``, judged from the
first child's duration (at least one).  With ``--trace 1`` every round is an
untraced child followed by a traced one; the traced child records spans at
the layer boundaries (tracing.py).

The metrics are the children's own figures.  As context only, a run also
times a fixed pure-Python reference loop REF_LOOPS times at its start and
end and prints the mean, so that a slow host can be told from a slow
program.

Every child's reports are checked against the hand-written verdicts in
``expected/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A per-layer metric of a layer the workload never enters prints as n/a
and reads 0 in the JSON.
Lines before it give each metric with its sample count, the failed share,
and the sha256 of every exported report.

Exit status: 0 with a result; 2 without one, when operadlab cannot be set
up or the arguments are wrong.
"""
import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import verdicts
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

SETUP_PROBES = 20
RUN_LIMIT_S = 170.0   # a run must end within 180 s
POLL_S = 0.01
REF_LOOPS = 4         # reference loops at the start and at the end

END_TO_END = (
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "ratio"),
)


class SetupError(Exception):
    """operadlab could not be imported by a child."""


# ---------------------------------------------------------------------------
# children

def _read_ready(proc, deadline):
    """Time at which the child printed its ready line, or None."""
    left = deadline - time.perf_counter()
    if left <= 0:
        return None
    readable, _, _ = select.select([proc.stdout], [], [], left)
    if not readable:
        return None
    line = proc.stdout.readline()
    return time.perf_counter() if line == b"ready\n" else None


def _wait(proc, deadline):
    """Reap the child, killing it at the deadline; (status, rusage, killed)."""
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            killed = True
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, killed


def run_child(argv, deadline):
    """Run one child to its end; return what the parent measured."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        ready = _read_ready(proc, deadline)
        # a child that never got ready has exited or is stuck importing
        reap_by = deadline if ready else min(deadline,
                                             time.perf_counter() + 5.0)
        code, usage, killed = _wait(proc, reap_by)
    finally:
        proc.stdout.close()
        if proc.returncode is None:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    return {
        "setup_s": None if ready is None else ready - start,
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": code,
        "timed_out": killed,
    }


def run_workload_child(workload, seed, traced, index, deadline,
                       child=CHILD):
    """One workload child; adds its result file (or None) as "result"."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-{index}"
    out = OUT / f"result-{tag}.json"
    spans = OUT / f"spans-{workload}-seed{seed}.csv" if traced else None
    if out.exists():
        out.unlink()
    run_id = f"{tag}-{'traced' if traced else 'plain'}"
    argv = [sys.executable, str(child), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)),
            "--out", str(out), "--run-id", run_id]
    if spans:
        argv += ["--spans", str(spans)]
    meas = run_child(argv, deadline)
    meas["traced"] = traced
    meas["result"] = None
    if meas["setup_s"] is None:
        raise SetupError(f"child {run_id} exited with status "
                         f"{meas['returncode']} before operadlab was ready")
    if meas["returncode"] == 0 and not meas["timed_out"] and out.exists():
        with open(out) as fh:
            meas["result"] = json.load(fh)
        out.unlink()
    return meas


def setup_probe(workload, deadline, child=CHILD):
    argv = [sys.executable, str(child), "--workload", workload, "--seed", "0",
            "--setup-only"]
    meas = run_child(argv, deadline)
    if meas["setup_s"] is None or meas["returncode"] != 0:
        raise SetupError(f"set-up probe exited with status "
                         f"{meas['returncode']}")
    return meas["setup_s"]


def reference_loop():
    """Fixed interpreter work of the kind operadlab does: exact rational
    elimination on sparse dict rows with tuple keys."""
    n = 36
    pivots = {}
    for i in range(n):
        vec = {(j, "x"): Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
               for j in range(n) if (i * j + i + j) % 3}
        while True:
            hit = min((k for k in vec if k in pivots), default=None)
            if hit is None:
                break
            c = vec[hit]
            for k, a in pivots[hit].items():
                vec[k] = vec.get(k, Fraction(0)) - c * a
            vec = {k: a for k, a in vec.items() if a}
        if vec:
            p = min(vec)
            inv = 1 / vec[p]
            pivots[p] = {k: a * inv for k, a in vec.items()}
    return len(pivots)


def time_reference(out):
    """Append REF_LOOPS timings of reference_loop to out."""
    for _ in range(REF_LOOPS):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)


def measure(workload, seed, seconds, trace, child=CHILD):
    """Run set-up probes and workload children, with reference loops at the
    start and at the end; returns (setups, children, ref timings)."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    refs = []
    time_reference(refs)
    setups = [setup_probe(workload, deadline, child)
              for _ in range(SETUP_PROBES)]
    modes = (False, True) if trace else (False,)
    children = []
    rounds = 1
    done = 0
    while done < rounds:
        t0 = time.perf_counter()
        for traced in modes:
            children.append(run_workload_child(
                workload, seed, traced, len(children), deadline, child))
        done += 1
        if done == 1:
            # as many whole rounds as fit the measuring time, so that a run
            # never takes much longer than --seconds or one round
            per_round = time.perf_counter() - t0
            rounds = max(1, int(seconds // per_round))
        if time.perf_counter() + 1.5 * per_round > deadline:
            break
    time_reference(refs)
    return setups, children, refs


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def score_children(workload, seed, children):
    """(attempted, failures, notes) over all children of one run."""
    expected = verdicts.load_expected(workload)
    attempted, failures, notes = 0, [], []
    for i, ch in enumerate(children):
        reports = ch["result"]["reports"] if ch["result"] else None
        if reports is None:
            notes.append(f"child {i} crashed or timed out "
                         f"(status {ch['returncode']})")
        a, f = verdicts.score(expected, reports, seed)
        attempted += a
        failures += f
    return attempted, failures, notes


def report_hashes(children):
    """{report name: set of sha256} over the children that finished."""
    out = {}
    for ch in children:
        if ch["result"]:
            for name, rep in ch["result"]["reports"].items():
                out.setdefault(name, set()).add(rep["sha256"])
    return out


def end_to_end(setups, children, attempted, failed):
    """{metric: samples} for the end-to-end metrics of one run."""
    plain = [c for c in children if not c["traced"]]
    verdict = [c["result"]["verdict_s"] if c["result"]
               else c["wall_s"] - c["setup_s"] for c in plain]
    return {
        "verdict_s": verdict,
        "setup_s": setups + [c["setup_s"] for c in children],
        "cpu_s": [c["cpu_s"] for c in plain],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "passed_share": [1.0 - failed / attempted],
    }


# (metric, unit, kind, span or layer name); kinds: layer self time, span
# self time, span calls, and the derived ratios and sizes handled below.
PER_LAYER = (
    ("operad_core.self_s", "s", "layer", "operad_core"),
    ("operad_core.element_add.self_s", "s", "self", "operad_core.element_add"),
    ("operad_core.element_add.calls", "count", "calls",
     "operad_core.element_add"),
    ("operad_core.replace_vertex.self_s", "s", "self",
     "operad_core.replace_vertex"),
    ("operad_core.replace_vertex.calls", "count", "calls",
     "operad_core.replace_vertex"),
    ("operad_core.free_differential.self_s", "s", "self",
     "operad_core.free_differential"),
    ("operad_core.free_differential.calls", "count", "calls",
     "operad_core.free_differential"),
    ("operad_core.graft.self_s", "s", "self", "operad_core.graft"),
    ("operad_core.graft.calls", "count", "calls", "operad_core.graft"),
    ("operad_core.map_trees.self_s", "s", "self", "operad_core.map_trees"),
    ("exact_chain.self_s", "s", "layer", "exact_chain"),
    ("exact_chain.echelon_add.self_s", "s", "self", "exact_chain.echelon_add"),
    ("exact_chain.echelon_add.calls", "count", "calls",
     "exact_chain.echelon_add"),
    ("exact_chain.echelon_add.useful_ratio", "ratio", "useful_ratio",
     "exact_chain.echelon_add"),
    ("exact_chain.complex_check.self_s", "s", "self",
     "exact_chain.complex_check"),
    ("exact_chain.homology_dims.self_s", "s", "self",
     "exact_chain.homology_dims"),
    ("exact_chain.kernel_basis.self_s", "s", "self",
     "exact_chain.kernel_basis"),
    ("exact_chain.kernel_basis.calls", "count", "calls",
     "exact_chain.kernel_basis"),
    ("exact_chain.homology.self_s", "s", "self", "exact_chain.homology"),
    ("associahedra.self_s", "s", "layer", "associahedra"),
    ("associahedra.decompose.self_s", "s", "self", "associahedra.decompose"),
    ("associahedra.decompose.calls", "count", "calls",
     "associahedra.decompose"),
    ("associahedra.boundary.calls", "count", "calls", "associahedra.boundary"),
    ("associahedra.cells", "count", "cells", "associahedra.decompose"),
    ("coalgebra_operad.self_s", "s", "layer", "coalgebra_operad"),
    ("coalgebra_operad.delta_cell.self_s", "s", "self",
     "coalgebra_operad.delta_cell"),
    ("coalgebra_operad.delta_cell.calls", "count", "calls",
     "coalgebra_operad.delta_cell"),
    ("coalgebra_operad.axiom_checks.self_s", "s", "self",
     "coalgebra_operad.axiom_checks"),
    ("ox_construction.self_s", "s", "layer", "ox_construction"),
    ("ox_construction.phi_rank.self_s", "s", "self",
     "ox_construction.phi_rank"),
    ("ox_construction.phi_rank.calls", "count", "calls",
     "ox_construction.phi_rank"),
    ("ox_construction.t_chi.self_s", "s", "self", "ox_construction.t_chi"),
    ("ox_construction.shuffle_many.self_s", "s", "self",
     "ox_construction.shuffle_many"),
    ("ox_construction.check_coproduct_rule.calls", "count", "calls",
     "ox_construction.check_coproduct_rule"),
    ("ox_construction.check_differential_rule.self_s", "s", "self",
     "ox_construction.check_differential_rule"),
    ("hochschild_lab.self_s", "s", "layer", "hochschild_lab"),
    ("hochschild_lab.p_basis.self_s", "s", "self", "hochschild_lab.p_basis"),
    ("hochschild_lab.p_basis.calls", "count", "calls",
     "hochschild_lab.p_basis"),
    ("hochschild_lab.p_basis.size", "count", "basis_size",
     "hochschild_lab.p_basis"),
    ("hochschild_lab.p_basis.calls_per_truncation", "ratio",
     "calls_per_truncation", "hochschild_lab.p_basis"),
    ("hochschild_lab.dual_model.self_s", "s", "self",
     "hochschild_lab.dual_model"),
    ("hochschild_lab.hom_differential.self_s", "s", "self",
     "hochschild_lab.hom_differential"),
    ("hochschild_lab.hom_differential.calls", "count", "calls",
     "hochschild_lab.hom_differential"),
    ("hochschild_lab.e1_representative.self_s", "s", "self",
     "hochschild_lab.e1_representative"),
    ("hochschild_lab.harrison.self_s", "s", "self", "hochschild_lab.harrison"),
    ("hochschild_lab.cochains.self_s", "s", "self", "hochschild_lab.cochains"),
    ("cli_report.self_s", "s", "layer", "cli_report"),
    ("cli_report.export.self_s", "s", "self", "cli_report.export"),
    ("trace.unspanned_s", "s", "unspanned", None),
    ("trace.overhead_ratio", "ratio", "overhead", None),
)


def layer_value(summary, kind, name):
    """One per-layer value from a traced child's summary; None for n/a."""
    spans, counts = summary["spans"], summary["counts"]
    if kind == "unspanned":
        return summary["unspanned_s"]
    layer = name.split(".", 1)[0]
    if layer not in summary["layers"]:
        return None          # the layer was not entered
    if kind == "layer":
        return summary["layers"][layer]
    span = spans.get(name, {"calls": 0, "self_s": 0.0})
    if kind == "self":
        return span["self_s"]
    if kind == "calls":
        return span["calls"]
    if kind == "cells":
        return sum(counts.get("associahedra.cells_by_arity", {}).values())
    if not span["calls"]:
        return None
    if kind == "useful_ratio":
        return counts.get("exact_chain.echelon_add.useful", 0) / span["calls"]
    by_trunc = counts.get("hochschild_lab.p_basis_by_truncation", {})
    if kind == "basis_size":
        return sum(by_trunc.values())
    if kind == "calls_per_truncation":
        return span["calls"] / len(by_trunc)
    raise ValueError(f"unknown per-layer kind {kind}")


def per_layer(children):
    """{metric: (median value or None, unit, sample count)}."""
    plain = [c["result"]["verdict_s"] for c in children
             if not c["traced"] and c["result"]]
    traced = [c["result"] for c in children if c["traced"] and c["result"]]
    out = {}
    for metric, unit, kind, name in PER_LAYER:
        if kind == "overhead":
            values = ([_median([r["verdict_s"] for r in traced])
                       / _median(plain)] if traced and plain else [])
        else:
            values = [layer_value(r["trace"], kind, name) for r in traced]
            values = [v for v in values if v is not None]
        value = _median(values)
        if unit == "count" and value is not None and value == int(value):
            value = int(value)
        out[metric] = (value, unit, len(values))
    return out


def exact_counts(result):
    """The per-layer calls and size metrics of one traced child."""
    return {metric: layer_value(result["trace"], kind, name)
            for metric, unit, kind, name in PER_LAYER
            if unit == "count"}


# ---------------------------------------------------------------------------
# command line

def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def build_result(workload, seed, trace, setups, children, refs):
    """Score and summarize one run; returns (result dict, text lines)."""
    attempted, failures, notes = score_children(workload, seed, children)
    lines = [f"workload {workload} seed {seed} trace {trace}: "
             f"{len(children)} workload children, {len(setups)} set-up "
             f"probes, one child at a time"]
    # run-level checks, made when two children can be compared: one seed
    # gives byte-identical reports, traced or not, and identical per-layer
    # counts
    hashes = report_hashes(children)
    if len(children) > 1:
        attempted += 1
        if any(len(v) > 1 for v in hashes.values()):
            failures.append("exported reports differ between children")
    traced = [c["result"] for c in children if c["traced"] and c["result"]]
    if sum(c["traced"] for c in children) > 1:
        attempted += 1
        if len({json.dumps(exact_counts(r), sort_keys=True)
                for r in traced}) > 1:
            failures.append("per-layer counts differ between traced children")
    failed = len(failures)
    metrics = {}
    if trace:
        for metric, (value, unit, n) in per_layer(children).items():
            metrics[metric] = {"value": 0 if value is None else value,
                               "unit": unit}
            lines.append(f"  {metric:48s} {_fmt(value):>12s} {unit}"
                         f"  (median of {n})")
    else:
        lines.append(f"  reference loop mean {statistics.fmean(refs):.6g} s "
                     f"over {len(refs)} loops (host speed, not a metric)")
        samples = end_to_end(setups, children, attempted, failed)
        for metric, unit in END_TO_END:
            vals = samples[metric]
            q1, q3 = _quartiles(vals)
            metrics[metric] = {"value": _median(vals), "unit": unit}
            lines.append(f"  {metric:14s} {_fmt(_median(vals)):>12s} {unit}"
                         f"  (median of {len(vals)}; quartiles "
                         f"{_fmt(q1)} .. {_fmt(q3)}; samples "
                         f"{' '.join(_fmt(v) for v in vals)})")
    lines.append(f"  failed_share {failed}/{attempted} = "
                 f"{failed / attempted:.6g}")
    for name, digests in sorted(hashes.items()):
        lines.append(f"  report {name} sha256 {' '.join(sorted(digests))}")
    lines += [f"  note: {n}" for n in notes]
    lines += [f"  FAILED {f}" for f in failures]
    result = {"correct": failed == 0 and bool(children),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Cold-process verdict benchmark for operadlab.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setups, children, refs = measure(args.workload, args.seed,
                                         args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, lines = build_result(args.workload, args.seed, args.trace,
                                 setups, children, refs)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
