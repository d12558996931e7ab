"""Tests of the benchmark itself: verdict scoring, tracing and isolation.

Run with ``python3 -m pytest perfbench/tests``.  They use the small
``smoke_*`` workloads, so each child takes well under a second.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing
import verdicts
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SEED = 5


def _matching_reports(workload, seed):
    """Reports that agree with the expected verdicts check by check."""
    out = {}
    for name, rep in verdicts.load_expected(workload).items():
        rep = json.loads(json.dumps(rep).replace('"<seed>"', str(seed)))
        out[name] = {"config": rep.get("config"), "checks": rep["checks"]}
    return out


def _fake_child(tmp_path, body):
    """A child script: ready line, --setup-only exit, then `body`."""
    script = tmp_path / "child.py"
    script.write_text(
        "import json, sys\n"
        "sys.stdout.write('ready\\n'); sys.stdout.flush()\n"
        "if '--setup-only' in sys.argv: sys.exit(0)\n"
        "out = sys.argv[sys.argv.index('--out') + 1]\n" + body)
    return script


def _run(workload, trace, child=bench.CHILD, seed=SEED):
    setups, children, refs = bench.measure(workload, seed, 0, trace, child)
    return bench.build_result(workload, seed, trace, setups, children, refs)


# -- verdicts ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_expected_verdicts_score_clean(workload):
    expected = verdicts.load_expected(workload)
    attempted, failures = verdicts.score(
        expected, _matching_reports(workload, SEED), SEED)
    assert failures == []
    assert attempted == sum(len(r["checks"]) + ("config" in r)
                            for r in expected.values())


def test_expected_verdicts_pin_the_named_answers():
    cells = _matching_reports("cells", SEED)["associahedra"]["checks"]
    k4 = {c["name"]: c for c in cells}["K4_cell_counts"]
    assert k4["data"]["expected"] == {"0": 11, "1": 20, "2": 10}
    bop = {c["name"]: c for c in
           _matching_reports("corestriction", SEED)["bop"]["checks"]}
    assert bop["H_B2_dims"]["data"]["dims"] == {"0": 1, "1": 1}
    gg = _matching_reports("corestriction", SEED)["Gg_and_tri"]["checks"]
    assert [(c["data"]["arity"], c["data"]["coproduct_rule"],
             c["data"]["differential_rule"]) for c in gg] == [
        (2, True, True), (3, True, True), (4, True, True)]
    allc = {c["name"]: c for c in
            _matching_reports("readme_all", SEED)["all"]["checks"]}
    assert allc["hh_dual_numbers"]["data"]["dims"] == {
        "0": 2, "1": 1, "2": 1, "3": 1}
    for workload in ("cells", "corestriction", "readme_all"):
        for rep in verdicts.load_expected(workload).values():
            assert all(c["pass"] is True for c in rep["checks"])


def test_doctored_report_is_a_failure():
    reports = _matching_reports("smoke_cells", SEED)
    checks = {c["name"]: c for c in reports["associahedra"]["checks"]}
    checks["K4_cell_counts"]["data"] = {"expected": {"0": 11, "1": 20,
                                                     "2": 11}}
    checks["fundamental_class_boundary_3"]["pass"] = False
    reports["coalgebra"]["config"]["seed"] = SEED + 1
    reports["coalgebra"]["checks"].append(
        {"suite": "coalgebra", "name": "surprise", "pass": True})
    attempted, failures = verdicts.score(
        verdicts.load_expected("smoke_cells"), reports, SEED)
    assert len(failures) == 4
    assert attempted == 12


def test_doctored_report_from_a_child_counts_in_failed_share(tmp_path):
    reports = _matching_reports("smoke_cells", SEED)
    reports["associahedra"]["checks"][3]["pass"] = False
    for rep in reports.values():
        rep["sha256"] = "0" * 64
    child = _fake_child(tmp_path, (
        f"json.dump({{'run_id': '', 'verdict_s': 0.5, "
        f"'reports': {reports!r}}}, open(out, 'w'))\n"))
    result, lines = _run("smoke_cells", 0, child)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["passed_share"]["value"] < 1.0
    assert any("FAILED" in line for line in lines)


def test_reports_that_differ_between_children_are_a_failure(tmp_path):
    reports = _matching_reports("smoke_cells", SEED)
    child = _fake_child(tmp_path, (
        f"reports = {reports!r}\n"
        "trace = sys.argv[sys.argv.index('--trace') + 1]\n"
        "for rep in reports.values():\n"
        "    rep['sha256'] = trace * 64\n"
        "json.dump({'run_id': '', 'verdict_s': 0.5, 'reports': reports,\n"
        "           'trace': {'spans': {}, 'layers': {}, 'counts': {},\n"
        "                     'unspanned_s': 0.5, 'span_count': 0}},\n"
        "          open(out, 'w'))\n"))
    result, lines = _run("smoke_cells", 1, child)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any("reports differ" in line for line in lines)


def test_child_that_raises_fails_every_expected_check(tmp_path):
    child = _fake_child(tmp_path, "raise RuntimeError('injected')\n")
    result, lines = _run("smoke_cells", 0, child)
    expected = verdicts.load_expected("smoke_cells")
    per_child = sum(len(r["checks"]) + ("config" in r)
                    for r in expected.values())
    assert result["correct"] is False
    assert result["failed"] == per_child
    # one child: no run-level check between children is attempted
    assert result["attempted"] == per_child
    assert result["metrics"]["passed_share"]["value"] == 0.0


def test_time_metrics_are_the_childrens_own_figures(tmp_path):
    reports = _matching_reports("smoke_cells", SEED)
    for rep in reports.values():
        rep["sha256"] = "0" * 64
    child = _fake_child(tmp_path, (
        f"json.dump({{'run_id': '', 'verdict_s': 0.5, "
        f"'reports': {reports!r}}}, open(out, 'w'))\n"))
    setups, children, refs = bench.measure("smoke_cells", SEED, 0, 0, child)
    slow = [10 * r for r in refs]     # the reference loop is context only
    result, _ = bench.build_result("smoke_cells", SEED, 0, setups, children,
                                   slow)
    metrics = result["metrics"]
    assert metrics["verdict_s"]["value"] == 0.5
    assert metrics["setup_s"]["value"] == bench._median(
        setups + [c["setup_s"] for c in children])
    assert metrics["cpu_s"]["value"] == children[0]["cpu_s"]
    assert metrics["peak_rss_mb"]["value"] == children[0]["peak_rss_mb"]


def test_no_operadlab_means_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "smoke_cells",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tracing ------------------------------------------------------------------

def test_alias_bindings_are_wrapped_and_counted():
    import operadlab.cli_report  # noqa: F401  (loads every layer)
    from operadlab import (associahedra, coalgebra_operad, operad_core,
                           ox_construction)
    orig_graft, orig_delta = operad_core.graft, coalgebra_operad.delta_cell
    orig_add = operad_core.OperadElement.__dict__["add"]
    tr = tracing.Tracer("alias-test")
    tr.install()
    try:
        assert operad_core.graft is not orig_graft
        for mod in (associahedra, coalgebra_operad, ox_construction):
            assert mod.graft is operad_core.graft
        assert ox_construction.delta_cell is coalgebra_operad.delta_cell
        assert ox_construction.counit_morphism is \
            coalgebra_operad.counit_morphism
        cell = associahedra.point_cell(2)
        ox_construction.delta_cell(cell)
        e = operad_core.OperadElement.from_tree(cell)
        associahedra.graft(e, e, 1)
    finally:
        tr.uninstall()
    assert operad_core.graft is orig_graft
    assert associahedra.graft is orig_graft
    assert ox_construction.delta_cell is orig_delta
    assert operad_core.OperadElement.__dict__["add"] is orig_add
    spans = tr.summary(0.0)["spans"]
    assert spans["coalgebra_operad.delta_cell"]["calls"] == 1
    assert spans["operad_core.graft"]["calls"] == 1


def test_every_boundary_is_bound():
    import importlib
    import operadlab.cli_report  # noqa: F401
    tr = tracing.Tracer("bound-test")
    tr.install()
    try:
        for name, module, path in tracing.BOUNDARIES:
            obj = importlib.import_module("operadlab." + module)
            for part in path.split("."):
                obj = getattr(obj, part)
            assert hasattr(obj, "__wrapped__"), (name, path)
    finally:
        tr.uninstall()


def test_self_time_bookkeeping_with_a_fake_clock():
    ticks = iter(range(100))
    tr = tracing.Tracer("clock-test", clock=lambda: next(ticks))
    inner = tr.wrap("b.inner", lambda: None)
    outer = tr.wrap("a.outer", lambda: (inner(), inner()))
    outer()                       # outer 0..5, inners 1..2 and 3..4
    s = tr.summary(verdict_s=8.0)
    assert s["spans"]["a.outer"] == {"calls": 1, "total_s": 5, "self_s": 3}
    assert s["spans"]["b.inner"] == {"calls": 2, "total_s": 2, "self_s": 2}
    assert s["layers"] == {"a": 3, "b": 2}
    assert s["unspanned_s"] == 3.0
    parents = {sid: parent for sid, parent, *_ in tr.spans}
    assert parents == {0: -1, 1: 0, 2: 0}


def test_layer_self_times_plus_unspanned_equal_verdict():
    result, _ = _run("smoke_bop", 1)
    assert result["correct"] is True
    setups, children, refs = bench.measure("smoke_cells", SEED, 0, 1)
    traced = [c["result"] for c in children if c["traced"]]
    assert traced
    for r in traced:
        s = r["trace"]
        assert sum(s["layers"].values()) + s["unspanned_s"] == \
            pytest.approx(r["verdict_s"], rel=1e-9, abs=1e-9)
        assert s["span_count"] > 0


def test_spans_are_written_out():
    bench.measure("smoke_bop", SEED, 0, 1)
    path = bench.OUT / f"spans-smoke_bop-seed{SEED}.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "run_id,span,parent,name,start_s,end_s"
    run_id, sid, parent, name, start, end = lines[1].split(",")
    assert run_id.endswith("-traced") and float(end) >= float(start)


# -- cold-process isolation and exact counts --------------------------------

def _counts_and_hashes(workload):
    setups, children, refs = bench.measure(workload, SEED, 0, 1)
    traced = [c["result"] for c in children if c["traced"]]
    assert len(traced) == 1
    return (bench.exact_counts(traced[0]),
            {n: r["sha256"] for n, r in traced[0]["reports"].items()})


def test_counts_repeat_exactly_and_ignore_workload_order():
    first = {w: _counts_and_hashes(w) for w in ("smoke_cells", "smoke_bop")}
    second = {w: _counts_and_hashes(w) for w in ("smoke_bop", "smoke_cells")}
    assert first == second
    counts = first["smoke_cells"][0]
    assert counts["operad_core.element_add.calls"] > 0
    assert counts["associahedra.cells"] == 1 + 5 + 41   # K2, K3, K4


def test_traced_and_untraced_reports_are_byte_identical():
    setups, children, refs = bench.measure("smoke_bop", SEED, 0, 1)
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    assert plain and traced
    digests = bench.report_hashes(children)
    assert digests and all(len(v) == 1 for v in digests.values())


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, u) for m, u, _, _ in bench.PER_LAYER]
    for w in spec["workloads"]:
        assert w["name"] in WORKLOADS
        verdicts.load_expected(w["name"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
