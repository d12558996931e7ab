"""Tests for the command-line verification driver."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from operadlab import associahedra as ah
from operadlab import cli_report as cli
from operadlab.exact_chain import Complex


def test_run_unknown_suite():
    with pytest.raises(cli.UsageError):
        cli.run("nope")


def test_run_unsafe_parameters():
    with pytest.raises(cli.UsageError):
        cli.run("associahedra", weight_cap=9)
    with pytest.raises(cli.UsageError):
        cli.run("associahedra", max_arity=1)


def test_json_round_trip_and_text_lines():
    report = cli.run("hochschild", seed=3)
    payload = cli.export(report, "json")
    assert json.loads(payload) == json.loads(cli.export(report, "json"))
    text = cli.export(report, "text")
    lines = [l for l in text.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(report["checks"])
    with pytest.raises(cli.UsageError):
        cli.export(report, "xml")


def test_cell_suites_certify_contractibility_once_per_arity(monkeypatch):
    arities = range(2, 6)
    for n in arities:  # forget what earlier tests computed
        monkeypatch.setattr(ah.decompose(n), "_contractible", None)
    ranks, certified = [], []
    rank_by_degree = Complex.rank_by_degree
    holds = ah.CellComplex.contracting_homotopy_holds

    def counted_ranks(self):
        ranks.append(self)
        return rank_by_degree(self)

    def counted_certificate(self):
        if self._contractible is None:
            certified.append(self.n)
        return holds(self)

    monkeypatch.setattr(Complex, "rank_by_degree", counted_ranks)
    monkeypatch.setattr(ah.CellComplex, "contracting_homotopy_holds",
                        counted_certificate)
    assert cli.run("associahedra", max_arity=5)["all_pass"]
    assert cli.run("coalgebra", max_arity=5)["all_pass"]
    assert ranks == []
    assert certified == list(arities)


def test_determinism_same_seed():
    a = cli.export(cli.run("hochschild", seed=7), "json")
    b = cli.export(cli.run("hochschild", seed=7), "json")
    assert a == b


def test_main_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    assert cli.main(["--suite", "associahedra", "--max-arity", "4",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_pass"] is True
    assert cli.main(["--suite", "nope"]) == 2
    assert cli.main(["--suite", "associahedra", "--weight-cap", "9"]) == 2
    assert cli.main(["--bogus-flag"]) == 2
    # a failing check must yield exit status 1
    monkeypatch.setitem(
        cli._RUNNERS, "associahedra",
        lambda *a: [{"name": "forced", "pass": False, "data": {}}])
    assert cli.main(["--suite", "associahedra",
                     "--out", str(tmp_path / "f.json")]) == 1


def test_main_internal_error_is_not_a_failed_check(tmp_path, monkeypatch):
    clean = cli.run("associahedra")
    assert "errors" not in clean

    def boom(*args):
        raise ZeroDivisionError("forced internal error")

    monkeypatch.setitem(cli._RUNNERS, "associahedra", boom)
    out = tmp_path / "e.json"
    assert cli.main(["--suite", "associahedra", "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["errors"] == ["associahedra"]
    assert report["all_pass"] is False and report["failed"] == 1
    assert report["checks"] == [{
        "name": "internal_error", "pass": False, "suite": "associahedra",
        "data": {"message": "forced internal error",
                 "type": "ZeroDivisionError"}}]
    # a usage error keeps its own status
    assert cli.main(["--suite", "associahedra", "--weight-cap", "9"]) == 2


def test_cli_subprocess_byte_identical(tmp_path):
    # Two fresh interpreters with different string-hash seeds, run from a
    # directory outside the repository, must print the same bytes. The
    # absolute package root leads PYTHONPATH so that the children import
    # this checkout whether or not operadlab is installed.
    root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", "operadlab.cli_report",
           "--suite", "hochschild", "--seed", "5", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, cwd=tmp_path,
                       env=dict(env, PYTHONHASHSEED="1"))
    b = subprocess.run(cmd, capture_output=True, cwd=tmp_path,
                       env=dict(env, PYTHONHASHSEED="2"))
    assert a.returncode == 0 and b.returncode == 0, "\n".join(
        f"child exited with status {p.returncode}:\n"
        f"{p.stderr.decode(errors='replace')}"
        for p in (a, b) if p.returncode != 0)
    assert a.stdout == b.stdout
    # The children printed the report this process computes, so an installed
    # copy of operadlab that shadows this checkout in the child shows here.
    expected = cli.export(cli.run("hochschild", seed=5), "json")
    assert a.stdout == expected.encode()


@pytest.mark.parametrize("wrong", ["insertion_sign", "printed_d_m11"])
def test_sign_conventions_check_fails_on_a_wrong_sign(monkeypatch, wrong):
    if wrong == "insertion_sign":
        # the bare position factor (-1)^((l-1)(j-1)), without the Koszul
        # correction the report states
        monkeypatch.setattr(cli.ah, "insertion_sign",
                            lambda i, j, l: -1 if (l - 1) * (j - 1) % 2 else 1)
    else:
        text = cli.ox.signs_report().replace("= -(m_2", "= (m_2")
        monkeypatch.setattr(cli.ox, "signs_report", lambda: text)
    checks = {c["name"]: c for c in cli._suite_bop(4, 3, 0)}
    assert checks["sign_conventions"]["pass"] is False
    assert all(c["pass"] for name, c in checks.items()
               if name != "sign_conventions")
