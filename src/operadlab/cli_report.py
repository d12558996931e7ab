"""Command-line verification driver.

Runs the named verification suite and writes a machine-readable report.
Reports are deterministic for a fixed configuration and seed: no wall-clock
data is recorded, dictionary keys are emitted in sorted order, and every
randomized check derives from the configured seed.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage error,
3 internal error (an exception raised inside a suite; the report records it
as a failed check and lists it under "errors").
"""
import argparse
import json
import re
import sys

from . import associahedra as ah
from . import coalgebra_operad as co
from . import ox_construction as ox
from . import hochschild_lab as hl
from .exact_chain import vec_acc
from .operad_core import OperadElement, corolla

SUITES = ("associahedra", "coalgebra", "bop", "obstruction",
          "hochschild", "all")

SAFE_BOUNDS = {"max_arity": (2, 6), "weight_cap": (1, 4)}


class UsageError(Exception):
    pass


def _check(checks, name, ok, **data):
    checks.append({"name": name, "pass": bool(ok),
                   "data": {k: data[k] for k in sorted(data)}})


def _suite_associahedra(max_arity, weight_cap, seed):
    checks = []
    for n in range(2, max_arity + 1):
        cx = ah.decompose(n)  # construction certifies d^2 = 0
        _check(checks, f"K{n}_contractible",
               cx.contracting_homotopy_holds()
               and cx.euler_characteristic() == 1,
               counts={str(k): v for k, v in sorted(cx.counts().items())})
    if max_arity >= 4:
        _check(checks, "K4_cell_counts",
               ah.decompose(4).counts() == {0: 11, 1: 20, 2: 10},
               expected={"0": 11, "1": 20, "2": 10})
    for k in range(3, min(max_arity, 6) + 1):
        mu = ah.fundamental_class(k)
        _check(checks, f"fundamental_class_boundary_{k}",
               ah.boundary(mu) == ah.boundary_fundamental_cycle(k))
    return checks


def _suite_coalgebra(max_arity, weight_cap, seed):
    checks = []
    op = co.build_A(min(max_arity, 5))
    for n in range(2, min(max_arity, 5) + 1):
        a = op.coalgebra(n)
        ok = True
        for fn in (a.check_coassociative, a.check_counit,
                   a.check_coderivation, a.check_counit_chain_map):
            try:
                fn()
            except co.CoalgebraError:
                ok = False
        _check(checks, f"A{n}_coalgebra_axioms", ok)
    quasi = True
    for n in range(2, max_arity + 1):
        # the certificate makes the apex a representative of H_0
        cx = ah.decompose(n)
        if not cx.contracting_homotopy_holds() \
                or co.counit_morphism(cx.apex) == 0:
            quasi = False
    _check(checks, "counit_quasi_isomorphism", quasi,
           arities=list(range(2, max_arity + 1)))
    return checks


def _suite_bop(max_arity, weight_cap, seed):
    checks = []
    el = OperadElement.from_tree
    ok_d = True
    gens = [ox.d_symbol(k) for k in range(2, 6)]
    gens += [ox.mm_symbol(k, l) for k in range(1, 5) for l in range(1, 5)
             if k + l <= 5]
    for s in gens:
        if not ox.diff(ox.diff(el(corolla(s)))).is_zero():
            ok_d = False
    _check(checks, "d_squared_zero_on_generators", ok_d,
           generators=[str(s) for s in gens])
    hb = ox.arity2_homology("B")
    _check(checks, "H_B2_dims", hb["dims"] == {0: 1, 1: 1},
           dims={str(k): v for k, v in sorted(hb["dims"].items())})
    hs = ox.arity2_homology("Binfty")
    _check(checks, "H_Binfty2_dims", hs["dims"] == {-1: 1, 0: 1},
           dims={str(k): v for k, v in sorted(hs["dims"].items())})
    hg = ox.arity2_homology("G")
    _check(checks, "H_G2_matches_B", hg["dims"] == hb["dims"])
    _check(checks, "jacobi_in_B3",
           ox.equal_in_O(ox.jacobiator(),
                         ox.jacobiator().scale(0), "B"))
    report = ox.signs_report()
    _check(checks, "sign_conventions", _signs_report_holds(report),
           report=report.splitlines())
    return checks


def _signs_report_holds(text):
    """Whether the printed sign conventions are the computed ones: the
    stated d m_(1,1) is ox.diff of that generator, and the stated
    insertion-sign exponents give associahedra.insertion_sign for
    2 <= i, j <= 6 and every slot l."""
    dm = re.search(r"d m_\(1,1\) = (-?)\(m_2\(x(\d),x(\d)\) \+ "
                   r"m_2\(x(\d),x(\d)\)\)", text)
    exponents = re.findall(
        r"\(-1\)\^\(((?:\([ijl]-\d\)\([ijl]-\d\)\+?)+)\)", text)
    if not dm or not exponents:
        return False
    sign = -1 if dm.group(1) else 1
    slots = [int(x) for x in dm.groups()[1:]]
    want = {}
    for labels in (slots[:2], slots[2:]):
        vec_acc(want, corolla(ox.d_symbol(2), labels), sign)
    got = ox.diff(OperadElement.from_tree(corolla(ox.mm_symbol(1, 1))))
    if got != OperadElement(2, want):
        return False
    for exponent in exponents:
        factors = re.findall(r"\(([ijl])-(\d)\)\(([ijl])-(\d)\)", exponent)
        for i in range(2, 7):
            for j in range(2, 7):
                for l in range(1, i + 1):
                    v = {"i": i, "j": j, "l": l}
                    e = sum((v[a] - int(b)) * (v[c] - int(d))
                            for a, b, c, d in factors)
                    if (-1) ** (e % 2) != ah.insertion_sign(i, j, l):
                        return False
    return True


def _suite_obstruction(max_arity, weight_cap, seed):
    checks = []
    hr = hl.harrison(weight_cap)
    _check(checks, "harrison_homology", hr["all_match"],
           weights={str(w): e["homology_dims"]
                    for w, e in sorted(hr["weights"].items())})
    _check(checks, "harrison_boundary_descends",
           hl.harrison_boundary_descends(min(weight_cap, 4)))
    ext = hl.extension_report(3, 3)
    _check(checks, "coderivation_certification", ext["all_ok"],
           **{k: v for k, v in ext.items() if isinstance(v, bool)})
    hc = hl.hom_commutator_report(3, 3)
    _check(checks, "hom_commutators_interior_exact", hc["all_ok"],
           functionals=hc["functionals"])
    e1 = hl.obstruction_E1(weight_cap)
    _check(checks, "E1_matches_model", e1["all_match"],
           columns={str(k): {str(s): slot["dim"]
                             for s, slot in sorted(col.items())
                             if slot["safe"]}
                    for k, col in sorted(e1["columns"].items())})
    _check(checks, "E1_interior_rows_vanish",
           all(v["cohomology"] == 0
               for v in e1["interior_row_column1"].values()))
    ba = hl.obstruction_bracket_action(weight_cap)
    _check(checks, "bracket_acts_as_de_rham", ba["all_ok"],
           cases=len(ba["cases"]))
    van = hl.obstruction_vanishing(weight_cap)
    _check(checks, "cohomology_concentrated_in_survivor",
           van["all_vanish_except_survivor"],
           weights={str(w): e["cohomology_by_column"]
                    for w, e in sorted(van["weights"].items())})
    van0 = hl.obstruction_vanishing(weight_cap, generators=0)
    _check(checks, "degenerate_case_vanishes",
           van0["all_vanish_except_survivor"])
    return checks


def _suite_hochschild(max_arity, weight_cap, seed):
    checks = []
    alg = hl.truncated_polynomial_algebra(2)
    mu = hl.multiplication_cochain(alg)
    _check(checks, "mu_brace_mu_zero", hl.brace(mu, [mu]).is_zero())
    dims = hl.hh_dimensions(alg, 4)
    got = {str(k): v for k, v in sorted(dims.items()) if v and k <= 3}
    _check(checks, "hh_dual_numbers",
           got == {"0": 2, "1": 1, "2": 1, "3": 1}, dims=got)
    try:
        hl.binfty_on_cochains(alg, max_length=4, seed=seed)
        ok = True
    except hl.HochschildError:
        ok = False
    _check(checks, "tensor_coalgebra_structure", ok, seed=seed)
    g = hl.hh_gerstenhaber_report()
    _check(checks, "gerstenhaber_on_hh", g["all_ok"], classes=g["classes"])
    sc = hl.schouten_comparison(3)
    _check(checks, "schouten_algebra_comparison", sc["all_ok"],
           **{k: v for k, v in sc.items() if isinstance(v, bool)})
    return checks


_RUNNERS = {
    "associahedra": _suite_associahedra,
    "coalgebra": _suite_coalgebra,
    "bop": _suite_bop,
    "obstruction": _suite_obstruction,
    "hochschild": _suite_hochschild,
}


def run(suite, max_arity=4, weight_cap=3, seed=0):
    """Execute a suite and return the report dict."""
    if suite not in SUITES:
        raise UsageError(f"unknown suite: {suite}")
    lo, hi = SAFE_BOUNDS["max_arity"]
    if not lo <= max_arity <= hi:
        raise UsageError(f"max_arity must be in [{lo}, {hi}]")
    lo, hi = SAFE_BOUNDS["weight_cap"]
    if not lo <= weight_cap <= hi:
        raise UsageError(f"weight_cap must be in [{lo}, {hi}]")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    checks, errors = [], []
    for name in names:
        try:
            entries = _RUNNERS[name](max_arity, weight_cap, seed)
        except Exception as exc:
            entries = []
            _check(entries, "internal_error", False,
                   type=type(exc).__name__, message=str(exc))
            errors.append(name)
        for entry in entries:
            entry["suite"] = name
            checks.append(entry)
    report = {
        "config": {"suite": suite, "max_arity": max_arity,
                   "weight_cap": weight_cap, "seed": seed},
        "checks": checks,
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
        "all_pass": all(c["pass"] for c in checks),
    }
    if errors:
        report["errors"] = errors
    return report


def export(report, fmt="json"):
    """Serialize a report; byte-stable for a fixed report."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True,
                          default=str) + "\n"
    if fmt == "text":
        lines = [f"suite: {report['config']['suite']}"]
        for c in report["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{status} {c['suite']}:{c['name']}")
        lines.append(f"passed {report['passed']} failed {report['failed']}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown format: {fmt}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="operadlab-report",
        description="Run operad verification suites and export reports.")
    parser.add_argument("--suite", required=True)
    parser.add_argument("--max-arity", type=int, default=4)
    parser.add_argument("--weight-cap", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "text"),
                        default="json")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    try:
        report = run(args.suite, max_arity=args.max_arity,
                     weight_cap=args.weight_cap, seed=args.seed)
        payload = export(report, args.format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    if "errors" in report:
        return 3
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
