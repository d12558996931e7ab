"""Score a child's reports against the hand-written expected verdicts.

``expected/<workload>.json`` lists, per report, the expected checks: suite,
name, verdict and a subset of the check's data.  The string ``"<seed>"``
stands for the run's seed.  A check fails if it is missing, if its verdict
or any listed data differs, or if it is not expected at all; a report's
config that differs counts as one more failed check.  A child that produced
no reports (it crashed or timed out) fails every expected check.
"""
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def load_expected(workload):
    with open(EXPECTED_DIR / f"{workload}.json") as fh:
        return json.load(fh)["reports"]


def _fill_seed(value, seed):
    if value == "<seed>":
        return seed
    if isinstance(value, dict):
        return {k: _fill_seed(v, seed) for k, v in value.items()}
    if isinstance(value, list):
        return [_fill_seed(v, seed) for v in value]
    return value


def score(expected, reports, seed):
    """Return (attempted, failures) for one child.

    ``reports`` maps report name to ``{"config": ..., "checks": [...]}``
    as the child wrote it, or is None when the child produced nothing.
    ``failures`` is a list of "report:suite:name: reason" strings.
    """
    expected = _fill_seed(expected, seed)
    if reports is None:
        failures = [f"{rname}:{c['suite']}:{c['name']}: no report"
                    for rname, rep in expected.items() for c in rep["checks"]]
        failures += [f"{rname}:config: no report"
                     for rname, rep in expected.items() if "config" in rep]
        return len(failures), failures
    attempted = 0
    failures = []
    for rname in sorted(set(expected) | set(reports)):
        want = expected.get(rname)
        got = reports.get(rname)
        if want is None:
            attempted += 1
            failures.append(f"{rname}: unexpected report")
            continue
        if "config" in want:
            attempted += 1
            if got is None or got.get("config") != want["config"]:
                failures.append(f"{rname}:config: differs")
        got_checks = {}
        for c in (got or {}).get("checks", ()):
            got_checks[(c.get("suite"), c.get("name"))] = c
        want_checks = {(c["suite"], c["name"]): c for c in want["checks"]}
        for key in list(want_checks) + [k for k in got_checks
                                        if k not in want_checks]:
            attempted += 1
            label = f"{rname}:{key[0]}:{key[1]}"
            w, g = want_checks.get(key), got_checks.get(key)
            if w is None:
                failures.append(f"{label}: unexpected check")
            elif g is None:
                failures.append(f"{label}: missing")
            elif g.get("pass") is not w["pass"]:
                failures.append(f"{label}: verdict {g.get('pass')!r}")
            else:
                data = g.get("data") or {}
                for k, v in w.get("data", {}).items():
                    if data.get(k) != v:
                        failures.append(f"{label}: {k} = {data.get(k)!r}")
                        break
    return attempted, failures
