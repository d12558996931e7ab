"""Byte-for-byte comparison of exported reports with committed golden files.

Any refactoring must reproduce these reports exactly.  A golden file is
regenerated only when a report is meant to change, with

    PYTHONPATH=src python -c "from operadlab import cli_report as c; \
print(c.export(c.run('obstruction', weight_cap=4), 'json'), end='')" \
        > tests/golden/obstruction_w4.json

(and likewise for the other configurations below).
"""
from pathlib import Path

import pytest

from operadlab import cli_report as cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "all_a4_w3_s0.json": ("all", {"max_arity": 4, "weight_cap": 3,
                                  "seed": 0}),
    "obstruction_w4.json": ("obstruction", {"weight_cap": 4}),
    "associahedra_a6.json": ("associahedra", {"max_arity": 6}),
    "coalgebra_a6.json": ("coalgebra", {"max_arity": 6}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    suite, config = CASES[name]
    got = cli.export(cli.run(suite, **config), "json").encode("utf-8")
    assert got == (GOLDEN / name).read_bytes()
