"""Byte-for-byte comparison of exported reports with committed golden files.

Any refactoring must reproduce these reports exactly.  A golden file is
regenerated only when a report is meant to change, with

    PYTHONPATH=src python -c "from operadlab import cli_report as c; \
print(c.export(c.run('obstruction', weight_cap=4), 'json'), end='')" \
        > tests/golden/obstruction_w4.json

(and likewise for the other configurations below).
"""
import itertools
from pathlib import Path

import pytest

from operadlab import associahedra as ah
from operadlab import cli_report as cli
from operadlab import ox_construction as ox
from operadlab.operad_core import format_tree
from test_ox_construction import expand_corestriction

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


# ---------------------------------------------------------------------------
# corestriction table
#
# Regenerated, only when the table is meant to change, with
#
#     PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
# import test_golden_reports as g; print(g.corestriction_table(), end='')" \
#         > tests/golden/corestriction_k3.txt

def corestriction_table() -> str:
    """One sorted line per term: every rank-r corestriction of every cell
    of K(3) on single letters (r = 0..3), and the evaluated differential of
    the arity-2 and arity-3 top-cell generators, at every letter parity."""
    lines = []
    for parities in itertools.product((0, 1), repeat=3):
        tag = "".join(map(str, parities))
        for cell in ah.decompose(3).cells:
            for r in range(4):
                out = expand_corestriction(cell, (1, 1, 1), r,
                                           parities=parities)
                for word, c in out.items():
                    word = " | ".join(format_tree(x) for x in word)
                    lines.append(
                        f"phi^{r} {format_tree(cell)} p={tag} [{word}] {c}")
    for k in (2, 3):
        for parities in itertools.product((0, 1), repeat=k):
            tag = "".join(map(str, parities))
            out = ox.evaluate(ox.diff(ox.holie_gen(k)), parities)
            for expr, c in out.items():
                lines.append(f"d(holie_gen({k})) p={tag} "
                             f"{format_tree(expr)} {c}")
    return "".join(line + "\n" for line in sorted(lines))


def test_corestriction_table_matches_golden():
    got = corestriction_table().encode("utf-8")
    assert got == (GOLDEN / "corestriction_k3.txt").read_bytes()
