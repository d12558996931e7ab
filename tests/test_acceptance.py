"""Acceptance gate: the eleven headline verification criteria.

Each test prints one pass/fail line; run with `pytest -v` for the
per-criterion status lines.
"""
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from operadlab import associahedra as ah
from operadlab import coalgebra_operad as co
from operadlab import ox_construction as ox
from operadlab import hochschild_lab as hl
from operadlab import cli_report as cli
from operadlab.operad_core import OperadElement, corolla
from test_operad_core import shift_operad

el = OperadElement.from_tree


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_associahedra():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 7):
        cx = ah.decompose(n)  # construction certifies d^2 = 0
        dims = cx.homology_dims()
        ok &= cx.euler_characteristic() == 1
        ok &= dims.get(0) == 1 and all(v == 0 for k, v in dims.items()
                                       if k != 0)
    ok &= ah.decompose(4).counts() == {0: 11, 1: 20, 2: 10}
    dt = time.monotonic() - t0
    ok &= dt < 10
    _report(1, ok, f"K(n) n<=6 contractible, K4 counts 11/20/10, {dt:.1f}s")


def test_criterion_02_insertion_chain_maps():
    t0 = time.monotonic()
    ok = True
    # deletions (q = 0) are chain maps, arity <= 5
    for n in range(3, 6):
        for t in ah.decompose(n).cells:
            for j in range(1, n + 1):
                lhs = ah.insert_chain(n, 0, j, ah.boundary(t))
                rhs = ah.boundary(ah.insert_chain(n, 0, j, el(t)))
                ok &= lhs == rhs
    # graft Leibniz for q >= 2, result arity <= 5
    for p, q in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)):
        for a in ah.decompose(p).cells:
            for b in ah.decompose(q).cells:
                ea, eb = el(a), el(b)
                sa = -1 if ah.dimension(a) % 2 else 1
                for l in range(1, p + 1):
                    lhs = ah.boundary(ah.insert_chain(p, q, l, ea, eb))
                    rhs = ah.insert_chain(p, q, l, ah.boundary(ea), eb).add(
                        ah.insert_chain(p, q, l, ea,
                                        ah.boundary(eb)).scale(sa))
                    ok &= lhs == rhs
    # commuting squares: two deletions, and deletion through a graft
    for n in range(3, 6):
        for t in ah.decompose(n).cells:
            e = el(t)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                ok &= (ah.insert_chain(n - 1, 0, i,
                                       ah.insert_chain(n, 0, j, e))
                       == ah.insert_chain(n - 1, 0, j - 1,
                                          ah.insert_chain(n, 0, i, e)))
    for p, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        n = p + q - 1
        for a in ah.decompose(p).cells:
            for b in ah.decompose(q).cells:
                ea, eb = el(a), el(b)
                for l in range(1, p + 1):
                    g = ah.insert_chain(p, q, l, ea, eb)
                    for j in range(1, n + 1):
                        lhs = ah.insert_chain(n, 0, j, g)
                        if l <= j <= l + q - 1:
                            if q == 2:
                                rhs = ah.insert_chain(p, 1, l, ea)
                            else:
                                rhs = ah.insert_chain(
                                    p, q - 1, l, ea,
                                    ah.insert_chain(q, 0, j - l + 1, eb))
                        elif j < l:
                            rhs = ah.insert_chain(
                                p - 1, q, l - 1,
                                ah.insert_chain(p, 0, j, ea), eb)
                        else:
                            rhs = ah.insert_chain(
                                p - 1, q, l,
                                ah.insert_chain(p, 0, j - q + 1, ea), eb)
                        ok &= lhs == rhs
    dt = time.monotonic() - t0
    ok &= dt < 30
    _report(2, ok, f"insertions incl. q=0 chain maps + squares, {dt:.1f}s")


def test_criterion_03_coalgebra_operad():
    t0 = time.monotonic()
    ok = True
    op = co.build_A(5)
    for n in range(2, 6):
        a = op.coalgebra(n)
        try:
            a.check_coassociative()
            a.check_counit()
            a.check_coderivation()
            a.check_counit_chain_map()
        except co.CoalgebraError:
            ok = False
        # every insertion out of arity n is a coalgebra morphism (spot
        # checked through the operadic composition on primitive pairs)
    for p, q in ((2, 2), (3, 2), (2, 3)):
        cone_ok = True
        for x in ah.decompose(p).cells:
            for y in ah.decompose(q).cells:
                try:
                    z = op.compose(p, q, 1, el(x), el(y))
                except Exception:
                    cone_ok = False
        ok &= cone_ok
    for n in range(2, 7):
        cx = ah.decompose(n)
        dims = cx.homology_dims()
        ok &= dims.get(0) == 1 and all(v == 0 for k, v in dims.items()
                                       if k != 0)
        _, reps = cx.complex.homology(0)
        ok &= co.counit_morphism(OperadElement(n, reps[0])) != 0
    dt = time.monotonic() - t0
    ok &= dt < 60
    _report(3, ok, f"coalgebra axioms n<=5, counit quasi-iso n<=6, {dt:.1f}s")


def test_criterion_04_fundamental_class_boundary():
    ok = True
    for k in range(3, 7):
        mu = ah.fundamental_class(k)
        ok &= ah.boundary(mu) == ah.boundary_fundamental_cycle(k)
    # the insertion sign of the operadic boundary formula
    ok &= ah.insertion_sign(2, 2, 1) == -ah.insertion_sign(2, 2, 2)
    _report(4, ok, "boundary of fundamental classes matches the operadic "
                   "sum with signs, k<=6")


def test_criterion_05_ox_differential():
    ok = True
    for k in range(2, 6):
        ok &= ox.diff(ox.diff(el(corolla(ox.d_symbol(k))))).is_zero()
    for k in range(1, 5):
        for l in range(1, 6 - k):
            ok &= ox.diff(ox.diff(el(corolla(ox.mm_symbol(k, l))))).is_zero()
    for n in (2, 3):
        for cell in ah.decompose(n).cells:
            for prof in itertools.product((1, 2, 3), repeat=n):
                if sum(prof) > 4:
                    continue
                g = el(corolla(ox.phi_symbol("A", cell, prof)))
                ok &= ox.diff(ox.diff(g)).is_zero()
    ok &= ox.signs_report() == ox.signs_report()
    ok &= "insertion sign" in ox.signs_report()
    _report(5, ok, "d^2=0 on m_k, m_{k,l}, phi(v)^1, D_k; signs stable")


def test_criterion_06_arity2_homology():
    hb = ox.arity2_homology("B")
    hs = ox.arity2_homology("Binfty")
    hg = ox.arity2_homology("G")
    ok = hb["dims"] == {0: 1, 1: 1}
    ok &= hs["dims"] == {-1: 1, 0: 1}
    ok &= hg["dims"] == hb["dims"]
    m11 = ox.mm_symbol(1, 1)
    anti = el(corolla(m11, (1, 2))).sub(el(corolla(m11, (2, 1))))
    ok &= hb["reps"][0] in (anti, anti.scale(-1))
    # degree shifts: mu_{k,l} has degree 1-k-l and mu_k degree 2-k after
    # the operadic suspension
    for k in range(1, 4):
        for l in range(1, 4):
            g = shift_operad(el(corolla(ox.mm_symbol(k, l))), 1)
            ok &= g.degree() == 1 - k - l
    for k in range(2, 6):
        g = shift_operad(el(corolla(ox.d_symbol(k))), 1)
        ok &= g.degree() == 2 - k
    _report(6, ok, "H(B(2)), H(Binfty(2)), H(G(2)) dims and reps; "
                   "degree shifts")


def test_criterion_07_jacobi():
    ok = ox.equal_in_O(ox.jacobiator(), OperadElement.zero(3), "B")
    # brace-model bracket satisfies Jacobi exactly on cochains
    import random
    rng = random.Random(2)
    alg = hl.truncated_polynomial_algebra(3)

    def rc(arity):
        vals = {}
        for args in itertools.product(range(alg.dim), repeat=arity):
            col = {k: F(rng.randint(-2, 2)) for k in range(alg.dim)}
            col = {k: c for k, c in col.items() if c}
            if col:
                vals[args] = col
        return hl.Cochain(alg, arity, vals)

    x, y, z = rc(2), rc(1), rc(2)
    sx, sy, sz = x.sdeg, y.sdeg, z.sdeg
    j = hl.gerstenhaber_bracket(hl.gerstenhaber_bracket(x, y), z) \
        .scale(F((-1) ** (sx * sz)))
    j = j.add(hl.gerstenhaber_bracket(hl.gerstenhaber_bracket(y, z), x)
              .scale(F((-1) ** (sy * sx))))
    j = j.add(hl.gerstenhaber_bracket(hl.gerstenhaber_bracket(z, x), y)
              .scale(F((-1) ** (sz * sy))))
    ok &= j.is_zero()
    _report(7, ok, "graded Jacobi in B(3) and exactly for braces on "
                   "C(Q[x]/(x^3))")


def test_criterion_08_truncated_identities():
    ok = True
    for k in (2, 3, 4, 5):
        rep = ox.check_Gg_and_tri(k)
        ok &= rep["coproduct_rule"] and rep["differential_rule"]
    _report(8, ok, "coproduct rule mod weight 2 and differential rule "
                   "mod weight 3, k<=5")


def test_criterion_08_truncated_identities_cold(tmp_path):
    # The identities are checked once, on even letters, through the
    # corestriction memo that the rest of the suite fills, so the verdict
    # is taken once more in a fresh interpreter, on empty memos, started as
    # in test_cli_subprocess_byte_identical.
    root = str(Path(ox.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = ("import json; from operadlab import ox_construction as ox; "
            "print(json.dumps([ox.check_Gg_and_tri(k) for k in (2, 3, 4, 5)]))")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path))
    assert p.returncode == 0, p.stderr.decode(errors="replace")
    reps = json.loads(p.stdout)
    ok = [r["arity"] for r in reps] == [2, 3, 4, 5] and all(
        r["coproduct_rule"] and r["differential_rule"] for r in reps)
    _report(8, ok, "the same identities, k<=5, in a fresh interpreter")


def test_criterion_09_antisymmetrized_family():
    ok = True
    for k in (3, 4):
        for r in (2, 3):
            for par in itertools.product((0, 1), repeat=k):
                ok &= ox.holie_vanishing(k, r, par) == {}
    ok &= ox.to_B(ox.holie_map(2)) == ox.bracket()
    for k in (3, 4):
        ok &= ox.to_B(ox.holie_map(k)).is_zero()
    _report(9, ok, "rank>=2 corestrictions of the family vanish; image "
                   "in O(As) is the bracket (k=2) and 0 (k=3,4)")


def test_criterion_10_obstruction_desk_scale():
    t0 = time.monotonic()
    rep = cli.run("obstruction", weight_cap=4)
    dt = time.monotonic() - t0
    ok = rep["all_pass"] and dt < 300
    names = {c["name"] for c in rep["checks"] if c["pass"]}
    ok &= {"harrison_homology", "E1_matches_model",
           "bracket_acts_as_de_rham",
           "cohomology_concentrated_in_survivor"} <= names
    _report(10, ok, f"Harrison + E1 + de Rham action + vanishing at "
                    f"weight cap 4, {dt:.0f}s")


def test_criterion_11_determinism():
    a = cli.export(cli.run("all", max_arity=4, weight_cap=2, seed=1), "json")
    b = cli.export(cli.run("all", max_arity=4, weight_cap=2, seed=1), "json")
    ok = a == b and len(a) > 0
    _report(11, ok, "full suite run twice with one seed is byte-identical")
