import itertools
import random
from fractions import Fraction

import pytest

from operadlab import associahedra as ah
from operadlab import ox_construction as ox
from operadlab.operad_core import (
    Leaf, Node, OperadElement, ShiftedElement, corolla, graft, relabel,
    signed_shuffles, transpose_sign, tree_arity, tree_degree,
)
from operadlab.ox_construction import (
    OXError, arity2_homology, associativity_defect, bracket,
    check_Gg_and_tri, d_symbol, diff, equal_in_O, evaluate,
    expand_corestriction, filtration_weight, holie_gen,
    holie_map, holie_vanishing, jacobiator, lift, mm_symbol, phi_symbol,
    signs_report, to_B, write_signs,
)
from operadlab.exact_chain import vec_acc

F = Fraction
el = OperadElement.from_tree


# ---------------------------------------------------------------------------
# differentials

def test_d_m11():
    d2 = d_symbol(2)
    want = el(corolla(d2, (1, 2)), -1).add(el(corolla(d2, (2, 1)), -1))
    assert diff(el(corolla(mm_symbol(1, 1)))) == want


def test_d_squared_zero_on_D():
    for k in range(2, 6):
        assert diff(diff(el(corolla(d_symbol(k))))).is_zero()


def test_d_squared_zero_on_product_generators():
    for k in range(1, 5):
        for l in range(1, 6 - k):
            g = el(corolla(mm_symbol(k, l)))
            assert diff(diff(g)).is_zero(), (k, l)


def test_d_squared_zero_on_cell_generators():
    for n in (2, 3):
        for cell in ah.decompose(n).cells:
            for prof in itertools.product((1, 2, 3), repeat=n):
                if sum(prof) > 4:
                    continue
                g = el(corolla(phi_symbol("A", cell, prof)))
                assert diff(diff(g)).is_zero(), (cell, prof)


def test_differential_raises_degree_by_one():
    for sym in (mm_symbol(2, 1), d_symbol(4),
                phi_symbol("A", ah.fundamental_class(3).sorted_terms()[0][0],
                           (1, 1, 1))):
        dg = diff(el(corolla(sym)))
        if not dg.is_zero():
            assert dg.degree() == sym.degree + 1


# ---------------------------------------------------------------------------
# corestriction expansion

def test_expand_rank1_is_single_generator():
    pt2 = ah.point_cell(2)
    out = expand_corestriction(pt2, (1, 1), rank=1)
    (w, c), = out.items()
    assert c == 1 and len(w) == 1
    assert w[0].symbol is phi_symbol("A", pt2, (1, 1))


def test_expand_vanishes_beyond_letter_count():
    pt2 = ah.point_cell(2)
    assert expand_corestriction(pt2, (1, 1), rank=3) == {}
    assert expand_corestriction(pt2, (2, 1), rank=4) == {}


def test_rank2_of_binary_cell_is_signed_shuffle():
    pt2 = ah.point_cell(2)
    even = expand_corestriction(pt2, (1, 1), rank=2)
    x1, x2 = Leaf(1), Leaf(2)
    assert even == {(x1, x2): F(1), (x2, x1): F(1)}
    odd = expand_corestriction(pt2, (1, 1), rank=2, parities=(1, 1))
    assert odd == {(x1, x2): F(1), (x2, x1): F(-1)}


def test_commutator_rank2_vanishes():
    # the antisymmetrized binary operation has no higher corestriction on
    # single letters, for every parity assignment
    for p1, p2 in itertools.product((0, 1), repeat=2):
        a = holie_vanishing(2, 2, (p1, p2))
        b = {}
        for t, c in ah.fundamental_class(2).terms.items():
            for w, c2 in ox.at_parities(ox.phi_rank, ox.A_CONTEXT, t,
                                        ((Leaf(2),), (Leaf(1),)), (p2, p1),
                                        2).items():
                vec_acc(b, w, c * c2)
        comm = dict(a)
        sgn = -1 if (p1 and p2) else 1
        for w, c in b.items():
            vec_acc(comm, w, -sgn * c)
        assert not comm, (p1, p2)


def test_parity_count_must_match_the_letters():
    cell = ah.fundamental_class(3).sorted_terms()[0][0]
    for p in ((1,), (0, 1), (0, 0, 0, 1)):
        with pytest.raises(OXError):
            expand_corestriction(cell, (1, 1, 1), 1, parities=p)
    for p in ((0,) * 2, (0,) * 5):
        with pytest.raises(OXError):
            holie_vanishing(3, 2, p)


def test_rank_and_block_count_are_checked_at_every_rank():
    with pytest.raises(OXError):
        expand_corestriction(ah.point_cell(2), (1, 1), -1)
    with pytest.raises(OXError):
        holie_vanishing(3, -1, (0, 0, 0))
    top3 = ah.fundamental_class(3).sorted_terms()[0][0]
    for r in range(4):
        with pytest.raises(OXError):
            expand_corestriction(top3, (1, 1), r)


# Parities of graded atoms as a letter -> parity map, the convention of the
# parity-threaded references below.

def _parity_map(parities):
    return {i + 1: p % 2 for i, p in enumerate(parities)}


def _expr_parity(x, par):
    return (x.total_degree + sum(par[l] for l in x.letters)) % 2


def _word_parity(w, par):
    return sum(_expr_parity(x, par) for x in w) % 2


# The sign-threaded engine that `at_parities` replaced, kept as the
# reference for the sign rule: it carries a letter -> parity map through
# the recursion, signs every composite by its children's operators moving
# past the earlier children's letters, and every rank-r split by the
# regrouping of cell components and block pieces (worked out here only
# once every row of the split is nonzero).  One memo per context and
# parity assignment.  Rank r keeps the r-fold algorithm: r rank-1 rows
# against the r-fold iterated coproduct and the r-piece deconcatenations
# of every block, so it also checks the engine's rank recursion.

def _ref_phi1(ctx, t, blocks, par, memo):
    key = ("phi1", t, blocks)
    if key in memo:
        return memo[key]
    if isinstance(t, Leaf):
        out = {blocks[0][0]: F(1)} if len(blocks[0]) == 1 else {}
    elif not all(blocks):
        i = next(i for i, b in enumerate(blocks) if not b)
        nb = blocks[:i] + blocks[i + 1:]
        out = {}
        for s, c in ctx.insert0(t, i + 1).items():
            for e, c2 in _ref_phi1(ctx, s, nb, par, memo).items():
                vec_acc(out, e, c * c2)
    elif t.nverts == 1:
        sym = phi_symbol(ctx.name, t, tuple(len(b) for b in blocks))
        out = {Node(sym, [x for b in blocks for x in b]): F(1)}
    else:
        infos, letter_pars, pos = [], [], 0
        for ch in t.children:
            a = tree_arity(ch)
            chblocks = blocks[pos:pos + a]
            letter_pars.append(sum(_word_parity(b, par) for b in chblocks))
            if isinstance(ch, Leaf):
                infos.append([(chblocks[0], F(1))])
            else:
                local = relabel(ch, {l: l - pos for l in ch.letters})
                infos.append(list(_ref_full(ctx, local, chblocks, par,
                                            memo).items()))
            pos += a
        sign = transpose_sign([[tree_degree(ch) for ch in t.children],
                               letter_pars])
        out = {}
        for combo in itertools.product(*infos):
            coeff = sign
            for _, c in combo:
                coeff *= c
            words = tuple(w for (w, _) in combo)
            for e, c2 in _ref_phi1(ctx, corolla(t.symbol), words, par,
                                   memo).items():
                vec_acc(out, e, coeff * c2)
    memo[key] = out
    return out


def _delta_iter(ctx, t, r):
    """Iterated coproduct of a cell: r components, as (Delta x id..) o .."""
    if r == 1:
        return {(t,): F(1)}
    out = {}
    for comps, c in _delta_iter(ctx, t, r - 1).items():
        for (a, b), c2 in ctx.delta(comps[0]).items():
            vec_acc(out, (a, b) + comps[1:], c * c2)
    return out


def _ref_rank(ctx, t, blocks, r, par, memo):
    key = ("rank", t, blocks, r)
    if key in memo:
        return memo[key]
    if r == 0:
        e = ctx.eps(t)
        return {(): F(e)} if e and not any(blocks) else {}
    if r == 1:
        return {(e,): c
                for e, c in _ref_phi1(ctx, t, blocks, par, memo).items()}
    out = {}
    for comps, c0 in _delta_iter(ctx, t, r).items():
        comp_degs = [tree_degree(c) for c in comps]
        for choice in itertools.product(*[ox._splits(b, r) for b in blocks]):
            rows = []
            for i in range(r):
                row = _ref_phi1(ctx, comps[i],
                                tuple(pieces[i] for pieces in choice), par,
                                memo)
                if not row:
                    break
                rows.append(row.items())
            if len(rows) < r:
                continue
            sign = transpose_sign(
                [comp_degs] + [[_word_parity(p, par) for p in pieces]
                               for pieces in choice])
            for picks in itertools.product(*rows):
                c = c0 * sign
                for (_, ci) in picks:
                    c *= ci
                vec_acc(out, tuple(e for (e, _) in picks), c)
    memo[key] = out
    return out


def _ref_full(ctx, t, blocks, par, memo):
    out = {}
    for r in range(sum(len(b) for b in blocks) + 1):
        for w, c in _ref_rank(ctx, t, blocks, r, par, memo).items():
            vec_acc(out, w, c)
    return out


def _assert_reader_matches_reference(ctx, t, blocks, par, memos):
    memo = memos.setdefault((ctx.name, tuple(sorted(par.items()))), {})
    q = [_expr_parity(x, par) for b in blocks for x in b]
    assert (ox.at_parities(ox.phi1_tree, ctx, t, blocks, q)
            == _ref_phi1(ctx, t, blocks, par, memo)), (t, blocks, par)
    for r in range(sum(len(b) for b in blocks) + 1):
        assert (ox.at_parities(ox.phi_rank, ctx, t, blocks, q, r)
                == _ref_rank(ctx, t, blocks, r, par, memo)), (t, blocks, r,
                                                               par)


def test_graded_reader_matches_sign_threaded_engine_on_letters():
    memos = {}
    for prof in ((1, 1, 1), (2, 1, 1)):
        blocks = ox._letter_blocks(prof)
        for cell in ah.decompose(3).cells:
            for ps in itertools.product((0, 1), repeat=sum(prof)):
                _assert_reader_matches_reference(
                    ox.A_CONTEXT, cell, blocks, _parity_map(ps), memos)
    blocks = ox._letter_blocks((1, 1, 1, 1))
    for ps in ((0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0)):
        for cell in ah.decompose(4).cells:
            _assert_reader_matches_reference(
                ox.A_CONTEXT, cell, blocks, _parity_map(ps), memos)
    # the associative operad at deeper profiles: ranks up to 5
    for n, prof in ((2, (2, 2)), (2, (1, 3)), (4, (2, 1, 1, 1))):
        blocks = ox._letter_blocks(prof)
        for ps in itertools.product((0, 1), repeat=sum(prof)):
            _assert_reader_matches_reference(
                ox.AS_CONTEXT, ox.one_tree(n), blocks, _parity_map(ps), memos)


def test_graded_reader_matches_sign_threaded_engine_on_atoms():
    # expression atoms (a D_2 and a phi node, as the differential rule
    # hands them over), repeated atoms and letters out of label order
    x1, x2, x3, x4 = (Leaf(l) for l in range(1, 5))
    d = Node(d_symbol(2), (x1, x2))
    p = Node(phi_symbol("A", ah.point_cell(2), (1, 1)), (x3, x4))
    cases = [((x2,), (x1,)), ((x3, x1), (x2,)), ((d,), (x3,)),
             ((x3, d), (p,)), ((d, d), (x3,)), ((x4,), (d,), (x3,)),
             ((p, x1), (x2,), (d,)), ((x3,), (x3, x1), (x2,))]
    memos = {}
    for blocks in cases:
        for ps in itertools.product((0, 1), repeat=4):
            par = _parity_map(ps)
            for cell in ah.decompose(len(blocks)).cells:
                _assert_reader_matches_reference(ox.A_CONTEXT, cell,
                                                 blocks, par, memos)
            _assert_reader_matches_reference(
                ox.AS_CONTEXT, ox.one_tree(len(blocks)), blocks, par, memos)


def test_higher_corestrictions_vanish_on_letters():
    for k in (3, 4):
        for r in range(2, k + 1):
            for par in ((0,) * k, (1,) * k, tuple(i % 2 for i in range(k))):
                assert holie_vanishing(k, r, par) == {}, (k, r, par)


# ---------------------------------------------------------------------------
# evaluation vs. the operad calculus

def _expr_substitute(ea, eb, i, pa, nb):
    """Plug expression sum eb into letter i of ea, shifting letters and
    applying the Koszul sign of the inner operators passing the letters
    before slot i."""
    out = {}

    def shift_b(x):
        if isinstance(x, Leaf):
            return Leaf(x.label + i - 1)
        return Node(x.symbol, tuple(shift_b(a) for a in x.children))

    for xb, cb in eb.items():
        xb2 = shift_b(xb)
        opb = tree_degree(xb)
        for xa, ca in ea.items():
            def repl(x):
                if isinstance(x, Leaf):
                    if x.label < i:
                        return x
                    if x.label == i:
                        return xb2
                    return Leaf(x.label + nb - 1)
                return Node(x.symbol, tuple(repl(a) for a in x.children))
            pre = sum(pa[l] for l in range(1, i)) % 2
            s = -1 if (opb % 2 and pre) else 1
            vec_acc(out, repl(xa), s * ca * cb)
    return out


def test_evaluate_respects_grafting():
    rng = random.Random(7)
    cands = [el(corolla(mm_symbol(1, 1), (1, 2))).add(
                 el(corolla(mm_symbol(1, 1), (2, 1)), F(2))),
             el(corolla(mm_symbol(2, 1), (2, 1, 3))),
             el(corolla(d_symbol(3), (3, 1, 2))),
             el(corolla(d_symbol(2), (1, 2)))]
    for a in cands:
        for b in cands:
            for i in range(1, a.arity + 1):
                g = graft(a, b, i)
                for _ in range(3):
                    pb = tuple(rng.randint(0, 1) for _ in range(b.arity))
                    pa = tuple(rng.randint(0, 1) for _ in range(a.arity))
                    ptot = (sum(pb) + (b.degree() or 0)) % 2
                    pa = pa[:i - 1] + (ptot,) + pa[i:]
                    lhs = evaluate(g, pa[:i - 1] + pb + pa[i:])
                    rhs = _expr_substitute(
                        evaluate(a, pa), evaluate(b, pb), i,
                        {k + 1: pa[k] for k in range(a.arity)}, b.arity)
                    assert lhs == rhs, (a, b, i, pa, pb)


def test_lift_round_trip():
    out = expand_corestriction(ah.fundamental_class(3), (1, 1, 1), rank=1)
    exprs = {w[0]: c for w, c in out.items()}
    e = lift(exprs, 3)
    assert evaluate(e, (0, 0, 0)) == exprs


# ---------------------------------------------------------------------------
# equality in O(As)

def test_equal_reflexive():
    g = el(corolla(mm_symbol(1, 1)))
    assert equal_in_O(g, g)


def test_relation_is_zero_in_quotient():
    r = associativity_defect()
    assert not r.is_zero()
    assert equal_in_O(r, OperadElement.zero(3))


def test_product_not_associative_on_the_nose():
    m = el(corolla(mm_symbol(1, 1)))
    left = graft(m, m, 1)
    right = graft(m, m, 2)
    assert not equal_in_O(left, right)


def test_associator_equals_its_correction_terms():
    m = el(corolla(mm_symbol(1, 1)))
    assoc = graft(m, m, 2).sub(graft(m, m, 1))
    m12 = el(corolla(mm_symbol(1, 2), (1, 2, 3))).add(
        el(corolla(mm_symbol(1, 2), (1, 3, 2))))
    m21 = el(corolla(mm_symbol(2, 1), (1, 2, 3))).add(
        el(corolla(mm_symbol(2, 1), (2, 1, 3))))
    assert equal_in_O(assoc, m21.sub(m12))


def test_jacobi():
    assert equal_in_O(jacobiator(), OperadElement.zero(3))
    # and the jacobiator is a nonzero element of the free representation
    assert not jacobiator().is_zero()


def test_equality_free_in_G():
    g1 = el(corolla(phi_symbol("A", ah.point_cell(2), (1, 1))))
    g2 = g1.permute({1: 2, 2: 1})
    assert equal_in_O(g1, g1, "G")
    assert not equal_in_O(g1, g2, "G")


def test_equality_undecided_beyond_arity_4():
    a = el(corolla(d_symbol(5)))
    b = a.scale(2)
    with pytest.raises(OXError):
        equal_in_O(a, b)


# ---------------------------------------------------------------------------
# arity-2 homology

def test_arity2_homology_of_B():
    h = arity2_homology("B")
    assert h["dims"] == {0: 1, 1: 1}
    m11 = mm_symbol(1, 1)
    anti = el(corolla(m11, (1, 2))).sub(el(corolla(m11, (2, 1))))
    rep0 = h["reps"][0]
    assert rep0 in (anti, anti.scale(-1))
    # the degree-1 representative is half the antisymmetric combination,
    # up to the image of d (which is the symmetric combination)
    d2 = d_symbol(2)
    anti1 = el(corolla(d2, (1, 2)), F(1, 2)).sub(el(corolla(d2, (2, 1)),
                                                    F(1, 2)))
    delta = h["reps"][1].sub(anti1)
    image = diff(el(corolla(m11)))
    # delta must be a rational multiple of the image
    if not delta.is_zero():
        t0, c0 = next(iter(image.terms.items()))
        ratio = delta.terms.get(t0, F(0)) / c0
        assert delta == image.scale(ratio)


def test_arity2_homology_of_G_matches_B():
    hb = arity2_homology("B")
    hg = arity2_homology("G")
    assert hg["dims"] == hb["dims"]


def test_arity2_homology_shifted():
    h = arity2_homology("Binfty")
    assert h["dims"] == {-1: 1, 0: 1}
    rep = h["reps"][-1]
    assert isinstance(rep, ShiftedElement) and rep.degree() == -1
    # under the sign-twisted transposition the degree -1 class is symmetric
    swapped = rep.permute({1: 2, 2: 1})
    assert swapped == rep
    # and the degree-0 class has a symmetric representative that is not a
    # boundary (its average over the twisted transposition stays nonzero
    # and is not proportional to the image of d)
    rep0 = h["reps"][0]
    sym = rep0.add(rep0.permute({1: 2, 2: 1})).scale(F(1, 2))
    image = diff(el(corolla(mm_symbol(1, 1))))
    e = sym.element
    assert not e.is_zero()
    t0, c0 = next(iter(image.terms.items()))
    ratio = e.terms.get(t0, F(0)) / c0
    assert e != image.scale(ratio)


# ---------------------------------------------------------------------------
# filtration

def test_filtration_weights():
    m = el(corolla(mm_symbol(1, 1)))
    assert filtration_weight(m) == 1
    assert filtration_weight(OperadElement.identity()) == 0
    assert filtration_weight(graft(m, el(corolla(d_symbol(2))), 2)) == 2


def test_filtration_additive_under_graft():
    a = el(corolla(mm_symbol(2, 1)))
    b = graft(el(corolla(d_symbol(2))), el(corolla(mm_symbol(1, 1))), 1)
    for i in (1, 2, 3):
        assert filtration_weight(graft(a, b, i)) == \
            filtration_weight(a) + filtration_weight(b)


def test_differential_preserves_filtration():
    gens = [mm_symbol(1, 1), mm_symbol(2, 1), mm_symbol(2, 2), d_symbol(3),
            d_symbol(4)]
    for n in (2, 3):
        for cell in ah.decompose(n).cells:
            gens.append(phi_symbol("A", cell, (1,) * n))
    for g in gens:
        dg = diff(el(corolla(g)))
        if not dg.is_zero():
            assert filtration_weight(dg) >= 1, g


def test_zero_has_no_weight():
    with pytest.raises(OXError):
        filtration_weight(OperadElement.zero(2))


# ---------------------------------------------------------------------------
# the truncated identities

@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_identities(k):
    report = check_Gg_and_tri(k)
    assert report["coproduct_rule"], k
    assert report["differential_rule"], k


@pytest.mark.parametrize("k", [1, 6])
def test_identities_outside_the_checked_arities_raise(k):
    with pytest.raises(OXError):
        check_Gg_and_tri(k)


def _mixed_profiles():
    for n in (2, 3):
        for prof in itertools.product((1, 2), repeat=n):
            if sum(prof) <= 4:
                yield prof


def test_coproduct_rule_mixed_profiles():
    for prof in _mixed_profiles():
        for cell in ah.decompose(len(prof)).cells:
            assert ox.check_coproduct_rule(cell, prof), (cell, prof)


@pytest.mark.parametrize("name, rule, k", [
    ("RULE_CHI_SIGN", "coproduct_rule", 2),
    ("RULE_EPS_SIGN", "coproduct_rule", 2),
    ("TRI_COMP_SIGN", "differential_rule", 3),
    ("TRI_CUP_SIGN", "differential_rule", 2),
    ("UNARY_D_SIGN", "differential_rule", 2),
])
def test_every_global_sign_can_fail_the_check(monkeypatch, name, rule, k):
    monkeypatch.setattr(ox, name, -getattr(ox, name))
    other = ({"coproduct_rule", "differential_rule"} - {rule}).pop()
    assert check_Gg_and_tri(k) == {"arity": k, rule: False, other: True}


# ---------------------------------------------------------------------------
# integer coefficients and the deletion table
#
# Nothing in the engine divides, so every coefficient is an `int`, never a
# Fraction or a float.

def _assert_ints(coeffs, where):
    for c in coeffs:
        assert type(c) is int, (where, c)


def test_engine_coefficients_are_integers():
    profiles = [p for n in (2, 3, 4) for p in itertools.product((1, 2, 3),
                                                                 repeat=n)
                if sum(p) <= 4]
    assert len(profiles) == 11
    for prof in profiles:
        blocks = ox._letter_blocks(prof)
        for cell in ah.decompose(len(prof)).cells:
            for r in range(sum(prof) + 1):
                out = ox.phi_rank(ox.A_CONTEXT, cell, blocks, r)
                _assert_ints(out.values(), (cell, prof, r))
    for k in (2, 3, 4):
        for side in ox._differential_sides(k):
            assert side
            _assert_ints(side.values(), k)


def test_shuffles_and_three_split_extension_are_integer():
    blocks = ox._letter_blocks((2, 1, 2))
    out = ox.shuffle_many(blocks)
    assert len(out) == 30
    _assert_ints(out.values(), "shuffle_many")
    cell = ah.fundamental_class(3).sorted_terms()[0][0]
    out = ox.t_chi(lambda mids: ox.phi1_tree(ox.A_CONTEXT, cell, mids),
                   blocks)
    assert out
    _assert_ints(out.values(), "t_chi")


def test_insert0_keeps_each_deletion_in_its_table():
    for n in range(2, 6):
        for cell in ah.decompose(n).cells:
            for i in range(1, n + 1):
                got = ox.A_CONTEXT.insert0(cell, i)
                assert got == dict(ah.insert_chain(n, 0, i, el(cell)).terms)
                assert ox.A_CONTEXT.insert0(cell, i) is got


# The parity-threaded sides that the even checks replaced, kept as the
# reference for the graded conventions: the shuffles sign every word by its
# letters' parities, t_chi signs the regrouping of the first/middle/last
# pieces and chi (of operator degree `chi_opdeg`) moving past the firsts,
# and an odd chi composed past odd letters flips its composition term.
# The top-cell operations run on the sign-threaded engine above.

def _ref_shuffle_many(words, par):
    out = {(): F(1)}
    for w in words:
        nxt = {}
        for acc_w, c in out.items():
            for sign, word in signed_shuffles(
                    acc_w, w, lambda x: _expr_parity(x, par)):
                vec_acc(nxt, word, sign * c)
        out = nxt
    return out


def _ref_t_chi(chi, chi_opdeg, words, par):
    out = {}
    for splits in itertools.product(*[list(ox._splits(w, 3))
                                      for w in words]):
        midval = chi(tuple(s[1] for s in splits))
        if not midval:
            continue
        # regroup (f1 m1 l1 f2 m2 l2 ...) -> (f1..fn m1..mn l1..ln)
        grid = [[_word_parity(x, par) for x in s] for s in splits]
        sign = transpose_sign(grid)
        if chi_opdeg % 2 and sum(g[0] for g in grid) % 2:
            sign = -sign
        fsh = _ref_shuffle_many([s[0] for s in splits], par)
        lsh = _ref_shuffle_many([s[2] for s in splits], par)
        for fw, fc in fsh.items():
            for e, mc in midval.items():
                for lw, lc in lsh.items():
                    vec_acc(out, fw + (e,) + lw, sign * fc * mc * lc)
    return out


def _ref_phi_lower(i, blocks, par, memo):
    blocks = tuple(tuple(b) for b in blocks)
    if i == 1:
        (w,) = blocks
        if len(w) < 2:
            return {}
        return {Node(d_symbol(len(w)), w): F(ox.UNARY_D_SIGN)}
    if i == 2 and not all(blocks):
        return {}
    out = {}
    for t, c in ah.fundamental_class(i).terms.items():
        for e, c2 in _ref_phi1(ox.A_CONTEXT, t, blocks, par, memo).items():
            vec_acc(out, e, c * c2)
    return out


def _ref_coproduct_rhs(cell, profile, par, memo):
    ctx = ox.A_CONTEXT
    blocks = ox._letter_blocks(profile)

    def chi(mids):
        if sum(len(m) for m in mids) < 2:
            return {}
        return _ref_phi1(ctx, cell, mids, par, memo)

    rhs = {}
    for w, c in _ref_t_chi(chi, tree_degree(cell), blocks, par).items():
        vec_acc(rhs, w, ox.RULE_CHI_SIGN * c)
    e = ctx.eps(cell)
    if e:
        for w, c in _ref_shuffle_many(blocks, par).items():
            vec_acc(rhs, w, ox.RULE_EPS_SIGN * e * c)
    return ox.truncate_words(rhs, 1)


def _ref_differential_rhs(k, par, memo):
    letters = ox._letter_blocks((1,) * k)
    rhs = {}
    for r in range(1, k):
        sign = ox.TRI_CUP_SIGN * (-1 if (r - 1) % 2 else 1)
        for w, c in _ref_shuffle_many(letters[r - 1:r + 1], par).items():
            blocks = letters[:r - 1] + (w,) + letters[r + 1:]
            for e, c2 in _ref_phi_lower(k - 1, blocks, par, memo).items():
                vec_acc(rhs, e, sign * c * c2)
    for i in range(1, k + 1):
        j = k + 1 - i

        def chi(mids, j=j):
            return _ref_phi_lower(j, mids, par, memo)

        for l in range(1, i + 1):
            ext = ox.TRI_COMP_SIGN * ah.insertion_sign(i, j, l)
            if j % 2 and sum(par[x] for x in range(1, l)) % 2:
                ext = -ext
            tval = _ref_t_chi(chi, j % 2, letters[l - 1:l - 1 + j], par)
            for w, c in tval.items():
                blocks = letters[:l - 1] + (w,) + letters[l + j - 1:]
                for e, c2 in _ref_phi_lower(i, blocks, par, memo).items():
                    vec_acc(rhs, e, ext * c * c2)
    return ox.truncate_exprs(rhs, 2)


def _read(side, q):
    """An even side on graded letters: one `koszul_sign` per term."""
    return {x: c * ox.koszul_sign(x, q) for x, c in side.items()}


def test_even_sides_read_as_the_graded_references():
    # Read on graded letters, the even left sides are `at_parities` of
    # `phi_full` and `evaluate` by definition; the reader tests above hold
    # the engine to the sign-threaded reference.  Here the right sides are
    # held to the parity-threaded ones: every cell of K(2)..K(4) on single
    # letters, the mixed profiles, and the differential rule.
    cases = [(cell, (1,) * k) for k in (2, 3, 4)
             for cell in ah.decompose(k).cells]
    cases += [(cell, prof) for prof in _mixed_profiles() if max(prof) > 1
              for cell in ah.decompose(len(prof)).cells]
    memos = {}
    for cell, prof in cases:
        _, rhs = ox._coproduct_sides(cell, prof)
        for ps in itertools.product((0, 1), repeat=sum(prof)):
            ref = _ref_coproduct_rhs(cell, prof, _parity_map(ps),
                                     memos.setdefault(ps, {}))
            assert _read(rhs, ps) == ref, (cell, prof, ps)
    for k in (2, 3, 4):
        _, rhs = ox._differential_sides(k)
        for ps in itertools.product((0, 1), repeat=k):
            ref = _ref_differential_rhs(k, _parity_map(ps),
                                        memos.setdefault(ps, {}))
            assert _read(rhs, ps) == ref, (k, ps)


# ---------------------------------------------------------------------------
# the antisymmetrized family and the morphism to O(As)

def test_holie_map_2():
    hm = holie_map(2)
    sym = phi_symbol("A", ah.point_cell(2), (1, 1))
    assert hm == el(corolla(sym, (1, 2))).sub(el(corolla(sym, (2, 1))))


def test_to_B_of_bracket_family():
    img2 = to_B(holie_map(2))
    assert img2 == bracket()
    for k in (3, 4):
        assert to_B(holie_map(k)).is_zero(), k


def test_to_B_is_chain_map_mod_relations():
    for n in (2, 3):
        for cell in ah.decompose(n).cells:
            for prof in itertools.product((1, 2), repeat=n):
                if sum(prof) > 4:
                    continue
                g = el(corolla(phi_symbol("A", cell, prof)))
                a = to_B(diff(g))
                b = diff(to_B(g))
                assert equal_in_O(a, b), (cell, prof)
    for k in (2, 3, 4, 5):
        g = el(corolla(d_symbol(k)))
        assert to_B(diff(g)) == diff(to_B(g))


def _ref_subst_tree(t, img):
    """Substitution by grafting: the image of each vertex, its children's
    images grafted from the last slot to the first, then the leaves
    relabeled to t's."""
    def go(u):
        if isinstance(u, Leaf):
            return OperadElement.identity()
        res = img(u.symbol)
        for i in range(len(u.children) - 1, -1, -1):
            res = graft(res, go(u.children[i]), i + 1)
        return res

    labels = t.letters
    return go(t).permute({p + 1: labels[p] for p in range(len(labels))})


def test_to_B_matches_the_grafting_substitution():
    def ref(e):
        return e.map_trees(lambda t: _ref_subst_tree(t, ox._to_B_image))

    for k in (2, 3, 4):
        assert to_B(holie_map(k)) == ref(holie_map(k)), k
    gens = [d_symbol(k) for k in (2, 3, 4, 5)]
    for n in (2, 3):
        for cell in ah.decompose(n).cells:
            for prof in itertools.product((1, 2), repeat=n):
                if sum(prof) <= 4:
                    gens.append(phi_symbol("A", cell, prof))
    nonzero = 0
    for g in gens:
        dg = diff(el(corolla(g)))
        assert to_B(dg) == ref(dg), g
        nonzero += not to_B(dg).is_zero()
    assert nonzero


def test_holie_gen_is_cycle_leading_term():
    # the differential of the family generator lies in higher filtration
    # once the exact cell-boundary part is removed at arity 2
    d2 = diff(holie_gen(2))
    assert filtration_weight(d2) == 1


# ---------------------------------------------------------------------------
# signs artifact

def test_signs_report_deterministic(tmp_path):
    a = signs_report()
    assert a == signs_report()
    p = tmp_path / "SIGNS.md"
    write_signs(p)
    assert p.read_text(encoding="utf-8") == a
    assert "insertion sign" in a
