"""Tests for the Hochschild/Harrison/obstruction workbench."""
import collections
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from operadlab.exact_chain import Echelon, span, vec_acc, vec_axpy
from operadlab.hochschild_lab import (
    Algebra, Cochain, CochainWordSum, HochschildError, coalgebra_D,
    coalgebra_product,
    truncated_polynomial_algebra, zero_cochain,
    multiplication_cochain, basis_cochain, hochschild_d, cup, brace,
    gerstenhaber_bracket, hochschild_complex, hh_dimensions,
    hh_representatives, is_coboundary, binfty_on_cochains,
    harrison, harrison_weight_complex, harrison_boundary_descends,
    SchoutenTruncation, SchoutenDualModel,
    schouten_d_product, schouten_d_bracket,
    extension_report, hom_commutator_report,
    obstruction_E1, obstruction_bracket_action, obstruction_vanishing,
    schouten_comparison, hh_gerstenhaber_report,
)
from operadlab import hochschild_lab as hl
from operadlab import ox_construction as ox


def identity_cochain(algebra: Algebra) -> Cochain:
    return Cochain(algebra, 1,
                   {(i,): {i: 1} for i in range(algebra.dim)})


def gr2(ctx, z):
    """Cobracket count: sum over words of (length - 1)."""
    return ctx.z_letters(z) - len(z)


def gr3(ctx, z):
    """Comultiplication count: number of words - 1."""
    return len(z) - 1


# ---------------------------------------------------------------------------
# Part A: Hochschild cochains
# ---------------------------------------------------------------------------

def dual_numbers():
    return truncated_polynomial_algebra(2)


def random_cochain(alg, arity, rng):
    vals = {}
    for args in itertools.product(range(alg.dim), repeat=arity):
        col = {k: F(rng.randint(-2, 2)) for k in range(alg.dim)}
        col = {k: c for k, c in col.items() if c}
        if col:
            vals[args] = col
    return Cochain(alg, arity, vals)


def test_algebra_validation_errors():
    with pytest.raises(HochschildError):
        Algebra(["a"], [0], {(0, 0): {0: F(2)}}, {0: F(1)})  # not unital
    with pytest.raises(HochschildError):
        # non-associative structure constants: (x x) y != x (x y)
        Algebra(["1", "x", "y"], [0, 0, 0],
                {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)},
                 (0, 2): {2: F(1)}, (2, 0): {2: F(1)},
                 (1, 1): {2: F(1)}, (1, 2): {0: F(1)}, (2, 1): {},
                 (2, 2): {}},
                {0: F(1)})


def test_scalar_entry_points_reject_floats():
    alg = dual_numbers()
    x = identity_cochain(alg)
    cubic = truncated_polynomial_algebra(3)
    halved = dict(cubic.mult)
    halved[(1, 1)] = {2: 0.5}  # x.x = x^2 / 2 is still associative
    for make in (
            lambda: Algebra(cubic.labels, cubic.degrees, halved, cubic.unit),
            lambda: Algebra(["1"], [0], {(0, 0): {0: 1}}, {0: 0.5}),
            lambda: Cochain(alg, 1, {(0,): {1: 0.5}}),
            lambda: x.scale(0.5),
            lambda: zero_cochain(alg, 1).scale(0.5),
            lambda: CochainWordSum(alg, [(0.5, (x,))]),
            lambda: CochainWordSum(alg).scale(0.5)):
        with pytest.raises(HochschildError, match="not an int or Fraction"):
            make()
    assert x.scale(F(1, 2)).values[(0,)] == {0: F(1, 2)}
    assert type(x.scale(2).values[(0,)][0]) is int


def test_signs_with_zero_cochains_stay_int():
    # a 0-cochain has shifted degree -1, so these signs have negative
    # exponents before reduction mod 2
    alg = dual_numbers()
    f, pt = basis_cochain(alg, (0, 1), 1), Cochain(alg, 0, {(): {1: 1}})
    assert brace(f, [pt]).values == {(0,): {1: -1}}
    for c in (brace(f, [pt]), gerstenhaber_bracket(f, pt),
              gerstenhaber_bracket(pt, f)):
        assert not c.is_zero()
        assert all(type(v) is int
                   for col in c.values.values() for v in col.values())


def test_mu_brace_mu_is_zero():
    for n in (2, 3):
        mu = multiplication_cochain(truncated_polynomial_algebra(n))
        assert brace(mu, [mu]).is_zero()


def test_d_squared_zero_on_random_cochains():
    rng = random.Random(7)
    alg = truncated_polynomial_algebra(3)
    for arity in (0, 1, 2):
        c = random_cochain(alg, arity, rng)
        assert hochschild_d(hochschild_d(c)).is_zero()


def test_d_of_identity_is_multiplication():
    # (d id)(a, b) = a id(b) - id(ab) + id(a) b = ab: the coboundary of the
    # identity 1-cochain is the multiplication, not zero.
    alg = dual_numbers()
    d_id = hochschild_d(identity_cochain(alg))
    assert d_id.sub(multiplication_cochain(alg)).is_zero()
    assert not d_id.is_zero()


def test_d_of_0_cochain_is_commutator():
    alg = truncated_polynomial_algebra(3)
    a = Cochain(alg, 0, {(): {1: F(1)}})
    da = hochschild_d(a)
    # commutative algebra: x b - b x = 0 for every b
    assert da.is_zero()


def test_brace_empty_is_identity_and_pre_lie():
    rng = random.Random(1)
    alg = dual_numbers()
    x = random_cochain(alg, 2, rng)
    assert brace(x, []).sub(x).is_zero()
    # graded pre-Lie: the associator of x{y} is symmetric in y, z
    y = random_cochain(alg, 2, rng)
    z = random_cochain(alg, 1, rng)
    assoc1 = brace(brace(x, [y]), [z]).sub(brace(x, [brace(y, [z])]))
    # note x{y}{z} - x{y{z}} = x{y,z} + (-1)^{|y||z|} x{z,y}
    expect = brace(x, [y, z]).add(
        brace(x, [z, y]).scale(F((-1) ** (y.sdeg * z.sdeg))))
    assert assoc1.sub(expect).is_zero()


def test_gerstenhaber_jacobi_exact_on_cochains():
    rng = random.Random(3)
    alg = truncated_polynomial_algebra(3)
    x = random_cochain(alg, 2, rng)
    y = random_cochain(alg, 1, rng)
    z = random_cochain(alg, 2, rng)
    sx, sy, sz = x.sdeg, y.sdeg, z.sdeg
    j = gerstenhaber_bracket(gerstenhaber_bracket(x, y), z) \
        .scale(F((-1) ** (sx * sz)))
    j = j.add(gerstenhaber_bracket(gerstenhaber_bracket(y, z), x)
              .scale(F((-1) ** (sy * sx))))
    j = j.add(gerstenhaber_bracket(gerstenhaber_bracket(z, x), y)
              .scale(F((-1) ** (sz * sy))))
    assert j.is_zero()


def test_hh_dimensions_dual_numbers():
    dims = hh_dimensions(dual_numbers(), 4)
    assert {k: v for k, v in dims.items()
            if v and k <= 3} == {0: 2, 1: 1, 2: 1, 3: 1}


def test_hh0_is_center():
    alg = truncated_polynomial_algebra(3)
    assert hh_dimensions(alg, 1)[0] == 3


def test_cup_associative_and_commutative_on_classes():
    rng = random.Random(5)
    alg = dual_numbers()
    x = random_cochain(alg, 1, rng)
    y = random_cochain(alg, 1, rng)
    z = random_cochain(alg, 2, rng)
    assert cup(cup(x, y), z).sub(cup(x, cup(y, z))).is_zero()
    reps1 = hh_representatives(alg, 1)
    reps2 = hh_representatives(alg, 2)
    for a in reps1:
        for b in reps2:
            comm = cup(a, b).sub(cup(b, a).scale(F((-1) ** (1 * 2))))
            assert is_coboundary(comm)


@pytest.mark.parametrize("n", [2, 3])
def test_hh_representatives_are_not_coboundaries(n):
    alg = truncated_polynomial_algebra(n)
    for degree in range(3):
        reps = hh_representatives(alg, degree)
        assert reps
        assert not any(is_coboundary(r) for r in reps)


def upper_triangular_matrices():
    """The 2 x 2 upper triangular matrices over Q: not commutative, so d of
    a 0-cochain need not vanish."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}
    return Algebra(["e11", "e12", "e22"], [0, 0, 0], mult, {0: 1, 2: 1})


@pytest.mark.parametrize("make", [
    dual_numbers, lambda: truncated_polynomial_algebra(3),
    upper_triangular_matrices], ids=["x^2", "x^3", "upper_triangular"])
def test_cached_coboundary_image_matches_the_complex(make):
    # reference: the image of d in arity m, spanned in the whole complex
    alg = make()
    cx = hochschild_complex(alg, 4)
    image = {m: span(map(cx.d.entries.get, cx.space.labels_of_degree(m - 1)),
                     cx.space.index) for m in range(5)}
    verdicts = set()
    for arity in range(4):
        for args in itertools.product(range(alg.dim), repeat=arity):
            for k in range(alg.dim):
                c = basis_cochain(alg, args, k)
                for x in (c, hochschild_d(c)):
                    want = x.is_zero() or image[x.arity].contains(
                        hl._cochain_vector(x))
                    assert is_coboundary(x) == want
                    verdicts.add(want)
    assert verdicts == {True, False}
    assert sorted(alg._coboundaries) == [0, 1, 2, 3, 4]


def expand_word_sum(s):
    """Reference coordinates of a CochainWordSum: every term expanded into
    elementary tensors of basis cochains, key ((args_1, out_1), ...)."""
    out = {}
    for c, word in s.terms:
        pools = [[(args, k, v) for args, col in x.values.items()
                  for k, v in col.items()] for x in word]
        for combo in itertools.product(*pools):
            key = tuple((args, k) for args, k, _ in combo)
            coeff = c
            for _, _, v in combo:
                coeff *= v
            out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def test_word_sum_is_zero_matches_full_expansion():
    alg = dual_numbers()
    rng = random.Random(11)

    def word(length):
        return tuple(random_cochain(alg, rng.choice([1, 2]), rng)
                     for _ in range(length))

    sums = []
    for length in (1, 2, 3):
        w = word(length)
        dd = CochainWordSum(alg)
        for c, dw in coalgebra_D(w).terms:
            dd = dd + coalgebra_D(dw).scale(c)
        sums += [dd, coalgebra_D(w)]
    a, b, c = word(1), word(2), word(1)
    lhs, rhs = CochainWordSum(alg), CochainWordSum(alg)
    for cf, w in coalgebra_product(a, b).terms:
        lhs = lhs + coalgebra_product(w, c).scale(cf)
    for cf, w in coalgebra_product(b, c).terms:
        rhs = rhs + coalgebra_product(a, w).scale(cf)
    sums += [lhs + rhs.scale(-1), lhs]
    # (x + e) y - x y - e (y - f) = e f: cancels in every coordinate but one
    x, y = random_cochain(alg, 2, rng), random_cochain(alg, 1, rng)
    e, f = basis_cochain(alg, (1, 0), 1), basis_cochain(alg, (0,), 1)
    cancelled = CochainWordSum(alg, [(1, (x.add(e), y)), (-1, (x, y))])
    perturbed = cancelled + CochainWordSum(alg, [(-1, (e, y.sub(f)))])
    assert len(expand_word_sum(perturbed)) == 1
    sums += [perturbed, cancelled + CochainWordSum(alg, [(-1, (e, y))])]
    # another output, or other arguments: a distinct coordinate
    for args, out in (((1, 0), 0), ((0, 1), 1)):
        other = basis_cochain(alg, args, out)
        sums.append(CochainWordSum(alg, [(1, (e, y)), (-1, (other, y))]))
    verdicts = [s.is_zero() for s in sums]
    assert verdicts == [not expand_word_sum(s) for s in sums]
    assert verdicts == [True, False] * 3 + [True, False, False, True,
                                            False, False]


def test_binfty_report_and_gerstenhaber_on_hh():
    rep = binfty_on_cochains(dual_numbers(), max_length=4, seed=0)
    assert "D_squared" in rep["checks"]
    g = hh_gerstenhaber_report()
    assert g["all_ok"]


def test_schouten_comparison():
    rep = schouten_comparison(3)
    assert rep["all_ok"]
    assert rep["hh0_dim"] == 4


def test_bracket_convention_matches_operadic_generator():
    """The brace-model bracket equals the evaluated antisymmetrized
    operadic product generator, including Koszul signs."""
    rng = random.Random(11)
    alg = truncated_polynomial_algebra(3)
    for ax, ay in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        x = random_cochain(alg, ax, rng)
        y = random_cochain(alg, ay, rng)
        letters = {1: x, 2: y}
        parities = [x.sdeg % 2, y.sdeg % 2]
        total = zero_cochain(alg, ax + ay - 1)
        for expr, coeff in ox.evaluate(ox.bracket(), parities).items():
            outer, inner = (letters[a] for a in expr.letters)
            total = total.add(brace(outer, [inner]).scale(F(coeff)))
        assert total.sub(gerstenhaber_bracket(x, y)).is_zero()


# ---------------------------------------------------------------------------
# Part B: Harrison-type complex
# ---------------------------------------------------------------------------

def test_harrison_boundary_squares_to_zero():
    for w in range(1, 5):
        cx, _ = harrison_weight_complex(w)  # Complex validates d^2 = 0
        assert cx is not None


def test_harrison_boundary_descends():
    assert harrison_boundary_descends(4)


def test_harrison_descent_check_can_fail(monkeypatch):
    # blocks taken modulo even-letter shuffles do not hold the boundaries of
    # the odd-letter relations
    monkeypatch.setattr(hl, "_harrison_word_block", lambda k, s: (
        hl.shuffle_quotient(sorted(hl._compositions(s, k)), lambda l: 0)))
    assert not harrison_boundary_descends(4)


def test_harrison_boundary_descends_builds_each_block_once(monkeypatch):
    built = []
    build = hl._harrison_word_block

    def counted(k, s):
        built.append((k, s))
        return build(k, s)

    monkeypatch.setattr(hl, "_harrison_word_block", counted)
    assert harrison_boundary_descends(6)
    assert sorted(built) == [(k, s) for k in range(1, 7)
                             for s in range(k, 7)]


def test_harrison_homology_matches_model():
    rep = harrison(4)
    assert rep["all_match"]
    for w, entry in rep["weights"].items():
        assert entry["homology_dims"] == {1: 1}


def test_harrison_monotone_consistent():
    r3 = harrison(3)
    r4 = harrison(4)
    for w in r3["weights"]:
        assert (r3["weights"][w]["homology_dims"]
                == r4["weights"][w]["homology_dims"])


def test_harrison_budget_error():
    with pytest.raises(HochschildError):
        harrison(12, max_dim=10)
    with pytest.raises(HochschildError):
        harrison(0)


# ---------------------------------------------------------------------------
# Shuffle quotients: super-Lyndon basis against the elimination
# ---------------------------------------------------------------------------

def _ref_shuffle_quotient(raws, parity):
    """The quotient by elimination: (basis, echelon) of the span of `raws`
    modulo the signed shuffle relations of every cut of every raw word,
    pivots on the least raw index."""
    ech = span((hl.shuffle_relation(w, cut, parity)
                for w in raws for cut in range(1, len(w))),
               {w: i for i, w in enumerate(raws)})
    return [w for w in raws if w not in ech.rows], ech


def _even(letter):
    return 0


def _quotient_blocks():
    """(name, raws, parity) of every block the reports use, one cap beyond
    (Schouten (5, 5)), and the Harrison blocks through weight 8."""
    for generators in (2, 0):
        for cap, lcap in ((3, 3), (4, 4), (5, 4), (6, 4), (5, 5)):
            ctx = SchoutenTruncation(cap, lcap, generators=generators)
            for k in range(1, lcap + 1):
                yield ((generators, cap, lcap, k),
                       sorted(ctx.raw_words(k, cap)), ctx.par)
    for parity in (hl._odd, _even):
        for s in range(1, 9):
            for k in range(1, s + 1):
                yield ((parity.__name__, k, s),
                       sorted(hl._compositions(s, k)), parity)


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _lyndon_count(counts):
    """Lyndon words of the letter content `counts` (necklace formula)."""
    n, g = sum(counts), math.gcd(*counts)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            words = math.factorial(n // d)
            for c in counts:
                words //= math.factorial(c // d)
            total += _mobius(d) * words
    return total // n


def _super_lyndon_count(raws, parity):
    """Basis size of a block by content: the Lyndon words of each content
    alpha, plus the odd Lyndon words of content alpha / 2 (their squares)."""
    total = 0
    for content in {tuple(sorted(w)) for w in raws}:
        counts = list(collections.Counter(content).values())
        total += _lyndon_count(counts)
        if all(c % 2 == 0 for c in counts):
            half = content[::2]
            if sum(map(parity, half)) % 2:
                total += _lyndon_count([c // 2 for c in counts])
    return total


def test_shuffle_quotient_matches_the_elimination():
    for name, raws, parity in _quotient_blocks():
        basis, reducer = hl.shuffle_quotient(raws, parity)
        ref_basis, ech = _ref_shuffle_quotient(raws, parity)
        assert basis == ref_basis, name
        assert len(basis) == _super_lyndon_count(raws, parity), name
        for w in raws:
            got = reducer.reduce({w: 1})
            assert got == ech.reduce({w: 1}), (name, w)
            # the elimination may hold an integral Fraction; the rewrite
            # keeps every integral coefficient int
            assert all(type(c) is (int if c.denominator == 1 else F)
                       for c in got.values()), (name, w)


def test_shuffle_quotient_reduce_returns_a_fresh_dict():
    basis, reducer = hl.shuffle_quotient(sorted(hl._compositions(4, 2)),
                                         hl._odd)
    for w in sorted(hl._compositions(4, 2)):
        got = reducer.reduce({w: 1})
        got[w] = 7
        assert reducer.reduce({w: 1}) != got
    assert reducer.reduce({basis[0]: 3, (3, 1): 0}) == {basis[0]: 3}


def test_shuffle_quotient_zero_leading_coefficient_raises(monkeypatch):
    # a shuffle whose terms cancel at the word being rewritten
    monkeypatch.setattr(hl, "signed_shuffles",
                        lambda u, v, parity: [(1, u + v), (-1, u + v)])
    with pytest.raises(HochschildError):
        hl.shuffle_quotient([(1, 1)], _even)


# ---------------------------------------------------------------------------
# Part C: coderivation bicomplex
# ---------------------------------------------------------------------------

def test_schouten_truncation_gradings():
    ctx = SchoutenTruncation(3, 3)
    for z in ctx.p_basis():
        assert gr2(ctx, z) == ctx.z_letters(z) - len(z)
        assert gr3(ctx, z) == len(z) - 1


def brute_force_p_basis(ctx):
    """Every multiset of basis words within the caps, no odd word twice."""
    pool = sorted((w for k in range(1, ctx.lcap + 1)
                   for w in ctx.word_block(k)[0]),
                  key=lambda w: (len(w), w))
    out = []
    for r in range(1, ctx.lcap + 1):
        # each component has at least one letter
        short = [w for w in pool if len(w) <= ctx.lcap - r + 1]
        for z in itertools.combinations_with_replacement(short, r):
            if ctx.z_letters(z) > ctx.lcap or ctx.z_weight(z) > ctx.cap:
                continue
            if any(a == b and ctx.word_q[a] == 1
                   for a, b in zip(z, z[1:])):
                continue
            out.append(z)
    out.sort(key=lambda z: (ctx.z_letters(z), z))
    return out


@pytest.mark.parametrize("generators", [0, 2])
def test_p_basis_matches_brute_force(generators):
    for cap, lcap in itertools.product(range(1, 5), range(1, 5)):
        ctx = SchoutenTruncation(cap, lcap, generators=generators)
        basis = ctx.p_basis()
        assert list(basis) == brute_force_p_basis(ctx), (cap, lcap)
        assert ctx.p_basis() is basis


def test_p_basis_is_shared_with_dual_model():
    ctx = SchoutenTruncation(2, 3)
    assert isinstance(ctx.p_basis(), tuple)
    assert SchoutenDualModel(ctx).P is ctx.p_basis()


def test_word_table_matches_the_letter_sums():
    # a letter u^p xi^e has weight p + e and V[1] parity 1 - e, so a word
    # has component parity 1 + its V[1] parity
    ctx = SchoutenTruncation(4, 4)
    ctx.p_basis()
    words = [w for k in range(1, ctx.lcap + 1)
             for w in ctx.raw_words(k, ctx.cap)]
    assert set(ctx.word_weight) == set(ctx.word_q) == set(words)
    for w in words:
        assert ctx.word_weight[w] == sum(p + e for p, e in w), w
        assert ctx.word_q[w] == (1 + sum(1 - e for _, e in w)) % 2, w


def test_a_word_of_an_unbuilt_block_raises():
    ctx = SchoutenTruncation(4, 4)
    ctx.word_block(1)
    with pytest.raises(KeyError):
        ctx.koszul_sort([((1, 0), (0, 1)), ((0, 1),)])
    with pytest.raises(KeyError):
        ctx.z_weight((((1, 0), (0, 1)),))


@pytest.mark.parametrize("caps, generators", [
    ((3, 3), 2), ((4, 4), 2), ((4, 4), 0)])
def test_p_blocks_group_the_basis(caps, generators):
    ctx = SchoutenTruncation(*caps, generators=generators)
    shapes = {(len(z), ctx.z_letters(z)) for z in ctx.p_basis()}
    for words in range(ctx.lcap + 2):
        for letters in range(ctx.lcap + 2):
            assert list(ctx.p_block(words, letters)) == [
                z for z in ctx.p_basis()
                if (len(z), ctx.z_letters(z)) == (words, letters)]
    assert sum(len(ctx.p_block(*s)) for s in shapes) == len(ctx.p_basis())


def test_coderivations_square_and_anticommute():
    rep = extension_report(3, 3)
    assert rep["d_product_squares_to_zero"]
    assert rep["d_bracket_squares_to_zero"]
    assert rep["anticommute"]


def test_coderivations_determined_by_corestriction():
    rep = extension_report(3, 3)
    assert rep["extension_reproduces_product"]
    assert rep["extension_reproduces_bracket"]
    assert rep["all_ok"]


def _ref_left_normed_rewrite(model):
    """Each word dual as left-normed brackets [..[g1*, g2*], .., gk*] of
    letter duals, by elimination: (rw, ln) with rw[w] a list of
    (coefficient, letter sequence) and ln[seq] the nonzero left-normed
    bracket of seq over the word duals."""
    ctx = model.ctx
    gens = list(ctx.monos)
    rw = {(g,): [(1, (g,))] for g in gens}
    prev = {(g,): {(g,): 1} for g in gens}
    ln = dict(prev)
    # a word may equal a bracket sequence as a tuple, so the word being
    # rewritten is tagged by a sentinel of its own
    rewritten = object()
    for k in range(2, ctx.lcap + 1):
        cur = {}
        for seq, el in prev.items():
            for g in gens:
                nel = {}
                for w, c in el.items():
                    vec_axpy(nel, c, model.br_ww(w, (g,)))
                cur[seq + (g,)] = nel
        prev = {s: e for s, e in cur.items() if e}
        ln.update(prev)
        basis, _ = ctx.word_block(k)
        ech = Echelon({w: i for i, w in enumerate(basis)})
        for seq in sorted(prev):
            ech.add(prev[seq], tag=seq)
        for w in basis:
            assert ech.add({w: 1}, tag=rewritten) is None, w
            rw[w] = [(-c, s) for s, c in ech.relation.items()
                     if s is not rewritten]
    return rw, ln


class _RefLeftNormedModel(SchoutenDualModel):
    """The dual model with phi(w*) read off the left-normed rewrite, the
    derivation recursing over each bracket sequence without a memo."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self._ref_rw, self._ref_ln = _ref_left_normed_rewrite(self)

    def _phi_ln(self, seq, gv, pphi):
        if len(seq) == 1:
            return dict(gv.get(seq[0], {}))
        pre = seq[:-1]
        qpre = (sum(self.ctx.word_q[(l,)] for l in pre) + len(pre) - 1) % 2
        out = self.leibniz(self._phi_ln(pre, gv, pphi), (seq[-1],), True)
        gvg = gv.get(seq[-1])
        if gvg:
            sg = (-1) ** ((pphi * (qpre + 1)) % 2)
            for w, c in self._ref_ln[pre].items():
                vec_axpy(out, sg * c, self.leibniz(gvg, w, False))
        return out

    def phi_word(self, w, gv, pphi, memo):
        out = {}
        for c, seq in self._ref_rw[w]:
            vec_axpy(out, c, self._phi_ln(seq, gv, pphi))
        return out


@pytest.mark.parametrize("caps, generators", [
    ((3, 3), 2), ((4, 4), 2), ((4, 4), 0)])
def test_hom_differential_matches_the_left_normed_rewrite(caps, generators):
    ctx = SchoutenTruncation(*caps, generators=generators)
    model = SchoutenDualModel(ctx)
    ref = _RefLeftNormedModel(ctx)
    for dP in (schouten_d_product, schouten_d_bracket):
        T = model.transpose(dP)
        for z in model.P:
            for v in ctx.monos:
                f = {(z, v): 1}
                assert (hl.hom_differential(model, T, f)
                        == hl.hom_differential(ref, T, f)), (z, v)


@pytest.mark.parametrize("caps, generators", [
    ((3, 3), 2), ((4, 4), 2), ((5, 5), 2), ((4, 4), 0)])
def test_word_duals_are_combinations_of_standard_brackets(caps, generators):
    ctx = SchoutenTruncation(*caps, generators=generators)
    model = SchoutenDualModel(ctx)
    squares = 0
    for k in range(1, ctx.lcap + 1):
        for w in ctx.word_block(k)[0]:
            got = {}
            for v, c in model._rw[w].items():
                vec_axpy(got, c, model._std[v])
            assert got == {w: 1}, w
            half = w[:k // 2]
            odd_square = w == half + half and ctx.word_q[half] == 0
            squares += odd_square
            assert model._std[w][w] == (2 if odd_square else 1), w
    assert squares or generators == 0


def test_standard_bracket_missing_its_word_raises(monkeypatch):
    monkeypatch.setattr(SchoutenDualModel, "br_ww", lambda self, a, b: {})
    with pytest.raises(HochschildError):
        SchoutenDualModel(SchoutenTruncation(2, 2))


def test_dual_model_eliminates_nothing(monkeypatch):
    calls = []
    add = Echelon.add

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(Echelon, "add", counted)
    model = SchoutenDualModel(SchoutenTruncation(3, 3))
    assert calls == []
    # the counter sees the elimination that the model no longer runs
    _ref_left_normed_rewrite(model)
    assert calls


def test_dual_model_keeps_integer_coefficients():
    ctx = SchoutenTruncation(3, 3)
    model = SchoutenDualModel(ctx)
    Tm = model.transpose(schouten_d_product)
    Tb = model.transpose(schouten_d_bracket)

    def coefficients(table):
        return [c for col in table.values() for c in col.values()]

    # the transposes are filled on first read
    for T in (Tm, Tb):
        for z in model.P:
            T[z]
    for table in (Tm, Tb, model._br, model._std):
        assert all(type(c) is int for c in coefficients(table))
    exact = []
    for k in range(1, ctx.lcap + 1):
        for w in ctx.raw_words(k, ctx.cap):
            exact.extend(ctx.reduce_word(w).values())
    exact.extend(coefficients(model._rw))
    assert all(type(c) in (int, F) for c in exact)
    # an integral coefficient of [d, f] is an int, never Fraction(n, 1)
    commutators = []
    for z in model.P:
        for v in ctx.monos:
            for T in (Tm, Tb):
                commutators.extend(
                    hl.hom_differential(model, T, {(z, v): 1}).values())
    assert commutators
    assert all(type(c) is (int if c.denominator == 1 else F)
               for c in commutators)
    for z in model.P:
        x = {z: 1}
        g = model.g2p(x)
        if model._mult_factor(z) == 1:
            assert type(g[z]) is int
        assert model.p2g(g) == x


def test_hom_differential_rejects_mixed_parity():
    ctx = SchoutenTruncation(2, 2)
    model = SchoutenDualModel(ctx)
    Tm = model.transpose(schouten_d_product)
    labels = [(z, v) for z in model.P for v in ctx.monos]
    even = next(l for l in labels if hl.functional_parity(model, *l) == 0)
    odd = next(l for l in labels if hl.functional_parity(model, *l) == 1)
    mixed = {even: 1, odd: 1}
    with pytest.raises(HochschildError):
        hl.hom_differential(model, Tm, mixed)
    assert hl.hom_differential(model, Tm, {}) == {}


@pytest.mark.parametrize("caps", [(2, 3), (3, 3)])
def test_hom_columns_apply_linearly(caps):
    ctx = SchoutenTruncation(*caps)
    model = SchoutenDualModel(ctx)
    labels = [(z, v) for z in model.P for v in ctx.monos]
    rng = random.Random(sum(caps))
    for dP in (schouten_d_product, schouten_d_bracket):
        T = model.transpose(dP)
        columns = hl._HomColumns(model, T)
        for parity in (0, 1):
            pool = [l for l in labels
                    if hl.functional_parity(model, *l) == parity]
            for _ in range(4):
                f = {lab: rng.choice([-2, -1, 1, 3])
                     for lab in rng.sample(pool, 5)}
                want = hl.hom_differential(model, T, f)
                assert hl._apply(columns, f) == want
                assert {hl.functional_parity(model, *l) for l in want} <= {
                    1 - parity}


def _ref_hom_differential(model, T, f):
    """[d, f] by the per-call loop: Phi_f of every one-letter element, and
    the product-rep column of every one-letter element of T, recomputed on
    each call."""
    parity, = {hl.functional_parity(model, z, v) for z, v in f}
    gv = {v: model.g2p(el) for v, el in hl._letter_values(f).items()}
    memo = {}
    out = {}
    sg = (-1) ** parity
    for m in model.ctx.monos:
        zv = ((m,),)
        G = hl._apply(T, model.p2g(model.phi({zv: 1}, gv, parity, memo)))
        col = T[zv]
        if col:
            vec_axpy(G, -sg, model.p2g(model.phi(model.g2p(col), gv,
                                                 parity, memo)))
        for z, c in G.items():
            out[z, m] = c
    return out


def _ref_transpose(model, op):
    """The transpose z0 -> column of op by the eager loop over all of P."""
    T = {}
    for z in model.P:
        for z0, c in op(model.ctx, z).items():
            vec_acc(T.setdefault(z0, {}), z, c)
    return T


@pytest.mark.parametrize("caps, generators", [
    ((3, 3), 2), ((4, 4), 2), ((4, 4), 0)])
def test_block_transpose_matches_the_eager_loop(caps, generators):
    ctx = SchoutenTruncation(*caps, generators=generators)
    model = SchoutenDualModel(ctx)
    for op in (schouten_d_product, schouten_d_bracket):
        T = model.transpose(op)
        # transpose itself fills only the block of the one-letter elements
        assert T.filled == {(1, 1)}
        ref = _ref_transpose(model, op)
        assert T.letter_columns == {m: model.g2p(ref[((m,),)])
                                    for m in ctx.monos if ((m,),) in ref}
        for z0 in model.P:
            assert list(T[z0].items()) == list(ref.get(z0, {}).items()), z0
        assert T == ref


@pytest.mark.parametrize("op, drop", [
    (schouten_d_product, (1, 1)), (schouten_d_product, (0, 2)),
    (schouten_d_bracket, (0, 1)), (schouten_d_bracket, (1, 2))])
def test_transpose_of_a_wrong_bidegree_raises(op, drop):
    ctx = SchoutenTruncation(3, 3)
    model = SchoutenDualModel(ctx)

    def wrong(ctx, z):
        return op(ctx, z)

    wrong.drop = drop
    with pytest.raises(HochschildError):
        T = model.transpose(wrong)
        for z0 in model.P:
            T[z0]


def _ref_leibniz(model, x, b, right):
    """{x, b*} (right) or {b*, x} by the Leibniz rule, term by term, with
    no table."""
    q = model.ctx.word_q
    out = {}
    qb1 = q[b] + 1
    for z, c in x.items():
        for i, w in enumerate(z):
            passed = z[i + 1:] if right else z[:i]
            koz = sum(q[u] for u in passed) * qb1
            br = model.br_ww(w, b) if right else model.br_ww(b, w)
            for w2, c2 in br.items():
                r = model.sort_mono(list(z[:i]) + [w2] + list(z[i + 1:]))
                if r is None:
                    continue
                s, zz = r
                vec_acc(out, zz, s * (-1) ** (koz % 2) * c * c2)
    return out


def test_leibniz_table_matches_the_per_term_loop():
    ctx = SchoutenTruncation(3, 3)
    model = SchoutenDualModel(ctx)
    words = [w for k in range(1, ctx.lcap + 1) for w in ctx.word_block(k)[0]]
    rng = random.Random(3)
    for b in words:
        for right in (True, False):
            for z in model.P:
                x = {z: 1}
                assert (model.leibniz(x, b, right)
                        == _ref_leibniz(model, x, b, right)), (z, b, right)
            # sums of monomials whose entries are already in the table
            x = {z: rng.choice([-2, 1, F(1, 2), 3])
                 for z in rng.sample(model.P, 6)}
            assert (model.leibniz(x, b, right)
                    == _ref_leibniz(model, x, b, right))
    assert len(model._ad) == 2 * len(words) * len(model.P)


def _ref_phi(model, x, gv, pphi, memo):
    """The derivation with generator values gv on x, with one Koszul sort
    of every term of phi(w*), one-word terms of x included."""
    q = model.ctx.word_q
    out = {}
    for z, c in x.items():
        for i, w in enumerate(z):
            if w not in memo:
                memo[w] = (model.phi_word(w, gv, pphi, memo)
                           if any(l in gv for l in w) else {})
            koz = sum(q[z[r]] for r in range(i)) * pphi
            sc = (-1) ** (koz % 2) * c
            for z2, c2 in memo[w].items():
                r = model.sort_mono(z[:i] + z2 + z[i + 1:])
                if r is not None:
                    vec_acc(out, r[1], sc * r[0] * c2)
    return out


@pytest.mark.parametrize("caps, generators", [((3, 3), 2), ((4, 4), 0)])
def test_phi_one_word_pass_through_matches_the_re_sorting_loop(
        caps, generators):
    ctx = SchoutenTruncation(*caps, generators=generators)
    model = SchoutenDualModel(ctx)
    Tm = model.transpose(schouten_d_product)
    # the letter columns of d_product are one-word terms only
    assert all(len(z) == 1 for col in Tm.letter_columns.values()
               for z in col)
    checked = 0
    for T in (Tm, model.transpose(schouten_d_bracket)):
        for z in model.P:
            for v in ctx.monos:
                parity = hl.functional_parity(model, z, v)
                gv = {u: model.g2p(el)
                      for u, el in hl._letter_values({(z, v): 1}).items()}
                memo, ref_memo = {}, {}
                for col in T.letter_columns.values():
                    got = model.phi(col, gv, parity, memo)
                    assert got == _ref_phi(model, col, gv, parity, ref_memo)
                    checked += bool(got)
    assert checked or generators == 0


@pytest.mark.parametrize("caps, generators", [((3, 3), 2), ((4, 4), 0)])
def test_hom_differential_matches_the_per_call_loop(caps, generators):
    # the reference sends the one-letter term through phi and scans every
    # letter column, where hom_differential reads f and skips the columns
    # that share no letter with f
    ctx = SchoutenTruncation(*caps, generators=generators)
    model = SchoutenDualModel(ctx)
    for dP in (schouten_d_product, schouten_d_bracket):
        T = model.transpose(dP)
        for z in model.P:
            for v in ctx.monos:
                f = {(z, v): 1}
                assert (hl.hom_differential(model, T, f)
                        == _ref_hom_differential(model, T, f))


def test_hom_differential_matches_the_per_call_loop_on_representatives():
    # the internal caps of obstruction_bracket_action(5): representatives
    # and their [d_bracket, -] images carry many labels
    ctx = SchoutenTruncation(7, 4)
    model = SchoutenDualModel(ctx)
    Tm = model.transpose(schouten_d_product)
    Tb = model.transpose(schouten_d_bracket)
    checked = 0
    for k in (1, 2):
        for v in ctx.monos:
            for b in (0, 1):
                rep = hl.e1_representative(ctx, v, k - b, b)
                if not rep:
                    continue
                g = hl.hom_differential(model, Tb, rep)
                assert g == _ref_hom_differential(model, Tb, rep)
                if g:
                    assert (hl.hom_differential(model, Tm, g)
                            == _ref_hom_differential(model, Tm, g))
                    checked += 1
    assert checked > 10


def test_coderivations_lower_gradings():
    ctx = SchoutenTruncation(3, 3)
    for z in ctx.p_basis():
        for z2 in schouten_d_product(ctx, z):
            assert gr2(ctx, z2) == gr2(ctx, z) - 1
            assert gr3(ctx, z2) == gr3(ctx, z)
        for z2 in schouten_d_bracket(ctx, z):
            assert gr3(ctx, z2) == gr3(ctx, z) - 1
            assert gr2(ctx, z2) == gr2(ctx, z)


def test_hom_commutators_exact_in_interior():
    rep = hom_commutator_report(3, 3)
    assert rep["product_square_zero"]
    assert rep["residuals_at_boundary_only"]
    assert rep["all_ok"]


@pytest.mark.parametrize("caps, functionals, bracket_square, anticommute", [
    ((2, 3), 245, 0, 4), ((3, 3), 721, 2, 14), ((3, 4), 1799, 6, 42)])
def test_hom_commutator_report_values(caps, functionals, bracket_square,
                                      anticommute):
    # exact counts: a wrong commutator moves them even where all_ok holds
    assert hom_commutator_report(*caps) == {
        "functionals": functionals, "product_square_zero": True,
        "bracket_square_residuals": bracket_square,
        "anticommute_residuals": anticommute,
        "residuals_at_boundary_only": True, "all_ok": True}


def test_obstruction_E1_matches_model():
    rep = obstruction_E1(2)
    assert rep["all_match"]
    # the safe column-1 slots carry dim V-monomials x 2 classes
    col1 = rep["columns"][1]
    safe = {s: slot["dim"] for s, slot in col1.items() if slot["safe"]}
    assert safe == {-1: 2, 0: 4, 1: 4}


def test_obstruction_E1_interior_rows_vanish():
    rep = obstruction_E1(2)
    for entry in rep["interior_row_column1"].values():
        assert entry["cohomology"] == 0


def test_obstruction_E1_degenerate_W_zero():
    rep = obstruction_E1(2, generators=0)
    assert rep["all_match"]
    for col in rep["columns"].values():
        for slot in col.values():
            if slot["safe"]:
                assert slot["dim"] == 0


def test_bracket_acts_as_de_rham():
    rep = obstruction_bracket_action(2)
    assert rep["all_ok"]
    assert rep["outside_window"] == []
    assert any(c["matches_de_rham"] for c in rep["cases"])


def test_bracket_action_leaves_empty_windows_out_at_weight_cap_1():
    # three column-2 cases have a de Rham image with no support in their
    # comparison window; they are listed, not asserted
    rep = obstruction_bracket_action(1)
    assert rep["all_ok"]
    assert len(rep["cases"]) == 9
    assert [(c["value"], c["powers"]) for c in rep["outside_window"]] == [
        ([0, 1], [2, 0]), ([0, 1], [1, 1]), ([1, 0], [2, 0])]


def test_obstruction_vanishing():
    rep = obstruction_vanishing(4)
    assert rep["all_vanish_except_survivor"]
    assert rep["weights"][0]["cohomology_by_column"] == {0: 1}


def test_obstruction_vanishing_degenerate():
    rep = obstruction_vanishing(3, generators=0)
    assert rep["all_vanish_except_survivor"]
