import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from operadlab.exact_chain import (
    Complex, Echelon, GradedMap, GradedSpace, InhomogeneousRelation,
    SpaceMismatch, StructuralFailure, exact_div, kernel_basis, quotient, span,
    vec_acc, vec_axpy, vec_scale,
)


def F(x):
    return Fraction(x)


def test_vector_arithmetic():
    u = {"a": F(1), "b": F(2)}
    v = {"b": F(-2), "c": F(3)}
    w = dict(u)
    vec_axpy(w, 1, v)
    assert w == {"a": F(1), "c": F(3)}
    w = dict(u)
    vec_axpy(w, -1, u)
    assert w == {}
    assert vec_scale(0, u) == {}


def test_vec_acc_drops_zeros_and_keeps_integers():
    acc = {}
    vec_acc(acc, "x", 2)
    vec_acc(acc, "x", 3)
    assert acc == {"x": 5} and type(acc["x"]) is int
    vec_acc(acc, "x", -5)
    assert acc == {}


def test_graded_map_shift_validation():
    sp = GradedSpace(["x", "y"], {"x": 0, "y": 1})
    GradedMap(sp, sp, 1, {"x": {"y": F(1)}})
    with pytest.raises(Exception):
        GradedMap(sp, sp, 1, {"y": {"x": F(1)}})


@pytest.mark.parametrize("entries, message", [
    ({"w": {"b": 1}}, "unknown source label 'w'"),
    ({"x": {"b": 1, "w": 1}}, "unknown target label 'w'"),
    # a source label is not a target label
    ({"x": {"x": 1}}, "unknown target label 'x'"),
    ({"x": {"a": 1}}, "entry 'x'->'a' violates shift 1"),
    ({"y": {"c": 1, "b": 2}}, "entry 'y'->'b' violates shift 1"),
])
def test_graded_map_names_each_space_mismatch(entries, message):
    source = GradedSpace(["x", "y"], {"x": 0, "y": 1})
    target = GradedSpace(["a", "b", "c"], {"a": 0, "b": 1, "c": 2})
    GradedMap(source, target, 1, {"x": {"b": 1}, "y": {"c": 1}})
    with pytest.raises(SpaceMismatch, match=f"^{re.escape(message)}$"):
        GradedMap(source, target, 1, entries)


@pytest.mark.parametrize("degree", [(0,), True])
def test_graded_space_rejects_a_degree_that_is_not_an_int(degree):
    with pytest.raises(TypeError):
        GradedSpace(["x", "y"], {"x": 0, "y": degree})


def test_compose_identity_and_zero():
    sp = GradedSpace(["x", "y"], {"x": 0, "y": 1})
    ident = GradedMap(sp, sp, 0, {l: {l: 1} for l in sp.labels})
    d = GradedMap(sp, sp, 1, {"x": {"y": F(2)}})
    assert d.compose(ident).entries == d.entries
    assert ident.compose(d).entries == d.entries
    assert d.compose(ident).shift == ident.compose(d).shift == 1
    z = GradedMap.zero(sp, sp, 1)
    assert z.compose(d).entries == {} and d.compose(z).entries == {}
    assert z.compose(d).shift == 2


def test_rank_nullity_random_sparse():
    rng = random.Random(7)
    n, m = 12, 9
    src = GradedSpace([f"s{i}" for i in range(n)], {f"s{i}": 0 for i in range(n)})
    tgt = GradedSpace([f"t{i}" for i in range(m)], {f"t{i}": 0 for i in range(m)})
    entries = {}
    for i in range(n):
        col = {}
        for j in range(m):
            if rng.random() < 0.3:
                col[f"t{j}"] = F(rng.randint(-3, 3))
        entries[f"s{i}"] = col
    f = GradedMap(src, tgt, 0, entries)
    rank = span(map(f.entries.get, src.labels), tgt.index).rank
    ker = kernel_basis(f.entries, list(src.labels), tgt.index)
    assert rank + len(ker) == n
    for k in ker:
        assert f.apply(k) == {}


def test_echelon_contains_and_rank():
    sp = GradedSpace(["a", "b", "c"], {l: 0 for l in "abc"})
    ech = Echelon(sp.index)
    ech.add({"a": F(1), "b": F(1)})
    ech.add({"b": F(1), "c": F(1)})
    assert ech.rank == 2
    assert ech.contains({"a": F(1), "c": F(-1)})
    assert not ech.contains({"a": F(1)})


def test_complex_rejects_bad_differential():
    sp = GradedSpace(["x", "y", "z"], {"x": 0, "y": 1, "z": 2})
    bad = GradedMap(sp, sp, 1, {"x": {"y": F(1)}, "y": {"z": F(1)}})
    with pytest.raises(StructuralFailure):
        Complex(sp, bad)


def test_interval_homology():
    # cellular cochain complex of an interval: two points, one edge
    sp = GradedSpace(["p", "q", "e"], {"p": 0, "q": 0, "e": 1})
    d = GradedMap(sp, sp, 1, {"p": {"e": F(-1)}, "q": {"e": F(1)}})
    c = Complex(sp, d)
    assert c.homology(0)[0] == 1
    assert c.homology(1)[0] == 0
    assert c.euler_characteristic() == 1


def test_circle_homology_and_representatives():
    sp = GradedSpace(["p", "e"], {"p": 0, "e": 1})
    d = GradedMap.zero(sp, sp, 1)
    c = Complex(sp, d)
    dim1, reps = c.homology(1)
    assert dim1 == 1
    assert reps[0] == {"e": F(1)}


def test_homology_invariant_under_basis_reversal():
    rng = random.Random(13)
    labels = [f"x{i}" for i in range(10)]
    degs = {l: rng.randint(0, 2) for l in labels}
    sp = GradedSpace(labels, degs)
    # build a valid differential: random map then force d*d = 0 by using
    # a two-step filtration (entries only from degree 0 to 1)
    entries = {}
    for l in labels:
        if degs[l] == 0:
            col = {}
            for t in labels:
                if degs[t] == 1 and rng.random() < 0.5:
                    col[t] = F(rng.randint(-2, 2))
            entries[l] = col
    d = GradedMap(sp, sp, 1, entries)
    c = Complex(sp, d)
    sp2 = GradedSpace(reversed(labels), degs)
    d2 = GradedMap(sp2, sp2, 1, entries)
    c2 = Complex(sp2, d2)
    assert c.homology_dims() == c2.homology_dims()


def test_quotient_basics():
    sp = GradedSpace(["a", "b", "c"], {l: 0 for l in "abc"})
    q, proj = quotient(sp, [{"a": F(1), "b": F(-1)}])
    assert q.dim == 2
    assert proj.apply({"a": F(1)}) == proj.apply({"b": F(1)})
    assert proj.apply({"a": F(1), "b": F(-1)}) == {}


def test_quotient_rejects_inhomogeneous():
    sp = GradedSpace(["a", "b"], {"a": 0, "b": 1})
    with pytest.raises(InhomogeneousRelation):
        quotient(sp, [{"a": F(1), "b": F(1)}])


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.lists(st.integers(-4, 4), min_size=1, max_size=6))
def test_echelon_reduce_is_idempotent(xs, ys):
    labels = [f"l{i}" for i in range(6)]
    idx = {l: i for i, l in enumerate(labels)}
    ech = Echelon(idx)
    ech.add({labels[i % 6]: F(x) for i, x in enumerate(xs) if x})
    v = {labels[i % 6]: F(y) for i, y in enumerate(ys) if y}
    r = ech.reduce(v)
    assert ech.reduce(r) == r


# ---------------------------------------------------------------------------
# the elimination engine on random sparse columns

@st.composite
def sparse_columns(draw):
    """(columns over targets t0.., target index in a random order)."""
    m = draw(st.integers(1, 6))
    cols = draw(st.lists(
        st.dictionaries(st.sampled_from([f"t{j}" for j in range(m)]),
                        st.integers(-3, 3).filter(bool).map(F), max_size=m),
        min_size=1, max_size=8))
    order = draw(st.permutations([f"t{j}" for j in range(m)]))
    return cols, {t: i for i, t in enumerate(order)}


def _apply(combo, vectors):
    out = {}
    for tag, c in combo.items():
        vec_axpy(out, c, vectors[tag])
    return out


@given(sparse_columns())
def test_echelon_rows_are_normalized_and_back_reduced(case):
    cols, index = case
    ech = span(cols, index)
    for p, row in ech.rows.items():
        assert row[p] == 1
        assert min(row, key=index.__getitem__) == p
        assert not set(row) & (set(ech.rows) - {p})
    assert ech.rank == len(cols) - len(
        kernel_basis(dict(enumerate(cols)), list(range(len(cols))), index))


@given(sparse_columns())
def test_kernel_vectors_are_normalized_on_earlier_independent_sources(case):
    cols, index = case
    sources = list(range(len(cols)))
    independent = []
    ech = Echelon(index)
    for s in sources:
        if ech.add(cols[s]) is not None:
            independent.append(s)
    dependent = [s for s in sources if s not in independent]
    kernel = kernel_basis(dict(enumerate(cols)), sources, index)
    assert len(kernel) == len(dependent)
    for s, k in zip(dependent, kernel):
        assert k[s] == 1
        assert set(k) - {s} <= {i for i in independent if i < s}
        assert _apply(k, cols) == {}


@given(sparse_columns(), st.lists(st.integers(-2, 2), max_size=8))
def test_tagged_dependent_vector_leaves_a_relation(case, coeffs):
    cols, index = case
    ech = Echelon(index)
    for i, col in enumerate(cols):
        ech.add(col, tag=i)
    combo = {}
    for i, c in zip(range(len(cols)), coeffs):
        vec_axpy(combo, F(c), cols[i])
    vectors = dict(enumerate(cols))
    vectors["new"] = combo
    assert ech.add(combo, tag="new") is None
    assert ech.relation["new"] == 1
    assert _apply(ech.relation, vectors) == {}


# ---------------------------------------------------------------------------
# coefficient types: int until a division leaves a non-integral quotient

def _values(*vectors):
    return [c for v in vectors for c in v.values()]


def test_unit_pivots_keep_rows_and_relations_integer():
    index = {l: i for i, l in enumerate("abc")}
    ech = Echelon(index)
    cols = [{"a": 1, "b": -1}, {"a": -1, "c": 2}, {"b": 1, "c": -2}]
    assert ech.add(cols[0], tag=0) is not None
    assert ech.add(cols[1], tag=1) is not None   # pivot b, coefficient -1
    assert ech.add(cols[2], tag=2) is None
    assert ech.rows == {"a": {"a": 1, "c": -2}, "b": {"b": 1, "c": -2}}
    assert ech.relation == {0: 1, 1: 1, 2: 1}
    values = _values(*ech.rows.values(), *ech.combos.values(), ech.relation)
    assert {type(c) for c in values} == {int}


def test_exact_div_keeps_integral_quotients_int():
    for a, b, q in ((6, 3, 2), (-3, -1, 3), (1, 2, Fraction(1, 2)),
                    (Fraction(3, 2), Fraction(3, 4), 2),
                    (4, Fraction(8, 3), Fraction(3, 2))):
        got = exact_div(a, b)
        assert got == q and type(got) is type(q), (a, b)


def test_non_unit_pivot_gives_exact_fraction_rows():
    ech = Echelon({"a": 0, "b": 1, "c": 2})
    ech.add({"a": 2, "b": 1, "c": 4}, tag="x")
    assert ech.rows == {"a": {"a": 1, "b": Fraction(1, 2), "c": 2}}
    assert ech.combos == {"a": {"x": Fraction(1, 2)}}
    # integral entries are int, the others Fraction
    values = _values(*ech.rows.values(), *ech.combos.values())
    assert [type(c) for c in values] == [int, Fraction, int, Fraction]
    ech = Echelon({"a": 0, "b": 1})
    ech.add({"a": Fraction(3, 2), "b": 3})
    assert [type(c) for c in ech.rows["a"].values()] == [int, int]


def test_back_reduction_keeps_integral_entries_int():
    ech = Echelon({"a": 0, "b": 1, "c": 2})
    ech.add({"a": 2, "b": 1}, tag="x")
    ech.add({"b": Fraction(1, 2), "c": 1}, tag="y")
    assert ech.rows == {"a": {"a": 1, "c": -1}, "b": {"b": 1, "c": 2}}
    assert ech.combos == {"a": {"x": Fraction(1, 2), "y": -1},
                          "b": {"y": 2}}
    values = _values(*ech.rows.values(), *ech.combos.values())
    assert [type(c) for c in values] == [int] * 4 + [Fraction] + [int] * 2


def test_reduce_returns_integral_entries_int():
    ech = Echelon({"a": 0, "b": 1, "c": 2})
    ech.add({"a": 2, "b": 1})
    red = ech.reduce({"a": 4, "b": 1, "c": 1})
    assert red == {"b": -1, "c": 1}
    assert [type(c) for c in red.values()] == [int, int]
    assert [type(c) for c in ech.add({"a": 4, "b": 1, "c": 1}).values()] \
        == [int, int]


@given(sparse_columns())
def test_integer_and_fraction_columns_give_the_same_vectors(case):
    cols, index = case
    int_cols = [{k: int(v) for k, v in col.items()} for col in cols]
    sources = list(range(len(cols)))
    kernels = [kernel_basis(dict(enumerate(c)), sources, index)
               for c in (cols, int_cols)]
    assert kernels[0] == kernels[1]
    # the same map as a complex: sources in degree 0, targets in degree 1
    sp = GradedSpace([*sources, *index],
                     {**{s: 0 for s in sources}, **{t: 1 for t in index}})
    homs = [[Complex(sp, GradedMap(sp, sp, 1, dict(enumerate(c))))
             .homology(n) for n in (0, 1)] for c in (cols, int_cols)]
    assert homs[0] == homs[1]
    ech = span(int_cols, index)
    values = _values(*ech.rows.values(), *kernels[1],
                     *(z for _, reps in homs[1] for z in reps))
    assert all(type(c) in (int, Fraction) for c in values)
