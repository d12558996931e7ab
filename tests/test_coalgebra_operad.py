from fractions import Fraction

import pytest

from operadlab import associahedra as ah
from operadlab.coalgebra_operad import (
    CoalgebraError, CoalgebraOperad, DgCoalgebra, build_A, counit_morphism,
    delta_cell,
)
from operadlab.exact_chain import (
    GradedMap, GradedSpace, vec_acc, vec_axpy, vec_clean,
)
from operadlab.operad_core import Leaf, OperadElement, corolla, tree_degree
from test_associahedra import _ref_delta_cell, cells_of_dimension

F = Fraction


def check_morphism(f, source: DgCoalgebra, target: DgCoalgebra):
    """Raise unless the degree-0 map given by columns f is a dg coalgebra
    morphism."""
    for x in source.space.labels:
        fx = vec_clean(f.get(x, {}))
        # chain map
        lhs = {}
        for y, c in source.d.column(x).items():
            vec_axpy(lhs, c, f.get(y, {}))
        rhs = {}
        for y, c in fx.items():
            vec_axpy(rhs, c, target.d.column(y))
        if lhs != rhs:
            raise CoalgebraError(f"not a chain map at {x!r}")
        # comultiplication
        lhs2: dict = {}
        for (a, b), c in source.delta.get(x, {}).items():
            for a2, ca in f.get(a, {}).items():
                for b2, cb in f.get(b, {}).items():
                    vec_acc(lhs2, (a2, b2), c * ca * cb)
        rhs2: dict = {}
        for y, c in fx.items():
            vec_axpy(rhs2, c, target.delta.get(y, {}))
        if lhs2 != rhs2:
            raise CoalgebraError(f"comultiplication not respected at {x!r}")
        # counit
        if source.eps_of(x) != target.eps_chain(fx):
            raise CoalgebraError(f"counit not respected at {x!r}")


def ground_coalgebra(label="1") -> DgCoalgebra:
    """The ground field as a coalgebra on one grouplike generator."""
    sp = GradedSpace((label,), {label: 0})
    d = GradedMap.zero(sp, sp, 1)
    g = DgCoalgebra(sp, d, {label: {(label, label): 1}}, {label: 1})
    g.validate()
    return g


APEX = ("apex",)


def _t(label):
    return ("T", label)


def cone(a: DgCoalgebra) -> DgCoalgebra:
    """Cone over a counital dg coalgebra, validated.

    Basis: the labels of a, a degree-shifted copy T(label), and the apex.
    d(Tu) = u - T(du) - eps(u) apex;  Delta(Tu) = (T ox id)Delta(u)
    + apex ox Tu;  the apex is grouplike.
    """
    labels = list(a.space.labels)
    for l in a.space.labels:
        if _t(l) in a.space.index or l == APEX:
            raise CoalgebraError("label clash while building the cone")
        labels.append(_t(l))
    labels.append(APEX)
    degrees = dict(a.space.degrees)
    for l in a.space.labels:
        degrees[_t(l)] = a.space.degree(l) - 1
    degrees[APEX] = 0
    sp = GradedSpace(labels, degrees)

    entries = {l: a.d.column(l) for l in a.space.labels}
    for l in a.space.labels:
        col = {l: 1}
        for m, c in a.d.column(l).items():
            vec_acc(col, _t(m), -c)
        vec_acc(col, APEX, -a.eps_of(l))
        entries[_t(l)] = col
    d = GradedMap(sp, sp, a.d.shift, entries)

    delta = {l: a.delta_of(l) for l in a.space.labels}
    for l in a.space.labels:
        col = {(_t(x), y): c for (x, y), c in a.delta_of(l).items()}
        vec_acc(col, (APEX, _t(l)), 1)
        delta[_t(l)] = col
    delta[APEX] = {(APEX, APEX): 1}

    counit = dict(a.counit)
    counit[APEX] = 1
    c = DgCoalgebra(sp, d, delta, counit)
    c.validate()
    return c


def delta_chain(e: OperadElement) -> dict:
    """The coproduct of a chain, by the vertex-wise reference, so that the
    morphism checks do not test K(n)'s coproduct table against itself."""
    out: dict = {}
    for t, c in e.terms.items():
        vec_axpy(out, c, _ref_delta_cell(t))
    return out


def cone_map(phi, a, cone_b, check=True):
    """Extend a coalgebra morphism phi: a -> cone(b) over the cone of a.

    Columns of the result: on a it is phi; on T(u) it is T applied to the
    component of phi(u) lying in b; the apex goes to the apex.
    """
    if check:
        check_morphism(phi, a, cone_b)
    # the base labels of cone_b are those whose T-copy is also present
    base = {l for l in cone_b.space.labels
            if l != APEX and _t(l) in cone_b.space.index}
    out = {l: dict(phi.get(l, {})) for l in a.space.labels}
    for l in a.space.labels:
        out[_t(l)] = {_t(m): c for m, c in phi.get(l, {}).items() if m in base}
    out[APEX] = {APEX: 1}
    return out


def as_operad(max_arity=8):
    """The terminal coalgebra operad: the ground field in every arity."""
    arities = {n: ground_coalgebra(("one", n)) for n in range(0, max_arity + 1)}

    def compose_fn(p, q, l, x, y):
        cx = x.get(("one", p), 0)
        cy = 1 if y is None else y.get(("one", q), 0)
        return {("one", p + q - 1): cx * cy}

    return CoalgebraOperad(arities, compose_fn, "As")


def coalgebra_of_boundary(n):
    """The chain coalgebra of the decomposed boundary of K(n)."""
    cx = ah.decompose(n)
    labels = [t for t in cx.space.labels if t.nverts >= 2]
    sp = GradedSpace(labels, {t: cx.space.degree(t) for t in labels})
    d = GradedMap(sp, sp, 1,
                  {t: {s: c for s, c in ah.boundary(t).terms.items()}
                   for t in labels})
    delta = {t: delta_cell(t) for t in labels}
    counit = {t: 1 for t in labels if tree_degree(t) == 0}
    return DgCoalgebra(sp, d, delta, counit)


def test_ground_coalgebra_valid():
    g = ground_coalgebra()
    g.validate()


def test_cone_of_point():
    g = ground_coalgebra("a")
    c = cone(g)  # validated on construction
    assert set(c.space.labels) == {"a", _t("a"), APEX}
    assert c.d.column(_t("a")) == {"a": F(1), APEX: F(-1)}
    assert c.delta_of(_t("a")) == {(_t("a"), "a"): F(1), (APEX, _t("a")): F(1)}
    assert c.eps_of(APEX) == 1 and c.eps_of("a") == 1 and c.eps_of(_t("a")) == 0


def test_cone_with_odd_primitive_valid():
    # grouplike g plus an odd primitive x: Delta x = x ox g + g ox x
    sp = GradedSpace(("g", "x"), {"g": 0, "x": 1})
    d = GradedMap.zero(sp, sp, 1)
    delta = {"g": {("g", "g"): F(1)},
             "x": {("x", "g"): F(1), ("g", "x"): F(1)}}
    a = DgCoalgebra(sp, d, delta, {"g": F(1), "x": F(0)})
    a.validate()
    cone(a).validate()


def test_cone_rejects_label_clash():
    with pytest.raises(CoalgebraError):
        cone(cone(ground_coalgebra("a")))


def _iso_to_A(n):
    """Label bijection cone(boundary coalgebra of K(n)) -> cells of K(n)."""
    def fwd(l):
        if l == APEX:
            return ah.point_cell(2) if n == 2 else corolla(ah.apex_symbol(n))
        if isinstance(l, tuple) and len(l) == 2 and l[0] == "T":
            return corolla(ah.cone_symbol(l[1]))
        return l
    return fwd


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cone_of_boundary_is_A(n):
    bd = coalgebra_of_boundary(n)
    cb = cone(bd)
    fwd = _iso_to_A(n)
    cells = set(ah.decompose(n).cells)
    assert {fwd(l) for l in cb.space.labels} == cells
    for l in cb.space.labels:
        assert cb.space.degree(l) == tree_degree(fwd(l))
        want_d = {fwd(m): c for m, c in cb.d.column(l).items()}
        got_d = dict(ah.boundary(fwd(l)).terms)
        assert want_d == got_d, l
        want_delta = {(fwd(a), fwd(b)): c for (a, b), c in cb.delta_of(l).items()}
        assert want_delta == delta_cell(fwd(l)), l


def test_cell_coproducts_are_integer():
    for n in (4, 5):
        for t in ah.decompose(n).cells:
            assert all(type(c) is int for c in delta_cell(t).values())


def test_A3_edge_coproduct():
    # Delta(cone over a boundary vertex v) = (T v) ox v + apex ox (T v)
    cx = ah.decompose(3)
    v = next(t for t in cells_of_dimension(cx, 0) if t.nverts == 2)
    apex = next(t for t in cells_of_dimension(cx, 0) if t.nverts == 1)
    edge = corolla(ah.cone_symbol(v))
    assert delta_cell(edge) == {(edge, v): F(1), (apex, edge): F(1)}


def test_delta_cell_matches_one_vertex_at_a_time():
    for n in range(0, 7):
        for t in ah.decompose(n).cells:
            assert delta_cell(t) == _ref_delta_cell(t), t


def test_A_invariants_small():
    a = build_A(5)
    for n in range(0, 6):
        a.coalgebra(n).validate()


def test_A_invariants_arity6():
    build_A(6).coalgebra(6).validate()


def test_A2_is_trivial():
    a = build_A(2)
    c = a.coalgebra(2)
    assert c.space.dim == 1
    l = c.space.labels[0]
    assert c.delta_of(l) == {(l, l): F(1)}
    assert c.eps_of(l) == 1


def _check_compose_coalgebra_morphism(p, q, l):
    """Delta(x o_l y) = sum with Koszul sign (-1)^{|y'||x''|} of
    (x' o y') ox (x'' o y''), plus the counit condition."""
    for x in ah.decompose(p).cells:
        ex = OperadElement.from_tree(x)
        for y in ah.decompose(q).cells:
            ey = OperadElement.from_tree(y)
            g = ah.insert_chain(p, q, l, ex, ey)
            lhs = delta_chain(g)
            rhs = {}
            for (x1, x2), c1 in delta_cell(x).items():
                for (y1, y2), c2 in delta_cell(y).items():
                    s = -1 if (tree_degree(y1) % 2) and (tree_degree(x2) % 2) else 1
                    g1 = ah.insert_chain(p, q, l, OperadElement.from_tree(x1),
                                         OperadElement.from_tree(y1))
                    g2 = ah.insert_chain(p, q, l, OperadElement.from_tree(x2),
                                         OperadElement.from_tree(y2))
                    for t1, a1 in g1.terms.items():
                        for t2, a2 in g2.terms.items():
                            k = (t1, t2)
                            rhs[k] = rhs.get(k, F(0)) + s * c1 * c2 * a1 * a2
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs, (p, q, l, x, y)
            # counit
            eg = counit_morphism(g)
            assert eg == counit_morphism(x) * counit_morphism(y)


def test_compose_is_coalgebra_morphism():
    for p, q in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)):
        for l in range(1, p + 1):
            _check_compose_coalgebra_morphism(p, q, l)


def test_insert0_is_coalgebra_morphism():
    for n in range(3, 6):
        for x in ah.decompose(n).cells:
            ex = OperadElement.from_tree(x)
            for j in range(1, n + 1):
                img = ah.insert_chain(n, 0, j, ex)
                lhs = delta_chain(img)
                rhs = {}
                for (a, b), c in delta_cell(x).items():
                    ga = ah.insert_chain(n, 0, j, OperadElement.from_tree(a))
                    gb = ah.insert_chain(n, 0, j, OperadElement.from_tree(b))
                    for t1, a1 in ga.terms.items():
                        for t2, a2 in gb.terms.items():
                            k = (t1, t2)
                            rhs[k] = rhs.get(k, F(0)) + c * a1 * a2
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, (n, j, x)
                assert counit_morphism(img) == counit_morphism(x)


def test_cone_map_of_grouplike_inclusion():
    a = ground_coalgebra("p")
    b = ground_coalgebra("q")
    cb = cone(b)
    phi = {"p": {APEX: F(1)}}
    cphi = cone_map(phi, a, cb)
    assert cphi[APEX] == {APEX: F(1)}
    check_morphism(cphi, cone(a), cb)


def test_cone_map_rejects_non_morphism():
    a = ground_coalgebra("p")
    cb = cone(ground_coalgebra("q"))
    bad = {"p": {_t("q"): F(1)}}
    with pytest.raises(CoalgebraError):
        cone_map(bad, a, cb)


def test_cone_map_extends_identity():
    b = coalgebra_of_boundary(3)
    cb = cone(b)
    phi = {l: {l: F(1)} for l in b.space.labels}
    cphi = cone_map(phi, b, cb)
    ident = {l: {l: F(1)} for l in cb.space.labels}
    assert {k: v for k, v in cphi.items() if v} == ident


@pytest.mark.parametrize("n", [3, 4, 5])
def test_insert0_equals_cone_extension(n):
    # restriction of the slot-deletion map to the boundary, extended over
    # the cone, is the whole slot-deletion map
    bd_n = coalgebra_of_boundary(n)
    # for n = 3 the target is the one-point arity-2 complex, not a cone over
    # a smaller boundary, so it gets its own tiny coalgebra below
    if n == 3:
        tgt = cone(ground_coalgebra_for_point())
    else:
        tgt = cone(coalgebra_of_boundary(n - 1))
    back = _iso_from_A(n - 1)
    for j in range(1, n + 1):
        phi = {}
        for t in bd_n.space.labels:
            img = ah.insert_chain(n, 0, j, OperadElement.from_tree(t))
            phi[t] = {back(s): c for s, c in img.terms.items()}
        cphi = cone_map(phi, bd_n, tgt)
        # compare with the full map on every cell of K(n)
        fwd = _iso_to_A(n)
        for l, col in cphi.items():
            src = fwd(l)
            want = ah.insert_chain(n, 0, j, OperadElement.from_tree(src))
            got = {}
            fwd_t = _iso_to_A(n - 1)
            for m, c in col.items():
                got[fwd_t(m)] = c
            assert got == dict(want.terms), (n, j, l)


def ground_coalgebra_for_point():
    """The boundary coalgebra of K(2): the single point cell."""
    pt = ah.point_cell(2)
    sp = GradedSpace((pt,), {pt: 0})
    d = GradedMap.zero(sp, sp, 1)
    g = DgCoalgebra(sp, d, {pt: {(pt, pt): F(1)}}, {pt: F(1)})
    g.validate()
    return g


def _iso_from_A(n):
    def back(cell):
        if cell.nverts >= 2:
            return cell
        if isinstance(cell, Leaf):
            raise AssertionError("identity cell has no cone description")
        if ah.is_cone(cell.symbol):
            return _t(cell.symbol.payload)
        return APEX
    return back


def test_as_operad():
    aso = as_operad(4)
    for n in range(0, 5):
        aso.coalgebra(n).validate()
    one = {("one", 3): F(1)}
    other = {("one", 0): F(1)}
    assert aso.compose(3, 0, 2, one, other) == {("one", 2): F(1)}


def test_counit_morphism_values():
    ah.decompose(4)
    assert counit_morphism(corolla(ah.apex_symbol(4))) == 1
    for k in (3, 4):
        assert counit_morphism(ah.fundamental_class(k)) == 0
    assert counit_morphism(ah.fundamental_class(2)) == 1


def test_counit_quasi_isomorphism():
    for n in range(2, 7):
        cx = ah.decompose(n)
        dims = cx.homology_dims()
        assert dims[0] == 1 and all(v == 0 for k, v in dims.items() if k != 0)
        _, reps = cx.complex.homology(0)
        rep = OperadElement(n, reps[0])
        assert counit_morphism(rep) != 0

