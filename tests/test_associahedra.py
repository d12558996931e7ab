import copy
import itertools
from fractions import Fraction

import pytest

from operadlab import associahedra as ah
from operadlab.associahedra import (
    CellComplex, CellError, apex_symbol, augmentation, boundary,
    boundary_fundamental_cycle, cone_symbol, decompose, dimension, facets,
    fundamental_class, insert, insert_chain, point_cell,
)
from operadlab.exact_chain import span, vec_acc
from operadlab.operad_core import (
    FreeDifferential, Leaf, Node, OperadElement, corolla, graft_tree,
)


def test_points():
    for n in (0, 1, 2):
        cx = decompose(n)
        assert cx.counts() == {0: 1}
        assert cx.top_dimension() == 0


def test_k3_counts():
    cx = decompose(3)
    assert cx.counts() == {0: 3, 1: 2}
    assert cx.euler_characteristic() == 1


def test_k4_counts():
    cx = decompose(4)
    assert cx.counts() == {0: 11, 1: 20, 2: 10}
    assert cx.euler_characteristic() == 1


def test_contractibility_up_to_6():
    for n in range(2, 7):
        cx = decompose(n)
        assert cx.euler_characteristic() == 1
        dims = cx.homology_dims()
        assert dims[0] == 1
        assert all(v == 0 for k, v in dims.items() if k != 0)
        assert cx.top_dimension() == max(n - 2, 0)
        # the cone's contracting homotopy certifies the same homology
        assert cx.contracting_homotopy_holds()


def _tampered(cx, **attrs):
    """A copy of cx with some attributes replaced and no certificate yet."""
    bad = copy.copy(cx)
    bad._contractible = None
    for name, value in attrs.items():
        setattr(bad, name, value)
    return bad


def test_certificate_fails_on_a_flipped_border_coefficient():
    cx = decompose(4)
    flips = [(b, s) for b in cx.cone for s in cx.d.entries.get(b, {})]
    assert len(flips) == 20  # the 10 border edges, two ends each
    for b, s in flips:
        d = copy.copy(cx.d)
        d.entries = dict(cx.d.entries)
        d.entries[b] = dict(d.entries[b])
        d.entries[b][s] = -d.entries[b][s]
        assert not _tampered(cx, d=d).contracting_homotopy_holds(), (b, s)
    assert cx.contracting_homotopy_holds()


def test_certificate_fails_without_one_cone_entry():
    cx = decompose(4)
    for b in cx.cone:
        cone = {k: v for k, v in cx.cone.items() if k is not b}
        assert not _tampered(cx, cone=cone).contracting_homotopy_holds(), b
    assert cx.contracting_homotopy_holds()


def test_apex_represents_the_homology_of_a_point():
    for n in range(2, 6):
        cx = decompose(n)
        assert augmentation(OperadElement.from_tree(cx.apex)) == 1
        dim, (rep,) = cx.complex.homology(0)
        assert dim == 1
        # rep - eps(rep) * apex is a boundary
        diff = dict(rep)
        vec_acc(diff, cx.apex, -augmentation(OperadElement(n, rep)))
        image = span(map(cx.d.entries.get, cx.space.labels_of_degree1(-1)),
                     cx.space.index)
        assert image.contains(diff), n


def test_boundary_of_vertex_is_zero():
    cx = decompose(4)
    for t in cx.cells_of_dimension(0):
        assert boundary(t).is_zero()


def test_cone_over_boundary_vertex_of_k3():
    cx = decompose(3)
    v = cx.cells_of_dimension(0)[0]
    # pick a boundary vertex (two tree vertices)
    v = next(t for t in cx.cells_of_dimension(0) if t.nverts == 2)
    apex = next(t for t in cx.cells_of_dimension(0) if t.nverts == 1)
    edge = corolla(cone_symbol(v))
    db = boundary(edge)
    assert db == OperadElement.from_tree(v).sub(OperadElement.from_tree(apex))


def test_insert_22_gives_boundary_vertex_of_k3():
    pt = point_cell(2)
    cell = insert(2, 2, 1, pt, pt)
    cx = decompose(3)
    assert cell in cx.cells
    assert dimension(cell) == 0 and cell.nverts == 2


def test_insert_q1_identity():
    pt = point_cell(2)
    assert insert(2, 1, 1, pt, point_cell(1)) == pt


def test_insert0_maps_apex_to_apex():
    for n in range(2, 7):
        decompose(n)
        apex = point_cell(2) if n == 2 else \
            next(t for t in decompose(n).cells_of_dimension(0)
                 if t.nverts == 1)
        for j in range(1, n + 1):
            img = insert(n, 0, j, apex)
            if n == 2:
                from operadlab.operad_core import Leaf
                assert img == Leaf(1)
            else:
                assert img.nverts == 1 and dimension(img) == 0
                assert img in decompose(n - 1).cells


def test_insert0_is_chain_map():
    for n in range(3, 6):
        cx = decompose(n)
        for t in cx.cells:
            for j in range(1, n + 1):
                lhs = insert_chain(n, 0, j, boundary(t))
                rhs = boundary(insert_chain(n, 0, j, OperadElement.from_tree(t)))
                assert lhs == rhs, (n, j, t)


def test_insert_q2_is_chain_map():
    # graft Leibniz: d(a o_l b) = da o_l b + (-1)^{|a|} a o_l db
    for p, q in ((2, 3), (3, 2), (3, 3), (2, 4), (4, 2)):
        cxp, cxq = decompose(p), decompose(q)
        for a in cxp.cells:
            for b in cxq.cells:
                ea = OperadElement.from_tree(a)
                eb = OperadElement.from_tree(b)
                sa = -1 if dimension(a) % 2 else 1
                for l in range(1, p + 1):
                    lhs = boundary(insert_chain(p, q, l, ea, eb))
                    rhs = insert_chain(p, q, l, boundary(ea), eb).add(
                        insert_chain(p, q, l, ea, boundary(eb)).scale(sa))
                    assert lhs == rhs, (p, q, l, a, b)


def test_commuting_square_two_deletions():
    # deleting slot j then slot i (i < j) equals deleting i then j-1
    for n in range(3, 6):
        cx = decompose(n)
        for t in cx.cells:
            e = OperadElement.from_tree(t)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                lhs = insert_chain(n - 1, 0, i, insert_chain(n, 0, j, e))
                rhs = insert_chain(n - 1, 0, j - 1, insert_chain(n, 0, i, e))
                assert lhs == rhs, (n, i, j, t)


def test_commuting_square_deletion_vs_graft():
    # deleting a slot routed through a product face agrees with deleting in
    # the appropriate factor
    for p, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        n = p + q - 1
        for a in decompose(p).cells:
            for b in decompose(q).cells:
                ea = OperadElement.from_tree(a)
                eb = OperadElement.from_tree(b)
                for l in range(1, p + 1):
                    g = insert_chain(p, q, l, ea, eb)
                    for j in range(1, n + 1):
                        lhs = insert_chain(n, 0, j, g)
                        if l <= j <= l + q - 1:
                            if q == 2:
                                rhs = insert_chain(p, 1, l, ea)
                            else:
                                rhs = insert_chain(
                                    p, q - 1, l, ea,
                                    insert_chain(q, 0, j - l + 1, eb))
                        elif j < l:
                            rhs = insert_chain(p - 1, q, l - 1,
                                               insert_chain(p, 0, j, ea), eb)
                        else:
                            rhs = insert_chain(p - 1, q, l,
                                               insert_chain(p, 0, j - q + 1, ea),
                                               eb)
                        assert lhs == rhs, (p, q, l, j, a, b)


def test_intersections_agree():
    # a cell reachable through two different facets is the same tree with
    # the same boundary; check every facet pair for p+q+r <= 8
    for n in range(4, 7):
        fs = facets(n)
        cells_seen = {}
        for key, cells in fs.items():
            for t in cells:
                cells_seen.setdefault(t, []).append(key)
        shared = [t for t, ks in cells_seen.items() if len(ks) > 1]
        assert shared, f"no shared intersection cells at n={n}"
        for t in shared:
            boundary(t)  # well-defined independent of the facet


def test_facets_match_grafted_cells():
    for n in range(0, 7):
        want = {}
        for q in range(2, n):
            p = n + 1 - q
            for l in range(1, p + 1):
                want[(p, q, l)] = frozenset(
                    graft_tree(a, b, l)[1]
                    for a in decompose(p).cells for b in decompose(q).cells)
        assert facets(n) == want, n


def test_facet_counts():
    assert len(facets(4)) == 5
    assert len(facets(5)) == 9


def test_fundamental_class_mu2_mu3():
    mu2 = fundamental_class(2)
    assert mu2 == OperadElement.from_tree(point_cell(2))
    mu3 = fundamental_class(3)
    d = boundary(mu3)
    g1 = insert_chain(2, 2, 1, mu2, mu2)
    g2 = insert_chain(2, 2, 2, mu2, mu2)
    assert d == g1.sub(g2)


@pytest.mark.parametrize("k", range(3, 7))
def test_difmu(k):
    mu = fundamental_class(k)
    assert boundary(mu) == boundary_fundamental_cycle(k)
    # the cycle really is a cycle and carries no vertex component
    cyc = boundary_fundamental_cycle(k)
    assert boundary(cyc).is_zero()


def test_fundamental_class_is_sum_of_top_cells():
    for k in (2, 3, 4, 5):
        mu = fundamental_class(k)
        top = set(decompose(k).cells_of_dimension(k - 2))
        assert set(mu.terms) == top
        assert all(type(c) is int and c in (1, -1) for c in mu.terms.values())


def test_boundary_coefficients_are_integers():
    # cellular chains are integral: no coefficient becomes a Fraction
    for n in range(6):
        d = decompose(n).complex.d
        assert all(type(c) is int
                   for col in d.entries.values() for c in col.values())


def test_insert_errors():
    pt = point_cell(2)
    with pytest.raises(CellError):
        insert(2, 2, 3, pt, pt)
    with pytest.raises(CellError):
        insert_chain(2, -1, 1, OperadElement.from_tree(pt))


def test_cone_boundary_needs_no_decomposition():
    # b = O7(O2(1,2),3,...,8) is a boundary vertex of K(8); d(T b) = b - O8
    # follows from b alone, whether or not decompose(8) has run
    b = Node(apex_symbol(7), (corolla(apex_symbol(2)),)
             + tuple(Leaf(i) for i in range(3, 9)))
    tb = OperadElement.from_tree(corolla(cone_symbol(b)))
    db = boundary(tb)
    assert db == OperadElement.from_tree(b).sub(
        OperadElement.from_tree(corolla(apex_symbol(8))))
    assert boundary(db).is_zero()


def test_decompose_defines_the_cone_values_of_the_rule():
    # each cone column is read from its base's column, and kept as the
    # value of the cone generator; the rule gives the same value afresh
    rule = FreeDifferential(ah._cell_differential)
    for n in range(3, 7):
        cx = decompose(n)
        for tb in cx.cone.values():
            kept = ah._diff.value(tb.symbol)
            assert kept == rule.value(tb.symbol), tb
            assert cx.d.column(tb) == kept.terms


def test_define_checks_the_value_it_keeps():
    tb = next(iter(decompose(3).cone.values()))
    d = FreeDifferential(ah._cell_differential)
    g = tb.symbol
    with pytest.raises(ValueError, match="degree"):
        d.define(g, OperadElement.from_tree(tb))
    with pytest.raises(ValueError, match="arity"):
        d.define(g, OperadElement.from_tree(point_cell(2)))
    assert g not in d._values
    value = d.rule(g)
    d.define(g, value)
    d.define(g, value.scale(1))  # an equal value is fine
    with pytest.raises(ValueError, match="already defined"):
        d.define(g, value.scale(-1))
    assert d.value(g) is value


def test_cone_table_must_hold_every_border_face():
    # a border vertex missing from the cone table cannot be coned when the
    # cone over an edge through it is built
    cx = decompose(4)
    v = next(b for b in cx.cone if dimension(b) == 0)
    cone = {b: tb for b, tb in cx.cone.items() if b is not v}
    with pytest.raises(CellError, match="not a border cell"):
        CellComplex(4, cx.apex, cone)
