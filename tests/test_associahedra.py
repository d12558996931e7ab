import copy
import functools
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from operadlab import associahedra as ah
from operadlab.associahedra import (
    CellComplex, CellError, apex_symbol, augmentation, boundary,
    boundary_fundamental_cycle, cone_chain, cone_symbol, decompose,
    dimension, fundamental_class, insert_chain, point_cell,
)
from operadlab import cli_report
from operadlab.coalgebra_operad import delta_cell
from operadlab.exact_chain import span, vec_acc
from operadlab.operad_core import (
    FreeDifferential, Leaf, Node, OperadElement, corolla, format_tree,
    graft_tree, transpose_sign, tree_degree, tree_vertices,
)


def top_dimension(cx):
    return max((dimension(t) for t in cx.cells), default=0)


def cells_of_dimension(cx, k: int):
    return [t for t in cx.space.labels if tree_degree(t) == -k]


def insert(p: int, q: int, l: int, cell_p, cell_q=None):
    """Cell-level insertion; returns the image cell, or None if the image
    is degenerate (q = 0 collapse)."""
    cq = None if cell_q is None else OperadElement.from_tree(cell_q)
    res = insert_chain(p, q, l, OperadElement.from_tree(cell_p), cq)
    if res.is_zero():
        return None
    (t, c), = res.terms.items()
    if c not in (1, -1):
        raise CellError("unexpected coefficient on a cell image")
    return t


def facets(n: int) -> dict:
    """Coarse facets of K(n): (p, q, l) -> frozenset of decomposed cells."""
    return {key: frozenset(t for t, _ in group.values())
            for key, group in ah._facet_groups(n)}


@functools.cache
def ref_cell_differential() -> FreeDifferential:
    """The cell boundary that reads no table of K(n), built once for the
    tests: the free derivation of the cone rule, applied recursively to
    each generator,

        d(apex) = 0,    d(T b) = b - T(db) - aug(b) * apex."""
    def rule(sym):
        if not ah.is_cone(sym):
            return None
        b = OperadElement.from_tree(sym.payload)
        val = b.sub(cone_chain(d(b)))
        eps = augmentation(b)
        if eps:
            val = val.sub(OperadElement.from_tree(
                corolla(apex_symbol(sym.arity)), eps))
        return val
    d = FreeDifferential(rule)
    return d


def _ref_replace_vertex(tree, path, value):
    """One vertex replaced, the whole tree rebuilt for every term, with the
    interleaving sign of each child block read off the replacement."""
    target = tree
    for i in path:
        target = target.children[i]
    terms = {}
    for s, c in value.terms.items():
        before = 0
        odd = 0
        stack = [s]
        while stack:
            u = stack.pop()
            if isinstance(u, Leaf):
                child = target.children[u.label - 1]
                odd += tree_degree(child) * (tree_degree(s) - before)
            else:
                before += u.symbol.degree
                stack.extend(reversed(u.children))

        def build(u):
            if isinstance(u, Leaf):
                return target.children[u.label - 1]
            return Node(u.symbol, tuple(build(ch) for ch in u.children))

        def rebuild(u, p):
            if p == path:
                return build(s)
            if isinstance(u, Leaf):
                return u
            return Node(u.symbol, tuple(rebuild(ch, p + (i,))
                                        for i, ch in enumerate(u.children)))

        vec_acc(terms, rebuild(tree, ()), (-1) ** (odd % 2) * c)
    return OperadElement(tree.nleaves, terms)


@functools.cache
def _ref_delta_cell(t):
    """The vertex-wise coproduct that reads no table of K(n): the product
    over the vertices of each generator's coproduct, the second component
    built by replacing one vertex at a time, later vertices first."""
    if isinstance(t, Leaf):
        return {(t, t): 1}
    verts = tree_vertices(t)
    choices = []
    for _, sym in verts:
        own = (1, sym, OperadElement.from_tree(corolla(sym)))
        if not ah.is_cone(sym):
            choices.append([own])
            continue
        cs = [(c, ah.cone_symbol(x), OperadElement.from_tree(y))
              for (x, y), c in _ref_delta_cell(sym.payload).items()]
        choices.append(cs + [(1, ah.apex_symbol(sym.arity), own[2])])
    out = {}
    for combo in itertools.product(*choices):
        coeff = 1
        for c, _, _ in combo:
            coeff *= c
        sign = transpose_sign([(g.degree, e.degree()) for _, g, e in combo])
        firsts = {path: g for (path, _), (_, g, _) in zip(verts, combo)}

        def decorate(u, p):
            if isinstance(u, Leaf):
                return u
            return Node(firsts[p], tuple(decorate(c, p + (k,))
                                         for k, c in enumerate(u.children)))

        t1 = decorate(t, ())
        acc = OperadElement.from_tree(t)
        for (path, _), (_, _, e) in reversed(list(zip(verts, combo))):
            acc = acc.map_trees(
                lambda tr, p=path, v=e: _ref_replace_vertex(tr, p, v))
        for t2, c2 in acc.terms.items():
            vec_acc(out, (t1, t2), coeff * sign * c2)
    return out


def test_points():
    for n in (0, 1, 2):
        cx = decompose(n)
        assert cx.counts() == {0: 1}
        assert top_dimension(cx) == 0


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
        assert top_dimension(cx) == max(n - 2, 0)
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
        image = span(map(cx.d.entries.get, cx.space.labels_of_degree(-1)),
                     cx.space.index)
        assert image.contains(diff), n


def test_boundary_of_vertex_is_zero():
    cx = decompose(4)
    for t in cells_of_dimension(cx, 0):
        assert boundary(t).is_zero()


def test_cone_over_boundary_vertex_of_k3():
    cx = decompose(3)
    # pick a boundary vertex (two tree vertices)
    v = next(t for t in cells_of_dimension(cx, 0) if t.nverts == 2)
    apex = next(t for t in cells_of_dimension(cx, 0) if t.nverts == 1)
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
            next(t for t in cells_of_dimension(decompose(n), 0)
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
    # a cell reachable through two or more facets is the same tree, and
    # every decomposition a o_l b of it gives the same factor-derived
    # column and coproduct: its boundary by the cone rule, and its
    # vertex-wise coproduct; checked on every facet of K(4..6)
    ref = ref_cell_differential()
    for n in range(4, 7):
        cols = {}
        for (p, q, _), group in ah._facet_groups(n):
            cp, cq = decompose(p), decompose(q)
            da, db = cp.d.entries, cq.d.entries
            for (a, b), (t, _) in group.items():
                cols.setdefault(t, []).append(
                    (ah._facet_column(group, a, b, da, db),
                     ah._facet_delta(group, a, b, cp.delta, cq.delta)))
        shared = {t: cs for t, cs in cols.items() if len(cs) > 1}
        assert shared, f"no shared intersection cells at n={n}"
        for t, cs in shared.items():
            want = ref(OperadElement.from_tree(t)).terms
            assert all(col == want for col, _ in cs), (n, t)
            want = _ref_delta_cell(t)
            assert all(delta == want for _, delta in cs), (n, t)


def test_decompose_columns_are_the_free_differential():
    # border columns are read from the facet factors, cone columns through
    # the cone table; both agree with the cone rule walked over the tree,
    # and `boundary` reads them
    ref = ref_cell_differential()
    for n in range(2, 7):
        cx = decompose(n)
        for t in cx.cells:
            col = cx.d.entries.get(t, {})
            assert col == ref(OperadElement.from_tree(t)).terms, (n, t)
            assert boundary(t).terms == col, (n, t)
            assert all(type(c) is int for c in col.values()), (n, t)


def test_boundary_rejects_a_tree_that_is_not_a_cell():
    o2 = apex_symbol(2)
    swapped = Node(o2, (corolla(o2, (2, 1)), Leaf(3)))   # O2(O2(2,1),3)
    assert swapped not in decompose(3).space
    for t in (swapped, corolla(cone_symbol(swapped))):
        with pytest.raises(CellError, match=r"is not a cell of K\(3\)"):
            boundary(t)
        with pytest.raises(CellError, match=r"is not a cell of K\(3\)"):
            delta_cell(t)
        chain = OperadElement.from_tree(t).add(fundamental_class(3))
        with pytest.raises(CellError, match="is not a cell"):
            boundary(chain)


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
        top = set(cells_of_dimension(decompose(k), k - 2))
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


def _eager_text(t):
    """The text of a cell, each cone generator named T[text of its base]
    as the name is built eagerly."""
    if isinstance(t, Leaf):
        return str(t.label)
    sym = t.symbol
    name = f"T[{_eager_text(sym.payload)}]" if ah.is_cone(sym) else sym.name
    return f"{name}({','.join(_eager_text(c) for c in t.children)})"


def test_cone_table_must_hold_every_border_face():
    # a border vertex missing from the cone table cannot be coned when the
    # cone over an edge through it is built; the error names both cells
    cx = decompose(4)
    v = next(b for b in cx.cone if dimension(b) == 0)
    border = {b: cx.d.column(b) for b in cx.cone if b is not v}
    with pytest.raises(CellError, match="not a border cell") as err:
        CellComplex(4, cx.apex, border)
    assert str(err.value) in {
        f"{_eager_text(v)}, in the boundary of {_eager_text(b)}, "
        "is not a border cell"
        for b, col in border.items() if v in col}
    assert "T[" in str(err.value)


def test_cone_names_are_built_on_first_read(monkeypatch):
    for n in range(2, 7):
        cx = decompose(n)
        for t in cx.cells:
            assert format_tree(t) == _eager_text(t), n
        for b, tb in cx.cone.items():
            sym = tb.symbol
            assert cone_symbol(b) is cone_symbol(b) is sym
            name = f"T[{_eager_text(b)}]"
            assert repr(sym) == f"GeneratorSymbol({name!r}, {n}, {sym.degree})"
    # a cone over a cell that no complex holds: building its symbol reads
    # no name, and the name is the eager text once read
    base = graft_tree(corolla(apex_symbol(9)), corolla(apex_symbol(3)), 4)[1]

    def no_text(t):
        raise AssertionError("format_tree called while building a symbol")
    monkeypatch.setattr(ah, "format_tree", no_text)
    sym = cone_symbol(base)
    assert (sym.arity, sym.degree, sym.payload) == (11, -1, base)
    assert cone_symbol(base) is sym
    monkeypatch.undo()
    assert sym.name == f"T[{_eager_text(base)}]"
    assert sym.sort_key() == (sym.name, 11, -1)


def test_coproducts_are_built_on_first_read(monkeypatch):
    # decompose, and the associahedra suite on top of it, build no
    # coproduct table; reading `delta` builds it
    def no_delta(*args):
        raise AssertionError("coproduct table built")
    monkeypatch.setattr(ah, "_complexes", {})
    monkeypatch.setattr(ah, "_facet_delta", no_delta)
    report = cli_report.run("associahedra", max_arity=6)
    assert report["all_pass"] and report["failed"] == 0
    assert set(ah._complexes) == set(range(2, 7))  # built afresh
    with pytest.raises(AssertionError, match="coproduct table built"):
        decompose(3).delta


def _labels_in_fresh_interpreter(tmp_path, hashseed, warm):
    # launched as test_cli_subprocess_byte_identical launches its children
    root = str(Path(ah.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys; from operadlab import associahedra as ah; "
            "from operadlab.operad_core import format_tree; "
            "warm = sys.argv[1] == 'warm'; "
            "warm and (ah.boundary(ah.fundamental_class(5)), ah.decompose(3)); "
            "print(json.dumps([[format_tree(t), ah.dimension(t)] "
            "for t in ah.decompose(6).space.labels]))")
    p = subprocess.run([sys.executable, "-c", code, warm],
                       capture_output=True, cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=path,
                                PYTHONHASHSEED=hashseed))
    assert p.returncode == 0, p.stderr.decode(errors="replace")
    return json.loads(p.stdout)


def test_cell_order_depends_only_on_n(tmp_path):
    cold = _labels_in_fresh_interpreter(tmp_path, "1", "cold")
    warm = _labels_in_fresh_interpreter(tmp_path, "2", "warm")
    assert cold == warm
    assert len(cold) == 6385
    dims = [k for _, k in cold]
    assert dims == sorted(dims)
    # this process's history differs again
    cx = decompose(6)
    assert cold == [[format_tree(t), dimension(t)] for t in cx.space.labels]
    # grouped by dimension, in facet-walk order within each dimension
    assert list(cx.space.labels) == [t for k in range(5) for t in cx.cells
                                     if dimension(t) == k]
