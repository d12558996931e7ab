"""Inductive polyhedral decomposition of the Stasheff polytopes K(n).

K(n) is decomposed as the cone, from a center vertex, over its decomposed
boundary; boundary faces are products K(p) x K(q) glued along the insertion
maps.  A cell is stored as a planar tree whose vertices are decorated by
interior-cell generators:

  * the apex generator of K(m) (a vertex, arity m), and
  * a cone generator over a boundary cell b of K(m) (arity m,
    dimension dim b + 1).

A tree with at least two vertices is a boundary (product) cell; a
single-vertex tree is an interior cell.  A product face K(p) x K(q) embeds
by grafting trees, so a cell shared by two faces is literally the same
tree and gluing consistency is automatic.

Degrees are cohomological: a cell of dimension k sits in degree -k, and
the boundary operator has degree +1.  It is the free derivation extending
the generator differentials, which the cone rule fixes from the generator
alone:

    d(apex) = 0,    d(T b) = b - T(db) - aug(b) * apex,

with T applied termwise to the boundary cells of db and aug(b) the
coefficient sum of the dimension-0 cells of b.  `decompose` builds every
column of K(n) and walks no cell's vertices: it reads each border column
a o_l b from the columns of a and b, as d is a derivation of composition,
and each cone column from its base's column through the cone table.
`boundary` reads its columns from that table, so it decomposes K(n) first,
and a tree that is not a cell of K(n) has no boundary.

The coproduct is read from the same walk and table when
`CellComplex.delta` is first read: Delta(a o_l b) from Delta(a) and
Delta(b), as the insertions are coalgebra morphisms, Delta(T b) =
(T ox id) Delta(b) + apex ox T b, and the apex is grouplike.

Nothing here names or sorts cells.  The cells of K(n) are ordered by
dimension, and within a dimension in the order in which the facet walk
first meets them (the border cells, the apex, then the cones in the order
of their bases); that order depends only on n.  A cone generator is
interned on its base, and its name T[...] is built only when something
first reads it (`format_tree`, `sort_key`, `repr`, an error message).
"""

from __future__ import annotations

from typing import Optional

from .exact_chain import (
    Complex, GradedMap, GradedSpace, Scalar, vec_acc, vec_axpy,
)
from .operad_core import (
    GeneratorSymbol, Leaf, Node, OperadElement, corolla, format_tree, graft,
    leaf_labels, plug, relabel, tree_arity, tree_degree,
)


class CellError(Exception):
    pass


# ---------------------------------------------------------------------------
# cell generators

def apex_symbol(n: int) -> GeneratorSymbol:
    """The center vertex of K(n) (for n <= 2, the unique point)."""
    if n < 0:
        raise CellError("arity must be >= 0")
    return GeneratorSymbol(f"O{n}", n, 0)


class ConeSymbol(GeneratorSymbol):
    """The generator T b of the cone over a boundary cell b (the payload):
    the arity of b, one dimension up.  Interned with the other symbols, on
    (arity, degree, payload); its name T[...] is built from b when it is
    first read, and then kept."""

    __slots__ = ("_name",)

    def __new__(cls, base):
        n, degree = base.nleaves, base.total_degree - 1
        key = (cls, n, degree, base)
        obj = cls._cache.get(key)
        if obj is None:
            obj = object.__new__(cls)
            obj.arity, obj.degree, obj.payload = n, degree, base
            obj._name = None
            cls._cache[key] = obj
        return obj

    @property
    def name(self) -> str:
        if self._name is None:
            self._name = f"T[{format_tree(self.payload)}]"
        return self._name


def cone_symbol(base) -> GeneratorSymbol:
    """The cone cell over a boundary cell, one dimension up."""
    return ConeSymbol(base)


def is_cone(sym: GeneratorSymbol) -> bool:
    return sym.payload is not None


def dimension(cell) -> int:
    return -tree_degree(cell)


def point_cell(n: int):
    if n == 1:
        return Leaf(1)
    if n in (0, 2):
        return corolla(apex_symbol(n))
    raise CellError("point cells exist only for n <= 2")


def _el(tree, c=1) -> OperadElement:
    return OperadElement.from_tree(tree, c)


# ---------------------------------------------------------------------------
# chain-level helpers

def augmentation(e: OperadElement) -> Scalar:
    """Sum of coefficients of dimension-0 cells."""
    total = 0
    for t, c in e.terms.items():
        if tree_degree(t) == 0:
            total += c
    return total


def cone_chain(e: OperadElement) -> OperadElement:
    """Cone a chain of boundary cells; single-vertex terms are interior and
    may not be coned."""
    if any(t.nverts < 2 for t in e.terms):
        raise CellError("cone base must be a boundary cell")
    return OperadElement(e.arity, {corolla(cone_symbol(t)): c
                                   for t, c in e.terms.items()})


def cone_chain_or_collapse(e: OperadElement) -> OperadElement:
    """Cone multi-vertex terms, drop interior terms (the boundary component
    of a map into a cone is all that the coned map keeps)."""
    return OperadElement(e.arity, {corolla(cone_symbol(t)): c
                                   for t, c in e.terms.items()
                                   if t.nverts >= 2})


# ---------------------------------------------------------------------------
# decomposition

_complexes: dict = {}        # n -> CellComplex


def boundary(cell_or_chain) -> OperadElement:
    """Signed cellular boundary (degree +1 cohomologically): the sum of the
    columns of `decompose(n).d` over the terms of a chain of arity n.
    Raises CellError on a term that is not a cell of K(n)."""
    e = cell_or_chain if isinstance(cell_or_chain, OperadElement) \
        else _el(cell_or_chain)
    cx = decompose(e.arity)
    terms = {}
    for t, c in e.terms.items():
        if t not in cx.space:
            raise CellError(f"{format_tree(t)} is not a cell of K({e.arity})")
        vec_axpy(terms, c, cx.d.entries.get(t, {}))
    return OperadElement(e.arity, terms)


class CellComplex:
    """Cells of decomposed K(n) with their boundary operator: the border
    cells (the keys of `cone`), the apex, and the cone Tb = cone[b] over
    each border cell b.

    `border` maps each border cell to its column; `decompose` reads the
    column from the cell's facet factors, walking no vertex, and inserts
    the cells in the order in which the facet walk first meets them.
    `cone` keeps that order, and `cells` is the border cells, the apex,
    then the cones.  The basis `space.labels` is `cells` grouped by
    dimension, lowest first, each group in `cells` order; no cell is
    named or sorted, and a cone's name is built when it is first read.
    The column of Tb is read from the column of b through `cone`.  The
    apex column is zero, as no cell has dimension -1.
    """

    def __init__(self, n: int, apex, border: dict):
        self.n = n
        self.apex = apex
        leaves = tuple(map(Leaf, range(1, n + 1)))
        self.cone = {b: Node(cone_symbol(b), leaves) for b in border}
        self.cells = (*self.cone, apex, *self.cone.values())
        by_dim: dict = {}
        for t in self.cells:
            by_dim.setdefault(-t.total_degree, []).append(t)
        self.space = GradedSpace(
            [t for k in sorted(by_dim) for t in by_dim[k]],
            {t: t.total_degree for t in self.cells})
        cols = dict(border)
        for b, tb in self.cone.items():
            cols[tb] = self._cone_value(b, border).terms
        self.d = GradedMap(self.space, self.space, 1, cols)
        self.complex = Complex(self.space, self.d)  # checks d*d = 0
        self._homology = None
        self._contractible = None
        self._delta = None

    def _cone_value(self, b, cols: dict) -> OperadElement:
        """d(T b) = b - T(db) - aug(b) * apex, with db read from the columns
        and T from the cone table."""
        rest = {}  # -T(db) - aug(b) * apex
        for s, c in cols[b].items():
            ts = self.cone.get(s)
            if ts is None:
                raise CellError(f"{format_tree(s)}, in the boundary of "
                                f"{format_tree(b)}, is not a border cell")
            rest[ts] = -c
        if b.total_degree == 0:
            rest[self.apex] = -1
        return OperadElement(self.n, {b: 1}).add(OperadElement(self.n, rest))

    @property
    def delta(self) -> dict:
        """cell -> {(cell, cell): coeff}, built on first read by one more
        facet walk: a border cell's from the first facet that builds it,
        Delta(T b) = sum c * (T x ox y) + apex ox T b over the terms
        c * (x ox y) of Delta(b), and the apex grouplike."""
        if self._delta is None:
            delta = {}
            for (p, q, _), group in _facet_groups(self.n):
                dp, dq = decompose(p).delta, decompose(q).delta
                for (a, b), (t, _) in group.items():
                    if t not in delta:
                        delta[t] = _facet_delta(group, a, b, dp, dq)
            delta[self.apex] = {(self.apex, self.apex): 1}
            for b, tb in self.cone.items():
                col = {(self.cone[x], y): c for (x, y), c in delta[b].items()}
                col[self.apex, tb] = 1
                delta[tb] = col
            self._delta = delta
        return self._delta

    def counts(self) -> dict:
        out: dict = {}
        for t in self.cells:
            out[dimension(t)] = out.get(dimension(t), 0) + 1
        return out

    def euler_characteristic(self) -> int:
        return self.complex.euler_characteristic()

    def homology_dims(self) -> dict:
        """Betti numbers by cell dimension, computed once per complex."""
        if self._homology is None:
            self._homology = {-k: v for k, v in
                              self.complex.homology_dims().items()}
        return dict(self._homology)

    def contracting_homotopy_holds(self) -> bool:
        """Whether dh + hd = id - eps * apex on every cell, computed once.

        h is the cone map: h(b) = Tb on a border cell b, and h is 0 on the
        apex and on the cones.  eps(t) is the coefficient sum of the
        dimension-0 cells of t, and d is read from `self.d`.

        This certifies that H(K(n)) is Q in degree 0, spanned by the apex.
        The apex is a cycle for degree reasons (no cell has dimension -1),
        so applying d to the identity gives eps * d = 0: eps is a chain map
        to Q, and eps(apex) = 1.  The identity then says that h is a chain
        homotopy between id and apex * eps, so the inclusion of the apex is
        a chain homotopy equivalence.  In the terms of algebraic discrete
        Morse theory, b <-> Tb is an acyclic matching whose only critical
        cell is the apex.
        """
        if self._contractible is None:
            d, h = self.d.entries, self.cone
            self._contractible = True
            for t in self.space.labels:
                want = {t: 1}
                if tree_degree(t) == 0:
                    vec_acc(want, self.apex, -1)
                got = {}
                if t in h:
                    vec_axpy(got, 1, d.get(h[t], {}))
                for s, c in d.get(t, {}).items():
                    if s in h:
                        vec_acc(got, h[s], c)
                if got != want:
                    self._contractible = False
                    break
        return self._contractible


def _facet_groups(n: int):
    """Yield ((p, q, l), group) for each coarse facet K(p) o_l K(q) of
    K(n), one at a time: group[a, b] = plug(a, blocks) = (t, odd), the cell
    t = (-1)^odd a o_l b, for every cell a of K(p) and b of K(q)."""
    for q in range(2, n):
        p = n + 1 - q
        cells_p, cells_q = decompose(p).cells, decompose(q).cells
        for l in range(1, p + 1):
            # each inner cell relabeled once per slot
            shift = {k: l + k - 1 for k in range(1, q + 1)}
            blocks = [Leaf(k if k < l else k + q - 1) for k in range(1, p + 1)]
            group = {}
            for b in cells_q:
                blocks[l - 1] = relabel(b, shift)
                for a in cells_p:
                    group[a, b] = plug(a, blocks)
            yield (p, q, l), group


def _facet_column(group: dict, a, b, da: dict, db: dict) -> dict:
    """The column of the cell of group[a, b], from the columns da of K(p)
    and db of K(q): d(a o_l b) = da o_l b + (-1)^|a| a o_l db, each term a
    cell of the same group."""
    _, odd = group[a, b]
    col = {}
    for a2, c in da.get(a, {}).items():
        u, o = group[a2, b]
        vec_acc(col, u, -c if odd ^ o else c)
    odd ^= a.total_degree & 1
    for b2, c in db.get(b, {}).items():
        u, o = group[a, b2]
        vec_acc(col, u, -c if odd ^ o else c)
    return col


def _facet_delta(group: dict, a, b, delta_p: dict, delta_q: dict) -> dict:
    """The coproduct of the cell of group[a, b], from the coproducts of K(p)
    and K(q): Delta(a o_l b) = sum of (-1)^(|b'||a''|) (a' o_l b') ox
    (a'' o_l b''), each factor a cell of the same group."""
    _, odd = group[a, b]
    col = {}
    for (a1, a2), c in delta_p[a].items():
        for (b1, b2), c2 in delta_q[b].items():
            t1, o1 = group[a1, b1]
            t2, o2 = group[a2, b2]
            sign = odd ^ o1 ^ o2 ^ (b1.total_degree & a2.total_degree & 1)
            vec_acc(col, (t1, t2), -c * c2 if sign else c * c2)
    return col


def decompose(n: int) -> CellComplex:
    """K(n) as its boundary cells, the apex, and the cone over each
    boundary cell."""
    if n < 0:
        raise CellError("arity must be >= 0")
    if n not in _complexes:
        apex = point_cell(n) if n <= 2 else corolla(apex_symbol(n))
        border = {}  # a cell's column, from the first facet that builds it
        for (p, q, _), group in _facet_groups(n):
            # the walk has decomposed K(p) and K(q)
            da, db = _complexes[p].d.entries, _complexes[q].d.entries
            for (a, b), (t, _) in group.items():
                if t not in border:
                    border[t] = _facet_column(group, a, b, da, db)
        _complexes[n] = CellComplex(n, apex, border)
    return _complexes[n]


# ---------------------------------------------------------------------------
# operadic piecewise-linear maps

def _canonical(e: OperadElement) -> OperadElement:
    """Relabel every term's leaves into increasing planar order."""
    def fix(t):
        labels = leaf_labels(t)
        mapping = {l: i + 1 for i, l in enumerate(sorted(labels))}
        return _el(relabel(t, mapping))
    return e.map_trees(fix)


def _delete_leaf(t, j: int) -> OperadElement:
    """Chain image of a cell under the 0-ary insertion at slot j."""
    if isinstance(t, Leaf):
        return _el(point_cell(0))

    def go(u) -> OperadElement:
        # u is a Node whose subtree contains leaf j
        for i, child in enumerate(u.children):
            if j not in child.letters:
                continue
            if isinstance(child, Leaf):
                m = u.symbol.arity
                others = u.children[:i] + u.children[i + 1:]
                if not is_cone(u.symbol):
                    if m == 2:
                        return OperadElement(tree_arity(others[0]),
                                             {others[0]: 1})
                    t2 = Node(apex_symbol(m - 1), others)
                    return OperadElement(tree_arity(t2), {t2: 1})
                base = u.symbol.payload
                img = cone_chain_or_collapse(_delete_leaf(base, i + 1))
                return OperadElement(tree_arity(u) - 1,
                                     {Node(s.symbol, others): c
                                      for s, c in img.terms.items()})
            sub = go(child)
            return OperadElement(tree_arity(u) - 1, {
                Node(u.symbol, u.children[:i] + (s,) + u.children[i + 1:]): c
                for s, c in sub.terms.items()})
        raise CellError("leaf not found")

    return _canonical(go(t))


def insert_chain(p: int, q: int, l: int,
                 chain_p: OperadElement,
                 chain_q: Optional[OperadElement] = None) -> OperadElement:
    """Chain-level insertion map C(K(p)) x C(K(q)) -> C(K(p+q-1)).

    q >= 2 grafts onto a boundary face (with product-orientation Koszul
    signs); q = 1 is the identity; q = 0 deletes input slot l, collapsing
    degenerate cells to zero.
    """
    if q < 0 or p < 1:
        raise CellError("arities must be >= 0")
    if not 1 <= l <= p:
        raise CellError(f"slot {l} out of range for arity {p}")
    if chain_p.arity != p:
        raise CellError("first chain has wrong arity")
    if q == 1:
        return chain_p
    if q == 0:
        if chain_p.is_zero():
            return OperadElement.zero(p - 1)
        return chain_p.map_trees(lambda t: _delete_leaf(t, l))
    if chain_q is None or chain_q.arity != q:
        raise CellError("second chain has wrong arity")
    return graft(chain_p, chain_q, l)


# ---------------------------------------------------------------------------
# fundamental classes

_mu: dict = {}


def fundamental_class(k: int) -> OperadElement:
    """The fundamental class of K(k): the cone over the boundary cycle
    assembled from lower fundamental classes with the alternating
    insertion signs."""
    if k < 2:
        raise CellError("fundamental classes start at arity 2")
    if k in _mu:
        return _mu[k]
    if k == 2:
        mu = _el(point_cell(2))
    else:
        cyc = boundary_fundamental_cycle(k)
        mu = cone_chain(cyc)
    _mu[k] = mu
    return mu


def insertion_sign(i: int, j: int, l: int) -> int:
    """Sign of mu_i o_l mu_j inside d(mu_{i+j-1}).

    The exponent is (l-1)(j-1) + (i-1)(j-2).  The first summand is the
    position-times-dimension factor; the second is the Koszul correction
    forced by requiring the boundary cycle to be closed (equivalently, by
    d^2 = 0 on the free resolution; without it the sum fails to be a cycle
    already in arity 4).  The total is the classical homotopy-associativity
    sign (-1)^{(l-1) + j(i-l)}.
    """
    e = (l - 1) * (j - 1) + (i - 1) * (j - 2)
    return -1 if e % 2 else 1


def boundary_fundamental_cycle(k: int) -> OperadElement:
    """Sum over i of mu_i { mu_{k+1-i} }, a cycle in the boundary chains."""
    terms = {}
    for i in range(2, k):
        j = k + 1 - i
        mi = fundamental_class(i)
        mj = fundamental_class(j)
        for l in range(1, i + 1):
            vec_axpy(terms, insertion_sign(i, j, l), graft(mi, mj, l).terms)
    return OperadElement(k, terms)
