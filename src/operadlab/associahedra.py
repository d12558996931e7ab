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
coefficient sum of the dimension-0 cells of b.  The boundary of any cell
is therefore defined whether or not `decompose` has enumerated its K(n).
When `decompose` does enumerate K(n), it walks each border cell's vertices
once, builds each cone column from its base's column through the cone
table, and hands that value to the differential for the larger complexes.
"""

from __future__ import annotations

from typing import Optional

from .exact_chain import (
    Complex, GradedMap, GradedSpace, Scalar, vec_acc, vec_axpy,
)
from .operad_core import (
    FreeDifferential, GeneratorSymbol, Leaf, Node, OperadElement, corolla,
    format_tree, graft, leaf_labels, plug, relabel, tree_arity, tree_degree,
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


def cone_symbol(base) -> GeneratorSymbol:
    """The cone cell over a boundary cell, one dimension up."""
    n = tree_arity(base)
    return GeneratorSymbol(f"T[{format_tree(base)}]", n,
                           tree_degree(base) - 1, payload=base)


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


def _cell_differential(sym: GeneratorSymbol) -> Optional[OperadElement]:
    """d(T b) = b - T(db) - aug(b) * apex; apexes are cycles."""
    if not is_cone(sym):
        return None
    b = _el(sym.payload)
    val = b.sub(cone_chain(boundary(b)))
    eps = augmentation(b)
    if eps:
        val = val.sub(_el(corolla(apex_symbol(sym.arity)), eps))
    return val


_diff = FreeDifferential(_cell_differential)


def boundary(cell_or_chain) -> OperadElement:
    """Signed cellular boundary (degree +1 cohomologically)."""
    if isinstance(cell_or_chain, OperadElement):
        return _diff(cell_or_chain)
    return _diff(_el(cell_or_chain))


class CellComplex:
    """Cells of decomposed K(n) with their boundary operator: the border
    cells (the keys of `cone`), the apex, and the cone Tb = cone[b] over
    each border cell b.

    Only the border columns walk vertices: every vertex of a border cell is
    an apex or a cone of a smaller K(m), whose value the differential
    already holds.  The column of Tb is read from the column of b through
    `cone`, and handed to the differential as the value of Tb's generator.
    The apex column is zero, as no cell has dimension -1.
    """

    def __init__(self, n: int, apex, cone: dict):
        self.n = n
        self.apex = apex
        self.cone = cone
        self.cells = (*cone, apex, *cone.values())
        degrees = {t: (tree_degree(t),) for t in self.cells}
        order = sorted(self.cells, key=lambda t: (-tree_degree(t), t.sort_key()))
        self.space = GradedSpace(order, degrees)
        cols = {}
        for t in order:
            if t in cone:
                cols[t] = boundary(t).terms
            elif t is not apex:
                val = self._cone_value(t.symbol.payload, cols)
                _diff.define(t.symbol, val)
                cols[t] = val.terms
        self.d = GradedMap(self.space, self.space, (1,), cols)
        self.complex = Complex(self.space, self.d)  # checks d*d = 0
        self._homology = None
        self._contractible = None

    def _cone_value(self, b, cols: dict) -> OperadElement:
        """d(T b) = b - T(db) - aug(b) * apex, with db read from the columns
        and T from the cone table."""
        tdb = {}
        for s, c in cols[b].items():
            if s not in self.cone:
                raise CellError(f"{format_tree(s)}, in the boundary of "
                                f"{format_tree(b)}, is not a border cell")
            tdb[self.cone[s]] = c
        val = OperadElement(self.n, {b: 1}).sub(OperadElement(self.n, tdb))
        if tree_degree(b) == 0:
            val = val.sub(OperadElement(self.n, {self.apex: 1}))
        return val

    def cells_of_dimension(self, k: int):
        return [t for t in self.space.labels if tree_degree(t) == -k]

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

    def top_dimension(self) -> int:
        return max((dimension(t) for t in self.cells), default=0)


def facets(n: int) -> dict:
    """Coarse facets of K(n): (p, q, l) -> frozenset of decomposed cells."""
    out = {}
    for q in range(2, n):
        p = n + 1 - q
        cells_p, cells_q = decompose(p).cells, decompose(q).cells
        for l in range(1, p + 1):
            # each inner cell relabeled once per slot; a set needs no sign
            shift = {k: l + k - 1 for k in range(1, q + 1)}
            blocks = [Leaf(k if k < l else k + q - 1) for k in range(1, p + 1)]
            face = set()
            for b in cells_q:
                blocks[l - 1] = relabel(b, shift)
                face.update(plug(a, blocks)[0] for a in cells_p)
            out[(p, q, l)] = frozenset(face)
    return out


def decompose(n: int) -> CellComplex:
    """K(n) as its boundary cells, the apex, and the cone over each
    boundary cell."""
    if n < 0:
        raise CellError("arity must be >= 0")
    if n not in _complexes:
        if n <= 2:
            apex, cone = point_cell(n), {}
        else:
            border = sorted(frozenset().union(*facets(n).values()),
                            key=lambda t: t.sort_key())
            apex = corolla(apex_symbol(n))
            cone = {b: corolla(cone_symbol(b)) for b in border}
        _complexes[n] = CellComplex(n, apex, cone)
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


def insert(p: int, q: int, l: int, cell_p, cell_q=None):
    """Cell-level insertion; returns the image cell, or None if the image
    is degenerate (q = 0 collapse)."""
    cq = None if cell_q is None else _el(cell_q)
    res = insert_chain(p, q, l, _el(cell_p), cq)
    if res.is_zero():
        return None
    (t, c), = res.terms.items()
    if c not in (1, -1):
        raise CellError("unexpected coefficient on a cell image")
    return t


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
