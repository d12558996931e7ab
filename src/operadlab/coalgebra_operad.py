"""Dg coalgebras with counit, the cone construction, and the operad of
chain coalgebras of decomposed associahedra.

Comultiplications are stored sparsely as label -> {(label, label): coeff}
rather than as matrices into a materialized tensor-square space; the
tensor square of the arity-6 complex would have tens of millions of basis
labels while every structure map touches only a few of them.

The comultiplication on a product (multi-vertex) cell is computed
vertex-wise: choose a comultiplication component at every vertex, collect
the first components into a same-shape tree, substitute every second
component into its vertex at once (`operad_core.substitute`, which builds
each output tree once with its one Koszul sign), and apply the Koszul
interleaving sign of regrouping the per-vertex pairs.
"""

from __future__ import annotations

from typing import Mapping

from .exact_chain import (GradedMap, GradedSpace, Scalar, degree_add,
                          vec_acc, vec_axpy, vec_clean)
# graft is kept for perfbench's test_alias_bindings_are_wrapped_and_counted
from .operad_core import (Leaf, Node, OperadElement, corolla, graft,
                          substitute, transpose_sign, tree_degree,
                          tree_vertices)
from . import associahedra as ah


class CoalgebraError(Exception):
    pass


class DgCoalgebra:
    """Complex with coassociative counital comultiplication; d a coderivation.

    delta: label -> {(l1, l2): coeff}; counit: label -> coeff.
    """

    def __init__(self, space: GradedSpace, d: GradedMap,
                 delta: Mapping, counit: Mapping, check: bool = True):
        self.space = space
        self.d = d
        self.delta = {l: vec_clean(col) for l, col in delta.items()
                      if vec_clean(col)}
        self.counit = {l: c for l, c in counit.items() if c}
        if check:
            self.validate()

    def delta_of(self, label) -> dict:
        return dict(self.delta.get(label, {}))

    def eps_of(self, label) -> Scalar:
        return self.counit.get(label, 0)

    def delta_chain(self, vec: Mapping) -> dict:
        out: dict = {}
        for l, c in vec.items():
            vec_axpy(out, c, self.delta.get(l, {}))
        return out

    def eps_chain(self, vec: Mapping) -> Scalar:
        return sum(c * self.counit.get(l, 0) for l, c in vec.items())

    # validators ------------------------------------------------------------

    def check_coassociative(self):
        for x in self.space.labels:
            lhs: dict = {}
            rhs: dict = {}
            for (a, b), c in self.delta.get(x, {}).items():
                for (a1, a2), c2 in self.delta.get(a, {}).items():
                    vec_acc(lhs, (a1, a2, b), c * c2)
                for (b1, b2), c2 in self.delta.get(b, {}).items():
                    vec_acc(rhs, (a, b1, b2), c * c2)
            if lhs != rhs:
                raise CoalgebraError(f"coassociativity fails at {x!r}")

    def check_counit(self):
        for x in self.space.labels:
            left: dict = {}
            right: dict = {}
            for (a, b), c in self.delta.get(x, {}).items():
                ea = self.counit.get(a, 0)
                eb = self.counit.get(b, 0)
                if ea:
                    vec_acc(left, b, c * ea)
                if eb:
                    vec_acc(right, a, c * eb)
            want = {x: 1}
            if left != want or right != want:
                raise CoalgebraError(f"counit axiom fails at {x!r}")

    def check_coderivation(self):
        for x in self.space.labels:
            lhs = self.delta_chain(self.d.column(x))
            rhs: dict = {}
            for (a, b), c in self.delta.get(x, {}).items():
                for a2, c2 in self.d.column(a).items():
                    vec_acc(rhs, (a2, b), c * c2)
                sa = -1 if self.space.degree(a)[0] % 2 else 1
                for b2, c2 in self.d.column(b).items():
                    vec_acc(rhs, (a, b2), sa * c * c2)
            if lhs != rhs:
                raise CoalgebraError(f"coderivation fails at {x!r}")

    def check_counit_chain_map(self):
        # the counit kills every exact chain (it is a chain map to the
        # ground field in degree 0)
        for x in self.space.labels:
            if self.eps_chain(self.d.column(x)):
                raise CoalgebraError(f"counit not a chain map at {x!r}")

    def validate(self):
        self.check_coassociative()
        self.check_counit()
        self.check_coderivation()
        self.check_counit_chain_map()


def check_morphism(f: Mapping, source: DgCoalgebra, target: DgCoalgebra):
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
    sp = GradedSpace((label,), {label: (0,)})
    d = GradedMap.zero(sp, sp, (1,))
    return DgCoalgebra(sp, d, {label: {(label, label): 1}}, {label: 1})


# ---------------------------------------------------------------------------
# cone

APEX = ("apex",)


def _t(label):
    return ("T", label)


def cone(a: DgCoalgebra) -> DgCoalgebra:
    """Cone over a counital dg coalgebra.

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
        degrees[_t(l)] = degree_add(a.space.degree(l), (-1,))
    degrees[APEX] = (0,)
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
    return DgCoalgebra(sp, d, delta, counit)


def cone_map(phi: Mapping, a: DgCoalgebra, cone_b: DgCoalgebra,
             check: bool = True) -> dict:
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


# ---------------------------------------------------------------------------
# the operad of chain coalgebras of associahedra

_delta_gen_cache: dict = {}
_delta_cell_cache: dict = {}


def _delta_gen(sym):
    """Comultiplication components of an interior-cell generator, as a list
    of (coeff, first-component generator, second-component element)."""
    val = _delta_gen_cache.get(sym)
    if val is not None:
        return val
    n = sym.arity
    if not ah.is_cone(sym):
        out = [(1, sym, OperadElement.from_tree(corolla(sym)))]
    else:
        b = sym.payload
        out = []
        for (x, y), c in delta_cell(b).items():
            out.append((c, ah.cone_symbol(x), OperadElement.from_tree(y)))
        out.append((1, ah.apex_symbol(n),
                    OperadElement.from_tree(corolla(sym))))
    _delta_gen_cache[sym] = out
    return out


def delta_cell(t) -> dict:
    """Comultiplication of a cell, as {(cell, cell): coeff}."""
    val = _delta_cell_cache.get(t)
    if val is not None:
        return val
    if isinstance(t, Leaf):
        out = {(t, t): 1}
        _delta_cell_cache[t] = out
        return out
    choice_lists = [_delta_gen(sym) for _, sym in tree_vertices(t)]
    out: dict = {}

    def emit(coeff, firsts, seconds):
        # Koszul sign of regrouping ox_i (g'_i ox e''_i) into
        # (ox_i g'_i) ox (ox_i e''_i)
        sign = transpose_sign([(g.degree, e.degree())
                               for g, e in zip(firsts, seconds)])
        it = iter(firsts)

        def decorate(u):
            if isinstance(u, Leaf):
                return u
            return Node(next(it), [decorate(c) for c in u.children])
        t1 = decorate(t)
        for t2, c2 in substitute(t, seconds).terms.items():
            vec_acc(out, (t1, t2), coeff * sign * c2)

    def walk(i, coeff, firsts, seconds):
        if i == len(choice_lists):
            emit(coeff, firsts, seconds)
            return
        for c, g1, e2 in choice_lists[i]:
            walk(i + 1, coeff * c, firsts + [g1], seconds + [e2])

    walk(0, 1, [], [])
    _delta_cell_cache[t] = out
    return out


def delta_chain(e: OperadElement) -> dict:
    out: dict = {}
    for t, c in e.terms.items():
        vec_axpy(out, c, delta_cell(t))
    return out


class CoalgebraOperad:
    """Arity-indexed dg coalgebras with insertion maps."""

    def __init__(self, arities: dict, compose, name: str):
        self.arities = dict(arities)
        self.compose = compose  # compose(p, q, l, x, y)
        self.name = name

    def coalgebra(self, n: int) -> DgCoalgebra:
        return self.arities[n]

    def max_arity(self) -> int:
        return max(self.arities)


def build_A(max_arity: int) -> CoalgebraOperad:
    """The operad of chain coalgebras of the decomposed associahedra."""
    if max_arity > 8:
        raise CoalgebraError("arity capped at 8")
    arities = {}
    for n in range(0, max_arity + 1):
        cx = ah.decompose(n)
        delta = {t: delta_cell(t) for t in cx.space.labels}
        counit = {t: 1 for t in cx.space.labels
                  if tree_degree(t) == 0}
        arities[n] = DgCoalgebra(cx.space, cx.d, delta, counit, check=False)
    return CoalgebraOperad(arities, ah.insert_chain, "A")


def as_operad(max_arity: int = 8) -> CoalgebraOperad:
    """The terminal coalgebra operad: the ground field in every arity."""
    arities = {n: ground_coalgebra(("one", n)) for n in range(0, max_arity + 1)}

    def compose_fn(p, q, l, x, y):
        cx = x.get(("one", p), 0)
        cy = 1 if y is None else y.get(("one", q), 0)
        return {("one", p + q - 1): cx * cy}

    return CoalgebraOperad(arities, compose_fn, "As")


def counit_morphism(e) -> Scalar:
    """The operad morphism to the terminal operad: a chain goes to the sum
    of its vertex-cell coefficients."""
    if isinstance(e, OperadElement):
        return ah.augmentation(e)
    return ah.augmentation(OperadElement.from_tree(e))


# ---------------------------------------------------------------------------
# cross-module identifications

def coalgebra_of_boundary(n: int) -> DgCoalgebra:
    """The chain coalgebra of the decomposed boundary of K(n)."""
    cx = ah.decompose(n)
    labels = [t for t in cx.space.labels if t.nverts >= 2]
    sp = GradedSpace(labels, {t: cx.space.degree(t) for t in labels})
    d = GradedMap(sp, sp, (1,),
                  {t: {s: c for s, c in ah.boundary(t).terms.items()}
                   for t in labels})
    delta = {t: delta_cell(t) for t in labels}
    counit = {t: 1 for t in labels if tree_degree(t) == 0}
    return DgCoalgebra(sp, d, delta, counit, check=False)
