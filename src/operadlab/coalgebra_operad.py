"""Dg coalgebras with counit, and the operad of chain coalgebras of
decomposed associahedra.

Comultiplications are stored sparsely as label -> {(label, label): coeff}
rather than as matrices into a materialized tensor-square space; the
tensor square of the arity-6 complex would have tens of millions of basis
labels while every structure map touches only a few of them.

The comultiplication on a product (multi-vertex) cell is computed
vertex-wise: choose a comultiplication component at every vertex, collect
the first components into a same-shape tree, substitute every second
component into its vertex at once (`operad_core.substitute`, which builds
each output tree once with its one Koszul sign), and apply the Koszul
interleaving sign of regrouping the per-vertex pairs.  A cone generator
Tb has Delta(Tb) = (T ox id) Delta(b) + apex ox Tb, so its components are
read from the coproduct of its base b (`_delta_gen`).
"""

from __future__ import annotations

from typing import Mapping

from .exact_chain import (GradedMap, GradedSpace, Scalar, vec_acc, vec_axpy,
                          vec_clean)
# graft is kept for perfbench's test_alias_bindings_are_wrapped_and_counted
from .operad_core import (Leaf, Node, OperadElement, corolla, graft,
                          substitute, transpose_sign, tree_degree,
                          tree_vertices)
from . import associahedra as ah


class CoalgebraError(Exception):
    pass


class DgCoalgebra:
    """Complex with coassociative counital comultiplication; d a coderivation.

    delta: label -> {(l1, l2): coeff}; counit: label -> coeff.  Nothing is
    checked on construction; `validate` checks the axioms.
    """

    def __init__(self, space: GradedSpace, d: GradedMap,
                 delta: Mapping, counit: Mapping):
        self.space = space
        self.d = d
        self.delta = {l: vec_clean(col) for l, col in delta.items()
                      if vec_clean(col)}
        self.counit = {l: c for l, c in counit.items() if c}

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
                sa = -1 if self.space.degree(a) % 2 else 1
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
        arities[n] = DgCoalgebra(cx.space, cx.d, delta, counit)
    return CoalgebraOperad(arities, ah.insert_chain, "A")


def counit_morphism(e) -> Scalar:
    """The operad morphism to the terminal operad: a chain goes to the sum
    of its vertex-cell coefficients."""
    if isinstance(e, OperadElement):
        return ah.augmentation(e)
    return ah.augmentation(OperadElement.from_tree(e))
