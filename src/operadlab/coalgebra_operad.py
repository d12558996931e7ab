"""Dg coalgebras with counit, and the operad of chain coalgebras of
decomposed associahedra.

Comultiplications are stored sparsely as label -> {(label, label): coeff}
rather than as matrices into a materialized tensor-square space; the
tensor square of the arity-6 complex would have tens of millions of basis
labels while every structure map touches only a few of them.

The comultiplication of A(n) is K(n)'s coproduct table,
`associahedra.decompose(n).delta`, read from the facet walk and the cone
table.
"""

from __future__ import annotations

from typing import Mapping

from .exact_chain import GradedMap, GradedSpace, Scalar, vec_acc, vec_axpy
# graft is kept for perfbench's test_alias_bindings_are_wrapped_and_counted
from .operad_core import (OperadElement, format_tree, graft, tree_arity,
                          tree_degree)
from . import associahedra as ah


class CoalgebraError(Exception):
    pass


class DgCoalgebra:
    """Complex with coassociative counital comultiplication; d a coderivation.

    delta: label -> {(l1, l2): coeff}, with no zero coefficient; counit:
    label -> coeff.  The coalgebra keeps the delta table it is given, not a
    copy (A(n) shares K(n)'s), so the table is read-only.  Nothing is
    checked on construction; `validate` checks the axioms.
    """

    def __init__(self, space: GradedSpace, d: GradedMap,
                 delta: Mapping, counit: Mapping):
        self.space = space
        self.d = d
        self.delta = delta
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
        d = self.d.entries
        for x in self.space.labels:
            lhs = self.delta_chain(d.get(x, {}))
            rhs: dict = {}
            for (a, b), c in self.delta.get(x, {}).items():
                for a2, c2 in d.get(a, {}).items():
                    vec_acc(rhs, (a2, b), c * c2)
                sa = -1 if self.space.degree(a) % 2 else 1
                for b2, c2 in d.get(b, {}).items():
                    vec_acc(rhs, (a, b2), sa * c * c2)
            if lhs != rhs:
                raise CoalgebraError(f"coderivation fails at {x!r}")

    def check_counit_chain_map(self):
        # the counit kills every exact chain (it is a chain map to the
        # ground field in degree 0)
        d = self.d.entries
        for x in self.space.labels:
            if self.eps_chain(d.get(x, {})):
                raise CoalgebraError(f"counit not a chain map at {x!r}")

    def validate(self):
        self.check_coassociative()
        self.check_counit()
        self.check_coderivation()
        self.check_counit_chain_map()


# ---------------------------------------------------------------------------
# the operad of chain coalgebras of associahedra

def delta_cell(t) -> dict:
    """Comultiplication of a cell of K(n), as {(cell, cell): coeff}: its
    entry in `decompose(n).delta`.  Raises CellError on a tree that is not
    a cell of K(n)."""
    n = tree_arity(t)
    col = ah.decompose(n).delta.get(t)
    if col is None:
        raise ah.CellError(f"{format_tree(t)} is not a cell of K({n})")
    return col


class CoalgebraOperad:
    """Arity-indexed dg coalgebras with insertion maps."""

    def __init__(self, arities: dict, compose, name: str):
        self.arities = dict(arities)
        self.compose = compose  # compose(p, q, l, x, y)
        self.name = name

    def coalgebra(self, n: int) -> DgCoalgebra:
        return self.arities[n]


def build_A(max_arity: int) -> CoalgebraOperad:
    """The operad of chain coalgebras of the decomposed associahedra."""
    if max_arity > 8:
        raise CoalgebraError("arity capped at 8")
    arities = {}
    for n in range(0, max_arity + 1):
        cx = ah.decompose(n)
        counit = {t: 1 for t in cx.space.labels
                  if tree_degree(t) == 0}
        arities[n] = DgCoalgebra(cx.space, cx.d, cx.delta, counit)
    return CoalgebraOperad(arities, ah.insert_chain, "A")


def counit_morphism(e) -> Scalar:
    """The operad morphism to the terminal operad: a chain goes to the sum
    of its vertex-cell coefficients."""
    if isinstance(e, OperadElement):
        return ah.augmentation(e)
    return ah.augmentation(OperadElement.from_tree(e))
