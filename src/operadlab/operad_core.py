"""Planar trees, free dg operads with 0-ary operations, and Koszul signs.

Trees are immutable.  A tree with n inputs has its leaves labeled by the
input slots 1..n; in the asymmetric case the labels appear in planar order,
and a permuted labeling records an explicit symmetric-group translate.
Leaves and nodes carry the same cached attributes (`letters`, the leaf
labels in order; `nverts`, `nleaves`, `total_degree`), so a tree whose leaf
labels are read as letters is also a tensor expression.

Sign conventions.  A decorated tree stands for the tensor of its vertex
decorations in depth-first (preorder) order.  Every composition is one
simultaneous substitution: each vertex is replaced by a tree of its arity,
and the block of each child, already substituted, moves from after its
parent's replacement to the leaf it is plugged into, past the replacement
vertices that follow that leaf in preorder.  Grafting is the substitution
that keeps every outer vertex and replaces a leaf, and vertex replacement
the one that keeps every vertex but one.  A permuted leaf labeling
contributes its sign only upon evaluation on graded arguments.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, Optional

from .exact_chain import vec_acc, vec_axpy


class CompositionError(Exception):
    pass


class GeneratorSymbol:
    """Interned operation symbol; equal data yields the identical object,
    so equality and hashing are by identity."""

    __slots__ = ("name", "arity", "degree", "payload")
    _cache: dict = {}

    def __new__(cls, name, arity, degree, payload=None):
        key = (name, arity, degree, payload)
        obj = cls._cache.get(key)
        if obj is None:
            if arity < 0:
                raise ValueError("arity must be >= 0")
            obj = super().__new__(cls)
            obj.name, obj.arity, obj.degree, obj.payload = name, arity, degree, payload
            cls._cache[key] = obj
        return obj

    def sort_key(self):
        return (self.name, self.arity, self.degree)

    def __repr__(self):
        return f"GeneratorSymbol({self.name!r}, {self.arity}, {self.degree})"


class Leaf:
    """Interned input slot of a tree; carries the same attributes as a
    `Node`, constant ones on the class."""

    __slots__ = ("label", "letters")
    _cache: dict = {}
    nverts = 0
    nleaves = 1
    total_degree = 0

    def __new__(cls, label):
        obj = cls._cache.get(label)
        if obj is None:
            obj = super().__new__(cls)
            obj.label = label
            obj.letters = (label,)
            cls._cache[label] = obj
        return obj

    def sort_key(self):
        return (0, self.label)

    def __repr__(self):
        return f"Leaf({self.label})"


class Node:
    """Interned planar tree node; carries its leaf labels in order
    (`letters`), vertex count, arity and degree."""

    __slots__ = ("symbol", "children", "letters", "nverts", "nleaves",
                 "total_degree", "_key", "_text")
    _cache: dict = {}

    def __new__(cls, symbol, children):
        children = tuple(children)
        key = (symbol, children)
        obj = cls._cache.get(key)
        if obj is None:
            if len(children) != symbol.arity:
                raise CompositionError(
                    f"{symbol.name} takes {symbol.arity} children, "
                    f"got {len(children)}")
            obj = super().__new__(cls)
            obj.symbol = symbol
            obj.children = children
            obj.letters = tuple(l for c in children for l in c.letters)
            obj.nverts = 1 + sum(c.nverts for c in children)
            obj.nleaves = len(obj.letters)
            obj.total_degree = symbol.degree + sum(
                c.total_degree for c in children)
            obj._key = obj._text = None
            cls._cache[key] = obj
        return obj

    def sort_key(self):
        if self._key is None:
            self._key = (1, self.symbol.sort_key(),
                         tuple(c.sort_key() for c in self.children))
        return self._key

    def __repr__(self):
        return f"Tree[{format_tree(self)}]"


Tree = object  # Leaf | Node

IDENTITY_TREE = Leaf(1)


def corolla(symbol: GeneratorSymbol, labels: Optional[Iterable] = None) -> Node:
    if labels is None:
        labels = range(1, symbol.arity + 1)
    return Node(symbol, tuple(Leaf(l) for l in labels))


def leaf_labels(t: Tree) -> list:
    return list(t.letters)


def tree_arity(t: Tree) -> int:
    return t.nleaves


def tree_degree(t: Tree) -> int:
    return t.total_degree


def tree_vertices(t: Tree) -> list:
    """Vertices in preorder, as (path, symbol) pairs."""
    out = []

    def walk(u, path):
        if isinstance(u, Node):
            out.append((path, u.symbol))
            for i, c in enumerate(u.children):
                walk(c, path + (i,))

    walk(t, ())
    return out


def relabel(t: Tree, mapping: Mapping) -> Tree:
    if isinstance(t, Leaf):
        return Leaf(mapping[t.label])
    return Node(t.symbol, tuple(relabel(c, mapping) for c in t.children))


def _check_labels(t: Tree):
    labels = leaf_labels(t)
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise CompositionError(f"leaf labels {labels} are not a permutation of 1..n")


def plug(s: Tree, blocks):
    """(tree, odd): s with its leaf labeled j replaced by blocks[j - 1].

    odd is the parity of the Koszul sign of moving every block, from after
    the tensor of s, to its leaf: past the vertices of s that follow that
    leaf in preorder.  This is the one leaf-plugging walk of grafting,
    substitution and the free differential.
    """
    if isinstance(s, Leaf):
        return blocks[s.label - 1], 0
    kids = []
    odd = later = 0  # later: parity of the vertices of s in later children
    for c in reversed(s.children):
        t, o = (blocks[c.label - 1], 0) if isinstance(c, Leaf) \
            else plug(c, blocks)
        kids.append(t)
        # the blocks below c move past the vertices of the later children
        odd ^= o ^ ((t.total_degree - c.total_degree) & later)
        later ^= c.total_degree & 1
    kids.reverse()
    return Node(s.symbol, kids), odd


def graft_tree(outer: Tree, inner: Tree, i: int):
    """Plug inner into the leaf of outer labeled i.

    Returns (sign, tree).  The Koszul sign moves the inner tensor block past
    the outer vertices that occur after leaf i in preorder.
    """
    n = tree_arity(inner)
    m = tree_arity(outer)
    if not 1 <= i <= m:
        raise CompositionError(f"position {i} out of range for arity {m}")
    blocks = [Leaf(l if l < i else l + n - 1) for l in range(1, m + 1)]
    blocks[i - 1] = relabel(inner, {l: i + l - 1 for l in inner.letters})
    t, odd = plug(outer, blocks)
    return (-1 if odd else 1), t


class OperadElement:
    """Formal rational combination of same-arity trees of homogeneous degree."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Optional[Mapping] = None):
        self.arity = arity
        self.terms = {t: c for t, c in (terms or {}).items() if c}

    @classmethod
    def from_tree(cls, t: Tree, coeff=1) -> "OperadElement":
        _check_labels(t)
        return cls(tree_arity(t), {t: coeff})

    @classmethod
    def zero(cls, arity: int) -> "OperadElement":
        return cls(arity, {})

    @classmethod
    def identity(cls) -> "OperadElement":
        return cls(1, {IDENTITY_TREE: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        degs = {tree_degree(t) for t in self.terms}
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {degs}")
        return degs.pop() if degs else None

    def add(self, other: "OperadElement") -> "OperadElement":
        if self.arity != other.arity:
            raise CompositionError("adding elements of different arity")
        merged = dict(self.terms)
        vec_axpy(merged, 1, other.terms)
        return OperadElement(self.arity, merged)

    def scale(self, c) -> "OperadElement":
        return OperadElement(self.arity, {t: c * v for t, v in self.terms.items()})

    def sub(self, other):
        return self.add(other.scale(-1))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def map_trees(self, fn) -> "OperadElement":
        """fn(tree) -> OperadElement; extended linearly."""
        arity, terms = None, {}
        for t, c in self.terms.items():
            piece = fn(t)
            if arity is not None and piece.arity != arity:
                raise CompositionError("adding elements of different arity")
            arity = piece.arity
            vec_axpy(terms, c, piece.terms)
        return OperadElement(self.arity if arity is None else arity, terms)

    def permute(self, perm: Mapping) -> "OperadElement":
        """Relabel inputs: leaf labeled l becomes perm[l] (no sign; the sign
        of the permutation appears on evaluation)."""
        return OperadElement(self.arity,
                             {relabel(t, perm): c for t, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, OperadElement) and self.arity == other.arity \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for t, c in self.sorted_terms():
            bits.append(f"{c}*{format_tree(t)}")
        return " + ".join(bits)


def format_tree(t: Tree) -> str:
    """The tree as text; a node keeps its text once it has been built."""
    if isinstance(t, Leaf):
        return str(t.label)
    if t._text is None:
        args = ",".join(format_tree(c) for c in t.children)
        t._text = f"{t.symbol.name}({args})"
    return t._text


def graft(outer: OperadElement, inner: OperadElement, i: int) -> OperadElement:
    """Operadic insertion of inner at slot i of outer (unit-compatible)."""
    if not 1 <= i <= outer.arity:
        raise CompositionError(f"position {i} out of range")
    terms = {}
    for to, co in outer.terms.items():
        for ti, ci in inner.terms.items():
            s, t = graft_tree(to, ti, i)
            vec_acc(terms, t, s * co * ci)
    return OperadElement(outer.arity + inner.arity - 1, terms)


def substitute(tree: Tree, images) -> OperadElement:
    """Replace every vertex of tree at once: the k-th vertex in preorder by
    images[k], an element of its arity whose leaf j stands for the vertex's
    child j.

    Each output tree is built once, with one Koszul sign: every child block,
    already substituted, moves past the vertices of its parent's
    replacement that follow its leaf in preorder.
    """
    if len(images) != tree.nverts:
        raise CompositionError("substitution needs one image per vertex")
    it = iter(images)

    def sub(u):
        # u's subtree with its vertices replaced, as {tree: coeff}
        if isinstance(u, Leaf):
            return {u: 1}
        img = next(it)
        kids = [sub(c).items() for c in u.children]
        out = {}
        for s, c in img.terms.items():
            if s.nleaves != len(kids):
                raise CompositionError("replacement arity mismatch")
            for combo in itertools.product(*kids):
                coeff = c
                for _, cb in combo:
                    coeff *= cb
                t, odd = plug(s, [b for b, _ in combo])
                vec_acc(out, t, -coeff if odd else coeff)
        return out

    return OperadElement(tree.nleaves, sub(tree))


def replace_vertex(tree: Tree, path: tuple, value: OperadElement) -> OperadElement:
    """Replace the vertex at `path` by an equal-arity element.

    This is `substitute` with every other vertex replaced by its own
    corolla.  It keeps its name as a boundary that the benchmark's tracer
    (perfbench/tracing.py) and tests/test_layers.py name.
    """
    verts = tree_vertices(tree)
    if path not in {p for p, _ in verts}:
        raise CompositionError("path does not point at a vertex")
    return substitute(tree, [value if p == path else
                             OperadElement(sym.arity, {corolla(sym): 1})
                             for p, sym in verts])


class FreeDifferential:
    """The derivation extending a rule for the generator differentials.

    rule(g) returns the differential of the generator g, an element of
    degree |g| + 1 and the arity of g, or None when g is a cycle.  The rule
    is called once per generator; its value is checked then and kept.  A
    caller that already holds the value hands it over with `define`, and
    the rule is then not called for that generator.
    """

    def __init__(self, rule: Callable):
        self.rule = rule
        self._values: dict = {}

    @staticmethod
    def _check(g: GeneratorSymbol, v: OperadElement):
        if v.arity != g.arity:
            raise ValueError(f"differential of {g.name} must preserve arity")
        if not v.is_zero() and v.degree() != g.degree + 1:
            raise ValueError(f"differential of {g.name} must raise degree by 1")

    def value(self, g: GeneratorSymbol) -> OperadElement:
        v = self._values.get(g)
        if v is None:
            v = self.rule(g)
            if v is None:
                v = OperadElement.zero(g.arity)
            self._check(g, v)
            self._values[g] = v
        return v

    def define(self, g: GeneratorSymbol, value: OperadElement):
        """Keep value as the differential of g, checked as a rule value is.

        Raises if g already holds a different value; an equal one is fine.
        """
        self._check(g, value)
        old = self._values.setdefault(g, value)
        if old is not value and old != value:
            raise ValueError(f"differential of {g.name} is already defined "
                             "as another value")

    def __call__(self, e: OperadElement) -> OperadElement:
        terms = {}
        for t, c in e.terms.items():
            vec_axpy(terms, c, self._of_tree(t))
        return OperadElement(e.arity, terms)

    def _of_tree(self, t: Tree) -> dict:
        """d(t) as {tree: coeff}, by recursion over the children: the root's
        value with the children plugged into its leaves, then each child's
        differential in its place, signed by the degree of the vertices
        before it in preorder."""
        if isinstance(t, Leaf):
            return {}
        val = self.value(t.symbol).terms
        if t.nverts == 1 and t.letters == tuple(range(1, t.nleaves + 1)):
            # a corolla: plugging its leaves back gives the value itself
            return val
        kids = t.children
        out = {}
        for s, c in val.items():
            u, odd = plug(s, kids)
            vec_acc(out, u, -c if odd else c)
        before = t.symbol.degree
        for j, kid in enumerate(kids):
            if kid.nverts:
                head, tail = kids[:j], kids[j + 1:]
                sign = -1 if before & 1 else 1
                for x, cx in self._of_tree(kid).items():
                    vec_acc(out, Node(t.symbol, head + (x,) + tail),
                            sign * cx)
            before += kid.total_degree
        return out


# ---------------------------------------------------------------------------
# Koszul signs: of a permutation, of regrouping a tensor of tensors, and of
# the shuffles of two words

def parity_sign(perm, degrees) -> int:
    """Sign of rearranging (x_1..x_n) into (x_{perm[0]}, x_{perm[1]}, ...).

    perm is a tuple of 1-based indices; degrees[k] is the degree of x_{k+1}.
    """
    perm = tuple(perm)
    if len(perm) != len(degrees):
        raise ValueError("length mismatch")
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                if (degrees[perm[a] - 1] % 2) and (degrees[perm[b] - 1] % 2):
                    sign = -sign
    return sign


def transpose_sign(grid) -> int:
    """Koszul sign of regrouping a tensor of tensors.

    grid[b][i] is the parity of the piece of block b that goes to row i;
    every block has the same number of rows.  Returns the sign of reordering
    the pieces from block-major order (block 0's rows, then block 1's, ...)
    to row-major order (row 0's blocks, then row 1's, ...): each piece (b, i)
    moves past the pieces (b2, i2) with b < b2 and i2 < i.
    """
    rows = None  # rows[i]: parity of the pieces of row i in earlier blocks
    odd = 0
    for block in grid:
        if rows is None:
            rows = [0] * len(block)
        later = 0  # parity of the earlier blocks' pieces in rows after i
        for i in range(len(block) - 1, -1, -1):
            p = block[i] & 1
            if p and later:
                odd ^= 1
            later ^= rows[i]
            rows[i] ^= p
    return -1 if odd else 1


def signed_shuffles(u, v, parity):
    """Shuffles of the words u and v with their Koszul signs.

    Yields (sign, word), the positions of u's letters running through
    `itertools.combinations` order.  Each letter y of v moves left past
    the letters of u that follow it in the shuffle, picking up
    (-1)^(parity(y) * their total parity).
    """
    u, v = tuple(u), tuple(v)
    ku, n = len(u), len(u) + len(v)
    tail = [0] * (ku + 1)  # tail[i] = total parity of u[i:]
    for i in range(ku - 1, -1, -1):
        tail[i] = (tail[i + 1] + parity(u[i])) % 2
    vpar = [parity(y) % 2 for y in v]
    for pos in itertools.combinations(range(n), ku):
        word = []
        sign = 1
        ui = vi = 0
        for p in range(n):
            if ui < ku and pos[ui] == p:
                word.append(u[ui])
                ui += 1
            else:
                if vpar[vi] and tail[ui]:
                    sign = -sign
                word.append(v[vi])
                vi += 1
        yield sign, tuple(word)


def perm_sgn(perm) -> int:
    """Ordinary sign of a permutation given as a tuple of 1-based images."""
    return parity_sign(perm, (1,) * len(perm))


# ---------------------------------------------------------------------------
# operad shift O{m}

def _choose2(n: int) -> int:
    return n * (n - 1) // 2


def shift_degree(degree: int, arity: int, m: int) -> int:
    """Degree of an n-ary operation after the O{m} shift."""
    return degree - (arity - 1) * m


def suspension_sign(p: int, q: int, i: int, deg_f: int, deg_g: int, m: int) -> int:
    """Sign relating composition in O{m} to composition in O.

    (f x 1_p) o_i (g x 1_q) = sign * (f o_i g) x 1_{p+q-1}, normalized so
    that o_1(1_p, 1_q) = 1_{p+q-1} in Comm{m}; derived from the one-shift
    model and iterated for |m| steps.
    """
    sign = 1
    direction = 1 if m > 0 else -1
    dg = deg_g
    for _ in range(abs(m)):
        e = (p - i) * (dg + 1 - q) + (i - 1) * dg \
            + _choose2(p) + _choose2(q) + _choose2(p + q - 1)
        if e % 2:
            sign = -sign
        # degree of g in the operad reached after this step
        dg -= direction * (q - 1)
    return sign


class ShiftedElement:
    """An element of O{m}: a wrapped element with shifted degree bookkeeping."""

    __slots__ = ("element", "m")

    def __init__(self, element: OperadElement, m: int):
        self.element = element
        self.m = m

    @property
    def arity(self):
        return self.element.arity

    def degree(self):
        d = self.element.degree()
        return None if d is None else shift_degree(d, self.arity, self.m)

    def add(self, other):
        if self.m != other.m:
            raise CompositionError("mixing different shifts")
        return ShiftedElement(self.element.add(other.element), self.m)

    def scale(self, c):
        return ShiftedElement(self.element.scale(c), self.m)

    def graft(self, other: "ShiftedElement", i: int) -> "ShiftedElement":
        if self.m != other.m:
            raise CompositionError("mixing different shifts")
        s = suspension_sign(self.arity, other.arity, i,
                            self.element.degree() or 0,
                            other.element.degree() or 0, self.m)
        return ShiftedElement(graft(self.element, other.element, i).scale(s), self.m)

    def permute(self, perm: Mapping) -> "ShiftedElement":
        """Input relabeling twisted by the m-th power of the sign character."""
        n = self.arity
        images = tuple(perm[k] for k in range(1, n + 1))
        tw = perm_sgn(images) if self.m % 2 else 1
        return ShiftedElement(self.element.permute(perm).scale(tw), self.m)

    def __eq__(self, other):
        return isinstance(other, ShiftedElement) and self.m == other.m \
            and self.element == other.element

    def __repr__(self):
        return f"Shift{{{self.m}}}[{self.element!r}]"


def shift_operad(e, m: int):
    """Shift an element into O{m} (or back: shifting a ShiftedElement by -m
    unwraps it)."""
    if isinstance(e, ShiftedElement):
        total = e.m + m
        if total == 0:
            return e.element
        return ShiftedElement(e.element, total)
    if m == 0:
        return e
    return ShiftedElement(e, m)
