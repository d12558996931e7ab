"""Operads of operations on tensor coalgebras built from a coalgebra operad.

Given a dg operad X of coalgebras (here: the one-dimensional associative
operad As, or the cellular operad A of decomposed associahedra), each basis
element x of X(n) together with a block profile (k_1..k_n) determines an
operation phi(x)^1 on tensor words: it eats n blocks of k_i tensor factors
and returns a single factor.  Together with corestriction symbols D_l (the
components of the induced coderivation) these generate a dg operad O(X):

  * O(As) is written B here: generators m_k = D_k of degree 1 and
    m_{k,l} = phi(product)^1_{k,l} of degree 0.  Its degree-0 binary part
    carries the product and, in homology, the antisymmetrized bracket.
  * O(A) is written G: generators phi(v)^1 over the cells v of the
    decomposed associahedra, plus the D_k.

An element of O(X) acts on tensor words by plugging letters into its
leaves, so there is one tree type: the tensor expression
x -> phi(x1, D(x2, x3)) is the `operad_core` tree phi(1, D(2, 3)) whose leaf
labels are the letters, and a tensor word is a tuple of such trees.
Everything here is built on even letters: the corestriction engine, the
shuffles, the three-split extension and both sides of the truncated
identities.  Read so, an expression sum is the operad element
`OperadElement(arity, exprs)` with the same coefficients: every expression
is already a tree, and the preorder-tensor coefficients agree because even
letters never produce interleaving signs.  Graded letters enter only
through one sign, `koszul_sign`, taken once per result term by `evaluate`
and by `at_parities`, the engine's reader on graded atoms.

Nothing here divides.  The cell boundaries, coproducts and counits are
integral, and so are the signs, so every coefficient is an `int`.

Sign conventions that the source identities leave open are fixed once by
requiring d^2 = 0 and the coderivation/coproduct compatibility rules, and
are exported through `signs_report`.
"""

from __future__ import annotations

import functools
import itertools

from . import associahedra as ah
from .coalgebra_operad import counit_morphism, delta_cell
from .exact_chain import (Complex, GradedMap, GradedSpace, Scalar, span,
                          vec_acc, vec_axpy)
from .operad_core import (
    GeneratorSymbol, Leaf, Node, OperadElement, ShiftedElement, corolla,
    format_tree, graft, parity_sign, perm_sgn, relabel, signed_shuffles,
    substitute, transpose_sign, tree_arity, tree_degree, tree_vertices,
    FreeDifferential,
)


class OXError(Exception):
    pass


# ---------------------------------------------------------------------------
# generator symbols

_PHI = "phi"
_D = "D"

#: the single binary product cell of the associative operad
AS2 = GeneratorSymbol("as2", 2, 0, payload=("as", 2))


def d_symbol(l: int) -> GeneratorSymbol:
    """The corestriction component D_l (arity l, degree 1)."""
    if l < 2:
        raise OXError("D symbols start at arity 2")
    return GeneratorSymbol(f"D{l}", l, 1, payload=(_D, l))


def phi_symbol(ctx_name: str, cell, profile) -> GeneratorSymbol:
    """phi(cell)^1 with the given block profile (all entries >= 1)."""
    profile = tuple(profile)
    if not profile or any(k < 1 for k in profile):
        raise OXError("profile entries must be >= 1")
    if len(profile) != tree_arity(cell):
        raise OXError("profile length must equal the cell arity")
    name = f"phi[{ctx_name};{format_tree(cell)};{','.join(map(str, profile))}]"
    return GeneratorSymbol(name, sum(profile), tree_degree(cell),
                           payload=(_PHI, ctx_name, cell, profile))


def mm_symbol(k: int, l: int) -> GeneratorSymbol:
    """m_{k,l} in B: the binary product read through blocks of sizes k, l."""
    return phi_symbol("As", corolla(AS2), (k, l))


def _el(tree, c=1) -> OperadElement:
    return OperadElement.from_tree(tree, c)


# ---------------------------------------------------------------------------
# coalgebra-operad contexts

class _AsContext:
    """The associative operad: one basis element per arity, represented by
    planar binary trees over `AS2` (any two shapes of the same arity are
    identified only in the quotient; expansion keeps the literal shape)."""

    name = "As"

    def boundary(self, t) -> dict:
        return {}

    def delta(self, t) -> dict:
        return {(t, t): 1}

    def eps(self, t) -> Scalar:
        return 1

    def insert0(self, t, i: int) -> dict:
        """Delete input slot i of a binary tree and splice its parent."""
        def go(u):
            a, b = u.children
            if isinstance(a, Leaf) and a.label == i:
                return b
            if isinstance(b, Leaf) and b.label == i:
                return a
            if i in a.letters:
                return Node(u.symbol, (go(a), b))
            return Node(u.symbol, (a, go(b)))

        res = go(t)
        mapping = {l: (l if l < i else l - 1) for l in res.letters}
        return {relabel(res, mapping): 1}


class _AContext:
    """The cellular operad of decomposed associahedra."""

    name = "A"

    def __init__(self):
        self._deletions = {}

    def boundary(self, t) -> dict:
        return dict(ah.boundary(t).terms)

    def delta(self, t) -> dict:
        return delta_cell(t)

    def eps(self, t) -> Scalar:
        return counit_morphism(t)

    def insert0(self, t, i: int) -> dict:
        """Delete input slot i of the cell t (insert the unit there).

        Each (t, i) is computed once and kept in this context's table.
        `phi1_tree`'s empty-block branch, its only caller, just reads the
        result, so treat it as read-only.
        """
        if (t, i) not in self._deletions:
            self._deletions[t, i] = dict(
                ah.insert_chain(tree_arity(t), 0, i, _el(t)).terms)
        return self._deletions[t, i]


AS_CONTEXT = _AsContext()
A_CONTEXT = _AContext()
_CONTEXTS = {"As": AS_CONTEXT, "A": A_CONTEXT}


def context(name: str):
    try:
        return _CONTEXTS[name]
    except KeyError:
        raise OXError(f"unknown coalgebra-operad context {name!r}")


def one_tree(n: int):
    """Canonical representative of the arity-n associative multiplication:
    the left comb of binary products (n = 1 is the identity)."""
    if n < 1:
        raise OXError("arity must be >= 1")
    if n == 1:
        return Leaf(1)
    t = corolla(AS2, (1, 2))
    for i in range(3, n + 1):
        t = Node(AS2, (t, Leaf(i)))
    return t


# ---------------------------------------------------------------------------
# tensor expressions: trees whose leaf labels are letters

def word_nops(w) -> int:
    return sum(x.nverts for x in w)


def truncate_words(ws: dict, max_weight: int) -> dict:
    return {w: c for w, c in ws.items() if word_nops(w) <= max_weight}


def truncate_exprs(es: dict, max_weight: int) -> dict:
    return {e: c for e, c in es.items() if e.nverts <= max_weight}


def _splits(word, r: int):
    """Ordered deconcatenations of a word into r (possibly empty) pieces."""
    n = len(word)
    for cuts in itertools.combinations_with_replacement(range(n + 1), r - 1):
        pieces = []
        prev = 0
        for c in cuts:
            pieces.append(word[prev:c])
            prev = c
        pieces.append(word[prev:])
        yield tuple(pieces)


# ---------------------------------------------------------------------------
# corestriction expansion engine, on even atoms
#
# The blocks hold atoms: letters, or expressions standing in for tensor
# factors.  The engine never reads a parity; `at_parities` reads its result
# on graded atoms.  Results are memoized, so treat them as read-only.

@functools.cache
def phi1_tree(ctx, t, blocks) -> dict:
    """Rank-1 corestriction of phi(t) applied to the given blocks.

    `t` is a cell tree of the context (possibly multi-vertex: a composite
    in the cell operad), `blocks` a tuple of tuples of atoms (one per input
    slot of t).  Returns expression -> coeff.

    Composites expand multiplicatively: phi of a grafting is phi of the
    root applied to the full corestrictions of the children.  Empty blocks
    are resolved by deleting the corresponding input slot of the cell.
    """
    if isinstance(t, Leaf):
        if len(blocks) != 1:
            raise OXError("identity cell takes one block")
        return {blocks[0][0]: 1} if len(blocks[0]) == 1 else {}
    if len(blocks) != tree_arity(t):
        raise OXError("block count must match the cell arity")

    for i, b in enumerate(blocks):
        if not b:
            nb = blocks[:i] + blocks[i + 1:]
            out = {}
            for s, c in ctx.insert0(t, i + 1).items():
                vec_axpy(out, c, phi1_tree(ctx, s, nb))
            return out

    if t.nverts == 1:
        if list(t.letters) != sorted(t.letters):
            raise OXError("cell leaf labels must be in planar order")
        profile = tuple(len(b) for b in blocks)
        sym = phi_symbol(ctx.name, t, profile)
        return {Node(sym, (x for b in blocks for x in b)): 1}

    # composite cell: recurse into the children
    infos = []
    pos = 0
    for ch in t.children:
        a = tree_arity(ch)
        chblocks = blocks[pos:pos + a]
        if isinstance(ch, Leaf):
            infos.append([(chblocks[0], 1)])
        else:
            local = relabel(ch, {l: l - pos for l in ch.letters})
            infos.append(list(phi_full(ctx, local, chblocks).items()))
        pos += a

    root = corolla(t.symbol)
    out = {}
    for combo in itertools.product(*infos):
        coeff = 1
        for _, c in combo:
            coeff *= c
        words = tuple(w for (w, _) in combo)
        vec_axpy(out, coeff, phi1_tree(ctx, root, words))
    return out


@functools.cache
def phi_rank(ctx, t, blocks, r: int) -> dict:
    """Rank-r corestriction of phi(t): word (length r) -> coefficient.

    Rank r >= 2 peels off one row: phi^1(a) on block prefixes, then
    phi^(r-1)(b) on the suffixes, summed over the terms a (x) b of the cell
    coproduct and the prefix/suffix cuts of every block (a cut with an
    empty first row is skipped).  Unrolled, the r rows run against
    (id (x) Delta) o ... o Delta, which is the iterated coproduct because
    the cell coproducts are coassociative.
    """
    if r < 0:
        raise OXError("rank must be >= 0")
    if len(blocks) != tree_arity(t):
        raise OXError("block count must match the cell arity")
    if r == 0:
        if any(blocks):
            return {}
        e = ctx.eps(t)
        return {(): e} if e else {}
    if r == 1:
        return {(e,): c for e, c in phi1_tree(ctx, t, blocks).items()}
    if r > sum(len(b) for b in blocks):
        return {}

    heads = [[x[:k] for k in range(len(x) + 1)] for x in blocks]
    tails = [[x[k:] for k in range(len(x) + 1)] for x in blocks]
    out = {}
    for (a, b), c0 in ctx.delta(t).items():
        for head, tail in zip(itertools.product(*heads),
                              itertools.product(*tails)):
            first = phi1_tree(ctx, a, head)
            if not first:
                continue
            rest = phi_rank(ctx, b, tail, r - 1)
            for e, c1 in first.items():
                for w, c2 in rest.items():
                    vec_acc(out, (e,) + w, c0 * c1 * c2)
    return out


def phi_full(ctx, t, blocks) -> dict:
    """All corestriction ranks at once: word -> coefficient."""
    out = {}
    total = sum(len(b) for b in blocks)
    for r in range(0, total + 1):
        vec_axpy(out, 1, phi_rank(ctx, t, blocks, r))
    return out


def koszul_sign(x, q) -> int:
    """Koszul sign of a tree, or of a word of trees, on graded letters.

    `q[l - 1]` is the parity of letter l.  The sign is that of the
    permutation of the letters, times, at every level, each tree's
    operators moving past the letters of the trees before it.
    """
    def past(trees):
        sign = transpose_sign([
            [u.total_degree for u in trees],
            [sum(q[l - 1] for l in u.letters) for u in trees]])
        for u in trees:
            if isinstance(u, Node):
                sign *= past(u.children)
        return sign

    trees = x if isinstance(x, tuple) else (x,)
    return parity_sign([l for u in trees for l in u.letters], q) * past(trees)


def _substitute(x, atoms):
    """A tree, or a word of trees, with atoms[l - 1] in place of letter l."""
    if isinstance(x, tuple):
        return tuple(_substitute(u, atoms) for u in x)
    if isinstance(x, Leaf):
        return atoms[x.label - 1]
    return Node(x.symbol, (_substitute(u, atoms) for u in x.children))


def at_parities(fn, ctx, t, blocks, q, *rank) -> dict:
    """`fn` (`phi1_tree`, `phi_rank` or `phi_full`) on blocks of graded atoms.

    `q` holds one parity per atom, in block order: the list convention of
    `koszul_sign`.  The engine runs on one even placeholder letter per
    atom, each term then takes its `koszul_sign` under `q`, and the atoms
    replace the placeholders.
    """
    atoms = [x for b in blocks for x in b]
    if len(q) != len(atoms):
        raise OXError("one parity per atom is required")
    placeholders = _letter_blocks(tuple(len(b) for b in blocks))
    out = {}
    for x, c in fn(ctx, t, placeholders, *rank).items():
        vec_acc(out, _substitute(x, atoms), c * koszul_sign(x, q))
    return out


def _letter_blocks(profile):
    blocks = []
    nxt = 1
    for k in profile:
        blocks.append(tuple(Leaf(l) for l in range(nxt, nxt + k)))
        nxt += k
    return tuple(blocks)


# ---------------------------------------------------------------------------
# reading expressions as operad elements, and evaluating elements back

def evaluate(e, parities) -> dict:
    """Evaluate an operad element on formal graded letters.

    `parities[i]` is the parity of the input in slot i+1.  Returns
    expression -> coefficient, each term keyed by its own tree and signed
    by its `koszul_sign`.
    """
    if isinstance(e, ShiftedElement):
        raise OXError("evaluate acts on unshifted elements")
    q = [p % 2 for p in parities]
    if len(q) != e.arity:
        raise OXError("one parity per input slot is required")
    return {t: c * koszul_sign(t, q) for t, c in e.terms.items()}


# ---------------------------------------------------------------------------
# the differential

def ox_differential(sym: GeneratorSymbol) -> OperadElement:
    """Differential of a generator of O(X), as an operad element.

    For D_k: minus the sum of all ways to substitute one D into another.
    For phi(cell)^1: phi of the cell boundary, minus D applied to every
    higher corestriction rank, plus (sign of |cell|) the insertion of a D
    into each block of arguments.
    """
    p = sym.payload
    if not (isinstance(p, tuple) and p and p[0] in (_PHI, _D)):
        raise OXError("not an O(X) generator")
    if p[0] == _D:
        k = p[1]
        terms = {}
        for r in range(2, k):
            j = k - r + 1
            outer = _el(corolla(d_symbol(r)))
            inner = _el(corolla(d_symbol(j)))
            for a in range(1, r + 1):
                vec_axpy(terms, -1, graft(outer, inner, a).terms)
        return OperadElement(k, terms)

    _, ctx_name, cell, profile = p
    ctx = context(ctx_name)
    n = sum(profile)
    blocks = _letter_blocks(profile)

    total = {}
    # phi of the cell boundary
    for t, c in ctx.boundary(cell).items():
        vec_axpy(total, c, phi1_tree(ctx, t, blocks))
    # minus D applied to the higher corestriction ranks
    for s in range(2, n + 1):
        for w, c in phi_rank(ctx, cell, blocks, s).items():
            vec_acc(total, Node(d_symbol(s), w), -c)
    # plus (sign |cell|) a D inserted into each block
    csign = -1 if tree_degree(cell) % 2 else 1
    for l, k in enumerate(profile):
        for j in range(2, k + 1):
            newprofile = profile[:l] + (k - j + 1,) + profile[l + 1:]
            nsym = phi_symbol(ctx_name, cell, newprofile)
            for pstart in range(0, k - j + 1):
                seg = blocks[l][pstart:pstart + j]
                args = []
                for b in range(len(profile)):
                    if b != l:
                        args.extend(blocks[b])
                    else:
                        args.extend(blocks[l][:pstart])
                        args.append(Node(d_symbol(j), seg))
                        args.extend(blocks[l][pstart + j:])
                vec_acc(total, Node(nsym, args), csign)
    return OperadElement(n, total)


def _ox_rule(sym: GeneratorSymbol):
    """The differential of an O(X) generator; other symbols are cycles."""
    p = sym.payload
    if isinstance(p, tuple) and p and p[0] in (_PHI, _D):
        return ox_differential(sym)
    return None


diff = FreeDifferential(_ox_rule)


# ---------------------------------------------------------------------------
# equality in O(As): the relation quotient at arity <= 3

def associativity_defect(profile=(1, 1, 1)) -> OperadElement:
    """A defining relation of O(As): the difference between the expansions
    of the triple product through its two binary-tree shapes, read at the
    given three-block profile."""
    if len(profile) != 3:
        raise OXError("the defect takes a three-block profile")
    n = sum(profile)
    blocks = _letter_blocks(profile)
    left = OperadElement(n, phi1_tree(AS_CONTEXT, one_tree(3), blocks))
    t = Node(AS2, (Leaf(1), Node(AS2, (Leaf(2), Leaf(3)))))
    right = OperadElement(n, phi1_tree(AS_CONTEXT, t, blocks))
    return left.sub(right)


_b_relations: dict = {}


def _b_relation_basis(arity: int) -> list:
    """Spanning set of the relation ideal of O(As) in one arity (3 or 4):
    the associativity defect composed with generators, closed under input
    relabeling and the differential."""
    if arity in _b_relations:
        return _b_relations[arity]
    r = associativity_defect()
    if arity == 3:
        seeds = [r]
    elif arity == 4:
        seeds = [associativity_defect((2, 1, 1)),
                 associativity_defect((1, 2, 1)),
                 associativity_defect((1, 1, 2))]
        for gt in (corolla(mm_symbol(1, 1)), corolla(d_symbol(2))):
            g = _el(gt)
            for i in range(1, 4):
                seeds.append(graft(r, g, i))
            for i in range(1, 3):
                seeds.append(graft(g, r, i))
    else:
        raise OXError("relation basis available for arity 3 and 4 only")
    out = []
    for seed in seeds:
        for images in itertools.permutations(range(1, arity + 1)):
            perm = {i + 1: images[i] for i in range(arity)}
            rp = seed.permute(perm)
            out.append(rp)
            dr = diff(rp)
            if not dr.is_zero():
                out.append(dr)
    _b_relations[arity] = out
    return out


def equal_in_O(e1: OperadElement, e2: OperadElement, operad: str = "B") -> bool:
    """Equality of elements in O(X).

    O(A) is free on its generators, so equality is syntactic.  O(As) has
    the associativity relation among its binary generators; at arities 3
    and 4 the difference is reduced against the (differential-closed) span
    of the composed and relabeled relation.  Larger arities are not
    decided.
    """
    if e1.arity != e2.arity:
        raise OXError("arity mismatch")
    d = e1.sub(e2)
    if d.is_zero():
        return True
    if operad == "G":
        return False
    if operad != "B":
        raise OXError(f"unknown operad {operad!r}")
    if d.arity <= 2:
        return False
    if d.arity > 4:
        raise OXError("equality in O(As) is decided only up to arity 4")
    deg = d.degree()
    rels = [v for v in _b_relation_basis(d.arity) if v.degree() == deg]
    trees = set(d.terms)
    for v in rels:
        trees.update(v.terms)
    index = {t: i for i, t in enumerate(sorted(trees, key=lambda u: u.sort_key()))}
    return span((v.terms for v in rels), index).contains(d.terms)


def bracket() -> OperadElement:
    """The binary degree-0 bracket: the antisymmetrized product."""
    s = mm_symbol(1, 1)
    return _el(corolla(s, (1, 2))).sub(_el(corolla(s, (2, 1))))


def jacobiator() -> OperadElement:
    """Sum of the cyclic relabelings of bracket-of-bracket; zero in the
    quotient iff the graded Jacobi identity holds."""
    b = bracket()
    g = graft(b, b, 1)
    cyc = {1: 2, 2: 3, 3: 1}
    cyc2 = {1: 3, 2: 1, 3: 2}
    return g.add(g.permute(cyc)).add(g.permute(cyc2))


# ---------------------------------------------------------------------------
# arity-2 homology

def _arity2_complex(operad: str):
    if operad == "B":
        g0 = mm_symbol(1, 1)
    elif operad == "G":
        g0 = phi_symbol("A", ah.point_cell(2), (1, 1))
    else:
        raise OXError(f"unknown operad {operad!r}")
    g1 = d_symbol(2)
    basis = [corolla(g0, (1, 2)), corolla(g0, (2, 1)),
             corolla(g1, (1, 2)), corolla(g1, (2, 1))]
    space = GradedSpace(basis, {t: tree_degree(t) for t in basis})
    columns = {}
    for t in basis:
        img = diff(_el(t))
        for u in img.terms:
            if u not in space.index:
                raise OXError("differential leaves the arity-2 span")
        columns[t] = dict(img.terms)
    d = GradedMap(space, space, 1, columns)
    return basis, Complex(space, d)


def arity2_homology(operad: str = "B") -> dict:
    """Homology of the arity-2 part, with representative cycles.

    Returns {"dims": degree -> dimension, "reps": degree -> element}.  For
    the shifted operad ("Binfty") the representatives are wrapped shifted
    elements and the degrees drop by one.
    """
    base = "B" if operad == "Binfty" else operad
    _, cx = _arity2_complex(base)
    dims = {}
    reps = {}
    for deg in (0, 1):
        dim, cycles = cx.homology(deg)
        if dim:
            dims[deg] = dim
            reps[deg] = OperadElement(2, cycles[0])
    if operad == "Binfty":
        dims = {d - 1: v for d, v in dims.items()}
        reps = {d - 1: ShiftedElement(e, 1) for d, e in reps.items()}
    return {"dims": dims, "reps": reps}


# ---------------------------------------------------------------------------
# tensor-word operators: shuffles and the three-split extension
#
# Both act on even letters, so a tree shuffles by its operator degree alone;
# graded letters take their signs from `koszul_sign`.

def shuffle_many(words) -> dict:
    """Shuffle product of tensor words, signed by the trees' degrees."""
    out = {(): 1}
    for w in words:
        nxt = {}
        for acc_w, c in out.items():
            for sign, word in signed_shuffles(acc_w, w, tree_degree):
                vec_acc(nxt, word, sign * c)
        out = nxt
    return out


def t_chi(chi, words) -> dict:
    """Extend an operator chi on middle blocks over words of even letters.

    Every word is split into first/middle/last; chi eats the middles, the
    firsts and lasts are shuffled on the two sides.  The pieces are even,
    so neither their regrouping nor chi moving past the firsts is signed;
    on graded letters both signs come from `koszul_sign`.  chi maps a
    tuple of words to expression -> coeff.
    """
    words = tuple(tuple(w) for w in words)
    shuffled = functools.cache(shuffle_many)   # splits share their pieces
    out = {}
    for splits in itertools.product(*[list(_splits(w, 3)) for w in words]):
        midval = chi(tuple(s[1] for s in splits))
        if not midval:
            continue
        fsh = shuffled(tuple(s[0] for s in splits))
        lsh = shuffled(tuple(s[2] for s in splits))
        for fw, fc in fsh.items():
            for e, mc in midval.items():
                for lw, lc in lsh.items():
                    vec_acc(out, fw + (e,) + lw, fc * mc * lc)
    return out


# ---------------------------------------------------------------------------
# resolved sign conventions (see signs_report)

#: the unary operation on words of length >= 2 entering the identities
#: below is minus the corestriction component D.
UNARY_D_SIGN = -1
#: global sign of the chi-term in the coproduct compatibility rule
RULE_CHI_SIGN = 1
#: global sign of the counit/shuffle term in the same rule
RULE_EPS_SIGN = 1
#: global sign of the composition terms in the differential identity
TRI_COMP_SIGN = 1
#: global sign of the neighbor-shuffle terms in the differential identity
TRI_CUP_SIGN = 1


def _phi_lower(i: int, blocks) -> dict:
    """The arity-i operation of the top-cell family, rank 1, applied to
    blocks of tensor factors on even letters (each atom is as odd as its
    operator degree); i = 1 is the (signed) corestriction D."""
    blocks = tuple(tuple(b) for b in blocks)
    if i == 1:
        (w,) = blocks
        if len(w) < 2:
            return {}
        return {Node(d_symbol(len(w)), w): UNARY_D_SIGN}
    if i == 2 and not all(blocks):
        return {}
    q = [x.total_degree % 2 for b in blocks for x in b]
    out = {}
    for t, c in ah.fundamental_class(i).terms.items():
        vec_axpy(out, c, at_parities(phi1_tree, A_CONTEXT, t, blocks, q))
    return out


def holie_gen(k: int) -> OperadElement:
    """phi of the fundamental class of the k-th associahedron, with unit
    blocks: the arity-k generator chain of the bracket family."""
    return OperadElement(k, {corolla(phi_symbol("A", t, (1,) * k)): c
                             for t, c in ah.fundamental_class(k).terms.items()})


def _coproduct_sides(cell, profile):
    """Both sides of the coproduct rule on even letters."""
    blocks = _letter_blocks(profile)
    lhs = truncate_words(phi_full(A_CONTEXT, cell, blocks), 1)

    def chi(mids):
        if sum(len(m) for m in mids) < 2:
            return {}
        return phi1_tree(A_CONTEXT, cell, mids)

    rhs = {}
    vec_axpy(rhs, RULE_CHI_SIGN, t_chi(chi, blocks))
    e = A_CONTEXT.eps(cell)
    if e:
        vec_axpy(rhs, RULE_EPS_SIGN * e, shuffle_many(blocks))
    return lhs, truncate_words(rhs, 1)


def check_coproduct_rule(cell, profile) -> bool:
    """phi(cell) as a full coalgebra map equals, modulo weight-2 words, the
    three-split extension of its rank-1 part plus counit times shuffle."""
    lhs, rhs = _coproduct_sides(cell, profile)
    return lhs == rhs


def _differential_sides(k: int):
    """Both sides of the differential rule at arity k on even letters."""
    letters = _letter_blocks((1,) * k)  # letters[i - 1] = (letter i,)
    lhs = truncate_exprs(diff(holie_gen(k)).terms, 2)

    rhs = {}
    # neighbor shuffles through the arity-(k-1) operation
    for r in range(1, k):
        sign = TRI_CUP_SIGN * (-1 if (r - 1) % 2 else 1)
        for w, c in shuffle_many(letters[r - 1:r + 1]).items():
            blocks = letters[:r - 1] + (w,) + letters[r + 1:]
            vec_axpy(rhs, sign * c, _phi_lower(k - 1, blocks))
    # compositions through the three-split extension
    for i in range(1, k + 1):
        j = k + 1 - i
        chi = functools.partial(_phi_lower, j)
        for l in range(1, i + 1):
            # the solved insertion sign (-1)^((l-1)(j-1)+(i-1)(j-2)); its
            # first factor is the stated position sign (-1)^((l-1)(k-i)),
            # the second the Koszul correction already forced by d^2 = 0
            # on the fundamental cells
            ext = TRI_COMP_SIGN * ah.insertion_sign(i, j, l)
            for w, c in t_chi(chi, letters[l - 1:l - 1 + j]).items():
                blocks = letters[:l - 1] + (w,) + letters[l + j - 1:]
                vec_axpy(rhs, ext * c, _phi_lower(i, blocks))
    return lhs, truncate_exprs(rhs, 2)


def check_differential_rule(k: int) -> bool:
    """The differential of the arity-k top-cell generator equals
    composition terms plus neighbor-shuffle terms modulo weight-3
    expressions."""
    lhs, rhs = _differential_sides(k)
    return lhs == rhs


def check_Gg_and_tri(k: int) -> dict:
    """Verify both filtration-truncated identities at arity k; returns a
    report dict.

    Both sides are built once, on even letters.  On graded letters each
    side is its even self read through the same per-term `koszul_sign`,
    so one comparison covers every parity assignment of the inputs.
    """
    if not 2 <= k <= 5:
        raise OXError("checked for 2 <= k <= 5")
    coproduct_ok = all(check_coproduct_rule(cell, (1,) * k)
                       for cell in ah.decompose(k).cells)
    return {"arity": k, "coproduct_rule": coproduct_ok,
            "differential_rule": check_differential_rule(k)}


# ---------------------------------------------------------------------------
# the antisymmetrized family and its image in O(As)

def holie_map(k: int) -> OperadElement:
    """Antisymmetrization of the arity-k top-cell generator over all input
    relabelings, signed by the permutation (Koszul factors reappear on
    evaluation)."""
    base = holie_gen(k)
    terms = {}
    for images in itertools.permutations(range(1, k + 1)):
        perm = {i + 1: images[i] for i in range(k)}
        vec_axpy(terms, perm_sgn(images), base.permute(perm).terms)
    return OperadElement(k, terms)


def _to_B_image(sym: GeneratorSymbol) -> OperadElement:
    p = sym.payload
    if not (isinstance(p, tuple) and p and p[0] in (_PHI, _D)):
        raise OXError("not an O(X) generator")
    if p[0] == _D:
        return _el(corolla(sym))
    _, ctx_name, cell, profile = p
    if ctx_name == "As":
        return _el(corolla(sym))
    e = A_CONTEXT.eps(cell)
    if not e:
        return OperadElement.zero(sym.arity)
    n = tree_arity(cell)
    blocks = _letter_blocks(profile)
    img = OperadElement(sum(profile),
                        phi1_tree(AS_CONTEXT, one_tree(n), blocks))
    return img.scale(e)


def to_B(e: OperadElement) -> OperadElement:
    """The counit-induced morphism O(A) -> O(As): each cell generator goes
    to its counit value times the comb expansion of the multiplication."""
    return e.map_trees(lambda t: substitute(
        t, [_to_B_image(sym) for _, sym in tree_vertices(t)]))


def holie_vanishing(k: int, rank: int, parities) -> dict:
    """Rank-`rank` corestriction of the top-cell family on single-letter
    blocks; empty for rank >= 2, k >= 3."""
    blocks = _letter_blocks((1,) * k)
    out = {}
    for t, c in ah.fundamental_class(k).terms.items():
        vec_axpy(out, c,
                 at_parities(phi_rank, A_CONTEXT, t, blocks, parities, rank))
    return out


# ---------------------------------------------------------------------------
# resolved-sign report

def signs_report() -> str:
    """Deterministic text recording every sign convention that the machine
    checks pinned down (each is verified by the test suite)."""
    lines = [
        "# Resolved sign conventions",
        "",
        "All conventions below are forced (up to generator renormalization)",
        "by d^2 = 0, the coderivation property, and the coproduct",
        "compatibility rules; each is machine-verified by the test suite.",
        "",
        "* Orientation of composite cells: preorder tensor of vertex",
        "  orientations; grafting moves the inner block past the outer",
        "  vertices that follow the insertion slot.",
        "* Insertion sign in the boundary of the arity-k fundamental cell:",
        "  mu_i o_l mu_j enters d(mu_{i+j-1}) with (-1)^((l-1)(j-1)+(i-1)(j-2)),",
        "  the classical homotopy-associativity sign.",
        "* Coderivation: D applied to a tensor word acts on each consecutive",
        "  segment with the sign (-1)^(parity of the prefix).",
        "* d(D_k) = - sum over substitutions D_r o_a D_(k-r+1)  (all signs",
        "  equal on even letters; odd-letter signs follow from the preorder",
        "  convention).",
        "* d(phi(cell)^1) = phi(d cell)^1 - sum_s D_s phi^s",
        "  + (-1)^|cell| sum (phi with a D inserted into one block),",
        "  the inner D carrying the prefix-parity sign inside its block.",
        f"  In particular d m_(1,1) = -(m_2(x1,x2) + m_2(x2,x1)).",
        "* Rank-r corestriction: phi^r = (phi^1)^(tensor r) against the",
        "  iterated cell coproduct and ordered deconcatenations; the",
        "  regrouping Koszul sign (components past earlier rows' pieces,",
        "  pieces from block-major to row-major order) is explicit.",
        "* Three-split extension T(chi): chi eats the middles and passes the",
        "  shuffled firsts with the sign (-1)^(|chi| * parity of firsts).",
        "",
        "Global signs of the truncated identities:",
        "",
        f"* unary operation on long words = {UNARY_D_SIGN:+d} * D,",
        f"* coproduct rule: chi-term {RULE_CHI_SIGN:+d}, counit/shuffle term "
        f"{RULE_EPS_SIGN:+d},",
        f"* differential rule: composition terms {TRI_COMP_SIGN:+d} times the",
        "  insertion sign (-1)^((l-1)(j-1)+(i-1)(j-2)) (the bare position",
        "  factor (-1)^((l-1)(k-i)) alone fails first at arity 4 on the",
        "  (i,j) = (2,3) terms, exactly as for the fundamental-cell",
        f"  boundaries), neighbor-shuffle terms {TRI_CUP_SIGN:+d}.",
        "",
        "The global choices above are the unique assignment consistent at",
        "arities 2 and 3; arity 4 is then an over-determined confirmation.",
        "",
    ]
    return "\n".join(lines)
