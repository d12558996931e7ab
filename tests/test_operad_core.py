import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from operadlab import associahedra as ah
from operadlab import ox_construction as ox
from operadlab.exact_chain import vec_acc
from operadlab.operad_core import (
    CompositionError, FreeDifferential, GeneratorSymbol, Leaf, Node, OperadElement, corolla,
    graft, graft_tree, leaf_labels, parity_sign, perm_sgn, replace_vertex,
    shift_degree, signed_shuffles, substitute,
    suspension_sign, transpose_sign, tree_degree, tree_vertices,
    ShiftedElement,
)
from test_associahedra import ref_cell_differential

C2 = GeneratorSymbol("c", 2, 0)
A1 = GeneratorSymbol("a", 1, 1)
B1 = GeneratorSymbol("b", 1, 1)


def el(tree, c=1):
    return OperadElement.from_tree(tree, c)


def test_corolla_and_labels():
    t = corolla(C2)
    assert leaf_labels(t) == [1, 2]
    assert tree_degree(t) == 0


def test_node_child_count_must_match_arity():
    with pytest.raises(CompositionError):
        Node(C2, (Leaf(1),))
    with pytest.raises(CompositionError):
        Node(A1, (Leaf(1), Leaf(2)))
    with pytest.raises(CompositionError):
        corolla(C2, (1, 2, 3))


def test_graft_unit_behavior():
    f = el(corolla(C2))
    unit = OperadElement.identity()
    assert graft(f, unit, 1) == f
    assert graft(unit, f, 1) == f


def test_graft_sign_past_odd_vertex():
    # outer tree c(1, a(2)): grafting an odd element at slot 1 moves it
    # past the odd vertex a
    outer = Node(C2, (Leaf(1), Node(A1, (Leaf(2),))))
    inner = el(corolla(B1))
    res = graft(el(outer), inner, 1)
    (tree, coeff), = res.terms.items()
    assert coeff == Fraction(-1)
    # grafting at slot 2 passes nothing
    res2 = graft(el(outer), inner, 2)
    (_, coeff2), = res2.terms.items()
    assert coeff2 == Fraction(1)


def test_parallel_graft_interchange():
    # (f o_j g) o_i h = (-1)^{|g||h|} (f o_i h) o_{j+q-1} g  for i < j
    f = el(Node(C2, (Leaf(1), Leaf(2))))
    g = el(corolla(A1))
    h = el(corolla(B1))
    lhs = graft(graft(f, g, 2), h, 1)
    rhs = graft(graft(f, h, 1), g, 2).scale(-1)
    assert lhs == rhs


def test_nested_graft_associativity():
    f = el(corolla(C2))
    g = el(Node(C2, (Leaf(1), Node(A1, (Leaf(2),)))))
    h = el(corolla(B1))
    # (f o_2 g) o_3 h = f o_2 (g o_2 h)
    assert graft(graft(f, g, 2), h, 3) == graft(f, graft(g, h, 2), 2)


def test_replace_vertex_by_own_corolla_is_identity():
    t = Node(C2, (Node(A1, (Leaf(1),)), Leaf(2)))
    assert replace_vertex(t, (), el(corolla(C2))) == el(t)
    assert replace_vertex(t, (0,), el(corolla(A1))) == el(t)


M2 = GeneratorSymbol("m2", 2, 0)
M3 = GeneratorSymbol("m3", 3, -1)


def _assoc_differential():
    dm3 = graft(el(corolla(M2)), el(corolla(M2)), 1).sub(
        graft(el(corolla(M2)), el(corolla(M2)), 2))
    return FreeDifferential({M2: None, M3: dm3}.get)


def test_free_differential_squares_to_zero():
    d = _assoc_differential()
    x = graft(el(corolla(M3)), el(corolla(M3)), 2)
    assert d(d(x)).is_zero()
    y = graft(graft(el(corolla(M3)), el(corolla(M2)), 1), el(corolla(M3)), 4)
    assert d(d(y)).is_zero()


def test_free_differential_calls_its_rule_once_per_generator():
    calls = []
    values = {M3: _assoc_differential().value(M3)}

    def rule(g):
        calls.append(g)
        return values.get(g)

    d = FreeDifferential(rule)
    x = graft(graft(el(corolla(M3)), el(corolla(M3)), 2), el(corolla(M2)), 1)
    assert d(x) == _assoc_differential()(x)
    assert d(x) == _assoc_differential()(x)
    assert calls == [M3, M2]


def test_free_differential_rejects_a_wrong_rule_value_on_first_use():
    n3 = GeneratorSymbol("n3", 3, 1)
    bad_degree = FreeDifferential({M3: el(corolla(M3))}.get)
    with pytest.raises(ValueError, match="degree"):
        bad_degree(el(corolla(M3)))
    bad_arity = FreeDifferential({M2: el(corolla(n3))}.get)
    with pytest.raises(ValueError, match="arity"):
        bad_arity(el(corolla(M2)))


def test_free_differential_is_derivation():
    d = _assoc_differential()
    x = el(corolla(M3))
    y = el(corolla(M3))
    for i in (1, 2, 3):
        lhs = d(graft(x, y, i))
        rhs = graft(d(x), y, i).add(graft(x, d(y), i).scale(-1))  # |x| odd
        assert lhs == rhs


def _cycle_count(perm):
    seen, cycles = set(), 0
    for start in range(1, len(perm) + 1):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k - 1]
    return cycles


def test_parity_sign_matches_sgn_on_odd_degrees():
    # reference: a permutation of n letters with c cycles has sign
    # (-1)^(n - c)
    for n in (0, 1, 2, 3, 4, 5):
        for p in itertools.permutations(range(1, n + 1)):
            want = (-1) ** ((n - _cycle_count(p)) % 2)
            assert perm_sgn(p) == want
            assert parity_sign(p, [1] * n) == want
            assert parity_sign(p, [0] * n) == 1


def test_parity_sign_is_multiplicative():
    degs = [1, 0, 1, 1]
    n = 4
    for s in itertools.permutations(range(1, n + 1)):
        for t in itertools.permutations(range(1, n + 1)):
            # compose: first rearrange by s, then by t within the new order
            st = tuple(s[t[k] - 1] for k in range(n))
            degs_s = [degs[s[k] - 1] for k in range(n)]
            assert parity_sign(st, degs) == \
                parity_sign(s, degs) * parity_sign(t, degs_s)


def test_signed_shuffles_are_koszul_signed_in_combinations_order():
    rng = random.Random(5)
    for _ in range(300):
        ku, kv = rng.randint(0, 4), rng.randint(0, 4)
        letters = [f"u{i}" for i in range(ku)] + [f"v{j}" for j in range(kv)]
        par = {x: rng.randint(0, 1) for x in letters}
        want = []
        for pos in itertools.combinations(range(ku + kv), ku):
            us, vs = iter(range(ku)), iter(range(ku, ku + kv))
            perm = [next(us) if p in pos else next(vs)
                    for p in range(ku + kv)]
            sign = parity_sign([i + 1 for i in perm],
                               [par[x] for x in letters])
            want.append((sign, tuple(letters[i] for i in perm)))
        got = list(signed_shuffles(letters[:ku], letters[ku:],
                                   par.__getitem__))
        assert got == want, (letters, par)


@given(st.data())
def test_transpose_sign_is_the_koszul_sign_of_block_to_row_major(data):
    nb = data.draw(st.integers(0, 5))
    nr = data.draw(st.integers(0, 5))
    grid = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=nr, max_size=nr),
        min_size=nb, max_size=nb))
    # make some whole blocks and whole rows even
    even_blocks = data.draw(st.sets(st.integers(0, 4)))
    even_rows = data.draw(st.sets(st.integers(0, 4)))
    grid = [[2 * x if b in even_blocks or i in even_rows else x
             for i, x in enumerate(block)] for b, block in enumerate(grid)]
    # piece (b, i) is letter b * nr + i + 1 in block-major order
    degrees = [x for block in grid for x in block]
    row_major = [b * nr + i + 1 for i in range(nr) for b in range(nb)]
    assert transpose_sign(grid) == parity_sign(row_major, degrees)


# Reference signs for grafting and vertex replacement: one preorder walk per
# leaf, summing the degrees of the vertices after that leaf.

def _walk_degree_after(t, label):
    after, seen = 0, False

    def walk(u):
        nonlocal after, seen
        if isinstance(u, Leaf):
            seen = seen or u.label == label
            return
        if seen:
            after += u.symbol.degree
        for c in u.children:
            walk(c)

    walk(t)
    return after


def _ref_graft_sign(outer, inner, i):
    odd = tree_degree(inner) * _walk_degree_after(outer, i)
    return -1 if odd % 2 else 1


def _ref_replace_sign(s, child_degs):
    odd = sum(d * _walk_degree_after(s, j)
              for j, d in enumerate(child_degs, 1))
    return -1 if odd % 2 else 1


RANDOM_SYMBOLS = [GeneratorSymbol(f"r{a}_{d}", a, d)
                  for a in (0, 1, 2, 3) for d in (-1, 0, 1, 2)]


def _random_shape(rng, depth, branching=False):
    """A random unlabeled tree; a branching one has a root of arity >= 2."""
    if not branching and (depth == 0 or rng.random() < 0.25):
        return Leaf(0)
    sym = rng.choice([g for g in RANDOM_SYMBOLS
                      if g.arity >= 2 or not branching])
    return Node(sym, tuple(_random_shape(rng, depth - 1)
                           for _ in range(sym.arity)))


def _labeled(rng, t):
    """t with its leaves labeled by a random permutation of 1..n."""
    n = len(leaf_labels(t))
    labels = iter(rng.sample(range(1, n + 1), n))

    def label(u):
        if isinstance(u, Leaf):
            return Leaf(next(labels))
        return Node(u.symbol, tuple(label(c) for c in u.children))

    return label(t)


def _walk_attributes(t):
    """(letters, nverts, nleaves, total_degree) of a tree by a full walk."""
    if isinstance(t, Leaf):
        return (t.label,), 0, 1, 0
    letters, nverts, degree = (), 1, t.symbol.degree
    for c in t.children:
        cl, cv, _, cd = _walk_attributes(c)
        letters, nverts, degree = letters + cl, nverts + cv, degree + cd
    return letters, nverts, len(letters), degree


def _assert_attributes(t):
    assert (t.letters, t.nverts, t.nleaves, t.total_degree) == \
        _walk_attributes(t), t


def test_graft_and_replace_vertex_signs_on_random_trees():
    rng = random.Random(7)
    for _ in range(300):
        outer = _labeled(rng, _random_shape(rng, 3))
        inner = _labeled(rng, _random_shape(rng, 3))
        _assert_attributes(outer)
        _assert_attributes(inner)
        for i in range(1, len(leaf_labels(outer)) + 1):
            got = graft(el(outer), el(inner), i)
            assert list(got.terms.values()) == \
                [_ref_graft_sign(outer, inner, i)], (outer, inner, i)
            _assert_attributes(next(iter(got.terms)))
        # replace a vertex with odd or even random subtrees below it,
        # sitting at the root or below an earlier sibling
        s = _labeled(rng, _random_shape(rng, 3, branching=True))
        r = len(leaf_labels(s))
        v = Node(GeneratorSymbol("v", r, rng.randint(0, 1)),
                 tuple(_random_shape(rng, 2) for _ in range(r)))
        path = ()
        if rng.random() < 0.5:
            v, path = Node(C2, (_random_shape(rng, 2), v)), (1,)
        tree = _labeled(rng, v)
        target = tree.children[1] if path else tree
        got = replace_vertex(tree, path, el(s))
        want = _ref_replace_sign(s, [tree_degree(c) for c in target.children])
        assert list(got.terms.values()) == [want], (tree, path, s)
        _assert_attributes(next(iter(got.terms)))


def _substitute(t, path, s):
    """t with the vertex at `path` replaced by the tree s, whose leaf j
    stands for that vertex's child j."""
    if path:
        i = path[0]
        return Node(t.symbol, t.children[:i]
                    + (_substitute(t.children[i], path[1:], s),)
                    + t.children[i + 1:])
    if isinstance(s, Leaf):
        return t.children[s.label - 1]
    return Node(s.symbol, tuple(_substitute(t, (), c) for c in s.children))


def _ref_free_differential(d, e):
    """The derivation as a vertex-replacement sum, every term with its
    explicit signs: the degrees of the vertices before it in preorder, and
    the children moving into the replacement tree."""
    terms = {}
    for t, c in e.terms.items():
        before = 0
        for path, sym in tree_vertices(t):
            target = t
            for i in path:
                target = target.children[i]
            degs = [tree_degree(ch) for ch in target.children]
            for s, cs in d.value(sym).terms.items():
                sign = (-1) ** (before % 2) * _ref_replace_sign(s, degs)
                vec_acc(terms, _substitute(t, path, s), sign * c * cs)
            before += sym.degree
    return OperadElement(e.arity, terms)


def test_free_differential_matches_the_vertex_replacement_sum():
    # an odd child under the replaced root vertex, and an odd vertex
    # before a replaced one
    d = _assoc_differential()
    x = graft(graft(el(corolla(M3)), el(corolla(M3)), 2), el(corolla(M2)), 1)
    assert any(tree_degree(ch) % 2 for t in x.terms for ch in t.children)
    assert d(x) == _ref_free_differential(d, x)
    cells = ref_cell_differential()
    for t in ah.decompose(6).cells:
        want = _ref_free_differential(cells, el(t))
        assert cells(el(t)) == want == ah.boundary(t), t
    # the generators that the bop suite checks d^2 = 0 on
    gens = [ox.d_symbol(k) for k in range(2, 6)]
    gens += [ox.mm_symbol(k, l) for k in range(1, 5) for l in range(1, 5)
             if k + l <= 5]
    for g in gens:
        dg = ox.diff(el(corolla(g)))
        assert dg == _ref_free_differential(ox.diff, el(corolla(g)))
        assert ox.diff(dg) == _ref_free_differential(ox.diff, dg)


U1 = GeneratorSymbol("u", 1, 1)


def _random_rule(rng):
    """Random differential values for the random symbols below degree 2: a
    corolla one degree up with permuted leaves, the symbol under an odd
    unary vertex, and the symbol with an odd unary vertex above a leaf."""
    values = {}
    for g in RANDOM_SYMBOLS:
        if g.degree == 2:
            continue
        a = g.arity
        up = GeneratorSymbol(f"r{a}_{g.degree + 1}", a, g.degree + 1)
        v = el(corolla(up, rng.sample(range(1, a + 1), a)), rng.choice((1, -2)))
        v = v.add(el(Node(U1, (corolla(g),)), rng.choice((1, -1, 3))))
        if a:
            kids = [Leaf(l) for l in range(1, a + 1)]
            j = rng.randrange(a)
            kids[j] = Node(U1, (kids[j],))
            v = v.add(el(Node(g, tuple(kids)), rng.choice((1, -1))))
        values[g] = v
    return FreeDifferential(values.get)


def _odd_subtree(rng, depth):
    while True:
        t = _random_shape(rng, depth)
        if t.total_degree % 2:
            return t


def _deep_odd_tree(rng):
    """A random labeled tree with an odd vertex at depth 2 whose parent has
    an odd earlier sibling."""
    root = rng.choice([g for g in RANDOM_SYMBOLS if g.arity >= 2])
    mid = rng.choice([g for g in RANDOM_SYMBOLS if g.arity >= 1])
    low = rng.choice([g for g in RANDOM_SYMBOLS if g.degree % 2])
    deep = Node(low, tuple(_random_shape(rng, 1) for _ in range(low.arity)))
    kids = [_odd_subtree(rng, 2),
            Node(mid, (deep,) + tuple(_random_shape(rng, 1)
                                      for _ in range(mid.arity - 1)))]
    kids += [_random_shape(rng, 2) for _ in range(root.arity - 2)]
    return _labeled(rng, Node(root, tuple(kids)))


def test_free_differential_recursion_on_deep_odd_trees():
    rng = random.Random(11)
    d = _random_rule(rng)
    for _ in range(200):
        x = el(_deep_odd_tree(rng))
        assert d(x) == _ref_free_differential(d, x), x
    # a sum whose trees share subtrees
    t = _deep_odd_tree(rng)
    x = el(t, 2).add(el(Node(t.symbol, t.children[::-1]), -1))
    assert d(x) == _ref_free_differential(d, x)


def _random_tree_of_arity(rng, r):
    while True:
        t = _random_shape(rng, 2)
        if t.nleaves == r:
            return _labeled(rng, t)


def _ref_graft_tree(outer, inner, i):
    n = len(leaf_labels(inner))

    def shift(u, k):
        if isinstance(u, Leaf):
            return Leaf(u.label + k)
        return Node(u.symbol, tuple(shift(c, k) for c in u.children))

    def build(u):
        if isinstance(u, Leaf):
            if u.label == i:
                return shift(inner, i - 1)
            return Leaf(u.label if u.label < i else u.label + n - 1)
        return Node(u.symbol, tuple(build(c) for c in u.children))

    return build(outer)


def test_substitute_matches_one_vertex_at_a_time_on_random_trees():
    # the simultaneous substitution against replacing one vertex at a time,
    # later vertices first, each with its explicit interleaving sign
    rng = random.Random(5)
    for _ in range(200):
        tree = _deep_odd_tree(rng)
        verts = tree_vertices(tree)
        images = []
        for _, sym in verts:
            img = el(_random_tree_of_arity(rng, sym.arity), rng.choice((1, -1)))
            if rng.random() < 0.5:
                img = img.add(el(_random_tree_of_arity(rng, sym.arity), 2))
            images.append(img)
        want = el(tree)
        for (path, _), img in reversed(list(zip(verts, images))):
            terms = {}
            for t, c in want.terms.items():
                target = t
                for i in path:
                    target = target.children[i]
                degs = [tree_degree(ch) for ch in target.children]
                for s, cs in img.terms.items():
                    vec_acc(terms, _substitute(t, path, s),
                            _ref_replace_sign(s, degs) * c * cs)
            want = OperadElement(want.arity, terms)
        assert substitute(tree, images) == want, tree
        outer, inner = images[0], images[-1]
        for to in outer.terms:
            for ti in inner.terms:
                for i in range(1, len(leaf_labels(to)) + 1):
                    assert graft_tree(to, ti, i)[1] == \
                        _ref_graft_tree(to, ti, i)


def test_shift_degree_examples():
    assert shift_degree(0, 2, 1) == -1
    assert shift_degree(0, 2, -1) == 1
    for k in range(2, 7):
        assert shift_degree(2 - k, k, -1) == 1
        assert shift_degree(shift_degree(5, k, 3), k, -3) == 5


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


def test_shift_roundtrip():
    f = el(corolla(M3))
    sh = shift_operad(f, 2)
    assert shift_operad(sh, -2) == f
    assert shift_operad(f, 0) == f


def test_suspension_sign_unital_normalization():
    # composition at the first slot of degree-0 generators is sign-free
    for p in range(1, 7):
        for q in range(1, 7):
            assert suspension_sign(p, q, 1, 0, 0, 1) == 1
            assert suspension_sign(p, q, 1, 0, 0, -1) == 1


def _shifted_generators(m):
    f = shift_operad(el(corolla(GeneratorSymbol("f", 2, 0))), m)
    g = shift_operad(el(corolla(GeneratorSymbol("g", 2, 1))), m)
    h = shift_operad(el(corolla(GeneratorSymbol("h", 3, -1))), m)
    return f, g, h


@pytest.mark.parametrize("m", [1, -1, 2])
def test_shifted_composition_axioms(m):
    f, g, h = _shifted_generators(m)
    for x, y, z in itertools.permutations([f, g, h]):
        # nested: (x o_i y) o_{i-1+j} z = x o_i (y o_j z)
        for i in range(1, x.arity + 1):
            for j in range(1, y.arity + 1):
                lhs = x.graft(y, i).graft(z, i - 1 + j)
                rhs = x.graft(y.graft(z, j), i)
                assert lhs.element == rhs.element, (m, i, j)
        # parallel: i < j slots of x
        for i in range(1, x.arity + 1):
            for j in range(i + 1, x.arity + 1):
                lhs = x.graft(y, j).graft(z, i)
                sgn = -1 if (y.degree() % 2) and (z.degree() % 2) else 1
                rhs = x.graft(z, i).graft(y, j + z.arity - 1).scale(sgn)
                assert lhs.element == rhs.element, (m, i, j)


def test_shifted_permutation_twist():
    f, g, _ = _shifted_generators(1)
    swapped = f.permute({1: 2, 2: 1})
    assert swapped.element == f.element.permute({1: 2, 2: 1}).scale(-1)
    even = shift_operad(f, 1)  # total shift 2
    assert even.permute({1: 2, 2: 1}).element == \
        even.element.permute({1: 2, 2: 1})


def test_inhomogeneous_degree_raises():
    x = el(corolla(M2)).add(el(corolla(GeneratorSymbol("n2", 2, 1))))
    with pytest.raises(ValueError):
        x.degree()
