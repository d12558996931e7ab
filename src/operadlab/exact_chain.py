"""Exact rational graded linear algebra: spaces, maps, complexes, homology.

Coefficients are exact rationals: a Python int while it is an integer, a
Fraction only once a real division leaves a non-integral quotient.  Every
division in the package goes through `exact_div`, so this is the one module
that imports `fractions`.  Vectors are sparse dicts mapping basis labels to
nonzero coefficients.  A degree is an int, the cohomological degree;
its parity is the Koszul parity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Scalar = int | Fraction
Vector = dict   # label -> Scalar


class SpaceMismatch(Exception):
    pass


class InhomogeneousRelation(Exception):
    pass


class StructuralFailure(Exception):
    """Raised when a differential fails d*d = 0."""


# ---------------------------------------------------------------------------
# vectors

def exact_div(a, b) -> Scalar:
    """a / b exactly: an int when the quotient is an integer, otherwise a
    Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def vec_acc(out: Vector, key, c) -> None:
    """out[key] += c in place; an entry that becomes zero is dropped.

    Accumulation starts from the integer 0, so integer coefficients stay
    integers; pass a Fraction where a Fraction result is wanted.
    """
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def vec_axpy(out: Vector, c, v: Mapping) -> None:
    """out += c * v in place; entries that become zero are dropped."""
    for k, x in v.items():
        s = out.get(k, 0) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def vec_scale(c, u: Vector) -> Vector:
    if not c:
        return {}
    return {k: c * v for k, v in u.items()}


def vec_clean(u: Vector) -> Vector:
    return {k: v for k, v in u.items() if v}


# ---------------------------------------------------------------------------
# spaces

class GradedSpace:
    """Finite free module with an ordered basis of opaque labels.

    Each label carries an int degree.  Label order is the ambient order
    used for deterministic pivoting.
    """

    def __init__(self, labels: Iterable, degrees: Mapping):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.degrees = {l: degrees[l] for l in self.labels}
        if any(type(d) is not int for d in self.degrees.values()):
            raise TypeError("a degree must be an int")
        self.index = {l: i for i, l in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degree(self, label) -> int:
        return self.degrees[label]

    def labels_of_degree(self, n: int) -> list:
        return [l for l in self.labels if self.degrees[l] == n]

    def __contains__(self, label):
        return label in self.index

    def __repr__(self):
        return f"GradedSpace(dim={self.dim})"


# ---------------------------------------------------------------------------
# maps

class GradedMap:
    """Sparse degree-homogeneous linear map between graded spaces.

    entries[src][tgt] holds the matrix coefficient; every entry must connect
    degrees differing exactly by `shift`.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: int,
                 entries: Mapping, check: bool = True):
        self.source = source
        self.target = target
        self.shift = shift
        self.entries = {}
        degrees = target.degrees
        for src, col in entries.items():
            col = vec_clean(col)
            if not col:
                continue
            if check and src not in source.index:
                raise SpaceMismatch(f"unknown source label {src!r}")
            self.entries[src] = col
            if check:
                want = source.degrees[src] + shift
                for tgt in col:
                    # one lookup: None for a label outside the target
                    got = degrees.get(tgt)
                    if got != want:
                        if got is None:
                            raise SpaceMismatch(
                                f"unknown target label {tgt!r}")
                        raise SpaceMismatch(
                            f"entry {src!r}->{tgt!r} violates shift "
                            f"{self.shift}")

    @classmethod
    def zero(cls, source, target, shift=0):
        return cls(source, target, shift, {})

    def column(self, src) -> Vector:
        return dict(self.entries.get(src, {}))

    def apply(self, vec: Vector) -> Vector:
        out: Vector = {}
        for src, c in vec.items():
            vec_axpy(out, c, self.entries.get(src, {}))
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target is not self.source and \
                other.target.labels != self.source.labels:
            raise SpaceMismatch("compose: inner spaces disagree")
        entries = {src: self.apply(col) for src, col in other.entries.items()}
        return GradedMap(other.source, self.target,
                         self.shift + other.shift, entries, check=False)

    def __repr__(self):
        return f"GradedMap(shift={self.shift}, nnz_cols={len(self.entries)})"


# ---------------------------------------------------------------------------
# elimination

def _int_entries(vec: Vector) -> Vector:
    """vec, with each integral Fraction entry made an int in place.  Echelon
    calls it on the remainders it returns and the rows it back-reduces: a
    sum of Fractions in vec_axpy stays a Fraction even when it is an
    integer."""
    for k, c in vec.items():
        if type(c) is Fraction and c.denominator == 1:
            vec[k] = c.numerator
    return vec


class Echelon:
    """Incremental Gaussian elimination with deterministic pivoting.

    The pivot of a vector is its nonzero label of least ambient index.
    Rows are normalized to pivot coefficient 1 and kept back-reduced (each
    row is 0 at every other pivot), so a vector is reduced in one pass over
    the pivots it touches.

    Relation tracking: when vectors are added with tags, every row also
    carries its expression as a combination of the tags added so far.  A
    dependent tagged vector is not inserted; it leaves its relation in
    `relation`: a combination of tags, 1 at its own tag and otherwise
    supported on the tags of earlier independent vectors, that maps to
    zero.  Tag either every added vector or none.
    """

    def __init__(self, index: Mapping):
        self.index = index
        self.rows = {}      # pivot label -> normalized row
        self.combos = {}    # pivot label -> row as a combination of tags
        self.relation = None

    def reduce(self, vec: Vector, combo=None) -> Vector:
        """Reduced copy of vec; the same steps applied to the rows' tag
        combinations are subtracted from `combo` in place, if given."""
        vec = vec_clean(vec)
        for p in [k for k in vec if k in self.rows]:
            c = -vec[p]
            vec_axpy(vec, c, self.rows[p])
            if combo is not None:
                vec_axpy(combo, c, self.combos[p])
        return _int_entries(vec)

    def add(self, vec: Vector, tag=None):
        """Insert vec; return the reduced remainder, or None if dependent."""
        combo = None if tag is None else {tag: 1}
        red = self.reduce(vec, combo)
        if not red:
            self.relation = combo and _int_entries(combo)
            return None
        piv = min(red, key=self.index.__getitem__)
        lead = red[piv]
        row = {k: exact_div(c, lead) for k, c in red.items()}
        if combo is not None:
            combo = {k: exact_div(c, lead) for k, c in combo.items()}
        for p, r in self.rows.items():
            c = r.get(piv)
            if c:
                vec_axpy(r, -c, row)
                _int_entries(r)
                if combo is not None:
                    vec_axpy(self.combos[p], -c, combo)
                    _int_entries(self.combos[p])
        self.rows[piv] = row
        if combo is not None:
            self.combos[piv] = combo
        return red

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: Vector) -> bool:
        return not self.reduce(vec)


def span(vectors: Iterable, index: Mapping) -> Echelon:
    """Echelon form of the span of `vectors`, added in order (empty and
    None entries are skipped); its rank counts the independent ones."""
    ech = Echelon(index)
    for vec in vectors:
        if vec:
            ech.add(vec)
    return ech


def kernel_basis(columns: Mapping, sources: list, index: Mapping) -> list:
    """Kernel of the map with the given columns, as vectors over `sources`.

    columns[s] is the image vector of source label s; index orders the
    target labels.  Sources are processed in the given order; the kernel
    vector of a dependent source s is 1 at s and otherwise supported on
    earlier independent sources, which fixes the basis uniquely.
    """
    ech = Echelon(index)
    kernel = []
    for s in sources:
        if ech.add(columns.get(s, {}), tag=s) is None:
            kernel.append(ech.relation)
    return kernel


class Complex:
    """Cochain complex: one graded space and a shift-(+1) differential."""

    def __init__(self, space: GradedSpace, d: GradedMap, check: bool = True):
        if d.shift != 1:
            raise ValueError("differential must have degree 1")
        self.space = space
        self.d = d
        if check and any(map(d.apply, d.entries.values())):
            raise StructuralFailure("d*d != 0")

    def homology(self, degree: int):
        """Dimension and representative cycles of H^degree.

        Representatives are cycles spanning a complement of the image of d.
        """
        labels = self.space.labels_of_degree(degree)
        below = self.space.labels_of_degree(degree - 1)
        cycles = kernel_basis(self.d.entries, labels, self.space.index)
        image = span(map(self.d.entries.get, below), self.space.index)
        reps = []
        rep_ech = Echelon(self.space.index)
        for z in cycles:
            if rep_ech.add(image.reduce(z)) is not None:
                reps.append(z)
        return len(reps), reps

    def rank_by_degree(self) -> dict:
        """Rank of d restricted to each source degree."""
        by_deg: dict = {}
        for l in self.space.labels:
            by_deg.setdefault(self.space.degree(l), []).append(l)
        return {n: span(map(self.d.entries.get, labels),
                        self.space.index).rank
                for n, labels in by_deg.items()}

    def homology_dims(self) -> dict:
        """Betti numbers via rank-nullity; no representatives computed."""
        ranks = self.rank_by_degree()
        by_deg: dict = {}
        for l in self.space.labels:
            d = self.space.degree(l)
            by_deg[d] = by_deg.get(d, 0) + 1
        return {n: cnt - ranks.get(n, 0) - ranks.get(n - 1, 0)
                for n, cnt in by_deg.items()}

    def euler_characteristic(self) -> int:
        chi = 0
        for l in self.space.labels:
            chi += (-1) ** (self.space.degree(l) % 2)
        return chi


def quotient(space: GradedSpace, relations: Iterable):
    """Quotient by the span of relation vectors.

    Each relation must be homogeneous.  The quotient basis consists of the
    non-pivot labels (first-independent-pivot rule); returns the quotient
    space and the surjective projection map.
    """
    relations = list(relations)
    for rel in relations:
        degs = {space.degree(l) for l in vec_clean(rel)}
        if len(degs) > 1:
            raise InhomogeneousRelation(f"relation spans degrees {degs}")
    ech = span(relations, space.index)
    pivots = set(ech.rows)
    qlabels = [l for l in space.labels if l not in pivots]
    qspace = GradedSpace(qlabels, {l: space.degree(l) for l in qlabels})
    entries = {}
    for l in space.labels:
        if l in pivots:
            # pivot = -(free part of its fully reduced row)
            row = ech.rows[l]
            entries[l] = {k: -c for k, c in row.items() if k != l}
        else:
            entries[l] = {l: 1}
    proj = GradedMap(space, qspace, 0, entries, check=False)
    return qspace, proj
