"""Exact linear algebra over the rationals.

Everything downstream (presymplectic forms, filtrations, Lie algebras) is
built from the primitives here: reduced row echelon form, kernels, subspace
sums and intersections.  All arithmetic is exact.

Inside the library a subspace is a tuple of integer rows: its reduced row
echelon basis with each row scaled to coprime integers and a positive pivot.
That form is canonical, so set equality is plain ``==`` on the rows, and the
primitives run on integers without building a ``Fraction``.  Skew forms
(``SkewForm.integer_matrix`` and its scale), flags (``Flag.integer_columns``,
each column scaled on its own) and Lie algebras (integer structure constants)
follow the same rule, scaled by the lcm of their denominators.  Fractions
appear only at the boundary: ``Matrix`` entries, ``rref``,
``Subspace.basis``, ``Functional`` coefficients, ``LieAlgebra.table`` and
``LieAlgebra.bracket``, ``SkewForm.matrix``, ``Flag.basis_matrix`` and
``Flag.column``.

Every elimination goes through one routine, ``_rref_int_rows``: fraction-free
Gauss-Jordan elimination on integer rows.  Dimensions are capped at
``MAX_DIM``, checked before anything of that size is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

Vector = tuple[Fraction, ...]

# Largest dimension accepted for an algebra, form, flag, subspace or jump
# set: every object is dense in its dimension, so a larger one read from
# input could exhaust memory before any check runs.
MAX_DIM = 64


def check_dim(dim: int) -> None:
    """Raise ValueError for a dimension above ``MAX_DIM``; call it before allocating."""
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the limit of {MAX_DIM}")


def _strip_common_factor(row: list[int], ncols: int) -> None:
    # Divide the row by the gcd of its entries (gcd is never negative).
    g = 0
    for j in range(ncols):
        x = row[j]
        if x:
            g = gcd(g, x)
            if g == 1:
                return
    if g > 1:
        for j in range(ncols):
            row[j] //= g


def _rref_int_rows(rows: list[list[int]]) -> list[int]:
    """Reduce a list of integer rows in place; return the pivot columns.

    On return the rows form a normalized Gauss-Jordan shape: every pivot
    column contains a single nonzero entry (its pivot), each nonzero row is
    primitive with a positive pivot, rows are ordered by pivot column and
    zero rows sink to the bottom.  Dividing each row by its pivot entry
    yields the unique reduced row echelon form of the row space over the
    rationals.  Keeping the arithmetic on plain integers (stripped by gcd
    after every update) avoids per-operation rational normalization.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        src = -1
        for i in range(r, nrows):
            if rows[i][c]:
                src = i
                break
        if src < 0:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        prow = rows[r]
        # Normalize the pivot row first so elimination multipliers stay
        # positive and earlier pivot rows keep their positive pivots.
        if prow[c] < 0:
            for j in range(ncols):
                prow[j] = -prow[j]
        _strip_common_factor(prow, ncols)
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            q = row[c]
            if not q:
                continue
            g = gcd(p, q)
            a = p // g
            b = q // g
            for j in range(ncols):
                row[j] = a * row[j] - b * prow[j]
            _strip_common_factor(row, ncols)
        pivots.append(c)
        r += 1
    return pivots


def as_rational(value) -> Fraction:
    """Coerce ints, strings like ``"2/3"`` or ``"0.5"``, and Fractions to an exact rational.

    Strings in exponent notation are refused: ``"1e200000"`` would build a
    664,386-bit integer from eight characters, while an accepted string's
    bit length stays linear in its length.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass int, str or Fraction")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"refusing exponent notation in {value!r}; write an int, 'p/q' or a decimal")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {value!r}") from exc


def as_vector(entries: Iterable, dim: int | None = None) -> Vector:
    """Coerce a sequence to a tuple of rationals, optionally checking length."""
    vec = tuple(as_rational(x) for x in entries)
    if dim is not None and len(vec) != dim:
        raise ValueError(f"expected vector of length {dim}, got {len(vec)}")
    return vec


def denominator_lcm(values: Iterable[Fraction]) -> int:
    """The least common multiple of the denominators of ``values`` (1 if none)."""
    scale = 1
    for x in values:
        d = x.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    return scale


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators, as integers.

    Row scaling preserves the row space, so RREF is unaffected.  A reduced
    row echelon row comes out primitive with a positive pivot: each prime of
    the lcm divides some denominator, so it misses that entry's numerator.
    """
    out = []
    for row in rows:
        scale = denominator_lcm(row)
        if scale == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _fraction_rows(int_rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> list[Vector]:
    """Reduced row echelon rows: each reduced integer row divided by its pivot."""
    rows = []
    for row, c in zip(int_rows, pivots):
        p = row[c]
        rows.append(tuple(Fraction(x, p) for x in row))
    return rows


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals, row-major."""

    entries: tuple[Vector, ...]

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(as_vector(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows in matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> Matrix:
        return Matrix(zip(*self.entries)) if self.entries else Matrix([])

    def rank(self) -> int:
        return len(pivot_columns(self.entries))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def rref(matrix: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of ``matrix`` and its pivot columns.

    The result has the same shape as the input (zero rows are kept at the
    bottom), leading entries are 1, and pivot columns are otherwise zero.
    """
    int_rows = integer_rows(matrix.entries)
    pivots = _rref_int_rows(int_rows)
    rows = _fraction_rows(int_rows, pivots)
    rows.extend([(Fraction(0),) * matrix.cols] * (matrix.rows - len(rows)))
    return Matrix(rows), tuple(pivots)


def pivot_columns(rows: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
    """The pivot columns of the reduced row echelon form of ``rows``.

    Column c is a pivot exactly when it is not in the span of the columns
    before it, so the pivots are the column rank profile.
    """
    return tuple(_rref_int_rows(integer_rows(rows)))


class Subspace:
    """A linear subspace of Q^m in canonical form.

    ``rows`` holds the reduced row echelon basis (no zero rows) with each row
    scaled to coprime integers and a positive pivot, and ``pivots`` its pivot
    columns.  The form is canonical, so two Subspaces are equal as sets
    exactly when they compare equal as values.  ``basis`` is the same basis
    as Fraction rows with leading entries 1, built on first read.

    ``Subspace(ambient_dim, basis, pivots)`` takes Fraction RREF rows and
    checks that they are canonical.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_basis")

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def __init__(self, ambient_dim: int, basis: Iterable[Iterable], pivots: Iterable[int]):
        basis = tuple(as_vector(row) for row in basis)
        pivots = tuple(pivots)
        if len(basis) != len(pivots):
            raise ValueError("basis/pivot length mismatch")
        if any(p2 <= p1 for p1, p2 in zip(pivots, pivots[1:])):
            raise ValueError("pivot columns must be strictly increasing")
        for r, (row, p) in enumerate(zip(basis, pivots)):
            if len(row) != ambient_dim:
                raise ValueError("basis row has wrong length")
            if row[p] != 1 or any(row[j] for j in range(p)):
                raise ValueError("basis is not in reduced row echelon form")
            if any(basis[k][p] for k in range(len(basis)) if k != r):
                raise ValueError("pivot column is not cleared")
        rows = tuple(tuple(row) for row in integer_rows(basis))
        self._set(ambient_dim, rows, pivots, basis)

    def _set(self, ambient_dim, rows, pivots, basis) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "ambient_dim", ambient_dim)
        setattr_(self, "rows", rows)
        setattr_(self, "pivots", pivots)
        setattr_(self, "_basis", basis)

    @classmethod
    def _from_canonical(cls, ambient_dim: int, rows, pivots) -> Subspace:
        """Wrap rows already in canonical form (primitive, positive pivots); unchecked."""
        sub = object.__new__(cls)
        sub._set(ambient_dim, rows, pivots, None)
        return sub

    @classmethod
    def _span(cls, ambient_dim: int, int_rows: list[list[int]]) -> Subspace:
        """Canonical form of the span of integer rows, reduced in place."""
        pivots = _rref_int_rows(int_rows)
        return cls._from_canonical(ambient_dim, tuple(map(tuple, int_rows[: len(pivots)])), tuple(pivots))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Iterable]) -> Subspace:
        """Span of the given vectors, canonicalized."""
        return cls._span(ambient_dim, integer_rows([as_vector(v, ambient_dim) for v in vectors]))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls._from_canonical(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        rows = tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim))
        return cls._from_canonical(ambient_dim, rows, tuple(range(ambient_dim)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Subspace is immutable")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, basis={self.basis}, pivots={self.pivots})"

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The reduced row echelon basis as Fraction rows."""
        basis = self._basis
        if basis is None:
            basis = tuple(_fraction_rows(self.rows, self.pivots))
            object.__setattr__(self, "_basis", basis)
        return basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def contains_vector(self, vec: Sequence) -> bool:
        """True iff ``vec`` reduces to zero against the canonical basis."""
        return self._reduces_to_zero(integer_rows([as_vector(vec, self.ambient_dim)])[0])

    def _reduces_to_zero(self, v: Sequence[int]) -> bool:
        # Fraction-free: v <- a v - c row clears v's entry at the pivot a of
        # row, and later rows are zero in earlier pivot columns.
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                a = row[p]
                v = [a * x - c * y for x, y in zip(v, row)]
        return not any(v)

    def contains(self, other: Subspace) -> bool:
        return contains(self, other)

    def __add__(self, other: Subspace) -> Subspace:
        return subspace_sum(self, other)

    def __and__(self, other: Subspace) -> Subspace:
        return intersect(self, other)

    def __le__(self, other: Subspace) -> bool:
        return contains(other, self)


def _check_same_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {s1.ambient_dim} != {s2.ambient_dim}"
        )


def _kernel_generators(rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int) -> list[list[int]]:
    """Integer generators of ``{x : Mx = 0}`` for M in ``_rref_int_rows``' reduced shape.

    With L the lcm of the pivot entries ``M[r][p_r]``, each non-pivot column f
    gives the generator with L at f and ``-M[r][f] * L / M[r][p_r]`` at each
    pivot p_r, zero elsewhere.  Each vanishes on every row of M, and they are
    independent, since only the f-th one is nonzero at f.  Read as
    functionals, those of a subspace's canonical rows span its annihilator.
    """
    scale = lcm(*(row[p] for row, p in zip(rows, pivots)))
    factors = [(p, row, scale // row[p]) for row, p in zip(rows, pivots)]
    pivot_set = set(pivots)
    gens = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = scale
        for p, row, k in factors:
            v[p] = -row[f] * k
        gens.append(v)
    return gens


def kernel(matrix: Matrix | Sequence[Sequence[int]]) -> Subspace:
    """The solution space ``{x : Mx = 0}`` in canonical form.

    ``matrix`` is a Matrix or a list of integer rows (an empty list is 0 x 0).
    M is reduced once, ``_kernel_generators`` reads the generators off the
    reduced rows, and one more elimination makes them canonical.
    """
    if isinstance(matrix, Matrix):
        ncols, rows = matrix.cols, integer_rows(matrix.entries)
    else:
        ncols, rows = len(matrix[0]) if matrix else 0, [list(row) for row in matrix]
    pivots = _rref_int_rows(rows)
    if not pivots:
        return Subspace.full(ncols)
    if len(pivots) == ncols:
        return Subspace.zero(ncols)
    return Subspace._span(ncols, _kernel_generators(rows, pivots, ncols))


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical form of ``S1 + S2``: one elimination of the stacked rows."""
    _check_same_ambient(s1, s2)
    if not s1.rows or s2.is_full():
        return s2
    if not s2.rows or s1.is_full():
        return s1
    return Subspace._span(s1.ambient_dim, [list(row) for row in s1.rows + s2.rows])


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical form of ``S1 ∩ S2`` by Zassenhaus' algorithm.

    The row space of ``[[A, A], [B, 0]]``, for basis rows A of S1 and B of
    S2, holds ``(a + b, a)``; its vectors with left half zero are exactly
    ``(0, a)`` with ``a = -b`` in both.  After one elimination the rows whose
    pivot lies in the right half are zero on the left, so their right halves
    are already the canonical rows of the intersection.
    """
    _check_same_ambient(s1, s2)
    if not s1.rows or s2.is_full() or s1 == s2:
        return s1
    if not s2.rows or s1.is_full():
        return s2
    m = s1.ambient_dim
    pad = (0,) * m
    rows = [list(a + a) for a in s1.rows] + [list(b + pad) for b in s2.rows]
    pivots = _rref_int_rows(rows)
    rows_out = []
    pivots_out = []
    for row, c in zip(rows, pivots):
        if c >= m:
            rows_out.append(tuple(row[m:]))
            pivots_out.append(c - m)
    return Subspace._from_canonical(m, tuple(rows_out), tuple(pivots_out))


def contains(s1: Subspace, s2: Subspace) -> bool:
    """True iff ``S2 ⊆ S1``."""
    _check_same_ambient(s1, s2)
    if s2.dim >= s1.dim:
        return s2.dim == s1.dim and s1.rows == s2.rows
    return s1.is_full() or all(s1._reduces_to_zero(row) for row in s2.rows)

