"""Exact linear algebra over the rationals.

Everything downstream (presymplectic forms, filtrations, Lie algebras) is
built from the four primitives here: reduced row echelon form, kernels,
subspace sums and intersections.  All arithmetic is exact; subspaces are kept
in a canonical form (RREF basis) so that set equality is plain ``==`` on the
representation.

The row-reduction inner loop runs on integer rows through a kernel selected
at import time: the compiled ``lagsel._rref`` extension when it was built,
otherwise the pure-Python twin ``lagsel._rref_py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

try:
    from ._rref import rref_int_rows as _rref_int_rows

    _RREF_BACKEND = "compiled"
except ImportError:  # pragma: no cover - depends on whether the ext was built
    from ._rref_py import rref_int_rows as _rref_int_rows

    _RREF_BACKEND = "python"

Rational = Fraction

Vector = tuple[Fraction, ...]


def rref_backend() -> str:
    """Name of the active row-reduction kernel: ``"compiled"`` or ``"python"``."""
    return _RREF_BACKEND


def as_rational(value) -> Fraction:
    """Coerce ints, strings like ``"2/3"``, and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass int, str or Fraction")
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

    Row scaling preserves the row space, so RREF is unaffected.
    """
    out = []
    for row in rows:
        scale = denominator_lcm(row)
        if scale == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _int_rows_to_rref(int_rows: list[list[int]], pivots: list[int]) -> list[Vector]:
    rows = []
    for r, c in enumerate(pivots):
        p = int_rows[r][c]
        rows.append(tuple(Fraction(x, p) for x in int_rows[r]))
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

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return Matrix(
            [[dot(row, col) for col in cols] for row in self.entries]
        )

    def apply(self, vec: Sequence) -> Vector:
        """Matrix-vector product ``M v``."""
        v = as_vector(vec, self.cols)
        return tuple(dot(row, v) for row in self.entries)

    def scaled(self, c) -> Matrix:
        c = as_rational(c)
        return Matrix([[c * x for x in row] for row in self.entries])

    def __add__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.rows
        return all(self.entries[i][j] == -self.entries[j][i] for i in range(n) for j in range(i, n))

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
    rows = _int_rows_to_rref(int_rows, pivots)
    rows.extend([(Fraction(0),) * matrix.cols] * (matrix.rows - len(rows)))
    return Matrix(rows), tuple(pivots)


def pivot_columns(rows: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
    """The pivot columns of the reduced row echelon form of ``rows``.

    Column c is a pivot exactly when it is not in the span of the columns
    before it, so the pivots are the column rank profile.
    """
    return tuple(_rref_int_rows(integer_rows(rows)))


def _canonical_rows(vectors: Sequence[Vector]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    int_rows = integer_rows(vectors)
    pivots = _rref_int_rows(int_rows)
    return tuple(_int_rows_to_rref(int_rows, pivots)), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^m in canonical form.

    ``basis`` holds the reduced row echelon basis (no zero rows), so two
    Subspaces are equal as sets exactly when they compare equal as values.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...]

    def __post_init__(self):
        if len(self.basis) != len(self.pivots):
            raise ValueError("basis/pivot length mismatch")
        if any(p2 <= p1 for p1, p2 in zip(self.pivots, self.pivots[1:])):
            raise ValueError("pivot columns must be strictly increasing")
        for r, (row, p) in enumerate(zip(self.basis, self.pivots)):
            if len(row) != self.ambient_dim:
                raise ValueError("basis row has wrong length")
            if row[p] != 1 or any(row[j] for j in range(p)):
                raise ValueError("basis is not in reduced row echelon form")
            if any(self.basis[k][p] for k in range(len(self.basis)) if k != r):
                raise ValueError("pivot column is not cleared")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Iterable]) -> Subspace:
        """Span of the given vectors, canonicalized."""
        vecs = [as_vector(v, ambient_dim) for v in vectors]
        rows, pivots = _canonical_rows(vecs)
        return cls(ambient_dim, rows, pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        eye = Matrix.identity(ambient_dim)
        return cls(ambient_dim, eye.entries, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def contains_vector(self, vec: Sequence) -> bool:
        """True iff ``vec`` reduces to zero against the canonical basis."""
        v = list(as_vector(vec, self.ambient_dim))
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j in range(p, self.ambient_dim):
                    v[j] -= c * row[j]
        return not any(v)

    def contains(self, other: Subspace) -> bool:
        return contains(self, other)

    def __add__(self, other: Subspace) -> Subspace:
        return subspace_sum(self, other)

    def __and__(self, other: Subspace) -> Subspace:
        return intersect(self, other)

    def __le__(self, other: Subspace) -> bool:
        return contains(other, self)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.basis)


def _check_same_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {s1.ambient_dim} != {s2.ambient_dim}"
        )


def kernel(matrix: Matrix) -> Subspace:
    """The solution space ``{x : Mx = 0}`` in canonical form."""
    reduced, pivots = rref(matrix)
    n = matrix.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    gens = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced.entries[r][f]
        gens.append(v)
    return Subspace.from_vectors(n, gens)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical form of ``S1 + S2``."""
    _check_same_ambient(s1, s2)
    return Subspace.from_vectors(s1.ambient_dim, s1.basis + s2.basis)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical form of ``S1 ∩ S2`` via kernels of the stacked annihilators.

    Over Q with the standard pairing, x lies in the row space S exactly when
    x is orthogonal to ker(basis matrix of S), so the intersection is the
    kernel of the matrix whose rows generate both annihilators.
    """
    _check_same_ambient(s1, s2)
    ann1 = kernel(s1.basis_matrix() if s1.basis else Matrix.zero(1, s1.ambient_dim))
    ann2 = kernel(s2.basis_matrix() if s2.basis else Matrix.zero(1, s2.ambient_dim))
    return kernel(Matrix(ann1.basis + ann2.basis)) if (ann1.basis or ann2.basis) else Subspace.full(s1.ambient_dim)


def contains(s1: Subspace, s2: Subspace) -> bool:
    """True iff ``S2 ⊆ S1``."""
    _check_same_ambient(s1, s2)
    return all(s1.contains_vector(row) for row in s2.basis)


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solve ``A X = RHS`` for square invertible ``A`` (exact)."""
    if a.rows != a.cols:
        raise ValueError("solve requires a square matrix")
    if a.rows != rhs.rows:
        raise ValueError("right-hand side has wrong number of rows")
    n = a.rows
    augmented = Matrix([ra + rb for ra, rb in zip(a.entries, rhs.entries)])
    reduced, pivots = rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in reduced.entries])
