"""Presymplectic structures on Q^m.

A presymplectic structure is a skew-symmetric bilinear form B, not assumed
nondegenerate.  This module computes null spaces (radicals), B-orthogonal
complements, restrictions of B to the steps of a complete flag, and the
flag-based selection of a canonical Lagrangian subspace

    select(B) = N(B|V_1) + N(B|V_2) + ... + N(B|V_m),

whose stratum is recorded by the signature vector (dim N(B|V_j))_j.

Both come from one symplectic Gram-Schmidt sweep along the flag basis
(Vergne's construction; Bunch, Math. Comp. 38, 1982), in O(m^3) integer
operations on the Gram matrix G = P^T B P of the flag basis P.  The sweep
keeps hyperbolic pairs and a basis R_j of N(B|V_j).  Each new basis vector
is made B-orthogonal to the pairs.  If it then pairs with some r in R_j,
the step goes down: a new pair forms, and R_{j+1} lies in the span of R_j
with one vector fewer.  Otherwise the step goes up and the vector joins
R_{j+1}.  The selection is spanned by the up-step vectors, so it is maximal
isotropic, and its jump set is the set of down steps.

The per-step definition (``restrict`` to V_j, ``null_space``, ``Flag.embed``
and sum) is kept as public API and is the test oracle for the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .linalg import Matrix, Subspace, Vector, as_rational, check_dim, denominator_lcm, dot, integer_rows, kernel


@dataclass(frozen=True)
class SkewForm:
    """A skew-symmetric bilinear form, stored as its Gram matrix.

    ``matrix.entry(i, j)`` is the value of the form on the i-th and j-th
    standard basis vectors; exact skew symmetry is enforced on construction.
    """

    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_skew_symmetric():
            raise ValueError("matrix of a skew form must be exactly skew-symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def integer_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The Gram matrix scaled by the lcm of its denominators, in integers.

        A positive scaling changes no orthogonal complement, null space or
        isotropy, so the integer primitives all read this matrix.
        """
        entries = self.matrix.entries
        scale = denominator_lcm(x for row in entries for x in row)
        return tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in entries)

    @classmethod
    def zero(cls, dim: int) -> SkewForm:
        return cls(Matrix.zero(dim, dim))

    @classmethod
    def from_upper_entries(cls, dim: int, entries: Iterable[tuple[int, int, object]]) -> SkewForm:
        """Build a form from its strictly-upper entries (1-based index pairs)."""
        check_dim(dim)
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i, j, value in entries:
            if not 1 <= i < j <= dim:
                raise ValueError(f"upper entry ({i}, {j}) out of range for dim {dim}")
            v = as_rational(value)
            rows[i - 1][j - 1] = v
            rows[j - 1][i - 1] = -v
        return cls(Matrix(rows))

    def value(self, u, v) -> Fraction:
        """Evaluate the form on two vectors."""
        return dot(u, self.matrix.apply(v))

    def is_zero(self) -> bool:
        return all(not x for row in self.matrix.entries for x in row)

    def __add__(self, other: SkewForm) -> SkewForm:
        return SkewForm(self.matrix + other.matrix)

    def scaled(self, c) -> SkewForm:
        return SkewForm(self.matrix.scaled(c))


@dataclass(frozen=True)
class Flag:
    """A complete flag V_1 ⊂ ... ⊂ V_m given by an invertible basis matrix.

    The j-th flag step is spanned by the first j columns.
    """

    basis_matrix: Matrix

    def __post_init__(self):
        m = self.basis_matrix.rows
        if self.basis_matrix.cols != m:
            raise ValueError("flag basis matrix must be square")
        standard = self.basis_matrix == Matrix.identity(m)
        if not standard and self.basis_matrix.rank() != m:
            raise ValueError("flag basis matrix must be invertible")
        object.__setattr__(self, "_standard", standard)

    @property
    def dim(self) -> int:
        return self.basis_matrix.rows

    @classmethod
    def standard(cls, dim: int) -> Flag:
        return cls(Matrix.identity(dim))

    def is_standard(self) -> bool:
        return self._standard

    def column(self, a: int) -> Vector:
        """The a-th flag basis vector (0-based)."""
        return self.basis_matrix.column(a)

    @cached_property
    def integer_columns(self) -> tuple[tuple[int, ...], ...]:
        """The flag basis vectors, each scaled by the lcm of its own denominators.

        A positive scaling of a basis vector changes no flag step, so the
        integer primitives all read these columns.
        """
        return tuple(map(tuple, integer_rows(self.basis_matrix.transpose().entries)))

    def subspace(self, j: int) -> Subspace:
        """The flag step V_j (0 <= j <= m)."""
        if not 0 <= j <= self.dim:
            raise ValueError(f"flag step {j} out of range")
        if self._standard:
            return Subspace._from_canonical(self.dim, Subspace.full(self.dim).rows[:j], tuple(range(j)))
        return Subspace._span(self.dim, [list(col) for col in self.integer_columns[:j]])

    def embed(self, j: int, sub: Subspace) -> Subspace:
        """Map a subspace expressed in V_j-coordinates into the ambient space."""
        if sub.ambient_dim != j:
            raise ValueError("coordinate dimension does not match flag step")
        if self._standard:
            # Zero-padding preserves the canonical form.
            pad = (0,) * (self.dim - j)
            return Subspace._from_canonical(self.dim, tuple(row + pad for row in sub.rows), sub.pivots)
        cols = [self.column(a) for a in range(j)]
        vectors = []
        for row in sub.basis:
            vec = [Fraction(0)] * self.dim
            for a, coeff in enumerate(row):
                if coeff:
                    col = cols[a]
                    for t in range(self.dim):
                        vec[t] += coeff * col[t]
            vectors.append(vec)
        return Subspace.from_vectors(self.dim, vectors)


@dataclass(frozen=True)
class SignatureVector:
    """Per-step radical dimensions (k_1, ..., k_m), k_j = dim N(B|V_j).

    Realizable vectors satisfy 0 <= k_j <= j and k_j ≡ j (mod 2), because a
    skew form on a j-dimensional space has even rank.
    """

    m: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.m:
            raise ValueError("signature vector has wrong length")
        for j, k in enumerate(self.entries, start=1):
            if not 0 <= k <= j:
                raise ValueError(f"signature entry k_{j}={k} outside [0, {j}]")
            if (k - j) % 2:
                raise ValueError(f"signature entry k_{j}={k} has wrong parity")

    def __iter__(self):
        return iter(self.entries)


def _dims_match(b: SkewForm, s: Subspace) -> None:
    if b.dim != s.ambient_dim:
        raise ValueError(f"dimension mismatch: form on Q^{b.dim}, subspace in Q^{s.ambient_dim}")


def _images(b: SkewForm, s: Subspace) -> list[list[int]]:
    """The rows G v for the integer basis rows v of S, G = ``b.integer_matrix``."""
    return [[sum(map(mul, g, v)) for g in b.integer_matrix] for v in s.rows]


def b_perp(b: SkewForm, s: Subspace) -> Subspace:
    """The B-orthogonal complement {w : B(v, w) = 0 for all v in S}.

    Computed as the kernel of the integer rows G v, v in S's basis: by skew
    symmetry B(v, w) = -(G v)·w up to the positive scale of G.
    """
    _dims_match(b, s)
    if s.is_zero():
        return Subspace.full(b.dim)
    return kernel(_images(b, s))


def null_space(b: SkewForm) -> Subspace:
    """The radical N(B) = {w : B(v, w) = 0 for all v}."""
    return kernel(b.matrix)


def restrict(b: SkewForm, flag: Flag, j: int) -> SkewForm:
    """The form B restricted to V_j, in the coordinates of the flag basis."""
    if not 1 <= j <= flag.dim:
        raise ValueError(f"flag step {j} out of range 1..{flag.dim}")
    if b.dim != flag.dim:
        raise ValueError("form and flag dimensions differ")
    if flag.is_standard():
        return SkewForm(Matrix([row[:j] for row in b.matrix.entries[:j]]))
    cols = [flag.column(a) for a in range(j)]
    images = [b.matrix.apply(c) for c in cols]
    return SkewForm(Matrix([[dot(cols[a], images[c]) for c in range(j)] for a in range(j)]))


def _integer_gram(
    b: SkewForm, flag: Flag
) -> tuple[Sequence[Sequence[int]], Sequence[Sequence[int]] | None]:
    """The Gram matrix P^T B P of the flag basis, in integers, and P's columns.

    B is ``b.integer_matrix`` and P's columns are ``flag.integer_columns``.
    Positive scalings change no null space and no flag step.  The columns
    are None for the standard flag, whose P is the identity.
    """
    if b.dim != flag.dim:
        raise ValueError("form and flag dimensions differ")
    gram = b.integer_matrix
    if flag.is_standard():
        return gram, None
    cols = flag.integer_columns
    images = [[sum(map(mul, row, col)) for row in gram] for col in cols]
    return [[sum(map(mul, col, image)) for image in images] for col in cols], cols


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _sweep(gram: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Symplectic Gram-Schmidt along the flag basis of a Gram matrix.

    Returns the up-step vectors in flag coordinates and the radical
    dimensions (|R_1|, ..., |R_m|).  A vector x is carried as the row
    (x, x^T G), so B(x, y) is the second half of x's row dotted with y, and
    every update is integral: rows are combined fraction-free and divided
    by their content.
    """
    m = len(gram)

    def form(x: list[int], y: list[int]) -> int:
        return sum(map(mul, x[m:], y))  # B(x, y) = (x^T G) y

    pairs: list[tuple[list[int], list[int], int]] = []  # (u, v, B(u, v))
    radical: list[list[int]] = []
    ups: list[list[int]] = []
    dims: list[int] = []
    for j in range(m):
        w = [0] * m + list(gram[j])
        w[j] = 1
        for u, v, omega in pairs:
            wu, wv = form(w, u), form(w, v)
            if wu or wv:
                # B(w', u) = B(w', v) = 0 for w' = omega w - B(w, v) u + B(w, u) v.
                w = _primitive([omega * x - wv * y + wu * z for x, y, z in zip(w, u, v)])
        for k, r in enumerate(radical):
            rw = form(r, w)
            if rw:
                break
        else:
            radical.append(w)
            ups.append(w[:m])
            dims.append(len(radical))
            continue
        # Down: (r, w) is a new pair; the rest of R_j is made B-orthogonal to w.
        del radical[k]
        for i, s in enumerate(radical):
            sw = form(s, w)
            if sw:
                radical[i] = _primitive([rw * x - sw * y for x, y in zip(s, r)])
        pairs.append((r, w, rw))
        dims.append(len(radical))
    return ups, dims


def vergne_select(b: SkewForm, flag: Flag | None = None) -> Subspace:
    """The canonical Lagrangian selection N(B|V_1) + ... + N(B|V_m).

    It is spanned by the up-step vectors of the sweep, mapped into the
    ambient space.  The result is maximal isotropic with dimension
    (m + dim N(B)) / 2 and contains N(B).
    """
    if flag is None:
        flag = Flag.standard(b.dim)
    gram, cols = _integer_gram(b, flag)
    ups, _ = _sweep(gram)
    if cols is not None:
        ups = [[sum(map(mul, x, row)) for row in zip(*cols)] for x in ups]
    return Subspace.from_vectors(b.dim, ups)


def signature_vector(b: SkewForm, flag: Flag | None = None) -> SignatureVector:
    """The stratum label (dim N(B|V_1), ..., dim N(B|V_m))."""
    if flag is None:
        flag = Flag.standard(b.dim)
    _, dims = _sweep(_integer_gram(b, flag)[0])
    return SignatureVector(flag.dim, tuple(dims))


def is_isotropic(b: SkewForm, w: Subspace) -> bool:
    """True iff the form vanishes identically on W."""
    _dims_match(b, w)
    rows = w.rows
    images = _images(b, w)
    n = len(rows)
    # B(v, v) = 0 automatically for skew forms, so only distinct pairs matter.
    return all(not sum(map(mul, rows[a], images[c])) for a in range(n) for c in range(a + 1, n))


def is_lagrangian(b: SkewForm, w: Subspace) -> bool:
    """True iff W is maximal isotropic: isotropic with dim W = (m + dim N(B)) / 2."""
    _dims_match(b, w)
    target, rem = divmod(b.dim + null_space(b).dim, 2)
    assert rem == 0  # skew forms have even rank
    return w.dim == target and is_isotropic(b, w)
