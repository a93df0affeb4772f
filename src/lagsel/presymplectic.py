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
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .linalg import Matrix, Subspace, Vector, _rref_int_rows, as_rational, check_dim, denominator_lcm, integer_rows, kernel


@dataclass(frozen=True, init=False)
class SkewForm:
    """A skew-symmetric bilinear form, stored as its integer Gram matrix.

    ``integer_matrix`` is the Gram matrix scaled by ``scale``, the lcm of its
    denominators: the form's value on the i-th and j-th standard basis
    vectors is ``integer_matrix[i][j] / scale``.  The pair is canonical, so
    equal forms compare and hash equal.  A positive scaling changes no
    orthogonal complement, null space or isotropy, so the integer primitives
    all read ``integer_matrix``.  ``matrix`` is built on first read.

    ``SkewForm(matrix)`` takes a ``Matrix`` and enforces exact skew symmetry.
    """

    integer_matrix: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, matrix: Matrix):
        entries = matrix.entries
        scale = denominator_lcm(x for row in entries for x in row)
        self._set([[x.numerator * (scale // x.denominator) for x in row] for row in entries], scale)

    def _set(self, rows: Sequence[Sequence[int]], scale: int) -> None:
        n = len(rows)
        if any(len(row) != n for row in rows) or any(
            rows[i][j] != -rows[j][i] for i in range(n) for j in range(i, n)
        ):
            raise ValueError("matrix of a skew form must be exactly skew-symmetric")
        g = gcd(scale, *(x for row in rows for x in row)) if scale != 1 else 1
        object.__setattr__(self, "integer_matrix", tuple(tuple(x // g for x in row) for row in rows))
        object.__setattr__(self, "scale", scale // g)

    @classmethod
    def _from_integers(cls, rows: Sequence[Sequence[int]], scale: int) -> SkewForm:
        """The form with Gram matrix ``rows / scale``, for integer rows and scale > 0."""
        form = object.__new__(cls)
        form._set(rows, scale)
        return form

    @cached_property
    def matrix(self) -> Matrix:
        """The Gram matrix as Fractions."""
        return Matrix([[Fraction(x, self.scale) for x in row] for row in self.integer_matrix])

    @property
    def dim(self) -> int:
        return len(self.integer_matrix)

    @classmethod
    def zero(cls, dim: int) -> SkewForm:
        return cls._from_integers([[0] * dim for _ in range(dim)], 1)

    @classmethod
    def from_upper_entries(cls, dim: int, entries: Iterable[tuple[int, int, object]]) -> SkewForm:
        """Build a form from its strictly-upper entries (1-based index pairs)."""
        check_dim(dim)
        upper = {}
        for i, j, value in entries:
            if not 1 <= i < j <= dim:
                raise ValueError(f"upper entry ({i}, {j}) out of range for dim {dim}")
            upper[i - 1, j - 1] = as_rational(value)
        scale = denominator_lcm(upper.values())
        rows = [[0] * dim for _ in range(dim)]
        for (i, j), v in upper.items():
            rows[i][j] = v.numerator * (scale // v.denominator)
            rows[j][i] = -rows[i][j]
        return cls._from_integers(rows, scale)

    def is_zero(self) -> bool:
        return not any(map(any, self.integer_matrix))

    def __add__(self, other: SkewForm) -> SkewForm:
        if self.dim != other.dim:
            raise ValueError("shape mismatch in skew form sum")
        s, t = self.scale, other.scale
        rows = [[t * x + s * y for x, y in zip(r1, r2)] for r1, r2 in zip(self.integer_matrix, other.integer_matrix)]
        return SkewForm._from_integers(rows, s * t)


@dataclass(frozen=True, init=False)
class Flag:
    """A complete flag V_1 ⊂ ... ⊂ V_m given by an invertible basis matrix.

    The j-th flag step is spanned by the first j columns.  The flag is stored
    as ``integer_columns``: column a times ``scales[a]``, the lcm of its own
    denominators.  The pair is canonical, so equal basis matrices give equal
    flags and hashes.  A positive scaling of a basis vector changes no flag
    step, so the integer primitives all read these columns.
    ``basis_matrix`` is built on first read.

    ``Flag(basis_matrix)`` takes a ``Matrix`` and checks that it is square
    and invertible.
    """

    integer_columns: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]

    def __init__(self, basis_matrix: Matrix):
        m = basis_matrix.rows
        if basis_matrix.cols != m:
            raise ValueError("flag basis matrix must be square")
        columns = basis_matrix.transpose().entries
        scales = tuple(map(denominator_lcm, columns))
        cols = tuple(map(tuple, integer_rows(columns)))
        standard = scales == (1,) * m and cols == Subspace.full(m).rows
        if not standard and len(_rref_int_rows([list(col) for col in cols])) != m:
            raise ValueError("flag basis matrix must be invertible")
        object.__setattr__(self, "integer_columns", cols)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "_standard", standard)

    @cached_property
    def basis_matrix(self) -> Matrix:
        """The basis matrix as Fractions, one flag basis vector per column."""
        return Matrix(zip(*([Fraction(x, k) for x in col] for col, k in zip(self.integer_columns, self.scales))))

    @property
    def dim(self) -> int:
        return len(self.integer_columns)

    @classmethod
    def standard(cls, dim: int) -> Flag:
        return cls(Matrix.identity(dim))

    def is_standard(self) -> bool:
        return self._standard

    def column(self, a: int) -> Vector:
        """The a-th flag basis vector (0-based)."""
        return self.basis_matrix.column(a)

    def subspace(self, j: int) -> Subspace:
        """The flag step V_j (0 <= j <= m)."""
        if not 0 <= j <= self.dim:
            raise ValueError(f"flag step {j} out of range")
        if self._standard:
            return Subspace._from_canonical(self.dim, self.integer_columns[:j], tuple(range(j)))
        return Subspace._span(self.dim, [list(col) for col in self.integer_columns[:j]])

    def embed(self, j: int, sub: Subspace) -> Subspace:
        """Map a subspace expressed in V_j-coordinates into the ambient space."""
        if sub.ambient_dim != j:
            raise ValueError("coordinate dimension does not match flag step")
        if self._standard:
            # Zero-padding preserves the canonical form.
            pad = (0,) * (self.dim - j)
            return Subspace._from_canonical(self.dim, tuple(row + pad for row in sub.rows), sub.pivots)
        # Column a is integer_columns[a] / scales[a]; scale all to a common multiple.
        common = lcm(*self.scales[:j])
        cols = [[common // k * x for x in col] for col, k in zip(self.integer_columns[:j], self.scales)]
        return _span_in_ambient(self.dim, sub.rows, cols)


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
    return kernel(b.integer_matrix)


def restrict(b: SkewForm, flag: Flag, j: int) -> SkewForm:
    """The form B restricted to V_j, in the coordinates of the flag basis.

    ``_integer_gram`` holds s k_a k_c B(p_a, p_c), for the form's scale s and
    the column scales k; with K = lcm(k_a), entry (a, c) is that times
    (K / k_a)(K / k_c), over s K².
    """
    if not 1 <= j <= flag.dim:
        raise ValueError(f"flag step {j} out of range 1..{flag.dim}")
    gram, _ = _integer_gram(b, flag)
    scales = flag.scales[:j]
    common = lcm(*scales)
    factors = [common // k for k in scales]
    # zip stops at j, so this is the leading j x j block.
    rows = [[fa * fc * x for fc, x in zip(factors, row)] for fa, row in zip(factors, gram)]
    return SkewForm._from_integers(rows, b.scale * common * common)


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


def _span_in_ambient(m: int, vectors: list[list[int]], cols: Sequence[Sequence[int]] | None) -> Subspace:
    """The span in Q^m of integer vectors in the coordinates of ``_integer_gram``'s columns."""
    if cols is not None:
        vectors = [[sum(map(mul, x, row)) for row in zip(*cols)] for x in vectors]
    return Subspace._span(m, vectors)


def _select(gram: Sequence[Sequence[int]], cols: Sequence[Sequence[int]] | None) -> tuple[Subspace, SignatureVector]:
    """The selection and the signature vector from one sweep of ``_integer_gram``'s output."""
    m = len(gram)
    ups, dims = _sweep(gram)
    return _span_in_ambient(m, ups, cols), SignatureVector(m, tuple(dims))


def vergne_select(b: SkewForm, flag: Flag | None = None) -> Subspace:
    """The canonical Lagrangian selection N(B|V_1) + ... + N(B|V_m).

    It is spanned by the up-step vectors of the sweep, mapped into the
    ambient space.  The result is maximal isotropic with dimension
    (m + dim N(B)) / 2 and contains N(B).
    """
    if flag is None:
        flag = Flag.standard(b.dim)
    return _select(*_integer_gram(b, flag))[0]


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
