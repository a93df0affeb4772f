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

``vergne_select`` and ``signature_vector`` are two readings of that one
sweep.  The first query on a form and a flag keeps a record on the form,
keyed by the flag, and later queries (the filtration and its verifier too)
read it there.  The record holds the Gram matrix; the sweep runs on the
first read of the selection or the signature, and the selection's span is
built on its own first read.  The record lives as long as the form object
does: there is no module-level cache.

``restrict`` and ``Flag.embed`` give the per-step definition (restrict to
V_j, ``null_space``, embed and sum); the tests' oracle for the sweep is
their own Fraction version of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .linalg import Matrix, Subspace, Vector, _echelon_int_rows, as_rational, check_dim, denominator_lcm, integer_rows, kernel


@dataclass(frozen=True, init=False)
class SkewForm:
    """A skew-symmetric bilinear form, stored as its integer Gram matrix.

    ``integer_matrix`` is the Gram matrix scaled by ``scale``, the lcm of its
    denominators: the form's value on the i-th and j-th standard basis
    vectors is ``integer_matrix[i][j] / scale``.  The pair is canonical, so
    equal forms compare and hash equal.  A positive scaling changes no
    orthogonal complement, null space or isotropy, so the integer primitives
    all read ``integer_matrix``.  ``matrix`` is built on first read, and the
    selection and signature along each flag queried are kept on the form
    for its lifetime (see ``_swept``).

    ``SkewForm(matrix)`` takes a ``Matrix``, the only input not skew by
    construction, and checks there that it is square and exactly
    skew-symmetric.  Every form the library builds itself goes through
    ``_from_integers``, which checks nothing.
    """

    integer_matrix: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, matrix: Matrix):
        entries = matrix.entries
        scale = denominator_lcm(x for row in entries for x in row)
        rows = [[x.numerator * (scale // x.denominator) for x in row] for row in entries]
        n = matrix.rows
        if matrix.cols != n or any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError("matrix of a skew form must be exactly skew-symmetric")
        self._set(rows, scale)

    def _set(self, rows: Sequence[Sequence[int]], scale: int) -> None:
        g = gcd(scale, *(x for row in rows for x in row)) if scale != 1 else 1
        if g != 1:
            rows, scale = [[x // g for x in row] for row in rows], scale // g
        object.__setattr__(self, "integer_matrix", tuple(map(tuple, rows)))
        object.__setattr__(self, "scale", scale)

    @classmethod
    def _from_integers(cls, rows: Sequence[Sequence[int]], scale: int) -> SkewForm:
        """The form with Gram matrix ``rows / scale``, divided by the gcd of scale and entries.

        The caller guarantees that ``rows`` is a square, exactly skew integer
        matrix and that ``scale > 0``; nothing here checks it.
        """
        form = object.__new__(cls)
        form._set(rows, scale)
        return form

    @cached_property
    def matrix(self) -> Matrix:
        """The Gram matrix as Fractions."""
        return Matrix([[Fraction(x, self.scale) for x in row] for row in self.integer_matrix])

    @cached_property
    def _sweeps(self) -> dict[Flag, _Sweep]:
        """The sweep along each flag queried, filled by ``_swept``."""
        return {}

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
            if (i - 1, j - 1) in upper:
                raise ValueError(f"upper entry ({i}, {j}) given twice")
            upper[i - 1, j - 1] = as_rational(value)
        scale = denominator_lcm(upper.values())
        rows = [[0] * dim for _ in range(dim)]
        for (i, j), v in upper.items():
            rows[i][j] = v.numerator * (scale // v.denominator)
            rows[j][i] = -rows[i][j]
        return cls._from_integers(rows, scale)


@dataclass(frozen=True, init=False)
class Flag:
    """A complete flag V_1 ⊂ ... ⊂ V_m given by an invertible basis matrix.

    The j-th flag step is spanned by the first j columns.  The flag is stored
    as ``integer_columns``: column a times ``scales[a]``, the lcm of its own
    denominators.  The pair is canonical, so equal basis matrices give equal
    flags and hashes.  A positive scaling of a basis vector changes no flag
    step, so the integer primitives read these columns, through ``_read``,
    ``_gram`` and ``_to_ambient``; only those and ``subspace`` know that the
    standard flag's basis is the identity.  ``basis_matrix`` is built on
    first read.

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
        if not standard and len(_echelon_int_rows([list(col) for col in cols])) != m:
            raise ValueError("flag basis matrix must be invertible")
        self._set(cols, scales, standard)

    def _set(self, cols: tuple[tuple[int, ...], ...], scales: tuple[int, ...], standard: bool) -> None:
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
        flag = object.__new__(cls)
        flag._set(Subspace.full(dim).rows, (1,) * dim, True)
        return flag

    def column(self, a: int) -> Vector:
        """The a-th flag basis vector (0-based)."""
        return self.basis_matrix.column(a)

    def _read(self, phis: Iterable[Sequence[int]]) -> list[Sequence[int]]:
        """Integer functionals in flag coordinates, phi -> (phi(p_a))_a: the rows Phi P.

        The standard flag returns the rows themselves, so they are not copied.
        """
        if self._standard:
            return list(phis)
        return [[sum(map(mul, phi, col)) for col in self.integer_columns] for phi in phis]

    def _gram(self, matrix: Sequence[Sequence[int]]) -> list[Sequence[int]]:
        """The Gram matrix P^T M P of the flag basis P for a skew integer matrix M.

        The result is skew too, so M P is formed once and only the entries
        above the diagonal of P^T (M P) are computed; each is mirrored with
        its sign flipped, and the diagonal is zero.  The standard flag
        returns M's rows themselves, so they are not copied.
        """
        if self._standard:
            return list(matrix)
        cols = self.integer_columns
        m = len(cols)
        mp = [[sum(map(mul, row, col)) for row in matrix] for col in cols]  # the columns of M P
        gram = [[0] * m for _ in range(m)]
        for a, col in enumerate(cols):
            row = gram[a]
            for c in range(a + 1, m):
                row[c] = x = sum(map(mul, col, mp[c]))
                gram[c][a] = -x
        return gram

    def _to_ambient(self, xs: Iterable[Sequence[int]]) -> list[list[int]]:
        """Integer vectors in flag coordinates into Q^m, x -> sum_a x_a p_a; x may stop at any V_j."""
        if self._standard:
            m = len(self.integer_columns)
            return [list(x) + [0] * (m - len(x)) for x in xs]
        rows = list(zip(*self.integer_columns))
        return [[sum(map(mul, x, row)) for row in rows] for x in xs]

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
        # Coordinate a multiplies integer_columns[a] / scales[a]; scale all to a common multiple.
        common = lcm(*self.scales[:j])
        factors = [common // k for k in self.scales[:j]]
        return Subspace._span(self.dim, self._to_ambient([list(map(mul, factors, row)) for row in sub.rows]))


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
    gram = _integer_gram(b, flag)
    scales = flag.scales[:j]
    common = lcm(*scales)
    factors = [common // k for k in scales]
    # zip stops at j, so this is the leading j x j block.
    rows = [[fa * fc * x for fc, x in zip(factors, row)] for fa, row in zip(factors, gram)]
    return SkewForm._from_integers(rows, b.scale * common * common)


def _integer_gram(b: SkewForm, flag: Flag) -> list[Sequence[int]]:
    """The Gram matrix P^T B P of the flag basis, in integers.

    B is ``b.integer_matrix`` and P's columns are ``flag.integer_columns``.
    Positive scalings change no null space and no flag step.
    """
    if b.dim != flag.dim:
        raise ValueError("form and flag dimensions differ")
    return flag._gram(b.integer_matrix)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _sweep(gram: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Symplectic Gram-Schmidt along the flag basis of a Gram matrix.

    Returns the up-step vectors in flag coordinates and the radical
    dimensions (|R_1|, ..., |R_m|).  A vector x is carried as the row
    (x, x^T G), so B(x, y) is the second half of x's row dotted with y, and
    every update is integral: rows are combined fraction-free and divided
    by their content, the new vector once per step after all its pair
    updates.
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
                # Each update is linear in w, so stripping the content once
                # after the last gives the same primitive vector.
                w = [omega * x - wv * y + wu * z for x, y, z in zip(w, u, v)]
        w = _primitive(w)
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


class _Sweep:
    """The Gram matrix of a form along a flag, and its one sweep read two ways.

    ``gram`` is ``_integer_gram``'s matrix, which ``filtration`` reads too.
    The sweep runs on the first read of ``signature``, the signature vector,
    or of ``selection``, the span of the up-step vectors in the ambient
    space, so a filtration-only query runs no sweep.  ``selection`` is built
    on its own first read, so a signature-only query runs no elimination.
    """

    def __init__(self, b: SkewForm, flag: Flag):
        self.gram = _integer_gram(b, flag)
        self._flag = flag

    @cached_property
    def _run(self) -> tuple[list[list[int]], list[int]]:
        return _sweep(self.gram)

    @cached_property
    def signature(self) -> SignatureVector:
        return SignatureVector(self._flag.dim, tuple(self._run[1]))

    @cached_property
    def selection(self) -> Subspace:
        return Subspace._span(self._flag.dim, self._flag._to_ambient(self._run[0]))


def _swept(b: SkewForm, flag: Flag | None) -> _Sweep:
    """The Gram matrix and sweep of the form along the flag (the standard flag for None).

    The only place a ``_Sweep`` is built: once per form and flag, kept in
    ``b._sweeps`` under the flag, so it lives exactly as long as the form.
    """
    if flag is None:
        flag = Flag.standard(b.dim)
    sweep = b._sweeps.get(flag)
    if sweep is None:
        sweep = b._sweeps[flag] = _Sweep(b, flag)
    return sweep


def vergne_select(b: SkewForm, flag: Flag | None = None) -> Subspace:
    """The canonical Lagrangian selection N(B|V_1) + ... + N(B|V_m).

    It is spanned by the up-step vectors of the sweep, mapped into the
    ambient space.  The result is maximal isotropic with dimension
    (m + dim N(B)) / 2 and contains N(B).
    """
    return _swept(b, flag).selection


def signature_vector(b: SkewForm, flag: Flag | None = None) -> SignatureVector:
    """The stratum label (dim N(B|V_1), ..., dim N(B|V_m))."""
    return _swept(b, flag).signature


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
