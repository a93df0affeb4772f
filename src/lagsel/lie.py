"""Lie algebras from structure constants and their Vergne polarizations.

A Lie algebra is given by the brackets of its basis vectors; antisymmetry is
materialized and the Jacobi identity is validated exactly at construction.
Each linear functional xi induces the coadjoint form B_xi(x, y) = <xi, [x, y]>;
its radical is the isotropy subalgebra of xi, and running the flag selection
of ``presymplectic`` along a Jordan-Hölder flag (a complete flag of ideals)
produces the Vergne polarization: a Lagrangian subalgebra subordinate to xi.

The classical small nilpotent algebras g_{5,4} and g_{6,15}, Heisenberg
algebras, and the family with an abelian hyperplane ideal (generalized ax+b
algebras) ship as builtins together with closed-form oracles for their
polarizations, isotropy subalgebras, strata, Casimir functions and coadjoint
orbit parametrizations, so all the generic machinery can be cross-checked
against independent formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import Matrix, Subspace, Vector, as_rational, as_vector, dot
from .presymplectic import Flag, SignatureVector, SkewForm, null_space, signature_vector, vergne_select


class JacobiError(ValueError):
    """Structure constants that fail the Jacobi identity."""


@dataclass(frozen=True)
class Functional:
    """A linear functional on the algebra, by its values on the basis."""

    coeffs: Vector

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @classmethod
    def of(cls, values: Iterable) -> Functional:
        return cls(as_vector(values))

    def component(self, j: int) -> Fraction:
        """The value on the j-th basis vector (1-based)."""
        return self.coeffs[j - 1]

    def __call__(self, vec: Sequence) -> Fraction:
        return dot(self.coeffs, as_vector(vec, self.m))

    def is_zero_on(self, sub: Subspace) -> bool:
        return all(not self(v) for v in sub.basis)


class LieAlgebra:
    """A finite-dimensional Lie algebra over Q with a fixed basis.

    ``table[i][j]`` holds [X_{i+1}, X_{j+1}] as a coefficient vector; the
    table is antisymmetric by construction and Jacobi-validated exactly.
    """

    __slots__ = ("dim", "table", "labels")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Iterable],
        labels: Sequence[str] | None = None,
    ):
        """Build the algebra from brackets [X_i, X_j] for 1 <= i < j <= dim."""
        if dim < 1:
            raise ValueError("algebra dimension must be positive")
        zero = (Fraction(0),) * dim
        table = [[zero] * dim for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not 1 <= i < j <= dim:
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
            vec = as_vector(coeffs, dim)
            table[i - 1][j - 1] = vec
            table[j - 1][i - 1] = tuple(-c for c in vec)
        self.dim = dim
        self.table = tuple(tuple(row) for row in table)
        if labels is not None and len(labels) != dim:
            raise ValueError("wrong number of basis labels")
        self.labels = tuple(labels) if labels else tuple(f"X{i}" for i in range(1, dim + 1))
        self._validate_jacobi()

    def _validate_jacobi(self) -> None:
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [Fraction(0)] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.table[b][c]
                        term = self.bracket_with_basis(a, inner)
                        for t in range(n):
                            acc[t] += term[t]
                    if any(acc):
                        raise JacobiError(
                            f"Jacobi identity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    def bracket_with_basis(self, a: int, vec: Sequence[Fraction]) -> Vector:
        """[X_{a+1}, v] for a coefficient vector v (0-based basis index)."""
        acc = [Fraction(0)] * self.dim
        for b, coeff in enumerate(vec):
            if coeff:
                tab = self.table[a][b]
                for t in range(self.dim):
                    acc[t] += coeff * tab[t]
        return tuple(acc)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure table."""
        xv = as_vector(x, self.dim)
        yv = as_vector(y, self.dim)
        acc = [Fraction(0)] * self.dim
        for a, ca in enumerate(xv):
            if ca:
                part = self.bracket_with_basis(a, yv)
                for t in range(self.dim):
                    acc[t] += ca * part[t]
        return tuple(acc)

    def is_subalgebra(self, sub: Subspace) -> bool:
        """True iff the subspace is closed under the bracket."""
        rows = sub.basis
        return all(
            sub.contains_vector(self.bracket(rows[a], rows[b]))
            for a in range(len(rows))
            for b in range(a + 1, len(rows))
        )

    def is_ideal(self, sub: Subspace) -> bool:
        basis = Matrix.identity(self.dim).entries
        return all(
            sub.contains_vector(self.bracket(x, v))
            for x in basis
            for v in sub.basis
        )

    def derived_algebra(self) -> Subspace:
        """[g, g], spanned by all basis brackets."""
        gens = [self.table[i][j] for i in range(self.dim) for j in range(i + 1, self.dim)]
        return Subspace.from_vectors(self.dim, gens)

    def sparse_brackets(self) -> list[tuple[int, int, Vector]]:
        """The nonzero brackets [X_i, X_j], i < j, 1-based (for serialization)."""
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if any(self.table[i][j]):
                    out.append((i + 1, j + 1, self.table[i][j]))
        return out


def load_algebra(
    dim: int,
    brackets: Mapping[tuple[int, int], Iterable],
    labels: Sequence[str] | None = None,
) -> LieAlgebra:
    """Validated construction from sparse brackets (raises JacobiError)."""
    return LieAlgebra(dim, brackets, labels)


@lru_cache(maxsize=512)
def verify_jordan_holder(algebra: LieAlgebra, flag: Flag) -> bool:
    """True iff every flag step is an ideal (the flag is a Jordan-Hölder chain).

    Cached: polarization and stratum calls re-verify the same (algebra, flag)
    pair, and the answer is immutable.
    """
    if algebra.dim != flag.dim:
        raise ValueError("algebra and flag dimensions differ")
    return all(algebra.is_ideal(flag.subspace(j)) for j in range(1, flag.dim + 1))


def coadjoint_form(algebra: LieAlgebra, xi: Functional) -> SkewForm:
    """The skew form B(x, y) = <xi, [x, y]> in the algebra basis."""
    if xi.m != algebra.dim:
        raise ValueError("functional and algebra dimensions differ")
    n = algebra.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = dot(xi.coeffs, algebra.table[i][j])
            rows[i][j] = v
            rows[j][i] = -v
    return SkewForm(Matrix(rows))


def isotropy_subalgebra(algebra: LieAlgebra, xi: Functional) -> Subspace:
    """The radical of the coadjoint form; always a subalgebra (rechecked)."""
    sub = null_space(coadjoint_form(algebra, xi))
    if not algebra.is_subalgebra(sub):
        raise RuntimeError("isotropy space is not a subalgebra: internal bug")
    return sub


def vergne_polarization(algebra: LieAlgebra, flag: Flag, xi: Functional) -> Subspace:
    """The Vergne polarization of xi along a Jordan-Hölder flag.

    Equals the flag selection applied to the coadjoint form.  The result is
    rechecked to be a subalgebra with <xi, [p, p]> = 0; violations raise,
    since they can only come from a bug.
    """
    if not verify_jordan_holder(algebra, flag):
        raise ValueError("flag is not a Jordan-Hölder sequence for this algebra")
    pol = vergne_select(coadjoint_form(algebra, xi), flag)
    if not algebra.is_subalgebra(pol):
        raise RuntimeError("polarization is not a subalgebra: internal bug")
    for a in range(pol.dim):
        for b in range(a + 1, pol.dim):
            if xi(algebra.bracket(pol.basis[a], pol.basis[b])):
                raise RuntimeError("polarization is not subordinate: internal bug")
    return pol


def stratum(algebra: LieAlgebra, flag: Flag, xi: Functional) -> SignatureVector:
    """The signature vector of the coadjoint form along the flag."""
    if not verify_jordan_holder(algebra, flag):
        raise ValueError("flag is not a Jordan-Hölder sequence for this algebra")
    return signature_vector(coadjoint_form(algebra, xi), flag)


# ---------------------------------------------------------------------------
# Builtin algebras with closed-form oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinAlgebra:
    """A named algebra plus its standard Jordan-Hölder flag and oracles.

    The oracle callables return independently-derived answers (closed
    formulas, not the generic machinery) and are what the verification
    suites compare against.  Oracles that do not apply to a kind are None.
    """

    kind: str
    algebra: LieAlgebra
    flag: Flag
    polarization_oracle: Callable[[Functional], Subspace]
    isotropy_oracle: Callable[[Functional], Subspace] | None = None
    stratum_oracle: Callable[[Functional], SignatureVector] | None = None

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _basis_span(m: int, indices: Sequence[int]) -> Subspace:
    """Span of standard basis vectors (1-based indices)."""
    return Subspace.from_vectors(
        m, [[1 if t == i - 1 else 0 for t in range(m)] for i in indices]
    )


def _span_with_vector(m: int, indices: Sequence[int], extra: Sequence[Fraction]) -> Subspace:
    rows = [[Fraction(1) if t == i - 1 else Fraction(0) for t in range(m)] for i in indices]
    rows.append(list(extra))
    return Subspace.from_vectors(m, rows)


def _g54() -> BuiltinAlgebra:
    # [X5,X4] = X3, [X5,X3] = X2, [X4,X3] = X1
    algebra = LieAlgebra(
        5,
        {
            (4, 5): [0, 0, -1, 0, 0],
            (3, 5): [0, -1, 0, 0, 0],
            (3, 4): [-1, 0, 0, 0, 0],
        },
    )

    def polarization(xi: Functional) -> Subspace:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x1:
            return _span_with_vector(5, (1, 2, 3), (0, 0, 0, -x2, x1))
        if x2 or x3:
            return _basis_span(5, (1, 2, 3, 4))
        # Functional kills the derived algebra: the coadjoint form vanishes
        # and the whole algebra is the unique maximal isotropic subspace.
        return Subspace.full(5)

    def isotropy(xi: Functional) -> Subspace:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x1 or x2 or x3:
            return _span_with_vector(5, (1, 2), (0, 0, x3, -x2, x1))
        return Subspace.full(5)

    def stratum_of(xi: Functional) -> SignatureVector:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x1:
            k = (1, 2, 3, 2, 3)
        elif x2 or x3:
            k = (1, 2, 3, 4, 3)
        else:
            k = (1, 2, 3, 4, 5)
        return SignatureVector(5, k)

    return BuiltinAlgebra("g54", algebra, Flag.standard(5), polarization, isotropy, stratum_of)


def _g615() -> BuiltinAlgebra:
    # [X6,X5] = X3, [X6,X4] = X1, [X5,X4] = X2
    algebra = LieAlgebra(
        6,
        {
            (5, 6): [0, 0, -1, 0, 0, 0],
            (4, 6): [-1, 0, 0, 0, 0, 0],
            (4, 5): [0, -1, 0, 0, 0, 0],
        },
    )

    def polarization(xi: Functional) -> Subspace:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x2:
            return _span_with_vector(6, (1, 2, 3, 4), (0, 0, 0, 0, -x1, x2))
        if x1 or x3:
            return _basis_span(6, (1, 2, 3, 4, 5))
        return Subspace.full(6)

    def isotropy(xi: Functional) -> Subspace:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x1 or x2 or x3:
            return _span_with_vector(6, (1, 2, 3), (0, 0, 0, x3, -x1, x2))
        return Subspace.full(6)

    def stratum_of(xi: Functional) -> SignatureVector:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x2:
            k = (1, 2, 3, 4, 3, 4)
        elif x1 or x3:
            k = (1, 2, 3, 4, 5, 4)
        else:
            k = (1, 2, 3, 4, 5, 6)
        return SignatureVector(6, k)

    return BuiltinAlgebra("g615", algebra, Flag.standard(6), polarization, isotropy, stratum_of)


def _heisenberg(n: int) -> BuiltinAlgebra:
    if n < 1:
        raise ValueError("heisenberg parameter must be >= 1")
    m = 2 * n + 1
    brackets = {(1 + i, n + 1 + i): [1 if t == 0 else 0 for t in range(m)] for i in range(1, n + 1)}
    algebra = LieAlgebra(m, brackets)

    def polarization(xi: Functional) -> Subspace:
        # Every bracket lands on the central X_1, so the coadjoint form sees
        # only xi_1: zero functional on the center means zero form.
        if xi.component(1):
            return _basis_span(m, tuple(range(1, n + 2)))
        return Subspace.full(m)

    return BuiltinAlgebra(f"heisenberg:{n}", algebra, Flag.standard(m), polarization)


def _axb(matrix: Matrix) -> BuiltinAlgebra:
    """Algebra with abelian hyperplane ideal spanned by X_1..X_{m-1}.

    ``matrix`` is the action of the last basis vector on the ideal:
    [X_m, X_j] = sum_i A[i][j] X_i.  Any matrix yields a Lie algebra; the
    standard flag must additionally be a Jordan-Hölder chain, which is
    checked and raised otherwise.
    """
    n = matrix.rows
    if matrix.cols != n or n < 1:
        raise ValueError("axb parameter must be a square matrix of size >= 1")
    m = n + 1
    brackets = {}
    for j in range(1, m):
        col = [matrix.entry(i, j - 1) for i in range(n)]
        if any(col):
            brackets[(j, m)] = [-c for c in col] + [Fraction(0)]
    algebra = LieAlgebra(m, brackets)
    flag = Flag.standard(m)
    if not verify_jordan_holder(algebra, flag):
        raise ValueError(
            "axb action matrix does not preserve the standard flag: "
            "the standard flag is not a Jordan-Hölder sequence"
        )

    def polarization(xi: Functional) -> Subspace:
        derived = algebra.derived_algebra()
        if xi.is_zero_on(derived):
            return Subspace.full(m)
        return _basis_span(m, tuple(range(1, m)))

    return BuiltinAlgebra("axb", algebra, flag, polarization)


# Bounded: axb keys are action matrices, often a fresh one per call, while
# the named algebras are few and stay in the cache.
@lru_cache(maxsize=16)
def builtin(kind: str, matrix: Matrix | None = None) -> BuiltinAlgebra:
    """Look up a builtin algebra: ``g54``, ``g615``, ``heisenberg:n``, ``axb``."""
    if kind == "g54":
        return _g54()
    if kind == "g615":
        return _g615()
    if kind.startswith("heisenberg:"):
        return _heisenberg(int(kind.split(":", 1)[1]))
    if kind == "heisenberg":
        return _heisenberg(1)
    if kind == "axb":
        if matrix is None:
            raise ValueError("axb requires the action matrix of the last basis vector")
        return _axb(matrix)
    raise ValueError(f"unknown builtin algebra {kind!r}")


# ---------------------------------------------------------------------------
# Casimir functions and coadjoint orbits for g54 / g615
# ---------------------------------------------------------------------------

_CASIMIR_KINDS = ("g54", "g615")


def _require_casimir_kind(kind: str) -> None:
    if kind not in _CASIMIR_KINDS:
        raise ValueError(f"no Casimir function for kind {kind!r}")


def casimir_value(kind: str, xi: Functional) -> Fraction:
    """The quadratic Casimir: 2·x1·x5 - 2·x2·x4 + x3² on g54,
    x2·x6 + x3·x4 - x1·x5 on g615."""
    _require_casimir_kind(kind)
    c = xi.component
    if kind == "g54":
        return 2 * c(1) * c(5) - 2 * c(2) * c(4) + c(3) ** 2
    return c(2) * c(6) + c(3) * c(4) - c(1) * c(5)


def casimir_gradient(kind: str, xi: Functional) -> Vector:
    """Gradient of the Casimir at xi, read as an algebra element."""
    _require_casimir_kind(kind)
    c = xi.component
    if kind == "g54":
        return as_vector([2 * c(5), -2 * c(4), 2 * c(3), -2 * c(2), 2 * c(1)])
    return as_vector([-c(5), c(6), c(4), c(3), -c(1), c(2)])


def casimir_invariance_check(kind: str, xi: Functional) -> bool:
    """Infinitesimal orbit invariance: <xi, [grad C(xi), X_j]> = 0 for all j."""
    _require_casimir_kind(kind)
    alg = builtin(kind).algebra
    grad = casimir_gradient(kind, xi)
    basis = Matrix.identity(alg.dim).entries
    return all(not xi(alg.bracket(grad, e)) for e in basis)


def orbit_point(kind: str, xi: Functional, params: Sequence) -> Functional:
    """A point of the coadjoint orbit of xi, from its free coordinates.

    The parametrization branches on which leading components of xi vanish
    (four branches per algebra); the number of free coordinates is two except
    at the fixed points, which take none.  Casimir value and stratum are
    preserved exactly.
    """
    _require_casimir_kind(kind)
    ys = [as_rational(p) for p in params]
    c = xi.component
    cas = casimir_value(kind, xi)

    def need(count: int) -> None:
        if len(ys) != count:
            raise ValueError(f"this orbit branch takes {count} free coordinates, got {len(ys)}")

    if kind == "g54":
        if c(1):
            need(2)
            y3, y4 = ys
            return Functional.of(
                [c(1), c(2), y3, y4, (cas + 2 * c(2) * y4 - y3 ** 2) / (2 * c(1))]
            )
        if c(2):
            need(2)
            y3, y5 = ys
            return Functional.of([0, c(2), y3, (-cas + y3 ** 2) / (2 * c(2)), y5])
        if c(3):
            need(2)
            y4, y5 = ys
            return Functional.of([0, 0, c(3), y4, y5])
        need(0)
        return xi

    if c(2):
        need(2)
        y4, y5 = ys
        return Functional.of(
            [c(1), c(2), c(3), y4, y5, (cas + c(1) * y5 - c(3) * y4) / c(2)]
        )
    if c(1):
        need(2)
        y4, y6 = ys
        return Functional.of([c(1), 0, c(3), y4, (-cas + c(3) * y4) / c(1), y6])
    if c(3):
        need(2)
        y5, y6 = ys
        return Functional.of([0, 0, c(3), cas / c(3), y5, y6])
    need(0)
    return xi
