"""Lie algebras from structure constants and their Vergne polarizations.

A Lie algebra is given by the brackets of its basis vectors and stored as its
integer structure constants; antisymmetry holds by construction and the
Jacobi identity is validated exactly, on integers, at construction.
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
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import Matrix, Subspace, Vector, as_rational, as_vector, check_dim, denominator_lcm, dot, integer_rows
from .presymplectic import Flag, SignatureVector, SkewForm, null_space, signature_vector, vergne_select


class JacobiError(ValueError):
    """Structure constants that fail the Jacobi identity."""


@dataclass(frozen=True)
class Functional:
    """A linear functional on the algebra, by its values on the basis.

    Its coadjoint form on each algebra it is paired with is kept on the
    functional, keyed by the algebra object, for the functional's lifetime
    (see ``coadjoint_form``).
    """

    coeffs: Vector

    @cached_property
    def _forms(self) -> dict[LieAlgebra, SkewForm]:
        """Coadjoint forms by algebra, filled by ``coadjoint_form``."""
        return {}

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

    It is stored once, as its structure constants scaled to integers by the
    lcm of their denominators: ``_constants[a]`` lists the pairs
    (b, scale * [X_{a+1}, X_{b+1}]) with a nonzero bracket, both orders of
    each pair.  A positive scale changes no span, containment or vanishing,
    so every check runs on integers through ``_bracket``.  ``table[i][j]``,
    [X_{i+1}, X_{j+1}] as a Fraction vector, is built on first read.
    """

    __slots__ = ("dim", "labels", "_scale", "_constants", "_table")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Iterable],
        labels: Sequence[str] | None = None,
    ):
        """Build the algebra from brackets [X_i, X_j] for 1 <= i < j <= dim."""
        if dim < 1:
            raise ValueError("algebra dimension must be positive")
        check_dim(dim)
        vectors = {}
        for (i, j), coeffs in brackets.items():
            if not 1 <= i < j <= dim:
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
            vectors[i - 1, j - 1] = as_vector(coeffs, dim)
        if labels is not None and len(labels) != dim:
            raise ValueError("wrong number of basis labels")
        self._scale = denominator_lcm(x for vec in vectors.values() for x in vec)
        constants = [[] for _ in range(dim)]
        for (a, b), vec in vectors.items():
            if any(vec):
                ints = tuple(x.numerator * (self._scale // x.denominator) for x in vec)
                constants[a].append((b, ints))
                constants[b].append((a, tuple(-c for c in ints)))
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"X{i}" for i in range(1, dim + 1))
        self._constants = tuple(map(tuple, constants))
        self._table = None
        self._validate_jacobi()

    def _bracket(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """``scale * [x, y]`` for integer coefficient vectors x and y."""
        acc = [0] * self.dim
        for a, xa in enumerate(x):
            if xa:
                for b, vec in self._constants[a]:
                    c = xa * y[b]
                    if c:
                        acc = [s + c * v for s, v in zip(acc, vec)]
        return acc

    def _validate_jacobi(self) -> None:
        n = self.dim
        pairs = {(a, b): vec for a, entries in enumerate(self._constants) for b, vec in entries}
        unit = Subspace.full(n).rows
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    cyclic = ((i, j, k), (j, k, i), (k, i, j))
                    terms = [self._bracket(unit[a], pairs[b, c]) for a, b, c in cyclic if (b, c) in pairs]
                    if any(map(sum, zip(*terms))):
                        raise JacobiError(
                            f"Jacobi identity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    @property
    def table(self) -> tuple[tuple[Vector, ...], ...]:
        """``table[i][j]`` is [X_{i+1}, X_{j+1}] as a Fraction vector."""
        if self._table is None:
            rows = [[(Fraction(0),) * self.dim] * self.dim for _ in range(self.dim)]
            for row, entries in zip(rows, self._constants):
                for b, vec in entries:
                    row[b] = tuple(Fraction(v, self._scale) for v in vec)
            self._table = tuple(map(tuple, rows))
        return self._table

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure constants."""
        xv, yv = as_vector(x, self.dim), as_vector(y, self.dim)
        scale = denominator_lcm(xv) * denominator_lcm(yv) * self._scale
        return tuple(Fraction(v, scale) for v in self._bracket(*integer_rows([xv, yv])))

    def is_subalgebra(self, sub: Subspace) -> bool:
        """True iff the subspace is closed under the bracket."""
        rows = self._rows_of(sub)
        return all(
            sub._reduces_to_zero(self._bracket(rows[a], rows[b]))
            for a in range(len(rows))
            for b in range(a + 1, len(rows))
        )

    def is_ideal(self, sub: Subspace) -> bool:
        """True iff [X_i, v] lies in the subspace for every basis vector X_i and v in it."""
        rows = self._rows_of(sub)
        return all(
            sub._reduces_to_zero(self._bracket(e, v)) for e in Subspace.full(self.dim).rows for v in rows
        )

    def _rows_of(self, sub: Subspace) -> tuple[tuple[int, ...], ...]:
        if sub.ambient_dim != self.dim:
            raise ValueError(f"subspace of Q^{sub.ambient_dim} in an algebra of dimension {self.dim}")
        return sub.rows

    def derived_algebra(self) -> Subspace:
        """[g, g], spanned by all basis brackets."""
        gens = [list(vec) for a, entries in enumerate(self._constants) for b, vec in entries if a < b]
        return Subspace._span(self.dim, gens)

    def sparse_brackets(self) -> list[tuple[int, int, Vector]]:
        """The nonzero brackets [X_i, X_j], i < j, 1-based (for serialization)."""
        table = self.table
        pairs = sorted((a, b) for a, entries in enumerate(self._constants) for b, _ in entries if a < b)
        return [(a + 1, b + 1, table[a][b]) for a, b in pairs]


# Bounded like ``builtin``: each key holds its algebra, and a fresh axb
# algebra per call would otherwise stay alive until the cache filled.
@lru_cache(maxsize=16)
def verify_jordan_holder(algebra: LieAlgebra, flag: Flag) -> bool:
    """True iff every flag step is an ideal (the flag is a Jordan-Hölder chain).

    Cached: polarization and stratum calls re-verify the same (algebra, flag)
    pair, and the answer is immutable.
    """
    if algebra.dim != flag.dim:
        raise ValueError("algebra and flag dimensions differ")
    return all(algebra.is_ideal(flag.subspace(j)) for j in range(1, flag.dim + 1))


def coadjoint_form(algebra: LieAlgebra, xi: Functional) -> SkewForm:
    """The skew form B(x, y) = <xi, [x, y]> in the algebra basis.

    Built once per functional and algebra object and kept on the functional,
    so the polarization, isotropy and stratum of one functional share one
    form, and through it one sweep.  ``LieAlgebra`` compares by identity, so
    two algebras never share an entry.
    """
    form = xi._forms.get(algebra)
    if form is None:
        if xi.m != algebra.dim:
            raise ValueError("functional and algebra dimensions differ")
        xs = integer_rows([xi.coeffs])[0]
        scale = denominator_lcm(xi.coeffs) * algebra._scale
        rows = [[0] * algebra.dim for _ in range(algebra.dim)]
        for row, entries in zip(rows, algebra._constants):
            for b, vec in entries:
                row[b] = sum(map(mul, xs, vec))
        form = xi._forms[algebra] = SkewForm._from_integers(rows, scale)
    return form


def isotropy_subalgebra(algebra: LieAlgebra, xi: Functional) -> Subspace:
    """The radical of the coadjoint form, the isotropy subalgebra of xi."""
    return null_space(coadjoint_form(algebra, xi))


def vergne_polarization(algebra: LieAlgebra, flag: Flag, xi: Functional) -> Subspace:
    """The Vergne polarization of xi along a Jordan-Hölder flag.

    It is the flag selection applied to the coadjoint form, which along a
    chain of ideals is a subalgebra subordinate to xi (Vergne, 1970); the
    example-oracles suite re-checks both properties.
    """
    if not verify_jordan_holder(algebra, flag):
        raise ValueError("flag is not a Jordan-Hölder sequence for this algebra")
    return vergne_select(coadjoint_form(algebra, xi), flag)


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


def _basis_span(m: int, indices: Sequence[int], *extra: Sequence[Fraction]) -> Subspace:
    """Span of standard basis vectors (1-based indices) and the ``extra`` vectors."""
    return Subspace.from_vectors(m, [[int(t == i - 1) for t in range(m)] for i in indices] + list(extra))


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
            return _basis_span(5, (1, 2, 3), (0, 0, 0, -x2, x1))
        if x2 or x3:
            return _basis_span(5, (1, 2, 3, 4))
        # Functional kills the derived algebra: the coadjoint form vanishes
        # and the whole algebra is the unique maximal isotropic subspace.
        return Subspace.full(5)

    def isotropy(xi: Functional) -> Subspace:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x1 or x2 or x3:
            return _basis_span(5, (1, 2), (0, 0, x3, -x2, x1))
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
            return _basis_span(6, (1, 2, 3, 4), (0, 0, 0, 0, -x1, x2))
        if x1 or x3:
            return _basis_span(6, (1, 2, 3, 4, 5))
        return Subspace.full(6)

    def isotropy(xi: Functional) -> Subspace:
        x1, x2, x3 = (xi.component(j) for j in (1, 2, 3))
        if x1 or x2 or x3:
            return _basis_span(6, (1, 2, 3), (0, 0, 0, x3, -x1, x2))
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
    check_dim(m)
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
    """Look up a builtin algebra: ``g54``, ``g615``, ``heisenberg:n``, ``axb``.

    Only ``axb`` takes ``matrix``, and requires it.
    """
    if kind == "axb":
        if matrix is None:
            raise ValueError("axb requires the action matrix of the last basis vector")
        return _axb(matrix)
    if matrix is not None:
        raise ValueError(f"only axb takes an action matrix, not {kind!r}")
    if kind == "g54":
        return _g54()
    if kind == "g615":
        return _g615()
    if kind.startswith("heisenberg:"):
        return _heisenberg(int(kind.split(":", 1)[1]))
    if kind == "heisenberg":
        return _heisenberg(1)
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
