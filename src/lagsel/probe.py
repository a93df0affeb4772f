"""Numerical continuity evidence on the Grassmannian.

Exact subspaces cross into floating point only here: a subspace is carried by
an orthonormal basis, the distance between two subspaces is the spectral norm
of the difference of their orthogonal projectors (the sine of the largest
principal angle), and eigenvalues come from a self-contained cyclic Jacobi
solver, so the module has no numerical dependencies.

Path probes sample the Lagrangian selection along exact rational paths of
forms or functionals and report the gap to the selection at a distinguished
parameter, together with stratum and cell labels per sample.  The verdicts
are labeled evidence, never theorems: a run can witness a discontinuity
(gaps bounded away from zero) or be consistent with continuity (gaps
shrinking to zero), but cannot prove the latter.

``projector_sum_range_check`` is the one exact check living here: the range
of a sum of the orthogonal projectors of several subspaces must equal the
subspace sum.  It runs on integers, summing a positive integer multiple of
each projector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, sqrt
from operator import mul
from random import Random
from typing import Callable, Sequence

from .linalg import Subspace, _rref_int_rows
from .presymplectic import Flag, SignatureVector, SkewForm, null_space, signature_vector, vergne_select
from .schubert import JumpSet, jump_indices

_ORTHO_TOL = 1e-12
_GAP_CONVERGED = 1e-4
_GAP_BOUNDED_AWAY = 0.5


@dataclass(frozen=True)
class FloatSubspace:
    """An orthonormal-column basis of a subspace, double precision."""

    ambient_dim: int
    columns: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for a, u in enumerate(self.columns):
            for b, v in enumerate(self.columns):
                want = 1.0 if a == b else 0.0
                if abs(_fdot(u, v) - want) > 100 * _ORTHO_TOL:
                    raise ValueError("columns are not orthonormal")

    @classmethod
    def from_subspace(cls, sub: Subspace) -> FloatSubspace:
        try:
            vectors = [[float(x) for x in row] for row in sub.basis]
        except OverflowError as exc:
            raise ValueError(f"subspace basis entry out of float range: {exc}") from exc
        return cls(sub.ambient_dim, tuple(_orthonormalize(vectors)))

    @property
    def dim(self) -> int:
        return len(self.columns)

    def projector(self) -> list[list[float]]:
        m = self.ambient_dim
        p = [[0.0] * m for _ in range(m)]
        for q in self.columns:
            for i in range(m):
                if q[i]:
                    for j in range(m):
                        p[i][j] += q[i] * q[j]
        return p


def _fdot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(a * b for a, b in zip(u, v))


def _orthonormalize(vectors: list[list[float]]) -> list[tuple[float, ...]]:
    # Modified Gram-Schmidt, run twice for orthogonality near machine level.
    basis: list[list[float]] = []
    for vec in vectors:
        w = vec[:]
        for _ in range(2):
            for q in basis:
                c = _fdot(q, w)
                for t in range(len(w)):
                    w[t] -= c * q[t]
        norm = sqrt(_fdot(w, w))
        if norm < _ORTHO_TOL:
            raise ValueError("input vectors are numerically dependent")
        basis.append([x / norm for x in w])
    return [tuple(q) for q in basis]


def projector(sub: Subspace) -> list[list[float]]:
    """Orthogonal projector onto the subspace, as a dense float matrix."""
    return FloatSubspace.from_subspace(sub).projector()


def jacobi_eigenvalues(sym: Sequence[Sequence[float]], tol: float = 1e-12, max_sweeps: int = 100) -> list[float]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until every off-diagonal entry is below ``tol`` in absolute value.
    """
    n = len(sym)
    a = [list(row) for row in sym]
    for _ in range(max_sweeps):
        off = max(
            (abs(a[p][q]) for p in range(n) for q in range(p + 1, n)),
            default=0.0,
        )
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < tol:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                if theta < 0:
                    t = -t
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    if k in (p, q):
                        continue
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = a[p][k] = c * akp - s * akq
                    a[k][q] = a[q][k] = s * akp + c * akq
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
    else:
        raise RuntimeError("Jacobi eigensolve did not converge")
    return [a[i][i] for i in range(n)]


def spectral_norm(sym: Sequence[Sequence[float]]) -> float:
    return max((abs(ev) for ev in jacobi_eigenvalues(sym)), default=0.0)


def gap(w1: Subspace, w2: Subspace) -> float:
    """Spectral-norm distance between the projectors of two subspaces.

    Equals the sine of the largest principal angle when dimensions agree;
    hits 1.0 whenever one subspace meets the orthogonal complement of the
    other, which is the shape of every discontinuity witness.
    """
    if w1.ambient_dim != w2.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    p1 = projector(w1)
    p2 = projector(w2)
    diff = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
    return spectral_norm(diff)


def _scaled_projector(sub: Subspace) -> list[list[int]]:
    """A positive integer multiple L P of the orthogonal projector P onto sub.

    With the independent integer basis rows A and G = A Aᵀ, P = Aᵀ G⁻¹ A.
    One elimination of [G | A] leaves rows [d_i e_i | X_i], X_i = d_i (G⁻¹ A)_i,
    so with L the lcm of the d_i, L G⁻¹ A and L P are integral.
    """
    a = sub.rows
    k = len(a)
    rows = [[sum(map(mul, u, v)) for v in a] + list(u) for u in a]
    _rref_int_rows(rows)
    scale = lcm(*(row[i] for i, row in enumerate(rows)))
    scaled = [[scale // row[i] * x for x in row[k:]] for i, row in enumerate(rows)]
    return [[sum(map(mul, u, v)) for v in zip(*scaled)] for u in zip(*a)]


def projector_sum_range_check(subspaces: Sequence[Subspace]) -> bool:
    """Exact check: range(P_1 + ... + P_n) equals S_1 + ... + S_n.

    Summing positive multiples L_i P_i keeps the range: the P_i are positive semidefinite.
    """
    if not subspaces:
        raise ValueError("need at least one subspace")
    m = subspaces[0].ambient_dim
    total = [[0] * m for _ in range(m)]
    expected = Subspace.zero(m)
    for sub in subspaces:
        if sub.ambient_dim != m:
            raise ValueError("subspaces live in different ambient spaces")
        if sub.rows:
            total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, _scaled_projector(sub))]
        expected = expected + sub
    # The sum of symmetric matrices is symmetric, so its range is its row space.
    return Subspace._span(m, total) == expected


@dataclass(frozen=True)
class PathSample:
    t: Fraction
    gap: float
    stratum: SignatureVector
    cell: JumpSet


@dataclass(frozen=True)
class PathProbeReport:
    """Gap-to-limit record along a sampled path; verdict is evidence only."""

    t_star: Fraction
    star_stratum: SignatureVector
    star_cell: JumpSet
    samples: tuple[PathSample, ...]
    verdict: str


def _verdict(samples: Sequence[PathSample], t_star: Fraction) -> str:
    if not samples:
        return "mixed"
    closest = min(samples, key=lambda s: abs(s.t - t_star))
    if closest.gap <= _GAP_CONVERGED:
        return "gap->0 evidence"
    if min(s.gap for s in samples) >= _GAP_BOUNDED_AWAY:
        return "bounded-away evidence"
    return "mixed"


def path_probe(
    form_at: Callable[[Fraction], SkewForm],
    flag: Flag,
    samples: Sequence[Fraction],
    t_star: Fraction,
) -> PathProbeReport:
    """Sample the flag selection along a path of forms.

    Selections, strata and cells are computed exactly at every sample; only
    the gap against the selection at ``t_star`` is floating point.
    """
    b_star = form_at(t_star)
    p_star = vergne_select(b_star, flag)
    records = []
    for t in samples:
        b = form_at(t)
        p = vergne_select(b, flag)
        records.append(
            PathSample(t, gap(p, p_star), signature_vector(b, flag), jump_indices(p, flag))
        )
    records_t = tuple(records)
    return PathProbeReport(
        t_star,
        signature_vector(b_star, flag),
        jump_indices(p_star, flag),
        records_t,
        _verdict(records_t, t_star),
    )


def affine_functional_path(base: Sequence, direction: Sequence):
    """The exact path t -> base + t * direction on functional coefficients."""
    from .lie import Functional

    b = Functional.of(base)
    d = Functional.of(direction)
    if b.m != d.m:
        raise ValueError("base and direction lengths differ")

    def at(t: Fraction) -> Functional:
        return Functional.of([x + t * y for x, y in zip(b.coeffs, d.coeffs)])

    return at


def functional_path_probe(
    algebra,
    flag: Flag,
    base: Sequence,
    direction: Sequence,
    samples: Sequence[Fraction],
    t_star: Fraction,
) -> PathProbeReport:
    """Path probe for coadjoint forms of an affine functional path."""
    from .lie import coadjoint_form, verify_jordan_holder

    if not verify_jordan_holder(algebra, flag):
        raise ValueError("flag is not a Jordan-Hölder sequence for this algebra")
    xi_at = affine_functional_path(base, direction)
    return path_probe(lambda t: coadjoint_form(algebra, xi_at(t)), flag, samples, t_star)


@dataclass(frozen=True)
class ScaleResult:
    scale: Fraction
    max_radical_dim: int
    passed: bool


@dataclass(frozen=True)
class RankProbeReport:
    base_radical_dim: int
    results: tuple[ScaleResult, ...]
    largest_passing_scale: Fraction | None
    smallest_scale_failed: bool


def rank_semicontinuity_probe(
    b: SkewForm,
    trials: int = 50,
    scales: Sequence[Fraction] | None = None,
    seed: int = 0,
    max_denominator: int = 1000,
) -> RankProbeReport:
    """Perturb B by random skew rational noise and watch the radical dimension.

    For each scale eps (given in decreasing order) the probe draws ``trials``
    skew perturbations with entries of magnitude at most eps and records
    whether dim N(B + E) stayed at or below dim N(B).  Near B that inequality
    always holds (some maximal nonzero minor of B survives small exact
    perturbations), so a failure at the smallest scale is flagged as a bug
    indicator rather than evidence.
    """
    if scales is None:
        scales = [Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]
    rng = Random(seed)
    m = b.dim
    base_dim = null_space(b).dim
    results = []
    for scale in scales:
        worst = 0
        ok = True
        for _ in range(trials):
            entries = []
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    num = rng.randint(-max_denominator, max_denominator)
                    entries.append((i, j, Fraction(num, max_denominator) * scale))
            perturbed = b + SkewForm.from_upper_entries(m, entries)
            dim_n = null_space(perturbed).dim
            worst = max(worst, dim_n)
            if dim_n > base_dim:
                ok = False
        results.append(ScaleResult(scale, worst, ok))
    passing = [r.scale for r in results if r.passed]
    return RankProbeReport(
        base_dim,
        tuple(results),
        max(passing) if passing else None,
        not results[-1].passed if results else False,
    )
