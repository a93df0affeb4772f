"""Numerical continuity evidence on the Grassmannian.

Exact subspaces cross into floating point only here, in ``projector``: the
canonical integer rows of a subspace are scaled by powers of two, converted
to floats, orthonormalized, and summed into the orthogonal projector.  The
distance between two subspaces is the spectral norm of the difference of
their projectors (the sine of the largest principal angle), and eigenvalues
come from a self-contained cyclic Jacobi solver, so the module has no
numerical dependencies.

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
from typing import Callable, Sequence

from .lie import Functional, coadjoint_form, verify_jordan_holder
from .linalg import Subspace, _rref_int_rows
from .presymplectic import Flag, SignatureVector, SkewForm, _integer_gram, _select
from .schubert import JumpSet, jump_indices

_ORTHO_TOL = 1e-12
_GAP_CONVERGED = 1e-4
_GAP_BOUNDED_AWAY = 0.5
# Basis rows are scaled by powers of two to entries below about 2^(this + 1).
_ROW_EXPONENT = 500
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def _fdot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(a * b for a, b in zip(u, v))


def projector(sub: Subspace) -> list[list[float]]:
    """Orthogonal projector onto the subspace, as a dense float matrix.

    Row i of the RREF basis is ``rows[i] / p`` for its pivot entry p, times
    ``2^-e`` with e the least non-negative integer that keeps its largest
    entry below about ``2^501``, so no entry or square leaves the float
    range.  Each entry is the correctly rounded quotient ``x / (p << e)``.
    A power of two scales every rounding step of the Gram-Schmidt below
    exactly, and rows that need no scaling (e = 0) convert unscaled.
    """
    basis: list[list[float]] = []
    for row, pivot in zip(sub.rows, sub.pivots):
        p = row[pivot]
        e = max(0, max(map(abs, row)).bit_length() - p.bit_length() - _ROW_EXPONENT)
        w = [x / (p << e) for x in row]
        # Modified Gram-Schmidt, run twice for orthogonality near machine level.
        for _ in range(2):
            for q in basis:
                c = _fdot(q, w)
                for t in range(len(w)):
                    w[t] -= c * q[t]
        norm = sqrt(_fdot(w, w))
        if norm < _ORTHO_TOL:
            raise ValueError("input vectors are numerically dependent")
        basis.append([x / norm for x in w])
    # _fdot is symmetric bit for bit, so the pairs a <= b cover the check.
    for a, u in enumerate(basis):
        for b in range(a, len(basis)):
            want = 1.0 if a == b else 0.0
            if abs(_fdot(u, basis[b]) - want) > 100 * _ORTHO_TOL:
                raise ValueError("columns are not orthonormal")
    m = sub.ambient_dim
    proj = [[0.0] * m for _ in range(m)]
    for q in basis:
        for i in range(m):
            if q[i]:
                for j in range(m):
                    proj[i][j] += q[i] * q[j]
    return proj


def jacobi_eigenvalues(sym: Sequence[Sequence[float]]) -> list[float]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until every off-diagonal entry is below ``_JACOBI_TOL`` in
    absolute value.
    """
    n = len(sym)
    a = [list(row) for row in sym]
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = max(
            (abs(a[p][q]) for p in range(n) for q in range(p + 1, n)),
            default=0.0,
        )
        if off < _JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < _JACOBI_TOL:
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
    return _projector_gap(projector(w1), projector(w2))


def _projector_gap(p1: list[list[float]], p2: list[list[float]]) -> float:
    """The spectral norm of ``p1 - p2``, for two projectors of one ambient space."""
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
    the gap against the selection at ``t_star`` is floating point.  Each
    form takes one Gram matrix and one sweep, and the projector onto the
    ``t_star`` selection is built once.
    """
    p_star, sig_star = _select(*_integer_gram(form_at(t_star), flag))
    proj_star = projector(p_star)
    records = []
    for t in samples:
        p, sig = _select(*_integer_gram(form_at(t), flag))
        records.append(PathSample(t, _projector_gap(projector(p), proj_star), sig, jump_indices(p, flag)))
    records_t = tuple(records)
    return PathProbeReport(t_star, sig_star, jump_indices(p_star, flag), records_t, _verdict(records_t, t_star))


def functional_path_probe(
    algebra,
    flag: Flag,
    base: Sequence,
    direction: Sequence,
    samples: Sequence[Fraction],
    t_star: Fraction,
) -> PathProbeReport:
    """Path probe for the coadjoint forms of the functionals base + t * direction."""
    if not verify_jordan_holder(algebra, flag):
        raise ValueError("flag is not a Jordan-Hölder sequence for this algebra")
    b = Functional.of(base)
    d = Functional.of(direction)
    if b.m != d.m:
        raise ValueError("base and direction lengths differ")

    def form_at(t: Fraction) -> SkewForm:
        return coadjoint_form(algebra, Functional.of([x + t * y for x, y in zip(b.coeffs, d.coeffs)]))

    return path_probe(form_at, flag, samples, t_star)
