"""Numerical continuity evidence on the Grassmannian.

Exact subspaces cross into floating point only here, in ``projector``: the
canonical integer rows of a subspace are scaled by powers of two, converted
to floats, orthonormalized, and summed into the orthogonal projector; rows
that rounding leaves numerically dependent get the exact projector, rounded
once.  The distance between two subspaces is the spectral norm of the
difference of their projectors (the sine of the largest principal angle),
and eigenvalues come from a self-contained cyclic Jacobi solver, run on the
rows and columns where the difference is not zero, so the module has no
numerical dependencies.

Path probes sample the Lagrangian selection along exact rational paths of
forms or functionals and report the gap to the selection at a distinguished
parameter, together with stratum and cell labels per sample.  A line of
functionals costs two coadjoint forms, and each distinct selection one
projector, gap and cell.  The cell is read off the signature vector, with no
elimination, and a projector starts from the star's Gram-Schmidt vectors for
the canonical rows it shares with the star's selection; every float is the
one ``projector`` and ``gap`` give.  The verdicts are labeled evidence,
never theorems: a run can witness a discontinuity (gaps bounded away from
zero) or be consistent with continuity (gaps shrinking to zero), but cannot
prove the latter.

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
from typing import Callable, NamedTuple, Sequence

from .lie import Functional, coadjoint_form, verify_jordan_holder
from .linalg import Subspace, _rref_int_rows, as_rational
from .presymplectic import Flag, SignatureVector, SkewForm, signature_vector, vergne_select
from .schubert import JumpSet, signature_to_cell

_ORTHO_TOL = 1e-12
_GAP_CONVERGED = 1e-4
_GAP_BOUNDED_AWAY = 0.5
# Basis rows are scaled by powers of two to entries below about 2^(this + 1).
_ROW_EXPONENT = 500
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def _fdot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(map(mul, u, v))


def projector(sub: Subspace) -> list[list[float]]:
    """Orthogonal projector onto the subspace, as a dense float matrix.

    Row i of the RREF basis is ``rows[i] / p`` for its pivot entry p, times
    ``2^-e`` with e the least non-negative integer that keeps its largest
    entry below about ``2^501``, so no entry or square leaves the float
    range.  Each entry is the correctly rounded quotient ``x / (p << e)``.
    A power of two scales every rounding step of the Gram-Schmidt below
    exactly, and rows that need no scaling (e = 0) convert unscaled.

    Rows that the Gram-Schmidt finds numerically dependent or not
    orthonormal after rounding still span a valid subspace: then the exact
    projector ``_scaled_projector(sub) / L`` is returned, each entry rounded
    once.  Its trace is L times dim W, which gives L.
    """
    return _projector(sub)[0]


class _FloatRun(NamedTuple):
    """The float Gram-Schmidt behind ``projector``, kept step by step.

    ``vectors`` holds the orthonormal q_1..q_k, one per canonical row in
    ``rows``, and ``sums`` the partial sums S_0 = 0, S_i = S_(i-1) + q_i q_iᵀ,
    so ``sums[-1]`` is the projector.
    """

    rows: tuple[tuple[int, ...], ...]
    vectors: list[list[float]]
    sums: list[list[list[float]]]


def _projector(sub: Subspace, star: _FloatRun | None = None) -> tuple[list[list[float]], _FloatRun | None]:
    """``projector(sub)`` and its float run, which is None when the exact fallback ran.

    ``star`` is the float run of another subspace of the same ambient space,
    whose leading vectors and partial sum are reused as ``_float_run`` says.
    """
    try:
        run = _float_run(sub, star)
    except ValueError:
        scaled = _scaled_projector(sub)
        scale = sum(row[i] for i, row in enumerate(scaled)) // sub.dim
        return [[x / scale for x in row] for row in scaled], None
    return run.sums[-1], run


def _float_run(sub: Subspace, star: _FloatRun | None = None) -> _FloatRun:
    """The scaled RREF rows of ``projector``, orthonormalized and summed in floats.

    Vector i reads only canonical rows 1..i, and S_i only q_1..q_i.  So when
    the first r canonical rows equal those of ``star``, its first r vectors
    and S_r are the floats this run would compute, and its pairs among them
    passed the orthonormality check: only the remaining rows are
    orthonormalized, and only pairs that involve one of them are checked.

    Raises ValueError when rounding made the rows numerically dependent or
    left them short of orthonormal.
    """
    m = sub.ambient_dim
    r = 0
    if star is None:
        vectors: list[list[float]] = []
        sums = [[[0.0] * m for _ in range(m)]]
    else:
        while r < min(sub.dim, len(star.rows)) and sub.rows[r] == star.rows[r]:
            r += 1
        vectors, sums = star.vectors[:r], star.sums[: r + 1]
    for row, pivot in zip(sub.rows[r:], sub.pivots[r:]):
        p = row[pivot]
        e = max(0, max(map(abs, row)).bit_length() - p.bit_length() - _ROW_EXPONENT)
        w = [x / (p << e) for x in row]
        # Modified Gram-Schmidt, run twice for orthogonality near machine level.
        for _ in range(2):
            for q in vectors:
                c = _fdot(q, w)
                w = [x - c * y for x, y in zip(w, q)]
        norm = sqrt(_fdot(w, w))
        if norm < _ORTHO_TOL:
            raise ValueError("input vectors are numerically dependent")
        vectors.append([x / norm for x in w])
    # _fdot is symmetric bit for bit, so the pairs a <= b cover the check.
    for a, u in enumerate(vectors):
        for b in range(max(a, r), len(vectors)):
            want = 1.0 if a == b else 0.0
            if abs(_fdot(u, vectors[b]) - want) > 100 * _ORTHO_TOL:
                raise ValueError("columns are not orthonormal")
    for q in vectors[r:]:
        sums.append([[x + a * b for x, b in zip(row, q)] if a else row for row, a in zip(sums[-1], q)])
    return _FloatRun(sub.rows, vectors, sums)


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
    """The spectral norm of ``p1 - p2``, for two projectors of one ambient space.

    Jacobi runs on the support of the difference, which is symmetric.  A row
    and column that are entirely zero stay zero, because every rotation that
    touches them has |a_pq| below tolerance and is skipped, and they add only
    the eigenvalue 0: the largest |λ| is the same float.
    """
    diff = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
    support = [i for i, row in enumerate(diff) if any(row)]
    return spectral_norm([[diff[i][j] for j in support] for i in support])


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
    form's ``vergne_select`` and ``signature_vector`` share one Gram matrix
    and one sweep, and each distinct selection takes one projector, gap and
    cell (canonical rows compare exactly, so a reused gap is the same float).
    The cell is read off the signature vector.  A projector reuses the
    star's Gram-Schmidt vectors and partial sum for the canonical rows it
    shares with the star's selection, which gives the same floats.
    """
    star = form_at(t_star)
    p_star = vergne_select(star, flag)
    star_sig = signature_vector(star, flag)
    proj_star, run_star = _projector(p_star)
    seen = {p_star: (0.0, signature_to_cell(star_sig))}  # a projector minus itself is exactly 0
    records = []
    for t in samples:
        b = form_at(t)
        p = vergne_select(b, flag)
        sig = signature_vector(b, flag)
        if p not in seen:
            seen[p] = (_projector_gap(_projector(p, run_star)[0], proj_star), signature_to_cell(sig))
        records.append(PathSample(t, seen[p][0], sig, seen[p][1]))
    records_t = tuple(records)
    return PathProbeReport(t_star, star_sig, seen[p_star][1], records_t, _verdict(records_t, t_star))


def functional_path_probe(
    algebra,
    flag: Flag,
    base: Sequence,
    direction: Sequence,
    samples: Sequence[Fraction],
    t_star: Fraction,
) -> PathProbeReport:
    """Path probe for the coadjoint forms of the functionals base + t * direction.

    B_xi is linear in xi: from the forms G_b / s_b of base and G_d / s_d of
    direction, the form at t = n/q is (q s_d G_b + n s_b G_d) / (q s_b s_d),
    whose canonical pair is that of the functional base + t * direction.
    """
    if not verify_jordan_holder(algebra, flag):
        raise ValueError("flag is not a Jordan-Hölder sequence for this algebra")
    b = Functional.of(base)
    d = Functional.of(direction)
    if b.m != d.m:
        raise ValueError("base and direction lengths differ")
    g_b, g_d = coadjoint_form(algebra, b), coadjoint_form(algebra, d)

    def form_at(t: Fraction) -> SkewForm:
        n, q = as_rational(t).as_integer_ratio()
        u, v = q * g_d.scale, n * g_b.scale
        rows = [[u * x + v * y for x, y in zip(r, s)] for r, s in zip(g_b.integer_matrix, g_d.integer_matrix)]
        return SkewForm._from_integers(rows, q * g_b.scale * g_d.scale)

    return path_probe(form_at, flag, samples, t_star)
