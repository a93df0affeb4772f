"""Gap metric, eigensolver, projector-sum law, and continuity probes."""

import math
from fractions import Fraction
from random import Random

import pytest

from lagsel.lie import Functional, builtin, coadjoint_form
from lagsel.linalg import Matrix, Subspace, rref
from lagsel.presymplectic import Flag, SkewForm, signature_vector, vergne_select
from lagsel.probe import (
    _scaled_projector,
    functional_path_probe,
    gap,
    jacobi_eigenvalues,
    path_probe,
    projector,
    projector_sum_range_check,
    spectral_norm,
)
from lagsel.sampling import random_flag, random_rational, random_skew_form, random_subspace
from lagsel.schubert import jump_indices
from lagsel.suites import PROBE_PRESETS, preset_samples


def matmul(a, b):
    """The product of two matrices given as sequences of rows."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def solve(a, rhs):
    """Solve A X = RHS for square invertible A, exactly, from the RREF of [A | RHS]."""
    n = len(a)
    reduced, pivots = rref(Matrix([list(ra) + list(rb) for ra, rb in zip(a, rhs)]))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [list(row[n:]) for row in reduced.entries]


def exact_projector(sub):
    """The orthogonal projector Aᵀ (A Aᵀ)⁻¹ A onto the subspace, as Fraction rows.

    The oracle for the library's integer projectors: Fraction arithmetic on
    the RREF basis A, sharing no code with ``lagsel.probe``.
    """
    m = sub.ambient_dim
    if sub.is_zero():
        return [[Fraction(0)] * m for _ in range(m)]
    a = [list(row) for row in sub.basis]
    at = [list(col) for col in zip(*a)]
    return matmul(at, solve(matmul(a, at), a))


def test_projector_of_axis():
    p = projector(Subspace.from_vectors(2, [[1, 0]]))
    assert p == [[1.0, 0.0], [0.0, 0.0]]


def test_projector_of_full_space():
    p = projector(Subspace.full(2))
    for i in range(2):
        for j in range(2):
            assert p[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_projector_of_diagonal_line():
    p = projector(Subspace.from_vectors(2, [[1, 1]]))
    for row in p:
        for x in row:
            assert x == pytest.approx(0.5, abs=1e-12)


def test_projector_idempotent_and_symmetric():
    rng = Random(3)
    for _ in range(20):
        s = random_subspace(rng, 5)
        p = projector(s)
        m = len(p)
        for i in range(m):
            for j in range(m):
                assert p[i][j] == pytest.approx(p[j][i], abs=1e-10)
                pij = sum(p[i][k] * p[k][j] for k in range(m))
                assert pij == pytest.approx(p[i][j], abs=1e-10)


def oracle_float_projector(sub):
    """The float projector built step by step, as the oracle for ``projector``.

    Each RREF row ``rows[i] / p``, scaled by ``2^-e`` so that its largest
    entry stays below about ``2^501``, is converted through
    ``float(Fraction(x, p << e))``.  The rows are orthonormalized by modified
    Gram-Schmidt run twice, every ordered pair of columns is checked for
    orthonormality, and the projector is the sum of their outer products.
    """
    vectors = []
    for row, c in zip(sub.rows, sub.pivots):
        p = row[c]
        e = max(0, max(map(abs, row)).bit_length() - p.bit_length() - 500)
        vectors.append([float(Fraction(x, p << e)) for x in row])

    def fdot(u, v):
        return sum(a * b for a, b in zip(u, v))

    columns = []
    for vec in vectors:
        w = vec[:]
        for _ in range(2):
            for q in columns:
                c = fdot(q, w)
                for t in range(len(w)):
                    w[t] -= c * q[t]
        norm = math.sqrt(fdot(w, w))
        if norm < 1e-12:
            raise ValueError("input vectors are numerically dependent")
        columns.append(tuple(x / norm for x in w))
    for a, u in enumerate(columns):
        for b, v in enumerate(columns):
            if abs(fdot(u, v) - (1.0 if a == b else 0.0)) > 100 * 1e-12:
                raise ValueError("columns are not orthonormal")
    m = sub.ambient_dim
    out = [[0.0] * m for _ in range(m)]
    for q in columns:
        for i in range(m):
            if q[i]:
                for j in range(m):
                    out[i][j] += q[i] * q[j]
    return out


def _scaled_rows(sub):
    """How many RREF rows of the subspace need a power-of-two scaling."""
    return sum(max(map(abs, row)).bit_length() - row[c].bit_length() > 500 for row, c in zip(sub.rows, sub.pivots))


def test_projector_matches_the_oracle_bit_for_bit():
    rng = Random(59)
    kinds = [0, 0, 0]
    for n in range(540):
        m = rng.randint(0, 10)
        kind = n % 3
        if kind == 0:
            # Rational vectors, so the RREF rows carry their denominators.
            sub = random_subspace(rng, m)
        elif kind == 1:
            # Columns of a scrambled flag.
            flag = random_flag(rng, m)
            sub = Subspace.from_vectors(m, [flag.column(a) for a in range(rng.randint(0, m))])
        else:
            # Selections on scrambled flags, whose canonical rows grow.
            sub = vergne_select(random_skew_form(rng, m), random_flag(rng, m))
        assert projector(sub) == oracle_float_projector(sub)
        kinds[kind] += sub.dim > 0
    assert min(kinds) >= 100


@pytest.mark.parametrize("digits", [200, 400, 1000])
def test_projector_matches_the_oracle_on_scaled_rows(digits):
    big = 10**digits
    g54 = builtin("g54")
    subs = [
        Subspace.from_vectors(3, [[1, big, 0]]),
        Subspace.from_vectors(4, [[3, big + 1, 0, -7], [0, 0, 2, big // 3]]),
        Subspace.from_vectors(5, [[1, Fraction(big, 7), 0, Fraction(1, big), 0], [0, 0, 1, 0, big]]),
    ]
    # The probe selections of g54 at xi = (10^digits, t, 0, 0, 0).
    for t in (Fraction(1, 2), Fraction(1, 4)):
        subs.append(vergne_select(coadjoint_form(g54.algebra, Functional.of([big, t, 0, 0, 0])), g54.flag))
    for sub in subs:
        assert _scaled_rows(sub) > 0
        assert projector(sub) == oracle_float_projector(sub)
    # Rows that round to parallel floats are refused by both.
    sub = Subspace.from_vectors(5, [[1, Fraction(big, 7), 0, Fraction(1, big), 0], [0, 1, 0, 0, big]])
    for build in (projector, oracle_float_projector):
        with pytest.raises(ValueError, match="numerically dependent"):
            build(sub)


def test_jacobi_eigenvalues_known_matrix():
    vals = sorted(jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]]))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[1] == pytest.approx(3.0, abs=1e-12)


def test_jacobi_eigenvalues_diagonal_passthrough():
    vals = sorted(jacobi_eigenvalues([[3.0, 0.0], [0.0, -5.0]]))
    assert vals == [-5.0, 3.0]


def test_gap_of_equal_subspaces_is_zero():
    s = Subspace.from_vectors(3, [[1, 2, 3]])
    assert gap(s, s) == 0.0


def test_gap_of_orthogonal_axes_is_one():
    w1 = Subspace.from_vectors(5, [[0, 0, 0, 1, 0]])
    w2 = Subspace.from_vectors(5, [[0, 0, 0, 0, 1]])
    assert gap(w1, w2) == pytest.approx(1.0, abs=1e-12)


def test_gap_is_sine_of_angle_rational_slope():
    # Line of slope 3/4 vs the x-axis: sin(angle) = 3/5 exactly.
    w1 = Subspace.from_vectors(2, [[1, 0]])
    w2 = Subspace.from_vectors(2, [[4, 3]])
    assert gap(w1, w2) == pytest.approx(0.6, abs=1e-12)


def test_gap_is_sine_of_angle_pi_sixth():
    # Not a rational direction, so check at the float layer directly.
    theta = math.pi / 6
    u, v = (1.0, 0.0), (math.cos(theta), math.sin(theta))
    p1 = [[a * b for b in u] for a in u]
    p2 = [[a * b for b in v] for a in v]
    diff = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
    assert spectral_norm(diff) == pytest.approx(0.5, abs=1e-12)


def test_gap_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        gap(Subspace.full(2), Subspace.full(3))


def _rational_rotation(m, i, j, c, s):
    rows = [[Fraction(1) if a == b else Fraction(0) for b in range(m)] for a in range(m)]
    rows[i][i] = c
    rows[j][j] = c
    rows[i][j] = -s
    rows[j][i] = s
    return rows


def _rotate(sub, q):
    return Subspace.from_vectors(sub.ambient_dim, matmul(sub.basis, [list(col) for col in zip(*q)]))


def test_gap_pseudometric_and_orthogonal_invariance():
    rng = Random(17)
    # 3-4-5 and 5-12-13 rotations are exactly orthogonal over the rationals.
    q = matmul(
        _rational_rotation(4, 0, 2, Fraction(3, 5), Fraction(4, 5)),
        _rational_rotation(4, 1, 3, Fraction(5, 13), Fraction(12, 13)),
    )
    for _ in range(15):
        dim = rng.randint(1, 3)
        subs = []
        while len(subs) < 3:
            s = random_subspace(rng, 4)
            if s.dim == dim:
                subs.append(s)
        w1, w2, w3 = subs
        g12, g21 = gap(w1, w2), gap(w2, w1)
        assert abs(g12 - g21) <= 1e-9
        assert gap(w1, w1) == 0.0
        assert gap(w1, w3) <= g12 + gap(w2, w3) + 1e-9
        assert abs(gap(_rotate(w1, q), _rotate(w2, q)) - g12) <= 1e-9


def test_exact_projector_is_idempotent_symmetric():
    rng = Random(29)
    for _ in range(15):
        s = random_subspace(rng, 4)
        p = exact_projector(s)
        assert p == [list(col) for col in zip(*p)]
        assert matmul(p, p) == p


def test_projector_sum_of_axes():
    s1 = Subspace.from_vectors(2, [[1, 0]])
    s2 = Subspace.from_vectors(2, [[0, 1]])
    assert projector_sum_range_check([s1, s2])


def test_projector_sum_of_repeated_subspace():
    s = Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 1]])
    assert projector_sum_range_check([s, s])


def test_projector_sum_random_triples():
    rng = Random(37)
    for _ in range(60):
        subs = [random_subspace(rng, 5) for _ in range(3)]
        assert projector_sum_range_check(subs)


def _positive_multiple(scaled, exact):
    """True iff the integer matrix is c times the Fraction matrix for some c > 0."""
    ratio = next(Fraction(x) / y for x, y in zip(sum(scaled, []), sum(exact, [])) if y)
    return ratio > 0 and all(x == ratio * y for r1, r2 in zip(scaled, exact) for x, y in zip(r1, r2))


def projector_cases():
    """Criterion 7's 500 tuples, then 300 whose sum is a proper subspace of Q^5."""
    rng = Random(20240817 + 5)  # run_projector_sum's draw at criterion 7's seed
    for _ in range(500):
        count = rng.randint(2, 4)
        yield [random_subspace(rng, 5) for _ in range(count)]
    rng = Random(53)
    for n in range(300):
        # Members span random vectors of a common subspace of dimension 0..4.
        inside = [[random_rational(rng, 3, 3) for _ in range(5)] for _ in range(n % 5)]
        members = []
        for _ in range(rng.randint(1, 4)):
            gens = [
                [sum((rng.randint(-2, 2) * row[t] for row in inside), Fraction(0)) for t in range(5)]
                for _ in range(rng.randint(0, 3))
            ]
            members.append(Subspace.from_vectors(5, gens))
        yield members


def test_projector_sum_range_check_matches_fraction_oracle():
    deficient = 0
    for subs in projector_cases():
        # The oracle verdict: range(P_1 + ... + P_n) == S_1 + ... + S_n with Fraction projectors.
        total = [[Fraction(0)] * 5 for _ in range(5)]
        expected = Subspace.zero(5)
        for sub in subs:
            exact = exact_projector(sub)
            if sub.rows:
                assert _positive_multiple(_scaled_projector(sub), exact)
            total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, exact)]
            expected = expected + sub
        assert projector_sum_range_check(subs) == (Subspace.from_vectors(5, total) == expected)
        deficient += not expected.is_full()
    assert deficient >= 300


def test_path_probe_discontinuity_preset():
    kind, base, direction = PROBE_PRESETS["g54-discontinuity"]
    built = builtin(kind)
    report = functional_path_probe(
        built.algebra, built.flag, base, direction, preset_samples(10), Fraction(0)
    )
    assert report.verdict == "bounded-away evidence"
    for sample in report.samples:
        assert sample.gap == pytest.approx(1.0, abs=1e-9)
        assert sample.stratum.entries == (1, 2, 3, 2, 3)
        assert sample.cell.indices == (4,)
    assert report.star_stratum.entries == (1, 2, 3, 4, 3)
    assert report.star_cell.indices == (5,)


def test_path_probe_in_stratum_preset():
    kind, base, direction = PROBE_PRESETS["g54-instratum"]
    built = builtin(kind)
    report = functional_path_probe(
        built.algebra, built.flag, base, direction, preset_samples(20), Fraction(0)
    )
    assert report.verdict == "gap->0 evidence"
    previous = 2.0
    for sample in report.samples:
        t = float(sample.t)
        assert sample.gap == pytest.approx(t / math.sqrt(1 + t * t), abs=1e-9)
        assert sample.gap < previous
        previous = sample.gap
        assert sample.stratum.entries == (1, 2, 3, 2, 3)


def test_path_probe_g615_discontinuity():
    kind, base, direction = PROBE_PRESETS["g615-discontinuity"]
    built = builtin(kind)
    report = functional_path_probe(
        built.algebra, built.flag, base, direction, preset_samples(10), Fraction(0)
    )
    assert report.verdict == "bounded-away evidence"
    assert all(s.gap == pytest.approx(1.0, abs=1e-9) for s in report.samples)


def test_path_probe_on_raw_forms():
    # The forms t * e1^e2 on Q^2; the selection flips at t = 0.
    def form_at(t):
        return SkewForm.from_upper_entries(2, [(1, 2, t)])

    report = path_probe(form_at, Flag.standard(2), [Fraction(1, 2**i) for i in range(1, 6)], Fraction(0))
    # At t=0 the form vanishes and the selection is the whole plane; at t>0
    # the selection is the first axis, at constant gap from the plane.
    assert all(s.gap == pytest.approx(1.0, abs=1e-9) for s in report.samples)


def test_path_probe_takes_one_sweep_per_form_and_matches_the_definitions(monkeypatch):
    # Every record equals the public per-sample definitions, gap floats
    # included, from one sweep per form and one projector per selection.
    from lagsel import presymplectic, probe

    counts = {"sweep": 0, "projector": 0}
    sweep, build_projector = presymplectic._sweep, probe.projector

    def counted_sweep(gram):
        counts["sweep"] += 1
        return sweep(gram)

    def counted_projector(sub):
        counts["projector"] += 1
        return build_projector(sub)

    monkeypatch.setattr(presymplectic, "_sweep", counted_sweep)
    monkeypatch.setattr(probe, "projector", counted_projector)
    rng = Random(41)
    samples = [Fraction(1, 2**i) for i in range(1, 5)]
    for m in (2, 4, 6):
        flag = random_flag(rng, m)
        base, direction = random_skew_form(rng, m).matrix, random_skew_form(rng, m).matrix

        def form_at(t):
            rows = zip(base.entries, direction.entries)
            return SkewForm(Matrix([[x + t * y for x, y in zip(r, s)] for r, s in rows]))

        counts.update(sweep=0, projector=0)
        report = path_probe(form_at, flag, samples, Fraction(0))
        assert counts == {"sweep": len(samples) + 1, "projector": len(samples) + 1}
        p_star = vergne_select(form_at(Fraction(0)), flag)
        assert report.star_stratum == signature_vector(form_at(Fraction(0)), flag)
        assert report.star_cell == jump_indices(p_star, flag)
        for sample, t in zip(report.samples, samples):
            p = vergne_select(form_at(t), flag)
            assert sample.gap == gap(p, p_star)
            assert sample.stratum == signature_vector(form_at(t), flag)
            assert sample.cell == jump_indices(p, flag)
