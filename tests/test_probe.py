"""Gap metric, eigensolver, projector-sum law, and continuity probes."""

import math
from fractions import Fraction
from random import Random

import pytest

from lagsel.lie import Functional, builtin, coadjoint_form
from lagsel.linalg import Matrix, Subspace, rref
from lagsel.presymplectic import Flag, SkewForm, signature_vector, vergne_select
from lagsel.probe import (
    _projector,
    _projector_gap,
    _scaled_projector,
    functional_path_probe,
    gap,
    jacobi_eigenvalues,
    path_probe,
    projector,
    projector_sum_range_check,
    spectral_norm,
)
from lagsel.sampling import random_flag, random_nonzero_rational, random_rational, random_skew_form, random_subspace
from lagsel.schubert import jump_indices
from lagsel.suites import PROBE_PRESETS, preset_samples
from oracles import loop_float_projector


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


def scaled_row_subspaces(digits):
    """Subspaces whose canonical rows need a power-of-two scaling into float range."""
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
    return subs


@pytest.mark.parametrize("digits", [200, 400, 1000])
def test_projector_matches_the_oracle_on_scaled_rows(digits):
    big = 10**digits
    for sub in scaled_row_subspaces(digits):
        assert _scaled_rows(sub) > 0
        assert projector(sub) == oracle_float_projector(sub)
    # Rows that round to parallel floats: the float path refuses them, and
    # the library falls back to the exact projector, rounded once.
    sub = Subspace.from_vectors(5, [[1, Fraction(big, 7), 0, Fraction(1, big), 0], [0, 1, 0, 0, big]])
    with pytest.raises(ValueError, match="numerically dependent"):
        oracle_float_projector(sub)
    exact = exact_projector(sub)
    got = projector(sub)
    assert [len(row) for row in got] == [5] * 5
    assert all(abs(x - float(y)) <= 1e-12 for row, exact_row in zip(got, exact) for x, y in zip(row, exact_row))
    assert gap(sub, sub) == 0.0


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
    # included, from one sweep per form and one projector build per selection.
    from lagsel import presymplectic, probe

    counts = {"sweep": 0, "projector": 0}
    sweep, build_projector = presymplectic._sweep, probe._projector

    def counted_sweep(gram):
        counts["sweep"] += 1
        return sweep(gram)

    def counted_projector(sub, star=None):
        counts["projector"] += 1
        return build_projector(sub, star)

    monkeypatch.setattr(presymplectic, "_sweep", counted_sweep)
    monkeypatch.setattr(probe, "_projector", counted_projector)
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
        built = dict(counts)
        p_star = vergne_select(form_at(Fraction(0)), flag)
        selections = {p_star} | {vergne_select(form_at(t), flag) for t in samples}
        assert built == {"sweep": len(samples) + 1, "projector": len(selections)}
        assert report.star_stratum == signature_vector(form_at(Fraction(0)), flag)
        assert report.star_cell == jump_indices(p_star, flag)
        for sample, t in zip(report.samples, samples):
            p = vergne_select(form_at(t), flag)
            assert sample.gap.hex() == gap(p, p_star).hex()
            assert sample.stratum == signature_vector(form_at(t), flag)
            assert sample.cell == jump_indices(p, flag)


def line_point(base, direction, t):
    return [Fraction(x) + t * Fraction(y) for x, y in zip(base, direction)]


@pytest.mark.parametrize("name", ["g54-discontinuity", "g615-discontinuity"])
def test_discontinuity_preset_builds_one_projector_per_distinct_selection(name, monkeypatch):
    # 21 forms, 2 distinct selections: 2 projector builds, and every record
    # is still the per-sample definition, gap floats bit for bit.
    from lagsel import probe

    kind, base, direction = PROBE_PRESETS[name]
    built = builtin(kind)
    calls = []
    build_projector = probe._projector
    monkeypatch.setattr(probe, "_projector", lambda sub, star=None: calls.append(sub) or build_projector(sub, star))
    report = functional_path_probe(built.algebra, built.flag, base, direction, preset_samples(20), Fraction(0))
    monkeypatch.undo()
    assert len(calls) == 2 and len(report.samples) == 20
    p_star = vergne_select(coadjoint_form(built.algebra, Functional.of(base)), built.flag)
    for sample in report.samples:
        p = vergne_select(coadjoint_form(built.algebra, Functional.of(line_point(base, direction, sample.t))), built.flag)
        assert sample.gap.hex() == gap(p, p_star).hex()
        assert sample.cell == jump_indices(p, built.flag)


def line_cases(rng):
    """Builtin algebras and seeded axb algebras, each with its Jordan-Hölder flag."""
    yield from (builtin(kind) for kind in ("g54", "g615", "heisenberg:1", "heisenberg:2", "heisenberg:3"))
    for n in range(4):
        k = 1 + n % 3
        action = Matrix([[random_rational(rng) if i <= j else 0 for j in range(k)] for i in range(k)])
        yield builtin("axb", action)


def test_functional_path_forms_are_the_coadjoint_forms_of_the_line(monkeypatch):
    # Every form the probe builds from the two endpoint forms equals the
    # coadjoint form of base + t * direction, for zero and nonzero endpoints,
    # t = 0, negative t and t with large denominators.
    from lagsel import probe

    built_forms = []
    run_probe = probe.path_probe

    def recording(form_at, flag, samples, t_star):
        def recorded(t):
            built_forms.append((t, form_at(t)))
            return built_forms[-1][1]

        return run_probe(recorded, flag, samples, t_star)

    monkeypatch.setattr(probe, "path_probe", recording)
    rng = Random(73)
    checked = 0
    for case in line_cases(rng):
        m = case.algebra.dim
        for n in range(6):
            base = [0] * m if n == 0 else [random_rational(rng, 20, 20) for _ in range(m)]
            direction = [0] * m if n == 1 else [random_rational(rng, 20, 20) for _ in range(m)]
            samples = [
                Fraction(0),
                -random_nonzero_rational(rng),
                Fraction(rng.randint(-(10**40), 10**40), 3**90),
                Fraction(1, 2**100) - 1,
                random_rational(rng, 10**6, 10**6),
            ]
            built_forms.clear()
            functional_path_probe(case.algebra, case.flag, base, direction, samples, samples[n % len(samples)])
            assert [t for t, _ in built_forms] == [samples[n % len(samples)], *samples]
            for t, form in built_forms:
                assert form == coadjoint_form(case.algebra, Functional.of(line_point(base, direction, t)))
                checked += 1
    assert checked == 9 * 6 * 6


def _hexes(matrix):
    return [[x.hex() for x in row] for row in matrix]


def _loop_gap(p1, p2):
    return spectral_norm([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(p1, p2)])


def test_projector_and_gap_match_the_loop_reference_bit_for_bit():
    # The comprehension forms of the dot product, the Gram-Schmidt update and
    # the outer-product rows give the loop reference's floats, on this
    # interpreter, whatever its sum() does.
    rng = Random(79)
    for n in range(1000):
        m = rng.randint(2, 8)
        if n % 2:
            w1, w2 = random_subspace(rng, m), random_subspace(rng, m)
        else:
            flag = random_flag(rng, m)
            w1, w2 = (vergne_select(random_skew_form(rng, m), flag) for _ in range(2))
        p1, p2 = loop_float_projector(w1), loop_float_projector(w2)
        assert _hexes(projector(w1)) == _hexes(p1)
        assert gap(w1, w2).hex() == _loop_gap(p1, p2).hex()
    subs = scaled_row_subspaces(200)
    for w1 in subs:
        assert _hexes(projector(w1)) == _hexes(loop_float_projector(w1))
        for w2 in subs:
            if w2.ambient_dim == w1.ambient_dim:
                assert gap(w1, w2).hex() == _loop_gap(loop_float_projector(w1), loop_float_projector(w2)).hex()
    for kind, base, direction in PROBE_PRESETS.values():
        built = builtin(kind)
        report = functional_path_probe(built.algebra, built.flag, base, direction, preset_samples(), Fraction(0))
        p_star = loop_float_projector(vergne_select(coadjoint_form(built.algebra, Functional.of(base)), built.flag))
        for sample in report.samples:
            p = vergne_select(coadjoint_form(built.algebra, Functional.of(line_point(base, direction, sample.t))), built.flag)
            assert sample.gap.hex() == _loop_gap(loop_float_projector(p), p_star).hex()


def _sparse_rationals(rng, m, zero_chance):
    return [Fraction(0) if rng.random() < zero_chance else random_rational(rng) for _ in range(m)]


def _support(p1, p2):
    return sum(any(a != b for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))


def test_gap_on_the_support_of_the_difference_matches_the_full_jacobi_bit_for_bit():
    # W_i = A_i + C with A_i inside the coordinates S and C inside the rest:
    # P_1 - P_2 vanishes outside S, so Jacobi runs on |S| rows or fewer, and
    # the largest |λ| is the full matrix's float.
    rng = Random(83)
    supports = []
    for n in range(600):
        m = rng.randint(1, 8)
        inside = sorted(rng.sample(range(m), rng.randint(1, m)))
        outside = [c for c in range(m) if c not in inside]

        def embed(sub, coords):
            return [[row[coords.index(c)] if c in coords else 0 for c in range(m)] for row in sub.basis]

        common = embed(random_subspace(rng, len(outside)), outside)
        w1, w2 = (
            Subspace.from_vectors(m, embed(random_subspace(rng, len(inside)), inside) + common) for _ in range(2)
        )
        p1, p2 = projector(w1), projector(w2)
        supports.append(_support(p1, p2))
        assert supports[-1] <= len(inside)
        assert _projector_gap(p1, p2).hex() == _loop_gap(p1, p2).hex()
        assert _projector_gap(p1, p1).hex() == _loop_gap(p1, p1).hex() == (0.0).hex()
    assert {0, 1, 2, 3} <= set(supports)


def _shared_prefix(w1, w2):
    return next((r for r, (a, b) in enumerate(zip(w1.rows, w2.rows)) if a != b), min(w1.dim, w2.dim))


def test_random_lines_match_the_per_sample_definitions():
    # Each report against projector, gap and jump_indices per sample, on
    # 300 seeded lines through g54, g615 and axb; every gap also against the
    # loop reference.  Many new selections share leading canonical rows with
    # the star's, so the Gram-Schmidt prefix is reused.
    rng = Random(97)
    cases = [builtin("g54"), builtin("g615")]
    for k in (1, 2, 3):
        cases.append(builtin("axb", Matrix([[random_rational(rng) if i <= j else 0 for j in range(k)] for i in range(k)])))
    counts = {"samples": 0, "new": 0, "prefix": 0, "in-stratum": 0}
    for n in range(300):
        case = cases[n % len(cases)]
        m, flag = case.algebra.dim, case.flag
        base, direction = _sparse_rationals(rng, m, 0.6), _sparse_rationals(rng, m, 0.6)
        samples = [Fraction(1, 2**i) for i in range(1, 5)] + [random_rational(rng) for _ in range(2)]
        t_star = Fraction(0) if n % 3 else samples[-1]
        report = functional_path_probe(case.algebra, flag, base, direction, samples, t_star)
        star = coadjoint_form(case.algebra, Functional.of(line_point(base, direction, t_star)))
        p_star = vergne_select(star, flag)
        assert report.star_stratum == signature_vector(star, flag)
        assert report.star_cell == jump_indices(p_star, flag)
        new = set()
        for sample, t in zip(report.samples, samples):
            form = coadjoint_form(case.algebra, Functional.of(line_point(base, direction, t)))
            p = vergne_select(form, flag)
            assert sample.t == t
            assert sample.gap.hex() == gap(p, p_star).hex()
            assert sample.gap.hex() == _loop_gap(loop_float_projector(p), loop_float_projector(p_star)).hex()
            assert sample.stratum == signature_vector(form, flag)
            assert sample.cell == jump_indices(p, flag)
            if p != p_star and p not in new:
                new.add(p)
                counts["prefix"] += _shared_prefix(p, p_star) > 0
                counts["in-stratum"] += sample.stratum == report.star_stratum
            counts["samples"] += 1
        counts["new"] += len(new)
    assert counts["samples"] == 1800
    assert counts["new"] >= 200 and counts["prefix"] >= 200 and counts["in-stratum"] >= 150, counts


def test_a_star_on_the_exact_fallback_lends_no_prefix_and_gives_the_same_gaps():
    # The star's selection V_2 is spanned by rows that round to parallel
    # floats, so its projector is the exact one, rounded once, and no
    # Gram-Schmidt vector is reused.  The forms are J + t C in flag
    # coordinates, with J pairing flag vectors 1 with 3 and 2 with 4.
    big = 10**200
    f1, f2 = [1, Fraction(big, 7), Fraction(1, big), 0], [0, 1, 0, big]
    columns = [f1, f2, [0, 0, 1, 0], [0, 0, 0, 1]]
    basis = [list(row) for row in zip(*columns)]
    flag = Flag(Matrix(basis))
    inverse = solve(basis, [[Fraction(int(i == j)) for j in range(4)] for i in range(4)])
    inverse_t = [list(col) for col in zip(*inverse)]
    star_selection = Subspace.from_vectors(4, [f1, f2])
    with pytest.raises(ValueError, match="numerically dependent"):
        oracle_float_projector(star_selection)
    assert _projector(star_selection)[1] is None
    rng = Random(89)
    fallbacks = 0
    for n in range(12):
        c = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                if rng.random() < 0.6:
                    c[i][j] = random_rational(rng)
                    c[j][i] = -c[i][j]

        def form_at(t):
            gram = [[c[i][j] * t for j in range(4)] for i in range(4)]
            for i, j in ((0, 2), (1, 3)):
                gram[i][j] += 1
                gram[j][i] -= 1
            return SkewForm(Matrix(matmul(inverse_t, matmul(gram, inverse))))

        samples = [Fraction(1, 2**i) for i in range(1, 5)] + [Fraction(-1, 3), Fraction(0)]
        report = path_probe(form_at, flag, samples, Fraction(0))
        assert vergne_select(form_at(Fraction(0)), flag) == star_selection
        for sample, t in zip(report.samples, samples):
            p = vergne_select(form_at(t), flag)
            assert sample.gap.hex() == gap(p, star_selection).hex()
            assert sample.cell == jump_indices(p, flag)
            fallbacks += _projector(p)[1] is None
    assert fallbacks >= 12
