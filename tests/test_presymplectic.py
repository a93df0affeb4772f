"""Skew forms, flag restrictions, and the Lagrangian selection."""

import gc
import weakref
from fractions import Fraction
from math import gcd
from random import Random

import pytest

from lagsel.linalg import MAX_DIM, Matrix, Subspace
from lagsel.presymplectic import (
    Flag,
    SignatureVector,
    SkewForm,
    _integer_gram,
    _sweep,
    b_perp,
    is_isotropic,
    is_lagrangian,
    null_space,
    restrict,
    signature_vector,
    vergne_select,
)
from lagsel.sampling import random_flag, random_rational, random_skew_form, random_subspace
from lagsel.schubert import jump_indices
from oracles import gram_of_flag, per_step_oracle


def g54_form_at_e1():
    """Coadjoint form of g_{5,4} against the functional dual to X_1."""
    return SkewForm.from_upper_entries(5, [(3, 4, -1)])


def symplectic_4d():
    return SkewForm.from_upper_entries(4, [(1, 3, 1), (2, 4, 1)])


def test_skew_form_rejects_non_skew_matrix():
    with pytest.raises(ValueError):
        SkewForm(Matrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        SkewForm(Matrix([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        SkewForm(Matrix([[0, 1, 2]]))


def _stores_integers(form):
    return type(form.scale) is int and all(type(x) is int for row in form.integer_matrix for x in row)


def test_skew_form_round_trips_its_matrix():
    rng = Random(41)
    matrices = [[], [[0]], [[0, "1/2"], ["-1/2", 0]], [[0, "2/3", 0], ["-2/3", 0, "5/4"], [0, "-5/4", 0]]]
    for _ in range(40):
        m = rng.randint(1, 6)
        matrices.append(random_skew_form(rng, m).matrix.entries)
    scales = set()
    for rows in matrices:
        form = SkewForm(Matrix(rows))
        assert _stores_integers(form)
        assert form.matrix == Matrix(rows)
        assert form.dim == len(rows)
        # A form built from the integers alone rebuilds the same matrix.
        rebuilt = SkewForm._from_integers(form.integer_matrix, form.scale)
        assert rebuilt.matrix == Matrix(rows) and rebuilt == form
        scales.add(form.scale)
    assert null_space(SkewForm(Matrix([]))) == Subspace.full(0)
    assert max(scales) > 1


def test_skew_form_equality_and_hash_agree_across_constructors():
    rng = Random(43)
    for _ in range(60):
        m = rng.randint(0, 6)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        upper = {pair: random_rational(rng) for pair in pairs if rng.random() < 0.6}
        whole = SkewForm.from_upper_entries(m, [(i, j, v) for (i, j), v in upper.items()])
        # The same form from a common multiple of its integer pair.
        k = rng.randint(2, 9)
        multiple = SkewForm._from_integers([[k * x for x in row] for row in whole.integer_matrix], k * whole.scale)
        same = [whole, SkewForm(Matrix(whole.matrix.entries)), multiple]
        for form in same:
            assert _stores_integers(form)
            assert form == whole and hash(form) == hash(whole)
        assert (whole == SkewForm.zero(m)) == (not upper)
        if upper:
            assert SkewForm.from_upper_entries(m, [(i, j, 2 * v) for (i, j), v in upper.items()]) != whole


def _is_canonical_skew(form):
    rows, n = form.integer_matrix, form.dim
    return (
        _stores_integers(form)
        and all(len(row) == n for row in rows)
        and all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(i, n))
        and form.scale > 0
        and gcd(form.scale, *(x for row in rows for x in row)) == 1
    )


def test_every_form_the_library_builds_is_square_skew_and_canonical(rational_flag, monkeypatch):
    # _from_integers trusts its caller, so each caller must hand it a square,
    # exactly skew integer matrix, and the pair it keeps must have gcd 1.
    from lagsel.lie import Functional, builtin, coadjoint_form
    from lagsel.probe import functional_path_probe
    from lagsel.sampling import random_functional_coeffs

    built = []
    original = SkewForm._from_integers.__func__

    def recorded(cls, rows, scale):
        form = original(cls, rows, scale)
        built.append(form)
        return form

    monkeypatch.setattr(SkewForm, "_from_integers", classmethod(recorded))
    counts = dict.fromkeys(["from_upper_entries", "zero", "restrict", "coadjoint_form", "probe line"], 0)

    def source(name, make):
        before = len(built)
        result = make()
        counts[name] += len(built) - before
        return result

    rng = Random(53)
    for _ in range(60):
        m = rng.randint(0, 7)
        source("zero", lambda: SkewForm.zero(m))
        zero_chance = rng.choice([0.0, 0.35, 1.0])
        form = source("from_upper_entries", lambda: random_skew_form(rng, m, zero_chance))
        if m:
            flag = rational_flag(rng, m)
            source("restrict", lambda: [restrict(form, flag, j) for j in range(1, m + 1)])
    for _ in range(30):
        n = rng.randint(1, 3)
        kind = rng.choice(["g54", "g615", f"heisenberg:{n}", "axb"])
        action = Matrix([[random_rational(rng, 3, 3) if i <= j else 0 for j in range(n)] for i in range(n)])
        algebra = builtin(kind, action if kind == "axb" else None)
        base = random_functional_coeffs(rng, algebra.dim)
        source("coadjoint_form", lambda: coadjoint_form(algebra.algebra, Functional.of(base)))
        # Two endpoint forms, then one form per sample on the line through them.
        direction = random_functional_coeffs(rng, algebra.dim)
        samples = [random_rational(rng) for _ in range(3)]
        source(
            "probe line",
            lambda: functional_path_probe(algebra.algebra, algebra.flag, base, direction, samples, Fraction(0)),
        )
    assert min(counts.values()) >= 30, counts
    assert all(_is_canonical_skew(form) for form in built)
    assert len({form.scale for form in built}) > 5


def test_flag_round_trips_its_basis_matrix(rational_flag):
    rng = Random(47)
    for _ in range(40):
        m = rng.randint(1, 5)
        flag = rational_flag(rng, m) if rng.random() < 0.5 else random_flag(rng, m)
        p = flag.basis_matrix
        again = Flag(Matrix(p.entries))
        assert again.basis_matrix == p
        assert all(type(x) is int for col in again.integer_columns for x in col)
        assert again == flag and hash(again) == hash(flag)
        # Scaling a column keeps every flag step but changes the matrix.
        a = rng.randrange(m)
        c = rng.choice([2, Fraction(1, 3), -1])
        scaled = Matrix([[x * c if t == a else x for t, x in enumerate(row)] for row in p.entries])
        assert Flag(scaled) != flag
        assert all(Flag(scaled).subspace(j) == flag.subspace(j) for j in range(m + 1))
    assert Flag(Matrix.identity(3)) == Flag.standard(3) and Flag(Matrix.identity(3))._standard
    half = Flag(Matrix([["1/2", 0], [0, 1]]))
    assert half != Flag.standard(2) and not half._standard
    assert Flag(Matrix([])).basis_matrix == Matrix([])


def test_standard_flag_is_the_identity_flag_built_without_a_matrix(monkeypatch):
    dims = [*range(9), 64]
    for m in dims:
        flag, identity = Flag.standard(m), Flag(Matrix.identity(m))
        assert flag == identity and hash(flag) == hash(identity)
        assert flag._standard and identity._standard
        assert flag.subspace(m) == Subspace.full(m)
    built = []
    original = Matrix.__init__

    def counted(self, entries):
        built.append(self)
        original(self, entries)

    monkeypatch.setattr(Matrix, "__init__", counted)
    for m in dims:
        Flag.standard(m)
    assert built == []


def test_from_upper_entries_rejects_a_repeated_pair():
    with pytest.raises(ValueError, match=r"\(1, 2\) given twice"):
        SkewForm.from_upper_entries(2, [(1, 2, 1), (1, 2, 5)])
    with pytest.raises(ValueError, match="given twice"):
        SkewForm.from_upper_entries(3, [(2, 3, "1/2"), (1, 3, 1), (2, 3, "1/2")])


def test_from_upper_entries_materializes_skewness():
    form = SkewForm.from_upper_entries(3, [(1, 2, "1/2")])
    assert form.matrix.entry(0, 1) == Fraction(1, 2)
    assert form.matrix.entry(1, 0) == Fraction(-1, 2)
    assert form.matrix.entry(2, 2) == 0


def test_b_perp_of_zero_subspace_is_full():
    form = symplectic_4d()
    assert b_perp(form, Subspace.zero(4)) == Subspace.full(4)


def test_b_perp_under_zero_form_is_full():
    assert b_perp(SkewForm.zero(3), Subspace.from_vectors(3, [[1, 2, 3]])) == Subspace.full(3)


def test_b_perp_line_in_symplectic_plane():
    form = SkewForm.from_upper_entries(2, [(1, 2, 1)])
    line = Subspace.from_vectors(2, [[1, 0]])
    assert b_perp(form, line) == line


def test_null_space_of_zero_form():
    assert null_space(SkewForm.zero(3)) == Subspace.full(3)


def test_null_space_of_symplectic_form_is_trivial():
    assert null_space(symplectic_4d()) == Subspace.zero(4)


def test_null_space_g54_example():
    assert null_space(g54_form_at_e1()) == Subspace.from_vectors(
        5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
    )


def test_restrict_full_step_is_identity():
    form = symplectic_4d()
    assert restrict(form, Flag.standard(4), 4).matrix == form.matrix


def test_restrict_to_line_vanishes():
    form = symplectic_4d()
    assert restrict(form, Flag.standard(4), 1).matrix == Matrix([[0]])


def test_restrict_g54_to_step_four():
    got = restrict(g54_form_at_e1(), Flag.standard(5), 4)
    assert got.matrix == SkewForm.from_upper_entries(4, [(3, 4, -1)]).matrix


def test_restrict_is_ordering_consistent():
    rng = Random(5)
    for _ in range(20):
        m = rng.randint(2, 6)
        form = random_skew_form(rng, m)
        flag = random_flag(rng, m)
        j_big = rng.randint(1, m)
        j_small = rng.randint(1, j_big)
        once = restrict(form, flag, j_small)
        twice = restrict(restrict(form, flag, j_big), Flag.standard(j_big), j_small)
        assert once.matrix == twice.matrix


def test_restrict_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        restrict(symplectic_4d(), Flag.standard(4), 5)
    with pytest.raises(ValueError):
        restrict(symplectic_4d(), Flag.standard(4), 0)


def test_selection_of_zero_form_is_everything():
    assert vergne_select(SkewForm.zero(4)) == Subspace.full(4)


def test_selection_g54_example():
    assert vergne_select(g54_form_at_e1()) == Subspace.from_vectors(
        5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    )


def test_selection_g615_example():
    # Coadjoint form of g_{6,15} against the functional dual to X_2.
    form = SkewForm.from_upper_entries(6, [(4, 5, -1)])
    assert vergne_select(form) == Subspace.from_vectors(
        6,
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ],
    )


def test_signature_of_zero_form():
    assert signature_vector(SkewForm.zero(3)).entries == (1, 2, 3)


def test_signature_g54_example():
    assert signature_vector(g54_form_at_e1()).entries == (1, 2, 3, 2, 3)


def test_signature_g615_example():
    form = SkewForm.from_upper_entries(6, [(4, 5, -1)])
    assert signature_vector(form).entries == (1, 2, 3, 4, 3, 4)


def test_lines_are_isotropic():
    form = symplectic_4d()
    assert is_isotropic(form, Subspace.from_vectors(4, [[1, 1, 1, 1]]))


def test_full_space_not_isotropic_under_symplectic_form():
    assert not is_isotropic(symplectic_4d(), Subspace.full(4))


def test_g54_selection_is_isotropic():
    form = g54_form_at_e1()
    w = Subspace.from_vectors(5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])
    assert is_isotropic(form, w)


def test_lagrangian_for_zero_form_is_full_space():
    assert is_lagrangian(SkewForm.zero(3), Subspace.full(3))
    assert not is_lagrangian(SkewForm.zero(3), Subspace.from_vectors(3, [[1, 0, 0]]))


def test_lagrangian_plane_in_symplectic_space():
    w = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert is_lagrangian(symplectic_4d(), w)


def test_radical_too_small_to_be_lagrangian():
    form = g54_form_at_e1()
    assert not is_lagrangian(form, null_space(form))


def test_selection_contract_on_random_forms():
    rng = Random(11)
    for _ in range(60):
        m = rng.randint(1, 6)
        form = random_skew_form(rng, m)
        flag = random_flag(rng, m)
        selection = vergne_select(form, flag)
        radical = null_space(form)
        assert is_lagrangian(form, selection)
        assert selection.contains(radical)
        assert (m - radical.dim) % 2 == 0
        # The selection also contains each embedded step radical.
        for j in range(1, m + 1):
            embedded = flag.embed(j, null_space(restrict(form, flag, j)))
            assert selection.contains(embedded)
        # Signature admissibility is enforced by the constructor.
        signature_vector(form, flag)


def test_b_perp_double_complement():
    rng = Random(13)
    for _ in range(60):
        m = rng.randint(1, 6)
        form = random_skew_form(rng, m)
        s = random_subspace(rng, m)
        twice = b_perp(form, b_perp(form, s))
        assert twice.contains(s)
        assert twice == s + null_space(form)
        if s.contains(null_space(form)):
            assert twice == s


def test_signature_vector_validation():
    with pytest.raises(ValueError):
        SignatureVector(3, (1, 2))
    with pytest.raises(ValueError):
        SignatureVector(3, (1, 2, 4))
    with pytest.raises(ValueError):
        SignatureVector(3, (1, 1, 3))
    with pytest.raises(ValueError):
        SignatureVector(2, (0, 2))


def test_flag_requires_invertible_matrix():
    with pytest.raises(ValueError):
        Flag(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        Flag(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_flag_steps_nest():
    rng = Random(17)
    flag = random_flag(rng, 5)
    for j in range(1, 6):
        assert flag.subspace(j).dim == j
        assert flag.subspace(j).contains(flag.subspace(j - 1))


def test_restrict_matches_gram_of_flag_columns(rational_flag):
    rng = Random(19)
    for n in range(60):
        m = rng.randint(1, 6)
        form = random_skew_form(rng, m)
        flag = (random_flag, rational_flag)[n % 2](rng, m)
        if n % 10 == 9:
            # Diagonal flag: the standard flag's steps, with rational columns.
            flag = Flag(Matrix([[random_rational(rng, 4, 5) or 1 if i == j else 0 for j in range(m)] for i in range(m)]))
        j = rng.randint(1, m)
        # B(u, v) = u^T M v on the Fraction matrix M, sharing no code with restrict.
        expected = [row[:j] for row in gram_of_flag(form, flag)[:j]]
        assert restrict(form, flag, j).matrix == Matrix(expected)


def oracle_cases(seed, count, rational_flag):
    """Seeded (form, flag) pairs, m = 1..10, mixing form and flag kinds."""
    rng = Random(seed)
    for n in range(count):
        m = 1 + n % 10
        form_kind = (n // 10) % 4
        if form_kind == 0:
            form = SkewForm.zero(m)
        elif form_kind == 1:
            form = random_skew_form(rng, m, zero_chance=0.0)  # full rank for most even m
        else:
            form = random_skew_form(rng, m)
        flag_kind = (n // 40) % 3
        if flag_kind == 0:
            flag = Flag.standard(m)
        elif flag_kind == 1:
            flag = rational_flag(rng, m)
        else:
            flag = random_flag(rng, m)
        yield form, flag


def test_selection_and_signature_match_per_step_oracle(rational_flag):
    full_rank = 0
    for form, flag in oracle_cases(23, 520, rational_flag):
        selection = vergne_select(form, flag)
        signature = signature_vector(form, flag).entries
        assert (selection, signature) == per_step_oracle(form, flag)
        full_rank += null_space(form).is_zero()
        # The selection's cell is exactly the set of steps where the radical shrinks.
        before = (0,) + signature[:-1]
        down = tuple(j for j, (k, k_before) in enumerate(zip(signature, before), start=1) if k < k_before)
        assert jump_indices(selection, flag).indices == down
    assert full_rank >= 50


def test_one_form_answers_each_flag_as_a_fresh_form_does(rational_flag):
    # One form object queried along several flags, in mixed order, must give
    # what a fresh, equal form gives along each flag alone: the kept sweep is
    # keyed by the flag, and None means the standard flag.
    rng = Random(61)
    differing = 0
    for m in range(2, 9):
        for _ in range(6):
            form = random_skew_form(rng, m)
            flags = [random_flag(rng, m), rational_flag(rng, m), None, Flag.standard(m)]
            order = [(flag, rng.random() < 0.5) for flag in flags for _ in range(2)]
            rng.shuffle(order)
            for flag, select_first in order:
                fresh = SkewForm(form.matrix)
                expected = (vergne_select(fresh, flag), signature_vector(fresh, flag))
                if select_first:
                    selection = vergne_select(form, flag)
                    signature = signature_vector(form, flag)
                else:
                    signature = signature_vector(form, flag)
                    selection = vergne_select(form, flag)
                assert (selection, signature) == expected
            standard = vergne_select(form)
            differing += sum(vergne_select(form, flag) != standard for flag in flags[:2])
    assert differing >= 40


def per_pair_strip_sweep(gram):
    """``_sweep`` in index loops, stripping w's content after every pair update.

    Each down step records (i, j, r) with i read as r's last nonzero
    coordinate, where ``_sweep`` records the step at which r joined.
    """
    m = len(gram)

    def form(x, y):
        return sum(x[m + t] * y[t] for t in range(m))

    def primitive(row):
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    pairs, radical, ups, dims, downs = [], [], [], [], []
    for j in range(m):
        w = [int(t == j) for t in range(m)] + list(gram[j])
        for u, v, omega in pairs:
            wu, wv = form(w, u), form(w, v)
            if wu or wv:
                w = primitive([omega * w[t] - wv * u[t] + wu * v[t] for t in range(2 * m)])
        k = next((k for k, r in enumerate(radical) if form(r, w)), None)
        if k is None:
            radical.append(w)
            ups.append(w[:m])
            dims.append(len(radical))
            continue
        r = radical.pop(k)
        downs.append((max(t for t in range(m) if r[t]) + 1, j + 1, r[:m]))
        rw = form(r, w)
        for i, s in enumerate(radical):
            sw = form(s, w)
            if sw:
                radical[i] = primitive([rw * s[t] - sw * r[t] for t in range(2 * m)])
        pairs.append((r, w, rw))
        dims.append(len(radical))
    return ups, dims, downs


def test_one_content_strip_per_step_gives_the_per_pair_strip_sweep(rational_flag):
    rng = Random(83)
    pairs_seen = 0
    for n in range(600):
        m = 1 + n % 18
        form = random_skew_form(rng, m, zero_chance=rng.choice((0.0, 0.35, 0.7)))
        flag = (Flag.standard, random_flag, rational_flag)[n % 3]
        flag = flag(m) if n % 3 == 0 else flag(rng, m)
        gram = _integer_gram(form, flag)
        ups, dims, downs = _sweep(gram)
        assert (ups, dims, downs) == per_pair_strip_sweep(gram)
        assert len(downs) == (m - dims[-1]) // 2
        pairs_seen += len(downs) >= 2
    assert pairs_seen >= 300


def test_skew_gram_matches_the_two_sided_product():
    # P^T M P in plain integer loops, every entry computed.
    rng = Random(89)
    for n in range(180):
        m = 1 + n % 18
        form, flag = random_skew_form(rng, m), random_flag(rng, m)
        mat, cols = form.integer_matrix, flag.integer_columns
        expected = [
            [sum(cols[a][s] * mat[s][t] * cols[c][t] for s in range(m) for t in range(m)) for c in range(m)]
            for a in range(m)
        ]
        assert [list(row) for row in flag._gram(mat)] == expected


def test_signature_alone_builds_no_selection_span(monkeypatch):
    # The selection is the span of the up-step vectors mapped into Q^m, and
    # that map runs only when the selection is first read.
    spans = []
    original = Flag._to_ambient

    def counted(flag, xs):
        spans.append(flag.dim)
        return original(flag, xs)

    monkeypatch.setattr(Flag, "_to_ambient", counted)
    rng = Random(79)
    form, flag = random_skew_form(rng, 7), random_flag(rng, 7)
    signature_vector(form, flag)
    assert spans == []
    selection = vergne_select(form, flag)
    assert vergne_select(form, flag) is selection
    assert spans == [7]


def test_kept_selection_dies_with_its_form():
    rng = Random(67)
    form, flag = random_skew_form(rng, 6), random_flag(rng, 6)
    vergne_select(form, flag)
    signature = weakref.ref(signature_vector(form, flag))
    assert signature() is not None
    del form
    gc.collect()
    assert signature() is None


def test_selection_of_full_rank_form_on_rational_flag():
    # B = e1^e3 + e2^e4 along a flag whose basis has fractional entries.
    flag = Flag(Matrix([["1/2", 0, 0, 1], [0, "1/3", 1, 0], [0, 0, "-2/5", 0], [1, 0, 0, "3/7"]]))
    form = symplectic_4d()
    selection = vergne_select(form, flag)
    assert (selection, signature_vector(form, flag).entries) == per_step_oracle(form, flag)
    assert is_lagrangian(form, selection)


def test_form_dimension_cap():
    assert SkewForm.from_upper_entries(MAX_DIM, []).dim == MAX_DIM
    with pytest.raises(ValueError, match="exceeds the limit"):
        SkewForm.from_upper_entries(MAX_DIM + 1, [])
