"""Skew forms, flag restrictions, and the Lagrangian selection."""

from fractions import Fraction
from random import Random

import pytest

from lagsel.linalg import MAX_DIM, Matrix, Subspace
from lagsel.presymplectic import (
    Flag,
    SignatureVector,
    SkewForm,
    b_perp,
    is_isotropic,
    is_lagrangian,
    null_space,
    restrict,
    signature_vector,
    vergne_select,
)
from lagsel.sampling import random_flag, random_skew_form, random_subspace
from lagsel.schubert import jump_indices


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
    assert restrict(form, Flag.standard(4), 1).matrix == Matrix.zero(1, 1)


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


def test_restrict_matches_gram_of_flag_columns():
    rng = Random(19)
    for _ in range(20):
        m = rng.randint(1, 6)
        form = random_skew_form(rng, m)
        flag = random_flag(rng, m)
        j = rng.randint(1, m)
        cols = [flag.column(a) for a in range(j)]
        expected = [[form.value(u, v) for v in cols] for u in cols]
        assert restrict(form, flag, j).matrix == Matrix(expected)


def per_step_oracle(form, flag):
    """The per-step definition of the selection and the signature.

    Each flag step's radical is computed from the restriction of the form,
    embedded into the ambient space and summed.  The restriction to V_j is
    taken as the leading block of the restriction to V_m, which
    test_restrict_is_ordering_consistent checks against restrict(form, flag, j).
    """
    selection = Subspace.zero(form.dim)
    dims = []
    gram = restrict(form, flag, flag.dim)
    in_flag_coordinates = Flag.standard(flag.dim)
    for j in range(1, flag.dim + 1):
        radical = null_space(restrict(gram, in_flag_coordinates, j))
        selection = selection + flag.embed(j, radical)
        dims.append(radical.dim)
    return selection, tuple(dims)


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
