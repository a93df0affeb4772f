"""Jump sets, the isotropic filtration, and cell/signature translation."""

from random import Random

import pytest

from lagsel.linalg import MAX_DIM, Subspace
from lagsel.presymplectic import Flag, SkewForm, null_space, signature_vector, vergne_select
from lagsel.sampling import random_flag, random_skew_form, random_subspace
from lagsel.schubert import (
    JumpSet,
    cell_to_signature,
    filtration,
    jump_indices,
    selection_cell,
    verify_filtration_lemmas,
)

STD5 = Flag.standard(5)


def g54_form_at_e1():
    return SkewForm.from_upper_entries(5, [(3, 4, -1)])


def g615_form_at_e2():
    return SkewForm.from_upper_entries(6, [(4, 5, -1)])


def test_jump_of_full_space_is_empty():
    assert jump_indices(Subspace.full(4), Flag.standard(4)).indices == ()


def test_jump_of_zero_subspace_is_everything():
    assert jump_indices(Subspace.zero(4), Flag.standard(4)).indices == (1, 2, 3, 4)


def test_jump_of_g54_selection():
    w = Subspace.from_vectors(5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])
    assert jump_indices(w, STD5).indices == (4,)


def test_jump_cardinality_is_codimension():
    rng = Random(3)
    for _ in range(60):
        m = rng.randint(1, 6)
        w = Subspace.from_vectors(m, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, m))])
        flag = random_flag(rng, m)
        assert len(jump_indices(w, flag)) == m - w.dim


def test_filtration_of_zero_form_stops_immediately():
    trace = filtration(SkewForm.zero(3))
    assert trace.d == 0
    assert trace.chain == (Subspace.full(3),)
    assert trace.i_seq == () and trace.j_seq == ()


def test_filtration_g54_example():
    trace = filtration(g54_form_at_e1())
    assert trace.d == 1
    assert trace.i_seq == (3,)
    assert trace.j_seq == (4,)
    assert trace.final == Subspace.from_vectors(
        5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    )


def test_filtration_symplectic_plane():
    trace = filtration(SkewForm.from_upper_entries(2, [(1, 2, 1)]))
    assert trace.d == 1
    assert trace.i_seq == (1,)
    assert trace.j_seq == (2,)
    assert trace.final == Subspace.from_vectors(2, [[1, 0]])


def test_lemma_report_zero_form_is_vacuous_pass():
    report = verify_filtration_lemmas(SkewForm.zero(4))
    assert report.ok, report.failures()


def test_lemma_report_g54_jump_sets():
    form = g54_form_at_e1()
    report = verify_filtration_lemmas(form)
    assert report.ok, report.failures()
    assert jump_indices(null_space(form), STD5).indices == (3, 4)
    assert selection_cell(form).indices == (4,)


def test_cell_to_signature_open_cell():
    assert cell_to_signature(JumpSet(3, ())).entries == (1, 2, 3)


def test_cell_to_signature_g54_cell():
    assert cell_to_signature(JumpSet(5, (4,))).entries == (1, 2, 3, 2, 3)


def test_cell_to_signature_g615_cell():
    # The generic g_{6,15} selection span{X1..X4, -x1 X5 + x2 X6} has
    # codimension one and its only jump is 5 (checked against the oracle
    # below); its cell determines the stratum (1,2,3,4,3,4).
    form = g615_form_at_e2()
    cell = selection_cell(form)
    assert cell.indices == (5,)
    assert cell_to_signature(cell).entries == (1, 2, 3, 4, 3, 4)
    # The two-jump cell {5, 6} is a different, admissible cell.
    assert cell_to_signature(JumpSet(6, (5, 6))).entries == (1, 2, 3, 4, 3, 2)


def test_cell_to_signature_rejects_inadmissible_cells():
    with pytest.raises(ValueError):
        cell_to_signature(JumpSet(4, (1, 2)))  # derived k_3 < 0
    with pytest.raises(ValueError):
        cell_to_signature(JumpSet(3, (1, 2, 3)))  # codimension exceeds m/2
    with pytest.raises(ValueError):
        cell_to_signature(JumpSet(2, (1, 2)))


def test_selection_cell_examples():
    assert selection_cell(SkewForm.zero(4)).indices == ()
    assert selection_cell(g54_form_at_e1()).indices == (4,)
    # Functional dual to X_2 on g_{5,4}: selection is span{X1..X4}.
    form = SkewForm.from_upper_entries(5, [(3, 5, -1)])
    assert vergne_select(form) == Subspace.from_vectors(
        5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    )
    assert selection_cell(form).indices == (5,)


def test_jump_set_validation():
    with pytest.raises(ValueError):
        JumpSet(3, (0,))
    with pytest.raises(ValueError):
        JumpSet(3, (4,))
    with pytest.raises(ValueError):
        JumpSet(3, (2, 2))


def test_lemma_suite_on_random_forms():
    rng = Random(1234)
    for _ in range(150):
        m = rng.randint(2, 7)
        form = random_skew_form(rng, m)
        flag = random_flag(rng, m)
        report = verify_filtration_lemmas(form, flag)
        assert report.ok, report.failures()


def test_cell_signature_consistency_on_random_forms():
    rng = Random(4321)
    for _ in range(80):
        m = rng.randint(1, 6)
        form = random_skew_form(rng, m)
        flag = random_flag(rng, m)
        assert cell_to_signature(selection_cell(form, flag)) == signature_vector(form, flag)


def per_step_jump_oracle(w, flag):
    """The definition: j jumps when p_j is outside W + V_{j-1}, grown one vector at a time."""
    m = flag.dim
    indices = []
    below = w
    for j in range(1, m + 1):
        if j > 1:
            below = below + Subspace.from_vectors(m, [flag.column(j - 2)])
        if not below.contains_vector(flag.column(j - 1)):
            indices.append(j)
    return tuple(indices)


def test_jump_indices_match_per_step_oracle(rational_flag):
    rng = Random(29)
    for n in range(500):
        m = 1 + n % 10
        kind = (n // 10) % 3
        if kind == 0:
            flag = Flag.standard(m)
        elif kind == 1:
            flag = rational_flag(rng, m)
        else:
            flag = random_flag(rng, m)
        if n % 2:
            w = random_subspace(rng, m)
        else:
            w = vergne_select(random_skew_form(rng, m), flag)
        assert jump_indices(w, flag).indices == per_step_jump_oracle(w, flag)


def test_jump_set_dimension_cap():
    assert len(cell_to_signature(JumpSet(MAX_DIM, ())).entries) == MAX_DIM
    with pytest.raises(ValueError, match="exceeds the limit"):
        JumpSet(10**8, ())
