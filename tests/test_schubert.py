"""Jump sets, the isotropic filtration, and cell/signature translation."""

from bisect import bisect_right
from random import Random

import pytest

from lagsel import linalg, schubert
from lagsel.linalg import MAX_DIM, Subspace, contains, intersect
from lagsel.presymplectic import Flag, SkewForm, b_perp, is_isotropic, null_space, signature_vector, vergne_select
from lagsel.sampling import random_flag, random_skew_form, random_subspace
from lagsel.schubert import (
    FiltrationTrace,
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


def test_jump_indices_match_oracle_up_to_m18(rational_flag):
    # Standard, rational and scrambled flags at m = 0..18, against the
    # per-step definition; W runs over 0, Q^m, selections, null spaces and
    # random subspaces, so the quotient map sees every codimension.
    rng = Random(31)
    for n in range(228):
        m = n % 19
        kind = (n // 19) % 3
        if kind == 0:
            flag = Flag.standard(m)
        elif kind == 1:
            flag = rational_flag(rng, m)
        else:
            flag = random_flag(rng, m)
        form = random_skew_form(rng, m)
        for w in (
            Subspace.zero(m),
            Subspace.full(m),
            vergne_select(form, flag),
            null_space(form),
            random_subspace(rng, m),
        ):
            assert jump_indices(w, flag).indices == per_step_jump_oracle(w, flag)


def test_jump_indices_is_one_elimination_in_the_quotient(monkeypatch):
    # One call reduces the m - dim W annihilator rows once, and W = 0 or
    # W = Q^m needs no elimination at all.
    heights = []
    reduce_rows = schubert._rref_int_rows

    def counted(rows):
        heights.append(len(rows))
        return reduce_rows(rows)

    monkeypatch.setattr(schubert, "_rref_int_rows", counted)
    rng = Random(37)
    for m in (0, 1, 5, 10, 18):
        for flag in (Flag.standard(m), random_flag(rng, m)):
            form = random_skew_form(rng, m)
            for w in (Subspace.zero(m), Subspace.full(m), vergne_select(form, flag), random_subspace(rng, m)):
                heights.clear()
                jump_indices(w, flag)
                assert heights == ([] if w.dim in (0, m) else [m - w.dim])


def test_intersection_with_a_flag_step_counts_the_non_jumps():
    # dim(W ∩ V_j) = |{r <= j : r not a jump of W}| for every subspace W,
    # which is 0 at every j when 1..j are all jumps: the verifier's ladder.
    rng = Random(43)
    first_is_jump = 0
    for n in range(300):
        m = rng.randint(1, 7)
        flag = Flag.standard(m) if n % 2 else random_flag(rng, m)
        for w in (Subspace.zero(m), random_subspace(rng, m), random_subspace(rng, m, max_gens=2)):
            comp = jump_indices(w, flag).complement()
            first_is_jump += w.dim > 0 and 1 not in comp
            for j in range(m + 1):
                assert intersect(w, flag.subspace(j)).dim == bisect_right(comp, j)
    # Nonzero subspaces with 1 in jump(W).
    assert first_is_jump >= 250


def test_jump_set_dimension_cap():
    assert len(cell_to_signature(JumpSet(MAX_DIM, ())).entries) == MAX_DIM
    with pytest.raises(ValueError, match="exceeds the limit"):
        JumpSet(10**8, ())


def first_trace_outside(target, steps, p, traces):
    """The least i >= 1 with V_i ∩ p not inside ``target``; ``traces[i]`` caches V_i ∩ p."""
    for i in range(1, len(steps)):
        if len(traces) == i:
            traces.append(intersect(steps[i], p))
        if not contains(target, traces[i]):
            return i
    raise AssertionError("no flag step leaves the target")


def filtration_oracle(b, flag):
    """The definition: p^{k+1} = (V_i ∩ p^k)^{⊥_B} ∩ p^k, with i and j found by intersecting flag steps."""
    steps = [flag.subspace(j) for j in range(flag.dim + 1)]
    p = Subspace.full(b.dim)
    chain, i_seq, j_seq = [p], [], []
    while not is_isotropic(b, p):
        traces = [steps[0]]
        i_next = first_trace_outside(b_perp(b, p), steps, p, traces)
        p_next = intersect(b_perp(b, traces[i_next]), p)
        j_next = first_trace_outside(p_next, steps, p, traces)
        assert p_next.dim < p.dim
        chain.append(p_next)
        i_seq.append(i_next)
        j_seq.append(j_next)
        p = p_next
    return FiltrationTrace(tuple(chain), tuple(i_seq), tuple(j_seq))


def filtration_cases(rational_flag, count, seed):
    """Seeded (form, flag) pairs, m = 1..10, over four form densities and three flag kinds."""
    rng = Random(seed)
    for n in range(count):
        m = 1 + n % 10
        form = random_skew_form(rng, m, zero_chance=(0.0, 0.35, 0.8, 1.0)[(n // 10) % 4])
        kind = (n // 40) % 3
        if kind == 0:
            flag = Flag.standard(m)
        elif kind == 1:
            flag = random_flag(rng, m)
        else:
            flag = rational_flag(rng, m)
        yield form, flag


def test_filtration_matches_per_step_oracle(rational_flag):
    for form, flag in filtration_cases(rational_flag, 520, 31):
        assert filtration(form, flag) == filtration_oracle(form, flag)


def test_filtration_makes_no_intersect_and_at_most_two_eliminations_per_step(rational_flag, monkeypatch):
    calls = {"rref": 0, "intersect": 0}
    rref_int_rows, original_intersect = linalg._rref_int_rows, linalg.intersect

    def counted_rref(rows):
        calls["rref"] += 1
        return rref_int_rows(rows)

    def counted_intersect(s1, s2):
        calls["intersect"] += 1
        return original_intersect(s1, s2)

    monkeypatch.setattr(linalg, "_rref_int_rows", counted_rref)
    monkeypatch.setattr(linalg, "intersect", counted_intersect)
    monkeypatch.setattr(schubert, "intersect", counted_intersect)
    steps = 0
    for form, flag in filtration_cases(rational_flag, 520, 37):
        calls.update(rref=0, intersect=0)
        trace = filtration(form, flag)
        assert calls["intersect"] == 0
        assert calls["rref"] <= 2 * trace.d
        steps += trace.d
    assert steps > 500


def test_lemma_report_builds_one_gram_matrix_and_one_sweep(rational_flag, monkeypatch):
    from lagsel import presymplectic

    calls = {"gram": 0, "sweep": 0}
    gram, sweep = presymplectic._integer_gram, presymplectic._sweep

    def counted_gram(b, flag):
        calls["gram"] += 1
        return gram(b, flag)

    def counted_sweep(g):
        calls["sweep"] += 1
        return sweep(g)

    for module in (presymplectic, schubert):
        monkeypatch.setattr(module, "_integer_gram", counted_gram)
    monkeypatch.setattr(presymplectic, "_sweep", counted_sweep)
    for form, flag in filtration_cases(rational_flag, 60, 41):
        calls.update(gram=0, sweep=0)
        assert verify_filtration_lemmas(form, flag).ok
        assert calls == {"gram": 1, "sweep": 1}


def test_lemma_report_builds_witnesses_only_for_failures(monkeypatch):
    from lagsel import presymplectic

    rng = Random(5)
    form, flag = random_skew_form(rng, 5, zero_chance=0.0), random_flag(rng, 5)
    sums = []
    original_sum = linalg.subspace_sum

    def counted_sum(s1, s2):
        sums.append(1)
        return original_sum(s1, s2)

    monkeypatch.setattr(linalg, "subspace_sum", counted_sum)
    report = verify_filtration_lemmas(form, flag)
    assert report.ok and all(c.witness == "" for c in report.checks)
    # One sum per step for its check; none more for a witness nobody reads.
    assert len(sums) == filtration(form, flag).d == 2

    original = presymplectic._span_in_ambient

    def dropped_row(m, vectors, cols):
        selection = original(m, vectors, cols)
        return Subspace(selection.ambient_dim, selection.basis[:-1], selection.pivots[:-1])

    # The verifier's _select maps the sweep's up-step vectors to the selection here.
    monkeypatch.setattr(presymplectic, "_span_in_ambient", dropped_row)
    report = verify_filtration_lemmas(form, flag)
    failed = {c.name: c.witness for c in report.failures()}
    witness = failed["chain ends at the flag selection"]
    assert "final=" in witness and "B=[[" in witness
    assert all(c.witness == "" for c in report.checks if c.passed)
