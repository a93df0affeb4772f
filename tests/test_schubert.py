"""Jump sets, the isotropic filtration, and cell/signature translation."""

from bisect import bisect_right
from random import Random

import pytest

from lagsel import linalg, schubert
from lagsel.linalg import MAX_DIM, Subspace, contains, intersect
from lagsel.presymplectic import (
    Flag,
    SignatureVector,
    SkewForm,
    b_perp,
    is_isotropic,
    null_space,
    signature_vector,
    vergne_select,
)
from lagsel.sampling import random_flag, random_skew_form, random_subspace
from lagsel.schubert import (
    FiltrationTrace,
    JumpSet,
    cell_to_signature,
    filtration,
    jump_indices,
    selection_cell,
    signature_to_cell,
    verify_filtration_lemmas,
)
from oracles import new_directions

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
    """The definition: j jumps when p_j is outside W + V_{j-1}, by Fraction elimination."""
    columns = [flag.column(a) for a in range(flag.dim)]
    return tuple(t - w.dim + 1 for t in new_directions(list(w.basis) + columns) if t >= w.dim)


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
    # One call runs forward elimination on the m - dim W annihilator rows
    # once, and W = 0 or W = Q^m needs no elimination at all.
    heights = []
    reduce_rows = schubert._echelon_int_rows

    def counted(rows):
        heights.append(len(rows))
        return reduce_rows(rows)

    monkeypatch.setattr(schubert, "_echelon_int_rows", counted)
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


@pytest.fixture
def grams_and_sweeps(monkeypatch):
    """Counts of the Gram matrices built and the sweeps run, in a dict the test may reset."""
    from lagsel import presymplectic

    calls = {"gram": 0, "sweep": 0}
    gram, sweep = presymplectic._integer_gram, presymplectic._sweep

    def counted_gram(b, flag):
        calls["gram"] += 1
        return gram(b, flag)

    def counted_sweep(g):
        calls["sweep"] += 1
        return sweep(g)

    monkeypatch.setattr(presymplectic, "_integer_gram", counted_gram)
    monkeypatch.setattr(presymplectic, "_sweep", counted_sweep)
    return calls


def test_lemma_report_builds_one_gram_matrix_and_one_sweep(rational_flag, grams_and_sweeps):
    for form, flag in filtration_cases(rational_flag, 60, 41):
        grams_and_sweeps.update(gram=0, sweep=0)
        assert verify_filtration_lemmas(form, flag).ok
        assert grams_and_sweeps == {"gram": 1, "sweep": 1}


def test_every_reader_of_one_form_and_flag_shares_one_gram_matrix_and_one_sweep(rational_flag, grams_and_sweeps):
    # The verifier, the selection, the signature and the filtration of one
    # form along one flag, in that order, read one kept Gram matrix and sweep.
    rng = Random(53)
    for m in (3, 5, 7):
        form = random_skew_form(rng, m)
        flags = (Flag.standard(m), random_flag(rng, m), rational_flag(rng, m))
        assert len(set(flags)) == 3
        for flag in flags:
            grams_and_sweeps.update(gram=0, sweep=0)
            report = verify_filtration_lemmas(form, flag)
            selection, signature = vergne_select(form, flag), signature_vector(form, flag)
            trace = filtration(form, flag)
            assert grams_and_sweeps == {"gram": 1, "sweep": 1}, (m, flag)
            assert report.ok and trace.final == selection and len(signature.entries) == m


def test_a_filtration_only_query_builds_the_gram_matrix_and_runs_no_sweep(rational_flag, grams_and_sweeps):
    # The filtration reads the kept Gram matrix only; the sweep waits for the
    # first selection or signature query, and then runs once for both.
    for form, flag in filtration_cases(rational_flag, 60, 67):
        grams_and_sweeps.update(gram=0, sweep=0)
        trace = filtration(form, flag)
        assert grams_and_sweeps == {"gram": 1, "sweep": 0}
        selection, signature = vergne_select(form, flag), signature_vector(form, flag)
        assert grams_and_sweeps == {"gram": 1, "sweep": 1}
        assert trace.final == selection and len(signature.entries) == flag.dim


def test_lemma_report_catches_a_wrongly_keyed_sweep():
    # The verifier reads the record kept on the form, so a record kept under
    # the wrong flag fails a check instead of hiding behind a private sweep.
    from lagsel import presymplectic

    rng = Random(59)
    caught = 0
    for _ in range(40):
        m = rng.randint(3, 7)
        form, flag, other = random_skew_form(rng, m, zero_chance=0.2), random_flag(rng, m), random_flag(rng, m)
        if vergne_select(SkewForm(form.matrix), flag) == vergne_select(SkewForm(form.matrix), other):
            continue
        form._sweeps[flag] = presymplectic._swept(SkewForm(form.matrix), other)
        failed = {c.name for c in verify_filtration_lemmas(form, flag).failures()}
        assert "chain ends at the flag selection" in failed
        caught += 1
    assert caught >= 20


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

    original = presymplectic.vergne_select

    def dropped_row(b, flag=None):
        selection = original(b, flag)
        return Subspace(selection.ambient_dim, selection.basis[:-1], selection.pivots[:-1])

    # The verifier reads the selection that callers get.
    monkeypatch.setattr(schubert, "vergne_select", dropped_row)
    report = verify_filtration_lemmas(form, flag)
    failed = {c.name: c.witness for c in report.failures()}
    witness = failed["chain ends at the flag selection"]
    assert "final=" in witness and "B=[[" in witness
    assert all(c.witness == "" for c in report.checks if c.passed)


def test_lemma_report_work_budget(rational_flag, monkeypatch):
    # Per step: V_{i_k} and V_{j_k}, intersected with p^k; per chain member
    # after p^0: one relative radical, b_perp(p) ∩ p.  The relative radical
    # of p^0 = Q^m is N(B), which the report already has.  Nothing else
    # builds a flag step, a B-orthogonal complement or an intersection.
    from lagsel import presymplectic

    calls = {"subspace": 0, "b_perp": 0, "intersect": 0}
    subspace, original_b_perp, original_intersect = Flag.subspace, presymplectic.b_perp, linalg.intersect

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(Flag, "subspace", counted("subspace", subspace))
    for module in (presymplectic, schubert):
        monkeypatch.setattr(module, "b_perp", counted("b_perp", original_b_perp))
    for module in (linalg, schubert):
        monkeypatch.setattr(module, "intersect", counted("intersect", original_intersect))
    steps = 0
    for form, flag in filtration_cases(rational_flag, 240, 43):
        d = filtration(form, flag).d
        calls.update(subspace=0, b_perp=0, intersect=0)
        assert verify_filtration_lemmas(form, flag).ok
        if d:
            assert calls == {"subspace": 2 * d, "b_perp": d, "intersect": 3 * d}, (d, form.dim)
            steps += d
    assert steps > 200


def _ladder_check(report):
    return next(c for c in report.checks if c.name == "selection/flag dimension ladder")


def test_dimension_ladder_catches_jump_indices_mutations(monkeypatch):
    # Three wrong jump sets: the flag columns not applied, the first jump
    # dropped, and a subspace of dimension m - 1 taken as the whole space.
    # The ladder fails exactly where dim(selection ∩ V_j), by intersection,
    # disagrees with the mutated jump set, and never on the correct one.
    original = schubert.jump_indices
    mutations = {
        "flag not applied": lambda w, flag: original(w, Flag.standard(flag.dim)),
        "first jump dropped": lambda w, flag: JumpSet(flag.dim, original(w, flag).indices[1:]),
        "dim m - 1 taken as full": lambda w, flag: original(
            Subspace.full(w.ambient_dim) if w.dim == w.ambient_dim - 1 else w, flag
        ),
    }
    rng = Random(0)
    pairs = []
    for _ in range(300):
        m = rng.randint(2, 7)
        form, flag = random_skew_form(rng, m), random_flag(rng, m)
        assert _ladder_check(verify_filtration_lemmas(form, flag)).passed
        selection = vergne_select(form, flag)
        dims = [intersect(selection, flag.subspace(j)).dim for j in range(m + 1)]
        pairs.append((form, flag, selection, dims))
    caught = {}
    for name, mutation in mutations.items():
        caught[name] = 0
        for form, flag, selection, dims in pairs:
            comp = mutation(selection, flag).complement()
            wrong = any(dims[j] != bisect_right(comp, j) for j in range(flag.dim + 1))
            monkeypatch.setattr(schubert, "jump_indices", mutation)
            check = _ladder_check(verify_filtration_lemmas(form, flag))
            monkeypatch.setattr(schubert, "jump_indices", original)
            assert check.passed != wrong, (name, check.witness)
            caught[name] += wrong
    # The counts of the intersection ladder this replaced, on these pairs.
    floors = {"flag not applied": 265, "first jump dropped": 276, "dim m - 1 taken as full": 86}
    assert all(caught[name] >= floor for name, floor in floors.items()), caught


def test_signature_to_cell_matches_the_jump_set_of_the_selection(rational_flag):
    # The down steps of the signature vector against one elimination in the
    # quotient, on standard, scrambled and rational flags and four form
    # densities.
    assert signature_to_cell(SignatureVector(0, ())) == JumpSet(0, ())
    codims = set()
    for form, flag in filtration_cases(rational_flag, 600, 61):
        cell = signature_to_cell(signature_vector(form, flag))
        assert cell == jump_indices(vergne_select(form, flag), flag)
        assert cell_to_signature(cell) == signature_vector(form, flag)
        codims.add(len(cell))
    assert codims == set(range(6))


def test_selection_cell_runs_no_elimination(rational_flag, monkeypatch):
    from lagsel import presymplectic

    cases = list(filtration_cases(rational_flag, 240, 67))
    calls = []
    # Both elimination names, wherever a module binds them; linalg defines both.
    for module in (linalg, presymplectic, schubert):
        for name in ("_rref_int_rows", "_echelon_int_rows"):
            if module is linalg or hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda rows, f=original: calls.append(1) or f(rows))
    cells = [selection_cell(form, flag) for form, flag in cases]
    assert calls == []
    monkeypatch.undo()
    assert cells == [jump_indices(vergne_select(form, flag), flag) for form, flag in cases]


def test_lemma_report_catches_a_repeated_i_index(monkeypatch):
    # A trace whose last i-index repeats the one before it still has every
    # i below its j, so only the strict increase can fail it.
    original = schubert.filtration

    def repeated_index(b, flag=None):
        trace = original(b, flag)
        return FiltrationTrace(trace.chain, (*trace.i_seq[:-1], trace.i_seq[-2]), trace.j_seq)

    rng = Random(71)
    caught = 0
    for _ in range(60):
        m = rng.randint(4, 8)
        form, flag = random_skew_form(rng, m, zero_chance=0.2), random_flag(rng, m)
        if filtration(form, flag).d < 2:
            continue
        assert verify_filtration_lemmas(form, flag).ok
        monkeypatch.setattr(schubert, "filtration", repeated_index)
        failed = {c.name for c in verify_filtration_lemmas(form, flag).failures()}
        monkeypatch.setattr(schubert, "filtration", original)
        assert "i-sequence strictly increasing, below j-sequence" in failed
        caught += 1
    assert caught >= 30
