"""Lie algebras, Vergne polarizations, Casimirs, and coadjoint orbits."""

import gc
import re
import weakref
from fractions import Fraction
from random import Random

import pytest

from lagsel import lie
from lagsel.lie import (
    Functional,
    JacobiError,
    LieAlgebra,
    builtin,
    casimir_gradient,
    casimir_invariance_check,
    casimir_value,
    coadjoint_form,
    isotropy_subalgebra,
    orbit_point,
    stratum,
    vergne_polarization,
    verify_jordan_holder,
)
from lagsel.linalg import MAX_DIM, Matrix, Subspace
from lagsel.presymplectic import Flag, SkewForm
from lagsel.sampling import random_flag, random_functional_coeffs, random_rational


def span(m, *vectors):
    return Subspace.from_vectors(m, list(vectors))


def e(m, i):
    return [1 if t == i - 1 else 0 for t in range(m)]


def test_abelian_algebra_loads():
    algebra = LieAlgebra(4, {})
    assert algebra.dim == 4
    assert algebra.bracket(e(4, 1), e(4, 2)) == tuple(Fraction(0) for _ in range(4))


def test_heisenberg_loads():
    algebra = LieAlgebra(3, {(2, 3): [1, 0, 0]})
    assert algebra.bracket(e(3, 2), e(3, 3)) == (1, 0, 0)
    assert algebra.bracket(e(3, 3), e(3, 2)) == (-1, 0, 0)


def test_jacobi_violation_rejected_with_triple():
    # [X1,X2]=X3, [X1,X3]=X1 leaves a X3 residue on the triple (1,2,3).
    with pytest.raises(JacobiError, match="X1, X2, X3"):
        LieAlgebra(3, {(1, 2): [0, 0, 1], (1, 3): [1, 0, 0]})


def test_bracket_key_validation():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(2, 2): [1, 0, 0]})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 2): [1, 0]})


def test_dimension_cap():
    assert LieAlgebra(MAX_DIM, {}).dim == MAX_DIM
    with pytest.raises(ValueError, match="exceeds the limit"):
        LieAlgebra(MAX_DIM + 1, {})


def test_heisenberg_cap_is_checked_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("algebra built past the dimension cap")

    monkeypatch.setattr(lie, "LieAlgebra", build)
    with pytest.raises(ValueError, match="dimension 2001 exceeds the limit"):
        builtin("heisenberg:1000")


def test_only_axb_takes_a_matrix_and_a_refused_one_caches_nothing():
    builtin("g54")
    cached = builtin.cache_info().currsize
    for kind in ("g54", "g615", "heisenberg", "heisenberg:2"):
        with pytest.raises(ValueError, match="only axb takes an action matrix"):
            builtin(kind, Matrix([[1]]))
    assert builtin.cache_info().currsize == cached
    with pytest.raises(ValueError, match="axb requires the action matrix"):
        builtin("axb")


def test_jordan_holder_abelian_any_flag():
    algebra = LieAlgebra(3, {})
    rng = Random(1)
    assert verify_jordan_holder(algebra, random_flag(rng, 3))


def test_jordan_holder_g54_standard_flag():
    assert verify_jordan_holder(builtin("g54").algebra, Flag.standard(5))


def test_jordan_holder_fails_center_last():
    algebra = LieAlgebra(3, {(2, 3): [1, 0, 0]})
    center_last = Flag(Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert not verify_jordan_holder(algebra, center_last)


def test_coadjoint_form_of_zero_functional():
    assert coadjoint_form(builtin("g54").algebra, Functional.of([0] * 5)) == SkewForm.zero(5)


def test_coadjoint_form_g54_dual_of_x1():
    form = coadjoint_form(builtin("g54").algebra, Functional.of(e(5, 1)))
    expected = {(3, 2): Fraction(1), (2, 3): Fraction(-1)}
    for i in range(5):
        for j in range(5):
            assert form.matrix.entry(i, j) == expected.get((i, j), 0)


def test_coadjoint_form_g615_dual_of_x2():
    form = coadjoint_form(builtin("g615").algebra, Functional.of(e(6, 2)))
    assert form.matrix.entry(4, 3) == 1
    assert form.matrix.entry(3, 4) == -1
    assert sum(1 for i in range(6) for j in range(6) if form.matrix.entry(i, j)) == 2


def test_one_functional_gets_each_algebras_own_form():
    # g54 and a 5-dimensional axb algebra share one functional object; each
    # must see its own coadjoint form, as a fresh functional would.
    rng = Random(71)
    algebras = [builtin("g54"), builtin("axb", Matrix([[1, 2, 0, 1], [0, 1, 0, 0], [0, 0, 3, 1], [0, 0, 0, 1]]))]
    for _ in range(20):
        coeffs = random_functional_coeffs(rng, 5)
        xi = Functional.of(coeffs)
        for built in algebras + algebras:
            fresh = Functional.of(coeffs)
            assert coadjoint_form(built.algebra, xi) == coadjoint_form(built.algebra, fresh)
            assert vergne_polarization(built.algebra, built.flag, xi) == vergne_polarization(
                built.algebra, built.flag, fresh
            )
            assert stratum(built.algebra, built.flag, xi) == stratum(built.algebra, built.flag, fresh)
        assert coadjoint_form(algebras[0].algebra, xi) != coadjoint_form(algebras[1].algebra, xi)


def test_kept_coadjoint_form_dies_with_its_functional():
    xi = Functional.of([1, 2, 3, 4, 5])
    form = weakref.ref(coadjoint_form(builtin("g54").algebra, xi))
    assert form() is not None
    del xi
    gc.collect()
    assert form() is None


def test_check_sample_builds_one_form_and_runs_one_sweep_per_functional(monkeypatch, forms_and_sweeps):
    # The polarization, isotropy and stratum checks of one functional share
    # one coadjoint form and one sweep.
    from lagsel import suites

    counts = forms_and_sweeps
    per_sample = []
    check_sample = suites._check_sample

    def counted_check(report, built, xi, label):
        counts.update(forms=0, sweeps=0)
        check_sample(report, built, xi, label)
        per_sample.append((built.kind.split(":")[0], counts["forms"], counts["sweeps"]))

    monkeypatch.setattr(suites, "_check_sample", counted_check)
    assert suites.run_suite("example-oracles", seed=0, trials=4).ok
    assert {kind for kind, _, _ in per_sample} == {"g54", "g615", "axb", "heisenberg"}
    assert {(forms, sweeps) for _, forms, sweeps in per_sample} == {(1, 1)}


def _g54_isotropic_non_subalgebra(form, flag=None):
    # On g54, B(X5, a X4 + b X3) = a x3 + b x2 (entries (5, 4) and (5, 3) of
    # the form), so a = x2, b = -x3 make span(X5, a X4 + b X3) isotropic,
    # while the bracket a X3 + b X2 leaves the span.
    x3, x2 = form.matrix.entry(4, 3), form.matrix.entry(4, 2)
    a, b = (x2, -x3) if x2 or x3 else (1, 0)
    return span(5, e(5, 5), [0, 0, b, a, 0])


def _g54_non_subalgebra_radical(form):
    # span(X4, X5) is not a subalgebra: [X5, X4] = X3.
    return span(5, e(5, 4), e(5, 5))


@pytest.mark.parametrize(
    "name, stub, failing",
    [
        ("vergne_select", _g54_isotropic_non_subalgebra, "polarization is a subalgebra"),
        ("vergne_select", lambda form, flag=None: Subspace.full(form.dim), "polarization is subordinate to xi"),
        ("null_space", _g54_non_subalgebra_radical, "isotropy is a subalgebra"),
    ],
    ids=["polarization-subalgebra", "polarization-subordinate", "isotropy-subalgebra"],
)
def test_each_theorem_check_of_example_oracles_catches_its_bug(monkeypatch, capsys, name, stub, failing):
    # The stub replaces the library's answer on g54 only (the one
    # 5-dimensional algebra at one trial). The named check fails, and so does
    # the oracle comparison of the same wrong answer; no other check does.
    from lagsel import cli, suites

    original = getattr(lie, name)
    monkeypatch.setattr(lie, name, lambda form, *rest: (stub if form.dim == 5 else original)(form, *rest))
    report = suites.run_suite("example-oracles", trials=1)
    failed = {re.search(r": (.*) fails at xi=", line).group(1) for line in report.failures}
    assert failed == {failing, failing.split()[0] + " matches the oracle"}
    assert all(line.startswith("g54 region ") for line in report.failures)
    assert cli.main(["verify", "example-oracles", "--trials", "1"]) == 2
    assert failing in capsys.readouterr().out


def test_isotropy_of_zero_functional_is_everything():
    built = builtin("g615")
    assert isotropy_subalgebra(built.algebra, Functional.of([0] * 6)) == Subspace.full(6)


def test_isotropy_matches_oracles_on_random_functionals():
    rng = Random(5)
    for kind in ("g54", "g615"):
        built = builtin(kind)
        for _ in range(40):
            xi = Functional.of(random_functional_coeffs(rng, built.dim))
            assert isotropy_subalgebra(built.algebra, xi) == built.isotropy_oracle(xi)


def test_vergne_polarization_g54_examples():
    built = builtin("g54")
    pol = vergne_polarization(built.algebra, built.flag, Functional.of([1, 0, 0, 0, 0]))
    assert pol == span(5, e(5, 1), e(5, 2), e(5, 3), e(5, 5))
    pol = vergne_polarization(built.algebra, built.flag, Functional.of([0, 1, 0, 0, 0]))
    assert pol == span(5, e(5, 1), e(5, 2), e(5, 3), e(5, 4))


def test_vergne_polarization_axb_hyperplane():
    built = builtin("axb", Matrix.identity(2))
    pol = vergne_polarization(built.algebra, built.flag, Functional.of([1, 0, 0]))
    assert pol == span(3, e(3, 1), e(3, 2))


def test_vergne_polarization_rejects_non_jh_flag():
    heis = LieAlgebra(3, {(2, 3): [1, 0, 0]})
    center_last = Flag(Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError):
        vergne_polarization(heis, center_last, Functional.of([1, 0, 0]))


def test_stratum_tables_g54():
    built = builtin("g54")
    rng = Random(7)
    regions = [
        ((1, 2, 3, 2, 3), dict(nonzero_at=(1,))),
        ((1, 2, 3, 4, 3), dict(zero_at=(1,), nonzero_at=(2,))),
        ((1, 2, 3, 4, 3), dict(zero_at=(1, 2), nonzero_at=(3,))),
        ((1, 2, 3, 4, 5), dict(zero_at=(1, 2, 3))),
    ]
    for expected, pins in regions:
        for _ in range(20):
            xi = Functional.of(random_functional_coeffs(rng, 5, **pins))
            assert stratum(built.algebra, built.flag, xi).entries == expected


def test_stratum_tables_g615():
    built = builtin("g615")
    rng = Random(8)
    regions = [
        ((1, 2, 3, 4, 3, 4), dict(nonzero_at=(2,))),
        ((1, 2, 3, 4, 5, 4), dict(zero_at=(2,), nonzero_at=(1,))),
        ((1, 2, 3, 4, 5, 4), dict(zero_at=(1, 2), nonzero_at=(3,))),
        ((1, 2, 3, 4, 5, 6), dict(zero_at=(1, 2, 3))),
    ]
    for expected, pins in regions:
        for _ in range(20):
            xi = Functional.of(random_functional_coeffs(rng, 6, **pins))
            assert stratum(built.algebra, built.flag, xi).entries == expected


def test_builtin_g615_center_is_derived_algebra():
    algebra = builtin("g615").algebra
    derived = algebra.derived_algebra()
    assert derived == span(6, e(6, 1), e(6, 2), e(6, 3))


def test_builtin_axb_requires_flag_preserving_action():
    with pytest.raises(ValueError, match="Jordan"):
        builtin("axb", Matrix([[0, 0], [1, 0]]))


def test_builtin_axb_bracket_convention():
    built = builtin("axb", Matrix([[2, 1], [0, 3]]))
    algebra = built.algebra
    # [X3, X1] = 2 X1, [X3, X2] = X1 + 3 X2.
    assert algebra.bracket(e(3, 3), e(3, 1)) == (2, 0, 0)
    assert algebra.bracket(e(3, 3), e(3, 2)) == (1, 3, 0)


def test_builtin_heisenberg_matches_loaded_form():
    built = builtin("heisenberg:1")
    assert built.algebra.bracket(e(3, 2), e(3, 3)) == (1, 0, 0)
    assert verify_jordan_holder(built.algebra, built.flag)


def test_builtin_unknown_kind():
    with pytest.raises(ValueError):
        builtin("so3")


def test_builtin_cache_stays_bounded():
    # Every axb action matrix is a new cache key.
    for k in range(100):
        builtin("axb", Matrix([[k + 1]]))
    info = builtin.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_jordan_holder_cache_is_bounded_like_builtin():
    # Each verify_jordan_holder key holds an algebra, often a fresh axb one.
    assert verify_jordan_holder.cache_info().maxsize == builtin.cache_info().maxsize


def test_casimir_values():
    assert casimir_value("g54", Functional.of([1, 0, 0, 0, 1])) == 2
    assert casimir_value("g54", Functional.of([0, 0, 0, 0, 0])) == 0
    assert casimir_value("g615", Functional.of([0, 1, 0, 0, 0, 1])) == 1


def test_casimir_unsupported_kind():
    with pytest.raises(ValueError):
        casimir_value("heisenberg:1", Functional.of([1, 0, 0]))


def test_casimir_gradient_spot_check():
    grad = casimir_gradient("g54", Functional.of([1, 0, 0, 0, 0]))
    assert grad == (0, 0, 0, 0, 2)  # 2 X5


def test_casimir_invariance_spot_and_random():
    assert casimir_invariance_check("g54", Functional.of([1, 0, 0, 0, 0]))
    rng = Random(12)
    for kind, m in (("g54", 5), ("g615", 6)):
        for _ in range(50):
            xi = Functional.of(random_functional_coeffs(rng, m))
            assert casimir_invariance_check(kind, xi)


def test_orbit_point_recovers_base_point():
    xi = Functional.of([1, 0, 0, 0, 0])
    assert orbit_point("g54", xi, [0, 0]) == xi


def test_orbit_point_g54_derived_example():
    point = orbit_point("g54", Functional.of([1, 0, 0, 0, 0]), [2, 0])
    assert point.coeffs == (1, 0, 2, 0, -2)


def test_orbit_point_g615_derived_example():
    point = orbit_point("g615", Functional.of([0, 1, 0, 0, 0, 0]), [1, 1])
    assert point.coeffs == (0, 1, 0, 1, 1, 0)


def test_orbit_point_arity_checked():
    with pytest.raises(ValueError):
        orbit_point("g54", Functional.of([1, 0, 0, 0, 0]), [1])
    with pytest.raises(ValueError):
        orbit_point("g54", Functional.of([0, 0, 0, 1, 2]), [1, 2])


def test_orbit_point_preserves_casimir_and_stratum():
    rng = Random(21)
    branch_pins = {
        "g54": [dict(nonzero_at=(1,)), dict(zero_at=(1,), nonzero_at=(2,)), dict(zero_at=(1, 2), nonzero_at=(3,)), dict(zero_at=(1, 2, 3))],
        "g615": [dict(nonzero_at=(2,)), dict(zero_at=(2,), nonzero_at=(1,)), dict(zero_at=(1, 2), nonzero_at=(3,)), dict(zero_at=(1, 2, 3))],
    }
    for kind in ("g54", "g615"):
        built = builtin(kind)
        for branch, pins in enumerate(branch_pins[kind]):
            arity = 0 if branch == 3 else 2
            for _ in range(10):
                xi = Functional.of(random_functional_coeffs(rng, built.dim, **pins))
                point = orbit_point(kind, xi, [random_rational(rng) for _ in range(arity)])
                assert casimir_value(kind, point) == casimir_value(kind, xi)
                assert stratum(built.algebra, built.flag, point) == stratum(built.algebra, built.flag, xi)


def test_polarization_contract_on_builtins():
    rng = Random(31)
    cases = [builtin("g54"), builtin("g615"), builtin("heisenberg:2"), builtin("axb", Matrix([[1, "1/2"], [0, -1]]))]
    for built in cases:
        algebra, flag = built.algebra, built.flag
        for _ in range(15):
            xi = Functional.of(random_functional_coeffs(rng, built.dim))
            pol = vergne_polarization(algebra, flag, xi)
            iso = isotropy_subalgebra(algebra, xi)
            assert pol == built.polarization_oracle(xi)
            assert pol.contains(iso)
            assert 2 * pol.dim == built.dim + iso.dim
            # Subalgebra and subordination, re-stated here; subordination
            # through the bracket, not the coadjoint form.
            assert algebra.is_subalgebra(pol)
            for a in range(pol.dim):
                for b in range(pol.dim):
                    assert xi(algebra.bracket(pol.basis[a], pol.basis[b])) == 0


def test_axb_stratum_shape():
    rng = Random(41)
    built = builtin("axb", Matrix([[1, 1, 0], [0, 2, 1], [0, 0, 3]]))
    for _ in range(15):
        xi = Functional.of(random_functional_coeffs(rng, 4))
        sig = stratum(built.algebra, built.flag, xi).entries
        assert sig[:3] == (1, 2, 3)
        assert sig[3] in (2, 4)
