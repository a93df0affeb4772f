"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 1-7 are exact (zero tolerance); criterion 8 uses the
float gap metric at 1e-9; criterion 9 bounds the wall-clock of the whole
module.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from lagsel.lie import Functional, builtin, isotropy_subalgebra, stratum, vergne_polarization
from lagsel.linalg import Matrix
from lagsel.probe import functional_path_probe
from lagsel.sampling import random_functional_coeffs, random_rational
from lagsel.suites import (
    PROBE_PRESETS,
    preset_samples,
    run_casimir,
    run_filtration_lemmas,
    run_lagrangian_contract,
    run_projector_sum,
)

SEED = 20240817
_MODULE_T0 = time.perf_counter()


def note(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_closed_form_polarizations():
    """200 random functionals per region reproduce the closed forms exactly."""
    t0 = time.perf_counter()
    rng = Random(SEED)
    per_region = 200
    checked = 0

    g54 = builtin("g54")
    g54_regions = [
        dict(nonzero_at=(1,)),                 # generic branch
        dict(zero_at=(1,), nonzero_at=(2,)),   # hyperplane branch
        dict(zero_at=(1, 2), nonzero_at=(3,)),
        dict(zero_at=(1, 2, 3)),               # coadjoint form vanishes
    ]
    for pins in g54_regions:
        for _ in range(per_region):
            xi = Functional.of(random_functional_coeffs(rng, 5, **pins))
            assert vergne_polarization(g54.algebra, g54.flag, xi) == g54.polarization_oracle(xi)
            checked += 1

    g615 = builtin("g615")
    g615_regions = [
        dict(nonzero_at=(2,)),
        dict(zero_at=(2,), nonzero_at=(1,)),
        dict(zero_at=(1, 2), nonzero_at=(3,)),
        dict(zero_at=(1, 2, 3)),
    ]
    for pins in g615_regions:
        for _ in range(per_region):
            xi = Functional.of(random_functional_coeffs(rng, 6, **pins))
            assert vergne_polarization(g615.algebra, g615.flag, xi) == g615.polarization_oracle(xi)
            checked += 1

    matrices = [
        Matrix.identity(2),
        Matrix([[1, "1/2"], [0, -1]]),
        Matrix([[2, 1, 0], [0, 1, 3], [0, 0, "1/3"]]),
    ]
    for action in matrices:
        axb = builtin("axb", action)
        derived = axb.algebra.derived_algebra()
        for _ in range(per_region):
            # One sample off the annihilator of [g, g], one on it.
            while True:
                xi = Functional.of(random_functional_coeffs(rng, axb.dim))
                if not xi.is_zero_on(derived):
                    break
            assert vergne_polarization(axb.algebra, axb.flag, xi) == axb.polarization_oracle(xi)
            combo = [Fraction(0)] * axb.dim
            from lagsel.linalg import kernel

            for row in kernel(Matrix(derived.basis)).basis:
                c = random_rational(rng)
                for t in range(axb.dim):
                    combo[t] += c * row[t]
            xi_perp = Functional.of(combo)
            assert vergne_polarization(axb.algebra, axb.flag, xi_perp) == axb.polarization_oracle(xi_perp)
            checked += 2

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s, budget 5s"
    note(f"PASS criterion 1: {checked} closed-form polarization equalities, exact ({elapsed:.1f}s)")


def test_criterion_2_stratum_tables():
    """All six nonempty strata of the two nilpotent examples, exact."""
    t0 = time.perf_counter()
    rng = Random(SEED + 1)
    per_region = 100
    tables = {
        "g54": [
            ((1, 2, 3, 2, 3), [dict(nonzero_at=(1,))]),
            ((1, 2, 3, 4, 3), [dict(zero_at=(1,), nonzero_at=(2,)), dict(zero_at=(1, 2), nonzero_at=(3,))]),
            ((1, 2, 3, 4, 5), [dict(zero_at=(1, 2, 3))]),
        ],
        "g615": [
            ((1, 2, 3, 4, 3, 4), [dict(nonzero_at=(2,))]),
            ((1, 2, 3, 4, 5, 4), [dict(zero_at=(2,), nonzero_at=(1,)), dict(zero_at=(1, 2), nonzero_at=(3,))]),
            ((1, 2, 3, 4, 5, 6), [dict(zero_at=(1, 2, 3))]),
        ],
    }
    checked = 0
    for kind, rows in tables.items():
        built = builtin(kind)
        for expected, region_pins in rows:
            for pins in region_pins:
                for _ in range(per_region):
                    xi = Functional.of(random_functional_coeffs(rng, built.dim, **pins))
                    assert stratum(built.algebra, built.flag, xi).entries == expected
                    checked += 1
    elapsed = time.perf_counter() - t0
    note(f"PASS criterion 2: {checked} stratum classifications across 6 tables, exact ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def filtration_report():
    t0 = time.perf_counter()
    report = run_filtration_lemmas(seed=SEED + 2, trials=1000)
    report.elapsed = time.perf_counter() - t0
    return report


def test_criterion_3_filtration_theorem_suite(filtration_report):
    """1000 random forms with m in 2..7, random flags, every check green."""
    report = filtration_report
    assert report.ok, report.failures[:5]
    assert report.elapsed < 60.0, f"criterion 3 took {report.elapsed:.1f}s, budget 60s"
    note(
        f"PASS criterion 3: {report.trials} filtration traces, {report.checks} lemma checks, "
        f"0 failures ({report.elapsed:.1f}s)"
    )


def test_criterion_4_lagrangian_contract(filtration_report):
    """Selection contract over the same corpus as criterion 3 (same seed)."""
    t0 = time.perf_counter()
    # run_lagrangian_contract draws (m, form, flag) in the same order from the
    # same seed, so this is criterion 3's corpus.
    report = run_lagrangian_contract(seed=SEED + 2, trials=1000)
    assert report.ok, report.failures[:5]
    elapsed = time.perf_counter() - t0
    note(
        f"PASS criterion 4: isotropy, Lagrangian dimension, and radical containment "
        f"on {report.trials} selections, exact ({elapsed:.1f}s)"
    )


def test_criterion_5_lie_contract():
    """Polarizations are subordinate subalgebras; isotropy matches the oracles."""
    t0 = time.perf_counter()
    rng = Random(SEED + 3)
    checked = 0
    for kind in ("g54", "g615"):
        built = builtin(kind)
        for _ in range(200):
            xi = Functional.of(random_functional_coeffs(rng, built.dim))
            # Subalgebra and subordination, re-checked here; subordination
            # through the bracket, not the coadjoint form.
            pol = vergne_polarization(built.algebra, built.flag, xi)
            assert built.algebra.is_subalgebra(pol)
            for a in range(pol.dim):
                for b in range(pol.dim):
                    assert xi(built.algebra.bracket(pol.basis[a], pol.basis[b])) == 0
            assert isotropy_subalgebra(built.algebra, xi) == built.isotropy_oracle(xi)
            checked += 1
    elapsed = time.perf_counter() - t0
    note(f"PASS criterion 5: subalgebra + subordination + isotropy oracles on {checked} samples ({elapsed:.1f}s)")


def test_criterion_6_casimir_invariance():
    """500 invariance checks per algebra; orbit points preserve everything."""
    t0 = time.perf_counter()
    report = run_casimir(seed=SEED + 4, trials=500)
    assert report.ok, report.failures[:5]
    elapsed = time.perf_counter() - t0
    note(
        f"PASS criterion 6: Casimir invariance x500 per algebra and all orbit branches, "
        f"exact ({elapsed:.1f}s)"
    )


def test_criterion_7_projector_sum_property():
    """Range of summed projectors equals the subspace sum, 500 tuples in Q^5."""
    t0 = time.perf_counter()
    report = run_projector_sum(seed=SEED + 5, trials=500)
    assert report.ok, report.failures[:5]
    elapsed = time.perf_counter() - t0
    note(f"PASS criterion 7: projector-sum range law on {report.trials} tuples, exact ({elapsed:.1f}s)")


def test_criterion_8_gap_witnesses():
    """Discontinuity gaps pin at 1.0; in-stratum gaps follow |t|/sqrt(1+t^2)."""
    t0 = time.perf_counter()
    samples = preset_samples(20)

    for preset in ("g54-discontinuity", "g615-discontinuity"):
        kind, base, direction = PROBE_PRESETS[preset]
        built = builtin(kind)
        report = functional_path_probe(built.algebra, built.flag, base, direction, samples, Fraction(0))
        for s in report.samples:
            assert abs(s.gap - 1.0) <= 1e-9, f"{preset}: gap {s.gap} at t={s.t}"
        assert report.verdict == "bounded-away evidence"

    kind, base, direction = PROBE_PRESETS["g54-instratum"]
    built = builtin(kind)
    report = functional_path_probe(built.algebra, built.flag, base, direction, samples, Fraction(0))
    for s in report.samples:
        t = float(s.t)
        assert abs(s.gap - t / math.sqrt(1.0 + t * t)) <= 1e-9
    assert report.verdict == "gap->0 evidence"

    elapsed = time.perf_counter() - t0
    note(f"PASS criterion 8: 40 discontinuity witnesses at gap=1.0 and 20 in-stratum gaps at 1e-9 ({elapsed:.1f}s)")


def test_criterion_9_desk_scale():
    """The whole acceptance module stays under two minutes."""
    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 120.0, f"acceptance suite took {elapsed:.1f}s, budget 120s"
    note(f"PASS criterion 9: acceptance suite wall-clock {elapsed:.1f}s < 120s")
