"""Reproducible verification suites.

Each suite re-checks a family of exact statements on seeded random inputs
and returns a report; a non-empty failure list means a bug, never new
mathematics.  The CLI ``verify`` subcommand drives these, and the acceptance
tests run them at the mandated trial counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .lie import (
    BuiltinAlgebra,
    Functional,
    builtin,
    casimir_invariance_check,
    casimir_value,
    coadjoint_form,
    isotropy_subalgebra,
    orbit_point,
    stratum,
    vergne_polarization,
)
from .linalg import Matrix, Subspace, kernel
from .presymplectic import is_isotropic, null_space, vergne_select
from .probe import projector_sum_range_check
from .sampling import (
    random_flag,
    random_functional_coeffs,
    random_rational,
    random_skew_form,
    random_subspace,
)
from .schubert import verify_filtration_lemmas


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "checks": self.checks,
            "ok": self.ok,
            "failures": self.failures,
        }

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{status} {self.suite}: {self.checks} checks, {len(self.failures)} failures (seed={self.seed})"


def run_filtration_lemmas(seed: int = 0, trials: int = 1000) -> SuiteReport:
    """Random forms and flags through every filtration check."""
    report = SuiteReport("filtration-lemmas", seed, trials)
    rng = Random(seed)
    for n in range(trials):
        m = rng.randint(2, 7)
        b = random_skew_form(rng, m)
        flag = random_flag(rng, m)
        lemma_report = verify_filtration_lemmas(b, flag)
        report.checks += len(lemma_report.checks)
        for failure in lemma_report.failures():
            report.failures.append(f"trial {n} (m={m}): {failure.name}: {failure.witness}")
    return report


def run_lagrangian_contract(seed: int = 0, trials: int = 1000) -> SuiteReport:
    """The selection is isotropic, has Lagrangian dimension, and contains N(B)."""
    report = SuiteReport("lagrangian-contract", seed, trials)
    rng = Random(seed)
    for n in range(trials):
        m = rng.randint(2, 7)
        b = random_skew_form(rng, m)
        flag = random_flag(rng, m)
        selection = vergne_select(b, flag)
        radical = null_space(b)
        report.checks += 3
        if not is_isotropic(b, selection):
            report.failures.append(f"trial {n}: selection not isotropic")
        if 2 * selection.dim != m + radical.dim:
            report.failures.append(
                f"trial {n}: selection dim {selection.dim} != ({m} + {radical.dim})/2"
            )
        if not selection.contains(radical):
            report.failures.append(f"trial {n}: selection does not contain the radical")
    return report


def _check_sample(
    report: SuiteReport,
    built: BuiltinAlgebra,
    xi: Functional,
    label: str,
) -> None:
    algebra = built.algebra
    pol = vergne_polarization(algebra, built.flag, xi)
    iso = isotropy_subalgebra(algebra, xi)
    # Theorems the queries do not re-check (Vergne, 1970): the polarization is a
    # subalgebra subordinate to xi (isotropic under B_xi), the radical a subalgebra.
    checks = [
        ("polarization matches the oracle", pol == built.polarization_oracle(xi)),
        ("polarization is a subalgebra", algebra.is_subalgebra(pol)),
        ("polarization is subordinate to xi", is_isotropic(coadjoint_form(algebra, xi), pol)),
        ("isotropy is a subalgebra", algebra.is_subalgebra(iso)),
    ]
    if built.isotropy_oracle is not None:
        checks.append(("isotropy matches the oracle", iso == built.isotropy_oracle(xi)))
    if built.stratum_oracle is not None:
        checks.append(("stratum matches the oracle", stratum(algebra, built.flag, xi) == built.stratum_oracle(xi)))
    report.checks += len(checks)
    for name, passed in checks:
        if not passed:
            report.failures.append(f"{built.kind} {label}: {name} fails at xi={[str(c) for c in xi.coeffs]}")


# The four regions of g54's and g615's duals that the closed-form oracles and
# the orbit parametrization split on: (label, pins for
# random_functional_coeffs, number of orbit parameters).
_REGIONS = {
    "g54": (
        ("x1!=0", {"nonzero_at": (1,)}, 2),
        ("x1=0,x2!=0", {"zero_at": (1,), "nonzero_at": (2,)}, 2),
        ("x1=x2=0,x3!=0", {"zero_at": (1, 2), "nonzero_at": (3,)}, 2),
        ("x1=x2=x3=0", {"zero_at": (1, 2, 3)}, 0),
    ),
    "g615": (
        ("x2!=0", {"nonzero_at": (2,)}, 2),
        ("x2=0,x1!=0", {"zero_at": (2,), "nonzero_at": (1,)}, 2),
        ("x1=x2=0,x3!=0", {"zero_at": (1, 2), "nonzero_at": (3,)}, 2),
        ("x1=x2=x3=0", {"zero_at": (1, 2, 3)}, 0),
    ),
}


def _random_upper_triangular(rng: Random, n: int) -> Matrix:
    return Matrix(
        [
            [random_rational(rng, 3, 3) if i <= j else 0 for j in range(n)]
            for i in range(n)
        ]
    )


def _axb_region_samples(rng: Random, built: BuiltinAlgebra, per_region: int):
    derived = built.algebra.derived_algebra()
    m = built.dim
    for _ in range(per_region):
        if not derived.is_zero():
            for _ in range(200):
                coeffs = random_functional_coeffs(rng, m)
                xi = Functional.of(coeffs)
                if not xi.is_zero_on(derived):
                    yield "region pairing nonzero", xi
                    break
        # A random functional annihilating the derived algebra.
        ann = kernel(derived.rows) if not derived.is_zero() else Subspace.full(m)
        combo = [Fraction(0)] * m
        for row in ann.basis:
            c = random_rational(rng, 3, 3)
            for t in range(m):
                combo[t] += c * row[t]
        yield "region pairing zero", Functional.of(combo)


def run_example_oracles(seed: int = 0, trials: int = 200) -> SuiteReport:
    """Closed-form oracles vs the generic machinery (``trials`` per region)."""
    report = SuiteReport("example-oracles", seed, trials)
    rng = Random(seed)

    for kind, regions in _REGIONS.items():
        built = builtin(kind)
        for _ in range(trials):
            for label, pins, _arity in regions:
                coeffs = random_functional_coeffs(rng, built.dim, **pins)
                _check_sample(report, built, Functional.of(coeffs), f"region {label}")

    for n_idx in range(trials):
        n = 1 + n_idx % 4
        axb = builtin("axb", _random_upper_triangular(rng, n))
        for label, xi in _axb_region_samples(rng, axb, 1):
            _check_sample(report, axb, xi, f"A {n}x{n} {label}")

    for n_idx in range(trials):
        n = 1 + n_idx % 3
        heis = builtin(f"heisenberg:{n}")
        center_on = random_functional_coeffs(rng, heis.dim, nonzero_at=(1,))
        center_off = random_functional_coeffs(rng, heis.dim, zero_at=(1,))
        _check_sample(report, heis, Functional.of(center_on), "center pairing nonzero")
        _check_sample(report, heis, Functional.of(center_off), "center pairing zero")

    return report


def run_casimir(seed: int = 0, trials: int = 500) -> SuiteReport:
    """Casimir invariance plus orbit-parametrization consistency per branch."""
    report = SuiteReport("casimir", seed, trials)
    rng = Random(seed)
    for kind, regions in _REGIONS.items():
        built = builtin(kind)
        m = built.dim
        for n in range(trials):
            xi = Functional.of(random_functional_coeffs(rng, m))
            report.checks += 1
            if not casimir_invariance_check(kind, xi):
                report.failures.append(
                    f"{kind} trial {n}: invariance fails at xi={[str(c) for c in xi.coeffs]}"
                )
        per_branch = max(1, trials // 5)
        for label, pins, arity in regions:
            for n in range(per_branch):
                xi = Functional.of(random_functional_coeffs(rng, m, **pins))
                params = [random_rational(rng) for _ in range(arity)]
                point = orbit_point(kind, xi, params)
                report.checks += 2
                if casimir_value(kind, point) != casimir_value(kind, xi):
                    report.failures.append(
                        f"{kind} orbit branch {label} trial {n}: Casimir changed"
                    )
                if stratum(built.algebra, built.flag, point) != stratum(
                    built.algebra, built.flag, xi
                ):
                    report.failures.append(
                        f"{kind} orbit branch {label} trial {n}: stratum changed"
                    )
    return report


def run_projector_sum(seed: int = 0, trials: int = 500) -> SuiteReport:
    """Range of summed exact projectors equals the subspace sum, in Q^5."""
    report = SuiteReport("projector-sum", seed, trials)
    rng = Random(seed)
    for n in range(trials):
        count = rng.randint(2, 4)
        subs = [random_subspace(rng, 5) for _ in range(count)]
        report.checks += 1
        if not projector_sum_range_check(subs):
            report.failures.append(
                f"trial {n}: range mismatch for dims {[s.dim for s in subs]}"
            )
    return report


_SUITES = {
    "filtration-lemmas": (run_filtration_lemmas, 1000),
    "lagrangian-contract": (run_lagrangian_contract, 1000),
    "example-oracles": (run_example_oracles, 200),
    "casimir": (run_casimir, 500),
    "projector-sum": (run_projector_sum, 500),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
    runner, default_trials = _SUITES[name]
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return runner(seed=seed, trials=trials if trials is not None else default_trials)


# Affine functional paths used as probe presets: (algebra kind, base, direction),
# probed at t = 2^-1 .. 2^-20 against the selection at t* = 0.
PROBE_PRESETS: dict[str, tuple[str, tuple[int, ...], tuple[int, ...]]] = {
    "g54-discontinuity": ("g54", (0, 0, 1, 0, 0), (1, 0, 0, 0, 0)),
    "g54-instratum": ("g54", (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
    "g615-discontinuity": ("g615", (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
    "g615-instratum": ("g615", (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
}


def preset_samples(count: int = 20) -> list[Fraction]:
    return [Fraction(1, 2**i) for i in range(1, count + 1)]
