"""Seeded random generators for exact test objects.

All generators draw from a caller-supplied ``random.Random`` so suites are
reproducible from a single seed.  Entries are small rationals: coefficient
growth in exact elimination is steep enough that single-digit numerators
already exercise every code path.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .linalg import Matrix, Subspace
from .presymplectic import Flag, SkewForm


def random_rational(rng: Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_nonzero_rational(rng: Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    while True:
        x = random_rational(rng, max_num, max_den)
        if x:
            return x


def random_skew_form(rng: Random, m: int, zero_chance: float = 0.35) -> SkewForm:
    """A skew form with a healthy mix of degeneracies across the strata."""
    entries = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if rng.random() >= zero_chance:
                entries.append((i, j, random_rational(rng)))
    return SkewForm.from_upper_entries(m, entries)


def random_flag(rng: Random, m: int, max_entry: int = 3) -> Flag:
    """A uniformly scrambled complete flag (small integer basis matrix)."""
    while True:
        candidate = Matrix(
            [[rng.randint(-max_entry, max_entry) for _ in range(m)] for _ in range(m)]
        )
        try:
            return Flag(candidate)
        except ValueError:
            pass  # singular: draw again


def random_vector(rng: Random, m: int, zero_chance: float = 0.3) -> list[Fraction]:
    return [
        Fraction(0) if rng.random() < zero_chance else random_rational(rng)
        for _ in range(m)
    ]


def random_subspace(rng: Random, m: int, max_gens: int | None = None) -> Subspace:
    """Span of a few random vectors (dimension varies, 0..m)."""
    count = rng.randint(0, max_gens if max_gens is not None else m)
    return Subspace.from_vectors(m, [random_vector(rng, m) for _ in range(count)])


def random_functional_coeffs(
    rng: Random,
    m: int,
    nonzero_at: tuple[int, ...] = (),
    zero_at: tuple[int, ...] = (),
) -> list[Fraction]:
    """Random coefficients with 1-based positions pinned nonzero or zero."""
    coeffs = [random_rational(rng) for _ in range(m)]
    for j in zero_at:
        coeffs[j - 1] = Fraction(0)
    for j in nonzero_at:
        coeffs[j - 1] = random_nonzero_rational(rng)
    return coeffs
