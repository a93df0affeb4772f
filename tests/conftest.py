"""Shared fixtures for the test suite."""

import pytest

from lagsel import presymplectic
from lagsel.linalg import Matrix
from lagsel.presymplectic import Flag
from lagsel.sampling import random_rational
from oracles import rank


@pytest.fixture
def rational_flag():
    """Draws scrambled complete flags whose basis matrices have non-integer rational entries."""

    def draw(rng, m):
        while True:
            basis = Matrix([[random_rational(rng, 4, 5) for _ in range(m)] for _ in range(m)])
            if rank(basis.entries) == m:
                return Flag(basis)

    return draw


@pytest.fixture
def forms_and_sweeps(monkeypatch):
    """Counts of the skew forms built and the sweeps run, in a dict the test may reset."""
    counts = {"forms": 0, "sweeps": 0}
    build, sweep = presymplectic.SkewForm._from_integers, presymplectic._sweep

    def counted_build(cls, rows, scale):
        counts["forms"] += 1
        return build(rows, scale)

    def counted_sweep(gram):
        counts["sweeps"] += 1
        return sweep(gram)

    monkeypatch.setattr(presymplectic.SkewForm, "_from_integers", classmethod(counted_build))
    monkeypatch.setattr(presymplectic, "_sweep", counted_sweep)
    return counts
