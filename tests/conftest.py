"""Shared fixtures for the test suite."""

import pytest

from lagsel.linalg import Matrix
from lagsel.presymplectic import Flag
from lagsel.sampling import random_rational


@pytest.fixture
def rational_flag():
    """Draws scrambled complete flags whose basis matrices have non-integer rational entries."""

    def draw(rng, m):
        while True:
            basis = Matrix([[random_rational(rng, 4, 5) for _ in range(m)] for _ in range(m)])
            if basis.rank() == m:
                return Flag(basis)

    return draw
