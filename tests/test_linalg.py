"""Exact linear algebra kernel: examples, canonicity, and counting laws."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest

from lagsel import presymplectic
from lagsel.linalg import (
    Matrix,
    Subspace,
    _echelon_int_rows,
    _kernel_generators,
    _rref_int_rows,
    as_rational,
    contains,
    intersect,
    kernel,
    rref,
    subspace_sum,
)
from lagsel.sampling import random_flag, random_skew_form, random_subspace, random_vector
from oracles import fraction_rref


def frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_rref_permutation_of_identity():
    reduced, pivots = rref(Matrix([[0, 1], [1, 0]]))
    assert reduced.entries == frac_rows([[1, 0], [0, 1]])
    assert pivots == (0, 1)


def test_rref_rank_one():
    reduced, pivots = rref(Matrix([[1, 2], [2, 4]]))
    assert reduced.entries == frac_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_zero_matrix():
    reduced, pivots = rref(Matrix([[0, 0], [0, 0]]))
    assert reduced.entries == frac_rows([[0, 0], [0, 0]])
    assert pivots == ()


def test_rref_exact_fractions():
    # 1/3 and 1/7 force denominators that floats cannot carry.
    reduced, pivots = rref(Matrix([["1/3", "1/7"], ["1/7", "1/3"]]))
    assert reduced.entries == frac_rows([[1, 0], [0, 1]])
    assert pivots == (0, 1)


def test_kernel_zero_matrix_is_full_space():
    assert kernel(Matrix([[0] * 3] * 3)) == Subspace.full(3)


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)) == Subspace.zero(3)


def test_kernel_single_constraint():
    # Mx = 0 with M = [[0,1,0],[0,0,0],[0,0,0]] forces x_2 = 0 only.
    sub = kernel(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert sub == Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])


def test_sum_of_axes():
    e1 = Subspace.from_vectors(2, [[1, 0]])
    e2 = Subspace.from_vectors(2, [[0, 1]])
    assert subspace_sum(e1, e2) == Subspace.full(2)


def test_sum_idempotent():
    s = Subspace.from_vectors(3, [[1, 2, 3], [0, 1, 1]])
    assert s + s == s


def test_sum_mixed_generators():
    s1 = Subspace.from_vectors(2, [[1, 1]])
    s2 = Subspace.from_vectors(2, [[0, 1]])
    assert s1 + s2 == Subspace.full(2)


def test_intersect_planes():
    s1 = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    s2 = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert intersect(s1, s2) == Subspace.from_vectors(3, [[0, 1, 0]])


def test_intersect_with_full_space():
    s = Subspace.from_vectors(4, [[1, 0, 2, 0], [0, 0, 0, 1]])
    assert (s & Subspace.full(4)) == s


def test_intersect_transverse_lines():
    s1 = Subspace.from_vectors(2, [[1, 0]])
    s2 = Subspace.from_vectors(2, [[0, 1]])
    assert (s1 & s2) == Subspace.zero(2)


def test_contains_full_space():
    assert contains(Subspace.full(3), Subspace.from_vectors(3, [[1, 2, 3]]))


def test_contains_rejects_escaping_vector():
    assert not contains(
        Subspace.from_vectors(2, [[1, 0]]), Subspace.from_vectors(2, [[1, 1]])
    )


def test_contains_inside_plane():
    assert contains(
        Subspace.from_vectors(2, [[1, 0], [0, 1]]),
        Subspace.from_vectors(2, [[1, 1]]),
    )


def test_contains_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        contains(Subspace.full(2), Subspace.full(3))
    with pytest.raises(ValueError):
        subspace_sum(Subspace.full(2), Subspace.full(3))
    with pytest.raises(ValueError):
        intersect(Subspace.full(2), Subspace.full(3))


def test_canonicity_under_regenerated_bases():
    # Any generating set of the same subspace must produce the identical value.
    rng = Random(101)
    for _ in range(60):
        m = rng.randint(1, 6)
        sub = random_subspace(rng, m)
        scrambled = []
        for _ in range(max(1, sub.dim + rng.randint(0, 2))):
            vec = [Fraction(0)] * m
            for row in sub.basis:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for t in range(m):
                    vec[t] += c * row[t]
            scrambled.append(vec)
        regenerated = Subspace.from_vectors(m, scrambled)
        assert contains(sub, regenerated)
        if regenerated.dim == sub.dim:
            assert regenerated == sub
            assert regenerated.basis == sub.basis
            assert regenerated.pivots == sub.pivots


def test_rref_independent_of_row_order():
    rng = Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [random_vector(rng, n) for _ in range(m)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert Subspace.from_vectors(n, rows) == Subspace.from_vectors(n, shuffled)


def test_grassmann_dimension_law():
    rng = Random(23)
    for _ in range(80):
        m = rng.randint(1, 6)
        a = random_subspace(rng, m)
        b = random_subspace(rng, m)
        assert (a + b).dim + (a & b).dim == a.dim + b.dim


def test_rank_nullity():
    rng = Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        mat = Matrix([random_vector(rng, cols) for _ in range(rows)])
        _, pivots = rref(mat)
        assert len(pivots) + kernel(mat).dim == cols


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_as_rational_parses_strings():
    assert as_rational("-3/7") == Fraction(-3, 7)
    assert as_rational("5") == Fraction(5)


def test_subspace_rejects_non_canonical_basis():
    with pytest.raises(ValueError):
        Subspace(2, ((Fraction(2), Fraction(0)),), (0,))
    with pytest.raises(ValueError):
        Subspace(2, ((Fraction(1), Fraction(0)),), (1,))


def test_subspace_is_immutable():
    sub = Subspace.from_vectors(2, [[1, 2]])
    with pytest.raises(AttributeError):
        sub.basis = ()


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def integer_row_cases(seed, count):
    """Seeded integer matrices for the two phases of the elimination.

    The 0 x 0 matrix, then wide, tall and square shapes with zero rows and
    columns, repeated rows and negative leading entries, then the rows an
    m = 18 selection on a scrambled flag is built from, reduced against and
    laddered with: up-step vectors in the ambient space, the annihilator in
    flag coordinates, and the selection's rows beside the flag's columns.
    """
    rng = Random(seed)
    yield []
    for n in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        if n % 3 == 0:
            nrows, ncols = min(nrows, ncols), max(nrows, ncols)
        elif n % 3 == 1:
            nrows, ncols = max(nrows, ncols), min(nrows, ncols)
        bound = rng.choice((1, 3, 2**40))
        zeros = rng.random() * 0.7
        rows = [[0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.4:
            c = rng.randrange(ncols)
            for row in rows:
                row[c] = 0
        if rng.random() < 0.4:
            rows[rng.randrange(nrows)] = [0] * ncols
        if nrows > 1 and rng.random() < 0.5:
            rows[rng.randrange(nrows)] = [rng.choice((1, -1, 2, -3)) * x for x in rng.choice(rows)]
        for row in rows:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is not None and row[lead] > 0 and rng.random() < 0.5:
                row[:] = [-x for x in row]
        yield rows
    for _ in range(3):
        form, flag = random_skew_form(rng, 18), random_flag(rng, 18)
        selection = presymplectic.vergne_select(form, flag)
        ups = presymplectic._sweep(presymplectic._integer_gram(form, flag))[0]
        yield flag._to_ambient(ups)
        yield flag._read(_kernel_generators(selection.rows, selection.pivots, 18))
        yield [list(row) for row in zip(*selection.rows, *flag.integer_columns)]


def bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def test_forward_elimination_leaves_a_primitive_echelon_form_with_the_rref_pivots():
    big = 0
    for rows in integer_row_cases(41, 600):
        ncols = len(rows[0]) if rows else 0
        big += bits(rows) > 600
        echelon = [list(row) for row in rows]
        pivots = _echelon_int_rows(echelon)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for r, row in enumerate(echelon):
            if r >= len(pivots):
                assert not any(row)
                continue
            c = pivots[r]
            assert not any(row[:c]) and row[c] > 0 and gcd(*row) == 1
            assert not any(below[c] for below in echelon[r + 1 :])
        reduced = [list(row) for row in rows]
        assert _rref_int_rows(reduced) == pivots
        # Each reduced row divided by its pivot is the textbook RREF row.
        expected, expected_pivots = fraction_rref(rows)
        assert expected_pivots == pivots
        assert [[Fraction(x, row[c]) for x in row] for row, c in zip(reduced, pivots)] == expected
        assert not any(x for row in reduced[len(pivots) :] for x in row)
        assert all(gcd(*row) == 1 and row[c] > 0 for row, c in zip(reduced, pivots))
    assert big >= 6


def test_forward_elimination_pivots_match_sympy():
    sympy = pytest.importorskip("sympy")
    for rows in integer_row_cases(43, 200):
        if not rows:
            continue
        assert _echelon_int_rows([list(row) for row in rows]) == list(sympy.Matrix(rows).rref()[1])
