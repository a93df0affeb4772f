"""Differential checks of the subspace primitives.

SymPy's exact ``Matrix`` is an oracle that shares no code with the integer
kernel; it is optional, so those tests skip without it.  The annihilator
definition of the intersection (three kernels) is the other oracle for the
one-elimination ``intersect``.
"""

from fractions import Fraction
from math import gcd
from random import Random

import pytest

from lagsel.linalg import Matrix, Subspace, contains, intersect, kernel, rref, subspace_sum
from lagsel.sampling import random_rational


def random_matrix(rng, rows, cols):
    """A rational matrix: zero, rank-deficient, integer or with fractions."""
    kind = rng.choice(("zero", "deficient", "integer", "rational", "rational"))
    if kind == "zero":
        return Matrix([[0] * cols for _ in range(rows)])
    if kind == "integer":
        return Matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
    entries = [[random_rational(rng, 5, 6) for _ in range(cols)] for _ in range(rows)]
    if kind == "deficient" and rows > 1:
        # Rows past the first few are combinations of them.
        rank = rng.randint(1, rows - 1)
        for r in range(rank, rows):
            coeffs = [random_rational(rng, 3, 3) for _ in range(rank)]
            entries[r] = [sum(c * entries[k][j] for k, c in enumerate(coeffs)) for j in range(cols)]
    return Matrix(entries)


def matrix_cases(seed, count):
    rng = Random(seed)
    for i in range(count):
        shape = i % 4
        if shape == 0:
            rows, cols = 1, rng.randint(1, 10)
        elif shape == 1:
            rows, cols = rng.randint(1, 10), 1
        else:
            rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        yield random_matrix(rng, rows, cols)


def subspace_pairs(seed, count):
    """Pairs of subspaces of Q^m, m up to 10, including zero and full ones."""
    rng = Random(seed)
    for _ in range(count):
        m = rng.randint(1, 10)
        pair = []
        for _ in range(2):
            roll = rng.random()
            if roll < 0.1:
                pair.append(Subspace.zero(m))
            elif roll < 0.2:
                pair.append(Subspace.full(m))
            else:
                pair.append(Subspace.from_vectors(m, random_matrix(rng, rng.randint(1, m), m).entries))
        yield tuple(pair)


def annihilator_intersect(s1, s2):
    """S1 ∩ S2 as the kernel of the stacked annihilators of S1 and S2.

    x lies in the row space S exactly when x is orthogonal to the kernel of
    S's basis matrix.
    """
    m = s1.ambient_dim
    ann1 = kernel(Matrix(s1.basis) if s1.basis else Matrix([[0] * m]))
    ann2 = kernel(Matrix(s2.basis) if s2.basis else Matrix([[0] * m]))
    if not (ann1.basis or ann2.basis):
        return Subspace.full(m)
    return kernel(Matrix(ann1.basis + ann2.basis))


def test_intersect_matches_annihilator_kernels():
    for s1, s2 in subspace_pairs(11, 300):
        assert intersect(s1, s2) == annihilator_intersect(s1, s2)


def test_subspace_rows_are_primitive_with_positive_pivots():
    for s1, s2 in subspace_pairs(12, 100):
        for sub in (s1, s2, s1 & s2, s1 + s2):
            for row, p in zip(sub.rows, sub.pivots):
                assert row[p] > 0 and not any(row[:p]) and gcd(*row) == 1
            assert Subspace(sub.ambient_dim, sub.basis, sub.pivots) == sub


# -- SymPy --------------------------------------------------------------------


def to_sympy(sympy, rows, cols):
    return sympy.Matrix(len(rows), cols, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])


def to_fractions(mat):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in mat.row(i)) for i in range(mat.rows))


def sympy_span_rows(sympy, mat):
    """The nonzero rows of SymPy's RREF of ``mat``: the canonical basis of its row space."""
    reduced, pivots = mat.rref()
    return to_fractions(reduced[: len(pivots), :]) if pivots else ()


def sympy_basis(sympy, sub):
    return to_sympy(sympy, sub.basis, sub.ambient_dim)


def test_rref_and_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")
    for mat in matrix_cases(21, 160):
        theirs = to_sympy(sympy, mat.entries, mat.cols)
        reduced, pivots = rref(mat)
        their_reduced, their_pivots = theirs.rref()
        assert pivots == tuple(their_pivots)
        assert reduced.entries == to_fractions(their_reduced)
        null = theirs.nullspace()
        expected = sympy_span_rows(sympy, sympy.Matrix.hstack(*null).T) if null else ()
        assert kernel(mat).basis == expected


def test_sum_intersect_and_contains_match_sympy():
    sympy = pytest.importorskip("sympy")
    for s1, s2 in subspace_pairs(22, 160):
        a, b = sympy_basis(sympy, s1), sympy_basis(sympy, s2)
        assert subspace_sum(s1, s2).basis == sympy_span_rows(sympy, sympy.Matrix.vstack(a, b))
        # x = A^T c = B^T d for each null vector (c, d) of [A^T | -B^T].
        if s1.dim and s2.dim:
            null = sympy.Matrix.hstack(a.T, -b.T).nullspace()
            images = [a.T * v[: s1.dim, :] for v in null]
            expected = sympy_span_rows(sympy, sympy.Matrix.hstack(*images).T) if images else ()
        else:
            expected = ()
        assert intersect(s1, s2).basis == expected
        assert contains(s1, s2) == (sympy.Matrix.vstack(a, b).rank() == a.rank())
