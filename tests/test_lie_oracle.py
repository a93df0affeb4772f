"""The integer Lie layer against the Fraction definitions it replaced.

``lagsel.lie`` keeps an algebra as integer structure constants.  The oracle
here builds its own Fraction table from the same input brackets and computes
brackets, coadjoint forms, subalgebra and ideal membership (span membership
by the Fraction elimination in ``oracles``), subordination and the Jacobi
identity by the textbook formulas, sharing no arithmetic with the module
under test.  The ``axb`` cases have rational actions, so the
integer scale of the structure constants is above 1.
"""

from fractions import Fraction
from random import Random

import pytest

from lagsel.lie import Functional, JacobiError, LieAlgebra, builtin, coadjoint_form, isotropy_subalgebra, vergne_polarization
from lagsel.linalg import Matrix, Subspace
from lagsel.presymplectic import Flag, SkewForm, is_isotropic
from lagsel.sampling import random_nonzero_rational, random_subspace, random_vector
from oracles import in_span


def _axb_brackets(action):
    # [X_m, X_j] = sum_i A[i][j] X_i, written as [X_j, X_m] for j < m.
    n = len(action)
    return {
        (j + 1, n + 1): [-Fraction(action[i][j]) for i in range(n)] + [0]
        for j in range(n)
        if any(action[i][j] for i in range(n))
    }


def _heisenberg_brackets(n):
    m = 2 * n + 1
    return {(1 + i, n + 1 + i): [1] + [0] * (m - 1) for i in range(1, n + 1)}


AXB_ACTIONS = (
    [[1, "1/2"], [0, -1]],
    [[2, 1, 0], [0, 1, 3], [0, 0, "1/3"]],
    [["2/3", "1/5", 0], [0, "-3/7", "5/4"], [0, 0, 0]],
)

# name -> (builtin kind, action matrix or None, dim, brackets)
CASES = {
    "g54": ("g54", None, 5, {(4, 5): [0, 0, -1, 0, 0], (3, 5): [0, -1, 0, 0, 0], (3, 4): [-1, 0, 0, 0, 0]}),
    "g615": ("g615", None, 6, {(5, 6): [0, 0, -1, 0, 0, 0], (4, 6): [-1, 0, 0, 0, 0, 0], (4, 5): [0, -1, 0, 0, 0, 0]}),
    **{f"heisenberg:{n}": (f"heisenberg:{n}", None, 2 * n + 1, _heisenberg_brackets(n)) for n in (1, 2, 3)},
    **{
        f"axb{k}": ("axb", Matrix(action), len(action) + 1, _axb_brackets([[Fraction(x) for x in row] for row in action]))
        for k, action in enumerate(AXB_ACTIONS)
    },
}


def oracle_table(dim, brackets):
    zero = (Fraction(0),) * dim
    table = [[zero] * dim for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        vec = tuple(Fraction(c) for c in coeffs)
        table[i - 1][j - 1] = vec
        table[j - 1][i - 1] = tuple(-c for c in vec)
    return tuple(tuple(row) for row in table)


def oracle_bracket(table, x, y):
    n = len(table)
    acc = [Fraction(0)] * n
    for a in range(n):
        for b in range(n):
            coeff = Fraction(x[a]) * Fraction(y[b])
            if coeff:
                for t in range(n):
                    acc[t] += coeff * table[a][b][t]
    return tuple(acc)


def oracle_pairing(xi, vec):
    return sum((Fraction(a) * b for a, b in zip(xi, vec)), Fraction(0))


def oracle_coadjoint(table, xi):
    n = len(table)
    return tuple(tuple(oracle_pairing(xi, table[i][j]) for j in range(n)) for i in range(n))


def oracle_is_subalgebra(table, sub):
    rows = sub.basis
    return all(
        in_span(rows, oracle_bracket(table, rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )


def oracle_is_ideal(table, sub):
    basis = Matrix.identity(len(table)).entries
    return all(in_span(sub.basis, oracle_bracket(table, x, v)) for x in basis for v in sub.basis)


def oracle_subordinate(table, xi, sub):
    rows = sub.basis
    return all(
        not oracle_pairing(xi, oracle_bracket(table, rows[a], rows[b]))
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )


def oracle_jacobi_failure(table):
    """The first basis triple (i, j, k), 0-based, on which Jacobi fails, or None."""
    n = len(table)
    basis = Matrix.identity(n).entries
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [Fraction(0)] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    term = oracle_bracket(table, basis[a], table[b][c])
                    acc = [s + t for s, t in zip(acc, term)]
                if any(acc):
                    return i, j, k
    return None


def load(name):
    kind, action, dim, brackets = CASES[name]
    return LieAlgebra(dim, brackets), oracle_table(dim, brackets), builtin(kind, action)


def test_rational_cases_have_scale_above_one():
    assert all(load(f"axb{k}")[0]._scale > 1 for k in range(len(AXB_ACTIONS)))


@pytest.mark.parametrize("name", CASES)
def test_table_matches_oracle_and_builtin(name):
    algebra, table, built = load(name)
    assert algebra.table == table
    assert built.algebra.table == table
    assert algebra.sparse_brackets() == [
        (i + 1, j + 1, table[i][j]) for i in range(algebra.dim) for j in range(i + 1, algebra.dim) if any(table[i][j])
    ]


@pytest.mark.parametrize("name", CASES)
def test_bracket_matches_oracle(name):
    algebra, table, _ = load(name)
    m = algebra.dim
    rng = Random(name)
    basis = Matrix.identity(m).entries
    pairs = [(x, y) for x in basis for y in basis]
    pairs += [(random_vector(rng, m), random_vector(rng, m)) for _ in range(40)]
    for x, y in pairs:
        assert algebra.bracket(x, y) == oracle_bracket(table, x, y)


@pytest.mark.parametrize("name", CASES)
def test_coadjoint_form_matches_oracle(name):
    algebra, table, _ = load(name)
    rng = Random("xi:" + name)
    # Integer multiples of the algebra's scale make the integer form's entries
    # share a factor with its scale, which the form must cancel.
    scaled = [[algebra._scale * (t == a) for t in range(algebra.dim)] for a in range(algebra.dim)]
    for xi in scaled + [random_vector(rng, algebra.dim) for _ in range(30)]:
        form = coadjoint_form(algebra, Functional.of(xi))
        assert form.matrix.entries == oracle_coadjoint(table, xi)
        assert all(type(x) is int for row in form.integer_matrix for x in row)
        expected = SkewForm(Matrix(oracle_coadjoint(table, xi)))
        assert form == expected and hash(form) == hash(expected)


def _test_subspaces(rng, algebra, built):
    m = algebra.dim
    subs = [built.flag.subspace(j) for j in range(m + 1)]
    subs.append(algebra.derived_algebra())
    for _ in range(12):
        xi = Functional.of(random_vector(rng, m))
        subs.append(isotropy_subalgebra(algebra, xi))
        subs.append(vergne_polarization(algebra, built.flag, xi))
        subs.append(random_subspace(rng, m))
        subs.append(Subspace.from_vectors(m, [row for row in Matrix.identity(m).entries if rng.random() < 0.5]))
    return subs


def test_subalgebra_and_ideal_match_oracle():
    rng = Random(7)
    outcomes = set()
    for name in CASES:
        algebra, table, built = load(name)
        for sub in _test_subspaces(rng, algebra, built):
            subalgebra, ideal = algebra.is_subalgebra(sub), algebra.is_ideal(sub)
            assert subalgebra == oracle_is_subalgebra(table, sub), (name, sub)
            assert ideal == oracle_is_ideal(table, sub), (name, sub)
            outcomes.add((subalgebra, ideal))
    # Every combination an ideal allows is exercised.
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_subordinate_check_matches_oracle():
    # example-oracles checks <xi, [p, p]> = 0 as isotropy under B_xi.
    rng = Random(11)
    outcomes = set()
    for name in CASES:
        algebra, table, built = load(name)
        for sub in _test_subspaces(rng, algebra, built):
            xi = random_vector(rng, algebra.dim)
            subordinate = is_isotropic(coadjoint_form(algebra, Functional.of(xi)), sub)
            assert subordinate == oracle_subordinate(table, xi, sub), (name, xi, sub)
            outcomes.add(subordinate)
    assert outcomes == {True, False}


def test_jacobi_matches_oracle_on_corrupted_tables():
    rng = Random(13)
    failures = 0
    for name in CASES:
        _, _, dim, brackets = CASES[name]
        for _ in range(15):
            corrupted = {key: list(vec) for key, vec in brackets.items()}
            i = rng.randint(1, dim - 1)
            key = (i, rng.randint(i + 1, dim))
            vec = corrupted.setdefault(key, [0] * dim)
            vec[rng.randrange(dim)] += random_nonzero_rational(rng)
            triple = oracle_jacobi_failure(oracle_table(dim, corrupted))
            if triple is None:
                LieAlgebra(dim, corrupted)
                continue
            failures += 1
            labels = ", ".join(f"X{t + 1}" for t in triple)
            with pytest.raises(JacobiError, match=rf"\({labels}\)$"):
                LieAlgebra(dim, corrupted)
    assert failures >= 20


def test_checks_reject_subspaces_of_another_dimension():
    algebra = builtin("g54").algebra
    with pytest.raises(ValueError):
        algebra.is_subalgebra(Subspace.full(4))
    with pytest.raises(ValueError):
        algebra.is_ideal(Flag.standard(6).subspace(2))
