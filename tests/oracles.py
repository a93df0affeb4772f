"""Test oracles in plain Fractions, sharing no code with the library's eliminations.

Each oracle follows the textbook definition: elimination over ``Fraction``
for rank, span membership and null spaces, the Gram matrix P^T M P of a
flag basis by dot products, and the flag selection as the sum of the
per-step radicals.  Only the inputs (a form's Fraction matrix, a flag's
Fraction columns, a subspace's Fraction basis) and the canonical
``Subspace`` the selection is compared as come from ``lagsel``.

``loop_float_projector`` is the one float reference: the probe's projector
written with explicit index loops, against which its comprehensions must
agree bit for bit.
"""

from fractions import Fraction
from math import sqrt

from lagsel.linalg import Subspace


def fraction_rref(rows):
    """Reduced row echelon form of Fraction rows: (nonzero rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    width = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def new_directions(vectors):
    """The indices t with ``vectors[t]`` outside the span of ``vectors[:t]``.

    One pass: each vector is reduced against the echelon rows kept so far,
    and joins them when something is left.
    """
    echelon = []  # (pivot, row with 1 at pivot and 0 at every earlier pivot)
    found = []
    for t, vec in enumerate(vectors):
        v = [Fraction(x) for x in vec]
        for p, row in echelon:
            if v[p]:
                c = v[p]
                v = [x - c * y for x, y in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            echelon.append((p, [x / v[p] for x in v]))
            found.append(t)
    return found


def rank(rows):
    return len(new_directions(rows))


def in_span(rows, vec):
    """True iff ``vec`` is a linear combination of ``rows``."""
    rows = list(rows)
    return len(rows) not in new_directions(rows + [vec])


def null_space_basis(rows, width):
    """A basis of {x : row . x = 0 for every row}, one vector per free column."""
    reduced, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        x = [Fraction(0)] * width
        x[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[f]
        basis.append(x)
    return basis


def dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def gram_of_flag(form, flag):
    """P^T M P for the form's Fraction matrix M and the flag's Fraction columns p_a."""
    cols = [flag.column(a) for a in range(flag.dim)]
    images = [[dot(row, v) for row in form.matrix.entries] for v in cols]
    return [[dot(u, image) for image in images] for u in cols]


def per_step_oracle(form, flag):
    """The per-step definition of the selection and the signature.

    The radical of B on V_j is the null space of the leading j x j block of
    P^T M P; each of its vectors x is the ambient vector sum_a x_a p_a.  The
    selection is the span of all of them, and the signature lists the
    radical dimensions.
    """
    m = flag.dim
    gram = gram_of_flag(form, flag)
    cols = [flag.column(a) for a in range(m)]
    vectors, dims = [], []
    for j in range(1, m + 1):
        radical = null_space_basis([row[:j] for row in gram[:j]], j)
        vectors += [[dot(x, [col[t] for col in cols[:j]]) for t in range(m)] for x in radical]
        dims.append(len(radical))
    return Subspace.from_vectors(m, vectors), tuple(dims)


def _loop_fdot(u, v):
    return sum(a * b for a, b in zip(u, v))


def loop_float_projector(sub):
    """The float projector of ``lagsel.probe.projector``, written as index loops.

    The same operations in the same order: each canonical row divided by its
    pivot times 2^e, modified Gram-Schmidt run twice, the orthonormality
    check, and the projector as a sum of outer products, entry by entry.
    Raises ValueError where the library takes its exact fallback.
    """
    basis = []
    for row, pivot in zip(sub.rows, sub.pivots):
        p = row[pivot]
        e = max(0, max(map(abs, row)).bit_length() - p.bit_length() - 500)
        w = [x / (p << e) for x in row]
        for _ in range(2):
            for q in basis:
                c = _loop_fdot(q, w)
                for t in range(len(w)):
                    w[t] -= c * q[t]
        norm = sqrt(_loop_fdot(w, w))
        if norm < 1e-12:
            raise ValueError("input vectors are numerically dependent")
        basis.append([x / norm for x in w])
    for a, u in enumerate(basis):
        for b in range(a, len(basis)):
            want = 1.0 if a == b else 0.0
            if abs(_loop_fdot(u, basis[b]) - want) > 100 * 1e-12:
                raise ValueError("columns are not orthonormal")
    m = sub.ambient_dim
    proj = [[0.0] * m for _ in range(m)]
    for q in basis:
        for i in range(m):
            if q[i]:
                for j in range(m):
                    proj[i][j] += q[i] * q[j]
    return proj
