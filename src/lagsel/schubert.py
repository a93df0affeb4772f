"""Jump indices, Schubert cells, and the inductive isotropic filtration.

Relative to a complete flag V_1 ⊂ ... ⊂ V_m, every subspace W has a jump set

    jump(W) = {j : V_j ⊄ V_{j-1} + W},

whose cardinality is the codimension of W; the subspaces sharing a jump set
form a Schubert cell.  For a skew form B the filtration here peels the
ambient space down one dimension at a time,

    p^0 = V,   p^{k+1} = (V_{i_{k+1}} ∩ p^k)^{⊥_B} ∩ p^k,

with i_{k+1} the first flag step whose trace in p^k is not B-orthogonal to
p^k, stopping at the first isotropic term p^d.  It runs as one fraction-free
sweep in flag coordinates over the Gram matrix of the flag basis: each p^k is
kept as a basis in echelon form by last nonzero coordinate, so every trace
V_i ∩ p^k is a prefix of that basis and no intersection is taken.

The end of the chain is exactly the flag selection ``vergne_select(B)``, the
recorded index sequences land bijectively in the jump sets of N(B) and of
the selection, and the jump set of the selection determines the signature
vector.  All of these facts are exact theorems; ``verify_filtration_lemmas``
re-checks them on the results callers get, in the ambient space, with
intersections and one rank profile that share no code with the sweeps, and
reports any violation (which would mean a bug here, not new mathematics).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Callable

from .linalg import Subspace, _echelon_int_rows, _kernel_generators, check_dim, contains, intersect, kernel
from .presymplectic import (
    Flag,
    SignatureVector,
    SkewForm,
    _primitive,
    _swept,
    b_perp,
    null_space,
    signature_vector,
    vergne_select,
)


@dataclass(frozen=True)
class JumpSet:
    """A strictly increasing set of jump indices in {1, ..., m} (1-based)."""

    m: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"dimension m={self.m} must be non-negative")
        check_dim(self.m)
        if any(not 1 <= j <= self.m for j in self.indices):
            raise ValueError(f"jump indices must lie in 1..{self.m}")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("jump indices must be strictly increasing")

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def complement(self) -> tuple[int, ...]:
        members = set(self.indices)
        return tuple(j for j in range(1, self.m + 1) if j not in members)


def jump_indices(w: Subspace, flag: Flag) -> JumpSet:
    """The jump set of W relative to the flag; its size is codim W.

    j is a jump exactly when the flag vector p_j is not in W + V_{j-1}.  The
    test runs in the quotient Q^m/W.  The generators phi_f of W's
    annihilator (``_kernel_generators`` on W's canonical rows, one per
    non-pivot column f) are m - dim W independent functionals vanishing on
    W, so v -> (phi_f(v))_f has kernel exactly W and is injective on Q^m/W.
    Hence p_j lies in W + V_{j-1} exactly when column j of A = (phi_f(p_j))
    lies in the span of the columns before it: the jumps are the pivot
    columns of A, its column rank profile.  ``Flag._read`` builds A, and
    forward elimination alone (``_echelon_int_rows``, no back-substitution)
    finds the pivots of the (m - dim W) x m matrix.  W = 0 jumps everywhere
    and W = Q^m nowhere, with no elimination.
    """
    m = flag.dim
    if w.ambient_dim != m:
        raise ValueError("subspace and flag dimensions differ")
    if w.is_zero():
        return JumpSet(m, tuple(range(1, m + 1)))
    if w.is_full():
        return JumpSet(m, ())
    # Scaling a column keeps the pivots, so the integer columns serve.
    phis = flag._read(_kernel_generators(w.rows, w.pivots, m))
    return JumpSet(m, tuple(c + 1 for c in _echelon_int_rows(phis)))


@dataclass(frozen=True)
class FiltrationTrace:
    """The full record of the filtration: the chain and both index sequences."""

    chain: tuple[Subspace, ...]
    i_seq: tuple[int, ...]
    j_seq: tuple[int, ...]

    def __post_init__(self):
        if len(self.chain) != len(self.i_seq) + 1 or len(self.i_seq) != len(self.j_seq):
            raise ValueError("inconsistent trace lengths")

    @property
    def d(self) -> int:
        return len(self.i_seq)

    @property
    def final(self) -> Subspace:
        return self.chain[-1]


def filtration(b: SkewForm, flag: Flag | None = None) -> FiltrationTrace:
    """Run the isotropic filtration for B along the flag.

    Stops at the first isotropic chain member; by construction that member is
    the flag selection of a Lagrangian subspace and the number of steps is
    (m - dim N(B)) / 2.

    One fraction-free pass over the Gram matrix G of the flag basis, kept
    with ``vergne_select``'s sweep.  Each member p^k has a basis x_1..x_n in
    flag coordinates, in echelon form by last nonzero coordinate l_1 < ... <
    l_n, so its trace V_i ∩ p^k is spanned by the x_t with l_t <= i.  With a
    the first index with B(x_a, p^k) != 0 and b the first with B(x_a, x_b)
    != 0, i = l_a, j = l_b, and p^{k+1} = {y in p^k : B(x_a, y) = 0} is
    spanned by the x_t for t < b and B(x_a, x_b) x_t - B(x_a, x_t) x_b for
    t > b.  The member itself is the kernel of the functionals B(x_a, .) of
    the steps so far, mapped into the ambient space.
    """
    if flag is None:
        flag = Flag.standard(b.dim)
    gram = _swept(b, flag).gram
    m = b.dim

    def form(x: list[int], y: list[int]) -> int:
        return sum(map(mul, x[m:], y))  # B(x, y) = (x^T G) y

    # Flag basis vector t as the row (e_t, e_t^T G); its last index is t.
    basis = [[int(s == t) for s in range(m)] + list(gram[t]) for t in range(m)]
    last = list(range(m))
    chain = [Subspace.full(m)]
    i_seq: list[int] = []
    j_seq: list[int] = []
    functionals: list[list[int]] = []  # the rows B (P x_a), one per step
    a = 0
    while a < len(basis):
        x = basis[a]
        pair = next((t for t in range(a + 1, len(basis)) if form(x, basis[t])), None)
        if pair is not None:
            y = basis.pop(pair)
            i_seq.append(last[a] + 1)
            j_seq.append(last.pop(pair) + 1)
            omega = form(x, y)
            for t in range(pair, len(basis)):
                xt = form(x, basis[t])
                if xt:
                    basis[t] = _primitive([omega * e - xt * f for e, f in zip(basis[t], y)])
            (v,) = flag._to_ambient([x[:m]])
            functionals.append([sum(map(mul, g, v)) for g in b.integer_matrix])
            chain.append(kernel(functionals))
        # x_a is now B-orthogonal to the member, and so to every later one.
        a += 1
    return FiltrationTrace(tuple(chain), tuple(i_seq), tuple(j_seq))


def cell_to_signature(e: JumpSet) -> SignatureVector:
    """The signature vector shared by every form whose selection lies in cell e.

    With r_1 < r_2 < ... the complement of the jump set, the entry for step
    j is j before r_1 and 2*l - j when r_l <= j < r_{l+1}.  Raises
    ValueError when the derived vector is inadmissible, i.e. the cell cannot
    contain any Lagrangian selection.
    """
    m, d = e.m, len(e)
    comp = e.complement()
    entries = []
    for j in range(1, m + 1):
        ell = bisect_right(comp, j)
        k_j = j if ell == 0 else 2 * ell - j
        if k_j < 0:
            raise ValueError(
                f"jump set {e.indices} cannot arise from a Lagrangian selection: "
                f"derived k_{j} = {k_j} < 0"
            )
        entries.append(k_j)
    if m and entries[-1] != m - 2 * d:
        raise ValueError(
            f"jump set {e.indices} cannot arise from a Lagrangian selection: "
            f"derived k_{m} = {entries[-1]} but codimension {d} forces {m - 2 * d}"
        )
    return SignatureVector(m, tuple(entries))


def signature_to_cell(sig: SignatureVector) -> JumpSet:
    """The Schubert cell of every selection whose form has signature vector sig.

    The converse of ``cell_to_signature``.  The selection's jumps are the
    down steps of the sweep, the steps where the radical shrinks, so the
    cell is {j : k_j < k_(j-1)} with k_0 = 0.  No elimination runs.
    """
    k = sig.entries
    return JumpSet(sig.m, tuple(j for j, (before, after) in enumerate(zip((0, *k), k), start=1) if after < before))


def selection_cell(b: SkewForm, flag: Flag | None = None) -> JumpSet:
    """The Schubert cell of the Lagrangian selection of B, read off its signature vector."""
    return signature_to_cell(signature_vector(b, flag))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class FiltrationLemmaReport:
    """Outcome of every structural check run on one (form, flag) pair."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return f"{status}: {sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed"


def verify_filtration_lemmas(b: SkewForm, flag: Flag | None = None) -> FiltrationLemmaReport:
    """Re-verify the filtration theorems on a concrete (B, flag) pair.

    Every check below is a proved statement, so a failure is a bug report,
    not a counterexample; the witness string carries enough context to
    reproduce it.  Witnesses are built only for failed checks.  The checks
    read the results callers get: ``filtration``, ``vergne_select`` and
    ``signature_vector``, which share the Gram matrix and sweep kept on the
    form, so a wrong kept record fails a check here.  The checks themselves
    run in the ambient space and share no code with the sweeps: step k
    reads only the flag steps V_{i_k} and V_{j_k}, and the dimension ladder
    is the column rank profile of one forward elimination.
    """
    if flag is None:
        flag = Flag.standard(b.dim)
    m = b.dim
    checks: list[CheckResult] = []

    def check(name: str, passed: bool, witness: Callable[[], str]) -> None:
        checks.append(CheckResult(name, passed, "" if passed else witness()))

    @cache
    def ctx() -> str:
        return f"B={[[str(x) for x in row] for row in b.matrix.entries]}, flag={[[str(x) for x in row] for row in flag.basis_matrix.entries]}"

    # The filtration, selection and signature that callers get: one Gram
    # matrix and one sweep, kept on the form.
    trace = filtration(b, flag)
    d = trace.d
    selection, sig = vergne_select(b, flag), signature_vector(b, flag)
    radical = null_space(b)
    jump_n = jump_indices(radical, flag)
    jump_p = jump_indices(trace.final, flag)
    # The relative radical b_perp(p) ∩ p of each chain member, once per
    # member.  For p^0 = Q^m it is N(B), already in hand as ``radical``.
    radicals = [radical, *(intersect(b_perp(b, p), p) for p in trace.chain[1:])] if d else []

    for k in range(d):
        p_k, p_k1 = trace.chain[k], trace.chain[k + 1]
        i_k, j_k = trace.i_seq[k], trace.j_seq[k]
        vi_trace = intersect(flag.subspace(i_k), p_k)
        recovered = p_k1 + intersect(flag.subspace(j_k), p_k)
        check(
            f"step-{k}: quotient dimension one",
            p_k.dim - p_k1.dim == 1 and contains(p_k, p_k1),
            lambda: f"dims {p_k.dim}->{p_k1.dim} [{ctx()}]",
        )
        check(
            f"step-{k}: chain member recovered by the j-trace",
            recovered == p_k,
            lambda: f"sum has dim {recovered.dim}, expected {p_k.dim} [{ctx()}]",
        )
        check(
            f"step-{k}: i-trace absorbed",
            contains(p_k1, vi_trace),
            lambda: f"i_k={i_k} [{ctx()}]",
        )
        # radicals[k + 1] = b_perp(p_k1) ∩ p_k1, so this is "absorbed and
        # orthogonal": it passes only where the orthogonality alone would.
        check(
            f"step-{k}: i-trace orthogonal to next member",
            contains(radicals[k + 1], vi_trace),
            lambda: f"i_k={i_k} [{ctx()}]",
        )
        check(f"step-{k}: relative radical monotone", contains(radicals[k + 1], radicals[k]), ctx)

    check(
        "chain ends at the flag selection",
        trace.final == selection,
        lambda: f"final={trace.final.basis}, selection={selection.basis} [{ctx()}]",
    )
    check(
        "step count is half the radical codimension",
        2 * d == m - radical.dim,
        lambda: f"d={d}, dim N={radical.dim} [{ctx()}]",
    )
    check(
        "i-sequence strictly increasing, below j-sequence",
        all(a < b_ for a, b_ in zip(trace.i_seq, trace.i_seq[1:]))
        and all(i < j for i, j in zip(trace.i_seq, trace.j_seq)),
        lambda: f"i_seq={trace.i_seq}, j_seq={trace.j_seq} [{ctx()}]",
    )
    check(
        "index sequences inside jump set of the radical",
        set(trace.i_seq) <= set(jump_n.indices) and set(trace.j_seq) <= set(jump_n.indices),
        lambda: f"i_seq={trace.i_seq}, j_seq={trace.j_seq}, jump N={jump_n.indices} [{ctx()}]",
    )
    check(
        "i-sequence hits jump N minus jump of the selection",
        tuple(sorted(set(jump_n.indices) - set(jump_p.indices))) == trace.i_seq,
        lambda: f"i_seq={trace.i_seq}, jump N={jump_n.indices}, jump sel={jump_p.indices} [{ctx()}]",
    )
    check(
        "j-sequence bijects onto jump of the selection",
        len(set(trace.j_seq)) == d and set(trace.j_seq) == set(jump_p.indices),
        lambda: f"j_seq={trace.j_seq}, jump sel={jump_p.indices} [{ctx()}]",
    )
    check(
        "jump cardinalities",
        len(jump_n) == 2 * d and len(jump_p) == d,
        lambda: f"|jump N|={len(jump_n)}, |jump sel|={len(jump_p)}, d={d} [{ctx()}]",
    )

    try:
        derived = cell_to_signature(jump_p)
        check(
            "cell determines the signature vector",
            derived == sig,
            lambda: f"derived={derived.entries}, signature={sig.entries} [{ctx()}]",
        )
    except ValueError as exc:
        check("cell determines the signature vector", False, lambda: f"{exc} [{ctx()}]")

    # dim(W ∩ V_j) = j - #{jumps of W up to j}.  Column c >= dim W of [W's rows
    # | flag columns] is a pivot exactly when p_{c - dim W + 1} ∉ W + V_{c - dim W}.
    columns = [list(row) for row in zip(*selection.rows, *flag.integer_columns)]
    ladder = tuple(c - selection.dim + 1 for c in _echelon_int_rows(columns) if c >= selection.dim)

    def ladder_witness() -> str:
        dims = [(j, j - bisect_right(ladder, j), j - bisect_right(jump_p.indices, j)) for j in range(1, m + 1)]
        j, got, expected = next(t for t in dims if t[1] != t[2])
        return f"dim(selection ∩ V_{j}) = {got}, expected {expected} [{ctx()}]"

    check("selection/flag dimension ladder", ladder == jump_p.indices, ladder_witness)

    return FiltrationLemmaReport(tuple(checks))
