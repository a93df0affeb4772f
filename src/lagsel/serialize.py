"""JSON wire formats.

Rationals travel as strings ("p/q", or "p" when the denominator is 1) so
payloads stay exact.  Subspaces are emitted in canonical form and re-load to
equal values; loaders validate shape and reject malformed input with
ValueError, which the CLI maps to its invalid-input exit code.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Any

from .lie import Functional, LieAlgebra
from .linalg import Matrix, Subspace, as_rational, check_dim
from .presymplectic import Flag, SignatureVector, SkewForm
from .probe import PathProbeReport
from .schubert import FiltrationTrace, JumpSet


def rational_to_str(x: Fraction) -> str:
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        # Python's cap on int-to-decimal digits guards parsing, not output:
        # an exact answer may be longer than any input, so lift it here only.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return rational_to_str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def rational_from_obj(obj: Any) -> Fraction:
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"expected a rational as int or 'p/q' string, got {obj!r}")
    return as_rational(obj)


def _vector_to_json(vec) -> list[str]:
    return [rational_to_str(x) for x in vec]


def vector_from_json(obj: Any, dim: int | None = None) -> list[Fraction]:
    if not isinstance(obj, list):
        raise ValueError("expected a list of rationals")
    vec = [rational_from_obj(x) for x in obj]
    if dim is not None and len(vec) != dim:
        raise ValueError(f"expected {dim} entries, got {len(vec)}")
    return vec


def _dim_field(obj: dict, key: str, least: int) -> int:
    """The integer ``obj[key]``, at least ``least`` and at most ``MAX_DIM``."""
    dim = obj[key]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < least:
        raise ValueError(f"{key!r} must be an integer >= {least}")
    check_dim(dim)
    return dim


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list")
    return value


def subspace_to_json(sub: Subspace) -> dict:
    return {
        "ambient_dim": sub.ambient_dim,
        "basis": [_vector_to_json(row) for row in sub.basis],
    }


def subspace_from_json(obj: Any) -> Subspace:
    if not isinstance(obj, dict) or "ambient_dim" not in obj or "basis" not in obj:
        raise ValueError("subspace JSON needs 'ambient_dim' and 'basis'")
    m = _dim_field(obj, "ambient_dim", 0)
    vectors = [vector_from_json(row, m) for row in _list_field(obj, "basis")]
    return Subspace.from_vectors(m, vectors)


def _check_index(index: Any, field: str) -> None:
    if isinstance(index, bool) or not isinstance(index, int):
        raise ValueError(f"{field} index {index!r} must be an integer")


def skew_form_to_json(form: SkewForm) -> dict:
    upper = []
    for i, row in enumerate(form.integer_matrix):
        for j in range(i + 1, form.dim):
            if row[j]:
                upper.append([i + 1, j + 1, rational_to_str(Fraction(row[j], form.scale))])
    return {"dim": form.dim, "upper": upper}


def skew_form_from_json(obj: Any) -> SkewForm:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("skew form JSON needs 'dim' and 'upper'")
    dim = _dim_field(obj, "dim", 1)
    entries = []
    for item in _list_field(obj, "upper"):
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError("'upper' items must be [i, j, value] triples")
        i, j, value = item
        _check_index(i, "'upper'")
        _check_index(j, "'upper'")
        entries.append((i, j, rational_from_obj(value)))
    return SkewForm.from_upper_entries(dim, entries)


def flag_to_json(flag: Flag) -> dict:
    cols = [flag.column(a) for a in range(flag.dim)]
    return {"dim": flag.dim, "columns": [_vector_to_json(c) for c in cols]}


def flag_from_json(obj: Any) -> Flag:
    if not isinstance(obj, dict) or "dim" not in obj or "columns" not in obj:
        raise ValueError("flag JSON needs 'dim' and 'columns'")
    dim = _dim_field(obj, "dim", 0)
    cols = [vector_from_json(c, dim) for c in _list_field(obj, "columns")]
    if len(cols) != dim:
        raise ValueError(f"flag needs exactly {dim} columns")
    rows = [[cols[a][t] for a in range(dim)] for t in range(dim)]
    return Flag(Matrix(rows))


def lie_algebra_to_json(algebra: LieAlgebra) -> dict:
    return {
        "dim": algebra.dim,
        "brackets": [
            [i, j, _vector_to_json(vec)] for i, j, vec in algebra.sparse_brackets()
        ],
        "labels": list(algebra.labels),
    }


def lie_algebra_from_json(obj: Any) -> LieAlgebra:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("Lie algebra JSON needs 'dim' and 'brackets'")
    dim = _dim_field(obj, "dim", 1)
    brackets = {}
    for item in _list_field(obj, "brackets"):
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError("'brackets' items must be [i, j, coeffs] triples")
        i, j, coeffs = item
        _check_index(i, "bracket")
        _check_index(j, "bracket")
        if (i, j) in brackets:
            raise ValueError(f"bracket ({i}, {j}) given twice")
        brackets[(i, j)] = vector_from_json(coeffs, dim)
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise ValueError("'labels' must be a list of strings")
    return LieAlgebra(dim, brackets, labels)


def functional_to_json(xi: Functional) -> list[str]:
    return _vector_to_json(xi.coeffs)


def signature_to_json(sig: SignatureVector) -> list[int]:
    return list(sig.entries)


def jump_set_to_json(e: JumpSet) -> list[int]:
    return list(e.indices)


def filtration_trace_to_json(trace: FiltrationTrace) -> dict:
    return {
        "d": trace.d,
        "i_seq": list(trace.i_seq),
        "j_seq": list(trace.j_seq),
        "chain": [subspace_to_json(p) for p in trace.chain],
    }


def path_probe_report_to_json(report: PathProbeReport) -> dict:
    return {
        "t_star": rational_to_str(report.t_star),
        "star_stratum": signature_to_json(report.star_stratum),
        "star_cell": jump_set_to_json(report.star_cell),
        "samples": [
            {
                "t": rational_to_str(s.t),
                "gap": s.gap,
                "stratum": signature_to_json(s.stratum),
                "cell": jump_set_to_json(s.cell),
            }
            for s in report.samples
        ],
        "verdict": report.verdict,
    }
