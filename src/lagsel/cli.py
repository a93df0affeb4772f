"""Command-line interface.

Exit codes follow a fixed contract: 0 for success, 1 for invalid input
(malformed JSON, failed preconditions, unknown names), 2 when a verification
check fails or any other exception escapes a handler; the last one only ever
fires on a bug, so CI can tell user error from broken math.  ``--json``
switches every subcommand to a machine-readable payload; all output is
deterministic given inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from argparse import ArgumentError
from fractions import Fraction
from pathlib import Path

from . import serialize
from .lie import Functional, builtin, isotropy_subalgebra, stratum, vergne_polarization
from .linalg import Matrix, as_rational
from .presymplectic import Flag, signature_vector, vergne_select
from .probe import functional_path_probe
from .schubert import JumpSet, cell_to_signature, filtration, jump_indices, selection_cell
from .suites import PROBE_PRESETS, preset_samples, run_suite, suite_names

OK, INVALID_INPUT, CHECK_FAILED = 0, 1, 2

# What a subcommand handler returns: exit code, JSON payload and text lines.
# ``main`` prints the result once, so a closed stdout cannot lose the code.
Outcome = tuple[int, dict, list[str]]


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply in {path}") from exc


def _load_flag(args, dim: int) -> Flag:
    if getattr(args, "flag", None):
        flag = serialize.flag_from_json(_load_json(args.flag))
        if flag.dim != dim:
            raise ValueError(f"flag has dimension {flag.dim}, expected {dim}")
        return flag
    return Flag.standard(dim)


def _parse_rationals(text: str) -> list[Fraction]:
    if not text.strip():
        return []
    return [as_rational(part.strip()) for part in text.split(",")]


def _parse_matrix(text: str) -> Matrix:
    return Matrix([_parse_rationals(row) for row in text.split(";")])


def _load_algebra_arg(args):
    """Resolve the algebra argument: builtin name or JSON file path."""
    name = args.algebra
    if name.endswith(".json") or Path(name).exists():
        algebra = serialize.lie_algebra_from_json(_load_json(name))
        return algebra, None
    matrix = _parse_matrix(args.matrix) if getattr(args, "matrix", None) else None
    built = builtin(name, matrix)
    return built.algebra, built


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _subspace_lines(label: str, sub) -> list[str]:
    lines = [f"{label}: dimension {sub.dim} in Q^{sub.ambient_dim}"]
    for row in sub.basis:
        lines.append("  [" + ", ".join(serialize.rational_to_str(x) for x in row) + "]")
    return lines


def cmd_polarize(args) -> Outcome:
    form = serialize.skew_form_from_json(_load_json(args.form))
    flag = _load_flag(args, form.dim)
    selection = vergne_select(form, flag)
    cell = jump_indices(selection, flag)
    sig = signature_vector(form, flag)
    payload = {
        "selection": serialize.subspace_to_json(selection),
        "cell": serialize.jump_set_to_json(cell),
        "signature": serialize.signature_to_json(sig),
    }
    lines = _subspace_lines("selection", selection)
    lines.append(f"cell: {set(cell.indices) or '{}'}")
    lines.append(f"signature: {sig.entries}")
    return OK, payload, lines


def cmd_vergne(args) -> Outcome:
    algebra, _ = _load_algebra_arg(args)
    xi = Functional.of(_parse_rationals(args.xi))
    if xi.m != algebra.dim:
        raise ValueError(f"xi has {xi.m} entries, algebra has dimension {algebra.dim}")
    flag = _load_flag(args, algebra.dim)
    pol = vergne_polarization(algebra, flag, xi)
    iso = isotropy_subalgebra(algebra, xi)
    sig = stratum(algebra, flag, xi)
    cell = jump_indices(pol, flag)
    payload = {
        "polarization": serialize.subspace_to_json(pol),
        "isotropy": serialize.subspace_to_json(iso),
        "stratum": serialize.signature_to_json(sig),
        "cell": serialize.jump_set_to_json(cell),
    }
    lines = _subspace_lines("polarization", pol)
    lines += _subspace_lines("isotropy subalgebra", iso)
    lines.append(f"stratum: {sig.entries}")
    lines.append(f"cell: {set(cell.indices) or '{}'}")
    return OK, payload, lines


def cmd_filtration(args) -> Outcome:
    form = serialize.skew_form_from_json(_load_json(args.form))
    flag = _load_flag(args, form.dim)
    trace = filtration(form, flag)
    payload = serialize.filtration_trace_to_json(trace)
    lines = [f"steps: {trace.d}", f"i_seq: {list(trace.i_seq)}", f"j_seq: {list(trace.j_seq)}"]
    for k, sub in enumerate(trace.chain):
        lines += _subspace_lines(f"p^{k}", sub)
    return OK, payload, lines


def cmd_jump(args) -> Outcome:
    sub = serialize.subspace_from_json(_load_json(args.subspace))
    flag = _load_flag(args, sub.ambient_dim)
    e = jump_indices(sub, flag)
    return (
        OK,
        {"jump": serialize.jump_set_to_json(e), "codim": len(e)},
        [f"jump: {set(e.indices) or '{}'}", f"codim: {len(e)}"],
    )


def cmd_stratum(args) -> Outcome:
    algebra, _ = _load_algebra_arg(args)
    xi = Functional.of(_parse_rationals(args.xi))
    flag = _load_flag(args, algebra.dim)
    sig = stratum(algebra, flag, xi)
    return OK, {"stratum": serialize.signature_to_json(sig)}, [f"stratum: {sig.entries}"]


def cmd_cell(args) -> Outcome:
    try:
        indices = tuple(int(part) for part in args.jumps.split(",")) if args.jumps.strip() else ()
    except ValueError as exc:
        raise ValueError(f"jump indices must be integers: {exc}") from exc
    e = JumpSet(args.m, indices)
    sig = cell_to_signature(e)
    return (
        OK,
        {"cell": serialize.jump_set_to_json(e), "signature": serialize.signature_to_json(sig)},
        [f"cell: {set(e.indices) or '{}'}", f"signature: {sig.entries}"],
    )


def cmd_verify(args) -> Outcome:
    report = run_suite(args.suite, seed=args.seed, trials=args.trials)
    payload = report.to_json()
    lines = [report.summary()]
    lines += [f"  {f}" for f in report.failures[:20]]
    return (OK if report.ok else CHECK_FAILED), payload, lines


def cmd_probe(args) -> Outcome:
    if args.preset:
        kind, base, direction = PROBE_PRESETS[args.preset]
        built = builtin(kind)
        algebra, flag = built.algebra, built.flag
        t_star = Fraction(0)
        samples = preset_samples()
    else:
        if not args.spec:
            raise ValueError("probe needs --preset NAME or a spec file")
        spec = _load_json(args.spec)
        if not isinstance(spec, dict):
            raise ValueError("probe spec must be a JSON object")
        name = spec.get("algebra")
        if isinstance(name, str):
            algebra = builtin(name).algebra
        else:
            algebra = serialize.lie_algebra_from_json(name)
        flag = (
            serialize.flag_from_json(spec["flag"])
            if "flag" in spec
            else Flag.standard(algebra.dim)
        )
        base = serialize.vector_from_json(spec.get("base"), algebra.dim)
        direction = serialize.vector_from_json(spec.get("direction"), algebra.dim)
        t_star = serialize.rational_from_obj(spec.get("t_star", 0))
        samples = spec.get("samples", [])
        if not isinstance(samples, list):
            raise ValueError("'samples' must be a list")
        samples = [serialize.rational_from_obj(t) for t in samples]
        if not samples:
            raise ValueError("probe spec lists no samples")
    report = functional_path_probe(algebra, flag, base, direction, samples, t_star)
    payload = serialize.path_probe_report_to_json(report)
    lines = [f"verdict: {report.verdict}"]
    for s in report.samples:
        lines.append(
            f"  t={serialize.rational_to_str(s.t)}: gap={s.gap:.9f} "
            f"stratum={s.stratum.entries} cell={set(s.cell.indices) or '{}'}"
        )
    return OK, payload, lines


def cmd_builtin(args) -> Outcome:
    matrix = _parse_matrix(args.matrix) if args.matrix else None
    built = builtin(args.kind, matrix)
    payload = {
        "kind": built.kind,
        "algebra": serialize.lie_algebra_to_json(built.algebra),
        "flag": serialize.flag_to_json(built.flag),
    }
    lines = [f"{built.kind}: dimension {built.dim}"]
    for i, j, vec in built.algebra.sparse_brackets():
        terms = " + ".join(
            f"{serialize.rational_to_str(c)}*{built.algebra.labels[t]}"
            for t, c in enumerate(vec)
            if c
        )
        lines.append(f"  [{built.algebra.labels[i - 1]}, {built.algebra.labels[j - 1]}] = {terms}")
    return OK, payload, lines


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so usage errors map to the exit-code contract."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1,0,1" for an option because only plain numbers
        # count as negative; no lagsel option starts with a digit. The pattern
        # is a private attribute (checked against CPython 3.11), so a
        # rename fails here instead of silently dropping the fix.
        assert hasattr(self, "_negative_number_matcher"), "argparse internals changed"
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lagsel",
        description="Exact Lagrangian selections, Vergne polarizations, and Schubert-cell strata",
    )
    parser.add_argument("--version", action="version", version="lagsel 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
        return p

    p = add("polarize", cmd_polarize, "Lagrangian selection of a skew form")
    p.add_argument("form", help="skew form JSON file")
    p.add_argument("--flag", help="flag JSON file (default: standard basis)")

    p = add("vergne", cmd_vergne, "Vergne polarization of a functional on a Lie algebra")
    p.add_argument("algebra", help="builtin name (g54, g615, heisenberg:n, axb) or algebra JSON file")
    p.add_argument("--xi", required=True, help="comma-separated rational coefficients")
    p.add_argument("--flag", help="flag JSON file (default: standard basis)")
    p.add_argument("--matrix", help="axb action matrix, rows joined by ';'")

    p = add("filtration", cmd_filtration, "isotropic filtration trace of a skew form")
    p.add_argument("form", help="skew form JSON file")
    p.add_argument("--flag", help="flag JSON file")

    p = add("jump", cmd_jump, "jump indices of a subspace relative to a flag")
    p.add_argument("subspace", help="subspace JSON file")
    p.add_argument("--flag", help="flag JSON file")

    p = add("stratum", cmd_stratum, "stratum signature of a functional")
    p.add_argument("algebra", help="builtin name or algebra JSON file")
    p.add_argument("--xi", required=True, help="comma-separated rational coefficients")
    p.add_argument("--flag", help="flag JSON file")
    p.add_argument("--matrix", help="axb action matrix")

    p = add("cell", cmd_cell, "translate a Schubert cell into its stratum signature")
    p.add_argument("--m", type=int, required=True, help="ambient dimension")
    p.add_argument("--jumps", default="", help="comma-separated jump indices (empty for the open cell)")

    p = add("verify", cmd_verify, "run a reproducible verification suite")
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)

    p = add("probe", cmd_probe, "sample a path of functionals and report gap evidence")
    p.add_argument("spec", nargs="?", help="probe spec JSON file")
    p.add_argument("--preset", choices=sorted(PROBE_PRESETS))

    p = add("builtin", cmd_builtin, "print a builtin algebra")
    p.add_argument("kind", help="g54, g615, heisenberg:n, or axb")
    p.add_argument("--matrix", help="axb action matrix, rows joined by ';'")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID_INPUT
    try:
        code, payload, lines = args.handler(args)
    except RuntimeError as exc:
        # The library raises RuntimeError for internal failures, never for bad input.
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID_INPUT
    except Exception as exc:
        # The last resort: any other exception is a bug, never bad input.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    try:
        _emit(args, payload, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``); the exit code is still the
        # handler's.  Point stdout at devnull so the flush at interpreter
        # exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
