"""CLI subcommands, exit-code contract, and output determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from lagsel import serialize
from lagsel.cli import main
from lagsel.linalg import Subspace
from lagsel.sampling import random_flag, random_skew_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_polarize_zero_form(tmp_path, capsys):
    path = write_json(tmp_path, "zero.json", {"dim": 3, "upper": []})
    code, out, _ = run(capsys, "polarize", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cell"] == []
    assert payload["signature"] == [1, 2, 3]
    assert serialize.subspace_from_json(payload["selection"]) == Subspace.full(3)


def test_polarize_g54_form_round_trips(tmp_path, capsys):
    path = write_json(tmp_path, "g54.json", {"dim": 5, "upper": [[3, 4, "-1"]]})
    code, out, _ = run(capsys, "polarize", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cell"] == [4]
    assert payload["signature"] == [1, 2, 3, 2, 3]
    reload = serialize.subspace_from_json(payload["selection"])
    assert reload == Subspace.from_vectors(
        5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    )


def test_polarize_rejects_non_skew_input(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"dim": 2, "upper": [[1, 1, "1"]]})
    code, _, err = run(capsys, "polarize", path)
    assert code == 1
    assert "error" in err


def test_polarize_rejects_missing_file(capsys):
    code, _, err = run(capsys, "polarize", "/nonexistent/form.json")
    assert code == 1


def test_vergne_builtin_g54(capsys):
    code, out, _ = run(capsys, "vergne", "g54", "--xi", "0,1,0,0,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == [1, 2, 3, 4, 3]
    assert payload["cell"] == [5]
    assert serialize.subspace_from_json(payload["polarization"]) == Subspace.from_vectors(
        5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    )


def test_vergne_g615_deep_stratum(capsys):
    code, out, _ = run(capsys, "vergne", "g615", "--xi", "0,0,0,1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert serialize.subspace_from_json(payload["polarization"]) == Subspace.full(6)


def test_vergne_axb_identity_matrix(capsys):
    code, out, _ = run(capsys, "vergne", "axb", "--matrix", "1,0;0,1", "--xi", "1,0,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert serialize.subspace_from_json(payload["polarization"]) == Subspace.from_vectors(
        3, [[1, 0, 0], [0, 1, 0]]
    )


def test_polarize_runs_one_sweep(tmp_path, capsys, forms_and_sweeps):
    # The selection and its signature are two readings of one sweep.
    rng = Random(73)
    for m in (2, 5, 8):
        form = write_json(tmp_path, f"form{m}.json", serialize.skew_form_to_json(random_skew_form(rng, m)))
        flag = write_json(tmp_path, f"flag{m}.json", serialize.flag_to_json(random_flag(rng, m)))
        for extra in ([], ["--flag", flag]):
            forms_and_sweeps["sweeps"] = 0
            code, out, _ = run(capsys, "polarize", form, *extra, "--json")
            assert code == 0 and len(json.loads(out)["signature"]) == m
            assert forms_and_sweeps["sweeps"] == 1


@pytest.mark.parametrize("algebra, xi", [
    ("g54", "1,2,3,4,5"), ("g54", "0,2,0,1,1"), ("g54", "0,0,0,1,1"),
    ("g615", "1,2,3,4,5,6"), ("g615", "1,0,1,0,0,1"), ("heisenberg:2", "1,0,1,0,1"),
])
def test_vergne_builds_one_coadjoint_form_and_runs_one_sweep(capsys, forms_and_sweeps, algebra, xi):
    code, out, _ = run(capsys, "vergne", algebra, f"--xi={xi}", "--json")
    assert code == 0 and set(json.loads(out)) == {"polarization", "isotropy", "stratum", "cell"}
    assert forms_and_sweeps == {"forms": 1, "sweeps": 1}


def test_vergne_rejects_non_jh_flag(tmp_path, capsys):
    algebra = write_json(
        tmp_path, "heis.json", {"dim": 3, "brackets": [[2, 3, ["1", "0", "0"]]]}
    )
    flag = write_json(
        tmp_path,
        "flag.json",
        {"dim": 3, "columns": [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]},
    )
    code, _, err = run(capsys, "vergne", algebra, "--xi", "1,0,0", "--flag", flag)
    assert code == 1
    assert "Jordan" in err


def test_vergne_rejects_wrong_xi_length(capsys):
    code, _, _ = run(capsys, "vergne", "g54", "--xi", "1,0")
    assert code == 1


def test_vergne_rejects_string_bracket_indices(tmp_path, capsys):
    algebra = write_json(tmp_path, "alg.json", {"dim": 3, "brackets": [["2", "3", ["1", "0", "0"]]]})
    code, out, err = run(capsys, "vergne", algebra, "--xi", "1,0,0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: bracket index '2'")


def test_vergne_accepts_leading_minus_in_xi(capsys):
    _, glued, _ = run(capsys, "vergne", "g54", "--xi=-1,0,0,0,1", "--json")
    code, out, _ = run(capsys, "vergne", "g54", "--xi", "-1,0,0,0,1", "--json")
    assert code == 0
    assert out == glued
    assert json.loads(out)["cell"] == [4]


def test_leading_minus_in_matrix(capsys):
    code, out, _ = run(capsys, "builtin", "axb", "--matrix", "-1,2;0,1", "--json")
    assert code == 0
    assert json.loads(out)["algebra"]["dim"] == 3
    code, out, _ = run(capsys, "vergne", "axb", "--matrix", "-1,0;0,1", "--xi", "-1,2,3", "--json")
    assert code == 0
    _, glued, _ = run(capsys, "vergne", "axb", "--matrix=-1,0;0,1", "--xi=-1,2,3", "--json")
    assert out == glued


def test_filtration_symplectic_plane(tmp_path, capsys):
    path = write_json(tmp_path, "b2.json", {"dim": 2, "upper": [[1, 2, "1"]]})
    code, out, _ = run(capsys, "filtration", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 1 and payload["i_seq"] == [1] and payload["j_seq"] == [2]


def test_jump_subcommand(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "w.json",
        {"ambient_dim": 5, "basis": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"], ["0", "0", "0", "0", "1"]]},
    )
    code, out, _ = run(capsys, "jump", path, "--json")
    assert code == 0
    assert json.loads(out)["jump"] == [4]


def test_stratum_subcommand(capsys):
    code, out, _ = run(capsys, "stratum", "g615", "--xi", "0,1,0,0,0,0", "--json")
    assert code == 0
    assert json.loads(out)["stratum"] == [1, 2, 3, 4, 3, 4]


def test_cell_subcommand(capsys):
    code, out, _ = run(capsys, "cell", "--m", "5", "--jumps", "4", "--json")
    assert code == 0
    assert json.loads(out)["signature"] == [1, 2, 3, 2, 3]


def test_cell_rejects_inadmissible(capsys):
    code, _, err = run(capsys, "cell", "--m", "4", "--jumps", "1,2")
    assert code == 1
    assert "cannot arise" in err


def test_cell_rejects_negative_dimension(capsys):
    code, out, err = run(capsys, "cell", "--m", "-2")
    assert code == 1
    assert out == ""
    assert "non-negative" in err


def test_verify_small_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "projector-sum", "--trials", "10", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["failures"] == []


def test_verify_unknown_suite_rejected(capsys):
    code, _, _ = run(capsys, "verify", "no-such-suite")
    assert code == 1


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, "verify", "lagrangian-contract", "--trials", trials)
    assert code == 1
    assert out == ""
    assert err == f"error: trials must be at least 1, got {trials}\n"


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "filtration-lemmas", "--trials", "15", "--seed", "9", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_probe_preset(capsys):
    code, out, _ = run(capsys, "probe", "--preset", "g615-discontinuity", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "bounded-away evidence"
    assert len(payload["samples"]) == 20
    assert all(abs(s["gap"] - 1.0) <= 1e-9 for s in payload["samples"])


def test_probe_spec_file(tmp_path, capsys):
    spec = write_json(
        tmp_path,
        "probe.json",
        {
            "algebra": "g54",
            "base": ["1", "0", "0", "0", "0"],
            "direction": ["0", "1", "0", "0", "0"],
            "t_star": "0",
            "samples": ["1/2", "1/4", "1/8"],
        },
    )
    code, out, _ = run(capsys, "probe", spec, "--json")
    assert code == 0
    payload = json.loads(out)
    assert [s["t"] for s in payload["samples"]] == ["1/2", "1/4", "1/8"]


def test_probe_without_input_rejected(capsys):
    code, _, _ = run(capsys, "probe")
    assert code == 1


def test_builtin_subcommand(capsys):
    code, out, _ = run(capsys, "builtin", "g615", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"]["dim"] == 6
    assert len(payload["algebra"]["brackets"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["vergne", "heisenberg:1", "--xi=1,0,0", "--matrix", "1"],
        ["stratum", "g54", "--xi", "0,1,0,0,0", "--matrix", "1"],
        ["builtin", "g615", "--matrix", "1"],
        ["stratum", "g54", "--xi", "0,1,0,0,0", "--matrix", ""],
        ["builtin", "g54", "--matrix", ""],
    ],
)
def test_matrix_for_a_named_algebra_exits_1_with_one_line(capsys, argv):
    # Only axb reads --matrix; any other builtin name refuses it, even empty.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: only axb takes an action matrix, not {argv[1]!r}\n"


@pytest.mark.parametrize(
    "command, matrix",
    [("vergne", "1"), ("stratum", "1;2"), ("stratum", "")],
)
def test_matrix_next_to_an_algebra_file_exits_1_with_one_line(tmp_path, capsys, command, matrix):
    # The file's algebra is read as it is, so a matrix next to it is refused
    # before it is parsed, even a ragged one.
    from lagsel.lie import builtin

    path = write_json(tmp_path, "h1.json", serialize.lie_algebra_to_json(builtin("heisenberg:1").algebra))
    assert run(capsys, command, path, "--xi", "1,0,0")[0] == 0
    code, out, err = run(capsys, command, path, "--xi", "1,0,0", "--matrix", matrix)
    assert code == 1
    assert out == ""
    assert err == f"error: only axb takes an action matrix, not the algebra file {path!r}\n"


@pytest.mark.parametrize("command", [["builtin", "axb"], ["vergne", "axb", "--xi", "1"]])
def test_empty_axb_matrix_exits_1_with_one_line(capsys, command):
    # An empty --matrix is a 1 x 0 matrix, not a missing one.
    code, out, err = run(capsys, *command, "--matrix", "")
    assert code == 1
    assert out == ""
    assert err == "error: axb parameter must be a square matrix of size >= 1\n"


def test_version_agrees_with_the_package_and_pyproject(capsys):
    import lagsel

    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (declared,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"lagsel {declared}\n"
    assert lagsel.__version__ == declared


def test_unknown_subcommand_is_invalid_input(capsys):
    code, _, _ = run(capsys, "definitely-not-a-command")
    assert code == 1


def test_missing_subcommand_is_invalid_input(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def run_with_closed_stdout(*args):
    # The reader closes its end before the CLI writes, as `| head` can.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        return subprocess.run(
            [sys.executable, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)


def test_closed_stdout_pipe_exits_quietly():
    proc = run_with_closed_stdout("-m", "lagsel.cli", "builtin", "g54", "--json")
    assert proc.stderr == b""
    assert proc.returncode == 0


def test_closed_stdout_pipe_keeps_failed_check_exit_code():
    script = (
        "import sys\n"
        "from lagsel import cli\n"
        "from lagsel.suites import SuiteReport\n"
        "cli.run_suite = lambda name, seed, trials: SuiteReport(name, seed, 1, 1, ['trial 0: planted'])\n"
        "sys.exit(cli.main(['verify', 'casimir', '--json']))\n"
    )
    proc = run_with_closed_stdout("-c", script)
    assert proc.stderr == b""
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "command, payload",
    [
        ("polarize", {"dim": 2, "upper": 7}),
        ("polarize", {"dim": 65, "upper": []}),
        ("polarize", {"dim": True, "upper": []}),
        ("jump", {"ambient_dim": 2, "basis": 7}),
        ("jump", {"ambient_dim": 65, "basis": []}),
        ("vergne", {"dim": 2, "brackets": 7}),
        ("vergne", {"dim": 2, "brackets": [], "labels": 5}),
        ("vergne", {"dim": 2, "brackets": [], "labels": ["X", 2]}),
        ("vergne", {"dim": 65, "brackets": []}),
        # An index pair given twice, with different or equal values.
        ("polarize", {"dim": 2, "upper": [[1, 2, "1"], [1, 2, "5"]]}),
        ("polarize", {"dim": 3, "upper": [[1, 2, "1"], [2, 3, "1"], [1, 2, "1"]]}),
        ("vergne", {"dim": 2, "brackets": [[1, 2, ["0", "1"]], [1, 2, ["1", "0"]]]}),
        ("vergne", {"dim": 2, "brackets": [[1, 2, ["1", "0"]], [1, 2, ["1", "0"]]]}),
        # A required list field that is missing or misspelled.
        ("polarize", {"dim": 3, "uper": [[1, 2, "1"]]}),
        ("filtration", {"dim": 3, "uper": [[1, 2, "1"]]}),
        ("vergne", {"dim": 2, "bracket": [[1, 2, ["1", "0"]]]}),
    ],
)
def test_malformed_files_exit_1_with_one_line(tmp_path, capsys, command, payload):
    path = write_json(tmp_path, "input.json", payload)
    argv = [command, path] + (["--xi", "1,0"] if command == "vergne" else [])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exponent_notation_in_xi_exits_1_with_one_line(capsys):
    code, out, err = run(capsys, "vergne", "g54", "--xi=1e200000,0,0,0,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: refusing exponent notation") and err.count("\n") == 1


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, _, err = run(capsys, "polarize", str(path))
    assert code == 1
    assert err == f"error: JSON nested too deeply in {path}\n"


@pytest.mark.parametrize(
    "flag, message",
    [
        ({"dim": "2", "columns": [["1", "0"], ["0", "1"]]}, "'dim' must be an integer >= 0"),
        ({"dim": 2, "columns": 7}, "'columns' must be a list"),
        ({"dim": 65, "columns": []}, "dimension 65 exceeds the limit of 64"),
    ],
)
def test_malformed_flag_files_exit_1(tmp_path, capsys, flag, message):
    form = write_json(tmp_path, "form.json", {"dim": 2, "upper": [[1, 2, "1"]]})
    code, _, err = run(capsys, "polarize", form, "--flag", write_json(tmp_path, "flag.json", flag))
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("vergne", "heisenberg:32", "--xi", "1"),
        ("builtin", "heisenberg:32"),
        ("cell", "--m", "65"),
    ],
)
def test_dimension_cap_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: dimension 65 exceeds the limit of 64\n"


def test_probe_spec_rejects_non_list_samples(tmp_path, capsys):
    spec = {"algebra": "g54", "base": ["1", "0", "0", "0", "0"], "direction": ["0"] * 5, "samples": 3}
    code, _, err = run(capsys, "probe", write_json(tmp_path, "spec.json", spec))
    assert code == 1
    assert err == "error: 'samples' must be a list\n"


@pytest.mark.parametrize("zeros", [200, 400])
def test_probe_basis_entry_beyond_float_range_gives_a_report(tmp_path, capsys, zeros):
    # The selection's RREF basis has an entry near 10^zeros: at 200 its square
    # is beyond any float, at 400 the entry itself is.
    spec = {
        "algebra": "g54",
        "base": ["1" + "0" * zeros, "1", "0", "0", "0"],
        "direction": ["0", "1", "0", "0", "0"],
        "samples": ["1/2", "1/4"],
    }
    code, out, err = run(capsys, "probe", write_json(tmp_path, "spec.json", spec), "--json")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert [s["t"] for s in payload["samples"]] == ["1/2", "1/4"]
    assert all(0.0 <= s["gap"] <= 1.0 for s in payload["samples"])


def test_failed_internal_recheck_exits_2_with_one_line(capsys, monkeypatch):
    # A Jacobi eigensolve allowed no sweep cannot converge: the library's
    # RuntimeError for an internal failure.
    from lagsel import probe

    monkeypatch.setattr(probe, "_JACOBI_MAX_SWEEPS", 0)
    code, out, err = run(capsys, "probe", "--preset", "g54-discontinuity")
    assert code == 2
    assert out == ""
    assert err == "check failed: Jacobi eigensolve did not converge\n"


def _long_digit_pair(tmp_path):
    """An m = 4 form with one-digit entries and a flag of 2,000-digit entries.

    Every input entry is under Python's int-to-string digit limit; the
    selection's entries are over it.
    """
    rng = Random(2000)
    form = {"dim": 4, "upper": [[i, j, str(rng.randint(1, 9))] for i in range(1, 5) for j in range(i + 1, 5)]}
    columns = [[str(rng.randrange(10**1999, 10**2000)) for _ in range(4)] for _ in range(4)]
    return write_json(tmp_path, "form.json", form), write_json(tmp_path, "flag.json", {"dim": 4, "columns": columns})


def _parse_unlimited(text):
    """The payload's subspaces, loaded with the digit limit (where the build has one) lifted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(text)
        chain = payload["chain"] if "chain" in payload else [payload["selection"]]
        return [serialize.subspace_from_json(sub) for sub in chain]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_answers_longer_than_the_digit_limit_are_printed(tmp_path, capsys):
    from lagsel.presymplectic import vergne_select
    from lagsel.schubert import filtration

    form_path, flag_path = _long_digit_pair(tmp_path)
    form = serialize.skew_form_from_json(json.loads(Path(form_path).read_text()))
    flag = serialize.flag_from_json(json.loads(Path(flag_path).read_text()))
    code, out, err = run(capsys, "polarize", form_path, "--flag", flag_path, "--json")
    assert (code, err) == (0, "")
    [selection] = _parse_unlimited(out)
    assert selection.basis == vergne_select(form, flag).basis
    assert any(abs(x.numerator) >= 10**4300 for row in selection.basis for x in row)
    code, out, err = run(capsys, "filtration", form_path, "--flag", flag_path, "--json")
    assert (code, err) == (0, "")
    assert [p.basis for p in _parse_unlimited(out)] == [p.basis for p in filtration(form, flag).chain]
    code, out, _ = run(capsys, "polarize", form_path, "--flag", flag_path)
    assert code == 0 and out.startswith("selection: dimension ")


def test_printing_a_long_answer_keeps_the_digit_limit_for_input(tmp_path, capsys):
    # A build with no cap (CPython before 3.10.7) reads 0 here and parses any length.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    form_path, flag_path = _long_digit_pair(tmp_path)
    assert run(capsys, "polarize", form_path, "--flag", flag_path, "--json")[0] == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    path = write_json(tmp_path, "long.json", {"dim": 2, "upper": [[1, 2, "1" * 5000]]})
    code, out, err = run(capsys, "polarize", path, "--json")
    if limit:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0


def test_unexpected_exception_exits_2_with_one_line(capsys, monkeypatch):
    # A TypeError from a handler is neither bad input nor a failed re-check.
    from lagsel import cli

    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "vergne_polarization", broken)
    code, out, err = run(capsys, "vergne", "g54", "--xi=1,0,0,0,0")
    assert code == 2
    assert out == ""
    assert err == "internal error: TypeError: unsupported operand\n"
    assert "Traceback" not in err


def test_overlong_algebra_name_exits_1_with_one_line(capsys):
    # A name over 255 bytes is not a file; it is a builtin name that fails
    # the dimension cap, not an OSError from the file system.
    code, out, err = run(capsys, "vergne", "heisenberg:" + "1" * 400, "--xi=1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: dimension ") and err.endswith(" exceeds the limit of 64\n")
    assert err.count("\n") == 1


def _count_parsers(monkeypatch):
    """A one-item list counting the ``_Parser`` objects built from now on."""
    from lagsel import cli

    built, init = [0], cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    return built


def test_a_run_builds_only_its_own_commands_parser(tmp_path, capsys, monkeypatch):
    form = write_json(tmp_path, "form.json", {"dim": 5, "upper": [[3, 4, "-1"]]})
    sub = write_json(tmp_path, "sub.json", serialize.subspace_to_json(Subspace.full(3)))
    valid = [
        ["polarize", form],
        ["vergne", "g54", "--xi", "0,1,0,0,0"],
        ["filtration", form],
        ["jump", sub],
        ["stratum", "g615", "--xi", "0,1,0,0,0,0"],
        ["cell", "--m", "5", "--jumps", "4"],
        ["verify", "lagrangian-contract", "--trials", "1"],
        ["probe", "--preset", "g54-instratum"],
        ["builtin", "g54"],
    ]
    built = _count_parsers(monkeypatch)
    for argv in valid:
        built[0] = 0
        assert run(capsys, *argv, "--json")[0] == 0, argv
        assert built[0] == 2, argv


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["--version"], ["bogus"], ["pol", "x"], ["-h", "polarize"], ["--json", "polarize", "x"]],
)
def test_help_version_and_bad_commands_build_every_parser(capsys, monkeypatch, argv):
    built = _count_parsers(monkeypatch)
    try:
        main(argv)
    except SystemExit:  # help and version exit 0, as argparse does
        pass
    capsys.readouterr()
    assert built[0] == 10


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lagsel", "cell", "--m", "5", "--jumps", "4", "--json"])
    assert main() == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"cell": [4], "signature": [1, 2, 3, 2, 3]}
    monkeypatch.setattr(sys, "argv", ["lagsel"])
    assert main() == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
