"""CLI subcommands, exit-code contract, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lagsel import serialize
from lagsel.cli import main
from lagsel.linalg import Subspace


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
    # A radical that is not a subalgebra ([X5, X4] = X3) fails isotropy_subalgebra's re-check.
    from lagsel import lie

    monkeypatch.setattr(lie, "null_space", lambda form: Subspace.from_vectors(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]))
    code, out, err = run(capsys, "vergne", "g54", "--xi=1,0,0,0,0")
    assert code == 2
    assert out == ""
    assert err == "check failed: isotropy space is not a subalgebra: internal bug\n"



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