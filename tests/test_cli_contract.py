"""The CLI's exit-code contract as a property over generated command lines.

Every argv drawn from the nine subcommands' grammar, with generated JSON
files for forms, flags, subspaces, algebras and probe specs, must end in
exit code 0, 1 or 2 with at most one line on stderr and no traceback.
Dimensions stay at most 8 and lists short, so no example can allocate
without bound; ``main`` runs in process, with no subprocess per example.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from lagsel import serialize
from lagsel.cli import main
from lagsel.lie import builtin
from lagsel.suites import PROBE_PRESETS, suite_names


class File:
    """A generated file argument: its content as text, or as raw bytes."""

    def __init__(self, content):
        self.content = content


def _often(valid, other):
    return st.booleans().flatmap(lambda ok: valid if ok else other)


# Decimal strings of 200 to 1000 digits, as integers and with a fractional part.
_digits = st.sampled_from([200, 240, 400, 1000])
_huge = st.one_of(
    _digits.map(lambda n: "9" * n),
    _digits.map(lambda n: "-1" + "0" * n),
    _digits.map(lambda n: "0." + "0" * n + "7"),
    _digits.map(lambda n: "1" + "0" * n + "/3"),
)
_junk = st.sampled_from(["1/0", "x", "1e3", "", " ", "nan", "1\n2", "--", "-", "0x10", None, True, 1.5, [], {}])
_rational = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-2/3", "0.25", "-1.5", "7"]),
    _huge,
    _junk,
)
_dim = _often(st.integers(0, 8), st.sampled_from([-1, 65, 10**9, "3", None, 2.0]))


def _vector(dim):
    """Mostly ``dim`` rationals, else a short list of any length."""
    return _often(st.lists(_rational, min_size=dim, max_size=dim), st.lists(_rational, max_size=3))


def _vectors(dim, count):
    return st.lists(_vector(dim), min_size=count, max_size=count)


@st.composite
def forms(draw):
    dim = draw(_dim)
    n = dim if isinstance(dim, int) and 0 <= dim <= 8 else 3
    pairs = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)] or [[1, 2]]
    index = _often(st.sampled_from(pairs), st.lists(st.sampled_from([0, 1, 2, n + 1, "1"]), min_size=2, max_size=2))
    upper = draw(st.lists(st.tuples(index, _rational).map(lambda t: [*t[0], t[1]]), max_size=5))
    return {"dim": dim, "upper": upper}


@st.composite
def flags(draw, dim=None):
    dim = draw(_dim) if dim is None else dim
    n = dim if isinstance(dim, int) and 0 <= dim <= 8 else 3
    small = st.integers(-2, 2)
    columns = draw(_often(st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n), _vectors(n, n)))
    return {"dim": dim, "columns": columns}


@st.composite
def subspaces(draw):
    dim = draw(_dim)
    n = dim if isinstance(dim, int) and 0 <= dim <= 8 else 3
    return {"ambient_dim": dim, "basis": draw(_vectors(n, draw(st.integers(0, 4))))}


@st.composite
def algebras(draw):
    dim = draw(_dim)
    n = dim if isinstance(dim, int) and 0 <= dim <= 8 else 3
    index = st.integers(0, n + 1)
    bracket = st.tuples(index, index, st.lists(_rational, min_size=n, max_size=n)).map(list)
    brackets = draw(st.lists(bracket, max_size=4))
    return {"dim": dim, "brackets": brackets}


# Valid algebras reach the polarization and probe code behind the loaders.
_BUILTINS = ("g54", "g615", "heisenberg:1", "heisenberg:2")
_algebra_json = _often(
    st.sampled_from(_BUILTINS).map(lambda kind: serialize.lie_algebra_to_json(builtin(kind).algebra)), algebras()
)


@st.composite
def probe_specs(draw):
    name = draw(st.sampled_from(_BUILTINS + ("axb", "nope")))
    dim = builtin(name).dim if name in _BUILTINS else 3
    spec = {
        "algebra": draw(_often(st.just(name), _algebra_json)),
        "base": draw(_vector(dim)),
        "direction": draw(_vector(dim)),
        "samples": draw(_often(st.lists(_rational, max_size=4), _rational)),
    }
    if draw(st.booleans()):
        spec["t_star"] = draw(_rational)
    if draw(st.booleans()):
        spec["flag"] = draw(flags(dim))
    return spec


def _json_file(payloads):
    return payloads.map(lambda obj: File(json.dumps(obj)))


# Deep nesting, truncated JSON, non-JSON text and bytes that are not UTF-8.
_bad_file = st.one_of(
    st.integers(1, 20000).map(lambda n: File("[" * n + "]" * n)),
    st.integers(1, 20000).map(lambda n: File('{"dim": 2, "upper": ' + "[" * n + "]" * n + "}")),
    st.sampled_from(["", "{", "[1, 2", "null", "3", '"x"', "{}"]).map(File),
    st.just(File(b"\xff\xfe\x00")),
    st.sampled_from(["missing.json", "."]),
)


def _file(payloads):
    return _often(_json_file(payloads), _bad_file)


_names = _BUILTINS + ("axb", "heisenberg:0", "heisenberg:x", "heisenberg:99", "nope", "")
_algebra_arg = st.one_of(st.sampled_from(_names), _digits.map(lambda n: "heisenberg:" + "1" * n), _file(algebras()))
_xi_part = st.one_of(st.sampled_from(["0", "1", "-1", "1/2", "0.5", "x", "1e2", "", "1/0"]), _huge)
_xi = st.lists(_xi_part, max_size=7).map(",".join)
_matrix = st.sampled_from(["1", "1,2;0,3", "1,0;0,1", "2,1,0;0,1,1;0,0,3", "1,2;3", "", ";", "x", "1/0"])


def _option(name, values):
    """The option absent, or given as two tokens, or as ``name=value``."""
    return st.one_of(
        st.just([]),
        values.map(lambda v: [name, v]),
        values.map(lambda v: [f"{name}={v}"]),
    )


def _cmd(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in (p if isinstance(p, list) else [p])])


_flag_opt = st.one_of(st.just([]), _file(flags()).map(lambda f: ["--flag", f]))
_COMMANDS = st.one_of(
    _cmd(st.just("polarize"), _file(forms()), _flag_opt),
    _cmd(st.just("vergne"), _algebra_arg, _option("--xi", _xi), _flag_opt, _option("--matrix", _matrix)),
    _cmd(st.just("filtration"), _file(forms()), _flag_opt),
    _cmd(st.just("jump"), _file(subspaces()), _flag_opt),
    _cmd(st.just("stratum"), _algebra_arg, _option("--xi", _xi), _flag_opt, _option("--matrix", _matrix)),
    _cmd(
        st.just("cell"),
        _option("--m", st.sampled_from(["0", "1", "5", "8", "-2", "64", "65", "1000000000", "x"])),
        _option("--jumps", st.lists(st.sampled_from(["1", "2", "3", "0", "-1", "x", ""]), max_size=4).map(",".join)),
    ),
    # The suites run at most 2 trials; their defaults take seconds each.
    _cmd(
        st.just("verify"),
        st.sampled_from(suite_names() + ["nope"]),
        _option("--seed", st.sampled_from(["0", "7", "-3", str(10**30), "x"])),
        st.sampled_from(["-1", "0", "1", "2", "x"]).map(lambda t: ["--trials", t]),
    ),
    _cmd(
        st.just("probe"),
        st.one_of(st.just([]), _file(probe_specs()).map(lambda f: [f])),
        _option("--preset", st.sampled_from(sorted(PROBE_PRESETS) + ["nope"])),
    ),
    _cmd(st.just("builtin"), _algebra_arg.filter(lambda a: isinstance(a, str)), _option("--matrix", _matrix)),
)
_ARGV = _cmd(
    _COMMANDS,
    st.sampled_from([[], ["--json"], ["--bogus"], ["--help"], ["extra"]]),
)


def _materialize(argv, directory):
    out = []
    for n, token in enumerate(argv):
        if isinstance(token, File):
            path = directory / f"arg{n}.json"
            if isinstance(token.content, bytes):
                path.write_bytes(token.content)
            else:
                path.write_text(token.content, encoding="utf-8")
            token = str(path)
        elif token in ("missing.json", "."):
            token = str(directory / token)
        out.append(token)
    return out


def test_every_command_line_exits_0_1_or_2_with_at_most_one_stderr_line(tmp_path, capsys):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=_ARGV)
    def check(argv):
        args = _materialize(argv, tmp_path)
        try:
            code = main(args)
        except SystemExit as exc:  # --help prints usage and exits 0, as argparse does
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (args, code, err)
        assert err.count("\n") <= 1 and "Traceback" not in err, (args, err)

    check()
