"""JSON wire formats: round-trips and rejection of malformed payloads."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagsel import serialize
from lagsel.lie import Functional, builtin
from lagsel.linalg import Matrix, Subspace
from lagsel.presymplectic import Flag, SkewForm
from lagsel.sampling import random_flag, random_skew_form, random_subspace


def test_rational_string_forms():
    assert serialize.rational_to_str(Fraction(3)) == "3"
    assert serialize.rational_to_str(Fraction(-2, 7)) == "-2/7"
    assert serialize.rational_from_obj("-2/7") == Fraction(-2, 7)
    assert serialize.rational_from_obj(5) == Fraction(5)


def test_rational_rejects_floats_and_junk():
    with pytest.raises(ValueError):
        serialize.rational_from_obj(0.5)
    with pytest.raises(ValueError):
        serialize.rational_from_obj(True)
    with pytest.raises(ValueError):
        serialize.rational_from_obj("3/0")


@pytest.mark.parametrize("text", ["1e200000", "1E3", "-2.5e-1"])
def test_rational_refuses_exponent_notation(text):
    # Refused before Fraction parses the string: "1e200000" would be a 664,386-bit integer.
    with pytest.raises(ValueError, match="exponent notation"):
        serialize.rational_from_obj(text)
    with pytest.raises(ValueError, match="exponent notation"):
        serialize.skew_form_from_json({"dim": 2, "upper": [[1, 2, text]]})


def test_rational_accepts_decimal_strings():
    assert serialize.rational_from_obj("0.5") == Fraction(1, 2)
    assert serialize.rational_from_obj("-1.25") == Fraction(-5, 4)


def test_subspace_round_trip_random():
    rng = Random(3)
    for _ in range(30):
        sub = random_subspace(rng, rng.randint(1, 6))
        payload = json.loads(json.dumps(serialize.subspace_to_json(sub)))
        assert serialize.subspace_from_json(payload) == sub


def test_subspace_load_canonicalizes():
    payload = {"ambient_dim": 2, "basis": [["2", "4"]]}
    assert serialize.subspace_from_json(payload) == Subspace.from_vectors(2, [[1, 2]])


def test_subspace_rejects_bad_shapes():
    with pytest.raises(ValueError):
        serialize.subspace_from_json({"basis": []})
    with pytest.raises(ValueError):
        serialize.subspace_from_json({"ambient_dim": 2, "basis": [["1"]]})


def test_skew_form_round_trip():
    rng = Random(5)
    for _ in range(30):
        form = random_skew_form(rng, rng.randint(1, 6))
        payload = json.loads(json.dumps(serialize.skew_form_to_json(form)))
        assert serialize.skew_form_from_json(payload).matrix == form.matrix


def test_skew_form_rejects_diagonal_entries():
    with pytest.raises(ValueError):
        serialize.skew_form_from_json({"dim": 2, "upper": [[1, 1, "1"]]})
    with pytest.raises(ValueError):
        serialize.skew_form_from_json({"dim": 2, "upper": [[2, 1, "1"]]})


def test_flag_round_trip():
    rng = Random(7)
    for _ in range(20):
        flag = random_flag(rng, rng.randint(1, 5))
        payload = json.loads(json.dumps(serialize.flag_to_json(flag)))
        assert serialize.flag_from_json(payload).basis_matrix == flag.basis_matrix


def test_flag_rejects_singular_columns():
    with pytest.raises(ValueError):
        serialize.flag_from_json({"dim": 2, "columns": [["1", "0"], ["1", "0"]]})


def test_lie_algebra_round_trip():
    for kind in ("g54", "g615", "heisenberg:2"):
        algebra = builtin(kind).algebra
        payload = json.loads(json.dumps(serialize.lie_algebra_to_json(algebra)))
        again = serialize.lie_algebra_from_json(payload)
        assert again.dim == algebra.dim
        assert again.table == algebra.table
        assert again.labels == algebra.labels


def test_lie_algebra_rejects_jacobi_violation():
    payload = {"dim": 3, "brackets": [[1, 2, ["0", "0", "1"]], [1, 3, ["1", "0", "0"]]]}
    with pytest.raises(ValueError):
        serialize.lie_algebra_from_json(payload)


@pytest.mark.parametrize("i, j", [("1", "2"), (1, "2"), (True, 2), (1.0, 2), (0, 2), (1, 4)])
def test_lie_algebra_rejects_bad_bracket_indices(i, j):
    payload = {"dim": 3, "brackets": [[i, j, ["0", "0", "1"]]]}
    # LieAlgebra itself rejects keys outside 1 <= i < j <= dim.
    with pytest.raises(ValueError, match="bracket (index|key)"):
        serialize.lie_algebra_from_json(payload)


def test_functional_round_trip():
    xi = Functional.of(serialize.vector_from_json(["1", "-2/3", "0"], 3))
    assert serialize.functional_to_json(xi) == ["1", "-2/3", "0"]

def test_filtration_trace_serialization():
    from lagsel.schubert import filtration

    form = SkewForm.from_upper_entries(2, [(1, 2, 1)])
    payload = serialize.filtration_trace_to_json(filtration(form))
    assert payload["d"] == 1
    assert payload["i_seq"] == [1]
    assert payload["j_seq"] == [2]
    assert len(payload["chain"]) == 2
    assert payload["chain"][1] == {"ambient_dim": 2, "basis": [["1", "0"]]}


@pytest.mark.parametrize(
    "loader, payload",
    [
        (serialize.skew_form_from_json, {"dim": 2, "upper": 7}),
        (serialize.skew_form_from_json, {"dim": 2, "upper": [[True, 2, "1"]]}),
        (serialize.flag_from_json, {"dim": 2, "columns": 7}),
        (serialize.flag_from_json, {"dim": "2", "columns": [["1", "0"], ["0", "1"]]}),
        (serialize.subspace_from_json, {"ambient_dim": 2, "basis": 7}),
        (serialize.subspace_from_json, {"ambient_dim": 65, "basis": []}),
        (serialize.lie_algebra_from_json, {"dim": 2, "brackets": 7}),
        (serialize.lie_algebra_from_json, {"dim": 2, "brackets": [], "labels": 5}),
        (serialize.lie_algebra_from_json, {"dim": 1, "brackets": [], "labels": "X"}),
        # A required list field that is missing or misspelled.
        (serialize.skew_form_from_json, {"dim": 3, "uper": [[1, 2, "1"]]}),
        (serialize.lie_algebra_from_json, {"dim": 3, "bracket": [[2, 3, ["1", "0", "0"]]]}),
    ],
)
def test_loaders_reject_wrong_field_types(loader, payload):
    with pytest.raises(ValueError):
        loader(payload)


# Arbitrary JSON values, plus objects with each loader's own fields.  Each
# field is well formed half of the time, so that the examples get past the
# first shape check and reach the constructors.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(["0", "1", "-2/3", "1/0", "x"])
    | st.text(max_size=3)
)
_json = _scalars | st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)


def _often(valid, other=_json):
    return st.booleans().flatmap(lambda ok: valid if ok else other)


_dim = _often(st.integers(0, 4))
_vector = st.lists(_often(st.sampled_from([0, 1, -1, "1/2"]), _scalars), max_size=4)
_rows = _often(st.lists(_often(_vector), max_size=4))
_index = _often(st.integers(1, 4), _scalars)
_triples = _often(st.lists(_often(st.tuples(_index, _index, _often(_vector)).map(list)), max_size=3))
LOADER_INPUTS = {
    serialize.rational_from_obj: _json,
    serialize.vector_from_json: _json,
    serialize.subspace_from_json: st.fixed_dictionaries({"ambient_dim": _dim, "basis": _rows}),
    serialize.skew_form_from_json: st.fixed_dictionaries({"dim": _dim, "upper": _triples}),
    serialize.flag_from_json: st.fixed_dictionaries({"dim": _dim, "columns": _rows}),
    serialize.lie_algebra_from_json: st.fixed_dictionaries(
        {"dim": _dim, "brackets": _triples}, optional={"labels": _often(st.lists(st.text(max_size=2), max_size=4))}
    ),
}


@pytest.mark.parametrize("loader", LOADER_INPUTS, ids=lambda f: f.__name__)
def test_loaders_yield_an_object_or_value_error(loader):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(obj=LOADER_INPUTS[loader])
    def check(obj):
        try:
            loader(obj)
        except ValueError:
            pass

    check()
