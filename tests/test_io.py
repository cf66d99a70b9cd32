"""JSON round trips and path-precise schema errors."""

import json

import numpy as np
import pytest

from conftest import (
    random_complete_measurement,
    random_density,
    random_ensemble,
    random_kraus,
    random_state,
)
from twotime import io as tio
from twotime import (
    BipartiteDensity,
    BipartiteOperator,
    Ensemble,
    FORMAT_VERSION,
    KrausOperator,
    Measurement,
    NormalizationError,
    SchemaError,
    check_completeness,
    parse_document,
    reversal_scenario,
    serialize_document,
)


def doc(kind, dim, payload):
    return {"format_version": FORMAT_VERSION, "kind": kind, "dim": dim, "payload": payload}


def mat(rows):
    return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in rows]


# ---------------------------------------------------------------------------
# Round trips.

def assert_round_trip(obj):
    envelope = serialize_document(obj)
    json.dumps(envelope)  # must be plain JSON types throughout
    back = parse_document(envelope)
    assert serialize_document(back) == envelope
    via_text = parse_document(json.dumps(envelope))
    assert serialize_document(via_text) == envelope


def test_state_round_trip(rng):
    assert_round_trip(random_state(rng, 3))


def test_ensemble_round_trip(rng):
    assert_round_trip(random_ensemble(rng, 2, n_members=3))


def test_density_round_trip(rng):
    assert_round_trip(random_density(rng, 2))


def test_measurement_round_trip(rng):
    assert_round_trip(random_complete_measurement(rng, 2, n_outcomes=3))
    _, m1, _ = reversal_scenario()
    assert_round_trip(m1)


def test_observable_round_trip(rng):
    assert_round_trip(random_kraus(rng, 3))


def test_bipartite_density_round_trip(rng):
    assert_round_trip(BipartiteDensity(random_density(rng, 2).mat))


def test_operator_set_round_trip():
    ops = (
        BipartiteOperator(np.eye(4) / 2.0),
        BipartiteOperator(np.diag([1.0, 0.0, 0.0, 1.0])),
    )
    envelope = serialize_document(ops)
    back = parse_document(envelope)
    assert isinstance(back, tuple)
    assert all(isinstance(x, BipartiteOperator) for x in back)
    assert serialize_document(back) == envelope


def test_parsed_types():
    state = parse_document(doc("two_time_state", 2, {"coeffs": mat(np.eye(2) / np.sqrt(2))}))
    assert state.coeffs.shape == (2, 2)
    obs = parse_document(doc("observable", 2, {"matrix": mat(np.diag([1.0, -1.0]))}))
    assert isinstance(obs, KrausOperator)


def test_loaded_measurement_is_usable():
    _, m1, _ = reversal_scenario()
    loaded = parse_document(serialize_document(m1))
    assert isinstance(loaded, Measurement)
    ok, defect = check_completeness(loaded)
    assert ok and defect <= 1e-10


def test_plain_reals_accepted_for_complex_entries():
    state = parse_document(doc(
        "two_time_state", 2,
        {"coeffs": [[0.7071067811865476, 0], [0, 0.7071067811865476]]},
    ))
    assert np.allclose(state.coeffs, np.eye(2) / np.sqrt(2), atol=1e-12)


# ---------------------------------------------------------------------------
# Envelope errors.

def test_malformed_json_text():
    with pytest.raises(SchemaError, match="malformed JSON"):
        parse_document("{not json")


def test_non_object_document():
    with pytest.raises(SchemaError, match="document"):
        parse_document("[1, 2]")


def test_version_mismatch():
    with pytest.raises(SchemaError, match="format_version"):
        parse_document(doc("two_time_state", 2, {}) | {"format_version": "2"})


def test_unknown_kind():
    with pytest.raises(SchemaError, match="document.kind"):
        parse_document(doc("wavefunction", 2, {}))


def test_missing_fields_name_their_path():
    with pytest.raises(SchemaError, match="missing required field 'dim'"):
        parse_document({"format_version": FORMAT_VERSION, "kind": "ensemble", "payload": {}})
    with pytest.raises(SchemaError, match="payload: missing required field 'coeffs'"):
        parse_document(doc("two_time_state", 2, {}))


def test_bad_dim():
    with pytest.raises(SchemaError, match="document.dim"):
        parse_document(doc("two_time_state", 0, {"coeffs": []}))
    with pytest.raises(SchemaError, match="document.dim"):
        parse_document(doc("two_time_state", True, {"coeffs": []}))


# ---------------------------------------------------------------------------
# Payload errors: the path points at the offending entry.

def test_wrong_matrix_shape_names_the_path():
    with pytest.raises(SchemaError, match=r"payload\.coeffs"):
        parse_document(doc("two_time_state", 2, {"coeffs": [[1.0, 0.0]]}))


def test_bad_entry_names_row_and_column():
    bad = [[[1.0, 0.0], "x"], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(SchemaError, match=r"payload\.coeffs\[0\]\[1\]"):
        parse_document(doc("two_time_state", 2, {"coeffs": bad}))


def test_non_finite_entry_rejected():
    bad = mat(np.eye(2))
    bad[0][0] = [float("inf"), 0.0]
    with pytest.raises(SchemaError, match=r"payload\.coeffs\[0\]\[0\]"):
        parse_document(doc("two_time_state", 2, {"coeffs": bad}))


def test_boolean_entry_rejected():
    bad = mat(np.eye(2))
    bad[0][0] = [True, 0.0]
    with pytest.raises(SchemaError, match=r"payload\.coeffs\[0\]\[0\]"):
        parse_document(doc("two_time_state", 2, {"coeffs": bad}))


def test_unnormalized_state_rejected():
    with pytest.raises(SchemaError, match="Frobenius norm"):
        parse_document(doc("two_time_state", 2, {"coeffs": mat(np.eye(2))}))


def test_bad_ensemble_weights_keep_their_machine_code():
    member = {"weight": 0.5, "coeffs": mat(np.eye(2) / np.sqrt(2))}
    bad = doc("ensemble", 2, {"members": [member, member | {"weight": 0.6}]})
    with pytest.raises(NormalizationError, match=r"payload\.members"):
        parse_document(bad)


def test_nested_measurement_error_names_the_outcome():
    good = mat(np.eye(2) / np.sqrt(2))
    bad = doc("measurement", 2, {"outcomes": [
        {"name": "a", "kraus": [good]},
        {"name": "b", "kraus": [[[1.0]]]},
    ]})
    with pytest.raises(SchemaError, match=r"payload\.outcomes\[1\]\.kraus\[0\]"):
        parse_document(bad)


def test_non_psd_density_keeps_its_machine_code():
    m = np.diag([0.75, 0.75, -0.25, -0.25])
    with pytest.raises(Exception) as err:
        parse_document(doc("density_vector", 2, {"matrix": mat(m)}))
    assert "payload.matrix" in str(err.value)
    assert not isinstance(err.value, SchemaError)


def test_serialize_rejects_foreign_objects():
    with pytest.raises(SchemaError):
        serialize_document({"not": "a domain object"})
    with pytest.raises(SchemaError):
        serialize_document(())


def test_integer_too_large_for_a_float_names_its_path():
    # float(10**400) overflows; each site reports its JSON path instead.
    huge = "1" + "0" * 400
    pair_entry = ('{"format_version": "1", "kind": "two_time_state", "dim": 1, '
                  '"payload": {"coeffs": [[[%s, 0]]]}}' % huge)
    with pytest.raises(SchemaError, match=r"payload\.coeffs\[0\]\[0\]\[0\]: integer too large"):
        parse_document(pair_entry)
    plain_entry = ('{"format_version": "1", "kind": "two_time_state", "dim": 1, '
                   '"payload": {"coeffs": [[%s]]}}' % huge)
    with pytest.raises(SchemaError, match=r"payload\.coeffs\[0\]\[0\]: integer too large"):
        parse_document(plain_entry)
    weight = ('{"format_version": "1", "kind": "ensemble", "dim": 1, "payload": '
              '{"members": [{"weight": %s, "coeffs": [[[1, 0]]]}]}}' % huge)
    with pytest.raises(SchemaError, match=r"payload\.members\[0\]\.weight: integer too large"):
        parse_document(weight)


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"a": ' * 100_000 + "0" + "}" * 100_000,
    "1" + "0" * 5000,  # beyond the interpreter's integer-string limit
    b"\xff",
], ids=["deep-array", "deep-object", "long-integer", "bad-utf8"])
def test_unparseable_json_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="malformed JSON"):
        parse_document(text)


# ---------------------------------------------------------------------------
# The canonical-matrix fast path against the per-entry loop.

def loop_matrix(node, path, rows, cols):
    """The per-entry parse every matrix took before the fast path."""
    if not isinstance(node, list) or len(node) != rows:
        raise SchemaError(f"{path}: expected a {rows}x{cols} matrix as nested arrays")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}[{i}]: expected a row of {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = tio._complex(entry, f"{path}[{i}][{j}]")
    return out


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("node", [
    [[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [1, -1]]],
    [[[2**63, -(2**63)], [2**64 + 1, 2**53 + 1]], [[-(2**64) - 1, 0], [10**300, 3]]],
    [[[0.1, 1e-05]], [[5e-324, -1.7976931348623157e308]]],
])
def test_pair_matrix_matches_the_loop_bit_for_bit(node):
    rows, cols = len(node), len(node[0])
    fast = tio._pair_matrix(node, cols)
    assert fast is not None
    assert_bits_equal(fast, loop_matrix(node, "m", rows, cols))
    assert_bits_equal(tio._matrix(node, "m", rows, cols), fast)


def test_pair_matrix_matches_the_loop_on_random_matrices(rng):
    for d in (1, 2, 3, 6, 16):
        values = rng.normal(size=(d, d, 2)) * 10.0 ** rng.integers(-300, 300, size=(d, d, 2))
        node = json.loads(json.dumps(values.tolist()))
        assert_bits_equal(tio._pair_matrix(node, d), loop_matrix(node, "m", d, d))


@pytest.mark.parametrize("node", [
    [[[1.0, 0.0], 0.5], [[0.0, 0.0], [1.0, 0.0]]],  # a plain real beside pairs
    [[1.0, 0.0], [[0.0, 0.0], [1.0, 0.0]]],         # a row of plain reals
    [[1, 0], [0, 1]],                               # plain reals only
    [[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[np.float64(1.0), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
])
def test_non_canonical_matrices_take_the_loop(node):
    assert tio._pair_matrix(node, 2) is None
    try:
        expected = loop_matrix(node, "m", 2, 2)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            tio._matrix(node, "m", 2, 2)
        assert str(err.value) == str(exc)
    else:
        assert_bits_equal(tio._matrix(node, "m", 2, 2), expected)


def test_serialized_matrices_are_lists_of_floats(rng):
    envelope = serialize_document(random_state(rng, 2))
    coeffs = envelope["payload"]["coeffs"]
    assert type(coeffs) is list
    assert all(type(x) is float for row in coeffs for pair in row for x in pair)
