"""JSON round trips and path-precise schema errors."""

import json
import math
import struct
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_complete_measurement,
    random_density,
    random_ensemble,
    random_kraus,
    random_state,
)
from twotime import io as tio
from twotime.core import _check_distribution
from twotime import (
    BipartiteDensity,
    BipartiteOperator,
    Ensemble,
    FORMAT_VERSION,
    KrausOperator,
    Measurement,
    NormalizationError,
    NotPositiveError,
    SchemaError,
    TwoTimeError,
    TwoTimeState,
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


def _edge_density():
    matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    matrix[0][3] = matrix[3][0] = [1.7976931348623157e308, 0.0]
    return {"matrix": matrix}


_EDGE_COEFFS = [[[1.797e308, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("kind, payload, path, part", [
    # Unchecked, the state's squared norm overflows and numpy's warning
    # escapes (raised, under this suite's warning filter) ...
    ("two_time_state", {"coeffs": _EDGE_COEFFS}, "payload.coeffs[0][0]", "1.797e+308"),
    ("ensemble", {"members": [{"weight": 0.5, "coeffs": mat(np.eye(2) / np.sqrt(2))},
                              {"weight": 0.5, "coeffs": _EDGE_COEFFS}]},
     "payload.members[1].coeffs[0][0]", "1.797e+308"),
    # ... and the density vector's Hermitian part overflows into a LinAlgError.
    ("density_vector", _edge_density(), "payload.matrix[0][3]", "1.7976931348623157e+308"),
    ("observable", {"matrix": [[1, [0, -1e151]], [0, 1]]}, "payload.matrix[0][1]", "1e+151"),
], ids=["state", "ensemble-member", "density", "observable"])
def test_parts_past_the_largest_accepted_magnitude_name_their_entry(kind, payload, path, part):
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(doc(kind, 2, payload)))
    assert str(info.value) == f"{path}: part of magnitude {part} exceeds the largest accepted 1e+150"


def test_parts_at_the_largest_accepted_magnitude_keep_their_bytes():
    edge = np.diag([1e150, -1e150j])
    got = parse_document(json.dumps(doc("observable", 2, {"matrix": mat(edge)})))
    assert got.entries.tobytes() == edge.tobytes()


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"a": ' * 100_000 + "0" + "}" * 100_000,
    "1" + "0" * 5000,  # beyond the interpreter's integer-string limit
    b"\xff",
    # Every level also holds the string "]", and the innermost a string of
    # "[": counted over the raw text, the brackets read as shallow.
    '["]", ' * 100_000 + '"' + "[" * 100_000 + '"' + "]" * 100_000,
    # Read with every quote as a string edge, the escaped quotes leave only "{}".
    '{"\\"": ' + '["\\"\\"", ' * 100_000 + "0" + "]" * 100_000 + ', "x\\"": 1}',
], ids=["deep-array", "deep-object", "long-integer", "bad-utf8", "deep-array-brackets-in-strings",
        "deep-array-escaped-quotes"])
def test_unparseable_json_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="malformed JSON"):
        parse_document(text)


# ---------------------------------------------------------------------------
# The guarded decoder against json.loads.

def assert_same_value(a, b):
    """Equal type for type; floats bit for bit, the sign of zero included."""
    assert type(a) is type(b)
    if isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_value(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same_value(a[key], b[key])
    else:
        assert a == b


def decode_outcome(loads, text):
    """("value", the decoded value), or (class, message) of the error raised."""
    try:
        return "value", loads(text)
    except Exception as exc:  # noqa: BLE001 - whatever json.loads raises is the reference
        return type(exc), str(exc)


def halfway(x):
    """The exact decimal midpoint between the double ``x`` and the next one up."""
    with localcontext() as ctx:
        ctx.prec = 2000
        return str((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2)


def float_spellings(x):
    return st.sampled_from([repr(x), f"{x:.17g}", f"{x:.25e}"])


@st.composite
def long_mantissa(draw):
    """20-40 significant digits, with or without a point and an exponent."""
    digits = draw(st.sampled_from("123456789")) + draw(st.text("0123456789", min_size=19,
                                                                 max_size=39))
    point = draw(st.integers(1, len(digits)))
    body = digits if point == len(digits) else digits[:point] + "." + digits[point:]
    exponent = draw(st.sampled_from(["", "e", "E", "e+", "e-", "E-"]))
    if exponent:
        body += exponent + str(draw(st.integers(0, 420)))
    return draw(st.sampled_from(["", "-"])) + body


float_token = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(float_spellings),
    st.floats(0.0, 2.2250738585072014e-308).flatmap(float_spellings),  # subnormals
    st.floats(1e-12, 1e12).map(halfway),
    long_mantissa(),
)
int64_edge_token = st.sampled_from([-(2**64), -(2**63), 2**63, 2**64]).flatmap(
    lambda c: st.integers(c - 2, c + 2)).map(str)
number_token = st.one_of(
    float_token,
    int64_edge_token,
    st.integers(-(10**20), 10**20).map(str),
    st.just("1" + "0" * 4999),  # beyond the interpreter's integer-string limit
    st.sampled_from(["NaN", "Infinity", "-Infinity"]),
)
string_token = st.builds(json.dumps, st.one_of(st.text(max_size=6), st.text('[]{}"\\ 0123456789',
                                                                              max_size=8),
                                               st.just("\ud800")),
                         ensure_ascii=st.booleans())
separator = st.sampled_from([",", ", ", " ,\n\t"])
json_text = st.recursive(
    st.one_of(number_token, string_token, st.sampled_from(["true", "false", "null"])),
    lambda kids: st.one_of(
        st.builds(lambda items, sep: "[" + sep.join(items) + "]", st.lists(kids, max_size=4),
                  separator),
        st.builds(lambda pairs, sep: "{" + sep.join(f"{k}: {v}" for k, v in pairs) + "}",
                  st.lists(st.tuples(string_token, kids), max_size=4), separator),
    ),
    max_leaves=10,
)


@st.composite
def json_input(draw):
    """JSON text, maybe nested 60-70 deep or cut short, as str or encoded bytes.

    Half are flat arrays of numbers, which orjson mostly decodes.
    """
    if draw(st.booleans()):
        numbers = st.lists(st.one_of(float_token, int64_edge_token), min_size=1, max_size=12)
        text = "[" + ", ".join(draw(numbers)) + "]"
    else:
        text = draw(json_text)
    if draw(st.integers(0, 4)) == 0:
        depth = draw(st.integers(60, 70))
        text = "[" * depth + text + "]" * depth
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    encoding = draw(st.sampled_from([None, "utf-8", "utf-8-sig", "utf-16"]))
    return text if encoding is None else text.encode(encoding, "surrogatepass")


@settings(max_examples=200, deadline=None)
@given(json_input())
def test_loads_matches_json_loads(text):
    expected = decode_outcome(json.loads, text)
    got = decode_outcome(tio._loads, text)
    if expected[0] == "value":
        assert got[0] == "value"
        assert_same_value(got[1], expected[1])
    else:
        assert got == expected


def test_canonical_documents_take_the_orjson_route(rng):
    objs = (random_density(rng, 3), random_ensemble(rng, 2), random_complete_measurement(rng, 2))
    for obj in objs:
        text = json.dumps(serialize_document(obj))
        with mock.patch.object(tio.json, "loads", side_effect=AssertionError("json.loads")):
            assert serialize_document(parse_document(text)) == serialize_document(obj)


@pytest.mark.parametrize("text, expected", [
    ("[" * 64 + "]" * 64, True),
    ('{"a": ["]]]", [123456789012345678, -123456789012345678]]}', True),
    ('[0.00123456789012345678, 1.5e+0000000000000000007]', True),
    ("[" * 65 + "]" * 65, False),
    ('["[" , ' * 40 + "0" + "]" * 40, True),
    ("1234567890123456789", False),
    ("[-1234567890123456789]", False),
    ('{"a":1234567890123456789}', False),
    ('["\\"", 1]', False),
], ids=["depth-64", "brackets-in-strings", "long-fractions", "depth-65", "shallow-with-strings",
        "long-integer", "long-negative-integer", "long-integer-value", "backslash"])
def test_orjson_guard(text, expected):
    assert tio._orjson_reads_as_json(text.encode()) is expected


def test_nesting_json_refuses_gets_json_s_error():
    # On Python 3.11 json.loads raises RecursionError at this depth, while
    # orjson 3.8 returns the nested lists: only the guard's depth rule keeps
    # _loads raising too.  (Python 3.12 and later may decode it; then both
    # return lists, which == would compare as deep, so only kinds are compared.)
    text = "[" * 1100 + "]" * 1100
    got, want = (decode_outcome(loads, text) for loads in (tio._loads, json.loads))
    assert got[0] is want[0]
    with pytest.raises(SchemaError) as info:
        parse_document(text)
    assert info.value.code == "schema"


# ---------------------------------------------------------------------------
# The canonical stack against the per-entry loop.

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


def at_m(_):
    return "m"


@pytest.mark.parametrize("node", [
    [[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [1, -1]]],
    [[[2**63, -(2**63)], [2**64 + 1, 2**53 + 1]], [[-(2**64) - 1, 0], [10**300, 3]]],
    [[[0.1, 1e-05], [1e150, -1e150]], [[5e-324, -1.7976931348623157e308], [-0.0, 0]]],
    [[[2**63, -(2**63)], [2**64 + 1, 2**53 + 1]], [[-(2**64) - 1, 0], [10**150, 5e-324]]],
])
def test_pair_matrix_matches_the_loop_bit_for_bit(node):
    # Within the bound the stack holds the loop's bits; beyond it the
    # document fails at the entry of its largest part.
    side = len(node)
    expected = loop_matrix(node, "m", side, side)
    parts = np.abs(expected.view(np.float64))
    if parts.max() <= tio._MAX_ENTRY:
        assert_bits_equal(tio._canonical_stack([node], side), expected[None])
        assert_bits_equal(tio._matrices([node], side, at_m), expected[None])
        return
    assert tio._canonical_stack([node], side) is None
    i, j = divmod(int(parts.argmax()) // 2, side)
    with pytest.raises(SchemaError) as err:
        tio._matrices([node], side, at_m)
    assert str(err.value) == (f"m[{i}][{j}]: part of magnitude {float(parts.max())!r} exceeds "
                              "the largest accepted 1e+150")


def test_pair_matrix_matches_the_loop_on_random_matrices(rng):
    for d in (1, 2, 3, 6, 16):
        values = rng.normal(size=(3, d, d, 2)) * 10.0 ** rng.integers(-300, 149, size=(3, d, d, 2))
        nodes = json.loads(json.dumps(values.tolist()))
        expected = np.stack([loop_matrix(node, "m", d, d) for node in nodes])
        assert_bits_equal(tio._canonical_stack(nodes, d), expected)


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
    assert tio._canonical_stack([node], 2) is None
    try:
        expected = loop_matrix(node, "m", 2, 2)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            tio._matrices([node], 2, at_m)
        assert str(err.value) == str(exc)
    else:
        assert_bits_equal(tio._matrices([node], 2, at_m), expected[None])


def test_serialized_matrices_are_lists_of_floats(rng):
    envelope = serialize_document(random_state(rng, 2))
    coeffs = envelope["payload"]["coeffs"]
    assert type(coeffs) is list
    assert all(type(x) is float for row in coeffs for pair in row for x in pair)


# ---------------------------------------------------------------------------
# Ensemble and measurement documents: the one-pass stack against the
# per-matrix loop, and the error each malformed member or outcome reports.

def parse_outcome(parse, text):
    """The parsed object, or (class, code, message) of the error it raised."""
    try:
        return parse(text)
    except TwoTimeError as exc:
        return type(exc), exc.code, str(exc)


def schema(message):
    return SchemaError, "schema", message


def plain_first_entry(envelope, key):
    """A copy of ``envelope`` whose first matrix's [0][0] entry, with imaginary part
    +0.0, is a plain real: the document then takes the per-matrix loop."""
    envelope = json.loads(json.dumps(envelope))
    first = envelope["payload"][key][0]
    matrix = {"members": lambda: first["coeffs"], "outcomes": lambda: first["kraus"][0],
              "operators": lambda: first}[key]()
    re, im = matrix[0][0]
    assert im == 0.0 and math.copysign(1.0, im) > 0
    matrix[0][0] = re
    return envelope


def ensemble_document():
    return doc("ensemble", 2, {"members": [
        {"weight": 0.25, "coeffs": mat([[0.6, 0], [0, 0.8j]])},
        {"weight": 0.5, "coeffs": mat([[0, 0.6], [-0.8, 0]])},
        {"weight": 0.25, "coeffs": mat([[0.5, 0.5], [0.5j, -0.5j]])},
    ]})


def measurement_document():
    return doc("measurement", 2, {"outcomes": [
        {"name": "a", "kraus": [mat([[0.6, 0], [0, 0]])]},
        {"name": "b", "kraus": [mat([[0, 0.8], [0, 0]]), mat([[0, 0], [0, 1]])]},
        {"kraus": [mat([[0, 0], [0, 0]])]},
    ]})


def documents(envelope, key):
    """``envelope`` as canonical JSON text and with a plain-real first entry."""
    return {"canonical": json.dumps(envelope),
            "plain-real": json.dumps(plain_first_entry(envelope, key))}


def _set_leaf(value):
    """A fault that puts ``value`` into the last row's first entry."""
    def fault(node):
        row = node[-1]
        row[0] = [row[0][0], value] if isinstance(row[0], list) else value
    return fault


def _doubled(node):
    return [[[2.0 * x for x in z] if isinstance(z, list) else 2.0 * z for z in row]
            for row in node]


#: (fault applied to members[1], or the value put in its place; the error it reports).
ENSEMBLE_FAULTS = [
    (lambda m: m.update(weight="0.5"),
     schema("payload.members[1].weight: expected a number, got str")),
    (lambda m: m.update(weight=True),
     schema("payload.members[1].weight: expected a number, got bool")),
    (lambda m: m.update(weight=-0.25),
     (NormalizationError, "normalization",
      "payload.members: ensemble weight -0.25 is not strictly positive")),
    (lambda m: m.update(weight=float("nan")),
     schema("payload.members[1].weight: non-finite number nan")),
    (lambda m: m.update(weight=10**400),
     schema("payload.members[1].weight: integer too large for a float")),
    (lambda m: m.pop("weight"),
     schema("payload.members[1]: missing required field 'weight'")),
    (lambda m: m.pop("coeffs"),
     schema("payload.members[1]: missing required field 'coeffs'")),
    (lambda m: m["coeffs"].pop(),
     schema("payload.members[1].coeffs: expected a 2x2 matrix as nested arrays")),
    (lambda m: _set_leaf("x")(m["coeffs"]),
     schema("payload.members[1].coeffs[1][0][1]: expected a number, got str")),
    (lambda m: _set_leaf(float("inf"))(m["coeffs"]),
     schema("payload.members[1].coeffs[1][0][1]: non-finite number inf")),
    (lambda m: m.update(coeffs=_doubled(m["coeffs"])),
     schema("payload.members[1].coeffs: coefficients have Frobenius norm 2.0, expected 1")),
    (lambda m: m.update(coeffs=[[[0.0, 0.0] for _ in row] for row in m["coeffs"]]),
     schema("payload.members[1].coeffs: coefficients have Frobenius norm 0.0, expected 1")),
    (7, schema("payload.members[1]: expected an object, got int")),
]

#: (fault applied to outcomes[1], or the value put in its place; the error it reports).
MEASUREMENT_FAULTS = [
    (lambda o: o.update(kraus=[]),
     schema("payload.outcomes[1].kraus: expected a nonempty array of matrices")),
    (lambda o: o.pop("kraus"),
     schema("payload.outcomes[1]: missing required field 'kraus'")),
    (lambda o: o.update(name=3),
     schema("payload.outcomes[1].name: expected a string, got int")),
    (lambda o: o["kraus"].append(5),
     schema("payload.outcomes[1].kraus[2]: expected a 2x2 matrix as nested arrays")),
    (lambda o: o["kraus"][-1].pop(),
     schema("payload.outcomes[1].kraus[1]: expected a 2x2 matrix as nested arrays")),
    (lambda o: _set_leaf("x")(o["kraus"][-1]),
     schema("payload.outcomes[1].kraus[1][1][0][1]: expected a number, got str")),
    (lambda o: _set_leaf(True)(o["kraus"][-1]),
     schema("payload.outcomes[1].kraus[1][1][0][1]: expected a number, got bool")),
    (lambda o: _set_leaf(float("inf"))(o["kraus"][-1]),
     schema("payload.outcomes[1].kraus[1][1][0][1]: non-finite number inf")),
    ("o", schema("payload.outcomes[1]: expected an object, got str")),
]


def assert_faults_report(make, key, faults):
    for idx, (fault, expected) in enumerate(faults):
        envelope = make()
        entries = envelope["payload"][key]
        if callable(fault):
            fault(entries[1])
        else:
            entries[1] = fault
        for route, text in documents(envelope, key).items():
            assert parse_outcome(parse_document, text) == expected, (idx, route)


def test_malformed_member_reports_the_loops_error():
    assert_faults_report(ensemble_document, "members", ENSEMBLE_FAULTS)


def test_malformed_operator_reports_the_loops_error():
    assert_faults_report(measurement_document, "outcomes", MEASUREMENT_FAULTS)


def test_field_errors_come_before_entry_errors_before_norm_errors():
    # Field errors come first, then entry errors, then norm errors, then the
    # weights' values: repairing the reported fault reveals the next.
    envelope, fresh = ensemble_document(), ensemble_document()["payload"]["members"]
    members = envelope["payload"]["members"]
    members[0].update(weight=-0.25, coeffs=_doubled(members[0]["coeffs"]))
    _set_leaf("x")(members[1]["coeffs"])
    members[2].pop("weight")
    expected = [
        schema("payload.members[2]: missing required field 'weight'"),
        schema("payload.members[1].coeffs[1][0][1]: expected a number, got str"),
        schema("payload.members[0].coeffs: coefficients have Frobenius norm 2.0, expected 1"),
        (NormalizationError, "normalization",
         "payload.members: ensemble weight -0.25 is not strictly positive"),
    ]
    repairs = [lambda: members[2].update(weight=fresh[2]["weight"]),
               lambda: members[1].update(coeffs=fresh[1]["coeffs"]),
               lambda: members[0].update(coeffs=fresh[0]["coeffs"])]
    for error, repair in zip(expected, repairs + [None]):
        assert parse_outcome(parse_document, json.dumps(envelope)) == error
        if repair is not None:
            repair()

    envelope = measurement_document()
    outcomes = envelope["payload"]["outcomes"]
    _set_leaf("x")(outcomes[0]["kraus"][0])
    outcomes[2]["name"] = 3
    assert parse_outcome(parse_document, json.dumps(envelope)) == schema(
        "payload.outcomes[2].name: expected a string, got int")
    outcomes[2]["name"] = "c"
    assert parse_outcome(parse_document, json.dumps(envelope)) == schema(
        "payload.outcomes[0].kraus[0][1][0][1]: expected a number, got str")


def leaf_values(rng, d, offset):
    """A (d, d, 2) float array of Frobenius norm 1 + offset, with signed zeros,
    and +0.0 as the first entry's imaginary part."""
    vals = rng.normal(size=(d, d, 2)) * (rng.random((d, d, 2)) < 0.7)
    vals = np.where(vals == 0.0, rng.choice([0.0, -0.0], size=vals.shape), vals)
    vals[0, 0] = [rng.choice([1.0, -1.0]) + vals[0, 0, 0], 0.0]
    return vals / np.linalg.norm(vals) * (1.0 + offset)


def test_stacked_ensemble_parse_matches_the_loop_bit_for_bit(rng):
    # Norm offsets on both sides of the rescale gates ATOL / 2 and ATOL,
    # and near the load slack: the stack holds TwoTimeState's bits on
    # both routes.
    for d in (1, 2, 3, 4):
        offsets = [0.0, 3e-13, 6e-13, 2e-12, 1e-11, 9e-10, -9e-10]
        values = [leaf_values(rng, d, off) for off in offsets]
        values.append(np.zeros((d, d, 2)))
        values[-1][0, 0] = [1, 0]  # integer leaves
        weights = rng.uniform(0.05, 1.0, len(values))
        envelope = doc("ensemble", d, {"members": [
            {"weight": w, "coeffs": v.tolist()} for w, v in zip(weights / weights.sum(), values)]})
        envelope["payload"]["members"][-1]["coeffs"] = np.asarray(values[-1], int).tolist()
        expected = np.stack([TwoTimeState(v.view(np.complex128)[..., 0]).coeffs for v in values])
        for route, text in documents(envelope, "members").items():
            ens = parse_document(text)
            assert ens.coeff_stack.tobytes() == expected.tobytes(), route
            assert ens.weights.tolist() == (weights / weights.sum()).tolist()
            assert np.shares_memory(ens.members[0][1].coeffs, ens.coeff_stack)


def test_stacked_measurement_parse_matches_the_loop_bit_for_bit(rng):
    for d in (1, 2, 3, 4):
        sets = [[leaf_values(rng, d, 0.0) for _ in range(k)] for k in (1, 3, 2)]
        envelope = doc("measurement", d, {"outcomes": [
            {"kraus": [v.tolist() for v in ops], **({"name": f"o{mu}"} if mu else {})}
            for mu, ops in enumerate(sets)]})
        expected = np.stack([v for ops in sets for v in ops]).view(np.complex128)[..., 0]
        for route, text in documents(envelope, "outcomes").items():
            m = parse_document(text)
            assert m.kraus_stack.tobytes() == expected.tobytes(), route
            assert m.outcome_of.tolist() == [0, 1, 1, 1, 2, 2]
            assert m.names == ("", "o1", "o2")
            assert np.shares_memory(m.outcomes[0].kraus[0].entries, m.kraus_stack)


def test_rejected_ensemble_weights_are_read_once(rng):
    envelope = serialize_document(random_ensemble(rng, 3, n_members=16))
    envelope["payload"]["members"][-1]["weight"] *= 1.5
    with mock.patch("twotime.states._check_distribution", wraps=_check_distribution) as check:
        got = parse_outcome(parse_document, json.dumps(envelope))
    assert check.call_count == 1 and len(check.call_args.args[0]) == 16
    assert got[:2] == (NormalizationError, "normalization")
    assert got[2].startswith("payload.members: ensemble weights sum to ")


@pytest.mark.parametrize("plain_leaf", [False, True], ids=["canonical", "plain-real-leaf"])
def test_large_kraus_entry_is_reported_alike_on_both_routes(rng, plain_leaf):
    envelope = serialize_document(random_complete_measurement(rng, 2))
    envelope["payload"]["outcomes"][1]["kraus"][0][1][0] = [0.0, 1e200]
    if plain_leaf:  # a plain-real entry sends the document to the per-matrix loop
        envelope["payload"]["outcomes"][0]["kraus"][0][0][0] = 0.5
    text = json.dumps(envelope)
    expected = schema("payload.outcomes[1].kraus[0][1][0]: part of magnitude "
                      "1e+200 exceeds the largest accepted 1e+150")
    assert parse_outcome(parse_document, text) == expected


# ---------------------------------------------------------------------------
# Operator-set documents: the operators are read as one stack, so an entry
# error in any operator comes before an operator's invariant error.

def operator_set_document():
    return doc("operator_set", 2, {"operators": [mat(np.eye(4) / 2.0),
                                                 mat(np.diag([1.0, 0.0, 0.0, 1.0]))]})


def not_positive(index):
    return (NotPositiveError, "not-positive",
            f"payload.operators[{index}]: bipartite operator is not positive semidefinite: "
            "min eigenvalue -5.000e-01")


def _set_entry(r, c, value):
    return lambda op: op[r].__setitem__(c, value)


OPERATOR_SET_FAULTS = [
    (_set_entry(2, 3, "x"), schema("payload.operators[1][2][3]: expected a complex number as "
                                   "[re, im] (or a plain real number)")),
    (_set_entry(2, 3, [0.0, "x"]), schema("payload.operators[1][2][3][1]: expected a number, "
                                          "got str")),
    (lambda op: op[2].pop(), schema("payload.operators[1][2]: expected a row of 4 entries")),
    (lambda op: op.pop(), schema("payload.operators[1]: expected a 4x4 matrix as nested arrays")),
    (_set_entry(0, 3, [0.0, 1e200]),
     schema("payload.operators[1][0][3]: part of magnitude 1e+200 exceeds the largest "
            "accepted 1e+150")),
    (_set_entry(1, 1, [-0.5, 0.0]), not_positive(1)),
]


def test_malformed_operator_set_names_the_operator():
    assert_faults_report(operator_set_document, "operators", OPERATOR_SET_FAULTS)


def test_operator_set_entry_errors_come_before_invariant_errors():
    envelope = operator_set_document()
    operators = envelope["payload"]["operators"]
    operators[0][1][1] = [-0.5, 0.0]
    operators[1][2].pop()
    assert parse_outcome(parse_document, json.dumps(envelope)) == schema(
        "payload.operators[1][2]: expected a row of 4 entries")
    operators[1] = mat(np.eye(4))
    assert parse_outcome(parse_document, json.dumps(envelope)) == not_positive(0)


@pytest.mark.parametrize("kind, payload, path, side", [
    ("two_time_state", {"coeffs": [[[1, 0]]]}, "payload.coeffs", 10**6),
    ("ensemble", {"members": [{"weight": 1, "coeffs": [[[1, 0]]]}]},
     "payload.members[0].coeffs", 10**6),
    ("density_vector", {"matrix": [[[1, 0]]]}, "payload.matrix", 10**12),
    ("measurement", {"outcomes": [{"kraus": [[[[1, 0]]]]}]}, "payload.outcomes[0].kraus[0]",
     10**6),
    ("observable", {"matrix": [[[1, 0]]]}, "payload.matrix", 10**6),
    ("bipartite_density", {"matrix": [[[1, 0]]]}, "payload.matrix", 10**12),
    ("operator_set", {"operators": [[[[1, 0]]]]}, "payload.operators[0]", 10**12),
])
def test_huge_dim_fails_at_the_matrix_path(kind, payload, path, side):
    # The side is checked before anything of that size is allocated.
    expected = schema(f"{path}: expected a {side}x{side} matrix as nested arrays")
    assert parse_outcome(parse_document, json.dumps(doc(kind, 10**6, payload))) == expected
