"""JSON documents for every domain object.

Every document is an envelope::

    {"format_version": "1", "kind": "...", "dim": d, "payload": {...}}

with kind one of ``two_time_state``, ``ensemble``, ``density_vector``,
``measurement``, ``observable``, ``bipartite_density``, ``operator_set``.
Complex numbers are two-element arrays ``[re, im]`` (plain numbers are
accepted on input and read as real); matrices are row-major nested
arrays.  Parsing validates the full object invariants (normalization,
Hermiticity, positivity) and reports errors with the JSON path of the
offending field.  ``serialize_document(parse_document(doc))`` is
field-identical for every valid document.

``_KINDS`` maps each kind to its type, and for a single-matrix kind to
its payload field, array attribute and side; parsing, serialization
and the CLI all read it.  Every matrix of a document is read by
:func:`_matrices`, as one stack: a single-matrix kind's as a stack of
one, an operator set's operators as one stack, and an ensemble's or a
measurement's after one loop over its members or outcomes has checked
their fields and collected their matrices.  So a document with several
faults reports a field error before an entry error, and an entry error
before a norm error or an operator's invariant error: a malformed
operator 1 of an operator set before a non-positive operator 0.

JSON text is decoded by :func:`_loads`: orjson when a byte-level guard
shows it reads the text exactly as ``json.loads`` does, ``json.loads``
otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from itertools import chain, islice
from typing import Any, NamedTuple

import numpy as np
import orjson

from .bipartite import BipartiteDensity, BipartiteOperator
from .core import _LOAD_NORM_ATOL, _MAX_ENTRY, DensityVector, KrausOperator, TwoTimeState
from .errors import SchemaError, TwoTimeError
from .measurements import Measurement
from .states import Ensemble, _unit_members

__all__ = [
    "FORMAT_VERSION",
    "KINDS",
    "parse_document",
    "serialize_document",
]

FORMAT_VERSION = "1"

#: Digits read as "0", and the bytes a number literal can follow
#: (whitespace, "[", ",", ":", "-") as "|".
_LITERAL_STARTS = bytes.maketrans(b"0123456789 \t\n\r[,:-", b"0000000000||||||||")
_LONG_INTEGER = b"|" + b"0" * 19
#: Every byte but the brackets and the quote, deleted to leave the nesting.
_NOT_NESTING = bytes(sorted(set(range(256)) - set(b'[]{}"')))
#: Deepest nesting handed to orjson, which has no depth limit of its own.
_ORJSON_MAX_DEPTH = 64


def _orjson_reads_as_json(raw: bytes) -> bool:
    """Whether orjson is safe on ``raw`` and reads it as ``json.loads`` does.

    orjson 3.8 crashes the interpreter on deep nesting, and it reads an
    integer literal outside [-2**63, 2**64) as a float where ``json``
    keeps an int.  So this declines text with a literal of 19 or more
    digits (a digit run in a string may decline it too), text nested
    deeper than ``_ORJSON_MAX_DEPTH``, and text with a backslash: there
    an escaped quote could hide where a string ends, so brackets in
    strings could not be told from the nesting.
    """
    if b"\\" in raw:
        return False
    if _LONG_INTEGER in b"|" + raw.translate(_LITERAL_STARTS):  # "|" for the start of text
        return False
    # Without backslashes every quote opens or closes a string.
    nesting = b"".join(raw.translate(None, _NOT_NESTING).split(b'"')[::2])
    for _ in range(_ORJSON_MAX_DEPTH):
        if not nesting:
            return True
        nesting = nesting.replace(b"[]", b"").replace(b"{}", b"")
    return not nesting


def _loads(text: str | bytes) -> Any:
    """``json.loads(text)``: the same value, type for type and bit for bit, or the same error.

    orjson decodes the text when :func:`_orjson_reads_as_json` allows
    it; ``json.loads`` decodes everything else, and everything orjson
    rejects (NaN and Infinity tokens, numbers that overflow to inf, lone
    surrogates, a UTF-8 byte order mark, UTF-16 and UTF-32 bytes, and
    malformed text, whose errors are therefore ``json``'s).
    """
    try:
        raw = text.encode() if isinstance(text, str) else text
        if _orjson_reads_as_json(raw):
            return orjson.loads(raw)
    except (UnicodeEncodeError, orjson.JSONDecodeError):  # lone surrogates; orjson's refusals
        pass
    return json.loads(text)


def _fail(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise _fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise _fail(path, f"missing required field '{key}'")
    return obj[key]


def _number(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise _fail(path, f"expected a number, got {type(node).__name__}")
    try:
        val = float(node)
    except OverflowError:
        raise _fail(path, "integer too large for a float") from None
    if not math.isfinite(val):
        raise _fail(path, f"non-finite number {node!r}")
    return val


def _leaf_array(leaves: list, bound: float = sys.float_info.max) -> np.ndarray | None:
    """The float64 array of ``leaves`` if every leaf is a JSON number (exactly ``float``
    or ``int``, so not ``bool``) of magnitude at most the finite ``bound``, else None."""
    if not set(map(type, leaves)) <= {float, int}:
        return None
    try:
        flat = np.array(leaves, dtype=np.float64)
    except OverflowError:
        return None
    return flat if np.abs(flat).max(initial=0.0) <= bound else None  # also false for nan and inf


def _numbers(nodes: list, path_of) -> np.ndarray:
    """The float64 array of the finite JSON numbers ``nodes``, read in one pass; only if
    that fails, node by node with :func:`_number`, so the first bad node i fails at
    ``path_of(i)``."""
    flat = _leaf_array(nodes)
    if flat is not None:
        return flat
    return np.array([_number(node, path_of(i)) for i, node in enumerate(nodes)])


def _complex(node: Any, path: str) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(_number(node, path), 0.0)
    if isinstance(node, list) and len(node) == 2:
        return complex(_number(node[0], path + "[0]"), _number(node[1], path + "[1]"))
    raise _fail(path, "expected a complex number as [re, im] (or a plain real number)")


def _dim(envelope: dict) -> int:
    dim = _get(envelope, "dim", "document")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise _fail("document.dim", f"expected a positive integer, got {dim!r}")
    return dim


def _wrap(path: str, exc: TwoTimeError) -> TwoTimeError:
    # Keep the specific class (and its machine code); prepend the path.
    return type(exc)(f"{path}: {exc}")


def _norm_error(path: str, norm: float) -> SchemaError:
    """The error for state coefficients at ``path`` whose Frobenius norm is not 1."""
    return _fail(path, f"coefficients have Frobenius norm {norm!r}, expected 1")


def _canonical_stack(nodes: list, side: int) -> np.ndarray | None:
    """The (n, side, side) stack of ``nodes`` if every node is canonical, else None.

    A canonical node is ``side`` rows of ``side`` ``[re, im]`` pairs whose
    leaves are JSON numbers (exactly ``float`` or ``int``, so not
    ``bool``) of magnitude at most ``_MAX_ENTRY``.  The float64 leaves of
    every node are read in one pass and viewed as complex128, which keeps
    every bit, the sign of zero included (``re + 1j * im`` would not).
    """
    if not all(type(m) is list and len(m) == side for m in nodes):
        return None
    rows = list(chain.from_iterable(nodes))
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {side}:
        return None
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    flat = _leaf_array(list(chain.from_iterable(entries)), _MAX_ENTRY)
    if flat is None:
        return None
    return flat.view(np.complex128).reshape(len(nodes), side, side)


def _matrices(nodes: list, side: int, path_of) -> np.ndarray:
    """The (n, side, side) stack of the matrix ``nodes``, node i reported at ``path_of(i)``.

    Canonical nodes are read in one :func:`_canonical_stack` pass.
    Anything else, such as plain-real leaves, is read node by node and
    entry by entry: the first node with a bad shape or entry, or with a
    part beyond ``_MAX_ENTRY``, fails at the path of that entry (of its
    largest part, for the bound).
    """
    stack = _canonical_stack(nodes, side)
    if stack is not None:
        return stack
    mats = []
    for n, node in enumerate(nodes):
        path = path_of(n)
        if not isinstance(node, list) or len(node) != side:
            raise _fail(path, f"expected a {side}x{side} matrix as nested arrays")
        rows = []
        for i, row in enumerate(node):
            if not isinstance(row, list) or len(row) != side:
                raise _fail(f"{path}[{i}]", f"expected a row of {side} entries")
            rows.append([_complex(entry, f"{path}[{i}][{j}]") for j, entry in enumerate(row)])
        mat = np.array(rows, dtype=np.complex128)
        parts = np.abs(mat.view(np.float64))
        if parts.max() > _MAX_ENTRY:
            i, j = divmod(int(parts.argmax()) // 2, side)
            raise _fail(f"{path}[{i}][{j}]", f"part of magnitude {float(parts.max())!r} exceeds "
                                             f"the largest accepted {_MAX_ENTRY:g}")
        mats.append(mat)
    return np.stack(mats)


def _read_ensemble(payload: dict, d: int) -> Ensemble:
    members = _get(payload, "members", "payload")
    if not isinstance(members, list) or not members:
        raise _fail("payload.members", "expected a nonempty array of members")
    weights, nodes = [], []
    for idx, node in enumerate(members):
        where = f"payload.members[{idx}]"
        weights.append(_number(_get(node, "weight", where), f"{where}.weight"))
        nodes.append(_get(node, "coeffs", where))
    coeffs_at = "payload.members[{}].coeffs".format
    stack = _unit_members(_matrices(nodes, d, coeffs_at),
                          lambda r, norm: _norm_error(coeffs_at(r), norm))
    try:
        return Ensemble._from_stack(np.array(weights), stack)
    except TwoTimeError as exc:
        raise _wrap("payload.members", exc) from exc


def _read_measurement(payload: dict, d: int) -> Measurement:
    outcomes = _get(payload, "outcomes", "payload")
    if not isinstance(outcomes, list) or not outcomes:
        raise _fail("payload.outcomes", "expected a nonempty array of outcomes")
    nodes, firsts, sizes, names = [], [], [], []
    for idx, node in enumerate(outcomes):
        where = f"payload.outcomes[{idx}]"
        kraus = _get(node, "kraus", where)
        if not isinstance(kraus, list) or not kraus:
            raise _fail(f"{where}.kraus", "expected a nonempty array of matrices")
        name = node.get("name", "")
        if not isinstance(name, str):
            raise _fail(f"{where}.name", f"expected a string, got {type(name).__name__}")
        firsts.append(len(nodes))
        nodes += kraus
        sizes.append(len(kraus))
        names.append(name)

    def kraus_at(i: int) -> str:
        mu = bisect_right(firsts, i) - 1
        return f"payload.outcomes[{mu}].kraus[{i - firsts[mu]}]"

    return Measurement._from_stack(_matrices(nodes, d, kraus_at), sizes, names)


def _read_operator_set(payload: dict, d: int) -> tuple:
    ops_node = _get(payload, "operators", "payload")
    if not isinstance(ops_node, list) or not ops_node:
        raise _fail("payload.operators", "expected a nonempty array of matrices")
    where = "payload.operators[{}]".format
    ops = []
    for idx, mat in enumerate(_matrices(ops_node, d * d, where)):
        try:
            ops.append(BipartiteOperator(mat))
        except TwoTimeError as exc:
            raise _wrap(where(idx), exc) from exc
    return tuple(ops)


class _Kind(NamedTuple):
    """The type a document kind reads as.

    A single-matrix kind also names its payload field, the type's array
    attribute and the matrix side as a power of the document's ``dim``.
    """

    type: type
    field: str = ""
    attr: str = ""
    power: int = 1


_KINDS = {
    "two_time_state": _Kind(TwoTimeState, "coeffs", "coeffs"),
    "ensemble": _Kind(Ensemble),
    "density_vector": _Kind(DensityVector, "matrix", "mat", 2),
    "measurement": _Kind(Measurement),
    "observable": _Kind(KrausOperator, "matrix", "entries"),
    "bipartite_density": _Kind(BipartiteDensity, "matrix", "rho", 2),
    "operator_set": _Kind(tuple),
}

KINDS = tuple(_KINDS)


def _kind_of(obj) -> str | None:
    """The kind whose type ``obj`` is (a nonempty tuple of operators for
    ``operator_set``), or None."""
    if isinstance(obj, tuple):
        is_set = obj and all(isinstance(x, BipartiteOperator) for x in obj)
        return "operator_set" if is_set else None
    return next((kind for kind, spec in _KINDS.items() if isinstance(obj, spec.type)), None)


def parse_document(doc):
    """Parse a document (JSON text, bytes, or an already-loaded dict).

    Returns the domain object for the document's kind:
    :class:`TwoTimeState`, :class:`Ensemble`, :class:`DensityVector`,
    :class:`Measurement`, :class:`KrausOperator` (observable),
    :class:`BipartiteDensity`, or a tuple of :class:`BipartiteOperator`.

    Raises
    ------
    SchemaError
        On malformed JSON, a bad envelope, or a payload shape problem;
        messages carry the JSON path of the offending field.
    TwoTimeError subclasses
        When the payload parses but violates an object invariant (bad
        normalization, non-PSD matrix, ...); the original machine code
        is preserved and the message is path-prefixed.
    """
    if isinstance(doc, (str, bytes)):
        try:
            envelope = _loads(doc)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, bad UTF-8 and over-long
            # integer literals; RecursionError, too deeply nested arrays.
            raise SchemaError(f"malformed JSON: {exc}") from exc
    else:
        envelope = doc
    if not isinstance(envelope, dict):
        raise SchemaError(f"document: expected a JSON object, got {type(envelope).__name__}")

    version = _get(envelope, "format_version", "document")
    if version != FORMAT_VERSION:
        raise SchemaError(
            f"document.format_version: unsupported version {version!r}, expected "
            f"{FORMAT_VERSION!r}"
        )
    kind = _get(envelope, "kind", "document")
    if kind not in KINDS:
        raise SchemaError(
            f"document.kind: unknown kind {kind!r}, expected one of {', '.join(KINDS)}"
        )
    d = _dim(envelope)
    payload = _get(envelope, "payload", "document")
    if kind == "ensemble":
        return _read_ensemble(payload, d)
    if kind == "measurement":
        return _read_measurement(payload, d)
    if kind == "operator_set":
        return _read_operator_set(payload, d)
    spec = _KINDS[kind]
    side = d ** spec.power
    where = f"payload.{spec.field}"
    (mat,) = _matrices([_get(payload, spec.field, "payload")], side, lambda _: where)
    if spec.type is TwoTimeState:
        norm = float(np.linalg.norm(mat))
        if abs(norm - 1.0) > _LOAD_NORM_ATOL:
            raise _norm_error(where, norm)
    try:
        return spec.type(mat)
    except TwoTimeError as exc:
        raise _wrap(where, exc) from exc


def _complex_pairs(values) -> np.ndarray:
    """Complex ``values`` as a float64 array of ``[re, im]`` pairs, shape ``(..., 2)``."""
    z = np.asarray(values, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1)


def _emit_matrix(mat: np.ndarray) -> list:
    return _complex_pairs(mat).tolist()


def serialize_document(obj) -> dict:
    """Serialize a domain object back to its envelope dict."""
    kind = _kind_of(obj)
    if kind is None:
        raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")
    if kind == "ensemble":
        payload = {"members": [{"weight": w, "coeffs": c} for w, c in
                               zip(obj.weights.tolist(), _emit_matrix(obj.coeff_stack))]}
    elif kind == "measurement":
        mats = iter(_emit_matrix(obj.kraus_stack))
        sizes = np.bincount(obj.outcome_of).tolist()
        payload = {"outcomes": [{"name": name, "kraus": list(islice(mats, n))}
                                for name, n in zip(obj.names, sizes)]}
    elif kind == "operator_set":
        payload = {"operators": [_emit_matrix(x.op) for x in obj]}
    else:
        spec = _KINDS[kind]
        payload = {spec.field: _emit_matrix(getattr(obj, spec.attr))}
    dim = obj[0].dim if kind == "operator_set" else obj.dim
    return {"format_version": FORMAT_VERSION, "kind": kind, "dim": dim, "payload": payload}
