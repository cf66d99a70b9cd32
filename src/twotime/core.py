"""Core objects and pairings for pre- and post-selected quantum systems.

A two-time state describes a d-level system between a preparation at an
early time and a post-selection at a late time.  This module fixes the
storage conventions used by the whole package:

* A two-time state is a (d, d) complex array ``coeffs``.  Entry
  ``coeffs[i, j]`` multiplies the elementary process "post-select basis
  state i, prepare basis state j": the row index belongs to the
  post-selection (bra) side, the column index to the preparation (ket)
  side.  States are stored with unit Frobenius norm.

* Operators pair with states *bilinearly*: :func:`contract_pure` sums
  ``op[i, j] * coeffs[i, j]`` with no conjugation of either argument.
  For a product state built from a post-selection vector ``phi`` and a
  preparation vector ``psi`` this equals
  ``<phi|op|psi> / (||phi|| * ||psi||)``.

* d x d arrays are vectorized **row-major**: ``vec(a)[i*d + j] = a[i, j]``.
  Every d^2-dimensional object in the package (density vectors, Kraus
  density vectors, bipartite images) uses this single convention.

* A :class:`DensityVector` is the two-time analogue of a density matrix:
  the (d^2, d^2) Hermitian, positive semidefinite, trace-1 array
  ``sum_r p_r vec(state_r) vec(state_r)^dag``.  The Born-like weight of a
  single operator against it is :func:`sandwich`; the weight of a whole
  Kraus family is :func:`pair`.

Every tolerance the package decides validity with is defined once, in
the tolerance table below; the other modules import their entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NormalizationError,
    NotHermitianError,
    NotPositiveError,
    ValidationError,
)

__all__ = [
    "ATOL",
    "PSD_ATOL",
    "COMPLETENESS_ATOL",
    "DENOMINATOR_EPS",
    "PSD_CLIP_TOL",
    "MAX_DENSE_BYTES",
    "TwoTimeState",
    "KrausOperator",
    "DensityVector",
    "KrausDensityVector",
    "identity_two_time_vector",
    "vec",
    "unvec",
    "contract_pure",
    "sandwich",
    "pair",
    "hermiticity_defect",
]

# ---------------------------------------------------------------------------
# The tolerance table: every validity decision in the package reads one of
# these entries, and no other module spells a tolerance of its own.  Each
# entry says what it protects against and which checks read it.

#: Rounding read as a violation, or a rescale by a factor already 1
#: moving last bits.  Read by the Hermiticity checks, the sums of ensemble
#: weights and choice probabilities, the renormalization of states,
#: members and traces, the upper limit of ``complete_operator_set(scale=)``
#: and the simulator's degenerate z.
ATOL = 1e-12

#: Eigensolver or sandwich rounding read as a negative weight.  Read by
#: the positivity checks and by ``_clamped``, the one clamp of outcome
#: weights (``sandwich``, ``pair``, the probability rules and
#: ``predict_probabilities``).
PSD_ATOL = 1e-10

#: Rounded Kraus operators read as an incomplete measurement
#: (``max|sum A^dag A - I|``) or as a different one.  Read by
#: ``Measurement.is_complete``, ``check_completeness``,
#: ``measurements_equal`` and ``povm_to_twotime``.
COMPLETENESS_ATOL = 1e-10

#: Division by a vanishing total weight: a post-selection that never
#: succeeds.  Read by the probability rules, ``predict_probabilities``,
#: the tomography clip and the weak values.
DENOMINATOR_EPS = 1e-14

#: A reconstruction far from positive repaired silently: below
#: -PSD_CLIP_TOL it is malformed.  Read by ``reconstruct`` (default
#: ``clip_tol``) and ``sampling_clip_tol`` (its floor).
PSD_CLIP_TOL = 1e-6

#: Inputs written to fewer digits than float64 holds rejected at load.
#: Read by ``_unit_trace``, ``states._unit_members``, the state-document
#: norm check and ``reconstruct``'s probability checks.
_LOAD_NORM_ATOL = 1e-9

#: Cancellation normalized into a state.  Relative: a combination of
#: different unit states whose norm is at most ``_ZERO_NORM`` times the sum
#: of its coefficients' moduli is zero.  Read by ``superpose``.
_ZERO_NORM = 1e-14

#: Rounding noise realized as a Kraus branch or an ensemble member.  Read
#: by ``_kraus_set_from_psd_matrix`` (``complete_operator_set``,
#: ``povm_to_twotime``) and ``ensemble_from_density``.
_EIG_CUTOFF = 1e-12

#: Norms, sums and eigenvalue routines overflowing float64: the largest
#: real or imaginary part a document may hold, which keeps a d x d squared
#: Frobenius norm finite up to d = 9,000.  Read by ``io``'s matrix readers.
_MAX_ENTRY = 1e150

#: The one allocation budget, in bytes, of a dense array: ``_check_budget``
#: raises ValidationError first for ``KrausOperator.identity`` (16 d^2
#: bytes), ``TomographySet.measurement`` (64 d^6 bytes, so d <= 11),
#: ``TomographySet.labels`` (352 d^4 bytes, so d <= 24), the simulator's
#: tables (``montecarlo._table_bytes``: full-rank tomography to d = 8),
#: the stack of a measurement's Kraus density vectors
#: (``measurements._kraus_density_bytes``: 64 n d^4 + 32 b d^2 + 2 MiB for
#: n outcomes of b branches, so the tomography set's to d = 5),
#: ``predict_probabilities`` (192 d^4 + 4 KiB, so d <= 28),
#: ``ensemble_from_density`` (80 d^4 + 16 KiB, so d <= 35) and the CLI's
#: input files (4 bytes a byte of JSON text, so 32 MiB).
MAX_DENSE_BYTES = 128 * 2**20


def _check_budget(nbytes: int, what: str) -> None:
    """Raise ValidationError naming ``what`` if ``nbytes`` exceeds ``MAX_DENSE_BYTES``."""
    if nbytes > MAX_DENSE_BYTES:
        raise ValidationError(f"{what} need {nbytes} bytes, above the "
                              f"{MAX_DENSE_BYTES}-byte allocation budget")


def _check_distribution(probs, noun: str, nouns: str) -> None:
    """Raise NormalizationError unless the floats ``probs`` (each a ``noun``, together
    the ``nouns``) are finite, strictly positive and sum to 1 within ``ATOL``."""
    for p in probs:
        if not math.isfinite(p) or p <= 0.0:
            raise NormalizationError(f"{noun} {p!r} is not strictly positive")
    total = sum(probs)
    if abs(total - 1.0) > ATOL:
        raise NormalizationError(f"{nouns} sum to {total!r}, expected 1")


def vec(a: np.ndarray) -> np.ndarray:
    """Vectorize a (d, d) array row-major: ``vec(a)[i*d + j] = a[i, j]``, as a complex copy."""
    a = _as_array(a, "a")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square 2-d array, got shape {a.shape}")
    return a.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Invert :func:`vec`: reshape a length-d^2 vector to (d, d) row-major, as a complex copy."""
    v = _as_array(v, "v")
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d array, got shape {v.shape}")
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionMismatchError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute entry of ``m - m^dag`` for a square, finite array ``m``."""
    return _hermiticity_defect(_as_square_complex(m, "m"))


def _hermiticity_defect(mat: np.ndarray) -> float:
    """:func:`hermiticity_defect` of an array already read, without a second copy."""
    return float(np.max(np.abs(mat - mat.conj().T)))


def _as_int(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """``value`` as an int in ``[low, high)``; bools, floats, strings and NaN are rejected."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= int(value) < high:
            return int(value)
    raise ValidationError(f"{name} must be an integer in [{low}, {high}), got {value!r}")


def _as_number(value, name: str, kind: type = float):
    """``kind(value)`` for ``kind`` float or complex, or a ValidationError naming ``name``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be a number: {exc}") from None


def _as_instance(obj, kind: type, name: str, error: type = ValidationError):
    """``obj``, checked to be a ``kind``: the reader of every domain-object argument."""
    if not isinstance(obj, kind):
        raise error(f"{name} must be of type {kind.__name__}, got {type(obj).__name__}")
    return obj


def _as_tuple(items, name: str) -> tuple:
    """``items`` as a tuple; what is not iterable raises ValidationError naming ``name``."""
    try:
        return tuple(items)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {type(items).__name__}") from None


def _as_pairs(items, name: str) -> tuple:
    """``items`` as a tuple of 2-tuples, or a ValidationError naming ``name``."""
    pairs = tuple(_as_tuple(item, f"each of the {name}") for item in _as_tuple(items, name))
    if any(len(item) != 2 for item in pairs):
        raise ValidationError(f"each of the {name} must be a pair")
    return pairs


def _as_array(a, name: str, dtype: type = np.complex128) -> np.ndarray:
    """A copy of ``a`` as a ``dtype`` array.

    What numpy cannot read as numbers (a string that is not one, a ragged
    list, an integer beyond float64) raises ValidationError naming
    ``name``, as does complex input to a real ``dtype``.
    """
    try:
        if np.dtype(dtype).kind != "c" and np.iscomplexobj(a):
            raise ValidationError(f"{name} must be real, got complex entries")
        return np.array(a, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} is not an array of numbers: {exc}") from None


def _as_square_complex(a, name: str) -> np.ndarray:
    """``_as_array(a, name)``, checked to be square, nonempty and finite."""
    arr = _as_array(a, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must be a square 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise DegenerateInputError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _side_of_pair_matrix(mat: np.ndarray, name: str) -> int:
    d = math.isqrt(mat.shape[0])
    if d * d != mat.shape[0]:
        raise DimensionMismatchError(
            f"{name} must act on a d^2-dimensional space, got side {mat.shape[0]}"
        )
    return d


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """``(mat + mat^dag) / 2`` over the last two axes, halved first (exactly): no sum overflows."""
    half = mat * 0.5
    return half + np.swapaxes(half, -1, -2).conj()


def _unit_scaled(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` times the power of two that puts its largest real or imaginary part in [0.5, 1):
    exact where the result is normal, so all power-of-two multiples of ``x`` give the same
    bits.  An all-zero ``x`` raises DegenerateInputError naming ``what``."""
    parts = x.view(np.float64)
    peak = np.abs(parts).max(initial=0.0)
    if peak == 0.0:
        raise DegenerateInputError(f"{what} is zero")
    return np.ldexp(parts, -np.frexp(peak)[1]).view(np.complex128)


def _check_hermitian_psd(mat: np.ndarray, name: str, relative: bool = False) -> np.ndarray:
    """Validate Hermiticity and positivity, return the symmetrized array.

    ``ATOL`` and ``PSD_ATOL`` are absolute, for matrices of trace 1.
    With ``relative``, for a trace that is unconstrained, they are
    multiplied by the largest diagonal entry when it exceeds 1.
    """
    scale = max(1.0, float(np.abs(mat.diagonal()).max())) if relative else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _hermiticity_defect(mat)
    if defect > ATOL * scale:
        raise NotHermitianError(
            f"{name} is not Hermitian: defect {defect:.3e} exceeds {ATOL * scale}")
    mat = _hermitian_part(mat)
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if min_eig < -PSD_ATOL * scale:
        raise NotPositiveError(
            f"{name} is not positive semidefinite: min eigenvalue {min_eig:.3e}"
        )
    return mat


def _unit_trace(mat: np.ndarray, name: str) -> np.ndarray:
    """Check that ``mat``'s trace is 1 within ``_LOAD_NORM_ATOL``; rescale it to 1, freeze it."""
    with np.errstate(over="ignore"):
        trace = float(np.trace(mat).real)
    if abs(trace - 1.0) > _LOAD_NORM_ATOL:
        raise NormalizationError(f"{name} trace {trace!r} is not 1")
    if abs(trace - 1.0) > ATOL:
        mat = mat / trace
    return _freeze(mat)


class _PairMatrix:
    """A (d^2, d^2) Hermitian PSD matrix in one field, checked once and stored frozen.

    The base of :class:`DensityVector`, :class:`KrausDensityVector` and
    the bipartite density and operator.  ``_field`` names the field and
    the argument in shape and finiteness errors, ``_name`` the object in
    the others.  A ``_trace_one`` matrix is held to the absolute ``ATOL``
    and ``PSD_ATOL`` and stored rescaled to trace exactly 1; any other
    has an unconstrained trace, so its tolerances scale with its largest
    diagonal entry.
    """

    def __post_init__(self) -> None:
        mat = _as_square_complex(getattr(self, self._field), self._field)
        _side_of_pair_matrix(mat, self._name)
        self._store(_check_hermitian_psd(mat, self._name, relative=not self._trace_one))

    @classmethod
    def _from_psd(cls, mat: np.ndarray):
        """``cls(mat)`` for a finite ``mat`` that is Hermitian PSD by construction.

        Such as a Gram matrix ``V^T V*``, a clipped ``eigh``, or the
        conjugate of a checked matrix, with trace 1 within
        ``_LOAD_NORM_ATOL`` where ``cls`` needs it.  It skips the
        Hermiticity and ``eigvalsh`` checks and stores the bit-identical
        array: the same symmetrization and trace rescale.
        """
        obj = object.__new__(cls)
        obj._store(_hermitian_part(mat))
        return obj

    def _store(self, mat: np.ndarray) -> None:
        mat = _unit_trace(mat, self._name) if self._trace_one else _freeze(mat)
        object.__setattr__(self, self._field, mat)

    @property
    def dim(self) -> int:
        return math.isqrt(getattr(self, self._field).shape[0])


@dataclass(frozen=True, eq=False)
class TwoTimeState:
    """A pure two-time state.

    Parameters
    ----------
    coeffs : array_like
        Square complex array; ``coeffs[i, j]`` weights "post-select i,
        prepare j".  The constructor copies and rescales to unit
        Frobenius norm (the storage convention), so any nonzero square
        array is accepted, at any scale float64 holds: an array to be
        rescaled is first brought exactly into range by a power of two,
        so every such multiple of one array stores the same bits.

    Raises
    ------
    DimensionMismatchError
        If the array is not square and 2-dimensional.
    DegenerateInputError
        If the array is zero (or contains non-finite entries).
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = _as_square_complex(self.coeffs, "coeffs")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(c))
        # Dividing by a norm already equal to 1 up to rounding would
        # perturb last bits and break exact serialization round trips.
        if abs(norm - 1.0) > ATOL:
            c = _unit_scaled(c, "two-time state coefficient array")
            c = c / np.linalg.norm(c)
        object.__setattr__(self, "coeffs", _freeze(c))

    @classmethod
    def _view(cls, coeffs: np.ndarray) -> "TwoTimeState":
        """The state whose ``coeffs`` is ``coeffs`` itself, a read-only row of a checked stack."""
        state = object.__new__(cls)
        object.__setattr__(state, "coeffs", coeffs)
        return state

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class KrausOperator:
    """A d x d operator: one branch of a measurement, or an observable.

    Entries are stored as given (no normalization); the zero operator is
    allowed.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _freeze(_as_square_complex(self.entries, "entries")))

    @classmethod
    def _view(cls, entries: np.ndarray) -> "KrausOperator":
        """The operator whose ``entries`` is ``entries`` itself: read-only, square and finite."""
        op = object.__new__(cls)
        object.__setattr__(op, "entries", entries)
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "KrausOperator":
        d = _as_int(dim, "dimension")
        _check_budget(16 * d * d, f"the dimension-{d} identity entries")
        return cls._view(_freeze(np.eye(d, dtype=np.complex128)))


def identity_two_time_vector(dim: int) -> KrausOperator:
    """The identity operator viewed as a two-time vector.

    Contracting it with a state gives the trace of the state's
    coefficient array, the normalization that turns contractions into
    weak values.
    """
    return KrausOperator.identity(dim)


@dataclass(frozen=True, eq=False)
class DensityVector(_PairMatrix):
    """A mixture of two-time states in vectorized form.

    ``mat`` is the (d^2, d^2) array ``sum_r p_r vec(state_r) vec(state_r)^dag``
    for some ensemble of unit-norm states with weights summing to 1.  The
    constructor validates Hermiticity (within ``ATOL``), positivity (min
    eigenvalue >= -``PSD_ATOL``) and unit trace (within
    ``_LOAD_NORM_ATOL``), then stores the symmetrized array rescaled to
    trace exactly 1 (the storage convention, matching the unit-norm
    convention for pure states).
    """

    mat: np.ndarray
    _field, _name, _trace_one = "mat", "density vector", True

    @classmethod
    def from_pure(cls, state: TwoTimeState) -> "DensityVector":
        v = _as_instance(state, TwoTimeState, "state").coeffs.reshape(-1)
        return cls._from_psd(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class KrausDensityVector(_PairMatrix):
    """A Kraus family in vectorized form: ``sum_chi vec(A_chi) vec(A_chi)^dag``.

    Hermitian and positive semidefinite by construction; unlike a
    :class:`DensityVector` its trace is unconstrained, so its Hermiticity
    and positivity tolerances scale with its largest diagonal entry.
    """

    mat: np.ndarray
    _field, _name, _trace_one = "mat", "Kraus density vector", False


def _require_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatchError(f"{what}: dimensions {a} and {b} differ")


def _shared_dim(objs, kind: type, what: str) -> None:
    """Raise unless all of ``objs`` (nonempty) are ``kind`` objects sharing one ``dim``."""
    for obj in objs:
        _as_instance(obj, kind, f"each of the {what}", DimensionMismatchError)
    dims = {obj.dim for obj in objs}
    if len(dims) != 1:
        raise DimensionMismatchError(f"{what} have mixed dimensions {sorted(dims)}")


def _pair_operand(obj, name: str) -> np.ndarray:
    """The stored matrix of a positive-matrix object, or ``obj`` read as a square complex array."""
    if isinstance(obj, _PairMatrix):
        return getattr(obj, obj._field)
    return _as_square_complex(obj, name)


def _operator_stack(ops, empty: Exception) -> np.ndarray:
    """The (k, n, n) stack of ``ops``, each read by ``_pair_operand`` as "operator idx".

    All must share one shape; no operators raises ``empty``.
    """
    mats = [_pair_operand(op, f"operator {idx}") for idx, op in enumerate(_as_tuple(ops, "ops"))]
    if not mats:
        raise empty
    for idx, mat in enumerate(mats):
        if mat.shape != mats[0].shape:
            raise DimensionMismatchError(
                f"operator {idx} has shape {mat.shape}, expected {mats[0].shape}")
    return np.stack(mats)


def contract_pure(op: KrausOperator, state: TwoTimeState) -> complex:
    """Bilinear contraction of an operator with a pure two-time state.

    Returns ``sum_ij op[i, j] * coeffs[i, j]``.  Neither argument is
    conjugated; for a product state this is the matrix element
    ``<phi|op|psi>`` of the normalized post-selection and preparation
    vectors.
    """
    _as_instance(op, KrausOperator, "op")
    _as_instance(state, TwoTimeState, "state")
    _require_same_dim(op.dim, state.dim, "contract_pure")
    return complex(np.sum(op.entries * state.coeffs))


def _clamped(weights, traces):
    """The one rounding clamp of outcome weights: each negative weight within
    ``PSD_ATOL * max(1, tr K)`` of 0, ``tr K`` its entry of ``traces``, reads 0."""
    low = -PSD_ATOL * np.maximum(1.0, traces)
    return np.where((weights < 0.0) & (weights >= low), 0.0, weights)


def sandwich(op: KrausOperator, eta: DensityVector) -> float:
    """Born-like weight of one operator against a density vector.

    Returns ``vec(op)^T . mat . vec(op)*``, which for a pure state's
    density vector equals ``|contract_pure(op, state)|^2``.  The result
    is real and nonnegative for any valid density vector; negatives
    within the positivity slack are clamped to 0.
    """
    _as_instance(op, KrausOperator, "op")
    _as_instance(eta, DensityVector, "eta")
    _require_same_dim(op.dim, eta.dim, "sandwich")
    v = op.entries.reshape(-1)
    val = (v @ eta.mat @ v.conj()).real
    return float(_clamped(val, v.real @ v.real + v.imag @ v.imag))


def pair(kdv: KrausDensityVector, eta: DensityVector) -> float:
    """Weight of a whole Kraus family against a density vector.

    Returns the bilinear Frobenius pairing ``sum_kl K[k, l] * mat[k, l]``
    (no conjugation), which equals ``sum_chi sandwich(A_chi, eta)`` for
    any Kraus decomposition of ``kdv``.
    """
    _as_instance(kdv, KrausDensityVector, "kdv")
    _as_instance(eta, DensityVector, "eta")
    _require_same_dim(kdv.dim, eta.dim, "pair")
    return float(_clamped(np.sum(kdv.mat * eta.mat).real, np.trace(kdv.mat).real))
