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

Tolerances: ``ATOL`` (1e-12) for numerical equality and Hermiticity,
``PSD_ATOL`` (1e-10) of slack on eigenvalues when testing positivity.
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

#: Absolute tolerance for numerical equality checks.
ATOL = 1e-12

#: Eigenvalue slack allowed when testing positive semidefiniteness.
PSD_ATOL = 1e-10

# Norms below this are treated as exactly zero.
_ZERO_NORM = 1e-14


def vec(a: np.ndarray) -> np.ndarray:
    """Vectorize a (d, d) array row-major: ``vec(a)[i*d + j] = a[i, j]``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square 2-d array, got shape {a.shape}")
    return a.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Invert :func:`vec`: reshape a length-d^2 vector to (d, d) row-major."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d array, got shape {v.shape}")
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionMismatchError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute entry of ``m - m^dag``."""
    return float(np.max(np.abs(m - m.conj().T)))


def _as_int(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """``value`` as an int in ``[low, high)``; bools, floats, strings and NaN are rejected."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= int(value) < high:
            return int(value)
    raise ValidationError(f"{name} must be an integer in [{low}, {high}), got {value!r}")


def _as_square_complex(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128, copy=True)
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


def _check_hermitian_psd(mat: np.ndarray, name: str) -> np.ndarray:
    """Validate Hermiticity and positivity, return the symmetrized array."""
    defect = hermiticity_defect(mat)
    if defect > ATOL:
        raise NotHermitianError(f"{name} is not Hermitian: defect {defect:.3e} exceeds {ATOL}")
    mat = (mat + mat.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if min_eig < -PSD_ATOL:
        raise NotPositiveError(
            f"{name} is not positive semidefinite: min eigenvalue {min_eig:.3e}"
        )
    return mat


def _unit_trace(mat: np.ndarray, name: str) -> np.ndarray:
    """Check that the trace of ``mat`` is 1 within 1e-9, rescale it to exactly 1, freeze it."""
    trace = float(np.trace(mat).real)
    if abs(trace - 1.0) > 1e-9:
        raise NormalizationError(f"{name} trace {trace!r} is not 1")
    if abs(trace - 1.0) > ATOL:
        mat = mat / trace
    return _freeze(mat)


@dataclass(frozen=True, eq=False)
class TwoTimeState:
    """A pure two-time state.

    Parameters
    ----------
    coeffs : array_like
        Square complex array; ``coeffs[i, j]`` weights "post-select i,
        prepare j".  The constructor copies and rescales to unit
        Frobenius norm (the storage convention), so any nonzero square
        array is accepted.

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
        norm = float(np.linalg.norm(c))
        if norm <= _ZERO_NORM:
            raise DegenerateInputError("two-time state coefficients are all zero")
        # Dividing by a norm already equal to 1 up to rounding would
        # perturb last bits and break exact serialization round trips.
        if abs(norm - 1.0) > ATOL:
            c = c / norm
        object.__setattr__(self, "coeffs", _freeze(c))

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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "KrausOperator":
        if dim < 1:
            raise DimensionMismatchError(f"dimension must be positive, got {dim}")
        return cls(np.eye(dim, dtype=np.complex128))


def identity_two_time_vector(dim: int) -> KrausOperator:
    """The identity operator viewed as a two-time vector.

    Contracting it with a state gives the trace of the state's
    coefficient array, the normalization that turns contractions into
    weak values.
    """
    return KrausOperator.identity(dim)


@dataclass(frozen=True, eq=False)
class DensityVector:
    """A mixture of two-time states in vectorized form.

    ``mat`` is the (d^2, d^2) array ``sum_r p_r vec(state_r) vec(state_r)^dag``
    for some ensemble of unit-norm states with weights summing to 1.  The
    constructor validates Hermiticity (within 1e-12), positivity (min
    eigenvalue >= -1e-10) and unit trace (within 1e-9), then stores the
    symmetrized array rescaled to trace exactly 1 (the storage
    convention, matching the unit-norm convention for pure states).
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_square_complex(self.mat, "mat")
        _side_of_pair_matrix(mat, "density vector")
        mat = _check_hermitian_psd(mat, "density vector")
        object.__setattr__(self, "mat", _unit_trace(mat, "density vector"))

    @classmethod
    def _from_psd(cls, mat: np.ndarray) -> "DensityVector":
        """A density vector from a matrix that is Hermitian and PSD by construction.

        Precondition: ``mat`` is a (d^2, d^2) complex128 array built
        as ``W diag(lam) W^dag`` from eigenpairs with every ``lam >= 0``
        (for example a clipped ``eigh``), with trace 1 within 1e-9.  It
        skips the Hermiticity and ``eigvalsh`` checks, which such an
        array passes by construction, and stores the bit-identical array
        ``DensityVector(mat)`` would: the same symmetrization and trace
        rescale.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "mat", _unit_trace((mat + mat.conj().T) / 2.0, "density vector"))
        return obj

    @property
    def dim(self) -> int:
        return math.isqrt(self.mat.shape[0])

    @classmethod
    def from_pure(cls, state: TwoTimeState) -> "DensityVector":
        v = state.coeffs.reshape(-1)
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class KrausDensityVector:
    """A Kraus family in vectorized form: ``sum_chi vec(A_chi) vec(A_chi)^dag``.

    Hermitian and positive semidefinite by construction; unlike a
    :class:`DensityVector` its trace is unconstrained.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_square_complex(self.mat, "mat")
        _side_of_pair_matrix(mat, "Kraus density vector")
        mat = _check_hermitian_psd(mat, "Kraus density vector")
        object.__setattr__(self, "mat", _freeze(mat))

    @property
    def dim(self) -> int:
        return math.isqrt(self.mat.shape[0])


def _require_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatchError(f"{what}: dimensions {a} and {b} differ")


def contract_pure(op: KrausOperator, state: TwoTimeState) -> complex:
    """Bilinear contraction of an operator with a pure two-time state.

    Returns ``sum_ij op[i, j] * coeffs[i, j]``.  Neither argument is
    conjugated; for a product state this is the matrix element
    ``<phi|op|psi>`` of the normalized post-selection and preparation
    vectors.
    """
    _require_same_dim(op.dim, state.dim, "contract_pure")
    return complex(np.sum(op.entries * state.coeffs))


def _clamped(val: float, trace: float) -> float:
    """0 for a negative ``val`` within ``PSD_ATOL * max(1, trace)`` of zero, else ``val``."""
    return 0.0 if -PSD_ATOL * max(1.0, trace) <= val < 0.0 else val


def sandwich(op: KrausOperator, eta: DensityVector) -> float:
    """Born-like weight of one operator against a density vector.

    Returns ``vec(op)^T . mat . vec(op)*``, which for a pure state's
    density vector equals ``|contract_pure(op, state)|^2``.  The result
    is real and nonnegative for any valid density vector; negatives
    within the positivity slack are clamped to 0.
    """
    _require_same_dim(op.dim, eta.dim, "sandwich")
    v = op.entries.reshape(-1)
    val = float((v @ eta.mat @ v.conj()).real)
    return _clamped(val, float(v.real @ v.real + v.imag @ v.imag))


def pair(kdv: KrausDensityVector, eta: DensityVector) -> float:
    """Weight of a whole Kraus family against a density vector.

    Returns the bilinear Frobenius pairing ``sum_kl K[k, l] * mat[k, l]``
    (no conjugation), which equals ``sum_chi sandwich(A_chi, eta)`` for
    any Kraus decomposition of ``kdv``.
    """
    _require_same_dim(kdv.dim, eta.dim, "pair")
    return _clamped(float(np.sum(kdv.mat * eta.mat).real), float(np.trace(kdv.mat).real))
