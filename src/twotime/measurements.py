"""Measurements on two-time states.

A measurement is an ordered list of outcomes, each realized by a set of
Kraus operators.  A *detailed* measurement has exactly one operator per
outcome; lumping several operators into one outcome coarse-grains it.
Completeness means ``sum_{mu,chi} A^dag A = I``: the condition under
which the outcome weights of a complete protocol can be normalized into
probabilities.

Every statistic of a measurement is a contraction of its Kraus
operators, so each :class:`Measurement` holds them once as one array:
``kraus_stack``, the (n_branches, d, d) stack of every outcome's
operators in order, with ``outcome_of`` naming the outcome of each
branch.  The probability rules, the checks below and the simulator's
tables all read that array.

The same condition can be checked without leaving vectorized form:
contract the summed Kraus density vectors over the post-selection index
pair and the result must be the identity
(:func:`partial_normalization_defect`).

:func:`complete_operator_set` turns an arbitrary family of positive
vectorized operators into a valid measurement by rescaling and appending
a discard outcome, the construction that lets relative frequencies be
taken over the kept outcomes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ATOL,
    PSD_ATOL,
    KrausDensityVector,
    KrausOperator,
    _as_square_complex,
    _freeze,
    _side_of_pair_matrix,
    hermiticity_defect,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    ValidationError,
)

__all__ = [
    "COMPLETENESS_ATOL",
    "MeasurementOutcome",
    "Measurement",
    "CompletionResult",
    "kraus_density_vector",
    "check_completeness",
    "partial_normalization_defect",
    "measurements_equal",
    "complete_operator_set",
]

#: Tolerance on the completeness defect ``max|sum A^dag A - I|``.
COMPLETENESS_ATOL = 1e-10

# Eigenvalues at or below this are dropped when realizing Kraus
# operators from a positive vectorized operator.
_EIG_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One outcome: a nonempty set of Kraus operators and an optional name."""

    kraus: tuple
    name: str = ""

    def __post_init__(self) -> None:
        kraus = tuple(
            op if isinstance(op, KrausOperator) else KrausOperator(op) for op in self.kraus
        )
        if not kraus:
            raise DegenerateInputError("measurement outcome has no Kraus operators")
        dims = {op.dim for op in kraus}
        if len(dims) != 1:
            raise DimensionMismatchError(f"outcome operators have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "name", str(self.name))

    @property
    def dim(self) -> int:
        return self.kraus[0].dim


@dataclass(frozen=True, eq=False)
class Measurement:
    """An ordered list of measurement outcomes over one dimension.

    ``kraus_stack`` is the read-only (n_branches, d, d) complex array of
    every outcome's Kraus operators in order, and ``outcome_of`` the
    read-only (n_branches,) index of the outcome each branch belongs
    to; both are built once, on first use.
    """

    outcomes: tuple

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise DegenerateInputError("measurement has no outcomes")
        for out in outcomes:
            if not isinstance(out, MeasurementOutcome):
                raise DimensionMismatchError(f"{out!r} is not a MeasurementOutcome")
        dims = {out.dim for out in outcomes}
        if len(dims) != 1:
            raise DimensionMismatchError(f"outcomes have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def dim(self) -> int:
        return self.outcomes[0].dim

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def is_detailed(self) -> bool:
        """True when every outcome has exactly one Kraus operator."""
        return all(len(out.kraus) == 1 for out in self.outcomes)

    @cached_property
    def kraus_stack(self) -> np.ndarray:
        return _freeze(np.stack([op.entries for out in self.outcomes for op in out.kraus]))

    @cached_property
    def outcome_of(self) -> np.ndarray:
        sizes = [len(out.kraus) for out in self.outcomes]
        return _freeze(np.repeat(np.arange(self.n_outcomes, dtype=np.intp), sizes))

    @cached_property
    def completeness_defect(self) -> float:
        return check_completeness(self)[1]

    @cached_property
    def is_complete(self) -> bool:
        return self.completeness_defect <= COMPLETENESS_ATOL

    @classmethod
    def detailed(cls, ops: Iterable[KrausOperator], names: Sequence[str] | None = None) -> "Measurement":
        """One outcome per operator, in order."""
        ops = tuple(ops)
        if names is None:
            names = [""] * len(ops)
        if len(names) != len(ops):
            raise DimensionMismatchError(
                f"{len(names)} names for {len(ops)} operators"
            )
        return cls(tuple(MeasurementOutcome((op,), name) for op, name in zip(ops, names)))

    @classmethod
    def from_kraus_sets(cls, sets: Iterable[Iterable[KrausOperator]],
                        names: Sequence[str] | None = None) -> "Measurement":
        sets = [tuple(s) for s in sets]
        if names is None:
            names = [""] * len(sets)
        if len(names) != len(sets):
            raise DimensionMismatchError(f"{len(names)} names for {len(sets)} outcomes")
        return cls(tuple(MeasurementOutcome(s, name) for s, name in zip(sets, names)))


def kraus_density_vector(outcome) -> KrausDensityVector:
    """Vectorize one outcome: ``sum_chi vec(A_chi) vec(A_chi)^dag``.

    Accepts a :class:`MeasurementOutcome` or any iterable of
    :class:`KrausOperator`.
    """
    ops = outcome.kraus if isinstance(outcome, MeasurementOutcome) else tuple(outcome)
    if not ops:
        raise DegenerateInputError("cannot vectorize an empty Kraus set")
    if len({op.dim for op in ops}) != 1:
        raise DimensionMismatchError("Kraus operators have mixed dimensions")
    v = np.array([op.entries.reshape(-1) for op in ops])
    return KrausDensityVector(v.T @ v.conj())


def _post_selection_defect(total: np.ndarray, factor: float = 1.0) -> float:
    """Max ``|sum_i total[(i, j), (i, l)] - factor * delta_jl|``.

    Contracts a (d^2, d^2) array over its post-selection index pair and
    measures the distance of the result from ``factor`` times the
    identity on the preparation indices.
    """
    d = math.isqrt(total.shape[0])
    contracted = np.einsum("ijil->jl", total.reshape(d, d, d, d))
    return float(np.max(np.abs(contracted - factor * np.eye(d))))


def check_completeness(m: Measurement) -> tuple[bool, float]:
    """Whether ``sum_{mu,chi} A^dag A = I`` and the defect ``max|sum - I|``."""
    s = m.kraus_stack
    total = np.einsum("oki,okj->ij", s.conj(), s)
    defect = float(np.max(np.abs(total - np.eye(m.dim))))
    return (defect <= COMPLETENESS_ATOL, defect)


def partial_normalization_defect(m: Measurement) -> float:
    """Completeness checked in vectorized form.

    Sums the outcomes' Kraus density vectors (one product over the whole
    Kraus stack), contracts the post-selection index pair (entry
    ``[(i, j), (i, l)]`` summed over ``i``), and returns the max
    absolute deviation from the identity on the preparation indices.
    Zero exactly when the measurement is complete.
    """
    v = m.kraus_stack.reshape(-1, m.dim ** 2)
    return _post_selection_defect(v.T @ v.conj())


def measurements_equal(m1: Measurement, m2: Measurement, atol: float = COMPLETENESS_ATOL) -> bool:
    """Operational equality: outcome-by-outcome equality of Kraus density vectors.

    Two outcomes realized by different Kraus sets are the same physical
    outcome exactly when their vectorized forms coincide.  Comparison is
    positional; mismatched outcome counts (or dimensions) raise.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatchError(f"dimensions differ: {m1.dim} != {m2.dim}")
    if m1.n_outcomes != m2.n_outcomes:
        raise ValidationError(
            f"outcome counts differ: {m1.n_outcomes} != {m2.n_outcomes}"
        )
    for out1, out2 in zip(m1.outcomes, m2.outcomes):
        k1 = kraus_density_vector(out1).mat
        k2 = kraus_density_vector(out2).mat
        if float(np.max(np.abs(k1 - k2))) > atol:
            return False
    return True


def _kraus_set_from_psd_matrix(mat: np.ndarray, cutoff: float = _EIG_CUTOFF) -> tuple:
    """Kraus operators realizing a PSD vectorized operator.

    Eigendecomposes ``mat`` and keeps branches with eigenvalue above
    ``cutoff``; returns a single zero operator when none survive (so the
    realization is always a valid, possibly trivial, outcome).
    """
    d2 = mat.shape[0]
    d = _side_of_pair_matrix(mat, "vectorized operator")
    lam, w = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    ops = [
        KrausOperator(np.sqrt(lam[k]) * w[:, k].reshape(d, d))
        for k in range(d2)
        if lam[k] > cutoff
    ]
    if not ops:
        ops = [KrausOperator(np.zeros((d, d), dtype=np.complex128))]
    return tuple(ops)


@dataclass(frozen=True, eq=False)
class CompletionResult:
    """Output of :func:`complete_operator_set`.

    Attributes
    ----------
    scale : float
        The factor ``c`` applied to every input operator.
    remainder : numpy.ndarray
        The positive operator ``E' = I - c * sum(ops)`` (unscaled), so
        ``c * sum(ops) + remainder = I`` exactly.
    completed : Measurement
        A complete measurement whose first ``len(ops)`` outcomes realize
        the scaled inputs and whose last outcome is the discard.  Each
        operator is realized at weight ``c / d`` (a uniform rescaling
        that cancels in every probability ratio) so the measurement
        satisfies the two-time completeness contract.
    discard_index : int
        Position of the discard outcome in ``completed``.
    """

    scale: float
    remainder: np.ndarray
    completed: Measurement
    discard_index: int


def complete_operator_set(ops: Sequence[np.ndarray], *, scale: float | None = None) -> CompletionResult:
    """Complete a family of positive vectorized operators into a measurement.

    Parameters
    ----------
    ops : sequence of (d^2, d^2) arrays
        Hermitian positive semidefinite operators (objects with an
        ``.op`` or ``.mat`` array attribute are also accepted).
    scale : float, optional
        The rescaling factor ``c``.  Defaults to the largest valid
        value, ``1 / max_eigenvalue(sum(ops))``, which minimizes the
        weight of the discard outcome.  Any ``0 < c <= 1/max_eig`` keeps
        the remainder positive; out-of-range values raise.

    The kept outcomes of the completed measurement reproduce, after the
    discard outcome is dropped and the rest renormalized, the relative
    weights ``tr(E_mu rho) / sum_nu tr(E_nu rho)`` for every state, and
    those ratios are independent of the chosen scale.
    """
    arrays = []
    for idx, raw in enumerate(ops):
        arr = _as_square_complex(getattr(raw, "op", getattr(raw, "mat", raw)), f"operator {idx}")
        if hermiticity_defect(arr) > ATOL:
            raise NotHermitianError(f"operator {idx} is not Hermitian")
        arrays.append((arr + arr.conj().T) / 2.0)
    if not arrays:
        raise DegenerateInputError("cannot complete an empty operator set")
    n = arrays[0].shape[0]
    d = _side_of_pair_matrix(arrays[0], "operators")
    for idx, arr in enumerate(arrays):
        if arr.shape[0] != n:
            raise DimensionMismatchError("operators have mixed shapes")
        min_eig = float(np.linalg.eigvalsh(arr)[0])
        if min_eig < -PSD_ATOL:
            raise NotPositiveError(f"operator {idx} has min eigenvalue {min_eig:.3e}")

    total = sum(arrays)
    max_eig = float(np.linalg.eigvalsh(total)[-1])
    if max_eig <= _EIG_CUTOFF:
        raise DegenerateInputError("operator set sums to zero; nothing to complete")
    max_scale = 1.0 / max_eig
    if scale is None:
        c = max_scale
    else:
        c = float(scale)
        if not (0.0 < c <= max_scale * (1.0 + 1e-12)):
            raise ValidationError(
                f"scale {c!r} outside (0, {max_scale!r}] leaves a non-positive remainder"
            )
    remainder = np.eye(n, dtype=np.complex128) - c * total

    outcomes = [
        MeasurementOutcome(_kraus_set_from_psd_matrix((c / d) * arr.conj()), str(idx))
        for idx, arr in enumerate(arrays)
    ]
    outcomes.append(
        MeasurementOutcome(_kraus_set_from_psd_matrix(remainder.conj() / d), "discard")
    )
    return CompletionResult(
        scale=c,
        remainder=remainder,
        completed=Measurement(tuple(outcomes)),
        discard_index=len(arrays),
    )
