"""The dictionary between two-time objects and bipartite quantum objects.

Every two-time object has an exact image on a doubled Hilbert space
(dimension d^2), with the post-selection index as the *first* tensor
factor and the preparation index as the second:

* a pure state's coefficient array maps to the state vector
  ``vec(coeffs)`` (:func:`state_to_bipartite`);
* a density vector maps to a bipartite density matrix with the *same*
  array (:func:`density_to_bipartite`), a pure change of type;
* a Kraus operator maps to the vector ``conj(vec(op))``
  (:func:`kraus_to_bipartite_vector`), so a Kraus density vector maps
  to the positive operator ``conj(K)`` (:func:`kdv_to_bipartite`);
* the bilinear pairing on the two-time side equals the Born weight
  ``tr(E rho)`` on the bipartite side, exactly, by construction
  (:func:`pairing_equality_check`).

Normalization is the one place the dictionary is not the identity: a
complete two-time measurement maps to operators whose partial trace
over the post-selection factor is the identity
(:func:`measurement_partial_trace_defect`), while an ordinary bipartite
POVM (operators summing to the full identity) pulls back to a family
that is supernormalized by exactly ``d`` (:func:`povm_to_twotime`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityVector,
    KrausDensityVector,
    KrausOperator,
    TwoTimeState,
    _as_square_complex,
    _check_hermitian_psd,
    _freeze,
    _side_of_pair_matrix,
    _unit_trace,
    pair,
)
from .errors import DimensionMismatchError, NormalizationError
from .measurements import (
    Measurement,
    MeasurementOutcome,
    _kraus_set_from_psd_matrix,
    _post_selection_defect,
    partial_normalization_defect,
)

__all__ = [
    "BipartiteDensity",
    "BipartiteOperator",
    "PovmPullback",
    "state_to_bipartite",
    "state_from_bipartite",
    "density_to_bipartite",
    "bipartite_to_density",
    "kraus_to_bipartite_vector",
    "kdv_to_bipartite",
    "pairing_equality_check",
    "measurement_partial_trace_defect",
    "povm_to_twotime",
]


@dataclass(frozen=True, eq=False)
class BipartiteDensity:
    """A density matrix on the doubled space: Hermitian, PSD, trace 1."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = _as_square_complex(self.rho, "rho")
        _side_of_pair_matrix(rho, "bipartite density")
        rho = _check_hermitian_psd(rho, "bipartite density")
        object.__setattr__(self, "rho", _unit_trace(rho, "bipartite density"))

    @property
    def dim(self) -> int:
        return math.isqrt(self.rho.shape[0])


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """A positive operator on the doubled space (no trace constraint)."""

    op: np.ndarray

    def __post_init__(self) -> None:
        op = _as_square_complex(self.op, "op")
        _side_of_pair_matrix(op, "bipartite operator")
        object.__setattr__(self, "op", _freeze(_check_hermitian_psd(op, "bipartite operator")))

    @property
    def dim(self) -> int:
        return math.isqrt(self.op.shape[0])


def state_to_bipartite(state: TwoTimeState) -> np.ndarray:
    """The bipartite state vector of a pure two-time state: ``vec(coeffs)``."""
    return state.coeffs.reshape(-1).copy()


def state_from_bipartite(vector: np.ndarray) -> TwoTimeState:
    """Inverse of :func:`state_to_bipartite` (normalizes)."""
    v = np.asarray(vector, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d vector, got shape {v.shape}")
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionMismatchError(f"length {v.size} is not a perfect square")
    return TwoTimeState(v.reshape(d, d))


def density_to_bipartite(eta: DensityVector) -> BipartiteDensity:
    """The bipartite density matrix of a density vector: the same array."""
    return BipartiteDensity(eta.mat)


def bipartite_to_density(rho: BipartiteDensity) -> DensityVector:
    """Inverse of :func:`density_to_bipartite`."""
    return DensityVector(rho.rho)


def kraus_to_bipartite_vector(op: KrausOperator) -> np.ndarray:
    """The bipartite vector of a Kraus operator: ``conj(vec(op))``.

    The conjugation is the essential asymmetry of the dictionary
    (states map unconjugated, operators conjugated); it is what makes
    the bilinear two-time pairing land on the sesquilinear Born rule.
    """
    return op.entries.reshape(-1).conj()


def kdv_to_bipartite(kdv: KrausDensityVector) -> BipartiteOperator:
    """The positive bipartite operator of a Kraus density vector: ``conj(K)``."""
    return BipartiteOperator(kdv.mat.conj())


def pairing_equality_check(kdv: KrausDensityVector, eta: DensityVector) -> tuple[float, float, float]:
    """Both sides of the pairing identity and their difference.

    Returns ``(two_time, born, defect)`` where ``two_time`` is
    ``pair(kdv, eta)``, ``born`` is ``tr(E rho)`` for the bipartite
    images, and ``defect = |two_time - born|`` (zero up to rounding).
    """
    lhs = pair(kdv, eta)
    e_op = kdv_to_bipartite(kdv).op
    rho = density_to_bipartite(eta).rho
    rhs = float(np.trace(e_op @ rho).real)
    return (lhs, rhs, abs(lhs - rhs))


def measurement_partial_trace_defect(ops) -> float:
    """Normalization defect of bipartite measurement operators.

    Sums the operators and partial-traces over the post-selection-side
    (first) tensor factor; for the image of a complete two-time
    measurement the result is the identity on the preparation factor.
    Returns the max absolute deviation from it.

    Accepts :class:`BipartiteOperator` instances or raw arrays; a
    :class:`~twotime.measurements.Measurement` is also accepted and
    mapped outcome by outcome.  Its images sum to the complex conjugate
    of its summed Kraus density vectors, so its defect is
    :func:`~twotime.measurements.partial_normalization_defect`.
    """
    if isinstance(ops, Measurement):
        return partial_normalization_defect(ops)
    mats = [_as_square_complex(getattr(op, "op", op), f"operator {idx}")
            for idx, op in enumerate(ops)]
    return _post_selection_defect(_summed(mats))


def _summed(mats: list) -> np.ndarray:
    """The sum of nonempty equal-shape (d^2, d^2) operators."""
    if not mats:
        raise DimensionMismatchError("no operators to check")
    n = _side_of_pair_matrix(mats[0], "operators") ** 2
    total = np.zeros((n, n), dtype=np.complex128)
    for idx, mat in enumerate(mats):
        if mat.shape != (n, n):
            raise DimensionMismatchError(f"operator {idx} has shape {mat.shape}, expected {(n, n)}")
        total += mat
    return total


@dataclass(frozen=True, eq=False)
class PovmPullback:
    """Output of :func:`povm_to_twotime`.

    Attributes
    ----------
    kdvs : tuple of KrausDensityVector
        The raw pullbacks ``conj(E_mu)``; as a two-time family they are
        supernormalized by exactly ``factor``.
    factor : int
        The supernormalization factor, always the dimension ``d``.
    defect : float
        Max absolute deviation of the pullbacks' summed partial
        contraction from ``factor * I`` (rounding-level for any POVM).
    measurement : Measurement
        The valid two-time measurement obtained by dividing each
        pullback by ``factor`` and realizing Kraus operators.
    """

    kdvs: tuple
    factor: int
    defect: float
    measurement: Measurement


def povm_to_twotime(ops) -> PovmPullback:
    """Pull an ordinary bipartite POVM back to the two-time side.

    Parameters
    ----------
    ops : sequence of BipartiteOperator or (d^2, d^2) arrays
        Positive operators summing to the identity on the doubled space
        (within 1e-10); anything else raises
        :class:`~twotime.errors.NormalizationError`.

    The pullbacks ``conj(E_mu)`` sum to the full d^2-dimensional
    identity, whose partial contraction is ``d * I`` rather than ``I``:
    a bipartite POVM carries ``d`` times too much weight to be a
    two-time measurement directly.  Dividing by ``d`` (a uniform
    rescaling, invisible to every probability ratio) yields the valid
    measurement returned alongside the raw pullbacks.
    """
    mats = [
        _check_hermitian_psd(_as_square_complex(getattr(op, "op", op), f"operator {idx}"),
                             f"operator {idx}")
        for idx, op in enumerate(ops)
    ]
    if not mats:
        raise DimensionMismatchError("empty operator set")
    total = _summed(mats)
    n = total.shape[0]
    d = math.isqrt(n)
    id_defect = float(np.max(np.abs(total - np.eye(n))))
    if id_defect > 1e-10:
        raise NormalizationError(
            f"operators do not sum to the identity (defect {id_defect:.3e}); not a POVM"
        )

    kdvs = tuple(KrausDensityVector(mat.conj()) for mat in mats)
    # The pullbacks sum to conj(total), which has the same defect.
    defect = _post_selection_defect(total, d)

    outcomes = tuple(
        MeasurementOutcome(_kraus_set_from_psd_matrix(kdv.mat / d), str(idx))
        for idx, kdv in enumerate(kdvs)
    )
    return PovmPullback(
        kdvs=kdvs,
        factor=d,
        defect=defect,
        measurement=Measurement(outcomes),
    )
