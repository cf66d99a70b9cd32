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

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityVector,
    KrausDensityVector,
    KrausOperator,
    TwoTimeState,
    _as_instance,
    _operator_stack,
    _PairMatrix,
    _hermitian_part,
    _side_of_pair_matrix,
    pair,
    unvec,
)
from .errors import DimensionMismatchError, NormalizationError
from .measurements import (
    COMPLETENESS_ATOL,
    Measurement,
    _checked_operators,
    _kraus_density_stack,
    _kraus_set_from_psd_matrix,
    _measurement_of_sets,
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
class BipartiteDensity(_PairMatrix):
    """A density matrix on the doubled space: Hermitian, PSD, trace 1."""

    rho: np.ndarray
    _field, _name, _trace_one = "rho", "bipartite density", True


@dataclass(frozen=True, eq=False)
class BipartiteOperator(_PairMatrix):
    """A positive operator on the doubled space (no trace constraint, so
    its tolerances scale as a :class:`~twotime.core.KrausDensityVector`'s)."""

    op: np.ndarray
    _field, _name, _trace_one = "op", "bipartite operator", False


def state_to_bipartite(state: TwoTimeState) -> np.ndarray:
    """The bipartite state vector of a pure two-time state: ``vec(coeffs)``."""
    return _as_instance(state, TwoTimeState, "state").coeffs.reshape(-1).copy()


def state_from_bipartite(vector: np.ndarray) -> TwoTimeState:
    """Inverse of :func:`state_to_bipartite` (normalizes)."""
    return TwoTimeState(unvec(vector))


def density_to_bipartite(eta: DensityVector) -> BipartiteDensity:
    """The bipartite density matrix of a density vector: the same array."""
    return BipartiteDensity._from_psd(_as_instance(eta, DensityVector, "eta").mat)


def bipartite_to_density(rho: BipartiteDensity) -> DensityVector:
    """Inverse of :func:`density_to_bipartite`."""
    return DensityVector._from_psd(_as_instance(rho, BipartiteDensity, "rho").rho)


def kraus_to_bipartite_vector(op: KrausOperator) -> np.ndarray:
    """The bipartite vector of a Kraus operator: ``conj(vec(op))``.

    The conjugation is the essential asymmetry of the dictionary
    (states map unconjugated, operators conjugated); it is what makes
    the bilinear two-time pairing land on the sesquilinear Born rule.
    """
    return _as_instance(op, KrausOperator, "op").entries.reshape(-1).conj()


def kdv_to_bipartite(kdv: KrausDensityVector) -> BipartiteOperator:
    """The positive bipartite operator of a Kraus density vector: ``conj(K)``."""
    return BipartiteOperator._from_psd(_as_instance(kdv, KrausDensityVector, "kdv").mat.conj())


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

    Reads ``ops`` as :func:`~twotime.measurements.complete_operator_set`
    does (a :class:`BipartiteOperator` or a Kraus density vector as its
    stored matrix); a :class:`~twotime.measurements.Measurement` is also
    accepted and
    mapped outcome by outcome.  Its images sum to the complex conjugate
    of its summed Kraus density vectors, so its defect is
    :func:`~twotime.measurements.partial_normalization_defect`.
    """
    if isinstance(ops, Measurement):
        return partial_normalization_defect(ops)
    stack = _operator_stack(ops, DimensionMismatchError("no operators to check"))
    return _post_selection_defect(stack.sum(axis=0))


def _outcome_images(m: Measurement) -> np.ndarray:
    """The stack of ``kdv_to_bipartite(kraus_density_vector(out)).op`` over the outcomes.

    The conjugate of the stacked Kraus density vectors, symmetrized once
    more as :class:`BipartiteOperator` does (which turns the diagonal's
    imaginary ``-0`` back into ``+0``), so bit for bit, but with no
    per-outcome object and no eigenvalue check: a Gram matrix is PSD.
    """
    return _hermitian_part(_kraus_density_stack(m.kraus_stack, m.outcome_of).conj())


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
    ops : sequence of (d^2, d^2) arrays or positive-matrix objects
        Positive operators summing to the identity on the doubled space
        (within ``COMPLETENESS_ATOL``); anything else raises
        :class:`~twotime.errors.NormalizationError`.  They are read and
        checked as by :func:`~twotime.measurements.complete_operator_set`,
        with absolute tolerances.

    The pullbacks ``conj(E_mu)`` sum to the full d^2-dimensional
    identity, whose partial contraction is ``d * I`` rather than ``I``:
    a bipartite POVM carries ``d`` times too much weight to be a
    two-time measurement directly.  Dividing by ``d`` (a uniform
    rescaling, invisible to every probability ratio) yields the valid
    measurement returned alongside the raw pullbacks.
    """
    mats, total = _checked_operators(
        ops, relative=False, empty=DimensionMismatchError("empty operator set"))
    n = total.shape[0]
    d = _side_of_pair_matrix(total, "operators")
    id_defect = float(np.max(np.abs(total - np.eye(n))))
    if id_defect > COMPLETENESS_ATOL:
        raise NormalizationError(
            f"operators do not sum to the identity (defect {id_defect:.3e}); not a POVM"
        )

    kdvs = tuple(KrausDensityVector._from_psd(mat.conj()) for mat in mats)
    # The pullbacks sum to conj(total), which has the same defect.
    defect = _post_selection_defect(total, d)

    sets = [_kraus_set_from_psd_matrix(kdv.mat / d) for kdv in kdvs]
    return PovmPullback(
        kdvs=kdvs,
        factor=d,
        defect=defect,
        measurement=_measurement_of_sets(sets, list(map(str, range(len(sets))))),
    )
