"""Weak values of observables between preparation and post-selection.

For a pure two-time state the weak value of an observable is the
contraction normalized by the contraction of the identity::

    A_w = (A . state) / (I . state)

For a mixture, weak values are *not* weighted averages of the members'
weak values.  The correct object is the weak value vector: the linear
image of the density vector

    eta_w = sum_r p_r conj(tr alpha_r) alpha_r

(equivalently the partial contraction of the density vector's array
over the identity's index pair).  Every weak value of the mixture is a
pure-state weak value of ``eta_w``, so a mixture acts, weakly, like a
single effective pure two-time state (:func:`weak_equivalent_pure`),
generally one that no ordinary pre-selected system can realize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ATOL, DENOMINATOR_EPS, DensityVector, KrausOperator, TwoTimeState, _freeze
from .core import _as_instance, _as_square_complex, _hermiticity_defect, _require_same_dim
from .errors import (
    NoEquivalentStateError,
    NotHermitianError,
    UndefinedWeakValueError,
)

__all__ = [
    "WeakValueVector",
    "weak_value_pure",
    "weak_value_vector",
    "weak_value_ensemble",
    "weak_equivalent_pure",
]


@dataclass(frozen=True, eq=False)
class WeakValueVector:
    """The effective (unnormalized) two-time coefficient array of a mixture.

    May be the zero array: mixtures of traceless states have no weak
    response at all.  Non-finite entries are rejected.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _freeze(_as_square_complex(self.coeffs, "coeffs")))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def _weak_ratio(obs: KrausOperator, coeffs: np.ndarray, allow_non_hermitian: bool,
                undefined: str) -> complex:
    """``(obs . coeffs) / tr(coeffs)``; ``undefined`` is the error for a vanishing trace."""
    if not allow_non_hermitian:
        defect = _hermiticity_defect(obs.entries)
        if defect > ATOL:
            raise NotHermitianError(
                f"observable is not Hermitian (defect {defect:.3e}); "
                "pass allow_non_hermitian=True to contract a general operator"
            )
    den = complex(np.trace(coeffs))
    if abs(den) <= DENOMINATOR_EPS:
        raise UndefinedWeakValueError(undefined)
    return complex(np.sum(obs.entries * coeffs)) / den


def weak_value_pure(obs: KrausOperator, state: TwoTimeState, *,
                    allow_non_hermitian: bool = False) -> complex:
    """Weak value of ``obs`` on a pure two-time state.

    Raises
    ------
    UndefinedWeakValueError
        If the identity contraction (the trace of the coefficient
        array) vanishes: post-selection orthogonal to preparation.
    NotHermitianError
        If ``obs`` is not Hermitian and the flag is not set.
    """
    _as_instance(obs, KrausOperator, "obs")
    _as_instance(state, TwoTimeState, "state")
    _require_same_dim(obs.dim, state.dim, "weak_value_pure")
    return _weak_ratio(obs, state.coeffs, allow_non_hermitian,
                       "identity contraction vanishes; weak values of this state are undefined")


def weak_value_vector(eta: DensityVector) -> WeakValueVector:
    """The weak value vector of a density vector.

    The partial contraction of ``eta``'s array with the identity's index
    pair, ``coeffs_vec[a] = sum_k mat[a, (k, k)]``: for any ensemble
    realizing ``eta`` it equals ``sum_r p_r conj(tr alpha_r) alpha_r``,
    because the map is linear in ``eta``.
    """
    d = _as_instance(eta, DensityVector, "eta").dim
    return WeakValueVector(eta.mat[:, np.arange(d) * (d + 1)].sum(1).reshape(d, d))


def weak_value_ensemble(obs: KrausOperator, eta: DensityVector, *,
                        allow_non_hermitian: bool = False) -> complex:
    """Weak value of ``obs`` on a mixture, via its weak value vector.

    ``A_w = (obs . eta_w) / tr(eta_w)``; on a rank-1 density vector this
    reproduces :func:`weak_value_pure` of the underlying state exactly.

    Raises
    ------
    UndefinedWeakValueError
        If ``tr(eta_w)`` (the mean squared identity contraction of the
        mixture) vanishes.
    """
    _as_instance(obs, KrausOperator, "obs")
    _as_instance(eta, DensityVector, "eta")
    _require_same_dim(obs.dim, eta.dim, "weak_value_ensemble")
    return _weak_ratio(obs, weak_value_vector(eta).coeffs, allow_non_hermitian,
                       "weak value vector is traceless; weak values of this mixture are undefined")


def weak_equivalent_pure(eta: DensityVector) -> TwoTimeState:
    """The pure two-time state weakly equivalent to a mixture.

    The normalized weak value vector: a single state with exactly the
    weak values of the mixture for every observable.

    Raises
    ------
    NoEquivalentStateError
        If the weak value vector is zero (e.g. a mixture of traceless
        states).
    """
    wvv = weak_value_vector(eta)
    if wvv.norm <= DENOMINATOR_EPS:
        raise NoEquivalentStateError(
            "weak value vector is zero; no pure state reproduces this mixture's weak response"
        )
    return TwoTimeState(wvv.coeffs)
