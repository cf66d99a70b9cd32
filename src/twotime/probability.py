"""Measurement statistics on two-time states.

All rules share one shape: per-outcome nonnegative weights, divided by
their sum.  The normalization is what distinguishes pre- and
post-selected statistics from ordinary Born statistics; it is performed
per *state*, never per mixture member, which is why mixing and
measuring do not commute here (see :func:`prob_ensemble`).

Rules
-----
* :func:`prob_pure`: weights ``|contract_pure(A_mu, state)|^2``.
* :func:`prob_ensemble`: weights ``sum_r p_r |contract_pure(A_mu, state_r)|^2``.
* :func:`prob_density`: weights ``sandwich(A_mu, eta)``; depends on an
  ensemble only through its density vector.
* :func:`prob_coarse`: weights ``pair(K_mu, eta)`` for whole Kraus
  families (coarse-grained outcomes).
* :func:`prob_relative_bipartite`: weights ``tr(E_mu rho)`` on the
  bipartite side of the dictionary; the operators need not sum to the
  identity, only the surviving outcomes' relative weights matter.

The four two-time rules share two kernels over the measurement's
``kraus_stack``: :func:`_contraction_weights` contracts every branch
with a stack of pure states at once, and :func:`_numerators` sandwiches
every branch with a density vector's array and sums the branches of
each outcome.  Detailed measurements therefore give bit-identical
results under :func:`prob_density` and :func:`prob_coarse`.

A denominator at or below 1e-14 means the post-selection never succeeds
and the conditional probabilities are undefined; the rules raise typed
domain errors instead of returning garbage.
"""

from __future__ import annotations

import numpy as np

from .core import PSD_ATOL, DensityVector, TwoTimeState, _as_square_complex
from .errors import (
    AllDiscardedError,
    DimensionMismatchError,
    IncompleteMeasurementError,
    NotDetailedError,
    PostSelectionImpossibleError,
)
from .measurements import Measurement
from .states import Ensemble

__all__ = [
    "DENOMINATOR_EPS",
    "prob_pure",
    "prob_ensemble",
    "prob_density",
    "prob_coarse",
    "prob_relative_bipartite",
]

#: Outcome-weight totals at or below this are treated as zero.
DENOMINATOR_EPS = 1e-14


def _require_complete(m: Measurement) -> None:
    if not m.is_complete:
        raise IncompleteMeasurementError(
            f"measurement is not complete: defect {m.completeness_defect:.3e}"
        )


def _require_detailed(m: Measurement) -> None:
    if not m.is_detailed:
        raise NotDetailedError(
            "this rule needs a detailed measurement (one Kraus operator per outcome); "
            "use prob_coarse for lumped outcomes"
        )


def _normalize(numerators: np.ndarray, error: type) -> np.ndarray:
    total = float(numerators.sum())
    if total <= DENOMINATOR_EPS:
        raise error(
            f"total outcome weight {total:.3e} vanishes; conditional probabilities are undefined"
        )
    return numerators / total


def _contraction_weights(m: Measurement, coeffs: np.ndarray) -> np.ndarray:
    """``|A_o . alpha_r|^2`` for every Kraus branch o and every state r.

    ``coeffs`` is an (n_states, d, d) stack of coefficient arrays; the
    result is (n_states, n_branches).
    """
    return np.abs(np.einsum("oij,rij->ro", m.kraus_stack, coeffs)) ** 2


def _numerators(mat: np.ndarray, m: Measurement) -> np.ndarray:
    """Outcome weights ``sum_chi vec(A_chi)^T mat vec(A_chi)*`` of a (d^2, d^2) array.

    Each branch's sandwich is summed into its outcome; a negative weight
    within ``PSD_ATOL * max(1, tr K_mu)`` of zero is rounding and is
    clamped to 0.
    """
    v = m.kraus_stack.reshape(-1, m.dim ** 2)
    branch = ((v @ mat) * v.conj()).sum(1).real
    weights = np.bincount(m.outcome_of, branch, m.n_outcomes)
    traces = np.bincount(m.outcome_of, (v.real ** 2 + v.imag ** 2).sum(1), m.n_outcomes)
    weights[(weights < 0.0) & (weights >= -PSD_ATOL * np.maximum(1.0, traces))] = 0.0
    return weights


def prob_pure(state: TwoTimeState, m: Measurement) -> np.ndarray:
    """Outcome probabilities of a detailed complete measurement on a pure state.

    Raises
    ------
    PostSelectionImpossibleError
        If every outcome has zero weight on this state.
    """
    if state.dim != m.dim:
        raise DimensionMismatchError(f"state dim {state.dim} != measurement dim {m.dim}")
    _require_detailed(m)
    _require_complete(m)
    numerators = _contraction_weights(m, state.coeffs[None])[0]
    return _normalize(numerators, PostSelectionImpossibleError)


def prob_ensemble(ensemble: Ensemble, m: Measurement) -> np.ndarray:
    """Outcome probabilities for a mixture of pure two-time states.

    The weights are mixed *before* normalizing:
    ``P(mu) = sum_r p_r |A_mu . state_r|^2 / sum_nu sum_r p_r |A_nu . state_r|^2``.
    Normalizing each member separately and then averaging gives a
    different (wrong) answer whenever post-selection success rates
    differ between members.
    """
    if ensemble.dim != m.dim:
        raise DimensionMismatchError(f"ensemble dim {ensemble.dim} != measurement dim {m.dim}")
    _require_detailed(m)
    _require_complete(m)
    coeffs = np.stack([state.coeffs for state in ensemble.states])
    numerators = ensemble.weights @ _contraction_weights(m, coeffs)
    return _normalize(numerators, PostSelectionImpossibleError)


def prob_density(eta: DensityVector, m: Measurement) -> np.ndarray:
    """Outcome probabilities computed from a density vector.

    Agrees with :func:`prob_ensemble` on any ensemble realizing ``eta``,
    and is invariant under rescaling of the stored array (only ratios
    enter).
    """
    if eta.dim != m.dim:
        raise DimensionMismatchError(f"density dim {eta.dim} != measurement dim {m.dim}")
    _require_detailed(m)
    _require_complete(m)
    return _normalize(_numerators(eta.mat, m), PostSelectionImpossibleError)


def prob_coarse(eta: DensityVector, m: Measurement) -> np.ndarray:
    """Outcome probabilities for coarse-grained (multi-Kraus) outcomes.

    Weight of outcome mu is ``pair(K_mu, eta)``, the sum of the detailed
    weights of its branches; detailed measurements reproduce
    :func:`prob_density` exactly.
    """
    if eta.dim != m.dim:
        raise DimensionMismatchError(f"density dim {eta.dim} != measurement dim {m.dim}")
    _require_complete(m)
    return _normalize(_numerators(eta.mat, m), PostSelectionImpossibleError)


def prob_relative_bipartite(rho, ops) -> np.ndarray:
    """Relative outcome weights ``tr(E_mu rho)`` on the bipartite side.

    Parameters
    ----------
    rho : BipartiteDensity or (d^2, d^2) array
        A density matrix on the doubled space.
    ops : sequence of BipartiteOperator or (d^2, d^2) arrays
        Positive operators; they need *not* resolve the identity.  The
        result is their normalized weight profile, the statistics of the
        kept outcomes after discards are thrown away.

    Raises
    ------
    AllDiscardedError
        If every operator has zero weight on ``rho``.
    """
    rho_mat = _as_square_complex(getattr(rho, "rho", rho), "rho")
    mats = [_as_square_complex(getattr(op, "op", op), f"operator {idx}")
            for idx, op in enumerate(ops)]
    if not mats:
        raise AllDiscardedError("no operators; every outcome was discarded")
    for idx, mat in enumerate(mats):
        if mat.shape != rho_mat.shape:
            raise DimensionMismatchError(
                f"operator {idx} shape {mat.shape} does not match state shape {rho_mat.shape}"
            )
    numerators = np.array([float(np.trace(mat @ rho_mat).real) for mat in mats])
    numerators[(numerators < 0.0) & (numerators > -1e-10)] = 0.0
    return _normalize(numerators, AllDiscardedError)
