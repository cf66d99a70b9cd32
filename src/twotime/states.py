"""Building two-time states: products, superpositions, and mixtures.

A product state couples one post-selection vector to one preparation
vector.  Superpositions of such products are genuinely richer than any
single product (they carry correlations between the two times), and
mixtures of pure two-time states are richer still; the latter are
summarized losslessly by their :class:`~twotime.core.DensityVector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import ATOL, PSD_ATOL, _ZERO_NORM, DensityVector, TwoTimeState, _hermiticity_defect
from .core import _EIG_CUTOFF, _LOAD_NORM_ATOL, _as_array, _as_number, _freeze, _unit_scaled
from .core import _as_instance, _as_pairs, _check_budget, _check_distribution, _pair_operand
from .core import _shared_dim
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NormalizationError,
    NotHermitianError,
)

__all__ = [
    "Ensemble",
    "pure_product",
    "superpose",
    "density_from_ensemble",
    "ensemble_from_density",
    "positivity_check",
]


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """A classical mixture of pure two-time states.

    Parameters
    ----------
    members : sequence of (weight, state) pairs
        Weights must be numbers, strictly positive and summing to 1
        within ``ATOL``; all states must share one dimension.

    The ensemble stores its members as two read-only arrays: ``weights``
    (n,) and ``coeff_stack`` (n, d, d).  ``members`` and ``states`` are
    views built on first read, whose states' ``coeffs`` are rows of
    ``coeff_stack``.
    """

    weights: np.ndarray
    coeff_stack: np.ndarray

    def __init__(self, members) -> None:
        members = tuple((_as_number(w, "ensemble weight"), s)
                        for w, s in _as_pairs(members, "ensemble members"))
        if not members:
            raise DegenerateInputError("ensemble has no members")
        _shared_dim([s for _, s in members], TwoTimeState, "ensemble members")
        self._store(np.array([w for w, _ in members]), np.stack([s.coeffs for _, s in members]))

    @classmethod
    def _from_stack(cls, weights: np.ndarray, stack: np.ndarray) -> "Ensemble":
        """The ensemble of ``stack[r]`` at weight ``weights[r]``, checked as whole arrays.

        ``weights`` is an (n,) float64 array and ``stack`` an (n, d, d)
        complex128 array of unit rows, as :func:`_unit_members` returns
        them, that the ensemble takes over; n >= 1.  The weights pass
        or fail as in ``Ensemble(members)``, with its messages.
        """
        ens = cls.__new__(cls)
        ens._store(weights, stack)
        return ens

    def _store(self, weights: np.ndarray, stack: np.ndarray) -> None:
        _check_distribution(weights.tolist(), "ensemble weight", "ensemble weights")
        object.__setattr__(self, "weights", _freeze(weights))
        object.__setattr__(self, "coeff_stack", _freeze(stack))

    @property
    def dim(self) -> int:
        return self.coeff_stack.shape[1]

    @cached_property
    def members(self) -> tuple:
        return tuple(zip(self.weights.tolist(), map(TwoTimeState._view, self.coeff_stack)))

    @property
    def states(self) -> tuple:
        return tuple(s for _, s in self.members)

    @classmethod
    def pure(cls, state: TwoTimeState) -> "Ensemble":
        return cls(((1.0, state),))


def _member_misfit(r: int, norm: float) -> NormalizationError:
    return NormalizationError(f"member {r} has Frobenius norm {norm!r}, expected 1")


def _unit_members(stack: np.ndarray, misfit=_member_misfit) -> np.ndarray:
    """``stack`` with every member at unit Frobenius norm, rescaled in place.

    Each member's norm must be 1 within the load slack
    ``_LOAD_NORM_ATOL`` (so no member is zero), and a norm off by more
    than ``ATOL`` is divided out: every ``stack[r]`` is then
    bit-identical to what ``TwoTimeState(stack[r])`` stores.  The first
    member r off by more raises ``misfit(r, norm)``.
    """
    v = stack.reshape(len(stack), -1)
    norms = np.sqrt(np.einsum("ri,ri->r", v.real, v.real)
                    + np.einsum("ri,ri->r", v.imag, v.imag))
    # These batched norms are within a few ulps of np.linalg.norm,
    # which TwoTimeState uses; members near a threshold get that norm.
    off = np.flatnonzero(np.abs(norms - 1.0) > ATOL / 2)
    exact = np.array([np.linalg.norm(stack[r]) for r in off], dtype=np.float64)
    bad = np.abs(exact - 1.0) > _LOAD_NORM_ATOL
    if bad.any():
        raise misfit(int(off[bad][0]), float(exact[bad][0]))
    rescale = np.abs(exact - 1.0) > ATOL
    stack[off[rescale]] /= exact[rescale, None, None]
    return stack


def pure_product(post: np.ndarray, pre: np.ndarray) -> TwoTimeState:
    """The product state "post-select ``post``, prepare ``pre``".

    ``coeffs[i, j] = conj(post[i]) * pre[j]``, normalized.  The
    post-selection vector enters conjugated (it is a bra), so
    ``contract_pure(op, pure_product(phi, psi)) = <phi|op|psi>`` for
    unit vectors.

    Raises
    ------
    DegenerateInputError
        If either vector is zero or not finite.
    DimensionMismatchError
        If the vectors are not 1-d of equal length.
    """
    phi = _as_array(post, "post-selection vector")
    psi = _as_array(pre, "preparation vector")
    if phi.ndim != 1 or psi.ndim != 1:
        raise DimensionMismatchError(
            f"expected 1-d vectors, got shapes {phi.shape} and {psi.shape}"
        )
    if phi.size != psi.size:
        raise DimensionMismatchError(
            f"post-selection and preparation dimensions differ: {phi.size} != {psi.size}"
        )
    if not (np.isfinite(phi).all() and np.isfinite(psi).all()):
        raise DegenerateInputError("post-selection or preparation vector is not finite")
    # Unless the plain product has unit norm (a NaN norm, from overflow, has not),
    # it is renormalized, so it is built from the vectors scaled exactly into range:
    # that neither overflows nor underflows, nor depends on their scales.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.outer(phi.conj(), psi)
        if not abs(np.linalg.norm(out) - 1.0) <= ATOL:
            out = np.outer(_unit_scaled(phi, "post-selection vector").conj(),
                           _unit_scaled(psi, "preparation vector"))
    return TwoTimeState(out)


def superpose(terms: Sequence[tuple[complex, TwoTimeState]]) -> TwoTimeState:
    """A normalized linear combination of two-time states.

    Terms with equal states (the same ``coeffs`` bytes) are first made one
    term by adding their coefficients, so their cancellation is exact.

    Raises
    ------
    DegenerateInputError
        If the terms cancel to zero (the different states' to ``_ZERO_NORM``
        times the sum of their coefficients' moduli), are none, or a
        coefficient is not finite.
    """
    terms = _as_pairs(terms, "superposition terms")
    if not terms:
        raise DegenerateInputError("superposition of no terms")
    _shared_dim([s for _, s in terms], TwoTimeState, "superposition terms")
    coeffs = np.array([_as_number(c, "superposition coefficient", complex) for c, _ in terms])
    if not np.isfinite(coeffs).all():
        raise DegenerateInputError("superposition coefficients are not finite")
    groups: dict = {}
    for k, (_, s) in enumerate(terms):
        groups.setdefault(s.coeffs.tobytes(), []).append(k)
    states = [terms[g[0]][1] for g in groups.values()]

    def merge(c: np.ndarray) -> np.ndarray:
        return np.array([sum(c[g[1:]], c[g[0]]) for g in groups.values()])

    with np.errstate(over="ignore", invalid="ignore"):  # scaled as in pure_product
        merged = merge(coeffs)
        acc = sum(c * s.coeffs for c, s in zip(merged, states))
        if not abs(np.linalg.norm(acc) - 1.0) <= ATOL:
            if not np.isfinite(merged).all():  # equal states' coefficients overflowed
                merged = merge(_unit_scaled(coeffs, "superposition coefficient vector"))
            merged = _unit_scaled(merged, "the sum of the superposition terms")
            acc = sum(c * s.coeffs for c, s in zip(merged, states))
    if np.linalg.norm(acc) <= _ZERO_NORM * np.abs(merged).sum():
        raise DegenerateInputError("superposition terms cancel to zero")
    return TwoTimeState(acc)


def density_from_ensemble(ensemble: Ensemble) -> DensityVector:
    """The density vector ``sum_r p_r vec(state_r) vec(state_r)^dag``.

    Distinct ensembles with equal density vectors are operationally
    identical: every probability rule in this package depends on the
    ensemble only through this object.
    """
    w = _as_instance(ensemble, Ensemble, "ensemble").weights
    v = ensemble.coeff_stack.reshape(len(w), -1)
    # einsum, not a BLAS product: its bits do not depend on the BLAS thread count.
    return DensityVector._from_psd(np.einsum("ra,rb->ab", v * w[:, None], v.conj()))


def ensemble_from_density(eta: DensityVector) -> Ensemble:
    """An ensemble whose density vector reproduces ``eta``.

    Uses the eigendecomposition: eigenvalues above ``_EIG_CUTOFF`` become
    weights (renormalized to absorb the discarded tail) and the matching
    eigenvectors, reshaped, become the member states.  Any ensemble with
    the same density vector is operationally interchangeable with the
    one returned here.  Raises ValidationError when ``eta``'s dimension d
    needs more than core's allocation budget: 80 d^4 + 16 KiB bytes, the
    eigenvectors and the member stack (32 d^4, which tracemalloc sees)
    and LAPACK ``zheevd``'s copy of the matrix and its workspace (48 d^4,
    which it does not).
    """
    d = _as_instance(eta, DensityVector, "eta").dim
    _check_budget(80 * d**4 + 2**14, f"the eigenvectors of the dimension-{d} density vector")
    lam, w = np.linalg.eigh(eta.mat)
    # A trace-1 matrix has an eigenvalue of at least 1 / d^2, far above the cutoff.
    keep = lam > _EIG_CUTOFF
    lam = lam[keep]
    stack = _unit_members(w[:, keep].T.reshape(-1, d, d))
    return Ensemble._from_stack(lam / lam.sum(), stack)


def positivity_check(obj) -> tuple[bool, float]:
    """Report positivity of a density-vector-shaped array.

    Accepts a :class:`DensityVector` (or any positive-matrix object, read
    as its stored matrix) or a raw Hermitian array and returns
    ``(is_positive, min_eigenvalue)`` where positivity means the smallest
    eigenvalue is >= -``PSD_ATOL``.

    Raises
    ------
    ValidationError
        If a raw array is not numbers, not square, or not finite.
    NotHermitianError
        If a raw array fails Hermiticity within ``ATOL``.
    """
    mat = _pair_operand(obj, "matrix")
    defect = _hermiticity_defect(mat)
    if defect > ATOL:
        raise NotHermitianError(f"matrix is not Hermitian: defect {defect:.3e}")
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    return (min_eig >= -PSD_ATOL, min_eig)
