"""Building two-time states: products, superpositions, and mixtures.

A product state couples one post-selection vector to one preparation
vector.  Superpositions of such products are genuinely richer than any
single product (they carry correlations between the two times), and
mixtures of pure two-time states are richer still; the latter are
summarized losslessly by their :class:`~twotime.core.DensityVector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ATOL, PSD_ATOL, _ZERO_NORM, DensityVector, TwoTimeState, hermiticity_defect
from .core import _as_square_complex
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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A classical mixture of pure two-time states.

    Parameters
    ----------
    members : sequence of (weight, state) pairs
        Weights must be strictly positive and sum to 1 within 1e-12;
        all states must share one dimension.
    """

    members: tuple

    def __post_init__(self) -> None:
        members = tuple((float(w), s) for (w, s) in self.members)
        if not members:
            raise DegenerateInputError("ensemble has no members")
        for w, s in members:
            if not isinstance(s, TwoTimeState):
                raise DimensionMismatchError(f"ensemble member {s!r} is not a TwoTimeState")
            if not np.isfinite(w) or w <= 0.0:
                raise NormalizationError(f"ensemble weight {w!r} is not strictly positive")
        dims = {s.dim for _, s in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"ensemble members have mixed dimensions {sorted(dims)}")
        total = sum(w for w, _ in members)
        if abs(total - 1.0) > ATOL:
            raise NormalizationError(f"ensemble weights sum to {total!r}, expected 1")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.members])

    @property
    def states(self) -> tuple:
        return tuple(s for _, s in self.members)

    @classmethod
    def pure(cls, state: TwoTimeState) -> "Ensemble":
        return cls(((1.0, state),))


def pure_product(post: np.ndarray, pre: np.ndarray) -> TwoTimeState:
    """The product state "post-select ``post``, prepare ``pre``".

    ``coeffs[i, j] = conj(post[i]) * pre[j]``, normalized.  The
    post-selection vector enters conjugated (it is a bra), so
    ``contract_pure(op, pure_product(phi, psi)) = <phi|op|psi>`` for
    unit vectors.

    Raises
    ------
    DegenerateInputError
        If either vector is zero.
    DimensionMismatchError
        If the vectors are not 1-d of equal length.
    """
    phi = np.asarray(post, dtype=np.complex128)
    psi = np.asarray(pre, dtype=np.complex128)
    if phi.ndim != 1 or psi.ndim != 1:
        raise DimensionMismatchError(
            f"expected 1-d vectors, got shapes {phi.shape} and {psi.shape}"
        )
    if phi.size != psi.size:
        raise DimensionMismatchError(
            f"post-selection and preparation dimensions differ: {phi.size} != {psi.size}"
        )
    if np.linalg.norm(phi) <= _ZERO_NORM:
        raise DegenerateInputError("post-selection vector is zero")
    if np.linalg.norm(psi) <= _ZERO_NORM:
        raise DegenerateInputError("preparation vector is zero")
    return TwoTimeState(np.outer(phi.conj(), psi))


def superpose(terms: Sequence[tuple[complex, TwoTimeState]]) -> TwoTimeState:
    """A normalized linear combination of two-time states.

    Raises
    ------
    DegenerateInputError
        If the terms cancel to the zero array (or the list is empty).
    """
    terms = list(terms)
    if not terms:
        raise DegenerateInputError("superposition of no terms")
    dims = {s.dim for _, s in terms}
    if len(dims) != 1:
        raise DimensionMismatchError(f"superposition terms have mixed dimensions {sorted(dims)}")
    acc = sum(complex(c) * s.coeffs for c, s in terms)
    if float(np.linalg.norm(acc)) <= _ZERO_NORM:
        raise DegenerateInputError("superposition terms cancel to zero")
    return TwoTimeState(acc)


def density_from_ensemble(ensemble: Ensemble) -> DensityVector:
    """The density vector ``sum_r p_r vec(state_r) vec(state_r)^dag``.

    Distinct ensembles with equal density vectors are operationally
    identical: every probability rule in this package depends on the
    ensemble only through this object.
    """
    mats = ((w, s.coeffs.reshape(-1)) for w, s in ensemble.members)
    acc = sum(w * np.outer(v, v.conj()) for w, v in mats)
    return DensityVector(acc)


def ensemble_from_density(eta: DensityVector, *, cutoff: float = 1e-12) -> Ensemble:
    """An ensemble whose density vector reproduces ``eta``.

    Uses the eigendecomposition: eigenvalues above ``cutoff`` become
    weights (renormalized to absorb the discarded tail) and the matching
    eigenvectors, reshaped, become the member states.  Any ensemble with
    the same density vector is operationally interchangeable with the
    one returned here.
    """
    lam, w = np.linalg.eigh(eta.mat)
    keep = lam > cutoff
    if not np.any(keep):
        raise DegenerateInputError("density vector has no eigenvalue above cutoff")
    lam = lam[keep]
    weights = lam / lam.sum()
    members = tuple(
        (float(p), TwoTimeState(w[:, idx].reshape(eta.dim, eta.dim)))
        for p, idx in zip(weights, np.nonzero(keep)[0])
    )
    return Ensemble(members)


def positivity_check(obj) -> tuple[bool, float]:
    """Report positivity of a density-vector-shaped array.

    Accepts a :class:`DensityVector` or a raw Hermitian array and
    returns ``(is_positive, min_eigenvalue)`` where positivity means the
    smallest eigenvalue is >= -1e-10.

    Raises
    ------
    DimensionMismatchError, DegenerateInputError
        If a raw array is not square, or not finite.
    NotHermitianError
        If a raw array fails Hermiticity within 1e-12.
    """
    if isinstance(obj, DensityVector):
        mat = obj.mat
    else:
        mat = _as_square_complex(obj, "matrix")
        defect = hermiticity_defect(mat)
        if defect > ATOL:
            raise NotHermitianError(f"matrix is not Hermitian: defect {defect:.3e}")
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    return (min_eig >= -PSD_ATOL, min_eig)
