"""Linear-inversion tomography of density vectors.

A density vector on a d-level system has d^4 real parameters (minus
normalization).  The fixed operator family used here pins all of them
with a single complete measurement of 4 d^4 outcomes: for every ordered
pair of matrix units ``O_ij, O_kl`` the four operators::

    (O_ij + O_kl) / sqrt(8 d^3)      variant "+"
    (O_ij - O_kl) / sqrt(8 d^3)      variant "-"
    (O_ij + i O_kl) / sqrt(8 d^3)    variant "+i"
    (O_ij - i O_kl) / sqrt(8 d^3)    variant "-i"

in lexicographic (i, j, k, l) order.  The family is complete
(``sum A^dag A = I`` exactly) and its vectorized positive operators sum
to ``I / d``, so measured probabilities determine the underlying
weights up to the known overall scale ``1/d``.

Every operator has at most two nonzero entries, so the forward map is
closed-form.  With ``M = eta.mat``, units ``a = (i, j)``, ``b = (k, l)``
and phase ``phi`` in ``(1, -1, i, -i)``, outcome ``(i, j, k, l, phi)``
has unnormalized weight::

    (M_aa + M_bb + 2 Re(conj(phi) M_ab)) / (8 d^3)

which :func:`predict_probabilities` evaluates as O(d^4) array work
without building any operator.

Inversion is its closed-form twin, by polarization::

    eta[(i,j), (k,l)] = 2 d^2 [ (p_+ - p_-) + i (p_+i - p_-i) ]

followed by symmetrization, eigenvalue clipping to the positive cone,
and trace normalization, all O(d^4).

Only the explicit operator set (``TomographySet.measurement``, 64 d^6
bytes) grows faster than d^4; it and the outcome labels (352 d^4 bytes
of Python tuples) raise ValidationError before allocating more than
core's allocation budget, :data:`MAX_DENSE_BYTES`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DENOMINATOR_EPS,
    MAX_DENSE_BYTES,
    PSD_CLIP_TOL,
    _LOAD_NORM_ATOL,
    DensityVector,
    _as_array,
    _as_instance,
    _as_int,
    _as_number,
    _check_budget,
    _clamped,
    _hermitian_part,
    _require_same_dim,
)
from .errors import MalformedDataError, PostSelectionImpossibleError, ValidationError
from .measurements import Measurement
from .probability import _normalize

__all__ = [
    "VARIANTS",
    "PSD_CLIP_TOL",
    "MAX_DENSE_BYTES",
    "TomographySet",
    "build_tomography_set",
    "predict_probabilities",
    "reconstruct",
    "sampling_clip_tol",
]

#: The four variants attached to each ordered pair of matrix units.
VARIANTS = ("+", "-", "+i", "-i")

_VARIANT_PHASES = np.array([1.0, -1.0, 1.0j, -1.0j])


def _vectorized_family(d: int) -> np.ndarray:
    """The (4 d^4, d^2) stack of vectorized operators, in outcome order.

    Row ``((a d^2 + b) 4 + v)`` holds ``scale`` at unit ``a`` plus
    ``phase_v scale`` at unit ``b``, added in that order (so a repeated
    unit sums the two, and its "-" row is exactly zero).
    """
    n = d * d
    scale = 1.0 / np.sqrt(8.0 * d**3)
    units = np.arange(n)
    fam = np.zeros((n, n, 4, n), dtype=np.complex128)
    fam[units, :, :, units] += scale
    fam[:, units, :, units] += _VARIANT_PHASES * scale
    return fam.reshape(4 * n * n, n)


@dataclass(frozen=True, eq=False)
class TomographySet:
    """The informationally complete measurement for one dimension.

    Only ``dim`` is stored; the 4 d^4 outcomes are described by the
    closed form in the module docstring.  ``labels`` and
    ``measurement`` are built on first access and cached.

    Attributes
    ----------
    dim : int
    n_outcomes : int
        ``4 d^4``.
    labels : tuple of (i, j, k, l, variant)
        The label of each outcome, in lexicographic (i, j, k, l,
        variant) order.  Raises ValidationError when the labels would
        exceed :data:`MAX_DENSE_BYTES` (d >= 25).
    measurement : Measurement
        The 4 d^4 detailed outcomes, aligned with ``labels``.  Raises
        ValidationError when the operators would exceed
        :data:`MAX_DENSE_BYTES` (d >= 12).
    """

    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _as_int(self.dim, "dimension"))

    @property
    def n_outcomes(self) -> int:
        return 4 * self.dim**4

    @cached_property
    def labels(self) -> tuple:
        # 88 bytes a label: an 80-byte 5-tuple and its slot (ints and strings are shared).
        _check_budget(88 * self.n_outcomes, f"the dimension-{self.dim} tomography labels")
        units = range(self.dim)
        return tuple(itertools.product(units, units, units, units, VARIANTS))

    @cached_property
    def measurement(self) -> Measurement:
        d = self.dim
        _check_budget(16 * self.n_outcomes * d * d, f"the dimension-{d} tomography operators")
        names = ["({},{})({},{}){}".format(*lab) for lab in self.labels]
        stack = _vectorized_family(d).reshape(-1, d, d)
        return Measurement._from_stack(stack, [1] * len(names), names)


def build_tomography_set(dim: int) -> TomographySet:
    """The 4 d^4-outcome family for dimension ``dim``.

    Pairs with i = k and j = l include a zero "-" operator; it is kept
    so the count, the ordering, and the per-pair completeness arithmetic
    stay uniform (a zero operator never fires and does not affect
    completeness).  Nothing is built until ``labels`` or ``measurement``
    is read.
    """
    return TomographySet(dim)


def predict_probabilities(eta: DensityVector, ts: TomographySet) -> np.ndarray:
    """Outcome probabilities of the tomography measurement on ``eta``.

    Equal to ``prob_density(eta, ts.measurement)``, computed from the
    closed-form weights in the module docstring, with that rule's clamp:
    no operator has ``|vec(A)|^2`` above 1, so the clamp's trace is 1.
    Raises ValidationError when its 192 d^4 + 4 KiB bytes (the complex
    cross terms and four float64 arrays of the 4 d^4 weights) exceed
    :data:`MAX_DENSE_BYTES`, from d = 29.
    """
    _as_instance(eta, DensityVector, "eta")
    _as_instance(ts, TomographySet, "ts")
    _require_same_dim(eta.dim, ts.dim, "predict_probabilities")
    d = ts.dim
    _check_budget(192 * d**4 + 2**12, f"the dimension-{d} tomography probabilities")
    mat = eta.mat
    diag = mat.diagonal().real
    cross = (np.conj(_VARIANT_PHASES) * mat[:, :, None]).real
    weights = (diag[:, None, None] + diag[None, :, None]) + 2.0 * cross
    numerators = (weights / (8.0 * d**3)).reshape(-1)
    return _normalize(_clamped(numerators, 1.0), PostSelectionImpossibleError)


def _clip_to_density(raw: np.ndarray, clip_tol: float) -> DensityVector:
    herm = _hermitian_part(raw)
    lam, w = np.linalg.eigh(herm)
    if float(lam[0]) < -clip_tol:
        raise MalformedDataError(
            f"reconstruction is not positive: min eigenvalue {float(lam[0]):.3e} "
            f"below -{clip_tol}"
        )
    lam = np.clip(lam, 0.0, None)
    total = float(lam.sum())
    if total <= DENOMINATOR_EPS:
        raise MalformedDataError("reconstruction has zero trace after clipping")
    return DensityVector._from_psd((w * (lam / total)) @ w.conj().T)


def reconstruct(probs: np.ndarray, dim: int, *, clip_tol: float = PSD_CLIP_TOL) -> DensityVector:
    """Invert tomography probabilities to a density vector by polarization.

    Parameters
    ----------
    probs : array_like
        4 d^4 outcome probabilities (or empirical frequencies), ordered
        as produced by :func:`build_tomography_set`; entries must be
        >= -1e-9 and sum to 1 within 1e-9.
    dim : int
        The system dimension d.
    clip_tol : float
        Most-negative eigenvalue tolerated before the data is rejected
        as malformed (smaller negatives are clipped to zero); a finite
        number >= 0.  The default suits exact probability lists.
        Empirical frequencies carry sampling noise of order
        ``dim**2 / sqrt(successes)`` in the eigenvalues, so statistical
        callers must widen the gate accordingly; ``sampling_clip_tol``
        computes a safe value.

    Raises
    ------
    ValidationError
        On a dimension that is not a positive integer, a ``clip_tol``
        that is not a number, negative or not finite, ``probs`` that
        numpy cannot read as numbers.
    MalformedDataError
        On wrong length, negative entries, a bad sum, or data whose
        inversion fails positivity beyond ``clip_tol``.
    """
    d = _as_int(dim, "dimension")
    tol = _as_number(clip_tol, "clip_tol")
    if not 0.0 <= tol < math.inf:  # NaN or inf switches the gate off; < 0 rejects all
        raise ValidationError(f"clip_tol must be a finite number >= 0, got {clip_tol!r}")
    p = _as_array(probs, "probs", np.float64)
    n_expected = 4 * d**4
    if p.ndim != 1 or p.size != n_expected:
        raise MalformedDataError(
            f"expected {n_expected} probabilities for dimension {d}, got shape {p.shape}"
        )
    if not np.all(np.isfinite(p)):
        raise MalformedDataError("probabilities contain non-finite entries")
    if float(p.min()) < -_LOAD_NORM_ATOL:
        raise MalformedDataError(f"probabilities contain negative entries (min {p.min():.3e})")
    with np.errstate(over="ignore"):  # a sum past float64 reads inf and fails
        total = float(p.sum())
    if abs(total - 1.0) > _LOAD_NORM_ATOL:
        raise MalformedDataError(f"probabilities sum to {total!r}, expected 1")

    p4 = p.reshape(d * d, d * d, 4)
    raw = 2.0 * d * d * ((p4[..., 0] - p4[..., 1]) + 1j * (p4[..., 2] - p4[..., 3]))
    return _clip_to_density(raw, tol)


def sampling_clip_tol(dim: int, successes: int) -> float:
    """A positivity gate wide enough for frequencies from ``successes`` samples.

    ``10 d^2 / sqrt(successes)``: eigenvalue noise of the raw inversion
    scales like ``d^2`` times the per-outcome frequency error, and the
    factor 10 leaves generous headroom, while genuinely inconsistent
    data (entries from a different state, wrong ordering) still lands
    far outside.  Never below the exact-data default.
    """
    d = _as_int(dim, "dimension")
    n = _as_int(successes, "successes")
    try:
        return max(PSD_CLIP_TOL, 10.0 * d * d / float(n) ** 0.5)
    except OverflowError:
        raise ValidationError("dimension or successes too large for a float") from None
