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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ATOL,
    COMPLETENESS_ATOL,
    _EIG_CUTOFF,
    KrausDensityVector,
    KrausOperator,
    _as_instance,
    _as_number,
    _as_tuple,
    _check_budget,
    _check_hermitian_psd,
    _freeze,
    _hermitian_part,
    _operator_stack,
    _require_same_dim,
    _shared_dim,
    _side_of_pair_matrix,
)
from .errors import DegenerateInputError, DimensionMismatchError, ValidationError

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


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One outcome: a nonempty set of Kraus operators and an optional name."""

    kraus: tuple
    name: str = ""

    def __post_init__(self) -> None:
        kraus = tuple(op if isinstance(op, KrausOperator) else KrausOperator(op)
                      for op in _as_tuple(self.kraus, "outcome operators"))
        if not kraus:
            raise DegenerateInputError("measurement outcome has no Kraus operators")
        _shared_dim(kraus, KrausOperator, "outcome operators")
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "name", str(self.name))

    @property
    def dim(self) -> int:
        return self.kraus[0].dim


@dataclass(frozen=True, eq=False, init=False)
class Measurement:
    """An ordered list of measurement outcomes over one dimension.

    The measurement stores its Kraus operators as read-only arrays:
    ``kraus_stack``, the (n_branches, d, d) stack of every outcome's
    operators in order, and ``outcome_of``, the (n_branches,) index of
    the outcome each branch belongs to, beside ``names``, the tuple of
    outcome names.  ``outcomes`` is a view built on first read, whose
    operators' ``entries`` are rows of ``kraus_stack``.
    """

    kraus_stack: np.ndarray
    outcome_of: np.ndarray
    names: tuple

    def __init__(self, outcomes) -> None:
        outcomes = _as_tuple(outcomes, "outcomes")
        if not outcomes:
            raise DegenerateInputError("measurement has no outcomes")
        _shared_dim(outcomes, MeasurementOutcome, "outcomes")
        self._store(np.stack([op.entries for out in outcomes for op in out.kraus]),
                    [len(out.kraus) for out in outcomes], [out.name for out in outcomes])

    @classmethod
    def _from_stack(cls, stack: np.ndarray, sizes: Sequence[int],
                    names: Sequence[str]) -> "Measurement":
        """The measurement whose outcome mu holds the next ``sizes[mu]`` rows of ``stack``.

        ``stack`` is a finite (n_branches, d, d) complex128 array that
        the measurement takes over as its ``kraus_stack``.  The sizes
        are positive and sum to n_branches, one name per outcome.
        """
        m = cls.__new__(cls)
        m._store(stack, sizes, names)
        return m

    def _store(self, stack: np.ndarray, sizes: Sequence[int], names: Sequence[str]) -> None:
        outcome_of = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
        object.__setattr__(self, "kraus_stack", _freeze(stack))
        object.__setattr__(self, "outcome_of", _freeze(outcome_of))
        object.__setattr__(self, "names", tuple(names))

    @cached_property
    def outcomes(self) -> tuple:
        ops = tuple(map(KrausOperator._view, self.kraus_stack))
        ends = np.cumsum(np.bincount(self.outcome_of)).tolist()
        return tuple(MeasurementOutcome(ops[lo:hi], name)
                     for lo, hi, name in zip([0] + ends, ends, self.names))

    @property
    def dim(self) -> int:
        return self.kraus_stack.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.names)

    @property
    def is_detailed(self) -> bool:
        """True when every outcome has exactly one Kraus operator."""
        return len(self.kraus_stack) == len(self.names)

    @cached_property
    def completeness_defect(self) -> float:
        return check_completeness(self)[1]

    @cached_property
    def is_complete(self) -> bool:
        return self.completeness_defect <= COMPLETENESS_ATOL

    @classmethod
    def detailed(cls, ops: Iterable[KrausOperator], names: Sequence[str] | None = None) -> "Measurement":
        """One outcome per operator, in order."""
        return cls.from_kraus_sets([(op,) for op in _as_tuple(ops, "ops")], names)

    @classmethod
    def from_kraus_sets(cls, sets: Iterable[Iterable[KrausOperator]],
                        names: Sequence[str] | None = None) -> "Measurement":
        sets = [_as_tuple(s, "each of the Kraus sets") for s in _as_tuple(sets, "Kraus sets")]
        if names is None:
            names = [""] * len(sets)
        if len(names) != len(sets):
            raise DimensionMismatchError(f"{len(names)} names for {len(sets)} outcomes")
        return cls(MeasurementOutcome(s, name) for s, name in zip(sets, names))


def _kraus_density_bytes(n_outcomes: int, n_branches: int, d: int) -> int:
    """Peak bytes of any caller of ``_kraus_density_stack`` on n outcomes of b branches
    in dimension d: four (n, d^2, d^2) complex stacks (the Gram stack, its symmetrizing
    temporaries and the caller's other stack), two copies of the branches, and 2 MiB for
    stacks below 256 KiB, whose temporaries numpy does not elide."""
    return 64 * n_outcomes * d**4 + 32 * n_branches * d**2 + 2**21


def _kraus_density_stack(kraus_stack: np.ndarray, outcome_of: np.ndarray) -> np.ndarray:
    """The (n_outcomes, d^2, d^2) stack of the outcomes' Kraus density vectors.

    Entry mu is the Hermitian part of ``V^T V*``, V the vectorized
    (consecutive) rows of ``kraus_stack`` whose ``outcome_of`` is mu: the
    array :class:`KrausDensityVector` stores, bit for bit, with no
    eigenvalue check, since a Gram matrix is PSD.  Raises ValidationError
    first if :func:`_kraus_density_bytes` exceeds core's allocation budget.
    """
    sizes = np.bincount(outcome_of)
    _check_budget(_kraus_density_bytes(len(sizes), *kraus_stack.shape[:2]),
                  f"the Kraus density vectors of a {len(sizes)}-outcome measurement")
    v = kraus_stack.reshape(len(kraus_stack), -1)
    ends = np.cumsum(sizes).tolist()
    gram = np.empty((len(ends), v.shape[1], v.shape[1]), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for mu, (lo, hi) in enumerate(zip([0] + ends, ends)):
            gram[mu] = v[lo:hi].T @ v[lo:hi].conj()
    if not np.isfinite(gram).all():
        raise DegenerateInputError("Kraus density vector contains non-finite entries")
    return _hermitian_part(gram)


def kraus_density_vector(outcome) -> KrausDensityVector:
    """Vectorize one outcome: ``sum_chi vec(A_chi) vec(A_chi)^dag``.

    Accepts a :class:`MeasurementOutcome` or any iterable of Kraus
    operators, read as :class:`MeasurementOutcome` reads them.
    """
    if not isinstance(outcome, MeasurementOutcome):
        outcome = MeasurementOutcome(outcome)
    stack = np.array([op.entries for op in outcome.kraus])
    gram = _kraus_density_stack(stack, np.zeros(len(stack), np.intp))
    return KrausDensityVector._from_psd(gram[0])


def _post_selection_defect(total: np.ndarray, factor: float = 1.0) -> float:
    """Max ``|sum_i total[(i, j), (i, l)] - factor * delta_jl|``.

    Contracts a (d^2, d^2) array over its post-selection index pair and
    measures the distance of the result from ``factor`` times the
    identity on the preparation indices.
    """
    d = _side_of_pair_matrix(total, "operators")
    contracted = np.einsum("ijil->jl", total.reshape(d, d, d, d))
    return float(np.max(np.abs(contracted - factor * np.eye(d))))


def check_completeness(m: Measurement) -> tuple[bool, float]:
    """Whether ``sum_{mu,chi} A^dag A = I`` and the defect ``max|sum - I|``."""
    s = _as_instance(m, Measurement, "m").kraus_stack
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
    v = _as_instance(m, Measurement, "m").kraus_stack.reshape(-1, m.dim ** 2)
    return _post_selection_defect(v.T @ v.conj())


def measurements_equal(m1: Measurement, m2: Measurement) -> bool:
    """Operational equality: outcome-by-outcome equality of Kraus density vectors.

    Two outcomes realized by different Kraus sets are the same physical
    outcome exactly when their vectorized forms coincide: no entry differs
    by more than ``COMPLETENESS_ATOL``.  Comparison is positional, of the
    two stacks of Kraus density vectors at once; mismatched outcome counts
    (or dimensions) raise.
    """
    _as_instance(m1, Measurement, "m1")
    _as_instance(m2, Measurement, "m2")
    _require_same_dim(m1.dim, m2.dim, "measurements_equal")
    if m1.n_outcomes != m2.n_outcomes:
        raise ValidationError(
            f"outcome counts differ: {m1.n_outcomes} != {m2.n_outcomes}"
        )
    k1, k2 = (_kraus_density_stack(m.kraus_stack, m.outcome_of) for m in (m1, m2))
    return float(np.max(np.abs(k1 - k2))) <= COMPLETENESS_ATOL


def _checked_operators(ops, *, relative: bool, empty: Exception) -> tuple:
    """The stack ``ops``, each operator checked as Hermitian PSD and symmetrized, and its sum.

    Tolerances scale by ``relative`` as in ``_check_hermitian_psd``.
    """
    stack = _operator_stack(ops, empty)
    herm = np.stack([_check_hermitian_psd(arr, f"operator {idx}", relative=relative)
                     for idx, arr in enumerate(stack)])
    return herm, herm.sum(axis=0)


def _kraus_set_from_psd_matrix(mat: np.ndarray) -> np.ndarray:
    """The (k, d, d) stack of Kraus operators realizing a PSD vectorized operator.

    Eigendecomposes ``mat`` and keeps branches with eigenvalue above
    ``_EIG_CUTOFF``; returns a single zero operator when none survive (so
    the realization is always a valid, possibly trivial, outcome).
    """
    d = _side_of_pair_matrix(mat, "vectorized operator")
    lam, w = np.linalg.eigh(_hermitian_part(mat))
    keep = lam > _EIG_CUTOFF
    if not keep.any():
        return np.zeros((1, d, d), dtype=np.complex128)
    return (np.sqrt(lam[keep]) * w[:, keep]).T.reshape(-1, d, d)


def _measurement_of_sets(sets: list, names: list) -> Measurement:
    """The measurement whose outcome mu is ``names[mu]``, realized by the stack ``sets[mu]``."""
    return Measurement._from_stack(np.concatenate(sets), list(map(len, sets)), names)


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
    ops : sequence of (d^2, d^2) arrays or positive-matrix objects
        Hermitian positive semidefinite operators, all of one shape.  A
        positive-matrix object (a density or Kraus density vector, or a
        bipartite density or operator) is read as its stored matrix, and
        anything else as a square complex array.  As for
        :class:`~twotime.core.KrausDensityVector`, the Hermiticity and
        positivity tolerances scale with each operator's largest
        diagonal entry when it exceeds 1.
    scale : float, optional
        The rescaling factor ``c``.  Defaults to the largest valid
        value, ``1 / max_eigenvalue(sum(ops))``, which minimizes the
        weight of the discard outcome.  Any ``0 < c <= 1/max_eig`` keeps
        the remainder positive; out-of-range values raise, as do
        operators or a scale that are not numbers
        (:class:`~twotime.errors.ValidationError`).

    The kept outcomes of the completed measurement reproduce, after the
    discard outcome is dropped and the rest renormalized, the relative
    weights ``tr(E_mu rho) / sum_nu tr(E_nu rho)`` for every state, and
    those ratios are independent of the chosen scale.
    """
    arrays, total = _checked_operators(
        ops, relative=True, empty=DegenerateInputError("cannot complete an empty operator set"))
    n = total.shape[0]
    d = _side_of_pair_matrix(total, "operators")
    max_eig = float(np.linalg.eigvalsh(total)[-1])
    if max_eig <= _EIG_CUTOFF:
        raise DegenerateInputError("operator set sums to zero; nothing to complete")
    max_scale = 1.0 / max_eig
    if scale is None:
        c = max_scale
    else:
        c = _as_number(scale, "scale")
        if not (0.0 < c <= max_scale * (1.0 + ATOL)):
            raise ValidationError(
                f"scale {c!r} outside (0, {max_scale!r}] leaves a non-positive remainder"
            )
    remainder = np.eye(n, dtype=np.complex128) - c * total

    sets = [_kraus_set_from_psd_matrix((c / d) * arr.conj()) for arr in arrays]
    sets.append(_kraus_set_from_psd_matrix(remainder.conj() / d))
    return CompletionResult(
        scale=c,
        remainder=remainder,
        completed=_measurement_of_sets(sets, [*map(str, range(len(arrays))), "discard"]),
        discard_index=len(arrays),
    )
