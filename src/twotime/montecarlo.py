"""Shot-based simulation of the physical preparation/post-selection protocol.

Each attempt plays out the protocol that realizes a two-time state
operationally:

1. draw an ensemble member r with probability ``p_r``;
2. prepare the system-ancilla entangled state
   ``sum_ij alpha_ij |j>_system |i>_ancilla`` (unit norm);
3. the observer applies one measurement (possibly chosen at random from
   a policy), sampling a fine-grained Kraus branch ``(mu, chi)`` with
   Born probability ``||(A (x) I) state||^2`` and collapsing the state;
4. post-select on the maximally entangled state of system and ancilla;
   the success probability of the collapsed branch works out to
   ``|A . alpha|^2 / (d * born)``, so only the success bit is sampled,
   never the full d^2-outcome projective measurement.

Only ``(mu, success)`` is recorded; coarse-grained outcomes are sampled
at full (mu, chi) detail and lumped in the tally.  Conditioned on
success, outcome frequencies converge to the ensemble probability rule
(mix outcome weights over members, then normalize).

Randomness contract
-------------------
One master seed (uint64) expands into a counter-based family of Philox
streams: attempt ``t`` consumes row ``t % 65536`` of the (65536, 4)
uniform block generated by ``Philox(key=[seed, t // 65536])``.  The
four uniforms drive, in order: member draw, measurement choice, Kraus
branch, success test.  The chunk size 65536 is part of the contract.
Results therefore depend only on (seed, shots), bit-identically, no
matter how attempts are partitioned across workers; partial tallies
merge by summation.

Cost per chunk: the member, the measurement choice and the Kraus branch
of every attempt are drawn by one exact guide-table inversion each
(``_Inverse``), then the success test and the tallies take two gathers
and two ``bincount`` calls; nothing is sorted or looped over per group.
The inversion compares ``edge <= u`` as ``searchsorted(row, u,
side="right")`` does and returns its index for every attempt, so no
tally can move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import KrausOperator, _as_int
from .errors import (
    DimensionMismatchError,
    IncompleteMeasurementError,
    NormalizationError,
    ValidationError,
)
from .measurements import Measurement
from .probability import _contraction_weights, prob_coarse
from .states import Ensemble, density_from_ensemble, pure_product

__all__ = [
    "CHUNK",
    "ObserverPolicy",
    "SimConfig",
    "SimResult",
    "DiscardDemo",
    "ReversalReport",
    "simulate",
    "simulate_proportion_reversal",
    "reversal_scenario",
    "analytic_success_rate",
]

#: Attempts per Philox key block; part of the randomness contract.
CHUNK = 65536

_MAX_SEED = 2**64


@dataclass(frozen=True, eq=False)
class ObserverPolicy:
    """The observer's (possibly random) choice of measurement.

    Parameters
    ----------
    measurements : tuple of Measurement
        All complete, all of one dimension.
    choice_probs : tuple of float
        Strictly positive, summing to 1 within 1e-12.
    """

    measurements: tuple
    choice_probs: tuple

    def __post_init__(self) -> None:
        ms = tuple(self.measurements)
        ps = tuple(float(p) for p in self.choice_probs)
        if not ms:
            raise ValidationError("policy has no measurements")
        if len(ms) != len(ps):
            raise DimensionMismatchError(
                f"{len(ms)} measurements but {len(ps)} choice probabilities"
            )
        for m in ms:
            if not isinstance(m, Measurement):
                raise DimensionMismatchError(f"{m!r} is not a Measurement")
        dims = {m.dim for m in ms}
        if len(dims) != 1:
            raise DimensionMismatchError(f"measurements have mixed dimensions {sorted(dims)}")
        for p in ps:
            if not math.isfinite(p) or p <= 0.0:
                raise NormalizationError(f"choice probability {p!r} is not strictly positive")
        total = sum(ps)
        if abs(total - 1.0) > 1e-12:
            raise NormalizationError(f"choice probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "measurements", ms)
        object.__setattr__(self, "choice_probs", ps)

    @property
    def dim(self) -> int:
        return self.measurements[0].dim

    @classmethod
    def fixed(cls, measurement: Measurement) -> "ObserverPolicy":
        return cls((measurement,), (1.0,))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """A fully specified simulation: ensemble, policy, shots, seed."""

    ensemble: Ensemble
    policy: ObserverPolicy
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.ensemble, Ensemble):
            raise DimensionMismatchError(f"{self.ensemble!r} is not an Ensemble")
        if not isinstance(self.policy, ObserverPolicy):
            raise DimensionMismatchError(f"{self.policy!r} is not an ObserverPolicy")
        if self.ensemble.dim != self.policy.dim:
            raise DimensionMismatchError(
                f"ensemble dim {self.ensemble.dim} != measurement dim {self.policy.dim}"
            )
        shots = _as_int(self.shots, "shots")
        seed = _as_int(self.seed, "seed", 0, _MAX_SEED)
        # Completeness is a physical requirement: the observer's Kraus
        # branches must exhaust the Born rule before post-selection.
        for m in self.policy.measurements:
            if not m.is_complete:
                raise IncompleteMeasurementError(
                    f"policy contains an incomplete measurement (defect "
                    f"{m.completeness_defect:.3e})"
                )
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def fixed(cls, ensemble: Ensemble, measurement: Measurement, shots: int, seed: int) -> "SimConfig":
        return cls(ensemble, ObserverPolicy.fixed(measurement), shots, seed)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Tallies of one simulation.

    Attributes
    ----------
    attempts : int
    attempted : numpy.ndarray
        (n_choices, n_members) attempts per measurement choice and
        ensemble member.
    choice_counts : tuple of numpy.ndarray
        One (n_members, n_outcomes) success-count array per measurement
        choice.
    """

    attempts: int
    attempted: np.ndarray
    choice_counts: tuple

    @property
    def n_choices(self) -> int:
        return len(self.choice_counts)

    @property
    def successes(self) -> int:
        return int(sum(int(c.sum()) for c in self.choice_counts))

    def successes_for(self, choice: int = 0) -> int:
        return int(self.choice_counts[choice].sum())

    def outcome_counts_for(self, choice: int = 0) -> np.ndarray:
        """Per-outcome success counts n_mu for one measurement choice."""
        return self.choice_counts[choice].sum(axis=0)

    def member_counts_for(self, choice: int = 0) -> np.ndarray:
        """Per-ensemble-member success counts for one measurement choice."""
        return self.choice_counts[choice].sum(axis=1)

    def frequencies_for(self, choice: int = 0) -> np.ndarray:
        """Empirical conditional frequencies f_mu = n_mu / successes.

        Zeros when nothing succeeded for that choice.
        """
        n = self.successes_for(choice)
        counts = self.outcome_counts_for(choice)
        return counts / n if n > 0 else np.zeros_like(counts, dtype=float)

    @property
    def counts(self) -> np.ndarray:
        """n_mu for a fixed (single-measurement) policy."""
        if self.n_choices != 1:
            raise ValidationError("counts is defined for fixed policies; use outcome_counts_for")
        return self.outcome_counts_for(0)

    @property
    def frequencies(self) -> np.ndarray:
        """f_mu for a fixed (single-measurement) policy."""
        if self.n_choices != 1:
            raise ValidationError(
                "frequencies is defined for fixed policies; use frequencies_for"
            )
        return self.frequencies_for(0)


def _uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the per-seed uniform table (4 per attempt)."""
    out = np.empty((stop - start, 4))
    pos = start
    while pos < stop:
        block_idx, first = divmod(pos, CHUNK)
        end = min(stop, (block_idx + 1) * CHUNK)
        bitgen = Philox(key=np.array([seed, block_idx], dtype=np.uint64))
        # One Philox counter step yields four 64-bit words: one row.
        bitgen.advance(first)
        Generator(bitgen).random(out=out[pos - start:end - start])
        pos = end
    return out


#: Bytes of the ``collapsed`` intermediate that ``_Tables`` may hold for
#: one block of ensemble members; bounds the table build's peak memory.
_TABLE_BLOCK_BYTES = 1 << 21

#: Bytes of the int64 counts an ``_Inverse`` guide is built from; bounds
#: its bucket count K and the build's peak memory.
_GUIDE_BYTES = 1 << 20


class _Inverse:
    """Exact ``searchsorted(cum[row], u, side="right")`` for arrays of (row, u).

    ``cum`` is (n_rows, width): nondecreasing rows padded with +inf to a
    power-of-two width with at least one pad.  K is a power of two, so
    bucket j = clip(floor(u K), -1, K) + 1 is exact, and an edge c lies at
    or below the bucket's lower end (j - 1) / K (-inf for j = 0) exactly
    when ``ceil(c K) + 1 <= j``.  ``guide[j]`` is that count of edges when
    it equals the count at the bucket's upper end, which settles every u
    in the bucket, and -1 otherwise; those draws run a branchless halving
    search over their row.  Both routes count ``edge <= u`` as
    ``searchsorted`` does, for any finite double u.
    """

    def __init__(self, cum: np.ndarray) -> None:
        n_rows, self.width = cum.shape
        self.cum = cum.ravel()
        k = 16 * self.width
        while k > 1 and n_rows * (k + 3) * 8 > _GUIDE_BYTES:
            k //= 2
        self.k = k
        first = np.clip(np.ceil(cum * k), 0, k + 1).astype(np.intp) + 1
        first += np.arange(n_rows)[:, None] * (k + 3)
        h = np.bincount(first.ravel(), minlength=n_rows * (k + 3)).reshape(n_rows, k + 3)
        np.cumsum(h, axis=1, out=h)
        guide = h[:, :-1].astype(np.min_scalar_type(-self.width))
        guide[h[:, :-1] != h[:, 1:]] = -1
        self.guide = guide.ravel()

    def __call__(self, u: np.ndarray, rows: np.ndarray | int = 0) -> np.ndarray:
        j = u * self.k
        np.floor(j, out=j)
        np.clip(j, -1, self.k, out=j)
        j = j.astype(np.intp)
        j += rows * (self.k + 2) + 1
        found = self.guide[j]
        todo = np.flatnonzero(found < 0)
        found = found.astype(np.intp)
        if todo.size:
            ut = u[todo]
            start = np.broadcast_to(rows, u.shape)[todo] * self.width
            pos = start.copy()
            step = self.width // 2
            while step:
                pos += step * (self.cum[pos + (step - 1)] <= ut)
                step //= 2
            found[todo] = pos - start
        return found


def _stacked(blocks: list, width: int, fill) -> np.ndarray:
    """The rows of equal-height ``blocks`` in order, padded with ``fill``."""
    out = np.full((len(blocks), len(blocks[0]), width), fill, dtype=blocks[0].dtype)
    for dst, b in zip(out, blocks):
        dst[:, :b.shape[1]] = b
    return out.reshape(-1, width)


def _inverse(cums: list) -> _Inverse:
    """``_Inverse`` of cumulative rows without their last edges, so a draw
    at or past the last edge takes the last index, as the clamp
    ``min(searchsorted(row, u, side="right"), n - 1)`` would."""
    width = 1 << (max(c.shape[1] for c in cums) - 1).bit_length()
    return _Inverse(_stacked([c[:, :-1] for c in cums], width, np.inf))


class _Tables:
    """Precomputed sampling tables; everything the per-attempt loop needs.

    ``cum_branch[c]`` and ``success[c]`` are (n_members, n_branches)
    arrays: the cumulative Born weights of measurement c's fine-grained
    Kraus branches and the post-selection success probability of each
    collapsed branch, one row per ensemble member.  ``branches`` inverts
    them, and ``success_at`` and ``tally_at`` give each branch's success
    probability and flat (choice, member, outcome) tally index, in rows
    ``choice * n_members + member`` of ``branches.width`` entries.
    """

    def __init__(self, cfg: SimConfig) -> None:
        d = cfg.ensemble.dim
        self.n_members = len(cfg.ensemble.members)
        self.members = _inverse([np.cumsum(cfg.ensemble.weights)[None]])
        self.choices = _inverse([np.cumsum(np.array(cfg.policy.choice_probs))[None]])
        coeffs = np.stack([state.coeffs for state in cfg.ensemble.states])
        self.outcome_of = []
        self.n_outcomes = []
        self.cum_branch = []
        self.success = []
        for m in cfg.policy.measurements:
            stack = m.kraus_stack
            born = np.empty((self.n_members, len(stack)))
            block = max(1, _TABLE_BLOCK_BYTES // (16 * stack.size))  # complex128 rows
            for lo in range(0, self.n_members, block):
                collapsed = np.einsum("rij,okj->roik", coeffs[lo:lo + block], stack)
                born[lo:lo + block] = np.einsum(
                    "roik,roik->ro", collapsed, collapsed.conj()
                ).real
            with np.errstate(divide="ignore", invalid="ignore"):
                succ = _contraction_weights(m, coeffs) / (d * born)
            succ[born <= 1e-300] = 0.0
            self.outcome_of.append(m.outcome_of)
            self.n_outcomes.append(m.n_outcomes)
            self.cum_branch.append(np.cumsum(born, axis=1))
            self.success.append(np.clip(succ, 0.0, 1.0))
        self.branches = _inverse(self.cum_branch)
        width = self.branches.width
        self.success_at = _stacked(self.success, width, 0.0).ravel()
        rows = np.arange(len(self.success) * self.n_members).reshape(len(self.success), -1, 1)
        tally = [rows[c] * max(self.n_outcomes) + o for c, o in enumerate(self.outcome_of)]
        self.tally_at = _stacked(tally, width, 0).ravel()


def _accumulate(cfg: SimConfig, tables: _Tables, start: int, stop: int,
                attempted: np.ndarray, tally: np.ndarray) -> None:
    """Add the attempts and successes of [start, stop) to the flat tallies."""
    pos = start
    while pos < stop:
        end = min(stop, pos + CHUNK - (pos % CHUNK))
        u = _uniforms(cfg.seed, pos, end)
        row = tables.choices(u[:, 1]) * tables.n_members + tables.members(u[:, 0])
        attempted += np.bincount(row, minlength=attempted.size)
        at = tables.branches(u[:, 2], row) + row * tables.branches.width
        wins = u[:, 3] < tables.success_at[at]
        tally += np.bincount(tables.tally_at[at[wins]], minlength=tally.size)
        pos = end


def simulate(cfg: SimConfig, _ranges=None) -> SimResult:
    """Run the protocol for ``cfg.shots`` attempts.

    ``_ranges`` (internal) lets tests run disjoint attempt ranges
    separately and verify the merged tally is bit-identical to a single
    pass, which is the partition-independence guarantee of the
    randomness contract.
    """
    tables = _Tables(cfg)
    shape = (len(tables.n_outcomes), tables.n_members, max(tables.n_outcomes))
    attempted = np.zeros(shape[:2], dtype=np.int64)
    tally = np.zeros(shape, dtype=np.int64)
    if _ranges is None:
        _ranges = [(0, cfg.shots)]
    for start, stop in _ranges:
        _accumulate(cfg, tables, start, stop, attempted.reshape(-1), tally.reshape(-1))
    counts = tuple(tally[c, :, :n].copy() for c, n in enumerate(tables.n_outcomes))
    attempted.flags.writeable = False
    for arr in counts:
        arr.flags.writeable = False
    return SimResult(attempts=cfg.shots, attempted=attempted, choice_counts=counts)


def analytic_success_rate(ensemble: Ensemble, m: Measurement) -> float:
    """Probability that one attempt survives post-selection.

    ``sum_r p_r sum_branches |A . alpha_r|^2 / d``; useful for sizing
    ``shots`` against a wanted number of successes.
    """
    coeffs = np.stack([state.coeffs for state in ensemble.states])
    return float(ensemble.weights @ _contraction_weights(m, coeffs).sum(1) / ensemble.dim)


def _binomial_z(freq: float, p: float, n: int) -> float:
    """z-score of a frequency ``freq`` over ``n`` trials against ``p``.

    Degenerate cases (``n == 0`` or ``p`` in {0, 1}) give 0 when ``freq``
    equals ``p`` within 1e-12 and ``inf`` otherwise.
    """
    se = math.sqrt(p * (1.0 - p) / n) if n > 0 else 0.0
    if se == 0.0:
        return 0.0 if abs(freq - p) < 1e-12 else math.inf
    return (freq - p) / se


def reversal_scenario() -> tuple[Ensemble, Measurement, Measurement]:
    """The pinned two-member scenario whose proportions reverse.

    Ensemble: equal mixture of "post-select 0, prepare 0" and
    "post-select 0, prepare 1".  First measurement {|0><0|, |+><1|};
    second measurement {|+><0|, |0><1|}: each member succeeds always
    under one measurement and half the time under the other, with the
    roles swapped.
    """
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ensemble = Ensemble((
        (0.5, pure_product(e0, e0)),
        (0.5, pure_product(e0, e1)),
    ))
    m_first = Measurement.detailed(
        [KrausOperator(np.outer(e0, e0)), KrausOperator(np.outer(plus, e1))]
    )
    m_second = Measurement.detailed(
        [KrausOperator(np.outer(plus, e0)), KrausOperator(np.outer(e0, e1))]
    )
    return ensemble, m_first, m_second


@dataclass(frozen=True, eq=False)
class DiscardDemo:
    """Post-hoc equalization: discard half the dominant member's successes.

    Under the first measurement alone, member 0 succeeds twice as often
    as member 1; throwing away every other member-0 success restores
    equal proportions.  ``kept`` holds the counts after discarding,
    ``z`` the binomial z-score of the kept member-0 proportion against
    1/2.
    """

    seed: int
    member_counts: np.ndarray
    kept: np.ndarray
    kept_proportions: np.ndarray
    z: float

    @property
    def equalized(self) -> bool:
        return abs(self.z) <= 4.0


@dataclass(frozen=True, eq=False)
class ReversalReport:
    """Everything :func:`simulate_proportion_reversal` measures.

    ``member_counts[c, r]`` counts successes of ensemble member r when
    measurement c was chosen.  Conditional proportions reverse between
    the measurements (expected 2:1 and 1:2) while overall proportions
    stay 1:1: the post-selector, seeing only successes, cannot define
    "the ensemble the observer saw" without knowing the measurement.
    """

    shots: int
    seed: int
    result: SimResult
    member_counts: np.ndarray
    conditional_proportions: np.ndarray
    expected_conditional: np.ndarray
    conditional_z: np.ndarray
    overall_proportions: np.ndarray
    overall_z: float
    outcome_frequencies: tuple
    outcome_targets: tuple
    outcome_z: tuple
    separation: float
    separation_expected: float
    discard: DiscardDemo

    @property
    def proportions_within_tolerance(self) -> bool:
        return bool(
            np.all(np.abs(self.conditional_z) <= 4.0) and abs(self.overall_z) <= 4.0
        )

    @property
    def proportions_differ(self) -> bool:
        """Conditional proportions under the two measurements separate.

        True when the observed member-0 proportion gap is within 4
        combined standard errors of its expected value 1/3 and at least
        half of it.
        """
        return bool(self.separation >= self.separation_expected / 2.0)

    @property
    def consistent(self) -> bool:
        return (
            self.proportions_within_tolerance
            and self.proportions_differ
            and bool(np.all([np.all(np.abs(z) <= 4.0) for z in self.outcome_z]))
            and self.discard.equalized
        )


def simulate_proportion_reversal(shots: int = 100_000, seed: int = 7) -> ReversalReport:
    """Run the pinned reversal scenario under a 50/50 measurement choice.

    Also runs the first measurement alone with seed+1 for the post-hoc
    discard demonstration.  All statistical comparisons use 4 binomial
    standard errors.
    """
    ensemble, m_first, m_second = reversal_scenario()
    policy = ObserverPolicy((m_first, m_second), (0.5, 0.5))
    result = simulate(SimConfig(ensemble, policy, shots, seed))

    member_counts = np.stack([result.member_counts_for(c) for c in range(2)])
    expected = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
    cond = np.zeros((2, 2))
    cond_z = np.zeros((2, 2))
    for c in range(2):
        n_c = int(member_counts[c].sum())
        if n_c > 0:
            cond[c] = member_counts[c] / n_c
        cond_z[c, 0] = _binomial_z(cond[c, 0], expected[c, 0], n_c)
        cond_z[c, 1] = _binomial_z(cond[c, 1], expected[c, 1], n_c)

    total_by_member = member_counts.sum(axis=0)
    n_total = int(total_by_member.sum())
    overall = total_by_member / n_total if n_total > 0 else np.zeros(2)
    overall_z = _binomial_z(float(overall[0]), 0.5, n_total)

    eta = density_from_ensemble(ensemble)
    targets = tuple(prob_coarse(eta, m) for m in (m_first, m_second))
    freqs = tuple(result.frequencies_for(c) for c in range(2))
    out_z = tuple(
        np.array([
            _binomial_z(float(f[mu]), float(t[mu]), result.successes_for(c))
            for mu in range(len(t))
        ])
        for c, (f, t) in enumerate(zip(freqs, targets))
    )

    discard_seed = (seed + 1) % _MAX_SEED
    fixed_result = simulate(SimConfig.fixed(ensemble, m_first, shots, discard_seed))
    fixed_members = fixed_result.member_counts_for(0)
    kept = fixed_members.copy()
    kept[0] //= 2
    kept_total = int(kept.sum())
    kept_prop = kept / kept_total if kept_total > 0 else np.zeros(2)
    discard = DiscardDemo(
        seed=discard_seed,
        member_counts=fixed_members,
        kept=kept,
        kept_proportions=kept_prop,
        z=_binomial_z(float(kept_prop[0]), 0.5, kept_total),
    )

    return ReversalReport(
        shots=shots,
        seed=seed,
        result=result,
        member_counts=member_counts,
        conditional_proportions=cond,
        expected_conditional=expected,
        conditional_z=cond_z,
        overall_proportions=overall,
        overall_z=overall_z,
        outcome_frequencies=freqs,
        outcome_targets=targets,
        outcome_z=out_z,
        separation=float(cond[0, 0] - cond[1, 0]),
        separation_expected=1.0 / 3.0,
        discard=discard,
    )
