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
word block of ``Philox(key=[seed, t // 65536])``, read as 53-bit draws
``m = word >> 11`` (``m * 2**-53`` is ``Generator.random``'s uniform).
The four draws drive, in order: member draw, measurement choice, Kraus
branch, success test.  The chunk size 65536 is part of the contract.
Results therefore depend only on (seed, shots), bit-identically, no
matter how attempts are partitioned across workers; partial tallies
merge by summation.

Cost per slice: a chunk's attempts are tallied in slices of 16384
(``_SLICE``), each reading its rows of the chunk's Philox block in
place, so the keying, the draw order and every tally are those of one
pass.  The member, the measurement choice and the Kraus branch of every
attempt are drawn by one exact guide-table inversion each (``_Inverse``;
a bucket is a shift of m), then the success test and the tallies take
two gathers and two ``bincount`` calls; nothing is sorted or looped
over per group.  Every comparison is on integers: an edge or success
probability c becomes ``E = min(ceil(c * 2**53), 2**53)``, and
``c <= u`` exactly when ``E <= m``, so no tally can move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .core import ATOL, KrausOperator, _as_instance, _as_int, _as_number, _as_tuple, _check_budget
from .core import _check_distribution, _require_same_dim, _shared_dim
from .errors import DimensionMismatchError, ValidationError
from .measurements import Measurement
from .probability import _contraction_weights, _require_complete, prob_coarse
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

#: Attempts tallied per pass of the shot loop, a divisor of ``CHUNK``.  It
#: sets the loop's memory, not its results: 32 B of draws per attempt and
#: temporaries that peak near 25 B more, 0.9 MiB a slice.  glibc's malloc
#: returns freed heap to the system once it exceeds twice the largest
#: block it has mapped, here the 512 KiB draw block; a slice under that
#: reuses the last slice's pages instead of faulting in fresh ones.
_SLICE = 1 << 14

_MAX_SEED = 2**64


@dataclass(frozen=True, eq=False)
class ObserverPolicy:
    """The observer's (possibly random) choice of measurement.

    Parameters
    ----------
    measurements : tuple of Measurement
        All complete, all of one dimension.
    choice_probs : tuple of float
        Numbers, strictly positive and summing to 1 within ``ATOL``.
    """

    measurements: tuple
    choice_probs: tuple

    def __post_init__(self) -> None:
        ms = _as_tuple(self.measurements, "measurements")
        ps = tuple(_as_number(p, "choice probability")
                   for p in _as_tuple(self.choice_probs, "choice probabilities"))
        if not ms:
            raise ValidationError("policy has no measurements")
        if len(ms) != len(ps):
            raise DimensionMismatchError(
                f"{len(ms)} measurements but {len(ps)} choice probabilities"
            )
        _shared_dim(ms, Measurement, "measurements")
        _check_distribution(ps, "choice probability", "choice probabilities")
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
        _as_instance(self.ensemble, Ensemble, "ensemble", DimensionMismatchError)
        _as_instance(self.policy, ObserverPolicy, "policy", DimensionMismatchError)
        _require_same_dim(self.ensemble.dim, self.policy.dim, "SimConfig")
        shots = _as_int(self.shots, "shots")
        seed = _as_int(self.seed, "seed", 0, _MAX_SEED)
        # Completeness is a physical requirement: the observer's Kraus
        # branches must exhaust the Born rule before post-selection.
        for m in self.policy.measurements:
            _require_complete(m)
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


def _draws(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop), within one chunk, of the per-seed table of 53-bit int64 draws."""
    block_idx, first = divmod(start, CHUNK)
    bitgen = Philox(key=np.array([seed, block_idx], dtype=np.uint64))
    # One Philox counter step yields four 64-bit words: one row.
    bitgen.advance(first)
    m = bitgen.random_raw((stop - start, 4))
    return np.right_shift(m, 11, out=m).view(np.int64)


def _grid(c: np.ndarray) -> np.ndarray:
    """The int64 grid point E of ``c``: ``E <= m`` exactly when ``c <= m * 2**-53``."""
    return np.minimum(np.ceil(c * 2.0**53), 2.0**53).astype(np.int64)


#: Bytes of the int64 counts an ``_Inverse`` guide is built from, K + 1
#: per row; bounds its bucket count K.  The build also holds int64 and
#: float arrays the size of the padded table (``_grid``'s temporaries,
#: ``rows``, ``j`` and both flat indices), which ``_table_bytes`` counts.
_GUIDE_BYTES = 1 << 20


class _Inverse:
    """Exact ``searchsorted(cum[row], m * 2**-53, side="right")`` for arrays of (row, m).

    ``cum`` is (n_rows, width): nondecreasing rows padded with +inf to a
    power-of-two width with at least one pad.  Its edges are kept as
    ``_grid`` points E, so an edge counts for a draw m exactly when
    ``E <= m``.  K = 2**(53 - shift) buckets split [0, 2**53) evenly, so a
    draw's bucket is ``m >> shift``.  ``guide[j]`` counts the edges below
    the bucket's upper end, which settles every m in it, or is -1 when an
    edge lies inside it, above its lower end; those draws run a
    branchless halving search over their row.
    """

    def __init__(self, cum: np.ndarray) -> None:
        n_rows, self.width = cum.shape
        self.cum = _grid(cum).ravel()
        k = 16 * self.width
        while k > 1 and n_rows * (k + 1) * 8 > _GUIDE_BYTES:
            k //= 2
        self.k = k
        self.shift = 53 - (k.bit_length() - 1)
        rows = np.arange(n_rows).repeat(self.width)
        j = self.cum >> self.shift  # the pads' E = 2**53 falls in an extra bucket K
        h = np.bincount(j + rows * (k + 1), minlength=n_rows * (k + 1)).reshape(n_rows, k + 1)
        self.guide = np.cumsum(h[:, :-1], axis=1, dtype=np.min_scalar_type(-self.width)).ravel()
        self.guide[(j + rows * k)[self.cum & ((1 << self.shift) - 1) != 0]] = -1

    def __call__(self, m: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Row ``rows[i]``'s index for each draw ``m[i]``; row 0 when ``rows`` is None."""
        idx = m >> self.shift
        if rows is not None:
            idx += rows * self.k
        guide = self.guide.take(idx)
        todo = np.flatnonzero(guide < 0)
        idx[...] = guide  # widened into the bucket indices' buffer
        if todo.size:
            mt = m[todo]  # take would copy the whole strided column first
            start = rows.take(todo) * self.width if rows is not None else np.zeros_like(todo)
            pos = start.copy()
            step = self.width // 2
            while step:
                pos += step * (self.cum.take(pos + (step - 1)) <= mt)
                step //= 2
            idx[todo] = pos - start
        return idx


def _stacked(blocks: list, width: int, fill) -> np.ndarray:
    """The rows of equal-height ``blocks`` in order, padded with ``fill``."""
    out = np.full((len(blocks), len(blocks[0]), width), fill, dtype=blocks[0].dtype)
    for dst, b in zip(out, blocks):
        dst[:, :b.shape[1]] = b
    return out.reshape(-1, width)


def _width(n: int) -> int:
    """The padded width of an ``_Inverse`` table of rows of n entries:
    the power of two that holds their n - 1 edges and at least one pad."""
    return 1 << (n - 1).bit_length()


def _inverse(cums: list) -> _Inverse:
    """``_Inverse`` of cumulative rows without their last edges, so a draw
    at or past the last edge takes the last index, as the clamp
    ``min(searchsorted(row, m * 2**-53, side="right"), n - 1)`` would."""
    width = _width(max(c.shape[1] for c in cums))
    return _Inverse(_stacked([c[:, :-1] for c in cums], width, np.inf))


def _table_bytes(n_rows: int, n_branches: int, d: int) -> int:
    """Peak bytes of ``_Tables`` for ``n_rows`` (choice, member) rows of at most
    ``n_branches`` branches in dimension d: 12 int64 or float64 arrays of the
    padded table (the Born weights, success probabilities, their cumulative
    and clipped copies, and ``_Inverse``'s grid, indices and temporaries),
    one Gram stack (16 d^2 bytes a branch) and two guide count tables.
    tracemalloc measured 97.7 MiB, 10.2 table arrays, for the full-rank d = 8
    tomography set (64 members, 16,384 branches); this reads 114 MiB there
    and 277 MiB from d = 9 (81 members, 26,244 branches), above the budget."""
    return 96 * n_rows * _width(n_branches) + 16 * n_branches * d * d + 2 * _GUIDE_BYTES


class _Tables:
    """Precomputed sampling tables; everything the per-attempt loop needs.

    ``cum_branch[c]`` and ``success[c]`` are (n_members, n_branches)
    arrays: the cumulative Born weights of measurement c's fine-grained
    Kraus branches and the post-selection success probability of each
    collapsed branch, one row per ensemble member.  ``branches`` inverts
    them, and ``success_at`` and ``tally_at`` give each branch's success
    grid point and flat (choice, member, outcome) tally index, in rows
    ``choice * n_members + member`` of ``branches.width`` entries.

    The Born weight ``||alpha A^T||^2`` of branch A on member alpha pairs
    Gram matrices, ``sum_jl (alpha^T alpha*)_jl (A^T A*)_jl``: O((r + o) d^3
    + r o d^2) for r members and o branches.  The pairing can round a zero
    weight below 0, so it is clamped there and ``cum_branch`` rows never
    decrease.
    """

    def __init__(self, cfg: SimConfig) -> None:
        d = cfg.ensemble.dim
        self.n_members = len(cfg.ensemble.weights)
        ms = cfg.policy.measurements
        branches = max(len(m.kraus_stack) for m in ms)
        _check_budget(_table_bytes(len(ms) * self.n_members, branches, d),
                      f"the simulator tables of {len(ms)} x {self.n_members} (choice, member) rows")
        self.members = _inverse([np.cumsum(cfg.ensemble.weights)[None]])
        self.choices = _inverse([np.cumsum(np.array(cfg.policy.choice_probs))[None]])
        coeffs = cfg.ensemble.coeff_stack
        h = (coeffs.transpose(0, 2, 1) @ coeffs.conj()).reshape(self.n_members, -1)
        self.outcome_of = []
        self.n_outcomes = []
        self.cum_branch = []
        self.success = []
        for m in ms:
            g = m.kraus_stack.transpose(0, 2, 1) @ m.kraus_stack.conj()
            born = np.maximum((h @ g.reshape(len(g), -1).T).real, 0.0)
            with np.errstate(over="ignore"):
                succ = np.divide(_contraction_weights(m, coeffs), d * born,
                                 out=np.zeros_like(born), where=born > 0.0)
            self.outcome_of.append(m.outcome_of)
            self.n_outcomes.append(m.n_outcomes)
            self.cum_branch.append(np.cumsum(born, axis=1))
            self.success.append(np.clip(succ, 0.0, 1.0))
        self.branches = _inverse(self.cum_branch)
        width = self.branches.width
        self.success_at = _grid(_stacked(self.success, width, 0.0)).ravel()
        rows = np.arange(len(self.success) * self.n_members).reshape(len(self.success), -1, 1)
        tally = [rows[c] * max(self.n_outcomes) + o for c, o in enumerate(self.outcome_of)]
        self.tally_at = _stacked(tally, width, 0).ravel()


def _tally(tables: _Tables, m: np.ndarray, attempted: np.ndarray, tally: np.ndarray) -> None:
    """Add the attempts and successes of the draws ``m`` to the flat tallies."""
    row = tables.choices(m[:, 1])
    row *= tables.n_members
    row += tables.members(m[:, 0])
    attempted += np.bincount(row, minlength=attempted.size)
    at = tables.branches(m[:, 2], row)
    at += row * tables.branches.width
    wins = m[:, 3] < tables.success_at.take(at)
    tally += np.bincount(tables.tally_at.take(at[wins]), minlength=tally.size)


def _accumulate(cfg: SimConfig, tables: _Tables, start: int, stop: int,
                attempted: np.ndarray, tally: np.ndarray) -> None:
    """Add the attempts and successes of [start, stop) to the flat tallies.

    One ``_tally`` call per slice: its arrays are freed when it returns,
    before the next slice is drawn.
    """
    pos = start
    while pos < stop:
        end = min(stop, pos - pos % _SLICE + _SLICE)
        _tally(tables, _draws(cfg.seed, pos, end), attempted, tally)
        pos = end


def simulate(cfg: SimConfig) -> SimResult:
    """Run the protocol for ``cfg.shots`` attempts."""
    tables = _Tables(_as_instance(cfg, SimConfig, "cfg"))
    shape = (len(tables.n_outcomes), tables.n_members, max(tables.n_outcomes))
    attempted = np.zeros(shape[:2], dtype=np.int64)
    tally = np.zeros(shape, dtype=np.int64)
    _accumulate(cfg, tables, 0, cfg.shots, attempted.reshape(-1), tally.reshape(-1))
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
    _as_instance(ensemble, Ensemble, "ensemble")
    _as_instance(m, Measurement, "m")
    _require_same_dim(ensemble.dim, m.dim, "analytic_success_rate")
    return float(ensemble.weights @ _contraction_weights(m, ensemble.coeff_stack).sum(1)
                 / ensemble.dim)


def _binomial_z(freq: float, p: float, n: int) -> float:
    """z-score of a frequency ``freq`` over ``n`` trials against ``p``.

    Degenerate cases (``n == 0`` or ``p`` in {0, 1}) give 0 when ``freq``
    equals ``p`` within ``ATOL`` and ``inf`` otherwise.
    """
    se = math.sqrt(p * (1.0 - p) / n) if n > 0 else 0.0
    if se == 0.0:
        return 0.0 if abs(freq - p) < ATOL else math.inf
    return (freq - p) / se


def _outcome_checks(cfg: SimConfig, result: SimResult) -> list:
    """``(frequencies, targets, z)`` of every measurement choice of ``result``.

    The targets are the density rule, ``prob_coarse`` of the ensemble's
    density vector, and ``z[mu]`` is outcome mu's binomial z-score over
    the choice's successes; a degenerate z is ``inf``.
    """
    eta = density_from_ensemble(cfg.ensemble)
    checks = []
    for c, m in enumerate(cfg.policy.measurements):
        freqs = result.frequencies_for(c)
        targets = prob_coarse(eta, m)
        n = result.successes_for(c)
        z = np.array([_binomial_z(float(f), float(t), n) for f, t in zip(freqs, targets)])
        checks.append((freqs, targets, z))
    return checks


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
    cfg = SimConfig(ensemble, ObserverPolicy((m_first, m_second), (0.5, 0.5)), shots, seed)
    result = simulate(cfg)

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

    freqs, targets, out_z = zip(*_outcome_checks(cfg, result))

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
