"""Shot-based protocol simulation: randomness contract and convergence."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    E0,
    complex_gaussian,
    random_coarse_measurement,
    random_complete_measurement,
    random_density,
    random_ensemble,
    random_state,
    random_weights,
)
from twotime import (
    CHUNK,
    DimensionMismatchError,
    Ensemble,
    IncompleteMeasurementError,
    MAX_DENSE_BYTES,
    Measurement,
    NormalizationError,
    ObserverPolicy,
    SimConfig,
    TwoTimeState,
    ValidationError,
    analytic_success_rate,
    build_tomography_set,
    density_from_ensemble,
    ensemble_from_density,
    prob_ensemble,
    prob_pure,
    prob_coarse,
    pure_product,
    reconstruct,
    reversal_scenario,
    sampling_clip_tol,
    simulate,
    simulate_proportion_reversal,
)
from twotime import montecarlo


def projective_z():
    return Measurement.detailed([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def within_4se(freqs, target, n):
    for f, p in zip(freqs, target):
        se = np.sqrt(p * (1.0 - p) / n)
        if se == 0.0:
            if abs(f - p) > 1e-12:
                return False
        elif abs(f - p) > 4.0 * se:
            return False
    return True


# ---------------------------------------------------------------------------
# Randomness contract.

def test_same_seed_is_bit_identical():
    ens, m1, m2 = reversal_scenario()
    cfg = SimConfig(ens, ObserverPolicy((m1, m2), (0.5, 0.5)), 5000, 42)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.attempted, b.attempted)
    for ca, cb in zip(a.choice_counts, b.choice_counts):
        assert np.array_equal(ca, cb)


def test_different_seeds_differ():
    ens, m1, _ = reversal_scenario()
    a = simulate(SimConfig.fixed(ens, m1, 5000, 1))
    b = simulate(SimConfig.fixed(ens, m1, 5000, 2))
    assert not np.array_equal(a.choice_counts[0], b.choice_counts[0])


def split_tallies(cfg, ranges):
    """The flat (attempted, tally) arrays after ``_accumulate`` over each
    attempt range in turn, on one ``_Tables`` of ``cfg``."""
    tables = montecarlo._Tables(cfg)
    attempted = np.zeros(len(tables.n_outcomes) * tables.n_members, dtype=np.int64)
    tally = np.zeros(attempted.size * max(tables.n_outcomes), dtype=np.int64)
    for start, stop in ranges:
        montecarlo._accumulate(cfg, tables, start, stop, attempted, tally)
    return attempted, tally


def flat_tallies(attempted, counts):
    """(attempted, per-choice counts) in the flat layout of ``split_tallies``."""
    width = max(c.shape[1] for c in counts)
    padded = [np.pad(c, ((0, 0), (0, width - c.shape[1]))) for c in counts]
    return attempted.ravel(), np.stack(padded).ravel()


def assert_same_tallies(got, want):
    assert all(map(np.array_equal, got, want))


def test_partition_independence():
    # Tallies must not depend on how attempts are split across workers,
    # including splits that straddle the chunk boundary: merging the
    # ``_accumulate`` tallies of the ranges reproduces ``simulate``'s.
    ens, m1, m2 = reversal_scenario()
    shots = 70_000
    assert shots > CHUNK
    cfg = SimConfig(ens, ObserverPolicy((m1, m2), (0.5, 0.5)), shots, 97)
    whole = simulate(cfg)
    want = flat_tallies(whole.attempted, whole.choice_counts)
    for ranges in (
        [(0, 1), (1, 33333), (33333, CHUNK), (CHUNK, shots)],
        [(40_000, shots), (0, 40_000)],
        [(0, CHUNK - 1), (CHUNK - 1, CHUNK + 1), (CHUNK + 1, shots)],
    ):
        assert_same_tallies(split_tallies(cfg, ranges), want)


def test_frozen_tally_regression():
    # Pins the full randomness contract (Philox keying, chunking, the
    # order of the four uniforms).  Any change to the contract moves
    # these numbers.
    ens, m1, m2 = reversal_scenario()
    res = simulate(SimConfig(ens, ObserverPolicy((m1, m2), (0.5, 0.5)), 50, 12345))
    assert res.attempts == 50
    assert res.attempted.tolist() == [[13, 10], [12, 15]]
    assert res.choice_counts[0].tolist() == [[5, 0], [0, 2]]
    assert res.choice_counts[1].tolist() == [[5, 0], [0, 9]]
    assert res.successes == 21
    assert res.successes_for(1) == 14
    assert res.outcome_counts_for(1).tolist() == [5, 9]
    assert res.member_counts_for(1).tolist() == [5, 9]


# ---------------------------------------------------------------------------
# Exact and statistical convergence.

def test_deterministic_scenario_is_exact():
    # "Prepare 0, post-select 0" against the z-basis projective
    # measurement: every success is outcome 0, at any shot count.
    ens = Ensemble.pure(pure_product(E0, E0))
    res = simulate(SimConfig.fixed(ens, projective_z(), 10_000, 11))
    assert res.successes > 0
    assert np.allclose(res.frequencies_for(0), [1.0, 0.0], atol=0.0)


def test_success_rate_matches_analytic():
    ens, m1, _ = reversal_scenario()
    assert analytic_success_rate(ens, m1) == pytest.approx(3.0 / 8.0, abs=1e-15)
    shots = 100_000
    res = simulate(SimConfig.fixed(ens, m1, shots, 31))
    rate = res.successes / shots
    se = np.sqrt(0.375 * 0.625 / shots)
    assert abs(rate - 0.375) <= 4.0 * se


def test_reversal_report_at_contract_scale():
    rep = simulate_proportion_reversal(shots=100_000, seed=7)
    assert rep.proportions_within_tolerance
    assert rep.proportions_differ
    assert rep.consistent
    # 2:1 under the first measurement, 1:2 under the second, 1:1 overall.
    assert np.max(np.abs(rep.expected_conditional - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])) == 0.0
    assert np.max(np.abs(rep.conditional_proportions - rep.expected_conditional)) <= 0.02
    assert abs(rep.overall_proportions[0] - 0.5) <= 0.02
    assert np.all(np.abs(rep.conditional_z) <= 4.0)
    assert abs(rep.overall_z) <= 4.0
    assert rep.separation >= rep.separation_expected / 2.0
    assert rep.discard.equalized
    kept = rep.discard.kept
    assert kept[0] == rep.discard.member_counts[0] // 2
    assert kept[1] == rep.discard.member_counts[1]


def test_random_scenarios_converge_to_the_ensemble_rule(rng):
    # Frequencies conditioned on post-selection track the mixed-state
    # probability rule within 4 binomial standard errors per outcome.
    scenarios = [(2, int(rng.integers(0, 2**63))) for _ in range(20)]
    scenarios += [(3, int(rng.integers(0, 2**63))) for _ in range(5)]
    for d, seed in scenarios:
        ens = random_ensemble(rng, d, n_members=int(rng.integers(1, 4)))
        m = random_complete_measurement(rng, d, n_outcomes=int(rng.integers(2, 5)))
        target = prob_ensemble(ens, m)
        res = simulate(SimConfig.fixed(ens, m, 30_000, seed))
        assert res.successes > 500
        assert within_4se(res.frequencies_for(0), target, res.successes)


def test_entangled_preparation_reproduces_the_pure_rule(rng):
    # A non-product coefficient array exercises the system-ancilla
    # entangled preparation and the entanglement-swapping post-selection.
    s = random_state(rng, 2)
    m = random_complete_measurement(rng, 2, n_outcomes=3)
    target = prob_pure(s, m)
    res = simulate(SimConfig.fixed(Ensemble.pure(s), m, 40_000, 1234))
    assert res.successes > 1000
    assert within_4se(res.frequencies_for(0), target, res.successes)


def test_simulated_tomography_reconstructs_the_density(rng):
    eta = random_density(rng, 2)
    ts = build_tomography_set(2)
    cfg = SimConfig.fixed(ensemble_from_density(eta), ts.measurement, 4_500_000, 20260819)
    res = simulate(cfg)
    assert res.successes >= 1_000_000
    rec = reconstruct(
        res.frequencies_for(0), 2, clip_tol=sampling_clip_tol(2, res.successes)
    )
    assert np.linalg.norm(rec.mat - eta.mat) <= 0.02


def g_statistic(counts, p):
    """The G statistic ``2 sum_mu n_mu ln(n_mu / (N p_mu))`` of counts against probabilities."""
    seen = counts > 0
    return 2.0 * float(np.sum(counts[seen] * np.log(counts[seen] / (counts.sum() * p[seen]))))


def binomial_band(n, p, delta):
    """The [lo, hi] that Binomial(n, p) leaves with probability at most ``delta / 2``
    on either side."""
    cdf = np.cumsum([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])
    return int(np.searchsorted(cdf, delta / 2, side="right")), int(np.searchsorted(cdf, 1 - delta / 2))


def test_shot_loop_is_calibrated_against_the_density_rule():
    """The G test of a run's outcome counts against ``prob_coarse`` rejects at its 5% level.

    Each of 300 fixed seeds draws a two-member d = 2 ensemble and a
    3-outcome detailed measurement and runs 2,000 shots (148-967
    successes).  If each run rejected independently with probability
    0.05 (G above chi^2_2's 95% point, -2 ln 0.05), the number of
    rejections would leave the band [3, 32] with probability 5.2e-5, below
    1e-4; that is the test's false-failure probability.  G is chi^2_2
    only asymptotically: 5.4% of the runs of 3,000 other seeds rejected.
    The seeds are fixed, so the outcome is deterministic; here 19 runs
    reject.  A biased table or tally makes most runs reject.
    """
    runs = 300
    lo, hi = binomial_band(runs, 0.05, 1e-4)
    assert (lo, hi) == (3, 32)
    threshold = -2.0 * math.log(0.05)
    rejected = 0
    for seed in range(runs):
        rng = np.random.default_rng(seed)
        ens = random_ensemble(rng, 2, n_members=2)
        m = random_complete_measurement(rng, 2, n_outcomes=3)
        res = simulate(SimConfig.fixed(ens, m, 2000, seed))
        g = g_statistic(res.outcome_counts_for(0), prob_coarse(density_from_ensemble(ens), m))
        rejected += g > threshold
    assert lo <= rejected <= hi


# ---------------------------------------------------------------------------
# Configuration validation.

def test_policy_validation():
    _, m1, m2 = reversal_scenario()
    with pytest.raises(ValidationError):
        ObserverPolicy((), ())
    with pytest.raises(DimensionMismatchError):
        ObserverPolicy((m1, m2), (1.0,))
    with pytest.raises(NormalizationError):
        ObserverPolicy((m1, m2), (1.0, 0.0))
    with pytest.raises(NormalizationError):
        ObserverPolicy((m1, m2), (0.7, 0.7))
    with pytest.raises(DimensionMismatchError):
        ObserverPolicy((m1, "not a measurement"), (0.5, 0.5))


def test_policy_rejects_mixed_dimensions(rng):
    m2 = random_complete_measurement(rng, 2)
    m3 = random_complete_measurement(rng, 3)
    with pytest.raises(DimensionMismatchError):
        ObserverPolicy((m2, m3), (0.5, 0.5))


def test_config_validation(rng):
    ens, m1, _ = reversal_scenario()
    with pytest.raises(ValidationError):
        SimConfig.fixed(ens, m1, 0, 1)
    with pytest.raises(ValidationError):
        SimConfig.fixed(ens, m1, 100, -1)
    with pytest.raises(ValidationError):
        SimConfig.fixed(ens, m1, 100, 2**64)
    with pytest.raises(DimensionMismatchError):
        SimConfig.fixed(random_ensemble(rng, 3), m1, 100, 1)
    with pytest.raises(DimensionMismatchError):
        SimConfig("not an ensemble", ObserverPolicy.fixed(m1), 100, 1)


@pytest.mark.parametrize("shots, seed", [
    (2.7, 1), (True, 1), ("5", 1), (np.nan, 1), (np.float64(5.0), 1),
    (100, 3.9), (100, True), (100, "5"), (100, np.nan), (100, np.int64(-1)),
])
def test_config_rejects_non_integer_shots_and_seeds(shots, seed):
    # Each of these once truncated silently (2.7 -> 2, True -> 1, "5" -> 5)
    # or raised a raw ValueError (NaN).
    ens, m1, _ = reversal_scenario()
    with pytest.raises(ValidationError):
        SimConfig.fixed(ens, m1, shots, seed)


def test_config_accepts_numpy_integers():
    ens, m1, _ = reversal_scenario()
    cfg = SimConfig.fixed(ens, m1, np.int64(100), np.uint64(2**64 - 1))
    assert (cfg.shots, cfg.seed) == (100, 2**64 - 1)
    assert type(cfg.shots) is int and type(cfg.seed) is int


def test_config_rejects_incomplete_measurements():
    ens, _, _ = reversal_scenario()
    incomplete = Measurement.detailed([np.diag([1.0, 0.0])])
    with pytest.raises(IncompleteMeasurementError):
        SimConfig.fixed(ens, incomplete, 100, 1)


# ---------------------------------------------------------------------------
# Reference loops: the per-member table build and the per-group mask loop
# that the batched tables and the guide-table shot loop replace.

def member_tables(stack, coeffs):
    """Reference: cumulative Born weights and unclipped success of one member."""
    d = coeffs.shape[0]
    collapsed = np.einsum("ij,okj->oik", coeffs, stack)
    born = np.einsum("oik,oik->o", collapsed, collapsed.conj()).real
    contr = np.einsum("oij,ij->o", stack, coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        succ = np.abs(contr) ** 2 / (d * born)
    succ[born <= 0.0] = 0.0
    return np.cumsum(born), succ


def loop_tables(cfg):
    """Reference: (outcome_of, cum_branch, success) per measurement, member by member."""
    tables = []
    for m in cfg.policy.measurements:
        stack = np.stack([op.entries for out in m.outcomes for op in out.kraus])
        outcome_of = np.array(
            [mu for mu, out in enumerate(m.outcomes) for _ in out.kraus], dtype=np.intp
        )
        rows = [member_tables(stack, state.coeffs) for state in cfg.ensemble.states]
        cum = np.stack([c for c, _ in rows])
        succ = np.stack([np.clip(s, 0.0, 1.0) for _, s in rows])
        tables.append((outcome_of, cum, succ))
    return tables


def mask_simulate(cfg, ranges):
    """Reference: one boolean mask per (choice, member) group and chunk."""
    tables = loop_tables(cfg)
    n_members = len(cfg.ensemble.members)
    n_choices = len(tables)
    cum_members = np.cumsum(cfg.ensemble.weights)
    cum_choices = np.cumsum(np.array(cfg.policy.choice_probs))
    attempted = np.zeros((n_choices, n_members), dtype=np.int64)
    counts = [np.zeros((n_members, m.n_outcomes), dtype=np.int64)
              for m in cfg.policy.measurements]
    for start, stop in ranges:
        pos = start
        while pos < stop:
            end = min(stop, pos + CHUNK - (pos % CHUNK))
            block, first = divmod(pos, CHUNK)
            bitgen = np.random.Philox(key=np.array([cfg.seed, block], dtype=np.uint64))
            bitgen.advance(first)
            u = np.random.Generator(bitgen).random((end - pos, 4))
            r_idx = np.minimum(np.searchsorted(cum_members, u[:, 0], side="right"),
                               n_members - 1)
            c_idx = np.minimum(np.searchsorted(cum_choices, u[:, 1], side="right"),
                               n_choices - 1)
            for c, (outcome_of, cum, succ) in enumerate(tables):
                for r in range(n_members):
                    mask = (c_idx == c) & (r_idx == r)
                    n_here = int(np.count_nonzero(mask))
                    if n_here == 0:
                        continue
                    attempted[c, r] += n_here
                    branch = np.minimum(
                        np.searchsorted(cum[r], u[mask, 2], side="right"), outcome_of.size - 1
                    )
                    wins = u[mask, 3] < succ[r][branch]
                    if wins.any():
                        counts[c][r] += np.bincount(
                            outcome_of[branch[wins]], minlength=counts[c].shape[1]
                        )
            pos = end
    return attempted, counts


def wide_policy_config():
    """64 members and 4 choices, one coarse; exercises the table edge cases.

    Member 0 has a zero first column, so the first branch of the
    computational-basis measurement has exactly zero Born weight for it
    (the ``born == 0`` path).  The last choice is so unlikely that
    most of its (choice, member) groups get no attempts.
    """
    rng = np.random.default_rng(20261018)
    d = 3
    coeffs = [complex_gaussian(rng, (d, d)) for _ in range(64)]
    coeffs[0][:, 0] = 0.0
    weights = rng.random(64) + 0.1
    ensemble = Ensemble(tuple(zip(weights / weights.sum(), map(TwoTimeState, coeffs))))
    basis = Measurement.detailed([np.diag(np.eye(d)[k]) for k in range(d)])
    measurements = (
        basis,
        random_complete_measurement(rng, d, n_outcomes=6),
        random_coarse_measurement(rng, d, n_outcomes=3, branches=2),
        random_complete_measurement(rng, d, n_outcomes=4),
    )
    policy = ObserverPolicy(measurements, (0.5, 0.3, 0.2 - 1e-4, 1e-4))
    return SimConfig(ensemble, policy, 2 * CHUNK + 17, 424242)


def test_grouped_shot_loop_matches_the_mask_loop():
    cfg = wide_policy_config()
    want_attempted, want_counts = mask_simulate(cfg, [(0, cfg.shots)])
    assert want_attempted[3].sum() > 0
    assert np.count_nonzero(want_attempted[3] == 0) > 0
    _, basis_cum, _ = loop_tables(cfg)[0]
    assert basis_cum[0, 0] == 0.0
    want = flat_tallies(want_attempted, want_counts)
    res = simulate(cfg)
    assert_same_tallies(flat_tallies(res.attempted, res.choice_counts), want)
    for ranges in (
        [(0, CHUNK - 1), (CHUNK - 1, CHUNK + 1), (CHUNK + 1, cfg.shots)],
        [(2 * CHUNK, cfg.shots), (CHUNK // 2, 2 * CHUNK), (0, CHUNK // 2)],
    ):
        assert_same_tallies(split_tallies(cfg, ranges), want)


def test_splits_at_slice_and_chunk_edges_tally_as_one_pass():
    # The loop tallies in slices inside each chunk; a range that ends one
    # attempt before, at or after a slice edge or a chunk edge must not
    # move a tally.
    cfg = wide_policy_config()
    whole = simulate(cfg)
    want = flat_tallies(whole.attempted, whole.choice_counts)
    edge = montecarlo._SLICE
    for split in (edge - 1, edge, edge + 1, CHUNK - 1, CHUNK + 1):
        assert_same_tallies(split_tallies(cfg, [(0, split), (split, cfg.shots)]), want)


def test_the_shot_loop_holds_one_slice_at_a_time():
    # 64 members and 4 measurements over one whole chunk: the draws of a
    # chunk alone are 2 MiB, a slice's 0.5 MiB.
    wide = wide_policy_config()
    cfg = SimConfig(wide.ensemble, wide.policy, CHUNK, wide.seed)
    simulate(cfg)
    tracemalloc.start()
    try:
        simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20


def test_the_table_budget_admits_d_8_tomography_and_rejects_d_11():
    # Full-rank tomography sets: d^2 members of 4 d^4 branches.  Computed, not built.
    assert montecarlo._table_bytes(8**2, 4 * 8**4, 8) <= MAX_DENSE_BYTES
    assert montecarlo._table_bytes(9**2, 4 * 9**4, 9) > MAX_DENSE_BYTES
    assert montecarlo._table_bytes(11**2, 4 * 11**4, 11) > MAX_DENSE_BYTES


def table_peak(cfg):
    tracemalloc.start()
    try:
        montecarlo._Tables(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [2, 4, 6])
def test_the_table_budget_bounds_the_tables_peak(rng, d):
    ensemble = ensemble_from_density(random_density(rng, d, n_members=d * d))
    cfg = SimConfig.fixed(ensemble, build_tomography_set(d).measurement, 1, 1)
    assert len(ensemble.weights) == d * d
    assert table_peak(cfg) <= montecarlo._table_bytes(d * d, 4 * d**4, d)


def test_the_tables_read_the_core_allocation_budget(monkeypatch):
    cfg = wide_policy_config()
    branches = max(len(m.kraus_stack) for m in cfg.policy.measurements)
    need = montecarlo._table_bytes(4 * 64, branches, 3)
    assert table_peak(cfg) <= need
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", need)
    montecarlo._Tables(cfg)
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", need - 1)
    with pytest.raises(ValidationError, match=r"tables of 4 x 64 \(choice, member\) rows"):
        simulate(cfg)


#: How far ``_Tables`` may sit from the member loop, in ulps of each
#: member's total Born weight.  The Gram pairing and the collapsed-state
#: sum round differently, and ``cumsum`` can carry one more rounding per
#: branch; the largest gap seen on 16-member d = 4 tomography is 13.5.
#: A success probability's gap counts weighted by its branch's Born
#: weight, the chance a draw reaches it.  Tallies are still pinned bit
#: for bit by the mask loop, the frozen tallies and the golden files.
TABLE_ULPS = 32


def assert_tables_match(tables, cfg):
    """Assert ``tables`` agree with ``loop_tables(cfg)`` within ``TABLE_ULPS``."""
    for c, (outcome_of, cum, succ) in enumerate(loop_tables(cfg)):
        assert np.array_equal(tables.outcome_of[c], outcome_of)
        bound = TABLE_ULPS * np.finfo(float).eps * cum[:, -1:]
        born = np.diff(cum, axis=1, prepend=0.0)
        assert np.all(np.abs(tables.cum_branch[c] - cum) <= bound)
        assert np.all(np.abs(tables.success[c] - succ) * born <= bound)


def test_batched_tables_match_the_member_loop(rng):
    cfg = wide_policy_config()
    tables = montecarlo._Tables(cfg)
    assert_tables_match(tables, cfg)
    # Member 0's first basis branch has zero Born weight, exactly.
    assert tables.cum_branch[0][0, 0] == 0.0
    assert tables.success[0][0, 0] == 0.0
    # 16 members of the d = 4 tomography set: 1,024 branches each.
    cfg = SimConfig.fixed(random_ensemble(rng, 4, n_members=16),
                          build_tomography_set(4).measurement, 1, 1)
    assert_tables_match(montecarlo._Tables(cfg), cfg)


def test_analytic_success_rate_matches_the_branch_loop(rng):
    for d in (1, 2, 3, 4):
        for _ in range(5):
            ens = random_ensemble(rng, d, n_members=int(rng.integers(1, 6)))
            m = (random_coarse_measurement(rng, d, n_outcomes=2, branches=3)
                 if rng.random() < 0.5 else random_complete_measurement(rng, d, n_outcomes=4))
            loop = 0.0
            for w, state in ens.members:
                for out in m.outcomes:
                    for op in out.kraus:
                        loop += w * abs(np.sum(op.entries * state.coeffs)) ** 2 / d
            assert abs(analytic_success_rate(ens, m) - loop) <= 1e-14


@st.composite
def state_and_measurement(draw):
    """A complete measurement and a state, random or near a degenerate case.

    ``near_unitary`` mixes unitary Kraus branches and puts the state
    close to ``conj(U_0)``, where the success probability of branch 0
    reaches its Cauchy-Schwarz bound 1; ``eps`` sets the distance,
    down to exactly on the bound.
    """
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "near_unitary", "rank_one"]))
    eps = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 1.0]))
    if kind == "near_unitary":
        n = draw(st.integers(1, 3))
        p = rng.random(n) + 0.1
        p = p / p.sum()
        us = [np.linalg.qr(complex_gaussian(rng, (d, d)))[0] for _ in range(n)]
        stack = np.stack([np.sqrt(pk) * u for pk, u in zip(p, us)])
        coeffs = us[0].conj() + eps * complex_gaussian(rng, (d, d))
    else:
        n = draw(st.integers(1, 4))
        q, _ = np.linalg.qr(complex_gaussian(rng, (n * d, d)))
        stack = q.reshape(n, d, d)
        if kind == "rank_one":
            coeffs = np.outer(complex_gaussian(rng, d), complex_gaussian(rng, d))
            coeffs = coeffs + eps * complex_gaussian(rng, (d, d))
        else:
            coeffs = complex_gaussian(rng, (d, d))
    return stack, TwoTimeState(coeffs).coeffs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(state_and_measurement())
def test_success_probability_clip_removes_only_rounding(case):
    # |A . alpha|^2 <= d ||alpha A^T||^2 by Cauchy-Schwarz, so the clip
    # in the sampling tables may only ever trim rounding above 1.
    stack, coeffs = case
    assert np.allclose(np.einsum("oki,okj->ij", stack.conj(), stack), np.eye(len(coeffs)))
    _, succ = member_tables(stack, coeffs)
    assert np.all(succ >= 0.0)
    assert np.all(succ <= 1.0 + 1e-12)


@functools.cache
def tomography_stack(d):
    return build_tomography_set(d).measurement.kraus_stack


@st.composite
def table_configs(draw):
    """A one-measurement config: a ``state_and_measurement`` case, or 1-3
    members on the d = 2 or 3 tomography set.  Those members are random,
    or have columns equal up to 1e-9, so the Born weights of the "-"
    variants cancel to ~1e-18 and the Gram pairing can round them below 0.
    The set's branches are put in the order of member 0's Born weights,
    lightest first, so that the cumulative sum cannot absorb such a
    rounding.
    """
    if draw(st.booleans()):
        stack, coeffs = draw(state_and_measurement())
        return SimConfig.fixed(Ensemble.pure(TwoTimeState(coeffs)),
                               Measurement.detailed(stack), 1, 1)
    d = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        states = [TwoTimeState(np.outer(complex_gaussian(rng, d), np.ones(d))
                               + 1e-9 * complex_gaussian(rng, (d, d))) for _ in range(n)]
        ens = Ensemble(tuple(zip(random_weights(rng, n), states)))
    else:
        ens = random_ensemble(rng, d, n_members=n)
    stack = tomography_stack(d)
    cum, _ = member_tables(stack, ens.coeff_stack[0])
    order = np.argsort(np.diff(cum, prepend=0.0), kind="stable")
    return SimConfig.fixed(ens, Measurement.detailed(stack[order]), 1, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table_configs())
def test_tables_are_sampling_tables_near_the_member_loop(cfg):
    tables = montecarlo._Tables(cfg)
    [cum], [succ] = tables.cum_branch, tables.success
    assert np.all(cum[:, 0] >= 0.0)
    assert np.all(np.diff(cum, axis=1) >= 0.0)
    assert np.all((succ >= 0.0) & (succ <= 1.0))
    assert_tables_match(tables, cfg)


# ---------------------------------------------------------------------------
# The guide-table inversion behind every table draw, and the draw stream.

#: The kinds of entry of a cumulative row, each a strategy for one number
#: and its value for a table of K buckets: grid points b / K (bucket
#: edges, b scaled from 16 bits to K) and their neighbouring doubles,
#: finer dyadic values, subnormals, values a few ulps above 1 and
#: arbitrary doubles in [0, 1].  Built once; K enters only the values.
EDGE_KINDS = (
    (st.integers(0, 2**16), lambda b, k: (b * k >> 16) / k),
    (st.integers(1, 2**16), lambda b, k: np.nextafter(max(1, b * k >> 16) / k, -np.inf)),
    (st.integers(1, 2**16), lambda b, k: np.nextafter(max(1, b * k >> 16) / k, np.inf)),
    (st.tuples(st.integers(0, 2**16), st.integers(8, 16)), lambda bm, k: bm[0] / 2.0 ** bm[1]),
    (st.integers(0, 8), lambda j, k: j * 5e-324),
    (st.integers(0, 4), lambda j, k: 1.0 + j * np.spacing(1.0)),
    (st.floats(0.0, 1.0), lambda x, k: x),
)
EDGE_KIND = st.integers(0, len(EDGE_KINDS) - 1)


@st.composite
def edge_rows(draw):
    """Nondecreasing rows of cumulative weights that stress a guide table.

    The bucket count K depends only on the table's shape, so it is known
    before the entries are drawn.  Entries are of the ``EDGE_KINDS``,
    repeated values stand for zero-weight branches, and shorter rows are
    padded with +inf.
    """
    n_rows = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, 40), min_size=n_rows, max_size=n_rows))
    width = 1 << max(lengths).bit_length()
    k = montecarlo._Inverse(np.full((n_rows, width), np.inf)).k
    cum = np.full((n_rows, width), np.inf)
    for i, n in enumerate(lengths):
        vals = []
        for _ in range(n):
            number, value = EDGE_KINDS[draw(EDGE_KIND)]
            vals.append(value(draw(number), k))
        vals.sort()
        repeat = draw(st.integers(0, 3)) if vals else 0
        vals = (vals + vals[-1:] * repeat)[:width - 1]  # trailing zero weights
        cum[i, :len(vals)] = vals
    return cum


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cum=edge_rows(), extra=st.lists(st.integers(0, 2**53 - 1), max_size=32))
def test_guide_inversion_equals_searchsorted(cum, extra):
    inv = montecarlo._Inverse(cum)
    bounds = np.arange(inv.k + 1) << inv.shift
    edges = cum[np.isfinite(cum)]
    grid = np.minimum(np.ceil(edges * 2.0**53), 2.0**53).astype(np.int64)
    m = np.concatenate([bounds, grid, [0, 2**53 - 1], extra]).astype(np.int64)
    m = np.concatenate([m - 1, m, m + 1])
    m = m[(m >= 0) & (m < 2**53)]
    for r, row in enumerate(cum):
        want = np.searchsorted(row, m * 2.0**-53, side="right")
        assert np.array_equal(inv(m, np.full(m.shape, r)), want)
        if len(cum) == 1:
            assert np.array_equal(inv(m), want)


def test_guide_inversion_settles_most_uniform_draws():
    # The guide answers without a search wherever a bucket holds no
    # edge; a 64-entry row should leave only a few percent to the search.
    rng = np.random.default_rng(3)
    cum = np.cumsum(random_weights(rng, 64))
    inv = montecarlo._inverse([cum[None]])
    m = rng.integers(0, 2**53, CHUNK)
    assert np.mean(inv.guide[m >> inv.shift] < 0) < 0.1
    # The table omits the last edge, so draws past it take the last index.
    want = np.minimum(np.searchsorted(cum, m * 2.0**-53, side="right"), 63)
    assert np.array_equal(inv(m), want)
    assert np.array_equal(inv(np.array([2**53 - 1])), [63])


def test_uniforms_match_slices_of_the_full_blocks():
    # The draws are the 53-bit integers of Generator.random's uniforms.
    rng = np.random.default_rng(8)
    seed = int(rng.integers(0, 2**63))
    blocks = np.concatenate([
        np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        .random((CHUNK, 4))
        for b in range(3)
    ])
    # Each range lies in one chunk, as the shot loop's slices do; keying
    # across chunks is pinned by the partition-independence tests.
    ranges = [(0, 1), (CHUNK - 1, CHUNK), (CHUNK, CHUNK + 1), (0, CHUNK), (CHUNK, 2 * CHUNK),
              (3 * CHUNK - 1, 3 * CHUNK)]
    for chunk in range(3):
        for _ in range(7):
            start = int(rng.integers(chunk * CHUNK, (chunk + 1) * CHUNK))
            ranges.append((start, int(rng.integers(start + 1, (chunk + 1) * CHUNK + 1))))
    for start, stop in ranges:
        m = montecarlo._draws(seed, start, stop)
        assert m.dtype == np.int64
        assert np.array_equal(m * 2.0**-53, blocks[start:stop])


def test_success_test_is_exact_at_each_threshold(rng, monkeypatch):
    # One draw at the first grid point of each Kraus branch, with a success
    # draw at, and one either side of, the branch's threshold: each wins
    # exactly when m * 2**-53 < success, as the uniforms would.
    ens = Ensemble(((1.0, random_state(rng, 2)),))
    cfg = SimConfig.fixed(ens, random_coarse_measurement(rng, 2, 2, 3), 18, 0)
    tables = montecarlo._Tables(cfg)
    cum, succ = tables.cum_branch[0][0], tables.success[0][0]
    assert np.any(succ * 2.0**53 % 1.0 != 0.0)  # some threshold lies off the grid
    draws = np.zeros((18, 4), dtype=np.int64)
    draws[:, 2] = np.repeat(np.ceil(np.r_[0.0, cum[:-1]] * 2.0**53), 3)
    draws[:, 3] = (np.ceil(succ * 2.0**53)[:, None] + [-1, 0, 1]).ravel()
    monkeypatch.setattr(montecarlo, "_draws", lambda seed, start, stop: draws[start:stop])
    branch = np.searchsorted(cum, draws[:, 2] * 2.0**-53, side="right")
    assert np.array_equal(branch, np.repeat(np.arange(6), 3))
    wins = draws[:, 3] * 2.0**-53 < succ[branch]
    want = np.bincount(tables.outcome_of[0][branch[wins]], minlength=2)
    assert np.array_equal(simulate(cfg).outcome_counts_for(0), want)


def assert_matches_mask_loop(cfg):
    want_attempted, want_counts = mask_simulate(cfg, [(0, cfg.shots)])
    res = simulate(cfg)
    assert np.array_equal(res.attempted, want_attempted)
    for got, want in zip(res.choice_counts, want_counts, strict=True):
        assert np.array_equal(got, want)


def test_shot_loop_pads_mixed_branch_counts(rng):
    # 64 tomography branches beside a 2-branch measurement: the table
    # holds all but the last edge of each row, so the 2-branch rows carry
    # 63 +inf pads.
    ens = random_ensemble(rng, 2, n_members=5)
    policy = ObserverPolicy(
        (build_tomography_set(2).measurement, random_complete_measurement(rng, 2, 2)),
        (0.5, 0.5),
    )
    cfg = SimConfig(ens, policy, CHUNK + 1000, 77)
    assert montecarlo._Tables(cfg).branches.width == 64
    assert_matches_mask_loop(cfg)


def test_shot_loop_with_member_edges_on_bucket_edges(rng):
    # Four equal weights put the member edges at exactly 0.25, 0.5 and
    # 0.75, which are bucket edges of every guide.
    states = [random_state(rng, 2) for _ in range(4)]
    ens = Ensemble(tuple((0.25, s) for s in states))
    assert np.cumsum(ens.weights)[:3].tolist() == [0.25, 0.5, 0.75]
    assert_matches_mask_loop(SimConfig.fixed(ens, projective_z(), 20_000, 5))


def test_shot_loop_when_the_guide_byte_cap_binds(rng):
    ens = random_ensemble(rng, 2, n_members=300)
    policy = ObserverPolicy(
        (build_tomography_set(2).measurement, projective_z()), (0.9, 0.1)
    )
    cfg = SimConfig(ens, policy, 30_000, 2026)
    inv = montecarlo._Tables(cfg).branches
    n_rows = inv.guide.size // inv.k
    # K is the largest power of two whose int64 counts fit the cap.
    assert n_rows * (inv.k + 1) * 8 <= montecarlo._GUIDE_BYTES < n_rows * (2 * inv.k + 1) * 8
    assert_matches_mask_loop(cfg)
