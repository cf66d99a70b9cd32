"""End-to-end acceptance gate.

Eight independent criteria, each printing one PASS/FAIL line (visible
under ``pytest -s`` or on failure) and enforcing an explicit runtime
budget.  Tolerances are part of the contract and are asserted verbatim.
"""

import time

import numpy as np
import pytest

from conftest import (
    MINUS_PLUS,
    equal_mixture,
    equal_mixture_density,
    equal_superposition_state,
    random_bloch_projector,
    random_coarse_measurement,
    random_complete_measurement,
    random_density,
    random_ensemble,
    random_hermitian,
    superposition_density,
)
from twotime import (
    KrausOperator,
    Measurement,
    SimConfig,
    build_tomography_set,
    check_completeness,
    complete_operator_set,
    density_from_ensemble,
    kraus_density_vector,
    measurement_partial_trace_defect,
    pairing_equality_check,
    povm_to_twotime,
    predict_probabilities,
    prob_coarse,
    prob_density,
    prob_ensemble,
    prob_pure,
    pure_product,
    reconstruct,
    reversal_scenario,
    simulate,
    simulate_proportion_reversal,
    weak_equivalent_pure,
    weak_value_ensemble,
    weak_value_pure,
)


class Budget:
    """Context manager: reports PASS/FAIL and enforces a time limit."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"criterion {self.number} ({self.label}): {verdict} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded {self.seconds}s ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_projective_indistinguishability(rng):
    with Budget(1, "projective indistinguishability", 1.0):
        superposition = equal_superposition_state()
        mixture = equal_mixture()
        for _ in range(50):
            proj = random_bloch_projector(rng)
            m = Measurement.detailed([proj, np.eye(2) - proj])
            for p in prob_pure(superposition, m):
                assert abs(p - 0.5) <= 1e-12
            for p in prob_ensemble(mixture, m):
                assert abs(p - 0.5) <= 1e-12


def test_criterion_2_distinguishing_operator():
    with Budget(2, "distinguishing Kraus operator", 1.0):
        v = MINUS_PLUS.reshape(-1)
        completed = complete_operator_set([np.outer(v, v.conj())]).completed
        p_super = prob_coarse(superposition_density(), completed)
        p_mix = prob_coarse(equal_mixture_density(), completed)
        assert p_super[0] <= 1e-14
        assert p_mix[0] >= 0.1


def test_criterion_3_formula_equivalences(rng):
    with Budget(3, "formula equivalences", 10.0):
        worst_mixed = 0.0
        worst_coarse = 0.0
        for d in (2, 3):
            for _ in range(100):
                ens = random_ensemble(rng, d, n_members=int(rng.integers(1, 4)))
                m = random_complete_measurement(rng, d, n_outcomes=int(rng.integers(2, 5)))
                gap = np.abs(prob_ensemble(ens, m) - prob_density(density_from_ensemble(ens), m))
                worst_mixed = max(worst_mixed, float(gap.max()))
            for _ in range(100):
                eta = random_density(rng, d)
                mc = random_coarse_measurement(rng, d, n_outcomes=2, branches=2)
                flat = [op for out in mc.outcomes for op in out.kraus]
                detailed = prob_density(eta, Measurement.detailed(flat))
                branch_sums = np.add.reduceat(detailed, np.arange(0, len(flat), 2))
                gap = np.abs(prob_coarse(eta, mc) - branch_sums)
                worst_coarse = max(worst_coarse, float(gap.max()))
        assert worst_mixed <= 1e-12
        assert worst_coarse <= 1e-12


def test_criterion_4_tomography_round_trip(rng):
    with Budget(4, "tomography round trip", 30.0):
        for d in (1, 2, 3, 4):
            ok, defect = check_completeness(build_tomography_set(d).measurement)
            assert ok and defect <= 1e-10
        for d in (2, 3):
            ts = build_tomography_set(d)
            for _ in range(50):
                eta = random_density(rng, d, n_members=int(rng.integers(1, 5)))
                rec = reconstruct(predict_probabilities(eta, ts), d)
                assert np.linalg.norm(rec.mat - eta.mat) <= 1e-9


def test_criterion_5_weak_value_indistinguishability(rng):
    with Budget(5, "weak-value indistinguishability", 10.0):
        for _ in range(50):
            eta = random_density(rng, 2, n_members=int(rng.integers(1, 4)))
            equiv = weak_equivalent_pure(eta)
            for _ in range(20):
                obs = KrausOperator(random_hermitian(rng, 2))
                assert abs(
                    weak_value_ensemble(obs, eta) - weak_value_pure(obs, equiv)
                ) <= 1e-10
        alpha = np.arctan(99.0 / 101.0)
        state = pure_product(
            np.array([np.cos(alpha), -np.sin(alpha)]),
            np.array([1.0, 1.0]) / np.sqrt(2.0),
        )
        wv = weak_value_pure(KrausOperator(np.diag([1.0, -1.0])), state)
        assert abs(wv - 100.0) <= 1e-9


def test_criterion_6_bipartite_dictionary(rng):
    with Budget(6, "bipartite dictionary", 10.0):
        checked = 0
        while checked < 500:
            d = int(rng.integers(2, 5))
            m = random_complete_measurement(rng, d, n_outcomes=3)
            eta = random_density(rng, d)
            for out in m.outcomes:
                _, _, defect = pairing_equality_check(kraus_density_vector(out), eta)
                assert defect <= 1e-12
                checked += 1
        for d in (2, 3):
            m = random_complete_measurement(rng, d, n_outcomes=4)
            assert measurement_partial_trace_defect(m) <= 1e-10
        for d in (2, 3, 4):
            shift = np.roll(np.eye(d), 1, axis=0)
            clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
            phi = np.eye(d).reshape(-1) / np.sqrt(d)
            povm = []
            for a in range(d):
                for b in range(d):
                    u = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                    w = np.kron(u, np.eye(d)) @ phi
                    povm.append(np.outer(w, w.conj()))
            res = povm_to_twotime(povm)
            assert res.factor == d
            assert res.defect <= 1e-10


def test_criterion_7_monte_carlo_validation(rng):
    with Budget(7, "Monte Carlo validation", 60.0):
        report = simulate_proportion_reversal(shots=100_000, seed=7)
        assert np.all(np.abs(report.conditional_z) <= 4.0)
        assert abs(report.overall_z) <= 4.0
        assert np.max(np.abs(
            report.expected_conditional - [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]
        )) == 0.0
        for seed_offset in range(20):
            ens = random_ensemble(rng, 2, n_members=int(rng.integers(1, 4)))
            m = random_complete_measurement(rng, 2, n_outcomes=int(rng.integers(2, 5)))
            target = prob_ensemble(ens, m)
            res = simulate(SimConfig.fixed(ens, m, 30_000, 1000 + seed_offset))
            n = res.successes
            assert n > 0
            for f, p in zip(res.frequencies_for(0), target):
                se = np.sqrt(p * (1.0 - p) / n)
                assert abs(f - p) <= 4.0 * se + 1e-12


def test_criterion_8_naive_average_counterexample():
    with Budget(8, "naive-average counterexample", 1.0):
        ens, m1, _ = reversal_scenario()
        naive = sum(w * prob_pure(s, m1) for w, s in ens.members)
        mixed = prob_ensemble(ens, m1)
        assert np.allclose(naive, [0.5, 0.5], atol=1e-14)
        assert np.allclose(mixed, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)
        assert float(np.max(np.abs(naive - mixed))) >= 0.05
