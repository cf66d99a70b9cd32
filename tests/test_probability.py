"""All probability rules and their agreements with each other."""

import numpy as np
import pytest

from conftest import (
    E0,
    E1,
    MINUS_PLUS,
    complex_gaussian,
    equal_mixture,
    equal_mixture_density,
    equal_superposition_state,
    projective_measurement,
    random_bloch_projector,
    random_coarse_measurement,
    random_complete_measurement,
    random_density,
    random_ensemble,
    random_state,
    superposition_density,
)
from twotime import (
    DensityVector,
    Ensemble,
    IncompleteMeasurementError,
    KrausOperator,
    Measurement,
    NotDetailedError,
    PostSelectionImpossibleError,
    complete_operator_set,
    contract_pure,
    density_from_ensemble,
    prob_coarse,
    prob_density,
    prob_ensemble,
    prob_pure,
    pure_product,
)
from twotime.probability import _numerators


# ---------------------------------------------------------------------------
# prob_pure.

def test_pure_corner_state_projective():
    m = projective_measurement(np.outer(E0, E0))
    p = prob_pure(pure_product(E0, E0), m)
    assert np.allclose(p, [1.0, 0.0], atol=1e-14)


def test_superposition_is_half_for_any_projector(rng):
    s = equal_superposition_state()
    for _ in range(50):
        m = projective_measurement(random_bloch_projector(rng))
        p = prob_pure(s, m)
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_pure_matches_matrix_element_ratios(rng):
    for _ in range(20):
        d = int(rng.integers(2, 4))
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        m = random_complete_measurement(rng, d, n_outcomes=3)
        weights = np.array([
            abs(phi.conj() @ out.kraus[0].entries @ psi) ** 2 for out in m.outcomes
        ])
        p = prob_pure(pure_product(phi, psi), m)
        assert np.allclose(p, weights / weights.sum(), atol=1e-12)


def test_pure_requires_detailed():
    lumped = Measurement.from_kraus_sets(
        [[np.outer(E0, E0), np.outer(E1, E1)]]
    )
    with pytest.raises(NotDetailedError):
        prob_pure(pure_product(E0, E0), lumped)


def test_pure_requires_complete():
    m = Measurement.detailed([np.outer(E0, E0)])
    with pytest.raises(IncompleteMeasurementError):
        prob_pure(pure_product(E0, E0), m)


def test_impossible_post_selection_is_typed():
    # Every outcome operator annihilates the state's pairing.
    m = Measurement.detailed([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    s = pure_product(E1, E0)  # coeffs live strictly off-diagonal
    with pytest.raises(PostSelectionImpossibleError):
        prob_pure(s, m)


# ---------------------------------------------------------------------------
# prob_ensemble.

def test_singleton_ensemble_equals_pure(rng):
    s = random_state(rng, 3)
    m = random_complete_measurement(rng, 3)
    assert np.allclose(
        prob_ensemble(Ensemble.pure(s), m), prob_pure(s, m), atol=1e-14
    )


def test_mixture_is_half_for_any_projector(rng):
    ens = equal_mixture()
    for _ in range(50):
        m = projective_measurement(random_bloch_projector(rng))
        assert np.allclose(prob_ensemble(ens, m), [0.5, 0.5], atol=1e-12)


def test_unequal_success_rates_skew_the_mixture():
    # Equal preparation proportions, but the second member survives
    # post-selection half as often, so outcomes split 2:1.
    ens = Ensemble((
        (0.5, pure_product(E0, E0)),
        (0.5, pure_product(E0, E1)),
    ))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    m = Measurement.detailed([np.outer(E0, E0), np.outer(plus, E1)])
    p = prob_ensemble(ens, m)
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_naive_member_averaging_is_wrong():
    # Normalizing each member separately and then averaging the
    # per-member distributions predicts 1:1 for the scenario above; the
    # mixed rule gives 2:1.  The gap is macroscopic, not a tolerance
    # artifact.
    ens = Ensemble((
        (0.5, pure_product(E0, E0)),
        (0.5, pure_product(E0, E1)),
    ))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    m = Measurement.detailed([np.outer(E0, E0), np.outer(plus, E1)])
    naive = sum(w * prob_pure(s, m) for w, s in ens.members)
    correct = prob_ensemble(ens, m)
    assert np.allclose(naive, [0.5, 0.5], atol=1e-14)
    assert np.max(np.abs(naive - correct)) >= 0.05


# ---------------------------------------------------------------------------
# prob_density.

def test_density_rule_matches_ensemble_rule(rng):
    for d in (2, 3):
        for _ in range(100):
            ens = random_ensemble(rng, d, n_members=int(rng.integers(1, 4)))
            m = random_complete_measurement(rng, d, n_outcomes=int(rng.integers(2, 5)))
            pe = prob_ensemble(ens, m)
            pd = prob_density(density_from_ensemble(ens), m)
            assert np.max(np.abs(pe - pd)) <= 1e-12


def test_distinguishing_outcome_separates_mixture_from_superposition():
    res = complete_operator_set([
        np.outer(MINUS_PLUS.reshape(-1), MINUS_PLUS.reshape(-1).conj())
    ])
    m = res.completed
    p_super = prob_coarse(superposition_density(), m)
    p_mix = prob_coarse(equal_mixture_density(), m)
    assert p_super[0] <= 1e-14
    assert p_mix[0] >= 0.1


def test_maximally_mixed_density_is_uniform_on_projective(rng):
    eta = DensityVector(np.eye(4) / 4.0)
    for _ in range(10):
        m = projective_measurement(random_bloch_projector(rng))
        p = prob_density(eta, m)
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def test_density_rule_is_scale_invariant(rng):
    # Only ratios of outcome weights matter; scaling the array must not
    # change the normalized list (checked on the raw-array hook, which
    # bypasses the trace-1 storage convention).
    eta = random_density(rng, 2)
    m = random_complete_measurement(rng, 2)
    base = _numerators(eta.mat, m)
    scaled = _numerators(37.0 * eta.mat, m)
    assert np.allclose(base / base.sum(), scaled / scaled.sum(), atol=1e-12)


def test_rounding_negatives_are_clamped(rng):
    # Preparing the state the first projector annihilates makes that
    # outcome's exact weight 0; its computed sandwich is +-1e-17 noise,
    # and the kernel must report the negative half as exactly 0.
    clamped = 0
    for _ in range(20):
        q, _ = np.linalg.qr(complex_gaussian(rng, (2, 2)))
        m = projective_measurement(np.outer(q[:, 0], q[:, 0].conj()))
        eta = DensityVector.from_pure(pure_product(complex_gaussian(rng, 2), q[:, 1]))
        v = m.kraus_stack.reshape(2, 4)
        clamped += ((v @ eta.mat) * v.conj()).sum(1).real[0] < 0.0
        numerators = _numerators(eta.mat, m)
        assert numerators[0] >= 0.0 and numerators[0] <= 1e-15
    assert clamped > 0


# ---------------------------------------------------------------------------
# prob_coarse.

def test_coarse_on_detailed_equals_density_rule(rng):
    eta = random_density(rng, 3)
    m = random_complete_measurement(rng, 3, n_outcomes=4)
    assert np.allclose(prob_coarse(eta, m), prob_density(eta, m), atol=1e-12)


def test_lumping_adds_probabilities(rng):
    eta = random_density(rng, 2)
    detailed = random_complete_measurement(rng, 2, n_outcomes=4)
    flat = [out.kraus[0] for out in detailed.outcomes]
    lumped = Measurement.from_kraus_sets([flat[:2], flat[2:]])
    pd = prob_density(eta, detailed)
    pc = prob_coarse(eta, lumped)
    assert np.allclose(pc, [pd[0] + pd[1], pd[2] + pd[3]], atol=1e-12)


def test_coarse_pairing_matches_branch_sums(rng):
    for d in (2, 3):
        for _ in range(100):
            eta = random_density(rng, d)
            n_out = int(rng.integers(2, 4))
            m = random_coarse_measurement(rng, d, n_outcomes=n_out, branches=2)
            flat_ops = [op for out in m.outcomes for op in out.kraus]
            detailed = Measurement.detailed(flat_ops)
            pd = prob_density(eta, detailed)
            sums = np.add.reduceat(pd, np.arange(0, len(flat_ops), 2))
            assert np.max(np.abs(prob_coarse(eta, m) - sums)) <= 1e-12


def test_coarse_rule_is_scale_invariant(rng):
    eta = random_density(rng, 2)
    m = random_coarse_measurement(rng, 2)
    base = _numerators(eta.mat, m)
    scaled = _numerators(0.125 * eta.mat, m)
    assert np.allclose(base / base.sum(), scaled / scaled.sum(), atol=1e-12)


def test_every_rule_returns_a_distribution(rng):
    for _ in range(20):
        d = int(rng.integers(2, 4))
        eta = random_density(rng, d)
        m = random_coarse_measurement(rng, d)
        p = prob_coarse(eta, m)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
