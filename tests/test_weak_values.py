"""Weak values of pure states and mixtures."""

import numpy as np
import pytest

from conftest import (
    E0,
    E1,
    equal_mixture_density,
    random_density,
    random_ensemble,
    random_hermitian,
    random_state,
)
from twotime import (
    DensityVector,
    Ensemble,
    KrausOperator,
    NoEquivalentStateError,
    NotHermitianError,
    TwoTimeState,
    UndefinedWeakValueError,
    density_from_ensemble,
    pure_product,
    weak_equivalent_pure,
    weak_value_ensemble,
    weak_value_pure,
    weak_value_vector,
)

SIGMA_Z = KrausOperator(np.diag([1.0, -1.0]))
SIGMA_X = KrausOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# Pure states.

def test_identity_has_weak_value_one(rng):
    for d in (2, 3, 4):
        s = random_state(rng, d)
        if abs(np.trace(s.coeffs)) <= 1e-7:
            continue
        wv = weak_value_pure(KrausOperator(np.eye(d)), s)
        assert wv == pytest.approx(1.0, abs=1e-12)


def test_large_weak_value_from_nearly_orthogonal_selection():
    # Post-selecting nearly orthogonally to the preparation amplifies
    # sigma_z far beyond its eigenvalue range.
    alpha = np.arctan(99.0 / 101.0)
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    phi = np.array([np.cos(alpha), -np.sin(alpha)])
    wv = weak_value_pure(SIGMA_Z, pure_product(phi, psi))
    assert abs(wv - 100.0) <= 1e-9


def test_diagonal_corner_state_pins_sigma_x_to_zero():
    assert weak_value_pure(SIGMA_X, pure_product(E0, E0)) == pytest.approx(0.0, abs=1e-14)
    assert weak_value_pure(SIGMA_Z, pure_product(E0, E0)) == pytest.approx(1.0, abs=1e-14)


def test_orthogonal_selection_is_undefined():
    with pytest.raises(UndefinedWeakValueError):
        weak_value_pure(SIGMA_Z, pure_product(E0, E1))


def test_weak_value_is_linear_in_the_observable(rng):
    s = random_state(rng, 3)
    if abs(np.trace(s.coeffs)) <= 1e-7:
        s = pure_product(np.array([1.0, 0, 0]), np.array([1.0, 1.0, 0]) / np.sqrt(2))
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    combo = weak_value_pure(KrausOperator(2.0 * a - 0.5 * b), s)
    parts = 2.0 * weak_value_pure(KrausOperator(a), s) - 0.5 * weak_value_pure(
        KrausOperator(b), s
    )
    assert combo == pytest.approx(parts, abs=1e-10)


def test_non_hermitian_observable_needs_the_flag():
    s = pure_product(E0, E0)
    lowering = KrausOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        weak_value_pure(lowering, s)
    assert weak_value_pure(lowering, s, allow_non_hermitian=True) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# The weak value vector.

def test_vector_of_rank_one_density_is_the_state_up_to_conjugate_trace(rng):
    s = random_state(rng, 2)
    eta = density_from_ensemble(Ensemble.pure(s))
    wvv = weak_value_vector(eta)
    expected = np.conj(np.trace(s.coeffs)) * s.coeffs
    assert np.max(np.abs(wvv.coeffs - expected)) <= 1e-12


def eigen_route_vector(eta):
    """Reference: ``sum_r lambda_r conj(tr alpha_r) alpha_r`` over the
    eigen-ensemble of ``eta``, keeping only positive eigenvalues."""
    d = eta.dim
    lam, w = np.linalg.eigh(eta.mat)
    keep = lam > 0.0
    traces = w[np.arange(d) * (d + 1)][:, keep].sum(axis=0)
    return (w[:, keep] @ (lam[keep] * traces.conj())).reshape(d, d)


def test_vector_equals_partial_contraction(rng):
    # The library reads the identity index pair straight off the stored
    # array; the ensemble formula over eta's eigendecomposition must
    # agree with it.
    for d in (2, 3):
        eta = random_density(rng, d)
        wvv = weak_value_vector(eta)
        assert np.max(np.abs(wvv.coeffs - eigen_route_vector(eta))) <= 1e-12


def test_vector_keeps_slightly_negative_eigenvalues(rng):
    # A valid density vector may carry eigenvalues down to -PSD_ATOL.
    # The vector is linear in the whole array, so such an eigenvalue
    # must still enter it (an eigen route over positive eigenvalues
    # drops it and misses by about 1e-12 here).
    d = 2
    lam, w = np.linalg.eigh(random_density(rng, d, n_members=4).mat)
    lam[0] = -1e-11
    lam /= lam.sum()
    eta = DensityVector((w * lam) @ w.conj().T)
    assert np.linalg.eigvalsh(eta.mat)[0] == pytest.approx(-1e-11, rel=1e-3)
    idx = np.arange(d) * (d + 1)
    direct = eta.mat[:, idx].sum(axis=1).reshape(d, d)
    assert np.max(np.abs(weak_value_vector(eta).coeffs - direct)) <= 1e-15
    assert np.max(np.abs(eigen_route_vector(eta) - direct)) > 1e-13


def test_vector_of_equal_mixture():
    wvv = weak_value_vector(equal_mixture_density())
    assert np.allclose(wvv.coeffs, np.diag([0.5, 0.5]), atol=1e-12)


def test_vector_depends_only_on_the_density(rng):
    # Two different decompositions of one mixture share the vector.
    ens = random_ensemble(rng, 2, n_members=4)
    eta = density_from_ensemble(ens)
    by_members = sum(
        w * np.conj(np.trace(s.coeffs)) * s.coeffs for w, s in ens.members
    )
    assert np.max(np.abs(weak_value_vector(eta).coeffs - by_members)) <= 1e-12


# ---------------------------------------------------------------------------
# Mixture weak values.

def test_mixture_weak_value_is_not_the_member_average():
    # The two members have sigma_z weak values +1 and -1, so a naive
    # equal-weight average predicts 0.  The members' identity
    # contractions differ (1 vs 1/sqrt(2)), and the correct
    # squared-trace weighting lands at 1/3 instead.
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ens = Ensemble((
        (0.5, pure_product(E0, E0)),
        (0.5, pure_product(plus, E1)),
    ))
    eta = density_from_ensemble(ens)
    members = [weak_value_pure(SIGMA_Z, s) for _, s in ens.members]
    assert members[0] == pytest.approx(1.0, abs=1e-12)
    assert members[1] == pytest.approx(-1.0, abs=1e-12)
    assert weak_value_ensemble(SIGMA_Z, eta) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rank_one_density_reproduces_the_pure_weak_value(rng):
    for _ in range(10):
        s = random_state(rng, 2)
        if abs(np.trace(s.coeffs)) <= 1e-7:
            continue
        eta = density_from_ensemble(Ensemble.pure(s))
        a = KrausOperator(random_hermitian(rng, 2))
        assert weak_value_ensemble(a, eta) == pytest.approx(
            weak_value_pure(a, s), abs=1e-10
        )


def test_equivalent_pure_state_matches_on_random_pairs(rng):
    for _ in range(50):
        eta = random_density(rng, 2, n_members=int(rng.integers(1, 4)))
        equiv = weak_equivalent_pure(eta)
        for _ in range(20):
            a = KrausOperator(random_hermitian(rng, 2))
            wv_mix = weak_value_ensemble(a, eta)
            wv_pure = weak_value_pure(a, equiv)
            assert abs(wv_mix - wv_pure) <= 1e-10


def test_equal_mixture_is_weakly_an_equal_superposition():
    equiv = weak_equivalent_pure(equal_mixture_density())
    assert np.allclose(equiv.coeffs, np.eye(2) / np.sqrt(2.0), atol=1e-12)


def test_traceless_mixture_has_no_weak_response():
    v01 = pure_product(E1, E0)  # post-select 1, prepare 0
    v10 = pure_product(E0, E1)
    eta = density_from_ensemble(Ensemble(((0.5, v01), (0.5, v10))))
    assert weak_value_vector(eta).norm <= 1e-14
    with pytest.raises(NoEquivalentStateError):
        weak_equivalent_pure(eta)
    with pytest.raises(UndefinedWeakValueError):
        weak_value_ensemble(SIGMA_Z, eta)


def test_maximally_mixed_density_behaves_like_identity_state():
    eta = DensityVector(np.eye(4) / 4.0)
    equiv = weak_equivalent_pure(eta)
    assert np.allclose(equiv.coeffs, np.eye(2) / np.sqrt(2.0), atol=1e-12)
    assert weak_value_ensemble(SIGMA_Z, eta) == pytest.approx(0.0, abs=1e-12)
