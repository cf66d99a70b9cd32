"""Core types, vectorization convention, and the three pairing operations."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    E0,
    E1,
    MINUS_PLUS,
    complex_gaussian,
    equal_mixture_density,
    equal_superposition_state,
    random_density,
    random_kraus,
    random_state,
)
from twotime import (
    DegenerateInputError,
    DensityVector,
    DimensionMismatchError,
    KrausDensityVector,
    KrausOperator,
    NormalizationError,
    NotHermitianError,
    NotPositiveError,
    TwoTimeState,
    ValidationError,
    contract_pure,
    hermiticity_defect,
    identity_two_time_vector,
    kraus_density_vector,
    pair,
    pure_product,
    sandwich,
    unvec,
    vec,
)


# ---------------------------------------------------------------------------
# Vectorization convention.

def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(a), np.array([1, 2, 3, 4], dtype=complex))


def test_unvec_inverts_vec(rng):
    a = complex_gaussian(rng, (3, 3))
    assert np.array_equal(unvec(vec(a)), a)


# ---------------------------------------------------------------------------
# TwoTimeState.

def test_state_is_normalized():
    s = TwoTimeState(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert np.linalg.norm(s.coeffs) == pytest.approx(1.0, abs=1e-14)
    assert s.coeffs[0, 0] == pytest.approx(0.6)


def test_state_rejects_zero():
    with pytest.raises(DegenerateInputError):
        TwoTimeState(np.zeros((2, 2)))


@pytest.mark.parametrize("scale", [1e200, 1.7976931348623157e308, 1e-100, 1e-160, 1e-200, 5e-324])
def test_state_at_the_edges_of_float64_stores_the_unit_array(scale):
    # Past 1e154 the squared norm overflows, and below 1e-154 it loses
    # digits or underflows to zero; either way the state is diag(1, 0).
    unit = np.diag([1.0, 0.0]).astype(complex)
    assert TwoTimeState(np.diag([scale, 0.0])).coeffs.tobytes() == unit.tobytes()
    assert np.array_equal(TwoTimeState(np.diag([0.0, -1j * scale])).coeffs, -1j * unit[::-1, ::-1])


def test_state_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        TwoTimeState(np.ones((2, 3)))


def test_state_rejects_non_finite():
    with pytest.raises(DegenerateInputError):
        TwoTimeState(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_unnormalized_operators_keep_large_finite_entries():
    # Documents bound their entries' magnitude; the constructors do not.
    big = np.eye(2) * 1e80
    op = KrausOperator(big)
    assert op.entries.tobytes() == big.astype(np.complex128).tobytes()
    k = kraus_density_vector([op])
    np.testing.assert_allclose(k.mat, kraus_density_vector([KrausOperator(np.eye(2))]).mat * 1e160,
                               rtol=1e-15, atol=0.0)


def test_state_coeffs_are_immutable():
    s = TwoTimeState(np.eye(2))
    with pytest.raises(ValueError):
        s.coeffs[0, 0] = 5.0


# ---------------------------------------------------------------------------
# DensityVector.

def test_density_from_pure_is_rank_one_projector():
    s = pure_product(E0, E0)
    eta = DensityVector.from_pure(s)
    v = vec(s.coeffs)
    assert np.allclose(eta.mat, np.outer(v, v.conj()), atol=1e-14)


def test_density_from_pure_stores_what_the_checked_constructor_stores(rng):
    for d in (1, 2, 3, 5):
        s = random_state(rng, d)
        v = s.coeffs.reshape(-1)
        checked = DensityVector(np.outer(v, v.conj())).mat
        assert DensityVector.from_pure(s).mat.tobytes() == checked.tobytes()


def test_density_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        DensityVector(m)


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveError):
        DensityVector(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))


def test_density_rejects_wrong_trace():
    with pytest.raises(NormalizationError):
        DensityVector(np.diag([0.4, 0.4, 0.0, 0.0]).astype(complex))


def test_density_rescales_near_unit_trace():
    eta = DensityVector(np.diag([0.5 + 3e-10, 0.5, 0.0, 0.0]).astype(complex))
    assert np.trace(eta.mat).real == pytest.approx(1.0, abs=1e-12)


def test_density_with_an_entry_at_the_float64_limit_fails_typed():
    mat = np.eye(4) / 4.0
    mat[0, 1] = mat[1, 0] = 1.7976931348623157e308
    with pytest.raises(NotPositiveError, match="min eigenvalue -1.798e"):
        DensityVector(mat)
    with pytest.raises(NormalizationError, match="trace inf is not 1"):
        DensityVector(np.diag([1e308, 1e308, 0.0, 0.0]))


def test_kraus_density_vector_beyond_half_the_float64_range_is_kept():
    mat = np.diag([1.5e308, 0.0, 0.0, 1.0]).astype(complex)
    assert KrausDensityVector(mat).mat.tobytes() == mat.tobytes()


def test_density_rejects_non_square_side():
    # 3x3 is not d^2 for any integer d.
    with pytest.raises(DimensionMismatchError):
        DensityVector(np.eye(3) / 3.0)


def _from_eigenpairs(rng, n, lam):
    w, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    return (w * lam) @ w.conj().T


@pytest.mark.parametrize("case", ["random", "rank-deficient", "clipped", "off-trace"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_trusted_constructor_stores_what_the_public_one_stores(rng, case, d):
    n = d * d
    if case == "clipped":  # the tomography repair: a clipped, renormalized eigh
        h = complex_gaussian(rng, (n, n))
        lam, w = np.linalg.eigh((h + h.conj().T) / 2.0 + 0.5 * np.eye(n))
        lam = np.clip(lam, 0.0, None)
        mat = (w * (lam / lam.sum())) @ w.conj().T
    else:
        lam = rng.random(n)
        if case == "rank-deficient":
            lam[: n // 2] = 0.0
        lam /= lam.sum()
        if case == "off-trace":  # inside the 1e-9 gate, so the stored array is rescaled
            lam *= 1.0 + 5e-10
        mat = _from_eigenpairs(rng, n, lam)
    trusted = DensityVector._from_psd(mat).mat
    public = DensityVector(mat).mat
    assert trusted.tobytes() == public.tobytes()
    assert not trusted.flags.writeable


# ---------------------------------------------------------------------------
# KrausOperator / KrausDensityVector.

def test_identity_two_time_vector_entries():
    ident = identity_two_time_vector(3)
    assert np.array_equal(ident.entries, np.eye(3, dtype=complex))


@pytest.mark.parametrize("dim", [2.5, True, "2", 0, -1, None])
def test_identity_rejects_a_dimension_that_is_no_positive_integer(dim):
    for build in (KrausOperator.identity, identity_two_time_vector):
        with pytest.raises(ValidationError, match="dimension must be an integer"):
            build(dim)


def test_identity_above_the_allocation_budget_raises_before_allocating(monkeypatch):
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", 16 * 3 * 3)
    assert identity_two_time_vector(3).dim == 3
    for build in (KrausOperator.identity, identity_two_time_vector):
        for dim in (4, 2**1024):
            with pytest.raises(ValidationError, match="allocation budget"):
                build(dim)


def test_identity_allocates_the_bytes_the_budget_checks():
    tracemalloc.start()
    try:
        KrausOperator.identity(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * 256**2


def test_kraus_zero_allowed():
    z = KrausOperator(np.zeros((2, 2)))
    assert z.dim == 2


def test_kdv_rejects_non_psd():
    with pytest.raises((NotPositiveError, NotHermitianError)):
        KrausDensityVector(np.diag([1.0, -0.5, 0.0, 0.0]).astype(complex))


# ---------------------------------------------------------------------------
# contract_pure.

def test_contract_identity_on_corner_product():
    s = pure_product(E0, E0)
    assert contract_pure(identity_two_time_vector(2), s) == pytest.approx(1.0)


def test_contract_minus_plus_kills_superposition():
    s = equal_superposition_state()
    val = contract_pure(KrausOperator(MINUS_PLUS), s)
    assert abs(val) <= 1e-14


def test_contract_minus_plus_on_corner_product():
    val = contract_pure(KrausOperator(MINUS_PLUS), pure_product(E0, E0))
    assert val == pytest.approx(0.5)


def test_contract_is_bilinear_without_conjugation(rng):
    for d in (2, 3):
        s = random_state(rng, d)
        a, b = random_kraus(rng, d), random_kraus(rng, d)
        ca, cb = complex_gaussian(rng, ()), complex_gaussian(rng, ())
        combo = KrausOperator(ca * a.entries + cb * b.entries)
        lhs = contract_pure(combo, s)
        rhs = ca * contract_pure(a, s) + cb * contract_pure(b, s)
        assert abs(lhs - rhs) <= 1e-12


def test_contract_matches_matrix_element(rng):
    # For a product state the contraction is the plain matrix element
    # <post|A|pre> of unit vectors.
    for _ in range(20):
        d = int(rng.integers(2, 5))
        phi = complex_gaussian(rng, d)
        psi = complex_gaussian(rng, d)
        a = random_kraus(rng, d)
        s = pure_product(phi, psi)
        expected = (phi.conj() @ a.entries @ psi) / (
            np.linalg.norm(phi) * np.linalg.norm(psi)
        )
        assert abs(contract_pure(a, s) - expected) <= 1e-12


def test_contract_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        contract_pure(KrausOperator(np.eye(3)), pure_product(E0, E0))


# ---------------------------------------------------------------------------
# sandwich.

def test_sandwich_identity_on_pure():
    eta = DensityVector.from_pure(pure_product(E0, E0))
    assert sandwich(identity_two_time_vector(2), eta) == pytest.approx(1.0)


def test_sandwich_minus_plus_on_mixture():
    # (1/2)(1/2)^2 + (1/2)(-1/2)^2 = 1/4
    val = sandwich(KrausOperator(MINUS_PLUS), equal_mixture_density())
    assert val == pytest.approx(0.25, abs=1e-14)


def test_sandwich_minus_plus_on_superposition():
    eta = DensityVector.from_pure(equal_superposition_state())
    assert sandwich(KrausOperator(MINUS_PLUS), eta) <= 1e-14


def test_sandwich_equals_squared_contraction(rng):
    for d in (2, 3, 4):
        for _ in range(10):
            s = random_state(rng, d)
            a = random_kraus(rng, d)
            eta = DensityVector.from_pure(s)
            assert sandwich(a, eta) == pytest.approx(
                abs(contract_pure(a, s)) ** 2, abs=1e-12
            )


def test_sandwich_is_never_negative(rng):
    for _ in range(50):
        d = int(rng.integers(2, 4))
        val = sandwich(random_kraus(rng, d), random_density(rng, d))
        assert val >= 0.0


# ---------------------------------------------------------------------------
# pair.

def test_pair_identity_kdv_on_pure():
    k = kraus_density_vector([identity_two_time_vector(2)])
    eta = DensityVector.from_pure(pure_product(E0, E0))
    assert pair(k, eta) == pytest.approx(1.0)


def test_pair_projector_always_succeeds_on_matching_product():
    k = kraus_density_vector([KrausOperator(np.outer(E0, E0))])
    eta = DensityVector.from_pure(pure_product(E0, E0))
    assert pair(k, eta) == pytest.approx(1.0)


def test_pair_half_success_branch():
    plus = (E0 + E1) / np.sqrt(2.0)
    k = kraus_density_vector([KrausOperator(np.outer(plus, E1))])
    eta = DensityVector.from_pure(pure_product(E0, E1))
    assert pair(k, eta) == pytest.approx(0.5)


def test_pair_rank_one_equals_sandwich(rng):
    for d in (2, 3):
        for _ in range(10):
            a = random_kraus(rng, d)
            eta = random_density(rng, d)
            k = kraus_density_vector([a])
            assert pair(k, eta) == pytest.approx(sandwich(a, eta), abs=1e-12)


def test_pair_sums_over_branches(rng):
    d = 3
    ops = [random_kraus(rng, d) for _ in range(4)]
    eta = random_density(rng, d)
    k = kraus_density_vector(ops)
    assert pair(k, eta) == pytest.approx(
        sum(sandwich(a, eta) for a in ops), abs=1e-12
    )


# ---------------------------------------------------------------------------
# hermiticity_defect.

def test_hermiticity_defect_zero_for_hermitian():
    assert hermiticity_defect(np.diag([1.0, 2.0]).astype(complex)) == 0.0


def test_hermiticity_defect_measures_asymmetry():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0
    assert hermiticity_defect(m) == pytest.approx(1.0)
