"""Products, superpositions, ensembles, and density vectors."""

import numpy as np
import pytest

from conftest import (
    E0,
    E1,
    PLUS,
    complex_gaussian,
    equal_mixture,
    equal_mixture_density,
    random_complete_measurement,
    random_density,
    random_ensemble,
    random_kraus,
    random_state,
    superposition_density,
    traced_peak,
)
from twotime import (
    ATOL,
    DegenerateInputError,
    DensityVector,
    DimensionMismatchError,
    Ensemble,
    MAX_DENSE_BYTES,
    NormalizationError,
    NotHermitianError,
    TwoTimeState,
    ValidationError,
    contract_pure,
    density_from_ensemble,
    ensemble_from_density,
    positivity_check,
    prob_ensemble,
    pure_product,
    sandwich,
    superpose,
)
from twotime.states import _unit_members


# ---------------------------------------------------------------------------
# pure_product.

def test_product_corner():
    s = pure_product(E0, E0)
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    assert np.allclose(s.coeffs, expected, atol=1e-14)


def test_product_off_diagonal():
    s = pure_product(E0, E1)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.allclose(s.coeffs, expected, atol=1e-14)


def test_product_superposed_post_selection():
    s = pure_product(PLUS, E0)
    expected = np.zeros((2, 2))
    expected[0, 0] = expected[1, 0] = 1.0 / np.sqrt(2.0)
    assert np.allclose(s.coeffs, expected, atol=1e-14)


def test_product_conjugates_post_selection(rng):
    # The post-selection vector enters as a bra: its phases must flip.
    phi = complex_gaussian(rng, 3)
    psi = complex_gaussian(rng, 3)
    a = random_kraus(rng, 3)
    s = pure_product(phi, psi)
    expected = (phi.conj() @ a.entries @ psi) / (
        np.linalg.norm(phi) * np.linalg.norm(psi)
    )
    assert abs(contract_pure(a, s) - expected) <= 1e-12


def test_product_rejects_zero_vectors():
    with pytest.raises(DegenerateInputError):
        pure_product(np.zeros(2), E0)
    with pytest.raises(DegenerateInputError):
        pure_product(E0, np.zeros(2))


def test_product_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatchError):
        pure_product(E0, np.ones(3))


def test_product_at_the_float64_overflow_edge():
    # Vectors whose norms or outer product overflow give the product of
    # their directions; pytest turns an overflow warning into a failure.
    edge, unit = pure_product([1e200, 0], [1e200, 0]), pure_product(E0, E0)
    assert edge.coeffs.tobytes() == unit.coeffs.tobytes()
    big = pure_product([1.7e308, -1e308j], [1e290, 1e300])
    assert np.allclose(big.coeffs, pure_product([1.7, -1j], [1e-10, 1]).coeffs, atol=1e-12)


# ---------------------------------------------------------------------------
# superpose.

def test_superpose_single_term_is_identity():
    s = pure_product(E0, E1)
    out = superpose([(1.0, s)])
    assert np.allclose(out.coeffs, s.coeffs, atol=1e-14)


def test_superpose_diagonal_products_gives_scaled_identity():
    out = superpose([
        (1.0 / np.sqrt(2.0), pure_product(E0, E0)),
        (1.0 / np.sqrt(2.0), pure_product(E1, E1)),
    ])
    assert np.allclose(out.coeffs, np.eye(2) / np.sqrt(2.0), atol=1e-14)


def test_superpose_cancellation_is_an_error():
    s = pure_product(E0, E0)
    with pytest.raises(DegenerateInputError):
        superpose([(1.0, s), (-1.0, s)])


def test_superpose_at_the_float64_overflow_edge():
    s, t = pure_product(E0, E1), pure_product(E1, E0)
    assert np.allclose(superpose([(1e308, s), (1e308, s)]).coeffs, s.coeffs, atol=1e-12)
    out = superpose([(1.7e308, s), (-1.7e308j, t), (1.0, t)])
    assert np.allclose(out.coeffs, superpose([(1.0, s), (-1.0j, t)]).coeffs, atol=1e-12)


def test_superpose_renormalizes(rng):
    terms = [(2.0 + 1.0j, random_state(rng, 2)), (0.5, random_state(rng, 2))]
    out = superpose(terms)
    assert np.linalg.norm(out.coeffs) == pytest.approx(1.0, abs=1e-12)


def test_superpose_cancellation_is_relative_to_the_terms():
    s, t = pure_product(E0, E1), pure_product(E1, E0)
    # Equal states' coefficients are added first, so what remains of them is exact.
    assert superpose([(1.0, s), (-1.0 + 1e-15, s)]).coeffs.tobytes() == s.coeffs.tobytes()
    with pytest.raises(DegenerateInputError):
        superpose([(0.0, s), (0.0, t)])
    assert (superpose([(1.0, s), (1.0, s), (-1.0, s), (-1.0 + 3e-14, s)]).coeffs.tobytes()
            == s.coeffs.tobytes())
    assert superpose([(1e14, s), (-1e14, s), (1.0, t)]).coeffs.tobytes() == t.coeffs.tobytes()
    assert superpose([(1e200, s), (-1e200, s), (1e-200, t)]).coeffs.tobytes() == t.coeffs.tobytes()
    # Different states that cancel to rounding: norm 2.2e-16 against moduli summing to 2.
    off = s.coeffs.copy()
    off[0, 1] = np.nextafter(1.0, 2.0)
    with pytest.raises(DegenerateInputError):
        superpose([(1.0, s), (-1.0, TwoTimeState(off))])
    assert superpose([(1.0, s), (-1.0 + 1e-12, s)]).coeffs.tobytes() == s.coeffs.tobytes()
    assert superpose([(1e-20, s)]).coeffs.tobytes() == superpose([(0.5, s)]).coeffs.tobytes()
    assert np.allclose(superpose([(1e-300, s), (1e-300j, t)]).coeffs,
                       superpose([(1.0, s), (1j, t)]).coeffs, atol=1e-15)


def test_product_of_tiny_or_unbalanced_vectors():
    # Only an exactly zero vector is zero: these products underflow, or
    # pair a vector far below 1 with one far above, and are valid states.
    assert pure_product([1e300], [1e-300]).coeffs.tolist() == [[1.0]]
    unit = pure_product(E0, E0).coeffs.tobytes()
    assert pure_product([1e-200, 0], [1e-200, 0]).coeffs.tobytes() == unit
    assert pure_product([5e-324, 0], [5e-324, 0]).coeffs.tobytes() == unit


# ---------------------------------------------------------------------------
# Scale invariance: a state is defined up to normalization, so every
# power-of-two multiple of its inputs that float64 holds exactly (each
# nonzero part stays normal) stores the same bits.

def normal_shifts(x: np.ndarray) -> tuple:
    """The least and greatest j for which every nonzero part of ``ldexp(x, j)`` is normal."""
    parts = np.abs(x.view(np.float64))
    exps = np.frexp(parts[parts > 0.0])[1]  # |part| in [2^(e - 1), 2^e)
    return -1021 - int(exps.min()), 1024 - int(exps.max())


def shifted(x: np.ndarray, j: int) -> np.ndarray:
    return np.ldexp(x.view(np.float64), j).view(np.complex128)


def renormalized(norm: float) -> bool:
    """True unless some power of two times ``norm`` is 1 within ``ATOL``: such a
    multiple is stored as given, the others renormalized, so they differ."""
    frac = np.frexp(norm)[0]  # in [0.5, 1)
    return min(frac - 0.5, 1.0 - frac) > ATOL


def scaled_draws(rng, shape, count: int, norm=np.linalg.norm) -> list:
    """``count`` random complex arrays of ``shape``, parts spread over 40 decades,
    some zero, each nonzero and ``renormalized`` at its ``norm``."""
    out = []
    while len(out) < count:
        x = complex_gaussian(rng, shape) * 10.0 ** rng.uniform(-20, 20, shape)
        x[rng.random(shape) < 0.2] = 0.0
        if x.any() and renormalized(norm(x)):
            out.append(x)
    return out


def shifts(rng, x: np.ndarray, count: int) -> list:
    """``count`` shifts j keeping ``ldexp(x, j)`` normal: both extremes and random ones."""
    low, high = normal_shifts(x)
    return [low, high] + rng.integers(low, high + 1, count - 2).tolist()


def test_state_bits_do_not_depend_on_scale(rng):
    checked = 0
    for d in range(1, 9):
        for c in scaled_draws(rng, (d, d), 25):
            ref = TwoTimeState(c).coeffs.tobytes()
            for j in shifts(rng, c, 30):
                assert TwoTimeState(shifted(c, j)).coeffs.tobytes() == ref, (c, j)
                checked += 1
    assert checked == 6000


def test_product_bits_do_not_depend_on_either_scale(rng):
    for d in range(1, 9):
        for phi in scaled_draws(rng, (d,), 12):
            psi, = scaled_draws(rng, (d,), 1, lambda x: np.linalg.norm(np.outer(phi, x)))
            ref = pure_product(phi, psi).coeffs.tobytes()
            for j, k in zip(shifts(rng, phi, 20), shifts(rng, psi, 20)[::-1]):
                got = pure_product(shifted(phi, j), shifted(psi, k)).coeffs.tobytes()
                assert got == ref, (phi, psi, j, k)


def test_superposition_bits_do_not_depend_on_the_coefficients_scale(rng):
    for d in range(1, 9):
        for n in range(1, 4):
            terms = [random_state(rng, d) for _ in range(n)]
            combined = lambda c: np.linalg.norm(sum(x * s.coeffs for x, s in zip(c, terms)))
            for c in scaled_draws(rng, (n,), 4, combined):
                ref = superpose(list(zip(c, terms))).coeffs.tobytes()
                for j in shifts(rng, c, 20):
                    got = superpose(list(zip(shifted(c, j), terms))).coeffs.tobytes()
                    assert got == ref, (c, j)


def test_unit_products_and_superpositions_are_stored_as_built(rng):
    # Scaling is kept for what is renormalized anyway: a unit-norm result
    # keeps the bits of its plain outer product or sum.
    for d in range(1, 9):
        phi, psi = complex_gaussian(rng, d), complex_gaussian(rng, d)
        phi, psi = phi / np.linalg.norm(phi), psi / np.linalg.norm(psi)
        built = np.outer(phi.conj(), psi)
        assert abs(np.linalg.norm(built) - 1.0) <= ATOL
        assert pure_product(phi, psi).coeffs.tobytes() == built.tobytes()
        s = random_state(rng, d)
        assert superpose([(1.0, s)]).coeffs.tobytes() == s.coeffs.tobytes()


# ---------------------------------------------------------------------------
# Ensemble validation.

def test_ensemble_rejects_bad_weight_sum():
    s = pure_product(E0, E0)
    with pytest.raises(NormalizationError):
        Ensemble(((0.5, s), (0.6, s)))


def test_ensemble_rejects_nonpositive_weight():
    s = pure_product(E0, E0)
    with pytest.raises(NormalizationError):
        Ensemble(((0.0, s), (1.0, s)))


def test_ensemble_rejects_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        Ensemble(((0.5, pure_product(E0, E0)), (0.5, TwoTimeState(np.eye(3)))))


# ---------------------------------------------------------------------------
# density_from_ensemble.

def test_density_single_member_is_projector():
    s = pure_product(E0, E1)
    eta = density_from_ensemble(Ensemble.pure(s))
    v = s.coeffs.reshape(-1)
    assert np.allclose(eta.mat, np.outer(v, v.conj()), atol=1e-14)


def test_density_equal_mixture_is_diagonal_corners():
    eta = equal_mixture_density()
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(eta.mat, expected, atol=1e-14)


def test_mixture_and_superposition_densities_differ():
    # Same projective statistics, different density vectors: the
    # Frobenius gap between the two arrays is sqrt(1/2).
    gap = np.linalg.norm(equal_mixture_density().mat - superposition_density().mat)
    assert gap == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_density_matches_member_statistics(rng):
    for d in (2, 3):
        ens = random_ensemble(rng, d)
        eta = density_from_ensemble(ens)
        for _ in range(10):
            a = random_kraus(rng, d)
            expected = sum(
                w * abs(contract_pure(a, s)) ** 2 for w, s in ens.members
            )
            assert sandwich(a, eta) == pytest.approx(expected, abs=1e-12)


def test_equal_density_implies_equal_statistics(rng):
    # Two different ensembles with one density vector are operationally
    # identical: every probability list agrees.
    eta = equal_mixture_density()
    ens_a = equal_mixture()
    ens_b = ensemble_from_density(eta)  # eigen-ensemble, generally different members
    for _ in range(100):
        m = random_complete_measurement(rng, 2, n_outcomes=3)
        pa = prob_ensemble(ens_a, m)
        pb = prob_ensemble(ens_b, m)
        assert np.allclose(pa, pb, atol=1e-12)


def outer_sum(ensemble):
    """The density array as the Python sum of weighted outer products, member by member."""
    mats = ((w, s.coeffs.reshape(-1)) for w, s in ensemble.members)
    return sum(w * np.outer(v, v.conj()) for w, v in mats)


def ensemble_of(kind, rng, d, n):
    """An n-member ensemble of dimension d: Gaussian members and weights, with
    at most three distinct members, every other weight near 1e-12, or a
    third of the parts signed zeros."""
    coeffs = complex_gaussian(rng, (n, d, d))
    weights = rng.random(n) + 0.1
    if kind == "duplicated":
        coeffs = coeffs[rng.integers(0, 3, n) % n]
    elif kind == "tiny-weight":
        weights[1::2] = 1e-12 * weights.sum()
    elif kind == "signed-zero":
        coeffs.real[rng.random((n, d, d)) < 0.3] = -0.0
        coeffs.imag[rng.random((n, d, d)) < 0.3] = -0.0
        coeffs[:, 0, 0] = 1.0  # no member is zero
    return Ensemble(tuple(zip(weights / weights.sum(), map(TwoTimeState, coeffs))))


@pytest.mark.parametrize("kind", ["gaussian", "duplicated", "tiny-weight", "signed-zero"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_density_is_the_outer_product_sum_within_ulps(rng, d, kind):
    for n in (1, 2, 7, 8, 9, 33, 70, 1000, 4096):
        ens = ensemble_of(kind, rng, d, n)
        got = density_from_ensemble(ens).mat.view(np.float64)
        expected = DensityVector(outer_sum(ens)).mat.view(np.float64)
        assert np.abs(got - expected).max() <= 4 * np.spacing(np.abs(expected).max()), n


# ---------------------------------------------------------------------------
# ensemble_from_density.

def test_ensemble_from_density_round_trips(rng):
    for d in (2, 3):
        eta = density_from_ensemble(random_ensemble(rng, d, 4))
        back = density_from_ensemble(ensemble_from_density(eta))
        assert np.allclose(back.mat, eta.mat, atol=1e-12)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_the_ensemble_budget_bounds_its_traced_peak(rng, d):
    # tracemalloc sees the eigenvectors and the members, 32 d^4 of the stated
    # 80 d^4 + 16 KiB, and not LAPACK's copy of the matrix and workspace.
    eta = random_density(rng, d, n_members=d * d)
    assert traced_peak(lambda: ensemble_from_density(eta)) <= 32 * d**4 + 2**14


def test_ensemble_from_density_reads_the_core_allocation_budget(monkeypatch):
    assert 80 * 35**4 + 2**14 <= MAX_DENSE_BYTES < 80 * 36**4  # refused from d = 36
    eta = equal_mixture_density()
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", 80 * 2**4 + 2**14)
    ensemble_from_density(eta)
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", 80 * 2**4 + 2**14 - 1)
    with pytest.raises(ValidationError, match="dimension-2 density vector"):
        ensemble_from_density(eta)


def test_ensemble_from_density_weights_are_eigenvalues():
    ens = ensemble_from_density(equal_mixture_density())
    assert sorted(w for w, _ in ens.members) == pytest.approx([0.5, 0.5])


def test_ensemble_from_density_members_match_the_eigenvectors():
    eta = density_from_ensemble(random_ensemble(np.random.default_rng(3), 3, 4))
    ens = ensemble_from_density(eta)
    lam, w = np.linalg.eigh(eta.mat)
    keep = np.nonzero(lam > 1e-12)[0]
    assert [p for p, _ in ens.members] == [float(p) for p in lam[keep] / lam[keep].sum()]
    for (_, s), idx in zip(ens.members, keep):
        assert s.coeffs.tobytes() == TwoTimeState(w[:, idx].reshape(3, 3)).coeffs.tobytes()


# ---------------------------------------------------------------------------
# Stacked ensembles: Ensemble._from_stack, _unit_members, weights and coeff_stack.

def test_from_stack_members_are_read_only_views_of_the_stack(rng):
    stack = complex_gaussian(rng, (3, 2, 2))
    stack /= np.linalg.norm(stack, axis=(1, 2))[:, None, None]
    ens = Ensemble._from_stack(np.array([0.25, 0.25, 0.5]), stack)
    assert ens.coeff_stack is stack
    for r, (w, s) in enumerate(ens.members):
        assert type(w) is float
        assert np.shares_memory(s.coeffs, stack) and s.coeffs.tobytes() == stack[r].tobytes()
    for arr in (ens.coeff_stack, ens.weights, ens.members[0][1].coeffs):
        assert not arr.flags.writeable


def test_from_stack_stores_what_the_state_constructor_stores(rng):
    # The stacked load path: _unit_members, then _from_stack.  Norms off
    # by 0 to 9e-10: the ones beyond 1e-12 are divided out.
    for off in (0.0, 3e-13, 6e-13, 2e-12, 1e-11, -4e-10, 9e-10):
        coeffs = complex_gaussian(rng, (4, 3, 3))
        coeffs *= (1.0 + off) / np.linalg.norm(coeffs, axis=(1, 2))[:, None, None]
        expected = [TwoTimeState(c).coeffs.tobytes() for c in coeffs]
        ens = Ensemble._from_stack(np.full(4, 0.25), _unit_members(coeffs.copy()))
        assert [s.coeffs.tobytes() for _, s in ens.members] == expected


def test_from_stack_rejects_members_off_the_load_norm(rng):
    coeffs = complex_gaussian(rng, (3, 2, 2))
    coeffs /= np.linalg.norm(coeffs, axis=(1, 2))[:, None, None]
    coeffs[1] *= 1.0 + 2e-9
    with pytest.raises(NormalizationError, match="member 1 has Frobenius norm"):
        Ensemble._from_stack(np.full(3, 1 / 3), _unit_members(coeffs))
    coeffs[1] = 0.0
    with pytest.raises(NormalizationError, match="member 1 has Frobenius norm 0.0"):
        Ensemble._from_stack(np.full(3, 1 / 3), _unit_members(coeffs))


@pytest.mark.parametrize("weights", [[0.5, 0.6], [0.0, 1.0], [float("nan"), 1.0],
                                     [float("inf"), 1.0], [-0.5, 1.5]])
def test_from_stack_weight_errors_are_the_constructors(weights):
    stack = np.zeros((2, 2, 2), dtype=np.complex128)
    stack[:, 0, 0] = 1.0
    with pytest.raises(NormalizationError) as expected:
        Ensemble(tuple((w, TwoTimeState(c)) for w, c in zip(weights, stack)))
    with pytest.raises(NormalizationError) as err:
        Ensemble._from_stack(np.array(weights), stack)
    assert str(err.value) == str(expected.value)


def test_public_ensemble_derives_read_only_stacks(rng):
    ens = random_ensemble(rng, 2, n_members=3)
    assert ens.weights is ens.weights
    assert ens.coeff_stack is ens.coeff_stack
    assert ens.weights.tolist() == [w for w, _ in ens.members]
    assert ens.coeff_stack.tobytes() == np.stack([s.coeffs for s in ens.states]).tobytes()
    assert not ens.weights.flags.writeable and not ens.coeff_stack.flags.writeable


# ---------------------------------------------------------------------------
# positivity_check.

def test_positivity_of_constructed_densities(rng):
    for d in (2, 3):
        eta = density_from_ensemble(random_ensemble(rng, d))
        ok, min_eig = positivity_check(eta)
        assert ok and min_eig >= -1e-10


def test_positivity_rejects_negative_spectrum():
    mat = np.diag([1.0, -0.1, 0.05, 0.05]).astype(complex)
    ok, min_eig = positivity_check(mat)
    assert not ok
    assert min_eig == pytest.approx(-0.1)


def test_positivity_reports_known_spectrum(rng):
    eigs = np.array([0.7, 0.3, 0.05, -0.05])
    q, _ = np.linalg.qr(complex_gaussian(rng, (4, 4)))
    mat = (q * eigs) @ q.conj().T
    _, min_eig = positivity_check(mat)
    assert min_eig == pytest.approx(-0.05, abs=1e-12)


def test_positivity_rejects_non_hermitian_raw():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 0.3
    with pytest.raises(NotHermitianError):
        positivity_check(m)
