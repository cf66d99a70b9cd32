"""Tomography operator family, prediction, and linear inversion."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    equal_mixture_density,
    random_density,
    random_state,
    superposition_density,
)
from twotime import (
    MAX_DENSE_BYTES,
    MalformedDataError,
    PSD_CLIP_TOL,
    ValidationError,
    VARIANTS,
    build_tomography_set,
    check_completeness,
    Ensemble,
    density_from_ensemble,
    predict_probabilities,
    prob_density,
    reconstruct,
    sampling_clip_tol,
)
from twotime.tomography import _clip_to_density, _vectorized_family


def loop_family(d):
    """Reference: the (4 d^4, d^2) family built one operator at a time."""
    scale = 1.0 / np.sqrt(8.0 * d**3)
    rows = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    for phase in (1.0, -1.0, 1.0j, -1.0j):
                        entries = np.zeros((d, d), dtype=np.complex128)
                        entries[i, j] += scale
                        entries[k, l] += phase * scale
                        rows.append(entries.reshape(-1))
    return np.stack(rows)


def dense_lstsq(p, d):
    """Reference: least squares over the explicit (4 d^4, d^4) forward matrix.

    Returns the raw (d^2, d^2) solution, before any symmetrization.
    """
    v = _vectorized_family(d)
    forward = np.einsum("ma,mb->mab", v, v.conj()).reshape(v.shape[0], -1)
    sol, *_ = np.linalg.lstsq(forward, p / d, rcond=None)
    return sol.reshape(d * d, d * d)


def noisy(rng, p, rel=0.1):
    """``p`` with Gaussian noise of ``rel`` times the mean entry, clipped and renormalized."""
    q = np.clip(p + rng.normal(scale=rel / p.size, size=p.size), 0.0, None)
    return q / q.sum()


# ---------------------------------------------------------------------------
# The operator family.

@pytest.mark.parametrize("d, n", [(1, 4), (2, 64), (3, 324)])
def test_outcome_count(d, n):
    ts = build_tomography_set(d)
    assert ts.n_outcomes == n
    assert ts.measurement.n_outcomes == n
    assert len(ts.labels) == n


def test_labels_run_lexicographically_with_variant_innermost():
    ts = build_tomography_set(2)
    assert ts.labels[0] == (0, 0, 0, 0, "+")
    assert ts.labels[1] == (0, 0, 0, 0, "-")
    assert ts.labels[2] == (0, 0, 0, 0, "+i")
    assert ts.labels[3] == (0, 0, 0, 0, "-i")
    assert ts.labels[4] == (0, 0, 0, 1, "+")
    assert ts.labels[-1] == (1, 1, 1, 1, "-i")
    assert VARIANTS == ("+", "-", "+i", "-i")


def test_first_operator_entries():
    # (O_00 + O_00) / sqrt(8 d^3) at d = 2: a single 2/8 = 0.25 entry.
    ts = build_tomography_set(2)
    first = ts.measurement.outcomes[0].kraus[0].entries
    assert np.allclose(first, [[0.25, 0.0], [0.0, 0.0]], atol=1e-15)
    # The "-" partner of a repeated unit is the zero operator.
    second = ts.measurement.outcomes[1].kraus[0].entries
    assert np.allclose(second, 0.0, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_family_is_complete(d):
    ok, defect = check_completeness(build_tomography_set(d).measurement)
    assert ok
    assert defect <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_vectorized_operators_sum_to_identity_over_d(d):
    ts = build_tomography_set(d)
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for out in ts.measurement.outcomes:
        v = out.kraus[0].entries.reshape(-1)
        acc += np.outer(v, v.conj())
    assert np.max(np.abs(acc - np.eye(d * d) / d)) <= 1e-12


def test_bad_dimension_rejected():
    with pytest.raises(ValidationError):
        build_tomography_set(0)


@pytest.mark.parametrize("dim", [0, -1, "3", 2.7, 2.0, True, False, None, np.float64(2.0)])
def test_bad_dimension_rejected_by_both_entry_points(dim):
    with pytest.raises(ValidationError):
        build_tomography_set(dim)
    with pytest.raises(ValidationError):
        reconstruct(np.full(64, 1.0 / 64.0), dim)


def test_numpy_integer_dimension_accepted(rng):
    ts = build_tomography_set(np.int64(2))
    assert ts.dim == 2 and type(ts.dim) is int
    p = predict_probabilities(random_density(rng, 2), ts)
    assert reconstruct(p, np.int32(2)).dim == 2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_family_matches_the_operator_loop_bit_for_bit(d):
    fam = _vectorized_family(d)
    assert np.array_equal(fam.view(np.float64), loop_family(d).view(np.float64))
    kraus = np.stack([out.kraus[0].entries.reshape(-1)
                      for out in build_tomography_set(d).measurement.outcomes])
    assert np.array_equal(kraus.view(np.float64), fam.view(np.float64))


def test_set_is_lazy_and_sized_without_building():
    ts = build_tomography_set(16)
    assert ts.n_outcomes == 262144
    assert "labels" not in vars(ts) and "measurement" not in vars(ts)


@pytest.fixture
def no_family(monkeypatch):
    """Fail fast, instead of allocating gigabytes, if a size guard is missing."""
    def refuse(d):
        raise AssertionError(f"the dimension-{d} family was built")

    monkeypatch.setattr("twotime.tomography._vectorized_family", refuse)


def test_operator_family_above_the_size_limit_is_rejected(no_family):
    assert 64 * 16**6 > MAX_DENSE_BYTES
    with pytest.raises(ValidationError):
        build_tomography_set(16).measurement


def test_lstsq_above_the_old_size_limit_needs_no_dense_memory(rng, no_family):
    d = 8
    dense = 64 * d**8  # the (4 d^4 x d^4) complex forward matrix: 1.07 GB
    assert dense > MAX_DENSE_BYTES
    eta = random_density(rng, d, n_members=d * d)
    p = predict_probabilities(eta, build_tomography_set(d))
    tracemalloc.start()
    try:
        rec = reconstruct(p, d, method="lstsq")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense / 1000
    assert np.linalg.norm(rec.mat - eta.mat) <= 1e-9


# ---------------------------------------------------------------------------
# Prediction.

def test_predict_matches_probability_rule(rng):
    for d in (1, 2, 3, 4):
        ts = build_tomography_set(d)
        pure = density_from_ensemble(Ensemble.pure(random_state(rng, d)))
        for eta in (random_density(rng, d), pure):
            assert np.allclose(
                predict_probabilities(eta, ts),
                prob_density(eta, ts.measurement),
                atol=1e-12,
            )


def test_repeated_unit_minus_outcome_is_exactly_zero(rng):
    d = 3
    ts = build_tomography_set(d)
    p = predict_probabilities(random_density(rng, d), ts)
    repeated_minus = [m for m, (i, j, k, l, v) in enumerate(ts.labels)
                      if (i, j) == (k, l) and v == "-"]
    assert len(repeated_minus) == d * d
    assert np.all(p[repeated_minus] == 0.0)


def test_predict_depends_only_on_the_ray(rng):
    # Scaling the stored array must not move the normalized output.
    eta = random_density(rng, 2)
    ts = build_tomography_set(2)
    scaled = SimpleNamespace(dim=2, mat=3.0 * eta.mat)
    assert np.allclose(
        predict_probabilities(eta, ts), predict_probabilities(scaled, ts), atol=1e-13
    )


def test_predict_dimension_mismatch(rng):
    with pytest.raises(ValidationError):
        predict_probabilities(random_density(rng, 2), build_tomography_set(3))


# ---------------------------------------------------------------------------
# Inversion.

def test_round_trip_on_random_densities(rng):
    for d in (2, 3):
        ts = build_tomography_set(d)
        for _ in range(100):
            eta = random_density(rng, d)
            rec = reconstruct(predict_probabilities(eta, ts), d)
            assert np.linalg.norm(rec.mat - eta.mat) <= 1e-9


def test_lstsq_agrees_with_polarization(rng):
    for d in (1, 2, 3, 4):
        ts = build_tomography_set(d)
        eta = random_density(rng, d)
        p = predict_probabilities(eta, ts)
        a = reconstruct(p, d, method="polarization")
        b = reconstruct(p, d, method="lstsq")
        assert np.max(np.abs(a.mat - b.mat)) <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lstsq_equals_the_dense_least_squares_solution(rng, d):
    ts = build_tomography_set(d)
    etas = [
        random_density(rng, d, n_members=d * d),  # full rank
        random_density(rng, d, n_members=1),  # pure
        random_density(rng, d, n_members=2),  # rank-deficient (from d = 2)
    ]
    for eta in etas:
        exact = predict_probabilities(eta, ts)
        # Noisy data is inconsistent, so the two methods differ on the
        # diagonal; the wide gate lets both reach the same clip.
        for p, tol in ((exact, PSD_CLIP_TOL), (noisy(rng, exact), 1.0)):
            ref = _clip_to_density(dense_lstsq(p, d), d, tol)
            got = reconstruct(p, d, method="lstsq", clip_tol=tol)
            assert np.max(np.abs(got.mat - ref.mat)) <= 1e-14


def test_pure_state_reconstructs_rank_one(rng):
    s = random_state(rng, 2)
    ts = build_tomography_set(2)
    rec = reconstruct(predict_probabilities(density_from_ensemble(Ensemble.pure(s)), ts), 2)
    lam = np.linalg.eigvalsh(rec.mat)
    assert abs(lam[-1] - 1.0) <= 1e-9
    assert np.max(np.abs(lam[:-1])) <= 1e-9


def test_reconstruction_separates_mixture_from_superposition():
    ts = build_tomography_set(2)
    rec_super = reconstruct(predict_probabilities(superposition_density(), ts), 2)
    rec_mix = reconstruct(predict_probabilities(equal_mixture_density(), ts), 2)
    gap = np.linalg.norm(rec_super.mat - rec_mix.mat)
    assert gap == pytest.approx(np.sqrt(0.5), abs=1e-9)


# ---------------------------------------------------------------------------
# Malformed data.

def test_wrong_length_rejected():
    with pytest.raises(MalformedDataError):
        reconstruct(np.full(63, 1.0 / 63.0), 2)


def test_negative_entries_rejected():
    p = np.full(64, 1.0 / 64.0)
    p[0] = -1e-3
    p[1] += 1e-3 + 1.0 / 64.0
    with pytest.raises(MalformedDataError):
        reconstruct(p, 2)


def test_bad_sum_rejected():
    with pytest.raises(MalformedDataError):
        reconstruct(np.full(64, 2.0 / 64.0), 2)


def test_non_finite_rejected():
    p = np.full(64, 1.0 / 64.0)
    p[3] = np.nan
    with pytest.raises(MalformedDataError):
        reconstruct(p, 2)


def test_unknown_method_rejected(rng):
    ts = build_tomography_set(2)
    p = predict_probabilities(random_density(rng, 2), ts)
    with pytest.raises(ValidationError):
        reconstruct(p, 2, method="bayesian")


def test_inconsistent_data_fails_positivity(rng):
    # Permuting a faithful probability list scrambles the inversion into
    # something far from positive; the gate must reject it.
    ts = build_tomography_set(2)
    p = predict_probabilities(random_density(rng, 2), ts)
    shuffled = p[rng.permutation(p.size)]
    with pytest.raises(MalformedDataError):
        reconstruct(shuffled, 2)


def test_clip_tol_widens_the_gate(rng):
    # The same mildly noisy list is rejected at the exact-data gate and
    # repaired under a statistical one.
    ts = build_tomography_set(2)
    eta = random_density(rng, 2)
    p = predict_probabilities(eta, ts)
    noisy = p + rng.normal(scale=2e-4, size=p.size)
    noisy = np.clip(noisy, 0.0, None)
    noisy /= noisy.sum()
    with pytest.raises(MalformedDataError):
        reconstruct(noisy, 2)
    rec = reconstruct(noisy, 2, clip_tol=1e-1)
    assert np.linalg.norm(rec.mat - eta.mat) <= 0.1


@pytest.mark.parametrize("clip_tol", [np.nan, np.inf, -np.inf, -1.0, -1e-300, "wide", None])
def test_clip_tol_must_be_a_finite_nonnegative_number(rng, clip_tol):
    # A shuffled list inverts to a spectrum far below zero; NaN or +inf would
    # silently switch the gate off, and a negative gate rejects every input.
    ts = build_tomography_set(2)
    shuffled = predict_probabilities(random_density(rng, 2), ts)
    shuffled = shuffled[rng.permutation(shuffled.size)]
    for probs in (shuffled, predict_probabilities(random_density(rng, 2), ts)):
        with pytest.raises(ValidationError, match="clip_tol"):
            reconstruct(probs, 2, clip_tol=clip_tol)


def test_zero_clip_tol_is_accepted(rng):
    eta = equal_mixture_density()
    rec = reconstruct(predict_probabilities(eta, build_tomography_set(2)), 2, clip_tol=0.0)
    assert np.allclose(rec.mat, eta.mat, atol=1e-12)


def test_sampling_clip_tol_values():
    assert sampling_clip_tol(2, 10**8) == pytest.approx(4e-3)
    assert sampling_clip_tol(2, 10**16) == PSD_CLIP_TOL
    assert sampling_clip_tol(3, 9 * 10**4) == pytest.approx(0.3)
    with pytest.raises(ValidationError):
        sampling_clip_tol(2, 0)


@pytest.mark.parametrize("dim, successes", [
    (2, np.nan), (2, 2.7), (2, 1e8), (2, True), (2, "100"), (2.0, 100), (True, 100), (0, 100),
])
def test_sampling_clip_tol_needs_integer_counts(dim, successes):
    with pytest.raises(ValidationError):
        sampling_clip_tol(dim, successes)
