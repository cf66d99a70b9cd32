"""The two-time <-> bipartite dictionary and its normalization bookkeeping."""

import numpy as np
import pytest

from conftest import (
    E0,
    E1,
    bell_basis_povm,
    equal_superposition_state,
    random_complete_measurement,
    random_density,
    random_kraus,
    random_state,
)
from twotime import (
    AllDiscardedError,
    BipartiteDensity,
    BipartiteOperator,
    DegenerateInputError,
    DimensionMismatchError,
    KrausOperator,
    Measurement,
    NormalizationError,
    bipartite_to_density,
    check_completeness,
    complete_operator_set,
    contract_pure,
    density_to_bipartite,
    kdv_to_bipartite,
    kraus_density_vector,
    kraus_to_bipartite_vector,
    measurement_partial_trace_defect,
    pair,
    pairing_equality_check,
    positivity_check,
    povm_to_twotime,
    prob_coarse,
    prob_relative_bipartite,
    pure_product,
    state_from_bipartite,
    state_to_bipartite,
)
from twotime.bipartite import _outcome_images


# ---------------------------------------------------------------------------
# State mapping.

def test_corner_state_maps_to_first_basis_vector():
    v = state_to_bipartite(pure_product(E0, E0))
    assert np.allclose(v, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_superposition_maps_to_maximally_entangled_vector():
    v = state_to_bipartite(equal_superposition_state())
    assert np.allclose(v, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-15)


def test_state_round_trip(rng):
    s = random_state(rng, 3)
    back = state_from_bipartite(state_to_bipartite(s))
    assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-15


def test_state_from_bipartite_rejects_non_square_lengths():
    with pytest.raises(DimensionMismatchError):
        state_from_bipartite(np.ones(3))
    with pytest.raises(DimensionMismatchError):
        state_from_bipartite(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Operator mapping: the conjugation.

def test_kraus_vector_is_conjugated():
    op = KrausOperator(1j * np.outer(E0, E1))
    v = kraus_to_bipartite_vector(op)
    assert np.allclose(v, [0.0, -1j, 0.0, 0.0], atol=1e-15)


def test_bipartite_amplitude_equals_the_contraction(rng):
    # <a|Psi> on the doubled space reproduces the bilinear two-time
    # pairing; the conjugation built into the operator map cancels the
    # one in the inner product.
    for _ in range(20):
        s = random_state(rng, 3)
        a = random_kraus(rng, 3)
        amp = np.vdot(kraus_to_bipartite_vector(a), state_to_bipartite(s))
        assert amp == pytest.approx(contract_pure(a, s), abs=1e-12)


def test_density_maps_to_the_same_array(rng):
    eta = random_density(rng, 2)
    rho = density_to_bipartite(eta)
    assert np.array_equal(rho.rho, eta.mat)
    back = bipartite_to_density(rho)
    assert np.max(np.abs(back.mat - eta.mat)) <= 1e-15


def test_kdv_image_keeps_trace_and_spectrum(rng):
    kdv = kraus_density_vector([random_kraus(rng, 2), random_kraus(rng, 2)])
    image = kdv_to_bipartite(kdv)
    assert np.trace(image.op) == pytest.approx(np.trace(kdv.mat).real, abs=1e-12)
    assert np.allclose(
        np.linalg.eigvalsh(image.op), np.linalg.eigvalsh(kdv.mat), atol=1e-12
    )


# ---------------------------------------------------------------------------
# The pairing identity.

def test_pairing_equality_on_random_pairs(rng):
    for d in (2, 3, 4):
        m_sets = [random_complete_measurement(rng, d) for _ in range(5)]
        kdvs = [kraus_density_vector(out) for m in m_sets for out in m.outcomes]
        count = 0
        while count < 500 // 3 + 1:
            eta = random_density(rng, d)
            for kdv in kdvs[:3]:
                two_time, born, defect = pairing_equality_check(kdv, eta)
                assert defect <= 1e-12
                assert two_time == pytest.approx(pair(kdv, eta), abs=1e-15)
                count += 1


# ---------------------------------------------------------------------------
# Normalization across the dictionary.

def test_complete_measurement_has_identity_partial_trace(rng):
    for d in (2, 3):
        m = random_complete_measurement(rng, d, n_outcomes=3)
        assert measurement_partial_trace_defect(m) <= 1e-10


def test_incomplete_measurement_fails_partial_trace(rng):
    m = random_complete_measurement(rng, 2, n_outcomes=3)
    damaged = [
        kdv_to_bipartite(kraus_density_vector(out)).op for out in m.outcomes[:-1]
    ]
    assert measurement_partial_trace_defect(damaged) > 1e-6


def test_completeness_and_partial_trace_agree(rng):
    # The two normalization statements are the same condition in the two
    # languages: damaged sets fail both, full sets pass both.
    for _ in range(100):
        d = int(rng.integers(2, 4))
        m = random_complete_measurement(rng, d, n_outcomes=int(rng.integers(2, 5)))
        ok, defect = check_completeness(m)
        assert ok
        assert measurement_partial_trace_defect(m) <= 1e-10
        ops = [out.kraus[0].entries for out in m.outcomes]
        ops[0] = 0.9 * ops[0]
        scaled = Measurement.detailed(ops)
        ok_scaled, _ = check_completeness(scaled)
        assert not ok_scaled
        assert measurement_partial_trace_defect(scaled) > 1e-6


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_outcome_images_are_the_per_outcome_images_bit_for_bit(rng, d):
    for scale, sizes in ((1.0, [1, 1, 1]), (1e-7, [2, 1, 3]), (1e6, [1] * 12)):
        ops = [KrausOperator(scale * random_kraus(rng, d).entries) for _ in range(sum(sizes))]
        ends = np.cumsum(sizes).tolist()
        m = Measurement.from_kraus_sets([ops[lo:hi] for lo, hi in zip([0] + ends, ends)])
        images = _outcome_images(m)
        reference = [kdv_to_bipartite(kraus_density_vector(out)).op for out in m.outcomes]
        assert images.tobytes() == np.stack(reference).tobytes()
        assert measurement_partial_trace_defect(images) == measurement_partial_trace_defect(
            reference)


def test_povm_overweights_by_the_dimension():
    # A single-element POVM {I} pulls back with partial contraction d*I,
    # i.e. partial-trace defect d-1 against the two-time convention.
    for d in (2, 3, 4):
        defect = measurement_partial_trace_defect([np.eye(d * d)])
        assert defect == pytest.approx(d - 1.0, abs=1e-12)


def test_identity_povm_pullback():
    res = povm_to_twotime([np.eye(4)])
    assert res.factor == 2
    assert res.defect <= 1e-12
    ok, defect = check_completeness(res.measurement)
    assert ok and defect <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bell_basis_povm_pulls_back_to_a_complete_measurement(d):
    res = povm_to_twotime(bell_basis_povm(d))
    assert res.factor == d
    assert res.defect <= 1e-10
    ok, defect = check_completeness(res.measurement)
    assert ok and defect <= 1e-10
    assert len(res.kdvs) == d * d


def test_degenerate_povm_pullback_is_exact_at_dimension_one():
    res = povm_to_twotime([np.eye(1)])
    assert res.factor == 1
    assert res.defect <= 1e-15


NAN_OP = np.full((4, 4), np.nan)


@pytest.mark.parametrize("call, error", [
    (lambda: povm_to_twotime([np.eye(4)[:, :3]]), DimensionMismatchError),
    (lambda: povm_to_twotime([np.ones(4)]), DimensionMismatchError),
    (lambda: povm_to_twotime([NAN_OP]), DegenerateInputError),
    (lambda: measurement_partial_trace_defect([np.float64(1.0)]), DimensionMismatchError),
    (lambda: measurement_partial_trace_defect([NAN_OP]), DegenerateInputError),
    (lambda: prob_relative_bipartite(np.eye(4) / 4, [NAN_OP]), DegenerateInputError),
    (lambda: complete_operator_set([NAN_OP]), DegenerateInputError),
    (lambda: complete_operator_set([np.eye(3)]), DimensionMismatchError),
    (lambda: positivity_check(NAN_OP), DegenerateInputError),
    (lambda: positivity_check(np.ones(4)), DimensionMismatchError),
], ids=["povm-non-square", "povm-1d", "povm-nan", "defect-scalar", "defect-nan",
        "relative-nan", "complete-nan", "complete-side", "positivity-nan", "positivity-1d"])
def test_raw_operators_fail_with_typed_errors(call, error):
    # Every raw array is checked for shape and finiteness before any
    # numpy routine can raise its own exception or return NaN.
    with pytest.raises(error):
        call()


def test_povm_operators_are_read_from_op_mat_or_arrays():
    # One reader serves povm_to_twotime and complete_operator_set.  The
    # pullbacks conj(E_mu) (objects with a .mat) resolve the identity too,
    # and pull back to the POVM itself.
    povm = bell_basis_povm(2)
    res = povm_to_twotime([BipartiteOperator(e) for e in povm])
    again = povm_to_twotime(res.kdvs)
    assert max(np.max(np.abs(k.mat - e)) for k, e in zip(again.kdvs, povm)) <= 1e-15
    assert complete_operator_set(res.kdvs).scale == pytest.approx(1.0)


def test_povm_rejects_non_resolving_sets():
    with pytest.raises(NormalizationError):
        povm_to_twotime([0.5 * np.eye(4)])
    with pytest.raises(DimensionMismatchError):
        povm_to_twotime([])


# ---------------------------------------------------------------------------
# Relative probability on the bipartite side.

def test_identity_operator_keeps_everything(rng):
    rho = density_to_bipartite(random_density(rng, 2))
    p = prob_relative_bipartite(rho, [np.eye(4)])
    assert np.allclose(p, [1.0], atol=1e-15)


def test_relative_profile_is_scale_invariant(rng):
    rho = density_to_bipartite(random_density(rng, 2))
    ops = bell_basis_povm(2)
    base = prob_relative_bipartite(rho, ops)
    scaled = prob_relative_bipartite(rho, [7.0 * op for op in ops])
    assert np.allclose(base, scaled, atol=1e-13)


def test_relative_profile_matches_coarse_rule_through_the_dictionary(rng):
    for d in (2, 3):
        eta = random_density(rng, d)
        m = random_complete_measurement(rng, d, n_outcomes=4)
        ops = [kdv_to_bipartite(kraus_density_vector(out)) for out in m.outcomes]
        p_bi = prob_relative_bipartite(density_to_bipartite(eta), ops)
        assert np.max(np.abs(p_bi - prob_coarse(eta, m))) <= 1e-12


def test_rounding_below_zero_reads_zero_at_the_scaled_tolerance():
    # tr(E rho) vanishes for E = 1e6 (I - rho) on a pure rho; its rounding
    # (-1.5e-10 by a matmul) is within PSD_ATOL * tr E of zero, so it is 0,
    # as the two-time rules clamp it.
    rng = np.random.default_rng(2)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    p = prob_relative_bipartite(BipartiteDensity(rho), [BipartiteOperator(1e6 * (np.eye(4) - rho)),
                                                        np.eye(4)])
    assert p.tolist() == [0.0, 1.0]


def test_all_outcomes_discarded_is_typed():
    rho = BipartiteDensity(np.diag([1.0, 0.0, 0.0, 0.0]))
    dead = BipartiteOperator(np.diag([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(AllDiscardedError):
        prob_relative_bipartite(rho, [dead])
    with pytest.raises(AllDiscardedError):
        prob_relative_bipartite(rho, [])


def test_operator_shape_mismatch_is_typed(rng):
    rho = density_to_bipartite(random_density(rng, 2))
    with pytest.raises(DimensionMismatchError):
        prob_relative_bipartite(rho, [np.eye(9)])
