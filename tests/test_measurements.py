"""Measurements, Kraus density vectors, completeness, and completion."""

import numpy as np
import pytest

from conftest import (
    E0,
    E1,
    PLUS,
    complex_gaussian,
    random_coarse_measurement,
    random_complete_measurement,
    random_density,
    random_kraus,
    traced_peak,
)
from twotime import (
    COMPLETENESS_ATOL,
    DegenerateInputError,
    DimensionMismatchError,
    Measurement,
    MeasurementOutcome,
    KrausOperator,
    NotHermitianError,
    NotPositiveError,
    ValidationError,
    build_tomography_set,
    check_completeness,
    complete_operator_set,
    kraus_density_vector,
    measurements_equal,
    partial_normalization_defect,
    prob_coarse,
)
from twotime.bipartite import _outcome_images
from twotime.measurements import _kraus_density_bytes


def projective_pair():
    return Measurement.detailed(
        [np.outer(E0, E0).astype(complex), np.outer(E1, E1).astype(complex)]
    )


def half_success_pair():
    # Complete, but one branch post-selects half the time.
    return Measurement.detailed(
        [np.outer(E0, E0).astype(complex), np.outer(PLUS, E1).astype(complex)]
    )


# ---------------------------------------------------------------------------
# Construction and validation.

def test_outcome_rejects_empty_kraus_set():
    with pytest.raises(DegenerateInputError):
        MeasurementOutcome(())


def test_measurement_rejects_mixed_dims():
    with pytest.raises(DimensionMismatchError):
        Measurement.detailed([np.eye(2), np.eye(3)])


def test_is_detailed_flag():
    assert projective_pair().is_detailed
    lumped = Measurement.from_kraus_sets(
        [[np.outer(E0, E0), np.outer(E1, E1)]]
    )
    assert not lumped.is_detailed


def test_from_stack_entries_are_read_only_views_of_the_kraus_stack(rng):
    stack = complex_gaussian(rng, (5, 2, 2))
    m = Measurement._from_stack(stack, [2, 1, 2], ["a", "b", "c"])
    assert m.kraus_stack is stack and not stack.flags.writeable
    assert m.outcome_of.tolist() == [0, 0, 1, 2, 2]
    assert [o.name for o in m.outcomes] == ["a", "b", "c"]
    ops = [op for out in m.outcomes for op in out.kraus]
    for k, op in enumerate(ops):
        assert np.shares_memory(op.entries, stack)
        assert op.entries.tobytes() == stack[k].tobytes()
    rebuilt = Measurement.from_kraus_sets([ops[:2], ops[2:3], ops[3:]], ["a", "b", "c"])
    assert rebuilt.kraus_stack.tobytes() == stack.tobytes()


# ---------------------------------------------------------------------------
# kraus_density_vector.

def test_kdv_of_unitary_is_rank_one(rng):
    q, _ = np.linalg.qr(complex_gaussian(rng, (2, 2)))
    k = kraus_density_vector([KrausOperator(q)])
    v = q.reshape(-1)
    assert np.allclose(k.mat, np.outer(v, v.conj()), atol=1e-14)


def test_kdv_of_lumped_projectors_is_diagonal():
    k = kraus_density_vector([
        KrausOperator(np.outer(E0, E0)), KrausOperator(np.outer(E1, E1))
    ])
    assert np.allclose(k.mat, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-14)


def test_kdv_invariant_under_branch_remixing(rng):
    # Kraus sets related by an isometry on the branch index describe the
    # same outcome: their density vectors coincide.
    for d in (2, 3):
        for _ in range(25):
            ops = [random_kraus(rng, d) for _ in range(3)]
            u, _ = np.linalg.qr(complex_gaussian(rng, (3, 3)))
            mixed = [
                KrausOperator(sum(u[i, j] * ops[j].entries for j in range(3)))
                for i in range(3)
            ]
            k1 = kraus_density_vector(ops)
            k2 = kraus_density_vector(mixed)
            assert np.allclose(k1.mat, k2.mat, atol=1e-12)


# ---------------------------------------------------------------------------
# check_completeness / partial_normalization_defect.

def test_projective_pair_is_complete():
    ok, defect = check_completeness(projective_pair())
    assert ok and defect <= 1e-14


def test_half_success_pair_is_complete():
    ok, defect = check_completeness(half_success_pair())
    assert ok and defect <= 1e-12


def test_lone_projector_is_incomplete():
    m = Measurement.detailed([np.outer(E0, E0)])
    ok, defect = check_completeness(m)
    assert not ok
    assert defect == pytest.approx(1.0)


def test_partial_normalization_zero_for_complete_sets():
    assert partial_normalization_defect(projective_pair()) <= 1e-14
    assert partial_normalization_defect(half_success_pair()) <= 1e-12


def test_partial_normalization_tracks_completeness(rng):
    # The two completeness diagnostics agree on every input: both pass
    # or both fail, on complete sets and on damaged ones.
    for _ in range(50):
        d = int(rng.integers(2, 4))
        m = random_complete_measurement(rng, d, n_outcomes=int(rng.integers(2, 5)))
        assert check_completeness(m)[0]
        assert partial_normalization_defect(m) <= COMPLETENESS_ATOL
        damaged = Measurement.detailed(
            [out.kraus[0] for out in m.outcomes[:-1]]
        )
        assert not check_completeness(damaged)[0]
        assert partial_normalization_defect(damaged) > COMPLETENESS_ATOL


# ---------------------------------------------------------------------------
# measurements_equal.

def test_measurement_equals_itself():
    m = half_success_pair()
    assert measurements_equal(m, m)


def test_equality_ignores_global_phase(rng):
    a = random_kraus(rng, 2)
    m1 = Measurement.detailed([a])
    m2 = Measurement.detailed([KrausOperator(np.exp(0.7j) * a.entries)])
    assert measurements_equal(m1, m2)


def test_equality_of_differently_factored_outcomes():
    # {|0><0|, |1><1|} lumped and {I/sqrt2, diag(1,-1)/sqrt2} lumped
    # produce one and the same outcome density vector.
    m1 = Measurement.from_kraus_sets([[np.outer(E0, E0), np.outer(E1, E1)]])
    m2 = Measurement.from_kraus_sets(
        [[np.eye(2) / np.sqrt(2.0), np.diag([1.0, -1.0]) / np.sqrt(2.0)]]
    )
    assert measurements_equal(m1, m2)


def test_distinct_measurements_are_unequal():
    assert not measurements_equal(projective_pair(), half_success_pair())


def test_equality_reads_the_core_allocation_budget(monkeypatch):
    # Two detailed outcomes in dimension 2.
    m1, m2 = projective_pair(), half_success_pair()
    need = 64 * 2 * 2**4 + 32 * 2 * 2**2 + 2**21
    assert _kraus_density_bytes(2, 2, 2) == need
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", need)
    assert not measurements_equal(m1, m2)
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", need - 1)
    with pytest.raises(ValidationError, match="Kraus density vectors of a 2-outcome measurement"):
        measurements_equal(m1, m2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_kraus_density_budget_bounds_every_callers_peak(rng, d):
    # The tomography set's 4 d^4 detailed outcomes, and 3 outcomes of 2 d^2 branches each.
    for m in (build_tomography_set(d).measurement, random_coarse_measurement(rng, d, 3, 2 * d * d)):
        need = _kraus_density_bytes(m.n_outcomes, len(m.kraus_stack), d)
        assert traced_peak(lambda: measurements_equal(m, m)) <= need
        assert traced_peak(lambda: _outcome_images(m)) <= need
        out = m.outcomes[-1]
        assert traced_peak(lambda: kraus_density_vector(out)) <= _kraus_density_bytes(
            1, len(out.kraus), d)


def test_every_kraus_density_caller_reads_the_core_allocation_budget(monkeypatch, rng):
    m = random_coarse_measurement(rng, 2, 3, 4)
    out = m.outcomes[0]
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", _kraus_density_bytes(3, 12, 2))
    _outcome_images(m)
    kraus_density_vector(out)
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", _kraus_density_bytes(3, 12, 2) - 1)
    with pytest.raises(ValidationError, match="Kraus density vectors of a 3-outcome measurement"):
        _outcome_images(m)
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", _kraus_density_bytes(1, 4, 2) - 1)
    with pytest.raises(ValidationError, match="Kraus density vectors of a 1-outcome measurement"):
        kraus_density_vector(out)


def test_overflowing_kraus_density_vectors_fail_typed():
    # Entries past 1e154 square beyond float64: the Gram matrix holds inf,
    # which must not compare as equal or unequal.
    m = Measurement.detailed([1e160 * np.eye(2)])
    with pytest.raises(DegenerateInputError, match="non-finite"):
        kraus_density_vector(m.outcomes[0])
    with pytest.raises(DegenerateInputError, match="non-finite"):
        measurements_equal(m, m)


def test_equality_requires_matching_outcome_count():
    m1 = projective_pair()
    m2 = Measurement.detailed([np.eye(2)])
    with pytest.raises(ValidationError):
        measurements_equal(m1, m2)


# ---------------------------------------------------------------------------
# complete_operator_set.

def test_completion_of_identity_is_trivial():
    res = complete_operator_set([np.eye(4, dtype=complex)])
    assert res.scale == pytest.approx(1.0)
    assert np.allclose(res.remainder, 0.0, atol=1e-12)


def test_completion_halves_doubled_identity():
    res = complete_operator_set([np.eye(4, dtype=complex)] * 2)
    assert res.scale == pytest.approx(0.5)
    assert np.allclose(res.remainder, 0.0, atol=1e-12)


def test_completion_identity_decomposition(rng):
    for _ in range(10):
        ops = []
        for _ in range(2):
            g = complex_gaussian(rng, (4, 4))
            ops.append(g @ g.conj().T)
        res = complete_operator_set(ops)
        total = res.scale * sum(ops)
        assert np.allclose(total + res.remainder, np.eye(4), atol=1e-10)
        assert np.linalg.eigvalsh(res.remainder)[0] >= -1e-10


def test_completed_measurement_is_complete(rng):
    g = complex_gaussian(rng, (4, 4))
    res = complete_operator_set([g @ g.conj().T])
    assert res.completed.is_complete
    assert res.completed.outcomes[res.discard_index].name == "discard"


def test_completion_rejects_all_zero():
    with pytest.raises(DegenerateInputError):
        complete_operator_set([np.zeros((4, 4))])


def test_completion_rejects_non_psd():
    with pytest.raises(NotPositiveError):
        complete_operator_set([np.diag([1.0, -0.2, 0.0, 0.0])])
    with pytest.raises(NotPositiveError, match="operator 1 is not positive semidefinite"):
        complete_operator_set([np.eye(4), np.diag([1e12, -1e3, 0.0, 0.0])])


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_completion_rejects_non_hermitian(scale):
    op = np.diag([1.0, 1.0, 0.0, 0.0]) * scale**2
    op[0, 1] = 0.5 * scale**2
    with pytest.raises(NotHermitianError, match="operator 1 is not Hermitian"):
        complete_operator_set([np.eye(4), op])


def test_completion_accepts_psd_families_at_large_scale(rng):
    # Rank-2 g g^dag with entries near 1e6: rounding leaves eigenvalues
    # near -1e-4 and a Hermiticity defect far above the absolute
    # tolerances, which scale with the largest diagonal entry.
    for d in (2, 3):
        ops = []
        for _ in range(3):
            g = complex_gaussian(rng, (d * d, 2)) * 1e6
            ops.append(g @ g.conj().T)
        res = complete_operator_set(ops)
        assert res.completed.is_complete
        assert np.allclose(res.scale * sum(ops) + res.remainder, np.eye(d * d), atol=1e-10)


def test_kept_outcome_ratios_independent_of_scale(rng):
    # Any admissible subnormalization gives the same renormalized
    # statistics for the kept outcomes; only the discard rate moves.
    ops = []
    for _ in range(3):
        g = complex_gaussian(rng, (4, 4))
        e = g @ g.conj().T
        ops.append(e / np.trace(e).real)
    eta = random_density(rng, 2)
    base = complete_operator_set(ops)
    kept = list(range(len(ops)))

    def kept_profile(result):
        p = prob_coarse(eta, result.completed)
        p = p[kept]
        return p / p.sum()

    reference = kept_profile(base)
    for frac in (0.25, 0.5, 0.9, 1.0):
        res = complete_operator_set(ops, scale=frac * base.scale)
        assert np.allclose(kept_profile(res), reference, atol=1e-12)
