"""Property-based checks over machine-generated inputs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import complex_gaussian, random_weights
from twotime import (
    PSD_ATOL,
    Ensemble,
    KrausOperator,
    Measurement,
    PostSelectionImpossibleError,
    TwoTimeState,
    check_completeness,
    contract_pure,
    density_from_ensemble,
    prob_coarse,
    prob_density,
    prob_ensemble,
    prob_pure,
    predict_probabilities,
    build_tomography_set,
    reconstruct,
    unvec,
    vec,
)
from twotime.probability import _contraction_weights, _numerators

DIM = 2

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def square(draw_shape=(DIM, DIM)):
    return arrays(np.float64, draw_shape, elements=finite)


def to_state(re, im):
    coeffs = re + 1j * im
    assume(np.linalg.norm(coeffs) > 1e-3)
    return TwoTimeState(coeffs)


def complete_measurement_from(re, im):
    # Orthonormal rows of a unitary always split the identity into
    # rank-1 Kraus operators.
    raw = re + 1j * im
    assume(abs(np.linalg.det(raw)) > 1e-3)
    q, _ = np.linalg.qr(raw)
    return Measurement.detailed([np.outer(q[:, k], q[:, k].conj()) for k in range(DIM)])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(re=square(), im=square(), a_re=square(), a_im=square(), b_re=square(), b_im=square())
def test_contraction_is_bilinear(re, im, a_re, a_im, b_re, b_im):
    state = to_state(re, im)
    a = a_re + 1j * a_im
    b = b_re + 1j * b_im
    lhs = contract_pure(KrausOperator(2.0 * a - 3.0 * b), state)
    rhs = 2.0 * contract_pure(KrausOperator(a), state) - 3.0 * contract_pure(
        KrausOperator(b), state
    )
    assert abs(lhs - rhs) <= 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(re=square(), im=square())
def test_vec_unvec_round_trip(re, im):
    mat = re + 1j * im
    assert np.array_equal(unvec(vec(mat)), mat)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(re=square(), im=square(), m_re=square(), m_im=square())
def test_pure_rule_returns_a_distribution(re, im, m_re, m_im):
    state = to_state(re, im)
    m = complete_measurement_from(m_re, m_im)
    try:
        probs = prob_pure(state, m)
    except PostSelectionImpossibleError:
        # Exactly impossible post-selection is a typed domain error for
        # special inputs, not a property failure.
        return
    assert np.all(probs >= 0.0)
    assert abs(float(probs.sum()) - 1.0) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    re1=square(), im1=square(), re2=square(), im2=square(),
    w=st.floats(min_value=0.05, max_value=0.95),
)
def test_tomography_round_trip_property(re1, im1, re2, im2, w):
    ens = Ensemble((
        (w, to_state(re1, im1)),
        (1.0 - w, to_state(re2, im2)),
    ))
    eta = density_from_ensemble(ens)
    ts = build_tomography_set(DIM)
    rec = reconstruct(predict_probabilities(eta, ts), DIM)
    assert np.linalg.norm(rec.mat - eta.mat) <= 1e-9
    assert np.max(np.abs(prob_density(rec, ts.measurement) - prob_density(eta, ts.measurement))) <= 1e-9


# ---------------------------------------------------------------------------
# The paper's identities over the stacked-Kraus kernels, with the old
# per-outcome loops kept here as references.

def loop_contraction_weights(m, coeffs):
    """Reference: ``|A . alpha|^2`` branch by branch and state by state."""
    return np.array([
        [abs(np.sum(op.entries * c)) ** 2 for out in m.outcomes for op in out.kraus]
        for c in coeffs
    ])


def loop_numerators(mat, m):
    """Reference: each outcome's Kraus density vector, summed branch by
    branch and symmetrized, paired with ``mat`` and clamped."""
    weights = []
    for out in m.outcomes:
        kmat = sum(np.outer(v, v.conj()) for v in (op.entries.reshape(-1) for op in out.kraus))
        kmat = (kmat + kmat.conj().T) / 2.0
        val = float(np.sum(kmat * mat).real)
        if val < 0.0 and val >= -PSD_ATOL * max(1.0, float(np.trace(kmat).real)):
            val = 0.0
        weights.append(val)
    return np.array(weights)


def loop_completeness_defect(m):
    acc = sum(op.entries.conj().T @ op.entries for out in m.outcomes for op in out.kraus)
    return float(np.max(np.abs(acc - np.eye(m.dim))))


def assert_close_relative(new, ref, rtol):
    assert np.max(np.abs(new - ref)) <= rtol * max(np.max(np.abs(ref)), np.finfo(float).tiny)


@st.composite
def ensemble_and_measurement(draw):
    """An ensemble of random or rank-one (product) states and a complete
    measurement at d <= 4: random detailed, detailed with an exactly-zero
    outcome, coarse with an exactly-zero Kraus branch, or the d = 2
    tomography set."""
    kind = draw(st.sampled_from(["detailed", "zero_outcome", "coarse_zero", "tomography"]))
    d = 2 if kind == "tomography" else draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank_one = draw(st.booleans())
    members = []
    for w in random_weights(rng, draw(st.integers(1, 4))):
        if rank_one:
            coeffs = np.outer(complex_gaussian(rng, d), complex_gaussian(rng, d))
        else:
            coeffs = complex_gaussian(rng, (d, d))
        members.append((w, TwoTimeState(coeffs)))
    if kind == "tomography":
        return Ensemble(tuple(members)), build_tomography_set(2).measurement
    n = draw(st.integers(1, 4))
    q, _ = np.linalg.qr(complex_gaussian(rng, (n * d, d)))
    ops = list(q.reshape(n, d, d))
    zero = np.zeros((d, d))
    if kind == "coarse_zero":
        m = Measurement.from_kraus_sets([[ops[0], zero]] + [[op] for op in ops[1:]])
    else:
        m = Measurement.detailed(ops + [zero] if kind == "zero_outcome" else ops)
    return Ensemble(tuple(members)), m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ensemble_and_measurement())
def test_rules_agree_over_the_shared_kernels(case):
    ens, m = case
    eta = density_from_ensemble(ens)
    coeffs = np.stack([s.coeffs for s in ens.states])
    assert_close_relative(_contraction_weights(m, coeffs), loop_contraction_weights(m, coeffs),
                          1e-14)
    assert_close_relative(_numerators(eta.mat, m), loop_numerators(eta.mat, m), 1e-14)
    assert abs(check_completeness(m)[1] - loop_completeness_defect(m)) <= 1e-14
    try:
        coarse = prob_coarse(eta, m)
    except PostSelectionImpossibleError:
        return
    if m.is_detailed:
        assert np.array_equal(coarse, prob_density(eta, m))
        assert np.max(np.abs(prob_ensemble(ens, m) - prob_density(eta, m))) <= 1e-12
