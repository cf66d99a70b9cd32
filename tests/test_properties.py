"""Property-based checks over machine-generated inputs."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import complex_gaussian, random_hermitian, random_weights
from twotime import (
    DENOMINATOR_EPS,
    PSD_ATOL,
    DensityVector,
    Ensemble,
    KrausOperator,
    MalformedDataError,
    Measurement,
    NoEquivalentStateError,
    PostSelectionImpossibleError,
    TwoTimeState,
    UndefinedWeakValueError,
    check_completeness,
    contract_pure,
    density_from_ensemble,
    kraus_density_vector,
    pairing_equality_check,
    sandwich,
    weak_equivalent_pure,
    weak_value_ensemble,
    weak_value_vector,
    prob_coarse,
    prob_density,
    prob_ensemble,
    prob_pure,
    predict_probabilities,
    build_tomography_set,
    measurements_equal,
    povm_to_twotime,
    reconstruct,
    unvec,
    vec,
)
from twotime.bipartite import _outcome_images
from twotime.core import _EIG_CUTOFF
from twotime.measurements import _kraus_density_stack
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


@st.composite
def tomography_below_the_cone(draw):
    """d in {2, 3}, a gate ``clip_tol``, and probabilities whose raw inversion is a
    Hermitian trace-1 ``mat`` with one eigenvalue -t, t = ratio * clip_tol.

    The eigenvector u has |u_k| = 1/d, so no tomography operator (at most
    two nonzero entries) lies near it, and the rest of the spectrum, at
    least 1 / tr(psd) (about 1/9 at d = 2, 1/24 at d = 3), keeps every
    probability >= 0 for these t <= 0.01.
    """
    d = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clip_tol = draw(st.sampled_from([1e-8, 1e-6, 1e-4, 1e-3]))
    t = clip_tol * draw(st.sampled_from([0.0, 0.3, 0.9, 0.99, 1.01, 1.1, 3.0, 10.0]))
    n = d * d
    u = np.exp(2j * np.pi * rng.random(n)) / d
    off = np.eye(n) - np.outer(u, u.conj())
    g = complex_gaussian(rng, (n, n))
    psd = off @ (np.eye(n) + g @ g.conj().T / n) @ off
    mat = (1.0 + t) * psd / np.trace(psd).real - t * np.outer(u, u.conj())
    eta = DensityVector._from_psd(mat)  # stored without the positivity check it fails
    return d, clip_tol, t, eta.mat, predict_probabilities(eta, build_tomography_set(d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tomography_below_the_cone())
def test_the_positivity_gate_clips_below_clip_tol_and_rejects_above(case):
    # Near the gate: a raw inversion at -t within clip_tol is clipped to the
    # density psd / tr(psd), which differs from it by t (u u^dag - psd / tr),
    # of norm at most sqrt(2) t; beyond clip_tol the data is malformed.
    d, clip_tol, t, mat, probs = case
    assert probs.min() >= 0.0
    if t < clip_tol:
        rec = reconstruct(probs, d, clip_tol=clip_tol)
        assert np.linalg.norm(rec.mat - mat) <= np.sqrt(2.0) * t + 1e-12
    else:
        with pytest.raises(MalformedDataError, match="not positive"):
            reconstruct(probs, d, clip_tol=clip_tol)


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


# ---------------------------------------------------------------------------
# Two-time pairing = bipartite Born rule, and weak-value vector = partial
# contraction, over random and near-degenerate inputs.

@st.composite
def density_and_kraus_family(draw):
    """A density vector of any rank and a Kraus family of 1 to d^2 + 1
    operators (so of any rank, possibly with a zero operator) at d <= 4."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = complex_gaussian(rng, (d * d, draw(st.integers(1, d * d))))
    mat = g @ g.conj().T
    eta = DensityVector(mat / np.trace(mat).real)
    ops = complex_gaussian(rng, (draw(st.integers(1, d * d + 1)), d, d))
    ops *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        ops[-1] = 0.0
    return eta, [KrausOperator(a) for a in ops]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(density_and_kraus_family())
def test_two_time_pairing_equals_the_bipartite_born_rule(case):
    eta, ops = case
    kdv = kraus_density_vector(ops)
    two_time, born, defect = pairing_equality_check(kdv, eta)
    scale = max(1.0, float(np.trace(kdv.mat).real))
    assert defect == abs(two_time - born) <= 1e-12 * scale
    assert abs(two_time - sum(sandwich(op, eta) for op in ops)) <= 1e-12 * scale


@st.composite
def ensemble_near_traceless(draw):
    """An ensemble at d <= 4 whose members are random, or traceless up to
    a trace of 0 to 1e-6, so that the identity contraction of its density
    vector, sum_r p_r |tr alpha_r|^2, sits at or near DENOMINATOR_EPS."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trace = draw(st.sampled_from([None, 0.0, 1e-8, 5e-8, 1e-7, 2e-7, 1e-6]))
    members = []
    for w in random_weights(rng, draw(st.integers(1, 4))):
        coeffs = complex_gaussian(rng, (d, d))
        if trace is not None and d > 1:
            coeffs /= np.linalg.norm(coeffs)
            coeffs += (trace * np.exp(2j * np.pi * rng.random()) - np.trace(coeffs)) / d * np.eye(d)
        members.append((w, TwoTimeState(coeffs)))
    return Ensemble(tuple(members)), random_hermitian(rng, d)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ensemble_near_traceless())
def test_weak_value_vector_equals_the_partial_contraction(case):
    ens, obs = case
    eta = density_from_ensemble(ens)
    traces = np.einsum("rii->r", ens.coeff_stack)
    ref = np.einsum("r,r,rij->ij", ens.weights, traces.conj(), ens.coeff_stack)
    wvv = weak_value_vector(eta)
    assert np.max(np.abs(wvv.coeffs - ref)) <= 1e-12
    den = float(ens.weights @ np.abs(traces) ** 2)
    try:
        value = weak_value_ensemble(KrausOperator(obs), eta)
    except UndefinedWeakValueError:
        assert den <= 2 * DENOMINATOR_EPS
    else:
        assert np.isfinite(value) and den >= DENOMINATOR_EPS / 2
        expected = np.sum(obs * ref) / den
        assert abs(value - expected) <= 1e-12 * (1.0 + abs(expected)) / den
    try:
        state = weak_equivalent_pure(eta)
    except NoEquivalentStateError:
        assert np.linalg.norm(ref) <= 2 * DENOMINATOR_EPS
    else:
        assert np.isfinite(state.coeffs.view(np.float64)).all()
        assert np.max(np.abs(state.coeffs - ref / np.linalg.norm(ref))) <= 1e-12 / np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# The abstract's last two claims, read off the stacked Kraus density
# vectors: the tomography is out of reach of weak and projective
# measurements, and general two-time measurements and bipartite POVMs
# are isomorphic.

def hermitian_coordinates(stack):
    """The (n, D^2) real coordinates of n Hermitian D x D matrices: the real
    parts of the upper triangle and the imaginary parts of the strict one."""
    upper, strict = np.triu_indices(stack.shape[-1]), np.triu_indices(stack.shape[-1], 1)
    return np.concatenate([stack.real[:, upper[0], upper[1]], stack.imag[:, strict[0], strict[1]]],
                          axis=1)


def kraus_density_rank(m):
    """The real rank of ``m``'s Kraus density vectors."""
    return np.linalg.matrix_rank(hermitian_coordinates(_kraus_density_stack(m.kraus_stack,
                                                                            m.outcome_of)))


def hermitian_family(d, kind, eps, rng):
    """d, kind and d^2 (d^2 + 1) / 2 + 3 Hermitian Kraus operators: random,
    weak (I + eps H), or projectors of random rank."""
    ops = []
    for _ in range(d * d * (d * d + 1) // 2 + 3):
        h = random_hermitian(rng, d)
        if kind == "weak":
            h = np.eye(d) + eps * h
        elif kind == "projector":
            q, _ = np.linalg.qr(complex_gaussian(rng, (d, d)))
            cols = q[:, :rng.integers(1, d + 1)]
            h = cols @ cols.conj().T
        ops.append(h)
    return d, kind, ops


@st.composite
def hermitian_kraus_family(draw):
    """A ``hermitian_family`` at d <= 3."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "weak", "projector"]))
    eps = draw(st.sampled_from([1e-3, 1e-1, 0.5]))
    return hermitian_family(d, kind, eps, rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hermitian_kraus_family())
@example(hermitian_family(4, "random", 0.5, np.random.default_rng(41)))
@example(hermitian_family(4, "weak", 1e-3, np.random.default_rng(42)))
@example(hermitian_family(4, "weak", 0.5, np.random.default_rng(43)))
@example(hermitian_family(4, "projector", 0.5, np.random.default_rng(44)))
def test_hermitian_kraus_families_reach_only_the_symmetric_subspace(case):
    # vec(A) of a Hermitian A is fixed by swapping its indices and
    # conjugating, so vec(A) vec(A)^dag lies in a subspace of real
    # dimension d^2 (d^2 + 1) / 2 out of the d^4 that tomography needs.
    d, kind, ops = case
    bound = d * d * (d * d + 1) // 2
    rank = kraus_density_rank(Measurement.detailed(ops))
    assert rank <= bound
    if kind != "projector":  # generic families reach the whole subspace
        assert rank == bound


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tomography_kraus_density_vectors_reach_every_direction(d):
    assert kraus_density_rank(build_tomography_set(d).measurement) == d ** 4


@st.composite
def bipartite_povm(draw):
    """d <= 3 and a POVM on the doubled space: n positive operators summing
    to the identity, all but the last with a drawn number of eigenvalues
    scaled to 0 or near the Kraus realization cutoff."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([1.0, 0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-9]))
    n = draw(st.integers(1, 5))
    parts = []
    for i in range(n):
        g = complex_gaussian(rng, (d * d, d * d))
        s = np.ones(d * d)
        if i < n - 1:
            s[:draw(st.integers(0, d * d))] = eps
        parts.append((g * s) @ g.conj().T)
    lam, w = np.linalg.eigh(sum(parts))
    root = (w / np.sqrt(lam)) @ w.conj().T  # (sum of parts)^(-1/2)
    povm = [root @ f @ root for f in parts]
    return d, [(e + e.conj().T) / 2.0 for e in povm]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bipartite_povm())
def test_bipartite_povms_round_trip_through_two_time_measurements(case):
    d, povm = case
    res = povm_to_twotime(povm)
    images = d * _outcome_images(res.measurement)
    # Only eigenvalues below the realization cutoff, d * _EIG_CUTOFF after
    # rescaling, are lost on the way.
    assert np.max(np.abs(images - np.stack(povm))) <= d * _EIG_CUTOFF + 1e-13
    assert measurements_equal(res.measurement, povm_to_twotime(list(images)).measurement)
