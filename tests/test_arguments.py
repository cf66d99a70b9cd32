"""Library arguments are read by core's readers: a bad array or number fails typed."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twotime
from twotime import (
    BipartiteDensity,
    BipartiteOperator,
    CompletionResult,
    DensityVector,
    DiscardDemo,
    Ensemble,
    KrausDensityVector,
    KrausOperator,
    Measurement,
    MeasurementOutcome,
    ObserverPolicy,
    PovmPullback,
    ReversalReport,
    SimConfig,
    SimResult,
    TomographySet,
    TwoTimeError,
    TwoTimeState,
    ValidationError,
    WeakValueVector,
    analytic_success_rate,
    bipartite_to_density,
    build_tomography_set,
    check_completeness,
    complete_operator_set,
    contract_pure,
    density_from_ensemble,
    density_to_bipartite,
    ensemble_from_density,
    errors,
    hermiticity_defect,
    identity_two_time_vector,
    kdv_to_bipartite,
    kraus_density_vector,
    kraus_to_bipartite_vector,
    measurement_partial_trace_defect,
    measurements_equal,
    pair,
    pairing_equality_check,
    parse_document,
    partial_normalization_defect,
    positivity_check,
    povm_to_twotime,
    predict_probabilities,
    prob_coarse,
    prob_density,
    prob_ensemble,
    prob_pure,
    prob_relative_bipartite,
    pure_product,
    reconstruct,
    reversal_scenario,
    sampling_clip_tol,
    sandwich,
    serialize_document,
    simulate,
    simulate_proportion_reversal,
    state_from_bipartite,
    state_to_bipartite,
    superpose,
    unvec,
    vec,
    weak_equivalent_pure,
    weak_value_ensemble,
    weak_value_pure,
    weak_value_vector,
)

STATE = TwoTimeState(np.eye(2))
MEASUREMENT = Measurement.detailed([KrausOperator(np.eye(2))])
RHO = BipartiteDensity(np.eye(4) / 4.0)
ETA = DensityVector(np.eye(4) / 4.0)
TS = build_tomography_set(2)
ENSEMBLE = Ensemble.pure(STATE)
POLICY = ObserverPolicy.fixed(MEASUREMENT)

#: Calls that raised a raw ValueError, TypeError, AttributeError or
#: OverflowError before the readers, or a numpy ComplexWarning or
#: RuntimeWarning, which the test suite turns into errors.
BAD_CALLS = {
    "TwoTimeState-string": lambda: TwoTimeState("x"),
    "TwoTimeState-ragged": lambda: TwoTimeState([[1, 2], [3]]),
    "BipartiteOperator-string": lambda: BipartiteOperator("x"),
    "KrausOperator-object-entry": lambda: KrausOperator([[object(), 1], [1, 1]]),
    "pure_product-string": lambda: pure_product("ab", [1, 0]),
    "superpose-string-coefficient": lambda: superpose([("x", STATE)]),
    "positivity_check-string": lambda: positivity_check("x"),
    "WeakValueVector-string": lambda: WeakValueVector("x"),
    "state_from_bipartite-strings": lambda: state_from_bipartite(["a", "b", "c", "d"]),
    "Ensemble-string-weight": lambda: Ensemble([("x", STATE)]),
    "Ensemble-None-weight": lambda: Ensemble([(None, STATE)]),
    "ObserverPolicy-string-probability": lambda: ObserverPolicy((MEASUREMENT,), ("x",)),
    "complete_operator_set-string": lambda: complete_operator_set(["x"]),
    "complete_operator_set-string-scale": lambda: complete_operator_set([np.eye(4)], scale="x"),
    "povm_to_twotime-string": lambda: povm_to_twotime(["x"]),
    "reconstruct-string": lambda: reconstruct("x", 1),
    "reconstruct-ragged": lambda: reconstruct([[1], [1, 2]], 1),
    "reconstruct-complex": lambda: reconstruct(predict_probabilities(ETA, TS) + 0.3j, 2),
    "prob_pure-string-state": lambda: prob_pure("x", MEASUREMENT),
    "prob_density-None-eta": lambda: prob_density(None, MEASUREMENT),
    "prob_coarse-string-measurement": lambda: prob_coarse(ETA, "m"),
    "simulate-None": lambda: simulate(None),
    "analytic_success_rate-None-ensemble": lambda: analytic_success_rate(None, MEASUREMENT),
    "weak_value_pure-None": lambda: weak_value_pure(None, None),
    "density_to_bipartite-None": lambda: density_to_bipartite(None),
    "predict_probabilities-None": lambda: predict_probabilities(None, TS),
    "Ensemble-int-member": lambda: Ensemble([1]),
    "complete_operator_set-None": lambda: complete_operator_set(None),
    "Measurement.detailed-None": lambda: Measurement.detailed(None),
    "DensityVector.from_pure-None": lambda: DensityVector.from_pure(None),
    "analytic_success_rate-mixed-dims": lambda: analytic_success_rate(
        Ensemble([(1.0, TwoTimeState(np.eye(3)))]), MEASUREMENT),
    "vec-ragged": lambda: vec([[1], [1, 2]]),
    "unvec-ragged": lambda: unvec([[1], [1, 2]]),
    "hermiticity_defect-row": lambda: hermiticity_defect([[1, 2]]),
    "pure_product-inf": lambda: pure_product([np.inf, 0.0], [1, 0]),
    "superpose-inf-coefficient": lambda: superpose([(np.inf, STATE)]),
    "sampling_clip_tol-huge-successes": lambda: sampling_clip_tol(2, 2**1024),
    "identity_two_time_vector-huge": lambda: identity_two_time_vector(2**1024),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_unreadable_arguments_fail_typed(call):
    with pytest.raises(ValidationError):
        call()


def test_a_non_finite_weak_value_vector_is_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        WeakValueVector([[np.nan]])


#: A bipartite POVM {E, I - E} as arrays and as positive-matrix objects.
#: Before the readers, measurement_partial_trace_defect and
#: prob_relative_bipartite raised a TypeError on the Kraus density vector.
EFFECT = np.diag([0.25, 0.5, 0.75, 1.0]).astype(complex)
ARRAYS = [EFFECT, np.eye(4) - EFFECT]
OBJECTS = [KrausDensityVector(EFFECT), BipartiteOperator(np.eye(4) - EFFECT)]

#: Each operator-family function, reduced to one array of its result.
FAMILIES = {
    "complete_operator_set": lambda ops: complete_operator_set(ops).completed.kraus_stack,
    "povm_to_twotime": lambda ops: povm_to_twotime(ops).measurement.kraus_stack,
    "measurement_partial_trace_defect": lambda ops: np.array(measurement_partial_trace_defect(ops)),
    "prob_relative_bipartite": lambda ops: prob_relative_bipartite(RHO, ops),
}


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_operator_families_read_positive_matrix_objects_as_their_matrix(family):
    assert family(OBJECTS).tobytes() == family(ARRAYS).tobytes()


def test_prob_relative_bipartite_reads_rho_as_an_operator_is_read():
    eta = DensityVector(RHO.rho)
    assert np.array_equal(prob_relative_bipartite(eta, ARRAYS), prob_relative_bipartite(RHO, ARRAYS))


#: Arguments numpy or float() cannot read, or reads as the wrong shape:
#: strings, None, bools, integers too large for a float, and ragged or
#: nested lists of them and of small numbers.
JUNK = st.recursive(
    st.one_of(st.text(max_size=3), st.none(), st.booleans(), st.integers(-2, 2),
              st.integers(min_value=2**1024, max_value=2**1100), st.floats(width=16)),
    lambda children: st.lists(children, max_size=3),
    max_leaves=8,
)

#: Every public callable, called with ``x`` in each slot it reads: an
#: array, a number, a sequence or a domain object.  Result dataclasses and
#: error classes read nothing, so they take ``x`` in every field and return.
ENTRY_POINTS = {
    "TwoTimeState": TwoTimeState,
    "KrausOperator": KrausOperator,
    "DensityVector": DensityVector,
    "KrausDensityVector": KrausDensityVector,
    "identity_two_time_vector": identity_two_time_vector,
    "vec": vec,
    "unvec": unvec,
    "hermiticity_defect": hermiticity_defect,
    "contract_pure-op": lambda x: contract_pure(x, STATE),
    "contract_pure-state": lambda x: contract_pure(KrausOperator(np.eye(2)), x),
    "sandwich-op": lambda x: sandwich(x, ETA),
    "sandwich-eta": lambda x: sandwich(KrausOperator(np.eye(2)), x),
    "pair-kdv": lambda x: pair(x, ETA),
    "pair-eta": lambda x: pair(KrausDensityVector(np.eye(4)), x),
    "Ensemble": lambda x: Ensemble([(x, STATE)]),
    "Ensemble-member": lambda x: Ensemble([x]),
    "pure_product": lambda x: pure_product(x, [1, 0]),
    "superpose": lambda x: superpose([(x, STATE)]),
    "density_from_ensemble": density_from_ensemble,
    "ensemble_from_density": ensemble_from_density,
    "positivity_check": positivity_check,
    "MeasurementOutcome": MeasurementOutcome,
    "MeasurementOutcome-name": lambda x: MeasurementOutcome([np.eye(2)], x),
    "Measurement": Measurement,
    "kraus_density_vector": kraus_density_vector,
    "check_completeness": check_completeness,
    "partial_normalization_defect": partial_normalization_defect,
    "measurements_equal": lambda x: measurements_equal(x, MEASUREMENT),
    "complete_operator_set": lambda x: complete_operator_set([x]),
    "complete_operator_set-scale": lambda x: complete_operator_set(ARRAYS, scale=x),
    "complete_operator_set-ops": complete_operator_set,
    "prob_pure": lambda x: prob_pure(x, MEASUREMENT),
    "prob_ensemble": lambda x: prob_ensemble(ENSEMBLE, x),
    "prob_density": lambda x: prob_density(x, MEASUREMENT),
    "prob_coarse": lambda x: prob_coarse(ETA, x),
    "prob_relative_bipartite-rho": lambda x: prob_relative_bipartite(x, ARRAYS),
    "prob_relative_bipartite-ops": lambda x: prob_relative_bipartite(RHO, [x]),
    "TomographySet": TomographySet,
    "build_tomography_set": build_tomography_set,
    "predict_probabilities": lambda x: predict_probabilities(x, TS),
    "reconstruct": lambda x: reconstruct(x, 1),
    "reconstruct-dim": lambda x: reconstruct([0.5, 0.0, 0.25, 0.25], x),
    "reconstruct-clip_tol": lambda x: reconstruct([0.5, 0.0, 0.25, 0.25], 1, clip_tol=x),
    "sampling_clip_tol-dim": lambda x: sampling_clip_tol(x, 100),
    "sampling_clip_tol-successes": lambda x: sampling_clip_tol(2, x),
    "WeakValueVector": WeakValueVector,
    "weak_value_pure": lambda x: weak_value_pure(x, STATE),
    "weak_value_vector": weak_value_vector,
    "weak_value_ensemble": lambda x: weak_value_ensemble(KrausOperator(np.eye(2)), x),
    "weak_equivalent_pure": weak_equivalent_pure,
    "BipartiteDensity": BipartiteDensity,
    "BipartiteOperator": BipartiteOperator,
    "state_to_bipartite": state_to_bipartite,
    "state_from_bipartite": state_from_bipartite,
    "density_to_bipartite": density_to_bipartite,
    "bipartite_to_density": bipartite_to_density,
    "kraus_to_bipartite_vector": kraus_to_bipartite_vector,
    "kdv_to_bipartite": kdv_to_bipartite,
    "pairing_equality_check": lambda x: pairing_equality_check(x, ETA),
    "measurement_partial_trace_defect": lambda x: measurement_partial_trace_defect([x]),
    "povm_to_twotime": lambda x: povm_to_twotime([x]),
    "ObserverPolicy": lambda x: ObserverPolicy((MEASUREMENT,), (x,)),
    "SimConfig": lambda x: SimConfig(x, POLICY, 1, 0),
    "SimConfig-shots": lambda x: SimConfig(ENSEMBLE, POLICY, x, 0),
    "SimConfig-seed": lambda x: SimConfig(ENSEMBLE, POLICY, 1, x),
    "simulate": simulate,
    "simulate_proportion_reversal": lambda x: simulate_proportion_reversal(shots=1, seed=x),
    "reversal_scenario": lambda x: reversal_scenario(),
    "analytic_success_rate": lambda x: analytic_success_rate(x, MEASUREMENT),
    "parse_document": parse_document,
    "serialize_document": serialize_document,
    **{cls.__name__: lambda x, cls=cls: cls(*[x] * len(dataclasses.fields(cls)))
       for cls in (CompletionResult, PovmPullback, SimResult, DiscardDemo, ReversalReport)},
    **{name: getattr(errors, name) for name in errors.__all__},
}


def test_every_public_callable_has_an_entry_point():
    public = {name for name in twotime.__all__ if callable(getattr(twotime, name))}
    assert public - {key.partition("-")[0] for key in ENTRY_POINTS} == set()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ENTRY_POINTS)), JUNK)
def test_only_typed_errors_escape_the_readers(entry, junk):
    try:
        ENTRY_POINTS[entry](junk)
    except TwoTimeError:
        pass


#: One fixed row of edge values: no integer between 2 and 2**63, so that no
#: call allocates by its argument.
EDGES = (math.nan, math.inf, -math.inf, -1, 0, 2**63, 2**1024, 1e308, 1e-300, 5e-324, -0.0, True,
         "x", None, [1, [2]], 1j, object())


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_only_typed_errors_escape_on_edge_values(entry):
    for value in EDGES:
        try:
            ENTRY_POINTS[entry](value)
        except TwoTimeError:
            pass
