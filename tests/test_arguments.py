"""Library arguments are read by core's readers: a bad array or number fails typed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotime import (
    BipartiteDensity,
    BipartiteOperator,
    DensityVector,
    Ensemble,
    KrausDensityVector,
    KrausOperator,
    Measurement,
    ObserverPolicy,
    TwoTimeError,
    TwoTimeState,
    ValidationError,
    WeakValueVector,
    analytic_success_rate,
    build_tomography_set,
    complete_operator_set,
    density_to_bipartite,
    measurement_partial_trace_defect,
    positivity_check,
    povm_to_twotime,
    predict_probabilities,
    prob_coarse,
    prob_density,
    prob_pure,
    prob_relative_bipartite,
    pure_product,
    reconstruct,
    simulate,
    state_from_bipartite,
    superpose,
    weak_value_pure,
)

STATE = TwoTimeState(np.eye(2))
MEASUREMENT = Measurement.detailed([KrausOperator(np.eye(2))])
RHO = BipartiteDensity(np.eye(4) / 4.0)
ETA = DensityVector(np.eye(4) / 4.0)
TS = build_tomography_set(2)

#: Calls that raised a raw ValueError, TypeError or AttributeError before
#: the readers, or (the complex probabilities) a numpy ComplexWarning.
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

#: Every entry point with a reader, called with ``x`` in the slot it reads:
#: an array, a number, a sequence or a domain object.
ENTRY_POINTS = {
    "TwoTimeState": TwoTimeState,
    "KrausOperator": KrausOperator,
    "DensityVector": DensityVector,
    "BipartiteOperator": BipartiteOperator,
    "WeakValueVector": WeakValueVector,
    "positivity_check": positivity_check,
    "pure_product": lambda x: pure_product(x, [1, 0]),
    "state_from_bipartite": state_from_bipartite,
    "superpose": lambda x: superpose([(x, STATE)]),
    "Ensemble": lambda x: Ensemble([(x, STATE)]),
    "ObserverPolicy": lambda x: ObserverPolicy((MEASUREMENT,), (x,)),
    "complete_operator_set": lambda x: complete_operator_set([x]),
    "complete_operator_set-scale": lambda x: complete_operator_set(ARRAYS, scale=x),
    "povm_to_twotime": lambda x: povm_to_twotime([x]),
    "measurement_partial_trace_defect": lambda x: measurement_partial_trace_defect([x]),
    "prob_relative_bipartite-rho": lambda x: prob_relative_bipartite(x, ARRAYS),
    "prob_relative_bipartite-ops": lambda x: prob_relative_bipartite(RHO, [x]),
    "reconstruct": lambda x: reconstruct(x, 1),
    "reconstruct-clip_tol": lambda x: reconstruct([0.5, 0.0, 0.25, 0.25], 1, clip_tol=x),
    "prob_pure": lambda x: prob_pure(x, MEASUREMENT),
    "prob_density": lambda x: prob_density(x, MEASUREMENT),
    "prob_coarse": lambda x: prob_coarse(ETA, x),
    "simulate": simulate,
    "analytic_success_rate": lambda x: analytic_success_rate(x, MEASUREMENT),
    "weak_value_pure": lambda x: weak_value_pure(x, STATE),
    "density_to_bipartite": density_to_bipartite,
    "predict_probabilities": lambda x: predict_probabilities(x, TS),
    "Ensemble-member": lambda x: Ensemble([x]),
    "complete_operator_set-ops": complete_operator_set,
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ENTRY_POINTS)), JUNK)
def test_only_typed_errors_escape_the_readers(entry, junk):
    try:
        ENTRY_POINTS[entry](junk)
    except TwoTimeError:
        pass
