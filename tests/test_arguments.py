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
    complete_operator_set,
    measurement_partial_trace_defect,
    positivity_check,
    povm_to_twotime,
    prob_relative_bipartite,
    pure_product,
    reconstruct,
    state_from_bipartite,
    superpose,
)

STATE = TwoTimeState(np.eye(2))
MEASUREMENT = Measurement.detailed([KrausOperator(np.eye(2))])
RHO = BipartiteDensity(np.eye(4) / 4.0)

#: Calls that raised a raw ValueError or TypeError before the readers.
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

#: Every entry point with a reader, called with ``x`` in the slot it reads.
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
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ENTRY_POINTS)), JUNK)
def test_only_typed_errors_escape_the_readers(entry, junk):
    try:
        ENTRY_POINTS[entry](junk)
    except TwoTimeError:
        pass
