"""Pre- and post-selected quantum states as first-class objects.

A two-time state pairs a preparation (at the earlier time) with a
post-selection (at the later time) in a single tensor, so that
ensembles, measurements, probabilities, weak values, tomography, and a
Monte Carlo realization of the physical selection protocol all operate
on one coherent set of types.  See the module docstrings for the
conventions (row = post-selection, column = preparation; bilinear
pairing without conjugation; row-major vectorization).
"""

from .bipartite import (
    BipartiteDensity,
    BipartiteOperator,
    PovmPullback,
    bipartite_to_density,
    density_to_bipartite,
    kdv_to_bipartite,
    kraus_to_bipartite_vector,
    measurement_partial_trace_defect,
    pairing_equality_check,
    povm_to_twotime,
    state_from_bipartite,
    state_to_bipartite,
)
from .core import (
    ATOL,
    PSD_ATOL,
    DensityVector,
    KrausDensityVector,
    KrausOperator,
    TwoTimeState,
    contract_pure,
    hermiticity_defect,
    identity_two_time_vector,
    pair,
    sandwich,
    unvec,
    vec,
)
from .errors import (
    AllDiscardedError,
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    IncompleteMeasurementError,
    MalformedDataError,
    NoEquivalentStateError,
    NormalizationError,
    NotDetailedError,
    NotHermitianError,
    NotPositiveError,
    PostSelectionImpossibleError,
    SchemaError,
    TwoTimeError,
    UndefinedWeakValueError,
    ValidationError,
)
from .io import FORMAT_VERSION, KINDS, parse_document, serialize_document
from .measurements import (
    COMPLETENESS_ATOL,
    CompletionResult,
    Measurement,
    MeasurementOutcome,
    check_completeness,
    complete_operator_set,
    kraus_density_vector,
    measurements_equal,
    partial_normalization_defect,
)
from .montecarlo import (
    CHUNK,
    DiscardDemo,
    ObserverPolicy,
    ReversalReport,
    SimConfig,
    SimResult,
    analytic_success_rate,
    reversal_scenario,
    simulate,
    simulate_proportion_reversal,
)
from .probability import (
    DENOMINATOR_EPS,
    prob_coarse,
    prob_density,
    prob_ensemble,
    prob_pure,
    prob_relative_bipartite,
)
from .states import (
    Ensemble,
    density_from_ensemble,
    ensemble_from_density,
    positivity_check,
    pure_product,
    superpose,
)
from .tomography import (
    MAX_DENSE_BYTES,
    PSD_CLIP_TOL,
    VARIANTS,
    TomographySet,
    build_tomography_set,
    predict_probabilities,
    reconstruct,
    sampling_clip_tol,
)
from .weak_values import (
    WeakValueVector,
    weak_equivalent_pure,
    weak_value_ensemble,
    weak_value_pure,
    weak_value_vector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ATOL",
    "PSD_ATOL",
    "TwoTimeState",
    "KrausOperator",
    "DensityVector",
    "KrausDensityVector",
    "identity_two_time_vector",
    "vec",
    "unvec",
    "contract_pure",
    "sandwich",
    "pair",
    "hermiticity_defect",
    # states
    "Ensemble",
    "pure_product",
    "superpose",
    "density_from_ensemble",
    "ensemble_from_density",
    "positivity_check",
    # measurements
    "COMPLETENESS_ATOL",
    "MeasurementOutcome",
    "Measurement",
    "CompletionResult",
    "kraus_density_vector",
    "check_completeness",
    "partial_normalization_defect",
    "measurements_equal",
    "complete_operator_set",
    # probability
    "DENOMINATOR_EPS",
    "prob_pure",
    "prob_ensemble",
    "prob_density",
    "prob_coarse",
    "prob_relative_bipartite",
    # tomography
    "VARIANTS",
    "PSD_CLIP_TOL",
    "MAX_DENSE_BYTES",
    "TomographySet",
    "build_tomography_set",
    "predict_probabilities",
    "reconstruct",
    "sampling_clip_tol",
    # weak values
    "WeakValueVector",
    "weak_value_pure",
    "weak_value_vector",
    "weak_value_ensemble",
    "weak_equivalent_pure",
    # bipartite
    "BipartiteDensity",
    "BipartiteOperator",
    "PovmPullback",
    "state_to_bipartite",
    "state_from_bipartite",
    "density_to_bipartite",
    "bipartite_to_density",
    "kraus_to_bipartite_vector",
    "kdv_to_bipartite",
    "pairing_equality_check",
    "measurement_partial_trace_defect",
    "povm_to_twotime",
    # monte carlo
    "CHUNK",
    "ObserverPolicy",
    "SimConfig",
    "SimResult",
    "DiscardDemo",
    "ReversalReport",
    "simulate",
    "simulate_proportion_reversal",
    "reversal_scenario",
    "analytic_success_rate",
    # io
    "FORMAT_VERSION",
    "KINDS",
    "parse_document",
    "serialize_document",
    # errors
    "TwoTimeError",
    "ValidationError",
    "DimensionMismatchError",
    "DegenerateInputError",
    "NotHermitianError",
    "NotPositiveError",
    "NormalizationError",
    "IncompleteMeasurementError",
    "NotDetailedError",
    "SchemaError",
    "MalformedDataError",
    "DomainError",
    "PostSelectionImpossibleError",
    "UndefinedWeakValueError",
    "NoEquivalentStateError",
    "AllDiscardedError",
]
