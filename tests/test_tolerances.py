"""The tolerance table in ``twotime.core``: its values, its re-exports and its uniqueness."""

import ast
import pathlib
import re

import pytest

import twotime
from twotime import bipartite, cli, core, errors, io, measurements, montecarlo, probability
from twotime import states, tomography, weak_values

#: Every entry of the table and its value.
TABLE = {
    "ATOL": 1e-12,
    "PSD_ATOL": 1e-10,
    "COMPLETENESS_ATOL": 1e-10,
    "DENOMINATOR_EPS": 1e-14,
    "PSD_CLIP_TOL": 1e-6,
    "_LOAD_NORM_ATOL": 1e-9,
    "_ZERO_NORM": 1e-14,
    "_EIG_CUTOFF": 1e-12,
    "_MAX_ENTRY": 1e150,
}

MODULES = (twotime, bipartite, cli, core, io, measurements, montecarlo, probability, states,
           tomography, weak_values)

SRC = pathlib.Path(core.__file__).parent
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", sorted(TABLE))
def test_every_entry_keeps_its_value(name):
    value = getattr(core, name)
    assert type(value) is float and value == TABLE[name]


def test_public_entries_are_exported_from_core_and_their_old_homes():
    public = [name for name in TABLE if not name.startswith("_")]
    assert set(public) <= set(core.__all__) and set(public) <= set(twotime.__all__)
    assert measurements.COMPLETENESS_ATOL is core.COMPLETENESS_ATOL
    assert probability.DENOMINATOR_EPS is core.DENOMINATOR_EPS
    assert tomography.PSD_CLIP_TOL is core.PSD_CLIP_TOL
    assert tomography.MAX_DENSE_BYTES is core.MAX_DENSE_BYTES
    assert "COMPLETENESS_ATOL" in measurements.__all__
    assert "DENOMINATOR_EPS" in probability.__all__
    assert "PSD_CLIP_TOL" in tomography.__all__
    assert "MAX_DENSE_BYTES" in core.__all__ and "MAX_DENSE_BYTES" in tomography.__all__


#: The modules whose ``__all__`` the package re-exports, in package order.
PUBLIC_MODULES = (core, states, measurements, probability, tomography, weak_values, bipartite,
                  montecarlo, io, errors)

#: The package's public names before ``__all__`` was derived from the modules'.
PUBLIC_NAMES = frozenset("""
ATOL AllDiscardedError BipartiteDensity BipartiteOperator CHUNK COMPLETENESS_ATOL
CompletionResult DENOMINATOR_EPS DegenerateInputError DensityVector DimensionMismatchError
DiscardDemo DomainError Ensemble FORMAT_VERSION IncompleteMeasurementError KINDS
KrausDensityVector KrausOperator MAX_DENSE_BYTES MalformedDataError Measurement
MeasurementOutcome NoEquivalentStateError NormalizationError NotDetailedError
NotHermitianError NotPositiveError ObserverPolicy PSD_ATOL PSD_CLIP_TOL
PostSelectionImpossibleError PovmPullback ReversalReport SchemaError SimConfig SimResult
TomographySet TwoTimeError TwoTimeState UndefinedWeakValueError VARIANTS ValidationError
WeakValueVector __version__ analytic_success_rate bipartite_to_density build_tomography_set
check_completeness complete_operator_set contract_pure density_from_ensemble
density_to_bipartite ensemble_from_density hermiticity_defect identity_two_time_vector
kdv_to_bipartite kraus_density_vector kraus_to_bipartite_vector
measurement_partial_trace_defect measurements_equal pair pairing_equality_check
parse_document partial_normalization_defect positivity_check povm_to_twotime
predict_probabilities prob_coarse prob_density prob_ensemble prob_pure
prob_relative_bipartite pure_product reconstruct reversal_scenario sampling_clip_tol
sandwich serialize_document simulate simulate_proportion_reversal state_from_bipartite
state_to_bipartite superpose unvec vec weak_equivalent_pure weak_value_ensemble
weak_value_pure weak_value_vector
""".split())


def test_the_package_exports_each_module_all_once():
    listed = ["__version__"] + [name for module in PUBLIC_MODULES for name in module.__all__]
    assert twotime.__all__ == list(dict.fromkeys(listed))
    for module in PUBLIC_MODULES:
        for name in module.__all__:
            assert getattr(twotime, name) is getattr(module, name), (module.__name__, name)
    assert set(twotime.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_module_binds_the_core_entry_itself(module):
    for name in TABLE:
        if hasattr(module, name):
            assert getattr(module, name) is getattr(core, name), (module.__name__, name)


#: Small float literals allowed outside core: the writer's documented
#: lower domain bound is a property of the digit algorithm, not a tolerance.
EXEMPT = {("_floattext.py", 1e-200)}


def small_float_literals(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((path.name, node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < abs(node.value) <= 1e-5 and (path.name, node.value) not in EXEMPT)


def test_no_module_but_core_spells_a_tolerance():
    found = [site for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
             for site in small_float_literals(path)]
    assert found == []


def test_the_literal_check_sees_literals(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x = 1e-12\ny = -2e-9 * z\nw = 1e-200\nv = 1e-4\n")
    assert small_float_literals(sample) == [("sample.py", 1, 1e-12), ("sample.py", 2, 2e-9),
                                            ("sample.py", 3, 1e-200)]


def complex_array_reads(path: pathlib.Path) -> list:
    """(file, line) of every ``np.array`` or ``np.asarray`` call given a complex dtype."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.array", "np.asarray")
                  and any(re.search(r"complex|cdouble|csingle", ast.unparse(dtype))
                          for dtype in node.args[1:2] + [k.value for k in node.keywords
                                                         if k.arg == "dtype"]))


def test_no_module_but_core_and_io_reads_a_complex_array():
    # Library arguments are read by core's readers and documents by io's:
    # a module converting an argument itself would bypass their typed errors.
    found = [site for path in sorted(SRC.glob("*.py")) if path.name not in ("core.py", "io.py")
             for site in complex_array_reads(path)]
    assert found == []


def test_the_array_check_sees_complex_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("a = np.asarray(x, dtype=np.complex128)\nb = np.array(x, complex)\n"
                      "c = np.array(x, dtype=float)\nd = np.zeros(3, dtype=complex)\n"
                      "e = np.array(x, copy=True, dtype='cdouble')\n")
    assert complex_array_reads(sample) == [("sample.py", 1), ("sample.py", 2), ("sample.py", 5)]


def test_readme_renders_the_table():
    section = README.read_text(encoding="utf-8").split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, flags=re.M))
    assert set(rows) == set(TABLE)
    for name, cell in rows.items():
        assert float(cell) == TABLE[name], name
