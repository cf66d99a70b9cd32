"""Stored arrays of Ensemble and Measurement, and the per-entry views built on read."""

import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from conftest import (
    bell_basis_povm,
    complex_gaussian,
    random_coarse_measurement,
    random_complete_measurement,
    random_ensemble,
    random_state,
)
from twotime import (
    Ensemble,
    KrausOperator,
    Measurement,
    MeasurementOutcome,
    TwoTimeState,
    build_tomography_set,
    complete_operator_set,
    density_from_ensemble,
    density_to_bipartite,
    ensemble_from_density,
    kdv_to_bipartite,
    kraus_density_vector,
    measurements_equal,
    parse_document,
    povm_to_twotime,
    serialize_document,
)
from twotime.cli import run_cli


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


@contextmanager
def entry_objects_built():
    """Counts the states, operators and outcomes built in the block, by any route."""
    counts = Counter()
    with ExitStack() as patches:
        for cls in (TwoTimeState, KrausOperator, MeasurementOutcome):
            patches.enter_context(mock.patch.object(
                cls, "__init__", _counting(counts, cls.__name__, cls.__init__)))
        for cls in (TwoTimeState, KrausOperator):
            patches.enter_context(mock.patch.object(
                cls, "_view", _counting(counts, cls.__name__, cls._view)))
        yield counts


def test_tomography_measurement_builds_no_entry_until_outcomes_are_read():
    with entry_objects_built() as counts:
        m = build_tomography_set(4).measurement
        assert m.n_outcomes == 1024 and m.is_detailed and m.dim == 4
        assert not counts
        outcomes = m.outcomes
    assert counts == {"KrausOperator": 1024, "MeasurementOutcome": 1024}
    assert m.outcomes is outcomes


def test_parsed_ensemble_builds_no_member_until_members_are_read(rng):
    text = json.dumps(serialize_document(random_ensemble(rng, 3, n_members=64)))
    with entry_objects_built() as counts:
        ens = parse_document(text)
        assert ens.dim == 3 and len(ens.weights) == 64
        density_from_ensemble(ens)
        assert not counts
        members = ens.members
    assert counts == {"TwoTimeState": 64}
    assert ens.members is members and ens.states == tuple(s for _, s in members)


def test_outcome_names_are_read_without_building_outcomes(rng, tmp_path, capsys):
    detailed = random_complete_measurement(rng, 2, n_outcomes=4)
    ops = [out.kraus[0] for out in detailed.outcomes]
    m = Measurement.from_kraus_sets([ops[:1], ops[1:3], ops[3:]], ["up", "mid", "down"])
    ens = random_ensemble(rng, 2, n_members=4)
    ens_path, eta_path, m_path = (tmp_path / name for name in ("ens.json", "eta.json", "m.json"))
    ens_path.write_text(json.dumps(serialize_document(ens)))
    eta_path.write_text(json.dumps(serialize_document(density_from_ensemble(ens))))
    with entry_objects_built() as counts:
        assert m.names == ("up", "mid", "down")
        envelope = serialize_document(m)
        m_path.write_text(json.dumps(envelope))
        assert run_cli(["prob", "--eta", str(eta_path), "--coarse",
                        "--measurement", str(m_path)]) == 0
        prob = json.loads(capsys.readouterr().out)
        assert run_cli(["simulate", "--ensemble", str(ens_path), "--measurement", str(m_path),
                        "--shots", "200", "--seed", "3"]) == 0
        sim = json.loads(capsys.readouterr().out)
    assert not counts
    assert [o["name"] for o in envelope["payload"]["outcomes"]] == ["up", "mid", "down"]
    assert [len(o["kraus"]) for o in envelope["payload"]["outcomes"]] == [1, 2, 1]
    assert prob["outcomes"] == ["up", "mid", "down"]
    assert [o["name"] for o in sim["choices"][0]["outcomes"]] == ["up", "mid", "down"]
    with pytest.raises(AttributeError):
        m.names = ()


def test_iso_measurement_builds_no_entry_object(rng, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serialize_document(random_coarse_measurement(rng, 3))))
    with entry_objects_built() as counts:
        assert run_cli(["iso", "--measurement", str(path)]) == 0
    assert not counts
    payload = json.loads(capsys.readouterr().out)
    assert np.array(payload["operators"]).shape == (2, 9, 9, 2)


@contextmanager
def eigvalsh_calls():
    """Counts the ``np.linalg.eigvalsh`` calls made in the block."""
    counts = Counter()
    with mock.patch.object(np.linalg, "eigvalsh",
                           _counting(counts, "eigvalsh", np.linalg.eigvalsh)):
        yield counts


def test_stacked_kraus_density_vectors_build_no_entry_and_run_no_eigvalsh(rng):
    # Kraus density vectors are Gram matrices, PSD by construction: equality
    # and pullbacks read them from the stack, with no per-outcome view.
    m = build_tomography_set(3).measurement
    povm = bell_basis_povm(3)
    g = complex_gaussian(rng, (4, 4))
    with entry_objects_built() as built, eigvalsh_calls() as calls:
        assert measurements_equal(m, m)
        assert calls["eigvalsh"] == 0  # 648 when each outcome's vector was checked
        res = povm_to_twotime(povm)
        assert calls["eigvalsh"] == 9  # one check per operator, not two
        completed = complete_operator_set([g @ g.conj().T]).completed
    assert not built
    assert measurements_equal(res.measurement, povm_to_twotime(povm).measurement)
    assert completed.n_outcomes == 2 and len(res.kdvs) == 9


def test_images_of_checked_objects_run_no_eigvalsh(rng):
    eta = density_from_ensemble(random_ensemble(rng, 3))
    kdv = kraus_density_vector(random_coarse_measurement(rng, 3).outcomes[0])
    with eigvalsh_calls() as calls:
        density_from_ensemble(random_ensemble(rng, 3))
        kraus_density_vector(random_coarse_measurement(rng, 3).outcomes[0])
        density_to_bipartite(eta)
        kdv_to_bipartite(kdv)
    assert not calls


def assert_ensemble_views(ens):
    assert not ens.weights.flags.writeable and not ens.coeff_stack.flags.writeable
    assert [w for w, _ in ens.members] == ens.weights.tolist()
    for r, state in enumerate(ens.states):
        assert not state.coeffs.flags.writeable
        assert np.shares_memory(state.coeffs, ens.coeff_stack)
        assert state.coeffs.tobytes() == ens.coeff_stack[r].tobytes()


def assert_measurement_views(m):
    assert not m.kraus_stack.flags.writeable and not m.outcome_of.flags.writeable
    ops = [op for out in m.outcomes for op in out.kraus]
    assert len(ops) == len(m.kraus_stack)
    assert [mu for mu, out in enumerate(m.outcomes) for _ in out.kraus] == m.outcome_of.tolist()
    for k, op in enumerate(ops):
        assert not op.entries.flags.writeable
        assert np.shares_memory(op.entries, m.kraus_stack)
        assert op.entries.tobytes() == m.kraus_stack[k].tobytes()


def _plain_real_first_entry(envelope, key):
    """A non-canonical copy of ``envelope``: its first matrix's [0][0] a plain real."""
    envelope = json.loads(json.dumps(envelope))
    node = envelope["payload"][key][0]["coeffs" if key == "members" else "kraus"]
    matrix = node if key == "members" else node[0]
    matrix[0][0] = matrix[0][0][0]
    return envelope


def test_every_ensemble_route_gives_read_only_views_of_the_stack(rng):
    states = [TwoTimeState(complex_gaussian(rng, (2, 2)).real) for _ in range(3)]
    public = Ensemble(tuple(zip([0.25, 0.25, 0.5], states)))
    envelope = serialize_document(public)
    routes = {
        "public": public,
        "pure": Ensemble.pure(random_state(rng, 2)),
        "canonical": parse_document(json.dumps(envelope)),
        "non-canonical": parse_document(json.dumps(_plain_real_first_entry(envelope, "members"))),
        "from density": ensemble_from_density(density_from_ensemble(public)),
    }
    for ens in routes.values():
        assert_ensemble_views(ens)
    assert all(a is not b for a, b in zip(public.states, states))  # values, not identity
    assert [s.coeffs.tobytes() for s in public.states] == [s.coeffs.tobytes() for s in states]


def test_every_measurement_route_gives_read_only_views_of_the_stack(rng):
    q, _ = np.linalg.qr(complex_gaussian(rng, (4, 2)).real)
    ops = [KrausOperator(q[:2]), KrausOperator(q[2:])]
    public = Measurement(MeasurementOutcome((op,), f"o{k}") for k, op in enumerate(ops))
    envelope = serialize_document(public)
    routes = {
        "public": public,
        "detailed": random_complete_measurement(rng, 3),
        "kraus sets": Measurement.from_kraus_sets([ops, [np.zeros((2, 2))]], ["a", "b"]),
        "canonical": parse_document(json.dumps(envelope)),
        "non-canonical": parse_document(json.dumps(_plain_real_first_entry(envelope, "outcomes"))),
        "tomography": build_tomography_set(2).measurement,
    }
    for m in routes.values():
        assert_measurement_views(m)
    assert [o.name for o in routes["canonical"].outcomes] == ["o0", "o1"]
    assert [len(o.kraus) for o in routes["kraus sets"].outcomes] == [2, 1]


def test_stored_arrays_and_views_cannot_be_written(rng):
    ens, m = random_ensemble(rng, 2), random_complete_measurement(rng, 2)
    for arr in (ens.weights, ens.coeff_stack, ens.members[0][1].coeffs,
                m.kraus_stack, m.outcome_of, m.outcomes[0].kraus[0].entries):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
