"""The batch CLI: output formats, exit codes, seeds, error reporting."""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    E0,
    E1,
    equal_mixture_density,
    equal_superposition_state,
    random_coarse_measurement,
    random_complete_measurement,
    random_density,
    random_ensemble,
    random_state,
)
from twotime import (
    KrausOperator,
    Measurement,
    build_tomography_set,
    density_from_ensemble,
    predict_probabilities,
    pure_product,
    reversal_scenario,
    serialize_document,
)
from twotime.cli import _dumps, run_cli


@pytest.fixture
def docs(tmp_path):
    """Standard input documents, one file per kind."""
    ens, m1, m2 = reversal_scenario()
    alpha = np.arctan(99.0 / 101.0)
    paths = {}

    def put(name, obj):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(serialize_document(obj)))
        paths[name] = str(p)

    put("state", equal_superposition_state())
    put("amplified", pure_product(
        np.array([np.cos(alpha), -np.sin(alpha)]),
        np.array([1.0, 1.0]) / np.sqrt(2.0),
    ))
    put("impossible", pure_product(E1, E0))
    put("ensemble", ens)
    put("eta", density_from_ensemble(ens))
    put("mixture_eta", equal_mixture_density())
    put("measurement", m1)
    put("projective", Measurement.detailed(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ["up", "down"]
    ))
    put("sigma_z", __import__("twotime").KrausOperator(np.diag([1.0, -1.0])))
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def error_code(err):
    return json.loads(err)["error"]["code"]


# ---------------------------------------------------------------------------
# prob.

def test_prob_pure(capsys, docs):
    payload = run_json(capsys, [
        "prob", "--state", docs["state"], "--measurement", docs["projective"],
    ])
    assert payload["rule"] == "pure"
    assert payload["outcomes"] == ["up", "down"]
    assert payload["probabilities"] == [0.5, 0.5]


def test_prob_ensemble_prints_full_precision(capsys, docs):
    # 17 significant digits round-trip doubles losslessly: the parsed
    # output must equal the library's value bit for bit.
    code, out, err = run(capsys, [
        "prob", "--ensemble", docs["ensemble"], "--measurement", docs["measurement"],
    ])
    assert code == 0
    assert "0.66666666666666663" in out
    payload = json.loads(out)
    assert payload["rule"] == "ensemble"
    ens, m1, _ = reversal_scenario()
    from twotime import prob_ensemble

    exact = prob_ensemble(ens, m1)
    assert payload["probabilities"][0] == exact[0]
    assert payload["probabilities"][1] == exact[1]


def test_prob_density_and_coarse(capsys, docs):
    dens = run_json(capsys, [
        "prob", "--eta", docs["eta"], "--measurement", docs["measurement"],
    ])
    coarse = run_json(capsys, [
        "prob", "--eta", docs["eta"], "--measurement", docs["measurement"], "--coarse",
    ])
    assert dens["rule"] == "density"
    assert coarse["rule"] == "coarse"
    assert np.allclose(dens["probabilities"], coarse["probabilities"], atol=1e-12)
    assert np.allclose(dens["probabilities"], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_prob_csv(capsys, docs):
    code, out, err = run(capsys, [
        "prob", "--state", docs["state"], "--measurement", docs["projective"],
        "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "outcome_index,probability"
    assert lines[1] == "0,0.5"
    assert lines[2] == "1,0.5"


def test_prob_coarse_requires_eta(capsys, docs):
    code, out, err = run(capsys, [
        "prob", "--state", docs["state"], "--measurement", docs["projective"], "--coarse",
    ])
    assert code == 2
    assert error_code(err) == "usage"


def test_prob_inputs_are_mutually_exclusive(capsys, docs):
    code, out, err = run(capsys, [
        "prob", "--state", docs["state"], "--eta", docs["eta"],
        "--measurement", docs["projective"],
    ])
    assert code == 2
    assert error_code(err) == "usage"


def test_prob_impossible_post_selection_is_a_domain_error(capsys, docs):
    code, out, err = run(capsys, [
        "prob", "--state", docs["impossible"], "--measurement", docs["projective"],
    ])
    assert code == 3
    assert error_code(err) == "post-selection-impossible"


def test_prob_wrong_document_kind(capsys, docs):
    code, out, err = run(capsys, [
        "prob", "--state", docs["ensemble"], "--measurement", docs["projective"],
    ])
    assert code == 2
    assert error_code(err) == "validation"
    assert "expected 'two_time_state'" in json.loads(err)["error"]["message"]


def test_prob_missing_file(capsys, docs):
    code, out, err = run(capsys, [
        "prob", "--state", docs["dir"] + "/nope.json",
        "--measurement", docs["projective"],
    ])
    assert code == 2


def test_prob_malformed_document(capsys, docs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, [
        "prob", "--state", str(bad), "--measurement", docs["projective"],
    ])
    assert code == 2
    assert error_code(err) == "schema"


# ---------------------------------------------------------------------------
# tomography.

def test_tomography_analytic_round_trip(capsys, docs):
    payload = run_json(capsys, ["tomography", "--dim", "2", "--eta", docs["eta"]])
    assert payload["source"] == "analytic"
    assert len(payload["probabilities"]) == 64
    assert payload["round_trip_error"] <= 1e-9
    rec = np.array([[complex(re, im) for re, im in row] for row in payload["reconstruction"]])
    assert rec.shape == (4, 4)


def test_tomography_from_probability_file(capsys, docs, tmp_path):
    eta_doc = json.loads(open(docs["eta"]).read())
    eta_mat = np.array([[complex(re, im) for re, im in row]
                        for row in eta_doc["payload"]["matrix"]])
    from twotime import DensityVector

    probs = predict_probabilities(DensityVector(eta_mat), build_tomography_set(2))
    probs_file = tmp_path / "probs.json"
    probs_file.write_text(json.dumps({"probabilities": list(map(float, probs))}))
    payload = run_json(capsys, [
        "tomography", "--dim", "2", "--probs", str(probs_file),
    ])
    assert payload["source"] == "file"
    assert payload["method"] == "polarization"
    rec = np.array([[complex(re, im) for re, im in row] for row in payload["reconstruction"]])
    assert np.linalg.norm(rec - eta_mat) <= 1e-9


def test_tomography_method_flag_is_a_usage_error(capsys, tmp_path):
    probs_file = tmp_path / "probs.json"
    eta = random_density(np.random.default_rng(2), 2)
    probs_file.write_text(json.dumps(predict_probabilities(eta, build_tomography_set(2)).tolist()))
    code, out, err = run(capsys, [
        "tomography", "--dim", "2", "--probs", str(probs_file), "--method", "lstsq",
    ])
    assert code == 2
    assert out == ""
    assert error_code(err) == "usage"


def test_tomography_sampled_is_deterministic(capsys, docs):
    argv = ["tomography", "--dim", "2", "--eta", docs["eta"],
            "--shots", "40000", "--seed", "3"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first[0] == 0
    assert first[1] == second[1]
    payload = json.loads(first[1])
    assert payload["source"] == "sampled"
    assert payload["successes"] > 5000
    assert payload["round_trip_error"] <= 0.2


def test_tomography_seed_without_shots(capsys, docs):
    code, out, err = run(capsys, [
        "tomography", "--dim", "2", "--eta", docs["eta"], "--seed", "3",
    ])
    assert code == 2
    assert error_code(err) == "usage"


def test_tomography_shots_without_seed(capsys, docs, monkeypatch):
    monkeypatch.setenv("TWOTIME_SEED", "11")
    code, out, err = run(capsys, [
        "tomography", "--dim", "2", "--eta", docs["eta"], "--shots", "100",
    ])
    assert (code, out) == (2, "")
    assert error_code(err) == "usage"


def test_tomography_dim_mismatch(capsys, docs):
    code, out, err = run(capsys, ["tomography", "--dim", "3", "--eta", docs["eta"]])
    assert code == 2


def test_tomography_noisy_file_needs_wider_gate(capsys, docs, tmp_path):
    from twotime import parse_document

    rng = np.random.default_rng(5)
    eta = parse_document(open(docs["eta"]).read())
    probs = predict_probabilities(eta, build_tomography_set(2))
    noisy = np.clip(probs + rng.normal(scale=2e-4, size=probs.size), 0.0, None)
    noisy /= noisy.sum()
    probs_file = tmp_path / "noisy.json"
    probs_file.write_text(json.dumps(list(map(float, noisy))))
    code, out, err = run(capsys, ["tomography", "--dim", "2", "--probs", str(probs_file)])
    assert code == 2
    assert error_code(err) == "malformed-data"
    payload = run_json(capsys, [
        "tomography", "--dim", "2", "--probs", str(probs_file), "--clip-tol", "0.1",
    ])
    assert payload["kind"] == "tomography"


@pytest.mark.parametrize("clip_tol", ["nan", "inf", "-inf", "-1.0"])
def test_tomography_clip_tol_must_be_finite_and_nonnegative(capsys, tmp_path, clip_tol):
    # The shuffled list inverts to a min eigenvalue near -0.35: a NaN or
    # infinite gate used to print a silently clipped reconstruction.
    rng = np.random.default_rng(5)
    probs = predict_probabilities(equal_mixture_density(), build_tomography_set(2))
    probs_file = tmp_path / "shuffled.json"
    probs_file.write_text(json.dumps(list(map(float, probs[rng.permutation(probs.size)]))))
    code, out, err = run(capsys, [
        "tomography", "--dim", "2", "--probs", str(probs_file), f"--clip-tol={clip_tol}",
    ])
    assert (code, out) == (2, "")
    assert error_code(err) == "validation"
    assert "clip_tol must be a finite number >= 0" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("raw", [
    ["a", "b"], [[0.5], [0.5]], [None, 1.0], [True, False], [10**400, 0.0],
])
def test_tomography_non_numeric_probability_file(capsys, tmp_path, raw):
    probs_file = tmp_path / "probs.json"
    probs_file.write_text(json.dumps(raw))
    code, out, err = run(capsys, ["tomography", "--dim", "2", "--probs", str(probs_file)])
    assert code == 2
    assert out == ""
    assert error_code(err) == "schema"


def test_tomography_above_the_old_size_limit_succeeds(capsys, tmp_path, monkeypatch):
    # d = 7 once needed a 369 MB dense forward matrix; fail fast if it comes back.
    monkeypatch.setattr("twotime.tomography._vectorized_family", None)
    d = 7
    eta = random_density(np.random.default_rng(7), d, n_members=d * d)
    probs_file = tmp_path / "probs.json"
    probs_file.write_text(json.dumps(predict_probabilities(eta, build_tomography_set(d)).tolist()))
    payload = run_json(capsys, [
        "tomography", "--dim", str(d), "--probs", str(probs_file),
    ])
    assert payload["method"] == "polarization"
    rec = np.array([[complex(re, im) for re, im in row] for row in payload["reconstruction"]])
    assert np.linalg.norm(rec - eta.mat) <= 1e-9


# ---------------------------------------------------------------------------
# simulate.

def test_simulate_fixed_measurement(capsys, docs):
    payload = run_json(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--measurement", docs["measurement"],
        "--shots", "20000", "--seed", "11",
    ])
    assert payload["shots"] == 20000
    assert payload["seed"] == 11
    assert len(payload["choices"]) == 1
    outs = payload["choices"][0]["outcomes"]
    assert sum(o["count"] for o in outs) == payload["successes"]
    for o in outs:
        assert abs(o["z"]) <= 4.0
        assert abs(o["frequency"] - o["analytic"]) <= 0.05


def test_simulate_csv_single_choice(capsys, docs):
    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--measurement", docs["measurement"],
        "--shots", "5000", "--seed", "1", "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "outcome_index,count,frequency,analytic,z"
    assert len(lines) == 3


def test_simulate_policy_file(capsys, docs, tmp_path):
    _, m1, m2 = reversal_scenario()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "choice_probs": [0.5, 0.5],
        "measurements": [serialize_document(m1), serialize_document(m2)],
    }))
    payload = run_json(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--policy", str(policy),
        "--shots", "20000", "--seed", "7",
    ])
    assert len(payload["choices"]) == 2

    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--policy", str(policy),
        "--shots", "5000", "--seed", "7", "--format", "csv",
    ])
    assert code == 0
    assert out.split("\n")[0] == "choice_index,outcome_index,count,frequency,analytic,z"


def test_simulate_degenerate_z_is_null(capsys, docs, tmp_path):
    # A choice that never receives an attempt has no successes, so its
    # z-scores are undefined: null in JSON, an empty cell in CSV.
    _, m1, m2 = reversal_scenario()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "choice_probs": [1.0 - 1e-13, 1e-13],
        "measurements": [serialize_document(m1), serialize_document(m2)],
    }))
    argv = ["simulate", "--ensemble", docs["ensemble"], "--policy", str(policy),
            "--shots", "200", "--seed", "3"]
    payload = run_json(capsys, argv)
    never = payload["choices"][1]
    assert never["successes"] == 0
    assert [o["z"] for o in never["outcomes"]] == [None, None]
    assert all(isinstance(o["z"], float) for o in payload["choices"][0]["outcomes"])

    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [row.split(",")[-1] for row in rows[2:]] == ["", ""]
    assert all(row.split(",")[-1] for row in rows[:2])


@pytest.mark.parametrize("choice_probs", [["x"], [[1.0]], [None], ["1.0"], [True], [10**400]])
def test_simulate_non_numeric_choice_probs(capsys, docs, tmp_path, choice_probs):
    _, m1, _ = reversal_scenario()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "choice_probs": choice_probs,
        "measurements": [serialize_document(m1)],
    }))
    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--policy", str(policy),
        "--shots", "100", "--seed", "1",
    ])
    assert code == 2
    assert out == ""
    assert error_code(err) == "schema"


def test_simulate_requires_one_observer_input(capsys, docs, tmp_path):
    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--shots", "10", "--seed", "1",
    ])
    assert code == 2
    assert error_code(err) == "usage"
    policy = tmp_path / "p.json"
    policy.write_text("{}")
    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--measurement", docs["measurement"],
        "--policy", str(policy), "--shots", "10", "--seed", "1",
    ])
    assert code == 2
    assert error_code(err) == "usage"


def test_simulate_seed_from_environment(capsys, docs, monkeypatch):
    """The environment supplies no seed: TWOTIME_SEED changes no command."""
    monkeypatch.setenv("TWOTIME_SEED", "11")
    code, out, err = run(capsys, ["simulate", "--ensemble", docs["ensemble"],
                                  "--measurement", docs["measurement"], "--shots", "2000"])
    assert (code, out) == (2, "")
    assert error_code(err) == "usage"
    # demo's seed is 7 without --seed, as in the golden file.
    code, out, err = run(capsys, ["demo", "proportion-reversal", "--shots", "2000"])
    assert (code, err) == (0, "")
    assert out.encode() == (Path(__file__).parent / "golden" / "demo.out").read_bytes()


def test_simulate_rejects_bad_seed(capsys, docs):
    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--measurement", docs["measurement"],
        "--shots", "10", "--seed", "-1",
    ])
    assert code == 2


#: Each command whose shots, seed or dimension the library reads, with
#: one argument out of its range and the start of the library's message.
OUT_OF_RANGE = {
    "simulate-shots": (["simulate", "--ensemble", "ensemble", "--measurement", "measurement",
                        "--shots", "0", "--seed", "1"], "shots must be an integer in [1, inf)"),
    "tomography-shots": (["tomography", "--dim", "2", "--eta", "eta", "--shots", "0",
                          "--seed", "1"], "shots must be an integer in [1, inf)"),
    "demo-shots": (["demo", "proportion-reversal", "--shots", "0"],
                   "shots must be an integer in [1, inf)"),
    "simulate-seed": (["simulate", "--ensemble", "ensemble", "--measurement", "measurement",
                       "--shots", "10", "--seed", str(2**64)],
                      "seed must be an integer in [0, 18446744073709551616)"),
    "tomography-eta-dim": (["tomography", "--dim", "0", "--eta", "eta"],
                           "--eta: document dimension 2 != --dim 0"),
    "tomography-probs-dim": (["tomography", "--dim", "0", "--probs", "probs"],
                             "dimension must be an integer in [1, inf)"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_arguments_are_validation_errors(capsys, docs, tmp_path, case):
    probs = tmp_path / "probs.json"
    probs.write_text(json.dumps([1.0 / 64] * 64))
    argv, message = OUT_OF_RANGE[case]
    argv = [str(probs) if a == "probs" else docs.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert error_code(err) == "validation"
    assert json.loads(err)["error"]["message"].startswith(message)


# ---------------------------------------------------------------------------
# weak.

def test_weak_pure_amplification(capsys, docs):
    payload = run_json(capsys, [
        "weak", "--state", docs["amplified"], "--observable", docs["sigma_z"],
    ])
    assert payload["rule"] == "pure"
    re, im = payload["weak_value"]
    assert abs(re - 100.0) <= 1e-9
    assert abs(im) <= 1e-9


def test_weak_mixture_vector(capsys, docs):
    payload = run_json(capsys, [
        "weak", "--eta", docs["mixture_eta"], "--observable", docs["sigma_z"],
    ])
    assert payload["rule"] == "ensemble"
    re, im = payload["weak_value"]
    assert abs(re) <= 1e-12 and abs(im) <= 1e-12
    wvv = np.array([[complex(a, b) for a, b in row]
                    for row in payload["weak_value_vector"]])
    assert np.allclose(wvv, np.diag([0.5, 0.5]), atol=1e-12)


def test_weak_undefined_is_a_domain_error(capsys, docs):
    code, out, err = run(capsys, [
        "weak", "--state", docs["impossible"], "--observable", docs["sigma_z"],
    ])
    assert code == 3
    assert error_code(err) == "undefined-weak-value"


@pytest.mark.parametrize("flag", ["--eta", "--probs", "--policy"])
def test_deeply_nested_json_is_a_schema_error(capsys, docs, tmp_path, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "--eta": ["check", "--eta", str(deep)],
        "--probs": ["tomography", "--dim", "2", "--probs", str(deep)],
        "--policy": ["simulate", "--ensemble", docs["ensemble"], "--policy", str(deep),
                     "--shots", "100", "--seed", "1"],
    }[flag]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert error_code(err) == "schema"
    assert "malformed JSON" in json.loads(err)["error"]["message"]


# ---------------------------------------------------------------------------
# check and iso.

#: Every flag that names an input file, in a call where it is read, with
#: "bad" standing for the file under test; --probs and --policy are read
#: after --ensemble, and --state, --ensemble and --eta before --measurement.
FILE_FLAG_CALLS = {
    "--state": ["prob", "--state", "bad", "--measurement", "measurement"],
    "--ensemble": ["simulate", "--ensemble", "bad", "--measurement", "measurement",
                   "--shots", "10", "--seed", "1"],
    "--eta": ["check", "--eta", "bad"],
    "--measurement": ["simulate", "--ensemble", "ensemble", "--measurement", "bad",
                      "--shots", "10", "--seed", "1"],
    "--observable": ["weak", "--observable", "bad", "--state", "state"],
    "--probs": ["tomography", "--dim", "2", "--probs", "bad"],
    "--policy": ["simulate", "--ensemble", "ensemble", "--policy", "bad",
                 "--shots", "10", "--seed", "1"],
}


@pytest.mark.parametrize("flag", sorted(FILE_FLAG_CALLS))
@pytest.mark.parametrize("content, reason", [
    (b'{"format_version": "1", "kind": ', "malformed JSON: Expecting value"),
    (b"\xff\xfe{}", "malformed JSON: 'utf-8' codec can't decode"),
    (None, "cannot read"),
], ids=["malformed", "utf16", "missing"])
def test_every_file_read_or_decode_failure_names_its_flag(capsys, docs, tmp_path, flag,
                                                          content, reason):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    argv = [str(bad) if a == "bad" else docs.get(a, a) for a in FILE_FLAG_CALLS[flag]]
    code, out, err = run(capsys, argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert error_code(err) == ("validation" if content is None else "schema")
    assert json.loads(err)["error"]["message"].startswith(f"{flag}: {reason}")


@pytest.mark.parametrize("flag", sorted(FILE_FLAG_CALLS))
def test_an_input_file_above_the_budget_is_not_read(capsys, docs, tmp_path, monkeypatch, flag):
    # Decoding takes up to 4 bytes a byte of text: 4 times the size must fit the budget.
    bad = tmp_path / "bad.json"
    bad.write_text(" " * 20_000)  # decoded, it would be a schema error
    monkeypatch.setattr("twotime.core.MAX_DENSE_BYTES", 4 * 20_000 - 1)
    argv = [str(bad) if a == "bad" else docs.get(a, a) for a in FILE_FLAG_CALLS[flag]]
    code, out, err = run(capsys, argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert error_code(err) == "validation"
    message = json.loads(err)["error"]["message"]
    assert message.startswith(f"{flag}: the objects decoded from the 20000 bytes of {bad}")
    assert "allocation budget" in message


def test_check_density(capsys, docs):
    payload = run_json(capsys, ["check", "--eta", docs["eta"]])
    assert payload["object"] == "density_vector"
    assert payload["positive"] is True
    assert abs(payload["trace"] - 1.0) <= 1e-12
    assert payload["hermiticity_defect"] <= 1e-12
    assert payload["min_eigenvalue"] >= -1e-10


def test_check_measurement(capsys, docs):
    payload = run_json(capsys, ["check", "--measurement", docs["measurement"]])
    assert payload["object"] == "measurement"
    assert payload["outcomes"] == 2
    assert payload["detailed"] is True
    assert payload["complete"] is True
    assert payload["completeness_defect"] <= 1e-10


def test_non_utf8_document_is_a_schema_error(capsys, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["check", "--eta", str(bad)])
    assert code == 2
    assert out == ""
    assert error_code(err) == "schema"


def test_check_integer_too_large_for_a_float(capsys, docs, tmp_path):
    envelope = json.loads(open(docs["eta"]).read())
    envelope["payload"]["matrix"][0][0][0] = 10**400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(envelope))
    code, out, err = run(capsys, ["check", "--eta", str(bad)])
    assert code == 2
    assert out == ""
    assert error_code(err) == "schema"
    assert "payload.matrix[0][0][0]: integer too large" in json.loads(err)["error"]["message"]


def test_documents_at_the_float64_edge_end_in_one_typed_error(capsys, docs, tmp_path):
    matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    matrix[0][3] = matrix[3][0] = [1.7976931348623157e308, 0.0]
    coeffs = [[[1.797e308, 0], [0, 0]], [[0, 0], [0, 0]]]
    cases = [
        ("density_vector", {"matrix": matrix}, ["check", "--eta"], "payload.matrix[0][3]: "),
        ("two_time_state", {"coeffs": coeffs}, ["weak", "--observable", docs["sigma_z"], "--state"],
         "payload.coeffs[0][0]: "),
    ]
    for kind, payload, argv, prefix in cases:
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps({"format_version": "1", "kind": kind, "dim": 2,
                                   "payload": payload}))
        code, out, err = run(capsys, argv + [str(bad)])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert error_code(err) == "schema"
        assert json.loads(err)["error"]["message"].startswith(prefix)


def test_probs_integer_too_large_for_a_float_names_its_entry(capsys, tmp_path):
    probs_file = tmp_path / "probs.json"
    probs_file.write_text(json.dumps({"probabilities": [0.5, 10**400]}))
    code, out, err = run(capsys, ["tomography", "--dim", "2", "--probs", str(probs_file)])
    assert code == 2
    assert out == ""
    assert error_code(err) == "schema"
    assert json.loads(err)["error"]["message"].startswith("--probs: probabilities[1]: ")


def test_choice_probs_integer_too_large_for_a_float_names_its_entry(capsys, docs, tmp_path):
    _, m1, m2 = reversal_scenario()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "choice_probs": [0.5, 10**400],
        "measurements": [serialize_document(m1), serialize_document(m2)],
    }))
    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--policy", str(policy),
        "--shots", "100", "--seed", "1",
    ])
    assert code == 2
    assert out == ""
    assert error_code(err) == "schema"
    assert json.loads(err)["error"]["message"].startswith("--policy: choice_probs[1]: ")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("flag", ["--probs", "--policy"])
def test_non_finite_number_tokens_name_their_entry(capsys, docs, tmp_path, flag, token):
    _, m1, m2 = reversal_scenario()
    if flag == "--probs":
        text = f'{{"probabilities": [0.5, {token}]}}'
        argv, entry = ["tomography", "--dim", "2"], "--probs: probabilities[1]: "
    else:
        measurements = json.dumps([serialize_document(m1), serialize_document(m2)])
        text = f'{{"choice_probs": [0.5, {token}], "measurements": {measurements}}}'
        argv = ["simulate", "--ensemble", docs["ensemble"], "--shots", "100", "--seed", "1"]
        entry = "--policy: choice_probs[1]: "
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, argv + [flag, str(bad)])
    assert (code, out) == (2, "")
    assert error_code(err) == "schema"
    assert json.loads(err)["error"]["message"].startswith(entry)


def _policy_error(capsys, docs, tmp_path, bad_doc):
    _, m1, _ = reversal_scenario()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "choice_probs": [0.5, 0.5],
        "measurements": [serialize_document(m1), bad_doc],
    }))
    code, out, err = run(capsys, [
        "simulate", "--ensemble", docs["ensemble"], "--policy", str(policy),
        "--shots", "100", "--seed", "1",
    ])
    assert code == 2
    assert out == ""
    return error_code(err), json.loads(err)["error"]["message"]


def test_policy_measurement_entry_error_names_the_document(capsys, docs, tmp_path):
    _, _, m2 = reversal_scenario()
    bad = serialize_document(m2)
    bad["payload"]["outcomes"][0]["kraus"][0][0][0][0] = "1"
    code, message = _policy_error(capsys, docs, tmp_path, bad)
    assert code == "schema"
    assert message == ("--policy: measurements[1]: payload.outcomes[0].kraus[0][0][0][0]: "
                       "expected a number, got str")


def test_policy_measurement_that_is_no_object_names_the_document(capsys, docs, tmp_path):
    code, message = _policy_error(capsys, docs, tmp_path, 7)
    assert code == "schema"
    assert message == "--policy: measurements[1]: document: expected a JSON object, got int"


def test_iso_density(capsys, docs):
    payload = run_json(capsys, ["iso", "--eta", docs["eta"]])
    assert payload["object"] == "density_vector"
    mat = np.array([[complex(a, b) for a, b in row] for row in payload["matrix"]])
    assert mat.shape == (4, 4)
    assert abs(np.trace(mat) - 1.0) <= 1e-12


def test_iso_measurement(capsys, docs):
    payload = run_json(capsys, ["iso", "--measurement", docs["measurement"]])
    assert payload["object"] == "measurement"
    assert len(payload["operators"]) == 2
    assert payload["partial_trace_defect"] <= 1e-10


# ---------------------------------------------------------------------------
# Mutated canonical documents: every subcommand ends in exit status 0, 2
# or 3, and a failure prints exactly one JSON error line.

#: Replacement leaves: both ends of float64, subnormals, the values json
#: writes as NaN and Infinity, and integers past int64 and float64.
EDGE_LEAVES = (
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, 2.2250738585072014e-308,
    5e-324, -5e-324, math.nan, math.inf, -math.inf, -0.0, 0,
    2**63, -(2**63) - 1, 2**64, 10**400, -(10**400),
)

#: One invocation per subcommand and input route; names of documents
#: stand for their files and "dim" for the dimension.
INVOCATIONS = (
    ("prob", "--state", "state", "--measurement", "measurement"),
    ("prob", "--ensemble", "ensemble", "--measurement", "measurement"),
    ("prob", "--eta", "eta", "--measurement", "coarse"),
    ("prob", "--eta", "eta", "--measurement", "coarse", "--coarse"),
    ("tomography", "--dim", "dim", "--eta", "eta"),
    ("tomography", "--dim", "dim", "--probs", "probs"),
    ("simulate", "--ensemble", "ensemble", "--measurement", "measurement",
     "--shots", "40", "--seed", "1"),
    ("simulate", "--ensemble", "ensemble", "--policy", "policy", "--shots", "40", "--seed", "1"),
    ("weak", "--state", "state", "--observable", "observable"),
    ("weak", "--eta", "eta", "--observable", "observable"),
    ("check", "--eta", "eta"),
    ("check", "--measurement", "coarse"),
    ("iso", "--eta", "eta"),
    ("iso", "--measurement", "coarse"),
)


@pytest.fixture(scope="module")
def canonical_inputs():
    """The decoded canonical input documents of each subcommand, for d = 1..4."""
    rng = np.random.default_rng(2024)
    inputs = {}
    for d in range(1, 5):
        ens = random_ensemble(rng, d, n_members=3)
        eta = density_from_ensemble(ens)
        m = random_complete_measurement(rng, d, n_outcomes=3)
        coarse = random_coarse_measurement(rng, d)
        h = rng.normal(size=(d, d))
        docs = {name: serialize_document(obj) for name, obj in (
            ("state", random_state(rng, d)), ("ensemble", ens), ("eta", eta),
            ("measurement", m), ("coarse", coarse), ("observable", KrausOperator(h + h.T)))}
        probs = predict_probabilities(eta, build_tomography_set(d))
        docs["probs"] = {"probabilities": probs.tolist()}
        docs["policy"] = {"choice_probs": [0.25, 0.75],
                          "measurements": [docs["measurement"], docs["coarse"]]}
        inputs[d] = json.loads(json.dumps(docs))
    return inputs


def mutate(doc, data):
    """``doc`` with one drawn subtree replaced by an edge leaf, deleted or duplicated."""
    op = data.draw(st.sampled_from(("leaf", "delete", "duplicate")))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        if parent is not None and op != "leaf" and data.draw(st.booleans()):
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return data.draw(st.sampled_from(EDGE_LEAVES))
    if op == "leaf":
        parent[key] = data.draw(st.one_of(st.sampled_from(EDGE_LEAVES), st.floats()))
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(node)))
    else:
        parent[f"{key}_"] = json.loads(json.dumps(node))
    return doc


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_end_in_a_typed_exit(canonical_inputs, tmp_path_factory, data):
    d = data.draw(st.integers(1, 4))
    invocation = data.draw(st.sampled_from(INVOCATIONS))
    docs = json.loads(json.dumps(canonical_inputs[d]))
    target = data.draw(st.sampled_from([t for t in invocation if t in docs]))
    for _ in range(data.draw(st.integers(1, 3))):
        docs[target] = mutate(docs[target], data)
    folder = tmp_path_factory.mktemp("mutated")
    argv = []
    for token in invocation:
        if token in docs:
            path = folder / f"{token}.json"
            path.write_text(json.dumps(docs[token]))
            token = str(path)
        argv.append(str(d) if token == "dim" else token)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        error = json.loads(err.getvalue())["error"]
        assert set(error) == {"code", "message"} and isinstance(error["message"], str)


# ---------------------------------------------------------------------------
# demo.

def test_demo_reversal(capsys):
    payload = run_json(capsys, ["demo", "proportion-reversal",
                                "--shots", "20000", "--seed", "7"])
    assert payload["consistent"] is True
    assert payload["within_tolerance"] is True
    assert payload["proportions_differ"] is True
    assert payload["expected_conditional"] == [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]
    assert payload["discard_demo"]["equalized"] is True


def test_demo_unknown_target(capsys):
    code, out, err = run(capsys, ["demo", "entanglement-swap"])
    assert code == 2
    assert error_code(err) == "usage"


# ---------------------------------------------------------------------------
# Output formatting: arrays print the bytes of the recursive writer.

def reference_dumps(obj) -> str:
    """The per-element writer the CLI used for every value before arrays."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "null" if (math.isnan(x) or math.isinf(x)) else f"{x:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_dumps(x) for x in obj) + "]"
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist())
    if isinstance(obj, dict):
        items = (f"{reference_dumps(str(k))}: {reference_dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# Values where repr, json.dumps or numpy's formatters differ from .17g,
# plus the non-finite values and both ends of the float64 range.
SPECIAL_FLOATS = [
    1.0, -0.0, 0.0, 0.1, 1e-05, 5e-324, -5e-324, 1e16, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 2.0 / 3.0, 123456789.0,
    float("nan"), float("inf"), -float("inf"),
]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
    elements=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64)),
))
def test_float_arrays_print_like_the_recursive_writer(arr):
    assert _dumps(arr) == reference_dumps(arr.tolist())
    assert _dumps({"a": arr, "b": [arr]}) == reference_dumps({"a": arr.tolist(), "b": [arr.tolist()]})


def test_special_floats_print_as_17_significant_digits():
    arr = np.array(SPECIAL_FLOATS[:9] + SPECIAL_FLOATS[-3:])
    assert _dumps(arr) == (
        "[1, -0, 0, 0.10000000000000001, 1.0000000000000001e-05, "
        "4.9406564584124654e-324, -4.9406564584124654e-324, 10000000000000000, "
        "2.2250738585072014e-308, null, null, null]"
    )
    assert _dumps(np.zeros((2, 0, 3))) == "[[], []]"
    assert _dumps(np.float64(0.5)) == "0.5"
    assert _dumps(np.array(0.5)) == "0.5"
    assert _dumps(np.array([1, 2])) == "[1, 2]"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(st.characters(exclude_categories=())))
def test_strings_print_as_json_dumps_prints_them(s):
    # Every category: lone surrogates, control characters, non-ASCII.
    assert _dumps(s) == json.dumps(s)
    assert _dumps({s: s}) == json.dumps({s: s})


# ---------------------------------------------------------------------------
# Process-level behavior.

def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_module_invocation(docs):
    proc = subprocess.run(
        [sys.executable, "-m", "twotime", "prob",
         "--state", docs["state"], "--measurement", docs["projective"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["probabilities"] == [0.5, 0.5]

    proc = subprocess.run(
        [sys.executable, "-m", "twotime", "prob",
         "--state", docs["impossible"], "--measurement", docs["projective"]],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
