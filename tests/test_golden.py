"""Byte-for-byte CLI output against golden files.

``tests/golden/*.out`` hold the exact stdout of a sequence of CLI calls
on the documents in ``tests/golden/inputs/`` (the reversal scenario of
``twotime.reversal_scenario``, its density vector, a two-choice policy,
sigma_z, the exact d=2 tomography probabilities, and seeded random d=2
and d=4 density vectors whose entries need all 17 digits; the d=4
tomography prints arrays of 1,024 and 512 values, large enough for the
CLI's vectorized float writer).  The calls run in one process, in
order, so the argument parser built by the first call serves every
later one, across subcommands, a usage error and ``--help``.

Write the inputs and golden files of newly added cases, from the
repository root, with::

    PYTHONPATH=src python tests/test_golden.py --write

It writes only files that do not exist yet, so adding a case never
re-pins an existing one.  To re-pin a file after an intended output
change, delete it first.

Run every call through the installed ``twotime`` console script
instead, one process per call, with::

    python tests/test_golden.py --installed
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from twotime import (
    DensityVector,
    KrausOperator,
    build_tomography_set,
    density_from_ensemble,
    predict_probabilities,
    reversal_scenario,
    serialize_document,
)
from twotime import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"


def _inp(name: str) -> str:
    return str(INPUTS / name)


#: (golden file name, argv); a name of None marks a call whose stdout is
#: not pinned (its exit status and stderr are checked instead).
CALLS = [
    ("prob.json.out", ["prob", "--ensemble", _inp("ensemble.json"),
                       "--measurement", _inp("m1.json")]),
    ("prob.csv.out", ["prob", "--eta", _inp("eta.json"), "--measurement", _inp("m1.json"),
                      "--coarse", "--format", "csv"]),
    ("tomography_eta.out", ["tomography", "--dim", "2", "--eta", _inp("eta.json")]),
    (None, ["prob", "--eta", _inp("eta.json"), "--measurement", _inp("m1.json"),
            "--format", "xml"]),
    ("tomography_probs.out", ["tomography", "--dim", "2", "--probs", _inp("probs.json")]),
    ("tomography_eta4.out", ["tomography", "--dim", "4", "--eta", _inp("random_eta4.json")]),
    ("tomography_shots.out", ["tomography", "--dim", "2", "--eta", _inp("random_eta.json"),
                              "--shots", "70000", "--seed", "11"]),
    ("tomography_shots4.out", ["tomography", "--dim", "4", "--eta", _inp("random_eta4.json"),
                               "--shots", "140000", "--seed", "3"]),
    ("simulate.json.out", ["simulate", "--ensemble", _inp("ensemble.json"),
                           "--policy", _inp("policy.json"), "--shots", "5000",
                           "--seed", "7"]),
    (None, ["--help"]),
    ("simulate.csv.out", ["simulate", "--ensemble", _inp("ensemble.json"),
                          "--policy", _inp("policy.json"), "--shots", "5000",
                          "--seed", "7", "--format", "csv"]),
    ("weak_eta.out", ["weak", "--eta", _inp("eta.json"),
                      "--observable", _inp("sigma_z.json")]),
    ("check_eta.out", ["check", "--eta", _inp("eta.json")]),
    ("iso_eta.out", ["iso", "--eta", _inp("random_eta.json")]),
    ("iso_measurement.out", ["iso", "--measurement", _inp("m1.json")]),
    ("demo.out", ["demo", "proportion-reversal", "--shots", "2000", "--seed", "7"]),
]


def run_calls():
    """(exit status, stdout, stderr) of every call, in one process."""
    results = []
    for _, argv in CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_cli(argv)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def _random_density(seed: int, side: int) -> DensityVector:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    rho = a @ a.conj().T
    return DensityVector(rho / np.trace(rho).real)


def write_inputs() -> None:
    """Write every input document that does not exist yet."""
    ens, m1, m2 = reversal_scenario()
    eta = density_from_ensemble(ens)
    docs = {
        "ensemble.json": serialize_document(ens),
        "eta.json": serialize_document(eta),
        "random_eta.json": serialize_document(_random_density(2024, 4)),
        "random_eta4.json": serialize_document(_random_density(2026, 16)),
        "m1.json": serialize_document(m1),
        "sigma_z.json": serialize_document(KrausOperator(np.diag([1.0, -1.0]))),
        "policy.json": {"choice_probs": [0.25, 0.75],
                        "measurements": [serialize_document(m1), serialize_document(m2)]},
        "probs.json": {"probabilities": predict_probabilities(
            eta, build_tomography_set(2)).tolist()},
    }
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        if not (INPUTS / name).exists():
            (INPUTS / name).write_text(json.dumps(doc) + "\n")


def write_golden() -> None:
    """Write every golden file that does not exist yet."""
    for (name, argv), (code, out, err) in zip(CALLS, run_calls()):
        if name is not None and not (GOLDEN / name).exists():
            assert code == 0 and not err, (argv, err)
            (GOLDEN / name).write_text(out)


def check_call(name, argv, code: int, out: str, err: str) -> None:
    """Assert that one call of ``CALLS`` ended as pinned."""
    if argv == ["--help"]:
        assert (code, err) == (0, "")
        assert out.startswith("usage: twotime")
    elif name is None:  # the usage error
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "usage"
    else:
        assert (code, err) == (0, ""), argv
        assert out.encode() == (GOLDEN / name).read_bytes(), name


def check_installed_script() -> None:
    """Run every call through the ``twotime`` console script on PATH and check it."""
    script = shutil.which("twotime")
    if script is None:
        sys.exit("no twotime console script on PATH")
    for name, argv in CALLS:
        proc = subprocess.run([script, *argv], capture_output=True, encoding="utf-8")
        check_call(name, argv, proc.returncode, proc.stdout, proc.stderr)
        print("ok", " ".join(argv[:1]), name or "")


def test_cli_output_matches_golden_files(monkeypatch):
    monkeypatch.setenv("TWOTIME_SEED", "11")  # which changes nothing
    cli._build_parser.cache_clear()
    for (name, argv), (code, out, err) in zip(CALLS, run_calls()):
        check_call(name, argv, code, out, err)
    # One parser served the whole sequence.
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(CALLS) - 1)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_inputs()
        write_golden()
    elif sys.argv[1:] == ["--installed"]:
        check_installed_script()
    else:
        sys.exit(__doc__)
