"""Seeded inputs, CLI argument lists and output checks for each workload.

A workload is a fixed, ordered pool of :class:`Op` objects.  The runner
replays the pool round-robin, one ``twotime.cli.run_cli`` call at a
time.  Inputs are JSON documents written by this module from the seed;
the program under test sees only those files.  Reference values for the
output checks are computed here, at set-up, never inside a timed op.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from twotime.io import parse_document
from twotime.montecarlo import analytic_success_rate
from twotime.probability import prob_coarse, prob_density, prob_ensemble, prob_pure
from twotime.states import density_from_ensemble, ensemble_from_density, positivity_check
from twotime.tomography import build_tomography_set, sampling_clip_tol
from twotime.bipartite import density_to_bipartite, measurement_partial_trace_defect
from twotime.weak_values import weak_value_ensemble, weak_value_pure, weak_value_vector

#: Absolute tolerance for library-computed reference values (doc_batch).
REF_TOL = 1e-12
#: Exact tomography must invert to the input within this Frobenius distance.
EXACT_ROUND_TRIP_TOL = 1e-9
#: Sampled tomography must invert to within this share of the library's
#: positivity gate ``sampling_clip_tol`` = 10 d^2 / sqrt(successes).  At
#: d=4 the error is about 0.8 to 1.7 d^2 / sqrt(successes), and the
#: Frobenius distance of two density vectors never exceeds 2, so the full
#: gate (about 2.5 at 4,000 successes) would accept any output.
SAMPLED_ROUND_TRIP_SHARE = 0.3
#: Sampled statistics must lie within this many binomial standard errors.
Z_MAX = 5.0
SHOTS = 65536

# Each check takes (exit status, stdout, stderr) and returns None when the
# output is correct, or a one-line reason.
Check = Callable[[int, str, str], "str | None"]


@dataclass
class Op:
    argv: list
    check: Check
    #: Probability that one simulator attempt survives post-selection,
    #: for ops that run the simulator (None otherwise).
    analytic_success: float | None = None


# ---------------------------------------------------------------------------
# Random objects and their documents.

def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def _mat(a) -> list:
    return [[_pair(z) for z in row] for row in a]


def _doc(kind: str, dim: int, payload: dict) -> dict:
    return {"format_version": "1", "kind": kind, "dim": dim, "payload": payload}


def _gauss(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _density(rng, d: int, rank: int) -> np.ndarray:
    g = _gauss(rng, d * d, rank)
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _coeffs(rng, d: int) -> np.ndarray:
    c = _gauss(rng, d, d)
    return c / np.linalg.norm(c)


def _isometry_blocks(rng, d: int, n_ops: int) -> list:
    """``n_ops`` d x d Kraus operators with ``sum A^dag A = I``."""
    q, _ = np.linalg.qr(_gauss(rng, n_ops * d, d))
    return [q[k * d:(k + 1) * d, :] for k in range(n_ops)]


def _measurement(ops_per_outcome: list) -> dict:
    d = ops_per_outcome[0][0].shape[0]
    outcomes = [
        {"name": f"o{mu}", "kraus": [_mat(a) for a in ops]}
        for mu, ops in enumerate(ops_per_outcome)
    ]
    return _doc("measurement", d, {"outcomes": outcomes})


def _detailed(rng, d: int, n_outcomes: int) -> list:
    """Kraus operators of a complete measurement, one per outcome."""
    return [[a] for a in _isometry_blocks(rng, d, n_outcomes)]


def _coarse(rng, d: int, n_outcomes: int, per_outcome: int) -> list:
    """Kraus operators of a complete measurement, ``per_outcome`` per outcome."""
    ops = _isometry_blocks(rng, d, n_outcomes * per_outcome)
    return [ops[k:k + per_outcome] for k in range(0, len(ops), per_outcome)]


def _members(rng, d: int, n_members: int) -> list:
    w = rng.dirichlet(np.ones(n_members))
    return [(float(p), _coeffs(rng, d)) for p in w / w.sum()]


def _ensemble(members: list) -> dict:
    d = members[0][1].shape[0]
    payload = {"members": [{"weight": w, "coeffs": _mat(c)} for w, c in members]}
    return _doc("ensemble", d, payload)


def _hermitian(rng, d: int) -> np.ndarray:
    g = _gauss(rng, d, d)
    return (g + g.conj().T) / 2.0


class _Files:
    """Writes input documents into the run's work directory."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.count = 0

    def write(self, doc) -> str:
        path = self.workdir / f"in{self.count:03d}.json"
        self.count += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------
# Output checks.

def _success_json(code: int, out: str):
    if code != 0:
        raise ValueError(f"exit status {code}, expected 0")
    return json.loads(out)


def _checked(fn) -> Check:
    """Turn a validator that raises on bad output into a :data:`Check`."""

    def check(code: int, out: str, err: str):
        try:
            fn(code, out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def _close(got, want, what: str, tol: float = REF_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise ValueError(f"{what}: shape {got.shape} != {want.shape}")
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not diff <= tol:
        raise ValueError(f"{what}: off by {diff:.3e} (tolerance {tol:.0e})")


def _as_pairs(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    return np.stack([z.real, z.imag], axis=-1)


def _rejected(exit_status: int, error_code: str) -> Check:
    def validate(code, out, err):
        if code != exit_status:
            raise ValueError(f"exit status {code}, expected {exit_status}")
        if out:
            raise ValueError("a rejected input wrote to stdout")
        got = json.loads(err)["error"]["code"]
        if got != error_code:
            raise ValueError(f"error code {got!r}, expected {error_code!r}")

    return _checked(validate)


def _z(successes: int, p: float, n: int) -> float:
    return (successes / n - p) / math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# Workloads.

def _ranks(d: int) -> list:
    """Six density-vector ranks spread evenly over 1..d^2.

    Sampled tomography simulates one ensemble member per nonzero
    eigenvalue, so its cost grows with rank.  The same spread of ranks
    for every seed keeps that cost independent of the seed.
    """
    return [int(r) for r in np.linspace(1, d * d, 6).round()]


def tomo_exact(rng, files: _Files) -> list:
    d = 6

    def validate(code, out, err):
        doc = _success_json(code, out)
        if doc["source"] != "analytic" or len(doc["probabilities"]) != 4 * d**4:
            raise ValueError("not an analytic prediction of 4 d^4 probabilities")
        if not doc["round_trip_error"] <= EXACT_ROUND_TRIP_TOL:
            raise ValueError(f"round_trip_error {doc['round_trip_error']!r}")

    check = _checked(validate)
    ops = []
    for rank in _ranks(d):
        path = files.write(_doc("density_vector", d, {"matrix": _mat(_density(rng, d, rank))}))
        ops.append(Op(["tomography", "--dim", str(d), "--eta", path], check))
    return ops


def tomo_sampled(rng, files: _Files) -> list:
    d = 4
    measurement = build_tomography_set(d).measurement
    ops = []
    for rank in _ranks(d):
        doc = _doc("density_vector", d, {"matrix": _mat(_density(rng, d, rank))})
        path = files.write(doc)
        accept = analytic_success_rate(ensemble_from_density(parse_document(doc)), measurement)

        def validate(code, out, err, accept=accept):
            doc = _success_json(code, out)
            successes = doc["successes"]
            if doc["source"] != "sampled" or doc["shots"] != SHOTS or successes < 1:
                raise ValueError("not a sampled run of the requested shots")
            bound = SAMPLED_ROUND_TRIP_SHARE * sampling_clip_tol(d, successes)
            if not doc["round_trip_error"] <= bound:
                raise ValueError(
                    f"round_trip_error {doc['round_trip_error']!r} above {bound!r}"
                )
            z = _z(successes, accept, SHOTS)
            if not abs(z) <= Z_MAX:
                raise ValueError(f"acceptance z = {z:.2f} against analytic {accept!r}")

        seed = str(int(rng.integers(2**32)))
        argv = ["tomography", "--dim", str(d), "--eta", path,
                "--shots", str(SHOTS), "--seed", seed]
        ops.append(Op(argv, _checked(validate), accept))
    return ops


def sim_policy(rng, files: _Files) -> list:
    d, n_members, n_outcomes = 3, 64, 6
    ops = []
    for _ in range(4):
        ens_doc = _ensemble(_members(rng, d, n_members))
        probs = rng.dirichlet(np.ones(4))
        probs = probs / probs.sum()
        m_docs = [_measurement(_detailed(rng, d, n_outcomes)) for _ in range(3)]
        m_docs.append(_measurement(_coarse(rng, d, n_outcomes, 2)))
        policy = {"choice_probs": [float(p) for p in probs], "measurements": m_docs}
        ens_path = files.write(ens_doc)
        policy_path = files.write(policy)

        ensemble = parse_document(ens_doc)
        eta = density_from_ensemble(ensemble)
        measurements = [parse_document(m) for m in m_docs]
        targets = [prob_coarse(eta, m) for m in measurements]
        accept = sum(
            float(p) * analytic_success_rate(ensemble, m) for p, m in zip(probs, measurements)
        )

        def validate(code, out, err, targets=targets):
            doc = _success_json(code, out)
            if doc["attempts"] != SHOTS or doc["shots"] != SHOTS or doc["successes"] < 1:
                raise ValueError("attempts != shots or nothing survived")
            for choice, want in zip(doc["choices"], targets, strict=True):
                _close([o["analytic"] for o in choice["outcomes"]], want, "analytic target")
                for o in choice["outcomes"]:
                    if o["z"] is None or not abs(o["z"]) <= Z_MAX:
                        raise ValueError(f"outcome z = {o['z']!r}")

        seed = str(int(rng.integers(2**32)))
        argv = ["simulate", "--ensemble", ens_path, "--policy", policy_path,
                "--shots", str(SHOTS), "--seed", seed]
        ops.append(Op(argv, _checked(validate), accept))
    return ops


def _contract(a: np.ndarray, c: np.ndarray) -> complex:
    """The bilinear pairing ``sum_ij a_ij c_ij`` of an operator and a state."""
    return complex(np.sum(a * c))


def _sandwich(a: np.ndarray, m: np.ndarray) -> float:
    v = a.reshape(-1)
    return float((v @ m @ v.conj()).real)


def _normalized(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def _expect_probs(library, reference) -> Check:
    """Output equal to the library's value, which must equal the formula's."""

    def validate(code, out, err):
        _close(library, reference, "library probabilities against the formula")
        _close(_success_json(code, out)["probabilities"], library, "probabilities")

    return _checked(validate)


def _expect_weak(library, reference, vectors=None) -> Check:
    """Like :func:`_expect_probs`; ``vectors`` is (library, formula) weak value vectors."""

    def validate(code, out, err):
        _close(_pair(library), _pair(reference), "library weak value against the formula")
        doc = _success_json(code, out)
        _close(doc["weak_value"], _pair(library), "weak_value")
        if vectors is not None:
            _close(_as_pairs(vectors[0]), _as_pairs(vectors[1]),
                   "library weak value vector against the formula")
            _close(doc["weak_value_vector"], _as_pairs(vectors[0]), "weak_value_vector")

    return _checked(validate)


def _expect_fields(**want) -> Check:
    def validate(code, out, err):
        doc = _success_json(code, out)
        for key, value in want.items():
            if isinstance(value, bool):
                if doc[key] is not value:
                    raise ValueError(f"{key} = {doc[key]!r}, expected {value!r}")
            else:
                _close(doc[key], value, key)

    return _checked(validate)


def doc_batch(rng, files: _Files) -> list:
    """Every small subcommand at d = 2..6, checked against library calls.

    Probabilities and weak values are also recomputed from the generated
    arrays with the paper's formulas, independently of the library.
    """
    ops = []
    for d in range(2, 7):
        coeffs = _coeffs(rng, d)
        members = _members(rng, d, 4)
        mat = _density(rng, d, int(rng.integers(1, d * d + 1)))
        det_ops = _detailed(rng, d, 2 * d)
        coarse_ops = _coarse(rng, d, d, 2)
        obs_mat = _hermitian(rng, d)
        docs = (
            _doc("two_time_state", d, {"coeffs": _mat(coeffs)}),
            _ensemble(members),
            _doc("density_vector", d, {"matrix": _mat(mat)}),
            _measurement(det_ops),
            _measurement(coarse_ops),
            _doc("observable", d, {"matrix": _mat(obs_mat)}),
        )
        state, ensemble, eta, det, coarse, obs = (parse_document(x) for x in docs)
        state_p, ens_p, eta_p, det_p, coarse_p, obs_p = (files.write(x) for x in docs)

        # The weak value vector is the partial contraction sum_k mat[:, (k, k)].
        eta_w = mat[:, np.arange(d) * (d + 1)].sum(axis=1).reshape(d, d)
        positive, min_eig = positivity_check(eta)
        ops += [
            Op(["prob", "--state", state_p, "--measurement", det_p], _expect_probs(
                prob_pure(state, det),
                _normalized([abs(_contract(a, coeffs)) ** 2 for [a] in det_ops]))),
            Op(["prob", "--ensemble", ens_p, "--measurement", det_p], _expect_probs(
                prob_ensemble(ensemble, det),
                _normalized([sum(w * abs(_contract(a, c)) ** 2 for w, c in members)
                             for [a] in det_ops]))),
            Op(["prob", "--eta", eta_p, "--measurement", det_p], _expect_probs(
                prob_density(eta, det),
                _normalized([_sandwich(a, mat) for [a] in det_ops]))),
            Op(["prob", "--eta", eta_p, "--measurement", coarse_p, "--coarse"], _expect_probs(
                prob_coarse(eta, coarse),
                _normalized([sum(_sandwich(a, mat) for a in out) for out in coarse_ops]))),
            Op(["weak", "--state", state_p, "--observable", obs_p], _expect_weak(
                weak_value_pure(obs, state),
                _contract(obs_mat, coeffs) / np.trace(coeffs))),
            Op(["weak", "--eta", eta_p, "--observable", obs_p], _expect_weak(
                weak_value_ensemble(obs, eta),
                _contract(obs_mat, eta_w) / np.trace(eta_w),
                (weak_value_vector(eta).coeffs, eta_w))),
            Op(["check", "--eta", eta_p],
               _expect_fields(positive=positive, min_eigenvalue=min_eig)),
            Op(["check", "--measurement", coarse_p],
               _expect_fields(complete=True, detailed=False,
                              completeness_defect=coarse.completeness_defect)),
            Op(["iso", "--eta", eta_p],
               _expect_fields(matrix=_as_pairs(density_to_bipartite(eta).rho))),
        ]
        if d <= 4:
            ops.append(Op(["iso", "--measurement", det_p], _expect_fields(
                partial_trace_defect=measurement_partial_trace_defect(det))))
        ops.append(_rejection(rng, files, d))
    return ops


def _rejection(rng, files: _Files, d: int) -> Op:
    """One input per dimension that the CLI must refuse with a typed error."""
    kind = d % 5
    basis = [np.outer(np.eye(d)[i], np.eye(d)[i]) for i in range(d)]
    hollow = _gauss(rng, d, d)
    np.fill_diagonal(hollow, 0.0)
    hollow_doc = _doc("two_time_state", d, {"coeffs": _mat(hollow / np.linalg.norm(hollow))})
    if kind == 0:
        # Zero diagonal: every computational-basis outcome has zero weight.
        argv = ["prob", "--state", files.write(hollow_doc),
                "--measurement", files.write(_measurement([[b] for b in basis]))]
        return Op(argv, _rejected(3, "post-selection-impossible"))
    if kind == 1:
        # Hermitian, unit trace, one negative eigenvalue.
        q, _ = np.linalg.qr(_gauss(rng, d * d, d * d))
        lam = np.zeros(d * d)
        lam[:3] = (0.6, 0.6, -0.2)
        m = (q * lam) @ q.conj().T
        m = (m + m.conj().T) / 2.0
        path = files.write(_doc("density_vector", d, {"matrix": _mat(m)}))
        return Op(["check", "--eta", path], _rejected(2, "not-positive"))
    if kind == 2:
        # Traceless state: the identity contraction vanishes.
        obs = _doc("observable", d, {"matrix": _mat(_hermitian(rng, d))})
        argv = ["weak", "--state", files.write(hollow_doc), "--observable", files.write(obs)]
        return Op(argv, _rejected(3, "undefined-weak-value"))
    if kind == 3:
        # Kraus operators scaled below completeness.
        ops = [[0.9 * a] for a in _isometry_blocks(rng, d, d)]
        eta = _doc("density_vector", d, {"matrix": _mat(_density(rng, d, d))})
        argv = ["prob", "--eta", files.write(eta), "--measurement", files.write(_measurement(ops))]
        return Op(argv, _rejected(2, "incomplete-measurement"))
    # A document with its payload missing.
    bad = {k: v for k, v in hollow_doc.items() if k != "payload"}
    return Op(["check", "--eta", files.write(bad)], _rejected(2, "schema"))


POOLS = {
    "tomo_exact": tomo_exact,
    "tomo_sampled": tomo_sampled,
    "sim_policy": sim_policy,
    "doc_batch": doc_batch,
}


def build(name: str, seed: int, workdir: Path) -> list:
    """The op pool of workload ``name`` for ``seed``; documents go to ``workdir``."""
    rng = np.random.default_rng([seed, list(POOLS).index(name)])
    return POOLS[name](rng, _Files(workdir))
