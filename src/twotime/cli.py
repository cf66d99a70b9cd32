"""Batch command-line interface.

Subcommands: ``prob``, ``tomography``, ``simulate``, ``weak``,
``check``, ``iso``, ``demo``.  Inputs are JSON documents (see
:mod:`twotime.io`); results go to stdout as JSON (default) or CSV
(``--format csv``, for ``prob`` and ``simulate``).  Diagnostics go to
stderr as JSON with a machine-readable error code.  Exit status: 0 on
success, 2 on validation errors, 3 on domain errors.  Floats are
printed with 17 significant digits (full double precision).
``simulate`` and ``tomography --shots`` require ``--seed``; ``demo``
uses seed 7 without one.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from ._floattext import dumps_array
from .bipartite import _outcome_images, density_to_bipartite, measurement_partial_trace_defect
from .core import PSD_CLIP_TOL, _check_budget, _hermiticity_defect
from .errors import (
    DomainError,
    PostSelectionImpossibleError,
    SchemaError,
    TwoTimeError,
    ValidationError,
)
from .io import _complex_pairs, _kind_of, _loads, _numbers, _wrap, parse_document
from .measurements import Measurement, partial_normalization_defect
from .montecarlo import (
    ObserverPolicy,
    SimConfig,
    _binomial_z,
    simulate,
    simulate_proportion_reversal,
)
from .probability import prob_coarse, prob_density, prob_ensemble, prob_pure
from .states import density_from_ensemble, ensemble_from_density, positivity_check
from .tomography import (
    build_tomography_set,
    predict_probabilities,
    reconstruct,
    sampling_clip_tol,
)
from .weak_values import weak_value_ensemble, weak_value_pure, weak_value_vector

__all__ = ["main", "run_cli"]


class _UsageError(ValidationError):
    code = "usage"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Output formatting: JSON with floats at 17 significant digits.

#: Smallest array printed by the vectorized writer.  Its fixed cost is
#: about 200 us and the per-element path's about 1.1-1.4 us a value
#: (2-vCPU x86-64 host, Python 3.11, numpy 2.4), so the two break even
#: between about 130 and 320 values, depending on shape.
_VECTOR_MIN_SIZE = 256


def _fmt_float(x: float, non_finite: str = "null") -> str:
    return f"{x:.17g}" if math.isfinite(x) else non_finite


def _dumps_floats(arr: np.ndarray) -> str:
    """A float64 array of ndim >= 1 as nested JSON arrays, in one pass.

    Prints the same bytes as the recursive path on ``arr.tolist()``:
    ``.17g`` digits, ``null`` for non-finite values, ``", "`` between
    elements.  Arrays of at least ``_VECTOR_MIN_SIZE`` values go through
    the exact vectorized writer first; it declines (and this per-element
    path prints) non-finite, out-of-domain and near-tie arrays.
    """
    if arr.size >= _VECTOR_MIN_SIZE:
        text = dumps_array(arr)
        if text is not None:
            return text
    fmt = "{:.17g}".format if np.isfinite(arr).all() else _fmt_float
    parts = list(map(fmt, arr.ravel().tolist()))
    shape = arr.shape
    for axis in range(arr.ndim - 1, 0, -1):
        n = shape[axis]
        parts = ["[" + ", ".join(parts[g * n:(g + 1) * n]) + "]"
                 for g in range(math.prod(shape[:axis]))]
    return "[" + ", ".join(parts) + "]"


def _dumps(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps calls for a str
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(x) for x in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim:
            return _dumps_floats(obj)
        return _dumps(obj.tolist())
    if isinstance(obj, dict):
        items = (f"{_dumps(str(k))}: {_dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(x) -> str:
    return _fmt_float(float(x), "") if isinstance(x, (float, np.floating)) else str(x)


def _emit(args, payload: dict, csv_rows) -> None:
    if getattr(args, "format", "json") == "csv":
        header, rows = csv_rows
        lines = [",".join(header)]
        lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# Input helpers.

def _read_json(path: str, flag: str):
    """The JSON value of the UTF-8 file at ``path``; a read or decode failure names ``flag``.

    Decoding builds 3 to 4 bytes of objects a byte of 17-digit text, so a file is read
    only if 4 times its size fits core's allocation budget (a file of up to 32 MiB).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            size = os.fstat(fh.fileno()).st_size
            _check_budget(4 * size, f"{flag}: the objects decoded from the {size} bytes of {path}")
            return _loads(fh.read())
    except OSError as exc:
        raise ValidationError(f"{flag}: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, malformed or too deeply nested JSON
        raise SchemaError(f"{flag}: malformed JSON: {exc}") from exc


def _load(path: str, kind: str, flag: str):
    obj = parse_document(_read_json(path, flag))
    actual = _kind_of(obj)
    if actual != kind:
        raise ValidationError(
            f"{flag}: {path} holds a {actual!r} document, expected {kind!r}"
        )
    return obj


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_prob(args) -> tuple[dict, tuple | None]:
    if args.coarse and not args.eta:
        raise _UsageError("--coarse applies to --eta inputs only")
    measurement = _load(args.measurement, "measurement", "--measurement")
    if args.state:
        state = _load(args.state, "two_time_state", "--state")
        probs = prob_pure(state, measurement)
        rule, dim = "pure", state.dim
    elif args.ensemble:
        ensemble = _load(args.ensemble, "ensemble", "--ensemble")
        probs = prob_ensemble(ensemble, measurement)
        rule, dim = "ensemble", ensemble.dim
    else:
        eta = _load(args.eta, "density_vector", "--eta")
        if args.coarse:
            probs = prob_coarse(eta, measurement)
            rule = "coarse"
        else:
            probs = prob_density(eta, measurement)
            rule = "density"
        dim = eta.dim
    payload = {
        "kind": "probabilities",
        "rule": rule,
        "dim": dim,
        "outcomes": measurement.names,
        "probabilities": np.asarray(probs, dtype=np.float64),
    }
    rows = [(i, float(p)) for i, p in enumerate(probs)]
    return payload, (("outcome_index", "probability"), rows)


def _cmd_tomography(args) -> tuple[dict, tuple | None]:
    dim = args.dim
    payload: dict = {"kind": "tomography", "dim": dim, "method": "polarization"}
    eta = None
    clip_tol = args.clip_tol
    if args.probs:
        if args.shots is not None or args.seed is not None:
            raise _UsageError("--shots/--seed apply to --eta inputs only")
        raw = _read_json(args.probs, "--probs")
        if isinstance(raw, dict):
            raw = raw.get("probabilities")
        if not isinstance(raw, list):
            raise SchemaError(
                "--probs: expected a JSON array or an object with a 'probabilities' array"
            )
        probs = _numbers(raw, "--probs: probabilities[{}]".format)
        payload["source"] = "file"
    else:
        eta = _load(args.eta, "density_vector", "--eta")
        if eta.dim != dim:
            raise ValidationError(f"--eta: document dimension {eta.dim} != --dim {dim}")
        ts = build_tomography_set(dim)
        if args.shots is None:
            if args.seed is not None:
                raise _UsageError("--seed requires --shots")
            probs = predict_probabilities(eta, ts)
            payload["source"] = "analytic"
        else:
            if args.seed is None:
                raise _UsageError("--shots requires --seed")
            ensemble = ensemble_from_density(eta)
            result = simulate(SimConfig.fixed(ensemble, ts.measurement, args.shots, args.seed))
            if result.successes == 0:
                raise PostSelectionImpossibleError(
                    "no attempts survived post-selection; increase --shots"
                )
            probs = result.frequencies
            if clip_tol is None:
                clip_tol = sampling_clip_tol(dim, result.successes)
            payload.update(
                source="sampled",
                shots=args.shots,
                seed=args.seed,
                successes=result.successes,
            )
        payload["probabilities"] = np.asarray(probs, dtype=np.float64)
    rec = reconstruct(probs, dim, clip_tol=PSD_CLIP_TOL if clip_tol is None else clip_tol)
    payload["reconstruction"] = _complex_pairs(rec.mat)
    if eta is not None:
        payload["round_trip_error"] = float(np.linalg.norm(rec.mat - eta.mat))
    return payload, None


def _policy_from_file(path: str) -> ObserverPolicy:
    raw = _read_json(path, "--policy")
    if not isinstance(raw, dict):
        raise SchemaError("--policy: expected an object with 'choice_probs' and 'measurements'")
    probs = raw.get("choice_probs")
    docs = raw.get("measurements")
    if not isinstance(probs, list) or not isinstance(docs, list):
        raise SchemaError("--policy: expected 'choice_probs' and 'measurements' arrays")
    measurements = []
    for idx, doc in enumerate(docs):
        try:
            obj = parse_document(doc)
        except TwoTimeError as exc:
            raise _wrap(f"--policy: measurements[{idx}]", exc) from exc
        if not isinstance(obj, Measurement):
            raise ValidationError(f"--policy: measurements[{idx}] is not a measurement document")
        measurements.append(obj)
    return ObserverPolicy(tuple(measurements), _numbers(probs, "--policy: choice_probs[{}]".format))


def _cmd_simulate(args) -> tuple[dict, tuple | None]:
    ensemble = _load(args.ensemble, "ensemble", "--ensemble")
    if args.policy:
        if args.measurement:
            raise _UsageError("--measurement and --policy are mutually exclusive")
        policy = _policy_from_file(args.policy)
    elif args.measurement:
        policy = ObserverPolicy.fixed(_load(args.measurement, "measurement", "--measurement"))
    else:
        raise _UsageError("one of --measurement or --policy is required")
    result = simulate(SimConfig(ensemble, policy, args.shots, args.seed))

    eta = density_from_ensemble(ensemble)
    choices = []
    multi = len(policy.measurements) > 1
    csv_rows = []
    for c, m in enumerate(policy.measurements):
        targets = prob_coarse(eta, m)
        successes_c = result.successes_for(c)
        freqs = result.frequencies_for(c)
        counts = result.outcome_counts_for(c)
        outcomes = []
        for mu in range(m.n_outcomes):
            # A degenerate z is inf, which JSON writes as null and CSV as "".
            z = _binomial_z(float(freqs[mu]), float(targets[mu]), successes_c)
            outcomes.append({
                "index": mu,
                "name": m.names[mu],
                "count": int(counts[mu]),
                "frequency": float(freqs[mu]),
                "analytic": float(targets[mu]),
                "z": z,
            })
            row = (mu, int(counts[mu]), float(freqs[mu]), float(targets[mu]), z)
            csv_rows.append(((c,) + row) if multi else row)
        choices.append({
            "index": c,
            "choice_prob": float(policy.choice_probs[c]),
            "successes": successes_c,
            "outcomes": outcomes,
        })
    payload = {
        "kind": "simulation",
        "dim": ensemble.dim,
        "shots": args.shots,
        "seed": args.seed,
        "attempts": result.attempts,
        "successes": result.successes,
        "choices": choices,
    }
    header = ("outcome_index", "count", "frequency", "analytic", "z")
    if multi:
        header = ("choice_index",) + header
    return payload, (header, csv_rows)


def _cmd_weak(args) -> tuple[dict, tuple | None]:
    obs = _load(args.observable, "observable", "--observable")
    if args.state:
        state = _load(args.state, "two_time_state", "--state")
        value = weak_value_pure(obs, state)
        payload = {
            "kind": "weak_value",
            "rule": "pure",
            "dim": state.dim,
            "weak_value": _complex_pairs(value),
        }
    else:
        eta = _load(args.eta, "density_vector", "--eta")
        value = weak_value_ensemble(obs, eta)
        wvv = weak_value_vector(eta)
        payload = {
            "kind": "weak_value",
            "rule": "ensemble",
            "dim": eta.dim,
            "weak_value": _complex_pairs(value),
            "weak_value_vector": _complex_pairs(wvv.coeffs),
        }
    return payload, None


def _cmd_check(args) -> tuple[dict, tuple | None]:
    if args.eta:
        eta = _load(args.eta, "density_vector", "--eta")
        positive, min_eig = positivity_check(eta)
        payload = {
            "kind": "check",
            "object": "density_vector",
            "dim": eta.dim,
            "trace": float(np.trace(eta.mat).real),
            "hermiticity_defect": _hermiticity_defect(eta.mat),
            "min_eigenvalue": min_eig,
            "positive": positive,
        }
    else:
        m = _load(args.measurement, "measurement", "--measurement")
        payload = {
            "kind": "check",
            "object": "measurement",
            "dim": m.dim,
            "outcomes": m.n_outcomes,
            "detailed": m.is_detailed,
            "complete": m.is_complete,
            "completeness_defect": m.completeness_defect,
            "partial_normalization_defect": partial_normalization_defect(m),
        }
    return payload, None


def _cmd_iso(args) -> tuple[dict, tuple | None]:
    if args.eta:
        eta = _load(args.eta, "density_vector", "--eta")
        rho = density_to_bipartite(eta)
        payload = {
            "kind": "bipartite_image",
            "object": "density_vector",
            "dim": eta.dim,
            "matrix": _complex_pairs(rho.rho),
        }
    else:
        m = _load(args.measurement, "measurement", "--measurement")
        images = _outcome_images(m)
        payload = {
            "kind": "bipartite_image",
            "object": "measurement",
            "dim": m.dim,
            "operators": _complex_pairs(images),
            "partial_trace_defect": measurement_partial_trace_defect(images),
        }
    return payload, None


def _cmd_demo(args) -> tuple[dict, tuple | None]:
    report = simulate_proportion_reversal(shots=args.shots, seed=args.seed)
    payload = {
        "kind": "demo",
        "scenario": "proportion-reversal",
        "dim": 2,
        "shots": report.shots,
        "seed": report.seed,
        "attempts": report.result.attempts,
        "successes": report.result.successes,
        "member_counts": report.member_counts,
        "conditional_proportions": report.conditional_proportions,
        "expected_conditional": report.expected_conditional,
        "conditional_z": report.conditional_z,
        "overall_proportions": report.overall_proportions,
        "overall_z": report.overall_z,
        "outcome_frequencies": [list(map(float, f)) for f in report.outcome_frequencies],
        "outcome_targets": [list(map(float, t)) for t in report.outcome_targets],
        "outcome_z": [list(map(float, z)) for z in report.outcome_z],
        "separation": report.separation,
        "separation_expected": report.separation_expected,
        "discard_demo": {
            "seed": report.discard.seed,
            "member_counts": report.discard.member_counts,
            "kept": report.discard.kept,
            "kept_proportions": report.discard.kept_proportions,
            "z": report.discard.z,
            "equalized": report.discard.equalized,
        },
        "within_tolerance": report.proportions_within_tolerance,
        "proportions_differ": report.proportions_differ,
        "consistent": report.consistent,
    }
    return payload, None


# ---------------------------------------------------------------------------
# Parser assembly and dispatch.

@functools.cache
def _build_parser() -> _Parser:
    """The argument parser; built once per process (it holds no per-call state)."""
    parser = _Parser(prog="twotime", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_prob = sub.add_parser("prob", help="outcome probabilities of a measurement")
    src = p_prob.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", help="two_time_state document")
    src.add_argument("--ensemble", help="ensemble document")
    src.add_argument("--eta", help="density_vector document")
    p_prob.add_argument("--measurement", required=True, help="measurement document")
    p_prob.add_argument("--coarse", action="store_true",
                        help="use the coarse-grained pairing rule (with --eta)")
    p_prob.add_argument("--format", choices=("json", "csv"), default="json")
    p_prob.set_defaults(handler=_cmd_prob)

    p_tomo = sub.add_parser("tomography", help="predict and invert tomography statistics")
    p_tomo.add_argument("--dim", type=int, required=True)
    src = p_tomo.add_mutually_exclusive_group(required=True)
    src.add_argument("--eta", help="density_vector document to round-trip")
    src.add_argument("--probs", help="JSON file of 4 d^4 probabilities")
    p_tomo.add_argument("--shots", type=int, help="sample frequencies instead of exact values")
    p_tomo.add_argument("--seed", type=int)
    p_tomo.add_argument("--clip-tol", type=float, dest="clip_tol",
                        help="positivity rejection gate (default: exact-data 1e-6; "
                             "scaled automatically when sampling with --shots)")
    p_tomo.set_defaults(handler=_cmd_tomography)

    p_sim = sub.add_parser("simulate", help="run the preparation/post-selection protocol")
    p_sim.add_argument("--ensemble", required=True, help="ensemble document")
    p_sim.add_argument("--measurement", help="measurement document (fixed policy)")
    p_sim.add_argument("--policy", help="JSON file with choice_probs and measurement documents")
    p_sim.add_argument("--shots", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_weak = sub.add_parser("weak", help="weak value of an observable")
    src = p_weak.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", help="two_time_state document")
    src.add_argument("--eta", help="density_vector document")
    p_weak.add_argument("--observable", required=True, help="observable document")
    p_weak.set_defaults(handler=_cmd_weak)

    p_check = sub.add_parser("check", help="positivity/completeness report")
    src = p_check.add_mutually_exclusive_group(required=True)
    src.add_argument("--eta", help="density_vector document")
    src.add_argument("--measurement", help="measurement document")
    p_check.set_defaults(handler=_cmd_check)

    p_iso = sub.add_parser("iso", help="bipartite images and normalization defects")
    src = p_iso.add_mutually_exclusive_group(required=True)
    src.add_argument("--eta", help="density_vector document")
    src.add_argument("--measurement", help="measurement document")
    p_iso.set_defaults(handler=_cmd_iso)

    p_demo = sub.add_parser("demo", help="scripted demonstration scenarios")
    p_demo.add_argument("target", choices=("proportion-reversal",))
    p_demo.add_argument("--shots", type=int, default=100_000)
    p_demo.add_argument("--seed", type=int, default=7)
    p_demo.set_defaults(handler=_cmd_demo)

    return parser


def _emit_error(exc: TwoTimeError) -> None:
    sys.stderr.write(
        _dumps({"error": {"code": exc.code, "message": str(exc)}}) + "\n"
    )


def run_cli(argv=None) -> int:
    """Parse ``argv``, run one subcommand, return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, csv_rows = args.handler(args)
        _emit(args, payload, csv_rows)
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except DomainError as exc:
        _emit_error(exc)
        return 3
    except TwoTimeError as exc:
        _emit_error(exc)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
