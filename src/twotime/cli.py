"""Batch command-line interface.

Subcommands: ``prob``, ``tomography``, ``simulate``, ``weak``,
``check``, ``iso``, ``demo``.  Inputs are JSON documents (see
:mod:`twotime.io`); results go to stdout as JSON (default) or CSV
(``--format csv``, for ``prob`` and ``simulate``).  Diagnostics go to
stderr as JSON with a machine-readable error code.  Exit status: 0 on
success, 2 on validation errors, 3 on domain errors.  Floats are
printed with 17 significant digits (full double precision).  Where a
seed is required, ``--seed`` falls back to the ``TWOTIME_SEED``
environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .bipartite import (
    BipartiteDensity,
    density_to_bipartite,
    kdv_to_bipartite,
    measurement_partial_trace_defect,
)
from .core import DensityVector, KrausOperator, TwoTimeState, hermiticity_defect
from .errors import (
    DomainError,
    PostSelectionImpossibleError,
    SchemaError,
    TwoTimeError,
    ValidationError,
)
from .io import _complex_pairs, parse_document
from .measurements import Measurement, kraus_density_vector, partial_normalization_defect
from .montecarlo import (
    ObserverPolicy,
    SimConfig,
    _binomial_z,
    simulate,
    simulate_proportion_reversal,
)
from .probability import prob_coarse, prob_density, prob_ensemble, prob_pure
from .states import Ensemble, density_from_ensemble, ensemble_from_density, positivity_check
from .tomography import (
    build_tomography_set,
    predict_probabilities,
    reconstruct,
    sampling_clip_tol,
)
from .weak_values import weak_value_ensemble, weak_value_pure, weak_value_vector

__all__ = ["main", "run_cli"]

_ENV_SEED = "TWOTIME_SEED"


class _UsageError(ValidationError):
    code = "usage"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Output formatting: JSON with floats at 17 significant digits.

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return f"{x:.17g}"


def _dumps_floats(arr: np.ndarray) -> str:
    """A float64 array of ndim >= 1 as nested JSON arrays, in one pass.

    Prints the same bytes as the recursive path on ``arr.tolist()``:
    ``.17g`` digits, ``null`` for non-finite values, ``", "`` between
    elements.
    """
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
        return json.dumps(obj)
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
    if isinstance(x, (float, np.floating)):
        val = float(x)
        return "" if (math.isnan(val) or math.isinf(val)) else f"{val:.17g}"
    return str(x)


def _emit(args, payload: dict, csv_rows) -> None:
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise _UsageError("--format csv is not supported for this subcommand")
        header, rows = csv_rows
        lines = [",".join(header)]
        lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# Input helpers.

_KIND_TYPES = {
    "two_time_state": TwoTimeState,
    "ensemble": Ensemble,
    "density_vector": DensityVector,
    "measurement": Measurement,
    "observable": KrausOperator,
    "bipartite_density": BipartiteDensity,
}


def _load(path: str, kind: str, flag: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"{flag}: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{flag}: malformed JSON: {exc}") from exc
    obj = parse_document(text)
    expected = _KIND_TYPES[kind]
    if not isinstance(obj, expected):
        actual = next(
            (k for k, t in _KIND_TYPES.items() if isinstance(obj, t)), "operator_set"
        )
        raise ValidationError(
            f"{flag}: {path} holds a {actual!r} document, expected {kind!r}"
        )
    return obj


def _json_numbers(values: list, where: str) -> list:
    """``values`` as floats, or SchemaError unless every entry is a JSON number."""
    out = []
    for idx, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SchemaError(f"{where}[{idx}] is not a number: {x!r}")
        try:
            out.append(float(x))
        except OverflowError as exc:
            raise SchemaError(f"{where}[{idx}]: {exc}") from None
    return out


def _resolve_seed(seed, *, default: int | None = None) -> int:
    if seed is not None:
        value = seed
    elif os.environ.get(_ENV_SEED):
        raw = os.environ[_ENV_SEED]
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(f"{_ENV_SEED}={raw!r} is not an integer") from None
    elif default is not None:
        value = default
    else:
        raise _UsageError(f"--seed is required (or set {_ENV_SEED})")
    if not (0 <= value < 2**64):
        raise ValidationError(f"seed {value!r} is not a uint64")
    return value


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_prob(args) -> tuple[dict, tuple | None]:
    measurement = _load(args.measurement, "measurement", "--measurement")
    if args.state:
        if args.coarse:
            raise _UsageError("--coarse applies to --eta inputs only")
        state = _load(args.state, "two_time_state", "--state")
        probs = prob_pure(state, measurement)
        rule, dim = "pure", state.dim
    elif args.ensemble:
        if args.coarse:
            raise _UsageError("--coarse applies to --eta inputs only")
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
        "outcomes": [out.name for out in measurement.outcomes],
        "probabilities": np.asarray(probs, dtype=np.float64),
    }
    rows = [(i, float(p)) for i, p in enumerate(probs)]
    return payload, (("outcome_index", "probability"), rows)


def _cmd_tomography(args) -> tuple[dict, tuple | None]:
    dim = args.dim
    if dim < 1:
        raise ValidationError(f"--dim must be a positive integer, got {dim}")
    payload: dict = {"kind": "tomography", "dim": dim, "method": args.method}
    eta = None
    clip_tol = args.clip_tol
    if args.probs:
        if args.shots is not None or args.seed is not None:
            raise _UsageError("--shots/--seed apply to --eta inputs only")
        try:
            with open(args.probs, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"--probs: cannot read {args.probs}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"--probs: malformed JSON: {exc}") from exc
        if isinstance(raw, dict):
            raw = raw.get("probabilities")
        if not isinstance(raw, list):
            raise SchemaError(
                "--probs: expected a JSON array or an object with a 'probabilities' array"
            )
        probs = np.asarray(_json_numbers(raw, "--probs: probabilities"), dtype=float)
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
            if args.shots < 1:
                raise ValidationError(f"--shots must be >= 1, got {args.shots}")
            seed = _resolve_seed(args.seed)
            ensemble = ensemble_from_density(eta)
            result = simulate(SimConfig.fixed(ensemble, ts.measurement, args.shots, seed))
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
                seed=seed,
                successes=result.successes,
            )
        payload["probabilities"] = np.asarray(probs, dtype=np.float64)
    if clip_tol is None:
        rec = reconstruct(probs, dim, method=args.method)
    else:
        rec = reconstruct(probs, dim, method=args.method, clip_tol=clip_tol)
    payload["reconstruction"] = _complex_pairs(rec.mat)
    if eta is not None:
        payload["round_trip_error"] = float(np.linalg.norm(rec.mat - eta.mat))
    return payload, None


def _policy_from_file(path: str) -> ObserverPolicy:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"--policy: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"--policy: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("--policy: expected an object with 'choice_probs' and 'measurements'")
    probs = raw.get("choice_probs")
    docs = raw.get("measurements")
    if not isinstance(probs, list) or not isinstance(docs, list):
        raise SchemaError("--policy: expected 'choice_probs' and 'measurements' arrays")
    measurements = []
    for idx, doc in enumerate(docs):
        obj = parse_document(doc)
        if not isinstance(obj, Measurement):
            raise ValidationError(f"--policy: measurements[{idx}] is not a measurement document")
        measurements.append(obj)
    return ObserverPolicy(tuple(measurements), tuple(_json_numbers(probs, "--policy: choice_probs")))


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
    if args.shots < 1:
        raise ValidationError(f"--shots must be >= 1, got {args.shots}")
    seed = _resolve_seed(args.seed)
    result = simulate(SimConfig(ensemble, policy, args.shots, seed))

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
                "name": m.outcomes[mu].name,
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
        "seed": seed,
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
            "hermiticity_defect": hermiticity_defect(eta.mat),
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
        ops = [kdv_to_bipartite(kraus_density_vector(out)) for out in m.outcomes]
        payload = {
            "kind": "bipartite_image",
            "object": "measurement",
            "dim": m.dim,
            "operators": [_complex_pairs(op.op) for op in ops],
            "partial_trace_defect": measurement_partial_trace_defect(ops),
        }
    return payload, None


def _cmd_demo(args) -> tuple[dict, tuple | None]:
    if args.shots < 1:
        raise ValidationError(f"--shots must be >= 1, got {args.shots}")
    seed = _resolve_seed(args.seed, default=7)
    report = simulate_proportion_reversal(shots=args.shots, seed=seed)
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
    p_tomo.add_argument("--method", choices=("polarization", "lstsq"), default="polarization")
    p_tomo.add_argument("--clip-tol", type=float, dest="clip_tol",
                        help="positivity rejection gate (default: exact-data 1e-6; "
                             "scaled automatically when sampling with --shots)")
    p_tomo.set_defaults(handler=_cmd_tomography)

    p_sim = sub.add_parser("simulate", help="run the preparation/post-selection protocol")
    p_sim.add_argument("--ensemble", required=True, help="ensemble document")
    p_sim.add_argument("--measurement", help="measurement document (fixed policy)")
    p_sim.add_argument("--policy", help="JSON file with choice_probs and measurement documents")
    p_sim.add_argument("--shots", type=int, required=True)
    p_sim.add_argument("--seed", type=int)
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
    p_demo.add_argument("--seed", type=int)
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
