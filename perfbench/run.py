#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``twotime`` batch CLI.

Usage, from the root of a twotime checkout::

    python3 perfbench/run.py --workload tomo_exact --seed 1 --seconds 38 --trace 0

Each workload (see ``workloads.py``) is a closed loop with one client in
one process: the next ``twotime.cli.run_cli(argv)`` call starts when the
previous one has returned.  Its stdout and stderr are captured, and its
output is checked against reference values outside the timed region.
The BLAS thread count is left at the library default and recorded.

``BENCHMARK.json`` gates ``tomo_exact``, ``sim_policy`` and ``doc_batch``.
``tomo_sampled`` runs the same way when named, but is left out of it:
on a shared two-core host, latency drifts by tens of percent over
10-20 second spans, so fewer, longer runs are needed to keep repeated
measurements within their bounds, and every module is still timed by
the other three.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
of ``--seconds`` untraced and half traced (whole cycles of the input
pool), then reports per-layer metrics from spans recorded around calls
into each module (``spans.py``) and the tracing overhead.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the environment and a
sha256 of the program's stdout over one pass of the input pool, is
written to ``perfbench/out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes started per run to time set-up; the median is reported.
SETUP_RUNS = 5
#: Seconds a set-up process may take before it counts as hung.
SETUP_TIMEOUT = 120

WORKLOADS = ("tomo_exact", "tomo_sampled", "sim_policy", "doc_batch")

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

NO_WAIT_NOTE = ("no queue and no second client: no layer waits for another, "
                "so there is no wait-time metric")


def per_layer_metrics() -> tuple:
    """(name, unit) of every per-layer metric, reported with ``--trace 1``."""
    from spans import SPAN_NAMES

    metrics = []
    for span in SPAN_NAMES:
        metrics += [(f"{span}.calls", "count"), (f"{span}.self_ms", "ms")]
        if span == "cli.run_cli":
            metrics.append(("cli.stdout_bytes", "B"))
        elif span == "io.parse_document":
            metrics.append(("io.parse_document.bytes_in", "B"))
        elif span == "tomography.build_tomography_set":
            metrics.append(("tomography.build_tomography_set.operators", "count"))
        elif span == "tomography.predict_probabilities":
            metrics.append(("tomography.predict_probabilities.bytes_computed", "B"))
        elif span == "montecarlo.simulate":
            metrics += [
                ("montecarlo.simulate.shots_per_s", "1/s"),
                ("montecarlo.simulate.groups", "count"),
                ("montecarlo.simulate.branches", "count"),
                ("montecarlo.acceptance", "ratio"),
                ("montecarlo.acceptance_vs_analytic", "ratio"),
            ]
    metrics += [
        ("trace.ops_per_s", "1/s"),
        ("trace.slowdown", "ratio"),
        ("trace.accounted", "ratio"),
    ]
    return tuple(metrics)


# ---------------------------------------------------------------------------
# Environment.

def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running ops.

class Tally:
    """What one loop of ops measured and checked."""

    def __init__(self) -> None:
        self.latencies = []
        self.failed = 0
        self.failures = []
        self.stdout_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def ops_per_s(self) -> float:
        return self.ok / sum(self.latencies)


def run_op(op, break_check: bool = False):
    """One ``run_cli`` call: (seconds, stdout, failure reason or None)."""
    cli = sys.modules["twotime.cli"]  # looked up per call so a traced wrapper is used
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run_cli(op.argv)
        except Exception as exc:  # an untyped error escaped the CLI: a failed op
            code, failure = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if failure is None:
        failure = op.check(code + 1 if break_check else code, out.getvalue(), err.getvalue())
    return elapsed, out.getvalue(), failure


def run_loop(ops, seconds: float, tally: Tally, *, break_check=False, whole_cycles=False,
             on_op=None, digest=None) -> None:
    """Replay ``ops`` round-robin for ``seconds`` (then finish the cycle if asked).

    ``digest`` receives the stdout of the first pass over ``ops``.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (whole_cycles and (i == 0 or i % len(ops))):
        op = ops[i % len(ops)]
        if on_op is not None:
            on_op.start(i)
        elapsed, out, failure = run_op(op, break_check)
        if on_op is not None:
            on_op.finish(op)
        tally.latencies.append(elapsed)
        tally.stdout_bytes += len(out.encode("utf-8"))
        if failure is not None:
            tally.failed += 1
            if len(tally.failures) < 5:
                tally.failures.append({"argv": op.argv[0], "reason": failure})
        if digest is not None and i < len(ops):
            digest.update(out.encode("utf-8"))
        i += 1


# ---------------------------------------------------------------------------
# Set-up.

@contextlib.contextmanager
def workdir():
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(workload: str, seed: int) -> int:
    """Body of one fresh set-up process: import, build inputs, one warm-up op."""
    import workloads

    with workdir() as path:
        ops = workloads.build(workload, seed, path)
        run_op(ops[0])
        print("ready", flush=True)
    return 0


def time_setup(workload: str, seed: int) -> list:
    """Seconds from process start to the first op being ready, per fresh process."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = ""
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
        finally:
            if not line:
                proc.kill()
            proc.wait(timeout=SETUP_TIMEOUT)
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end(tally: Tally, setup: list) -> dict:
    lat_ms = [t * 1000.0 for t in tally.latencies]
    n = tally.attempted
    return {
        "ops_per_s": (tally.ops_per_s(), f"{tally.ok} ops / timed wall time"),
        "latency_p50_ms": (statistics.median(lat_ms), f"{n} ops"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)),
                           f"{n} ops, {n - int(0.9 * n)} beyond"),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh processes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "max RSS of this process"),
        "ok_ratio": (tally.ok / n, f"{n} attempted, error_rate {tally.failed / n:.4g}"),
    }


class OpTracer:
    """Marks op boundaries for the tracer and sums the analytic acceptance."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.analytic_successes = 0.0

    def start(self, i: int) -> None:
        self.tracer.op_id = i

    def finish(self, op) -> None:
        before = self.tracer.counters["montecarlo.simulate.attempts"]
        self.tracer.end_op()
        if op.analytic_success is not None:
            attempts = self.tracer.counters["montecarlo.simulate.attempts"] - before
            self.analytic_successes += attempts * op.analytic_success


def per_layer(tracer, marks: OpTracer, traced: Tally, untraced: Tally) -> dict:
    n = traced.attempted
    layers = tracer.per_name()
    c = tracer.counters
    out = {}
    for span, (calls, busy) in layers.items():
        out[f"{span}.calls"] = (calls / n, f"per op, {calls} calls in {n} ops")
        out[f"{span}.self_ms"] = (busy * 1000.0 / n, "per op, busy minus child spans")
    sim_calls, sim_busy = layers["montecarlo.simulate"]
    attempts, successes = c["montecarlo.simulate.attempts"], c["montecarlo.simulate.successes"]
    acceptance = successes / attempts if attempts else 0.0
    analytic = marks.analytic_successes / attempts if attempts else 0.0
    out.update({
        "cli.stdout_bytes": (traced.stdout_bytes / n, "per op"),
        "io.parse_document.bytes_in": (c["io.parse_document.bytes_in"] / n, "per op"),
        "tomography.build_tomography_set.operators": (
            c["tomography.build_tomography_set.operators"] / n, "per op, counted"),
        "tomography.predict_probabilities.bytes_computed": (
            c["tomography.predict_probabilities.bytes_computed"] / n,
            "per op, computed from array sizes, not measured"),
        "montecarlo.simulate.shots_per_s": (
            attempts / sim_busy if sim_busy else 0.0, "attempts / simulate self time"),
        "montecarlo.simulate.groups": (
            c["montecarlo.simulate.groups"] / sim_calls if sim_calls else 0.0,
            "choices x members, per simulate call"),
        "montecarlo.simulate.branches": (
            c["montecarlo.simulate.branches"] / sim_calls if sim_calls else 0.0,
            "Kraus branches, per simulate call"),
        "montecarlo.acceptance": (
            acceptance, f"{int(successes)} successes / {int(attempts)} attempts"),
        "montecarlo.acceptance_vs_analytic": (
            acceptance / analytic if analytic else 0.0, "acceptance / analytic_success_rate"),
    })
    busy_total = sum(busy for _, busy in layers.values())
    out.update({
        "trace.ops_per_s": (traced.ops_per_s(), f"{traced.ok} traced ops"),
        "trace.slowdown": (untraced.ops_per_s() / traced.ops_per_s(),
                           f"untraced {untraced.ops_per_s():.4g} ops/s over traced"),
        "trace.accounted": (busy_total / sum(traced.latencies),
                            "sum of self times / traced op wall time"),
    })
    return out


# ---------------------------------------------------------------------------
# Entry point.

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--break-check", action="store_true",
                        help="hand every output check a wrong exit status (smoke check only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _print_table(metrics: dict, units: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, samples) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]:<6} ({samples})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twotime" / "__init__.py").is_file():
        print(f"error: no twotime sources under {SRC}; run from a twotime checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twotime.cli  # noqa: F401 - the entry point under test, called by run_op

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads

    env = environment(args.seed)
    setup = [] if args.trace else time_setup(args.workload, args.seed)
    tally = Tally()
    digest = hashlib.sha256()
    with workdir() as path:
        ops = workloads.build(args.workload, args.seed, path)
        run_op(ops[0])  # warm-up; the same input is checked again in the loop
        if not args.trace:
            run_loop(ops, args.seconds, tally, break_check=args.break_check, digest=digest)
            metrics = end_to_end(tally, setup)
            units = dict(END_TO_END)
        else:
            from spans import Tracer

            run_loop(ops, args.seconds / 2, tally, break_check=args.break_check, digest=digest)
            tracer = Tracer()
            marks = OpTracer(tracer)
            traced = Tally()
            tracer.install()
            try:
                run_loop(ops, args.seconds / 2, traced, break_check=args.break_check,
                         whole_cycles=True, on_op=marks)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, marks, traced, tally)
            units = dict(per_layer_metrics())
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write_csv(OUT / f"{args.workload}.spans.csv")
            tally.latencies += traced.latencies
            tally.failed += traced.failed
            tally.failures += traced.failures

    print(f"twotime benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("closed loop, 1 client, 1 process; environment: " + json.dumps(env))
    print(f"stdout sha256 over one pass of {len(ops)} inputs: {digest.hexdigest()}")
    if args.trace:
        print(f"per-layer metrics over {traced.attempted} traced ops; {NO_WAIT_NOTE}")
    _print_table(metrics, units)
    print(f"  error_rate      {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures:
        print(f"  failed: {failure['argv']}: {failure['reason']}")

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "stdout_sha256": digest.hexdigest(), "pool_size": len(ops),
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": units[k], "samples": s}
                    for k, (v, s) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
