#!/usr/bin/env python3
"""Smoke check of the benchmark itself: a few ops per workload.

Run from the root of a twotime checkout::

    python3 perfbench/smoke.py

For every workload, including ``tomo_sampled``, which ``BENCHMARK.json``
leaves out, it asserts that a short run, untraced and traced, prints
every metric listed in ``BENCHMARK.json`` with its unit and fails no op,
and it prints those metric tables.  It also asserts that a run whose
output checks are deliberately wrong (``--break-check``) reports a
failed op and an error rate above 0, and that the benchmark refuses to
run, without printing a result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.  Exits 0 when every
assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 300


def run(*args, cwd=ROOT) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT)
    return proc.returncode, proc.stdout, proc.stderr


def result(workload: str, trace: int, *extra) -> tuple:
    code, out, err = run("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), *extra)
    assert code == 0, f"{workload} trace {trace}: exit {code}\n{err}"
    lines = out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    return last, "\n".join(lines[:-1])


def check_metrics(workload: str, trace: int, spec: list) -> None:
    last, text = result(workload, trace)
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics differ from BENCHMARK.json"
    for name, unit in want.items():
        line = next((ln for ln in text.splitlines() if ln.split()[:1] == [name]), "")
        assert f" {unit} " in line, f"{workload}: {name} not printed with unit {unit}"
    assert any(ln.split()[:1] == ["error_rate"] and " ratio " in ln for ln in text.splitlines())
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
    print(text)
    print(f"ok  {workload} trace {trace}: {len(want)} metrics, {last['attempted']} ops\n")


def check_broken(workload: str) -> None:
    last, _ = result(workload, 0, "--break-check")
    ok_ratio = last["metrics"]["ok_ratio"]["value"]
    assert not last["correct"] and last["failed"] > 0 and ok_ratio < 1.0, last
    print(f"ok  {workload} --break-check: error_rate {1.0 - ok_ratio:.3g}")


def check_bare() -> None:
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        code, out, _ = run("--workload", "doc_batch", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and '"metrics"' not in out, (code, out)
    print(f"ok  without the sources: exit {code}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        check_metrics(workload, 0, spec["end_to_end"])
        check_metrics(workload, 1, spec["per_layer"])
        check_broken(workload)
    check_bare()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
