"""Spans around calls into each ``twotime`` layer, recorded from outside.

:class:`Tracer` wraps the public functions and constructors listed in
:data:`LAYERS`.  A function is replaced under every name any ``twotime``
module binds it to (``twotime.cli`` and several library modules import
with ``from ... import``); a class gets a wrapped ``__init__``, which
covers every binding at once.  Each call records one span: name, start,
end, parent span and op id.  Spans stay in memory until the run ends.

Some wrapped calls also feed counters (bytes parsed, operators built,
simulator attempts).  Those are computed after the op, outside every
span, from the call's arguments and result.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

#: Layer module -> public names whose calls are timed.
LAYERS = {
    "cli": ("run_cli",),
    "io": ("parse_document",),
    "core": ("DensityVector", "KrausOperator", "TwoTimeState"),
    "states": ("Ensemble", "density_from_ensemble", "ensemble_from_density"),
    "measurements": ("Measurement", "check_completeness", "kraus_density_vector"),
    "probability": ("prob_pure", "prob_ensemble", "prob_density", "prob_coarse"),
    "tomography": ("build_tomography_set", "predict_probabilities", "reconstruct"),
    "weak_values": ("weak_value_pure", "weak_value_ensemble", "weak_value_vector"),
    "bipartite": ("density_to_bipartite", "kdv_to_bipartite",
                  "measurement_partial_trace_defect"),
    "montecarlo": ("SimConfig", "simulate"),
}

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)


def _bytes_in(args, result) -> dict:
    doc = args[0]
    if isinstance(doc, str):
        size = len(doc.encode("utf-8"))
    elif isinstance(doc, bytes):
        size = len(doc)
    else:  # an already-loaded dict (policy files); size of its JSON text
        size = len(json.dumps(doc).encode("utf-8"))
    return {"io.parse_document.bytes_in": size}


def _operators(args, result) -> dict:
    return {"tomography.build_tomography_set.operators": result.n_outcomes}


def _bytes_computed(args, result) -> dict:
    # The stacked einsum reads the (m, d^2) operator stack twice (once
    # conjugated), reads the (d^2, d^2) density array, and writes m reals.
    eta, ts = args[0], args[1]
    m, n = ts.n_outcomes, eta.mat.shape[0]
    return {"tomography.predict_probabilities.bytes_computed": 16 * (2 * m * n + n * n) + 8 * m}


def _simulation(args, result) -> dict:
    cfg = args[0]
    policy = cfg.policy.measurements
    return {
        "montecarlo.simulate.attempts": result.attempts,
        "montecarlo.simulate.successes": result.successes,
        "montecarlo.simulate.groups": len(policy) * len(cfg.ensemble.members),
        "montecarlo.simulate.branches": sum(len(o.kraus) for m in policy for o in m.outcomes),
    }


COUNTERS = {
    "io.parse_document": _bytes_in,
    "tomography.build_tomography_set": _operators,
    "tomography.predict_probabilities": _bytes_computed,
    "montecarlo.simulate": _simulation,
}


class Tracer:
    """Records spans for wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.counters = defaultdict(float)
        self._stack = []
        self._pending = []
        self._restore = []

    def _wrap(self, span: str, fn):
        name_id = self.name_ids[span]
        counter = COUNTERS.get(span)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, pending, clock = self._stack, self._pending, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                pending.append((counter, args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in :data:`LAYERS` wherever ``twotime`` binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "twotime" or key.startswith("twotime."))]
        for mod_name, names in LAYERS.items():
            home = sys.modules[f"twotime.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                if isinstance(original, type):
                    self._restore.append((original, "__init__", original.__init__))
                    original.__init__ = self._wrap(f"{mod_name}.{name}", original.__init__)
                    continue
                wrapped = self._wrap(f"{mod_name}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def end_op(self) -> None:
        """Fold the finished op's counter calls into :attr:`counters`."""
        for counter, args, result in self._pending:
            for key, value in counter(args, result).items():
                self.counters[key] += value
        self._pending.clear()

    def per_name(self) -> dict:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        child = [0.0] * len(self.name)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        calls = defaultdict(int)
        busy = defaultdict(float)
        for idx, name_id in enumerate(self.name):
            span = SPAN_NAMES[name_id]
            calls[span] += 1
            busy[span] += self.end[idx] - self.start[idx] - child[idx]
        return {span: (calls[span], busy[span]) for span in SPAN_NAMES}

    def write_csv(self, path) -> None:
        """One line per span: name, start, end (seconds), parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for idx, name_id in enumerate(self.name):
                fh.write(f"{idx},{SPAN_NAMES[name_id]},{self.start[idx]!r},"
                         f"{self.end[idx]!r},{self.parent[idx]},{self.op[idx]}\n")
