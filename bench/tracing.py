"""Spans around the public functions of the hankelsr layers, recorded from outside.

Only the traced run installs these wrappers; untraced runs execute the
package unmodified.  Each wrapped call records one span: its name, start,
end, the span that was open when it was called (its parent) and the trial
id.  Spans stay in memory until the run ends.

Besides the layer functions, the NumPy FFT, QR and SVD entry points are
wrapped as probes.  A probe is a span too, but it is part of the work of the
layer that called it, so it does not reduce that layer's self time.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, function) -> span name.  A function that does a layer's job under
# another name shares that job's span: the de-lifts count with the adjoint
# lifts, the isometric lift with the lift.  solver.initialize is called only
# by the assumption report, so it is timed under diagnostics.
LAYER_SPANS = {
    ("model", "measure"): "model.measure",
    ("model", "adjoint_measure"): "model.adjoint_measure",
    ("hankel", "lift_matvec"): "hankel.lift_matvec",
    ("hankel", "lift_rmatvec"): "hankel.lift_rmatvec",
    ("hankel", "adjoint_lift_lowrank"): "hankel.adjoint_lift_lowrank",
    ("hankel", "pinv_lift_lowrank"): "hankel.adjoint_lift_lowrank",
    ("hankel", "lift"): "hankel.lift",
    ("hankel", "lift_isometric"): "hankel.lift",
    ("hankel", "adjoint_lift"): "hankel.adjoint_lift",
    ("hankel", "adjoint_lift_isometric"): "hankel.adjoint_lift",
    ("hankel", "pinv_lift"): "hankel.adjoint_lift",
    ("lowrank", "project_tangent_truncate"): "lowrank.project_tangent_truncate",
    ("lowrank", "truncate_rank_operator"): "lowrank.truncate_rank_operator",
    ("lowrank", "truncate_rank"): "lowrank.truncate_rank",
    ("lowrank", "project_tangent"): "lowrank.project_tangent",
    ("solver", "solve"): "solver.solve",
    ("solver", "iterate_once"): "solver.iterate_once",
    ("solver", "initialize"): "diagnostics.initialize",
    ("diagnostics", "estimate_rip_norm"): "diagnostics.estimate_rip_norm",
    ("diagnostics", "spectral_distance"): "diagnostics.spectral_distance",
    ("diagnostics", "assumption_report"): "diagnostics.assumption_report",
}

PROBES = (
    (np.fft, "fft", "numpy.fft"),
    (np.fft, "ifft", "numpy.fft"),
    (np.linalg, "qr", "numpy.qr"),
    (np.linalg, "svd", "numpy.svd"),
)

# NumPy calls made while a lowrank span is open are also totalled on their own.
LOWRANK_PROBES = {"numpy.qr": "lowrank.qr", "numpy.svd": "lowrank.svd"}

# Time in ms per trial is reported for these: the self time of every layer
# span but the solver's own, and the lowrank probe totals.
MS_PER_TRIAL = sorted(set(LAYER_SPANS.values()) - {"solver.solve", "solver.iterate_once"}
                      | set(LOWRANK_PROBES.values()))

# Fields of one recorded span, in order.
FIELDS = ("name", "start", "end", "parent", "trial", "transforms", "length")

# Percentiles tried for the iteration-time tail, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


class Tracer:
    """In-memory span recorder; ``trial`` tags the spans of the running trial.

    Spans are kept as rows of a flat float array rather than as Python
    objects, so that a long run does not make the garbage collector's passes
    (and so the traced timings) grow with the number of spans recorded.
    """

    def __init__(self):
        self.names: list[str] = []
        self.trial = -1
        self._rows = array.array("d")  # span id followed by FIELDS, in end order
        self._stack: list[int] = []
        self._next_id = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, fft: bool = False):
        name_id = self._name_id(name)
        rows, stack = self._rows, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._next_id
            self._next_id = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            transforms = length = 0
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if fft:
                    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
                    length = out.shape[axis]
                    transforms = out.size // length
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                rows.extend((idx, name_id, start, end, parent, self.trial,
                             transforms, length))

        return wrapper

    @property
    def spans(self) -> list[tuple]:
        """Recorded spans in call order, as tuples of FIELDS; parents index this list."""
        width = len(FIELDS) + 1
        rows = sorted(tuple(self._rows[i:i + width]) for i in range(0, len(self._rows), width))
        return [(int(r[1]), r[2], r[3], int(r[4]), int(r[5]), int(r[6]), int(r[7]))
                for r in rows]

    @contextmanager
    def installed(self):
        """Wrap every binding of the layer functions in the loaded hankelsr modules.

        ``from .x import f`` copies f into the importing module, so each
        module's namespace is searched for the original function.  A function
        missing from the API is skipped and its metrics read 0.
        """
        package = [mod for name, mod in list(sys.modules.items())
                   if name == "hankelsr" or name.startswith("hankelsr.")]
        patches = []
        for (module, fn_name), span in LAYER_SPANS.items():
            original = getattr(sys.modules.get(f"hankelsr.{module}"), fn_name, None)
            if original is None:
                continue
            wrapped = self._wrap(original, span)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        for owner, fn_name, span in PROBES:
            original = getattr(owner, fn_name)
            patches.append((owner, fn_name, original))
            setattr(owner, fn_name, self._wrap(original, span, fft=span == "numpy.fft"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write all spans as gzipped JSON: span names, field names, span rows."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "fields": FIELDS, "spans": self.spans}, fh)

    def per_layer_metrics(self) -> tuple[dict[str, float], dict]:
        """Per-layer metrics from the recorded spans, plus notes on how they were taken.

        Times are self time per trial, medians over trials.  Counts per
        iteration cover the part of ``solve`` after its first
        ``iterate_once``, so they exclude the initialization.
        """
        names, spans = self.names, self.spans
        name_of = [names[s[0]] for s in spans]
        child_s = [0.0] * len(spans)
        under_lowrank = [False] * len(spans)
        for i, (_, start, end, parent, *_rest) in enumerate(spans):
            if parent < 0:
                continue
            if not name_of[i].startswith("numpy."):
                child_s[parent] += end - start
            under_lowrank[i] = under_lowrank[parent] or name_of[parent].startswith("lowrank.")

        trials: dict[int, dict] = {}
        for i, (_, start, end, parent, trial, transforms, length) in enumerate(spans):
            t = trials.setdefault(trial, {"ms": {}, "iters": [], "measure": [],
                                          "fft": [], "products": 0, "solve": None})
            name = name_of[i]
            if name == "numpy.fft":
                t["fft"].append((start, transforms, length))
            elif name in LOWRANK_PROBES:
                if under_lowrank[i]:
                    key = LOWRANK_PROBES[name]
                    t["ms"][key] = t["ms"].get(key, 0.0) + (end - start) * 1e3
            else:
                t["ms"][name] = t["ms"].get(name, 0.0) + (end - start - child_s[i]) * 1e3
            if name == "solver.solve":
                t["solve"] = (start, end)
            elif name == "solver.iterate_once":
                t["iters"].append((start, end - start))
            elif name == "model.measure":
                t["measure"].append(start)
            elif (name in ("hankel.lift_matvec", "hankel.lift_rmatvec") and parent >= 0
                  and name_of[parent] == "lowrank.truncate_rank_operator"):
                t["products"] += 1

        per_trial: dict[str, list[float]] = {}
        iter_ms: list[float] = []

        def add(key, value):
            per_trial.setdefault(key, []).append(value)

        for t in trials.values():
            if t["solve"] is None:
                continue
            solve_start, solve_end = t["solve"]
            n_iter = len(t["iters"])
            loop_start = t["iters"][0][0] if n_iter else solve_end
            iter_ms += [dur * 1e3 for _, dur in t["iters"]]
            for name in MS_PER_TRIAL:
                add(f"{name}.ms", t["ms"].get(name, 0.0))
            add("lowrank.truncate_rank_operator.products", float(t["products"]))
            add("solver.init_s", loop_start - solve_start)
            in_loop = [f for f in t["fft"] if loop_start <= f[0] <= solve_end]
            calls = sum(loop_start <= s <= solve_end for s in t["measure"])
            add("model.measure.calls_per_iter", calls / n_iter if n_iter else 0.0)
            add("hankel.fft.transforms_per_iter",
                sum(f[1] for f in in_loop) / n_iter if n_iter else 0.0)
            add("hankel.fft.len", float(max((f[2] for f in t["fft"]), default=0)))
            solver_ms = t["ms"].get("solver.solve", 0.0) + t["ms"].get("solver.iterate_once", 0.0)
            add("solver.self_ms_per_iter", solver_ms / n_iter if n_iter else 0.0)

        metrics = {key: statistics.median(values) for key, values in per_trial.items()}
        p50, tail, tail_pct = _iteration_percentiles(iter_ms)
        metrics["solver.iter_ms.p50"] = p50
        metrics["solver.iter_ms.tail"] = tail
        notes = {"traced_trials": len(per_trial.get("solver.init_s", [])),
                 "iterations_timed": len(iter_ms), "iter_ms_tail_percentile": tail_pct,
                 "spans": len(spans)}
        return metrics, notes


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(math.ceil(pct / 100.0 * len(sorted_values)) - 1, 0)]


def _iteration_percentiles(values: list[float]) -> tuple[float, float, float]:
    """Median and tail of the iteration times.

    The tail is the highest percentile with at least ten samples beyond it;
    with fewer than twenty samples none has, and the maximum is reported.
    """
    if not values:
        return 0.0, 0.0, 100.0
    ordered = sorted(values)
    for pct in _TAIL_PERCENTILES:
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            return _nearest_rank(ordered, 50.0), _nearest_rank(ordered, pct), pct
    return _nearest_rank(ordered, 50.0), ordered[-1], 100.0
