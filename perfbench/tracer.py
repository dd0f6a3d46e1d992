"""Outside-in layer tracer for hybridrbf.

While installed, the tracer rebinds each public layer function to a timing
wrapper in every ``hybridrbf`` module namespace that holds it.  Rebinding
every namespace matters because ``from x import f`` copies the binding: a
call from ``objectives`` to ``fit`` goes through ``objectives.fit``, not
``interpolation.fit``.  Nothing under ``src/`` is edited, and leaving the
``with`` block puts every original object back.

Spans live in memory as ``(span, parent, trial, name, start, end, work)``
rows.  ``trial`` is the ordinal of the enclosing ``objective_value`` call (a
PSO trial) or -1 outside any trial; ``work`` is the layer's work count
(cells, points or rows) where one is defined.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from time import perf_counter

import numpy as np


def _cells(args, kwargs, result):
    return int(np.size(result))


def _rows_read(args, kwargs, result):
    return int(result[0].shape[0])


def _rows_written(args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return int(points.n)


def _ok_trial(args, kwargs, result):
    from hybridrbf.objectives import SENTINEL_COST

    return int(result != SENTINEL_COST)


# Layer function -> work counter (None: the layer has no work count).
LAYERS = {
    "geometry.pairwise_distances": _cells,
    "geometry.min_separation": None,
    "geometry.read_points_table": _rows_read,
    "geometry.write_points_csv": _rows_written,
    "kernels.eval_kernel_batch": _cells,
    "interpolation.assemble": None,
    "interpolation.fit": None,
    "interpolation.evaluate": _cells,
    "interpolation.spectral_report": None,
    "interpolation.save_model": None,
    "interpolation.load_model": None,
    "objectives.objective_value": _ok_trial,
    "objectives.loocv_cost_rippa": None,
    "objectives.loocv_cost_brute": None,
    "objectives.rms_error": None,
    "pso.pso_minimize": None,
    "cli.main": None,
}

TRIAL_LAYER = "objectives.objective_value"

SPAN_COLUMNS = ("span", "parent", "trial", "name", "start", "end", "work")


class Tracer:
    """Context manager that records layer spans while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.rebound: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._trial = -1
        self._trials = 0

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opens_trial = name == TRIAL_LAYER and self._trial < 0
            if opens_trial:
                self._trial = self._trials
                self._trials += 1
            sid = len(spans)
            row = [sid, stack[-1] if stack else -1, self._trial, name, perf_counter(), 0.0, 0]
            spans.append(row)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[5] = perf_counter()
                stack.pop()
                if opens_trial:
                    self._trial = -1
            if count is not None:
                row[6] = count(args, kwargs, result)
            return result

        wrapper.__wrapped_layer__ = name
        return wrapper

    def install(self) -> None:
        self.rebound = []
        originals = {}
        for layer, count in LAYERS.items():
            module, attr = layer.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"hybridrbf.{module}"), attr)
            originals[id(fn)] = (fn, self._wrap(layer, fn, count))
        for modname, module in list(sys.modules.items()):
            if modname != "hybridrbf" and not modname.startswith("hybridrbf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.rebound.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self.rebound):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every name the last install rebound holds its original."""
        return all(getattr(m, attr) is original for m, attr, original in self.rebound)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SPAN_COLUMNS)
            writer.writerows(self.spans)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: calls, summed work and self time over the given spans.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time: dict[int, float] = {}
    for sid, parent, _trial, _name, start, end, _work in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, dict[str, float]] = {}
    for sid, _parent, _trial, name, start, end, work in spans:
        entry = totals.setdefault(name, {"calls": 0, "work": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["work"] += work
        entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
    return totals


def tail_percentile(samples, min_beyond: int = 10):
    """Highest listed percentile with at least ``min_beyond`` samples above it.

    Returns (percentile, value, count beyond).  With too few samples for any
    listed percentile, the maximum is returned as percentile 100.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    for pct in (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        value = float(np.percentile(values, pct))
        beyond = int(np.sum(values > value))
        if beyond >= min_beyond:
            return pct, value, beyond
    return 100.0, float(values[-1]) if values.size else 0.0, 0
