"""Span tracing of the cvwerner layers, for the benchmark's traced run.

Every public function of the layer modules is replaced, in every cvwerner
module namespace that holds it, by a wrapper that records one span:
``(id, name, start, end, parent, failed, size, peak)``.  Parents come from a
per-thread stack, because sweep rows run on the CLI's thread pool.  The
spans stay in memory and are written out once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
import tracemalloc
import types
from collections import defaultdict

LAYERS = ("cli", "states", "fock", "exact", "gaussian", "nongauss", "bounds", "ppt")
# Calls whose own allocation peak is recorded, in bytes, through tracemalloc.
PEAK_TRACKED = frozenset({"fock.eig_spectrum", "states.werner", "states.ppt_werner", "ppt.mid"})
# Calls whose result gives a size: the dimension of a spectrum, the nodes of a grid.
RESULT_SIZE = {
    "fock.eig_spectrum": len,
    "gaussian.quadrature_grid": lambda grid: grid.radial_nodes.size * grid.angular_nodes.size,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._peaks = []
        self._patched = []

    def install(self):
        """Wrap the layers' public functions wherever a cvwerner module refers to them."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cvwerner"]
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cvwerner.{layer}")
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                ):
                    originals[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(value) if isinstance(value, types.FunctionType) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _peak_enter(self):
        if tracemalloc.is_tracing():
            base, peak = tracemalloc.get_traced_memory()
            self._peaks[-1] = max(self._peaks[-1], peak)
        else:
            tracemalloc.start()
            base = 0
        tracemalloc.reset_peak()
        self._peaks.append(0)
        return base

    def _peak_exit(self, base):
        peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], peak)
        else:
            tracemalloc.stop()
        return peak - base

    def _wrap(self, name, fn):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        peak = name in PEAK_TRACKED
        size = RESULT_SIZE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            base = self._peak_enter() if peak else 0
            result = failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    span_id, name, start, end, parent, bool(failed),
                    size(result) if size and not failed else None,
                    self._peak_exit(base) if peak else None,
                ))
            return result

        return wrapper

    def write(self, path, header):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fields = ["id", "name", "start", "end", "parent", "failed", "size", "peak"]
            json.dump({"header": header, "fields": fields, "spans": self.spans}, fh)


def _unit(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("overlap") else "count"


def layer_metrics(spans, rounds, points):
    """Per-layer metrics of one traced run; times and counts are per round
    (one pass over the workload's inputs) unless the name says otherwise."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for span in spans:
        by_name[span[1]].append(span)
        child_time[span[4]] += span[3] - span[2]

    def seconds(*names):
        return sum(s[3] - s[2] for n in names for s in by_name[n]) / rounds

    def calls_per_pt(name):
        return len(by_name[name]) / points

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def peak_mb(*names):
        return max((s[7] for n in names for s in by_name[n]), default=0) / 2**20

    rows = by_name["bounds.bounds_report"]
    sweeps = by_name["cli.cmd_sweep"]
    busy = sum(r[3] - r[2] for r in rows)
    sweep_wall = sum(s[3] - s[2] for s in sweeps)
    emit = sum(
        s[3] - max((r[3] for r in rows if s[2] <= r[2] and r[3] <= s[3]), default=s[2])
        for s in sweeps
    )
    conditional = by_name["ppt.conditional_entropy"]
    return {
        "cli.sweep.rows_busy_s": busy / rounds,
        "cli.sweep.overlap": busy / sweep_wall if sweep_wall else 0.0,
        "cli.sweep.emit_s": emit / rounds,
        "bounds.global_entropy.calls_per_pt": calls_per_pt("bounds.global_entropy"),
        "bounds.global_entropy.s": seconds("bounds.global_entropy"),
        "bounds.conditional_entropy_photon_counting.calls_per_pt": calls_per_pt(
            "bounds.conditional_entropy_photon_counting"
        ),
        "bounds.conditional_entropy_photon_counting.s": seconds("bounds.conditional_entropy_photon_counting"),
        "bounds.mid.s": seconds("bounds.mid"),
        "gaussian.conditional_entropy.calls_per_pt": calls_per_pt("gaussian.conditional_entropy"),
        "gaussian.conditional_entropy.ms_per_call": 1e3
        * mean([s[3] - s[2] for s in by_name["gaussian.conditional_entropy"]]),
        "gaussian.quadrature_grid.nodes_per_call": mean([s[6] for s in by_name["gaussian.quadrature_grid"]]),
        "gaussian.quadrature_grid.s": seconds("gaussian.quadrature_grid"),
        "fock.eig_spectrum.calls": len(by_name["fock.eig_spectrum"]) / rounds,
        "fock.eig_spectrum.s": seconds("fock.eig_spectrum"),
        "fock.eig_spectrum.dim_max": max((s[6] for s in by_name["fock.eig_spectrum"] if s[6]), default=0),
        "fock.eig_spectrum.peak_mb": peak_mb("fock.eig_spectrum"),
        "fock.partial_transpose.s": seconds("fock.partial_transpose"),
        "states.build.s": seconds("states.werner", "states.ppt_werner"),
        "states.build.peak_mb": peak_mb("states.werner", "states.ppt_werner"),
        "bounds.conditional_entropy_dense.s": seconds("bounds.conditional_entropy_dense"),
        "exact.discord_numeric.s": seconds("exact.discord_numeric"),
        # self time: the direct-sum loop, without the wrapped entropies it calls
        "ppt.conditional_entropy.s": sum(s[3] - s[2] - child_time[s[0]] for s in conditional) / rounds,
        "ppt.conditional_entropy.failed": sum(1 for s in conditional if s[5]) / rounds,
        "ppt.mid.s": seconds("ppt.mid"),
        "ppt.mid.peak_mb": peak_mb("ppt.mid"),
        "ppt.reduced_entropy.s": seconds("ppt.reduced_entropy"),
        "ppt.lower_bound.s": seconds("ppt.lower_bound"),
    }


UNITS = {name: _unit(name) for name in layer_metrics([], 1, 1)}
