"""Span recorder for the traced run.

The package is traced from outside: every binding of each public function of
its modules is replaced by a wrapper that records one span per call (name,
start, end, parent span, request id).  The package imports by name, so
``protocol.eigenvalues_sorted`` and ``spectral.eigenvalues_sorted`` are
separate bindings of one function and both are patched; ``SignedGraph.from_edges``
is patched on the class.  Spans stay in flat arrays in memory and are saved
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "ntconsensus"
LAYERS = ("graph", "spectral", "protocol", "simulate", "fileio", "cli")

# (name, unit) of every per-layer metric, in report order.  Time and count
# metrics are per traced request; no function in the package recurses, so a
# function's busy time is the summed duration of its spans.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graph.suggest_decomposition.busy_s", "s/req"),
    ("graph.verify_assumption.busy_s", "s/req"),
    ("graph.pn_reachable.calls", "calls/req"),
    ("graph.from_edges.busy_s", "s/req"),
    ("spectral.eigenvalues_sorted.busy_s", "s/req"),
    ("spectral.null_space.busy_s", "s/req"),
    ("spectral.signed_laplacian.busy_s", "s/req"),
    ("spectral.max_order", "dim"),
    ("protocol.design_fixed.self_s", "s/req"),
    ("protocol.verify_design.self_s", "s/req"),
    ("protocol.design_laplacians.calls", "calls/req"),
    ("protocol.contraction_factor.busy_s", "s/req"),
    ("protocol.necessary_condition_check.busy_s", "s/req"),
    ("simulate.integrate_fixed.busy_s", "s/req"),
    ("simulate.integrate_switching.busy_s", "s/req"),
    ("simulate.rk4_steps", "steps/req"),
    ("simulate.steps_per_s", "1/s"),
    ("simulate.switch_intervals", "count/req"),
    ("simulate.convergence_report.busy_s", "s/req"),
    ("simulate.matvec_flops_computed", "flop/req"),
    ("simulate.bytes_computed", "B/req"),
    ("simulate.ops_per_byte_computed", "flop/B"),
    ("simulate.bytes_per_s_computed", "B/s"),
    ("fileio.load_graph.busy_s", "s/req"),
    ("fileio.write_trajectory_csv.busy_s", "s/req"),
    ("fileio.bytes_written", "B/req"),
    ("fileio.write_mb_per_s", "MB/s"),
    ("cli.main.self_s", "s/req"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS) + (
    ("trace.overhead_p50_ratio", "ratio"),
    ("trace.spans_per_req", "spans/req"),
)


def _order(tracer: "Tracer", bound: inspect.BoundArguments, result: object) -> None:
    """Largest matrix dimension among a spectral call's arguments and result."""
    for v in list(bound.arguments.values()) + [result]:
        m = getattr(v, "matrix", v)
        if isinstance(m, np.ndarray) and m.ndim == 2:
            tracer.max_order = max(tracer.max_order, max(m.shape))


def _integrated(tracer: "Tracer", bound: inspect.BoundArguments, result: object) -> None:
    """Steps taken and the dense matvec work they imply: four products of an
    (nd)^2 matrix per RK4 step, 2 flops and one 8-byte matrix entry each."""
    steps = len(result.times) - 1
    nd2 = float(result.n * result.d) ** 2
    tracer.counts["rk4_steps"] += steps
    tracer.counts["flops"] += 8.0 * nd2 * steps
    tracer.counts["bytes"] += 32.0 * nd2 * steps
    schedule = bound.arguments.get("schedule")
    if schedule is not None:
        tracer.counts["intervals"] += sum(1 for _ in schedule.intervals(bound.arguments["horizon"]))


def _written(tracer: "Tracer", bound: inspect.BoundArguments, result: object) -> None:
    tracer.counts["bytes_written"] += os.path.getsize(bound.arguments["path"])


def _post_hook(layer: str, name: str) -> Optional[Callable]:
    if layer == "spectral":
        return _order
    if name in ("integrate_fixed", "integrate_switching"):
        return _integrated
    if name == "write_trajectory_csv":
        return _written
    return None


class Tracer:
    """Patches the package's public functions and records their calls."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.current = -1
        self.request = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self.max_order = 0
        self.errors = {layer: 0 for layer in LAYERS}
        self._last_exc: Optional[BaseException] = None
        self._exc_layers: set = set()
        self._patches = self._collect()

    def _collect(self) -> List[Tuple[object, str, object, object]]:
        wrappers: Dict[int, Tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers \
                        and wrappers[id(val)][0] is val:
                    patches.append((mod, attr, val, wrappers[id(val)][1]))
        cls = importlib.import_module(f"{PACKAGE}.graph").SignedGraph
        raw = vars(cls)["from_edges"]
        patches.append((cls, "from_edges", raw,
                        staticmethod(self._wrap(raw.__func__, "graph", "graph.from_edges"))))
        return patches

    def _wrap(self, fn: Callable, layer: str, span: str) -> Callable:
        ix = len(self.names)
        self.names.append(span)
        post = _post_hook(layer, fn.__name__)
        sig = inspect.signature(fn)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, requests = self.span_parent, self.span_request
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            parent = tracer.current
            names.append(ix)
            parents.append(parent)
            requests.append(tracer.request)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = sid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                t1 = perf_counter()
                starts[sid] = t0
                ends[sid] = t1
                tracer.current = parent
            if post is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                post(tracer, bound, result)
            return result

        return traced

    def _error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once per layer it leaves."""
        if exc is not self._last_exc:
            self._last_exc, self._exc_layers = exc, set()
        if layer not in self._exc_layers:
            self._exc_layers.add(layer)
            self.errors[layer] += 1

    def install(self, request: int) -> None:
        self.request = request
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.request = -1

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 start=np.asarray(self.span_start), end=np.asarray(self.span_end),
                 parent=np.asarray(self.span_parent), request=np.asarray(self.span_request))

    def metrics(self, requests: int, overhead_ratio: float) -> Dict[str, float]:
        """Per-layer metrics over ``requests`` traced requests."""
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        width = len(self.names)
        busy = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - children, minlength=width)
        calls = np.bincount(name, minlength=width)

        index = {span: i for i, span in enumerate(self.names)}

        def total(span: str, of: np.ndarray) -> float:
            return float(of[index[span]]) if span in index else 0.0

        out: Dict[str, float] = {}
        for metric, _ in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "busy_s":
                out[metric] = total(span, busy) / requests
            elif kind == "self_s":
                out[metric] = total(span, own) / requests
            elif kind == "calls":
                out[metric] = total(span, calls) / requests
        sim_busy = total("simulate.integrate_fixed", busy) + \
            total("simulate.integrate_switching", busy)
        write_busy = total("fileio.write_trajectory_csv", busy)
        c = self.counts
        out["spectral.max_order"] = float(self.max_order)
        out["simulate.rk4_steps"] = c["rk4_steps"] / requests
        out["simulate.steps_per_s"] = c["rk4_steps"] / sim_busy if sim_busy else 0.0
        out["simulate.switch_intervals"] = c["intervals"] / requests
        out["simulate.matvec_flops_computed"] = c["flops"] / requests
        out["simulate.bytes_computed"] = c["bytes"] / requests
        out["simulate.ops_per_byte_computed"] = c["flops"] / c["bytes"] if c["bytes"] else 0.0
        out["simulate.bytes_per_s_computed"] = c["bytes"] / sim_busy if sim_busy else 0.0
        out["fileio.bytes_written"] = c["bytes_written"] / requests
        out["fileio.write_mb_per_s"] = c["bytes_written"] / 1e6 / write_busy if write_busy else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = float(self.errors[layer])
        out["trace.overhead_p50_ratio"] = overhead_ratio
        out["trace.spans_per_req"] = len(dur) / requests
        return {metric: out[metric] for metric, _ in PER_LAYER}
