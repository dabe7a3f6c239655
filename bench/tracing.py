"""Spans around omrouter's public functions, and the per-layer metrics.

The layers are omrouter's modules.  :meth:`Tracer.install` replaces each
public function listed in ``LAYER_FUNCTIONS`` by a wrapper that records a
span, on every ``omrouter.*`` module object that holds the function:
``cli``, ``analysis``, ``config`` and ``response`` import functions by
name, so patching only the defining module would miss those calls.  The
``model`` helpers are not wrapped; their time counts toward the calling
span's self time.  Nothing under ``src/`` changes.

A span is ``[op, name, layer, parent, start, end, error, counts]``.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

LAYER_FUNCTIONS = {
    "config": ("parse_config", "RunConfig.system_params"),
    "steady": ("pin_effective_detunings", "solve_steady_state",
               "enumerate_branches", "steady_residual", "force_balance"),
    "response": ("scan_spectrum", "reflection", "transmission",
                 "vacuum_noise_spectrum", "thermal_noise_spectrum",
                 "closed_vs_oracle_deviation", "closed_form_coefficients",
                 "linear_solve_coefficients", "coefficients"),
    "analysis": ("routing_report", "window_splitting", "find_extrema",
                 "power_sweep", "calibrate_couplings"),
    "cli": ("main", "run_figure"),
}

# The frequency argument of each response function, by parameter name.
_OMEGA_ARG = {"scan_spectrum": "omega_grid",
              "closed_vs_oracle_deviation": "omega_grid"}

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {}
for _layer in LAYER_FUNCTIONS:
    PER_LAYER_UNITS.update({
        f"{_layer}.calls_per_op": "1/op",
        f"{_layer}.self_ms_per_op": "ms/op",
        f"{_layer}.self_share": "1",
        f"{_layer}.errors_per_op": "1/op",
    })
PER_LAYER_UNITS.update({
    "steady.enumerations_per_op": "1/op",
    "steady.roots_per_enumeration": "1",
    "steady.enumerate_branches.ms_per_call": "ms",
    "response.nodes_per_op": "1/op",
    "response.ns_per_node": "ns",
    "response.repeated_node_ratio": "1",
    "response.bad_nodes_per_op": "1/op",
    "response.scan_spectrum.ms_per_call": "ms",
    "analysis.find_extrema.ms_per_call": "ms",
    "analysis.extrema_points_per_op": "1/op",
    "analysis.refine_scans_per_op": "1/op",
    "cli.bytes_written_per_op": "B/op",
    "trace.overhead_ratio": "1",
    # kernel time of the whole process during the ops, mostly page faults
    "process.sys_share": "1",
    "process.minor_faults_per_op": "1/op",
})

OP, NAME, LAYER, PARENT, START, END, ERROR, COUNTS = range(8)


class Tracer:
    """Records spans of the ops run between :meth:`begin_op` calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._scans_seen: set = set()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._scans_seen.clear()

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "omrouter" or n.startswith("omrouter.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"omrouter.{layer}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self._wrap(vars(cls)[attr], layer,
                                                  name))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(original, layer, name)
                for module in modules:
                    if vars(module).get(name) is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observer(fn, layer, name)

        def wrapper(*args, **kwargs):
            span = [self.op, name, layer, stack[-1] if stack else -1,
                    clock(), 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[COUNTS] = observe(args, kwargs, result)
            return result

        return wrapper

    def _observer(self, fn, layer, name):
        """Function that extracts a span's counts from a call, or None."""
        signature = inspect.signature(fn)

        def bound(args, kwargs):
            return signature.bind(*args, **kwargs).arguments

        if name == "enumerate_branches":
            return lambda args, kwargs, result: {"roots": len(result)}
        if name == "find_extrema":
            return lambda args, kwargs, result: {
                "points": len(bound(args, kwargs)["points"])}
        if layer != "response":
            return None
        omega_arg = _OMEGA_ARG.get(name, "omega")
        if name != "scan_spectrum":
            return lambda args, kwargs, result: {
                "nodes": int(np.size(bound(args, kwargs)[omega_arg]))}

        def observe_scan(args, kwargs, result):
            call = bound(args, kwargs)
            grid = np.asarray(call[omega_arg], dtype=float)
            key = (call["params"], call.get("state"),
                   call.get("method", "closed"), grid.size,
                   hash(grid.tobytes()))
            repeated = key in self._scans_seen
            self._scans_seen.add(key)
            return {"nodes": grid.size, "bad": len(result.errors),
                    "repeated": grid.size if repeated else 0}

        return observe_scan


def layer_metrics(spans: list[list], ops: int, op_seconds: float,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``ops`` ops.

    ``op_seconds`` is the summed wall time of the ops, ``bytes_written``
    the size of the files they wrote.  The ``trace.`` and ``process.``
    metrics come from the loops, not the spans, and the caller adds them.
    """
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]

    def parent_layer(s):
        return spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None

    def total(field, pick):
        return sum(s[COUNTS][field] for s in spans
                   if pick(s) and s[COUNTS] is not None)

    def mean_ms(name):
        durations = [s[END] - s[START] for s in spans if s[NAME] == name]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    m: dict[str, float] = {}
    for layer in LAYER_FUNCTIONS:
        own = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        busy = sum(self_s[i] for i in own)
        errors = sum(1 for i in own if spans[i][ERROR]
                     and parent_layer(spans[i]) != layer)
        m[f"{layer}.calls_per_op"] = len(own) / ops
        m[f"{layer}.self_ms_per_op"] = 1e3 * busy / ops
        m[f"{layer}.self_share"] = busy / op_seconds
        m[f"{layer}.errors_per_op"] = errors / ops

    enumerations = [s for s in spans if s[NAME] == "enumerate_branches"]
    m["steady.enumerations_per_op"] = len(enumerations) / ops
    m["steady.roots_per_enumeration"] = (
        sum(s[COUNTS]["roots"] for s in enumerations if s[COUNTS])
        / len(enumerations) if enumerations else 0.0)
    m["steady.enumerate_branches.ms_per_call"] = mean_ms("enumerate_branches")

    # nodes are counted where a call enters the response layer, so a
    # response function calling another one does not count them twice
    nodes = total("nodes", lambda s: s[LAYER] == "response"
                  and parent_layer(s) != "response")
    scan_nodes = total("nodes", lambda s: s[NAME] == "scan_spectrum")
    busy_response = sum(self_s[i] for i, s in enumerate(spans)
                        if s[LAYER] == "response")
    m["response.nodes_per_op"] = nodes / ops
    m["response.ns_per_node"] = 1e9 * busy_response / nodes if nodes else 0.0
    m["response.repeated_node_ratio"] = (
        total("repeated", lambda s: s[NAME] == "scan_spectrum") / scan_nodes
        if scan_nodes else 0.0)
    m["response.bad_nodes_per_op"] = total(
        "bad", lambda s: s[NAME] == "scan_spectrum") / ops
    m["response.scan_spectrum.ms_per_call"] = mean_ms("scan_spectrum")

    m["analysis.find_extrema.ms_per_call"] = mean_ms("find_extrema")
    m["analysis.extrema_points_per_op"] = total(
        "points", lambda s: s[NAME] == "find_extrema") / ops
    m["analysis.refine_scans_per_op"] = sum(
        1 for s in spans if s[NAME] == "scan_spectrum"
        and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "routing_report"
    ) / ops
    m["cli.bytes_written_per_op"] = bytes_written / ops
    return m
