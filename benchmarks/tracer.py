"""Span tracing of eggwave's public functions, installed from outside the package.

Every traced function is wrapped once and the wrapper is written into every
loaded ``eggwave`` module that holds the original, so names imported with
``from .x import y`` (``eggwave.matcher.compress``, ``eggwave.cli.load_cohort``,
``eggwave.compression.dwt_forward`` ...) are traced at their lookup site.
Spans stay in memory as ``[id, parent, name, start, end, extra]`` and are
written out once, when the traced process ends; self time and the layer
metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

# (layer, defining module, function).  The layer is the module's short name.
TARGETS = (
    ("io", "eggwave.io", "read_recording"),
    ("io", "eggwave.io", "write_recording"),
    ("io", "eggwave.io", "load_cohort"),
    ("io", "eggwave.io", "write_cohort"),
    ("simulate", "eggwave.simulate", "simulate_cohort"),
    ("wavelets", "eggwave.wavelets", "dwt_forward"),
    ("wavelets", "eggwave.wavelets", "dwt_inverse"),
    ("wavelets", "eggwave.wavelets", "pollen_filter"),
    ("wavelets", "eggwave.wavelets", "select_scales"),
    ("compression", "eggwave.compression", "compress"),
    ("compression", "eggwave.compression", "prd"),
    ("matcher", "eggwave.matcher", "prd_surface"),
    ("matcher", "eggwave.matcher", "refine_surface"),
    ("matcher", "eggwave.matcher", "surface_minima"),
    ("matcher", "eggwave.matcher", "match_cohort"),
    ("stats", "eggwave.stats", "state_prds"),
    ("stats", "eggwave.stats", "compare_states"),
    ("stats", "eggwave.stats", "cr_sweep"),
    ("stats", "eggwave.stats", "compare_paired"),
    ("stats", "eggwave.stats", "lilliefors"),
    ("stats", "eggwave.stats", "paired_t"),
    ("stats", "eggwave.stats", "wilcoxon_signed_rank"),
)

CLI_COMMANDS = ("simulate", "compress", "stats", "sweep", "surface", "match")


def _band_inputs(input_lengths):
    # Each level filters its (even-padded) input once per tap, for both
    # filters, and writes as many coefficients as it reads.
    return sum(n + (n % 2) for n in input_lengths)


def _forward_extra(args, kwargs, result):
    samples = np.ascontiguousarray(getattr(args[0], "samples", args[0]), dtype=np.float64)
    taps = args[1].length
    inputs = _band_inputs(result.input_lengths)
    return {
        "macs": taps * inputs,
        "bytes": 8 * 2 * inputs,
        "signal": hashlib.blake2b(samples.tobytes(), digest_size=8).hexdigest(),
    }


def _inverse_extra(args, kwargs, result):
    inputs = _band_inputs(args[0].input_lengths)
    return {"macs": args[1].length * inputs, "bytes": 8 * 2 * inputs}


def _file_bytes_in(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _file_bytes_out(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _surface_nodes(args, kwargs, result):
    return {"nodes": int(result.prd.size)}


EXTRAS = {
    "wavelets.dwt_forward": _forward_extra,
    "wavelets.dwt_inverse": _inverse_extra,
    "io.read_recording": _file_bytes_in,
    "io.write_recording": _file_bytes_out,
    "matcher.prd_surface": _surface_nodes,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._next_id = 1
        self.sites = {}

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans.append([sid, parent, name, start, end, {"error": True}])
                raise
            end = time.perf_counter()
            stack.pop()
            spans.append([sid, parent, name, start, end,
                          extra(args, kwargs, result) if extra else None])
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for CLI commands)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Wrap every target at every eggwave module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eggwave" or n.startswith("eggwave."))]
        for layer, module_name, func in TARGETS:
            original = getattr(sys.modules[module_name], func)
            name = f"{layer}.{func}"
            wrapper = self.wrap(name, original, EXTRAS.get(name))
            sites = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        sites.append(f"{module.__name__}.{attr}")
            self.sites[name] = sorted(sites)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "sites": self.sites}, fh)


# ---------------------------------------------------------------------------
# Metrics computed from spans (run in the parent, after the traced process).


def _percentile(values, q):
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class SpanTable:
    """Spans of one or more traced processes, with self time per span."""

    def __init__(self, span_lists):
        self.by_name = {}
        for spans in span_lists:
            child_time = {}
            names = {s[0]: s[2] for s in spans}
            for sid, parent, name, start, end, extra in spans:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            for sid, parent, name, start, end, extra in spans:
                dur = end - start
                rec = (dur, dur - child_time.get(sid, 0.0), extra or {}, names.get(parent))
                self.by_name.setdefault(name, []).append(rec)
        self.total = sum(len(v) for v in self.by_name.values())

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def durations(self, name):
        return [r[0] for r in self.by_name.get(name, ())]

    def self_total(self, name):
        return sum(r[1] for r in self.by_name.get(name, ()))

    def extras(self, name, key):
        return [r[2][key] for r in self.by_name.get(name, ()) if key in r[2]]

    def parents(self, name):
        return [r[3] for r in self.by_name.get(name, ())]


def layer_metrics(table: SpanTable) -> dict:
    """Every per-layer metric, keyed by name, as ``(value, unit)``."""
    m = {}

    def per_call(total, calls, scale):
        return total * scale / calls if calls else 0.0

    # io
    for fn in ("read_recording", "write_recording"):
        name = f"io.{fn}"
        ms = [d * 1e3 for d in table.durations(name)]
        m[f"{name}.calls"] = (table.calls(name), "count")
        m[f"{name}.ms_p50"] = (_percentile(ms, 50), "ms")
    m["io.read_recording.ms_p90"] = (_percentile(
        [d * 1e3 for d in table.durations("io.read_recording")], 90), "ms")
    m["io.bytes_read"] = (sum(table.extras("io.read_recording", "bytes")), "B")
    m["io.bytes_written"] = (sum(table.extras("io.write_recording", "bytes")), "B")
    m["io.load_cohort.s"] = (sum(table.durations("io.load_cohort")), "s")
    m["io.write_cohort.s"] = (sum(table.durations("io.write_cohort")), "s")
    # simulate
    m["simulate.simulate_cohort.s"] = (sum(table.durations("simulate.simulate_cohort")), "s")
    # wavelets
    for fn in ("dwt_forward", "dwt_inverse"):
        name = f"wavelets.{fn}"
        calls, self_s = table.calls(name), table.self_total(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_ms"] = (self_s * 1e3, "ms")
        m[f"{name}.us_per_call"] = (per_call(self_s, calls, 1e6), "us")
    name = "wavelets.pollen_filter"
    m[f"{name}.calls"] = (table.calls(name), "count")
    m[f"{name}.us_per_call"] = (per_call(sum(table.durations(name)), table.calls(name), 1e6), "us")
    name = "wavelets.select_scales"
    m[f"{name}.calls"] = (table.calls(name), "count")
    m[f"{name}.ms_total"] = (sum(table.durations(name)) * 1e3, "ms")
    macs = table.extras("wavelets.dwt_forward", "macs") + table.extras("wavelets.dwt_inverse", "macs")
    moved = table.extras("wavelets.dwt_forward", "bytes") + table.extras("wavelets.dwt_inverse", "bytes")
    m["wavelets.dwt_macs"] = (sum(macs), "MAC")
    m["wavelets.dwt_bytes"] = (sum(moved), "B")
    distinct = len(set(table.extras("wavelets.dwt_forward", "signal")))
    m["wavelets.distinct_signals"] = (distinct, "count")
    m["wavelets.forward_per_signal"] = (
        per_call(table.calls("wavelets.dwt_forward"), distinct, 1.0), "ratio")
    # compression
    name = "compression.compress"
    calls = table.calls(name)
    m[f"{name}.calls"] = (calls, "count")
    m[f"{name}.self_us_per_call"] = (per_call(table.self_total(name), calls, 1e6), "us")
    name = "compression.prd"
    m[f"{name}.calls"] = (table.calls(name), "count")
    m[f"{name}.us_per_call"] = (per_call(sum(table.durations(name)), table.calls(name), 1e6), "us")
    # matcher
    name = "matcher.prd_surface"
    durations = table.durations(name)
    nodes = sum(table.extras(name, "nodes"))
    traces = sum(1 for p in table.parents(name) if p != "matcher.refine_surface")
    m[f"{name}.calls"] = (len(durations), "count")
    m[f"{name}.s_p50"] = (_percentile(durations, 50), "s")
    m[f"{name}.s_p90"] = (_percentile(durations, 90), "s")
    m["matcher.nodes_evaluated"] = (nodes, "count")
    m["matcher.traces"] = (traces, "count")
    m["matcher.nodes_per_trace"] = (per_call(nodes, traces, 1.0), "ratio")
    m["matcher.refine_surface.s"] = (sum(table.durations("matcher.refine_surface")), "s")
    m["matcher.surface_minima.ms"] = (sum(table.durations("matcher.surface_minima")) * 1e3, "ms")
    m["matcher.match_cohort.s"] = (sum(table.durations("matcher.match_cohort")), "s")
    # stats
    m["stats.state_prds.calls"] = (table.calls("stats.state_prds"), "count")
    m["stats.state_prds.s"] = (sum(table.durations("stats.state_prds")), "s")
    compared = table.calls("stats.compare_paired")
    m["stats.compare_paired.calls"] = (compared, "count")
    m["stats.compare_paired.ms_p50"] = (_percentile(
        [d * 1e3 for d in table.durations("stats.compare_paired")], 50), "ms")
    for fn in ("lilliefors", "wilcoxon_signed_rank"):
        name = f"stats.{fn}"
        m[f"{name}.calls"] = (table.calls(name), "count")
        m[f"{name}.ms_total"] = (sum(table.durations(name)) * 1e3, "ms")
    m["stats.paired_t.calls"] = (table.calls("stats.paired_t"), "count")
    m["stats.wilcoxon_share"] = (
        per_call(table.calls("stats.wilcoxon_signed_rank"), compared, 1.0), "ratio")
    # cli: command wall time minus the traced library calls beneath it
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = (table.self_total(f"cli.{command}"), "s")
    m["trace.spans"] = (table.total, "count")
    return m


def count_checks(table: SpanTable, metrics: dict, expected: dict, hard) -> tuple:
    """Compare traced counts with the workload's count model.

    ``expected`` maps a span name (its call count is compared) or a metric
    name (its value is compared) to the count the workload implies.
    Returns ``(mismatches, drift)``: hard counts follow from the workload's
    outputs and must match; the others are the kernel's current call
    pattern, which an optimisation may legitimately change.
    """
    mismatches, drift = [], []
    for name, want in sorted(expected.items()):
        got = metrics[name][0] if name in metrics else table.calls(name)
        if got != want:
            (mismatches if name in hard else drift).append(f"{name}: expected {want}, traced {got}")
    return mismatches, drift


def spread(values) -> float:
    """Range of ``values`` as a share of their median (0 for one value)."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return 0.0
    med = float(np.median(values))
    return (max(values) - min(values)) / med if med else math.inf
