"""eggwave benchmark: end-to-end and per-layer timings with an output gate.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload walkthrough --seed 7 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, seed 7

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``walkthrough``
(the README's six CLI commands), ``sweep`` (compare_states + cr_sweep) and
``scan`` (match_cohort at grid 64 with refinement + surface_minima).

Every timed unit runs in a fresh interpreter, one at a time (a closed loop
with one caller), so each pass pays the imports and lazy set-up a user
pays.  A run repeats passes while another one fits in ``--seconds`` and
reports medians.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics
computed from the traced pass's spans, plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with provenance, per-pass samples, their spread and any near-tie
flips.  The program under test is the ``eggwave`` package in ``src/`` of the
checkout; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

# One thread per process: the machine has two cores and the benchmark runs
# one process at a time.  Set before numpy is imported here or in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "eggwave-bench"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = ("simulate_s", "compress_s", "stats_s", "sweep_s", "surface_s", "match_s")


class ChildFailed(Exception):
    pass


class Runner:
    """Launches fresh-interpreter children one at a time, within a deadline."""

    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self._n = 0

    def child(self, kind, trace=False, **extra):
        self._n += 1
        job = {"kind": kind, "workload": self.workload, "seed": self.seed, "trace": trace,
               "src": str(SRC), "result": str(self.work / f"result{self._n}.json"),
               "spans": str(self.work / f"spans{self._n}.json"), **extra}
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise ChildFailed("run time limit reached")
        # perf_counter is CLOCK_MONOTONIC, shared with the child.
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{kind} child exceeded the run time limit") from None
        t_exit = time.perf_counter()
        result_path = Path(job["result"])
        if proc.returncode != 0 or not result_path.is_file():
            raise ChildFailed(f"{kind} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(result_path.read_text(encoding="ascii"))
        report.update(t0=t0, t_exit=t_exit, stdout=proc.stdout, stderr=proc.stderr,
                      spans_file=job["spans"] if trace else None)
        return report

    def setup_probe(self):
        r = self.child("setup")
        return r["t_ready"] - r["t0"]

    def walkthrough_pass(self, trace=False):
        out = Path(tempfile.mkdtemp(prefix="walk-", dir=self.work))
        pass_ = {"setup": [], "commands": {}, "exit": {}, "stdout": {}, "rss_kb": [], "spans": []}
        for name, argv in workloads.walkthrough_commands(self.seed, str(out)):
            r = self.child("command", trace=trace, name=name, argv=argv)
            pass_["setup"].append(r["t_ready"] - r["t0"])
            pass_["commands"][name] = r["t_exit"] - r["t0"]
            pass_["exit"][name] = r["exit"]
            pass_["stdout"][name] = r["stdout"].replace(str(out), "<work>")
            pass_["rss_kb"].append(r["maxrss_kb"])
            if trace:
                pass_["spans"].append(r["spans_file"])
        pass_["wall"] = sum(pass_["commands"].values())
        pass_["peak_rss_kb"] = max(pass_["rss_kb"])
        pass_["work"] = str(out)
        pass_["files"] = {name: (out / name).read_text(encoding="ascii")
                          for name in workloads.WALK_OUTPUT_FILES if (out / name).is_file()}
        return pass_

    def library_pass(self, trace=False):
        r = self.child("pass", trace=trace)
        return {"setup": [r["t_ready"] - r["t0"]], "wall": r["t_done"] - r["t_ready"],
                "peak_rss_kb": r["maxrss_kb"], "outputs": r["outputs"],
                "spans": [r["spans_file"]] if trace else []}

    def one_pass(self, trace=False):
        if self.workload == "walkthrough":
            return self.walkthrough_pass(trace)
        return self.library_pass(trace)


# ---------------------------------------------------------------------------
# Output gate


class Gate:
    def __init__(self, workload, seed):
        from eggwave import simulate_cohort

        self.workload, self.seed = workload, seed
        self.reference = gate.load_reference(workload, seed)
        self.cohort = simulate_cohort(workloads.cohort_spec(workload, seed))
        self.oracle = gate.Oracle()
        self.verdict = gate.Verdict()
        self.first = None
        self.passes = 0

    def failed_pass(self, message):
        """A pass that raised: every unit it would have produced fails."""
        for unit in gate.units(self.workload):
            self.verdict.fail(f"pass{self.passes}:{unit}", message)
        self.passes += 1

    def check(self, pass_):
        verdict = gate.Verdict()
        if self.workload == "walkthrough":
            outputs = {k: pass_[k] for k in ("exit", "stdout", "files", "work")}
        else:
            outputs = pass_["outputs"]
        key = {k: v for k, v in outputs.items() if k != "work"}
        oracle = self.oracle if self.first is None else None
        check = {"walkthrough": gate.check_walkthrough, "sweep": gate.check_sweep,
                 "scan": gate.check_scan}[self.workload]
        try:
            check(verdict, outputs, self.seed, self.reference, oracle, self.cohort)
        except Exception as error:  # malformed outputs fail the pass, not the benchmark
            verdict.fail("outputs", f"outputs could not be checked: {error!r}")
        if self.first is None:
            self.first = key
        elif key != self.first:
            verdict.fail("outputs", "outputs differ from the run's first pass")
        units = gate.units(self.workload)
        for unit in units:
            self.verdict.unit(f"pass{self.passes}:{unit}")
        for unit, messages in verdict.failures.items():
            # a check on the whole output (row count, aggregate) fails every unit
            for owner in ([unit] if unit in units else units):
                self.verdict.units[f"pass{self.passes}:{owner}"].extend(messages)
        self.verdict.flips.extend(verdict.flips)
        self.passes += 1

    def reference_used(self):
        return "stored+oracle" if self.reference is not None else "oracle"


# ---------------------------------------------------------------------------
# Provenance


def provenance(workload, seed, seconds, trace):
    sha = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
    }


def summarise(samples):
    """Median, count and spread ((max - min) / median) of one metric's samples."""
    return {"median": statistics.median(samples), "n": len(samples), "spread": tracer.spread(samples),
            "samples": samples}


# ---------------------------------------------------------------------------
# Runs


def measure(runner, checker, seconds):
    """Untraced passes while another one fits in ``seconds``; then set-up probes."""
    start = time.perf_counter()
    passes = []
    while True:
        t = time.perf_counter()
        try:
            p = runner.one_pass()
        except ChildFailed as error:
            checker.failed_pass(str(error))
            break
        p["took"] = time.perf_counter() - t
        checker.check(p)
        passes.append(p)
        typical = statistics.median(q["took"] for q in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    setup = [s for p in passes for s in p["setup"]]
    while passes and len(setup) < SETUP_SAMPLES:
        try:
            setup.append(runner.setup_probe())
        except ChildFailed as error:
            checker.failed_pass(str(error))
            break
    return passes, setup


def end_to_end(workload, passes, setup):
    summary = {
        "wall_s": summarise([p["wall"] for p in passes]),
        "setup_s": summarise(setup),
        "peak_rss_mb": summarise([p["peak_rss_kb"] / 1024.0 for p in passes]),
    }
    if workload == "walkthrough":
        for metric in COMMAND_METRICS:
            command = metric[: -len("_s")]
            summary[metric] = summarise([p["commands"][command] for p in passes])
    return summary


def traced(runner, checker):
    plain = runner.one_pass()
    checker.check(plain)
    traced_pass = runner.one_pass(trace=True)
    checker.check(traced_pass)
    lists, sites = [], {}
    for path in traced_pass["spans"]:
        data = json.loads(Path(path).read_text(encoding="ascii"))
        lists.append(data["spans"])
        for name, found in data["sites"].items():
            sites.setdefault(name, set()).update(found)
    table = tracer.SpanTable(lists)
    metrics = tracer.layer_metrics(table)
    expected, hard = workloads.expected_counts(runner.workload)
    mismatches, drift = tracer.count_checks(table, metrics, expected, hard)
    metrics["trace.overhead_s"] = (traced_pass["wall"] - plain["wall"], "s")
    metrics["trace.wall_s"] = (traced_pass["wall"], "s")
    metrics["trace.count_mismatches"] = (len(mismatches), "count")
    metrics["trace.count_drift"] = (len(drift), "count")
    counts = {name: table.calls(name) for name in sorted(table.by_name)}
    value = {name: v for name, (v, _) in metrics.items()}
    detail = {"untraced_wall_s": plain["wall"], "traced_wall_s": traced_pass["wall"],
              "computed_not_measured": {
                  "wavelets.dwt_macs": "sum over levels of even-padded band input x filter taps",
                  "wavelets.dwt_bytes": "8 B x (band inputs + band outputs) per level"},
              "ratios": {
                  "wavelets.forward_per_signal": {
                      "forward_transforms": value["wavelets.dwt_forward.calls"],
                      "base_distinct_signals": value["wavelets.distinct_signals"]},
                  "matcher.nodes_per_trace": {
                      "nodes_evaluated": value["matcher.nodes_evaluated"],
                      "base_traces": value["matcher.traces"]},
                  "stats.wilcoxon_share": {
                      "wilcoxon_calls": value["stats.wilcoxon_signed_rank.calls"],
                      "base_compare_paired": value["stats.compare_paired.calls"]}},
              "count_mismatches": mismatches, "count_drift": drift, "expected_counts": expected,
              "hard_counts": sorted(hard), "span_counts": counts,
              "wrapped_sites": {k: sorted(v) for k, v in sorted(sites.items())}}
    return metrics, detail


def run_workload(workload, seed, seconds, trace):
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        checker = Gate(workload, seed)
        runner = Runner(workload, seed, work)
        report = {"provenance": provenance(workload, seed, seconds, trace),
                  "reference": checker.reference_used()}
        metrics = {}
        if trace:
            try:
                layer, detail = traced(runner, checker)
                metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
                report["trace"] = detail
            except ChildFailed as error:
                checker.failed_pass(str(error))
        else:
            passes, setup = measure(runner, checker, seconds)
            if passes:
                summary = end_to_end(workload, passes, setup)
                report["end_to_end"] = summary
                metrics = {name: {"value": summary[name]["median"], "unit": unit}
                           for name, unit in END_TO_END.items()}
            report["passes"] = len(passes)
        verdict = checker.verdict
        failed = len(verdict.failures)
        attempted = max(verdict.attempted, 1)
        mismatched = trace and report.get("trace", {}).get("count_mismatches")
        complete = bool(metrics) and failed == 0 and not mismatched
        report["failed_ratio"] = failed / attempted
        report["near_tie_flips"] = verdict.flips
        report["failures"] = {u: m[:3] for u, m in list(verdict.failures.items())[:20]}
        result = {"correct": complete, "attempted": attempted, "failed": failed, "metrics": metrics}
        return report, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_human(report, result):
    prov = report["provenance"]
    print(f"== {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"({report['reference']} gate)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for name, summary in report.get("end_to_end", {}).items():
        print(f"  {name:<14} median {summary['median']:.4f} over n={summary['n']}, "
              f"spread (max-min)/median {summary['spread']:.3f}")
    print(f"  failed_ratio   {report['failed_ratio']:.4f} ({result['failed']}/{result['attempted']} units)"
          f"  near-tie flips: {len(report['near_tie_flips'])}")
    for unit, messages in report["failures"].items():
        print(f"  FAILED {unit}: {'; '.join(messages)}", file=sys.stderr)
    trace = report.get("trace")
    if trace:
        for line in trace["count_mismatches"]:
            print(f"  COUNT MISMATCH {line}", file=sys.stderr)
        for line in trace["count_drift"]:
            print(f"  count drift (kernel call pattern changed) {line}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "eggwave" / "__init__.py").is_file():
        print(f"benchmark: no eggwave package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        report, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_human(report, result)
        print(json.dumps(report, sort_keys=True))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
