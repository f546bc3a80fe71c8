"""One timed unit of a benchmark run, in a fresh interpreter.

Invoked by ``run.py`` as ``python3 benchmarks/child.py '<job json>'``.  A
job is one walkthrough CLI command, one sweep/scan pass, or a set-up probe.
The child reports ``time.perf_counter()`` readings (CLOCK_MONOTONIC, so
comparable with the parent's) for "set-up done" and "work done", its peak
RSS and its outputs, as JSON in the job's ``result`` file.
"""

import json
import resource
import sys
import time


def main(job):
    sys.path.insert(0, job["src"])
    workload, trace = job["workload"], job["trace"]
    tracer = None
    if workload == "walkthrough":
        from eggwave.cli import main as cli_main
    else:
        import eggwave
        import workloads
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    report = {"exit": 0, "outputs": None}
    if workload == "walkthrough":
        report["t_ready"] = time.perf_counter()
        if job["kind"] == "command":
            report["exit"] = _run_command(cli_main, job, tracer)
        report["t_done"] = time.perf_counter()
    else:
        # looked up at call time, so a traced run sees the wrapped function
        cohort = eggwave.simulate_cohort(workloads.cohort_spec(workload, job["seed"]))
        report["t_ready"] = time.perf_counter()
        if job["kind"] == "pass":
            run = workloads.run_sweep if workload == "sweep" else workloads.run_scan
            report["outputs"] = run(cohort)
        report["t_done"] = time.perf_counter()
    report["maxrss_kb"] = _peak_rss_kb()
    if tracer is not None:
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="ascii") as fh:
        json.dump(report, fh)


def _peak_rss_kb():
    # VmHWM belongs to this process image alone; ru_maxrss would also count
    # the parent's memory copied at fork.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_command(cli_main, job, tracer):
    def invoke():
        try:
            cli_main(job["argv"], prog_name="eggwave")
        except SystemExit as stop:
            code = stop.code
            return code if isinstance(code, int) else (0 if code is None else 1)
        return 0

    if tracer is None:
        return invoke()
    return tracer.span(f"cli.{job['name']}", invoke)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
