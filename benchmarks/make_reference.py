"""Regenerate the stored reference outputs under ``reference/``.

Usage, from the root of a source checkout::

    python3 benchmarks/make_reference.py

Each reference is one untraced pass of a workload at one of
``gate.REFERENCE_SEEDS``, accepted only if it passes the oracle checks of
``gate.py``.  The references pin the outputs of the commit they were made
at; regenerate them only in a change that is meant to alter outputs, and
say so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads


def main():
    if not (run.SRC / "eggwave" / "__init__.py").is_file():
        print(f"no eggwave package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    for seed in gate.REFERENCE_SEEDS:
        for workload in workloads.NAMES:
            work = Path(tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=run.WORK_ROOT))
            try:
                one = run.Runner(workload, seed, work).one_pass()
                checker = run.Gate(workload, seed)
                checker.reference = None
                checker.check(one)
                if checker.verdict.failures:
                    print(f"{workload} seed {seed}: oracle rejects the outputs: "
                          f"{checker.verdict.failures}", file=sys.stderr)
                    return 1
                outputs = one if workload == "walkthrough" else one["outputs"]
                reference = gate.reference_from(workload, outputs)
                reference["provenance"] = run.provenance(workload, seed, 0, False)
                path = gate.reference_path(workload, seed)
                path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                encoding="ascii")
                print(f"wrote {path.relative_to(run.ROOT)}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
