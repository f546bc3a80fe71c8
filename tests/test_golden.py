"""Byte-identity of the CLI artifacts against checked-in reference files.

A 4-subject, 60 s cohort (seed 7) goes through ``compress``, ``stats``,
``sweep``, ``surface`` and ``match``.  Every artifact must equal its file
under ``tests/golden/`` byte for byte, and so must stdout, apart from the
lines that echo an output path.

To re-make the reference files (only when an output is meant to change)::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from eggwave.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (arguments, artifacts).  "{data}", "{recording}" and "{out}" are
# filled in per run; each artifact is a file name written under "{out}".
CASES = {
    "compress_default": (
        ["compress", "--data", "{data}", "--out", "{out}/prd.csv"],
        ["prd.csv"],
    ),
    "compress_pollen": (
        ["compress", "--data", "{data}", "--wavelet", "pollen:0.7,-1.9",
         "--depth", "5", "--cr", "4", "--out", "{out}/prd.csv"],
        ["prd.csv"],
    ),
    "stats": (
        ["stats", "--data", "{data}", "--out-csv", "{out}/stats.csv",
         "--out-text", "{out}/stats.txt"],
        ["stats.csv", "stats.txt"],
    ),
    "sweep_default": (
        ["sweep", "--data", "{data}", "--out", "{out}/sweep.csv"],
        ["sweep.csv"],
    ),
    "sweep_crs": (
        ["sweep", "--data", "{data}", "--crs", "8,1.5,3,8,2", "--out", "{out}/sweep.csv"],
        ["sweep.csv"],
    ),
    "surface": (
        ["surface", "--recording", "{recording}", "--channel", "9", "--grid", "16",
         "--refine", "--out-csv", "{out}/surface.csv", "--out-pgm", "{out}/surface.pgm"],
        ["surface.csv", "surface.pgm"],
    ),
    "match": (
        ["match", "--data", "{data}", "--grid", "8", "--channels", "9,7", "--refine",
         "--out", "{out}/minima.csv"],
        ["minima.csv"],
    ),
}


def simulate(out: Path) -> Path:
    result = CliRunner().invoke(
        main,
        ["simulate", "--out", str(out), "--subjects", "4", "--duration", "60", "--seed", "7"],
    )
    assert result.exit_code == 0, result.output
    return out / "manifest.txt"


def run_case(name: str, manifest: Path, out: Path) -> dict:
    """Run one case; returns ``{file name: bytes}`` including ``stdout``."""
    out.mkdir(parents=True)
    args, artifacts = CASES[name]
    fields = {
        "data": manifest,
        "recording": manifest.parent / "recordings" / "dog00_basal.csv",
        "out": out,
    }
    result = CliRunner().invoke(main, [a.format(**fields) for a in args])
    assert result.exit_code == 0, result.output
    stdout = "".join(
        line for line in result.output.splitlines(keepends=True) if str(out) not in line
    )
    files = {"stdout": stdout.encode("ascii")}
    files.update((a, (out / a).read_bytes()) for a in artifacts)
    return files


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return simulate(tmp_path_factory.mktemp("golden") / "cohort")


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, manifest, tmp_path):
    for file_name, data in run_case(name, manifest, tmp_path / name).items():
        expected = (GOLDEN / name / file_name).read_bytes()
        assert data == expected, f"{name}/{file_name} differs from the golden copy"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        cohort = simulate(scratch / "cohort")
        for case in sorted(CASES):
            for file_name, data in run_case(case, cohort, scratch / case).items():
                target = GOLDEN / case / file_name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
                print(f"wrote {target}")
