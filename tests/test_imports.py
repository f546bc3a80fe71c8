import os
import subprocess
import sys
from pathlib import Path

import pytest

import eggwave

SRC = str(Path(eggwave.__file__).resolve().parents[1])


def modules_after(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    probe = f"{statement}; import sys; print('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


@pytest.mark.parametrize("statement", ["import eggwave", "import eggwave.cli"])
def test_import_leaves_scipy_stats_out(statement):
    # Every CLI command pays its imports; scipy.stats alone costs about a second.
    loaded = modules_after(statement)
    assert "eggwave" in loaded
    assert "scipy.stats" not in loaded


@pytest.mark.parametrize("statement", ["import eggwave", "import eggwave.cli"])
def test_import_loads_no_scipy(statement):
    # The runtime computes its normal and Student t tails itself.
    loaded = modules_after(statement)
    assert "eggwave" in loaded
    assert sorted(name for name in loaded if name.startswith("scipy")) == []


@pytest.mark.parametrize("statement", ["import eggwave", "import eggwave.cli"])
def test_import_loads_no_numpy_random_or_hashlib(statement):
    # numpy.random costs ~6 MB and ~14 ms, hashlib's OpenSSL 3.6 MB of that;
    # only the commands that draw numbers should pay for them.
    loaded = modules_after(statement)
    assert "eggwave" in loaded
    assert sorted(name for name in loaded if name.startswith("numpy.random")) == []
    assert "hashlib" not in loaded
