"""Cold start: a fresh process imports symtoep without scipy.

Only the Schur step of ``gamma check-unitary`` needs scipy, so it is
imported there on first use.  These tests run fresh interpreters,
because the test process itself already holds scipy through the
``scipy.stats`` imports of other test modules.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import symtoep

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(symtoep.__file__).resolve().parent.parent)


def _fresh_python(args, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def test_importing_the_library_and_cli_loads_no_scipy():
    proc = _fresh_python(["-c", (
        "import sys, symtoep, symtoep.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_check_unitary_loads_scipy_on_demand_from_cold(tmp_path):
    shutil.copy(GOLDEN / "tuple.json", tmp_path / "tuple.json")
    proc = _fresh_python(
        ["-m", "symtoep.cli", "gamma", "check-unitary", "--tuple", "tuple.json"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "gamma_check_unitary.json").read_bytes()
