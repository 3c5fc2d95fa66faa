"""Cold start: no symtoep process loads scipy.

The library depends on numpy alone; scipy is a test dependency only.
These tests run fresh interpreters, because the test process itself
already holds scipy through the ``scipy.stats`` imports of other test
modules.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import symtoep

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(symtoep.__file__).resolve().parent.parent)
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh_python(args, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def test_importing_the_library_and_cli_loads_no_scipy():
    proc = _fresh_python(["-c", f"import sys, symtoep, symtoep.cli; print({SCIPY_MODULES})"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_check_unitary_from_cold_matches_golden_without_scipy(tmp_path):
    # the report goes to stdout, the module list to stderr after main returns
    shutil.copy(GOLDEN / "tuple.json", tmp_path / "tuple.json")
    proc = _fresh_python(["-c", (
        "import sys; from symtoep.cli import main; "
        "code = main(['gamma', 'check-unitary', '--tuple', 'tuple.json']); "
        f"print({SCIPY_MODULES}, file=sys.stderr); sys.exit(code)")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "gamma_check_unitary.json").read_bytes()
    assert proc.stderr.decode().strip() == "[]"
