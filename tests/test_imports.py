import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code, **env_updates):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("CVSENSE_THREADS",)}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_updates)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    out = run_python(
        "import sys, cvsense.cli\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    assert out == "[]"


def test_thread_override_is_set_before_numpy_loads():
    # Record the BLAS variables at the moment numpy is first looked up.
    code = (
        "import os, sys\n"
        "seen = {}\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.update((v, os.environ.get(v)) for v in {BLAS_VARS!r})\n"
        "        return None\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import cvsense.cli\n"
        "print(sorted(seen.items()))"
    )
    assert run_python(code, CVSENSE_THREADS="3") == str(sorted((v, "3") for v in BLAS_VARS))
