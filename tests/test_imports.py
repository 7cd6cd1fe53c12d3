import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code, cwd=None, **env_updates):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("CVSENSE_THREADS",)}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_updates)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)
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


def test_first_lazy_name_loads_numpy_after_the_thread_override():
    # import cvsense loads no numpy; the first public name that needs it does, with the
    # BLAS variables already set.
    code = (
        "import os, sys\n"
        "seen = {}\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.update((v, os.environ.get(v)) for v in {BLAS_VARS!r})\n"
        "        return None\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import cvsense\n"
        "assert 'numpy' not in sys.modules and not seen\n"
        "cvsense.entangled_rms_error\n"
        "print(sorted(seen.items()))"
    )
    assert run_python(code, CVSENSE_THREADS="3") == str(sorted((v, "3") for v in BLAS_VARS))


def test_fock_oracle_loads_no_other_cvsense_module():
    # The oracle checks its factor only for truncation, so it needs nothing from gaussian.
    out = run_python(
        "import sys, cvsense.fock\n"
        "print(sorted(k for k in sys.modules if k.startswith('cvsense.')))"
    )
    assert out == "['cvsense.fock']"


# The cvsense modules each command loads: none loads fock, and only fisher loads fisher
# and the dense engine, gaussian.
CAMPAIGN = ["allocation", "cli", "protocols"]
COMMAND_MODULES = [
    (["rms-curve", "--photons-per-node", "1.0", "--m-min", "10", "--m-max", "100"], CAMPAIGN),
    (["ratio-curve", "--mode", "vs-M", "--total-photons", "10"], CAMPAIGN),
    (["ratio-curve", "--mode", "vs-loss", "--total-photons", "10"], CAMPAIGN),
    (["monte-carlo", "--config", "configs/fig1_check.cfg", "--trials", "100"], CAMPAIGN),
    (["weighted", "--config", "configs/weighted_m2.cfg"], ["allocation", "cli"]),
    (["fisher", "--draws", "2", "--seed", "0"], sorted(CAMPAIGN + ["fisher", "gaussian"])),
    (["phase", "--config", "configs/phase_sweep.cfg", "--trials", "100"], CAMPAIGN),
]


@pytest.mark.parametrize("args, modules", COMMAND_MODULES,
                         ids=[" ".join(args[:3]) for args, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_calls(tmp_path, args, modules):
    code = (
        "import sys\n"
        "from cvsense import cli\n"
        f"assert cli.main({args + ['--out', str(tmp_path / 'x.csv')]!r}) == 0\n"
        "print(sorted(k for k in sys.modules if k.startswith('cvsense.')), 'click' in sys.modules)"
    )
    loaded = run_python(code, cwd=REPO_ROOT)
    assert loaded == f"{[f'cvsense.{m}' for m in modules]} False"


def test_every_public_name_resolves_and_is_listed():
    import cvsense

    listed = dir(cvsense)
    for name in cvsense.__all__:
        module = importlib.import_module(f"cvsense.{cvsense._HOME[name]}")
        assert getattr(cvsense, name) is getattr(module, name)
        assert name in listed
    assert {"gaussian", "protocols", "allocation", "fisher", "fock", "cli"} <= set(listed)
    assert cvsense.fock is importlib.import_module("cvsense.fock")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cvsense.no_such_name
