"""Each module of the package imports on its own, in a fresh interpreter:
the package root re-exports nothing, so no import order is fixed for it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "gl3hecke").glob("*.py") if p.stem != "__init__")


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_module_is_listed():
    assert {"arith", "hecke", "klpoly", "measures", "schuralg", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_on_its_own(name):
    run_fresh(f"import gl3hecke.{name}")


def test_kato_check_with_only_klpoly_imported():
    # kato_check imports measures when it first runs, as measures imports klpoly
    out = run_fresh("import sys\n"
                    "from gl3hecke import klpoly\n"
                    "assert 'gl3hecke.measures' not in sys.modules\n"
                    "print(klpoly.kato_check(1, 1, 2)['diff'])")
    assert float(out) <= 1e-6


def test_package_root_loads_no_submodule():
    out = run_fresh("import sys, gl3hecke\n"
                    "print(gl3hecke.__version__, sorted(m for m in sys.modules if m.startswith('gl3hecke.')))")
    assert out.split(" ", 1)[1].strip() == "[]"
