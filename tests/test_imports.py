"""Each module of the package imports on its own, in a fresh interpreter:
the package root re-exports nothing, so no import order is fixed for it;
and the modules import one another without a cycle."""

import ast
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
    out = run_fresh("from gl3hecke import klpoly\n"
                    "print(klpoly.kato_check(1, 1, 2)['diff'])")
    assert float(out) <= 1e-6


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that a module's source imports, at any depth of
    it, deferred imports in functions included: `from . import x`,
    `from .x import ...`, `import gl3hecke.x` and `from gl3hecke[.x] import ...`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gl3hecke.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "gl3hecke":
                    continue
                parts = parts[1:] or [""]
            if parts[0]:
                out.add(parts[0])  # from .x import ... or from gl3hecke.x import ...
            else:
                out |= {a.name for a in node.names}  # from . import x, from gl3hecke import x
    return out & set(MODULES)


def test_package_imports_finds_every_form():
    code = ("from . import hecke as h, tau\nfrom .arith import is_prime\n"
            "import gl3hecke.csvio\nimport numpy\nfrom math import pi\n"
            "def f():\n    from gl3hecke import measures\n    from gl3hecke.cli import main\n")
    assert package_imports(ast.parse(code)) == {"hecke", "tau", "arith", "csvio", "measures", "cli"}


def test_import_graph_is_acyclic():
    graph = {name: package_imports(ast.parse((SRC / "gl3hecke" / f"{name}.py").read_text()))
             for name in MODULES}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in MODULES:
        visit(name)


def test_package_root_loads_no_submodule():
    out = run_fresh("import sys, gl3hecke\n"
                    "print(gl3hecke.__version__, sorted(m for m in sys.modules if m.startswith('gl3hecke.')))")
    assert out.split(" ", 1)[1].strip() == "[]"
