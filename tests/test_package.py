"""The package's public names: each module's ``__all__`` is their one
declaration, and the package itself re-exports nothing.  Every name a
module imports from a sibling is used there or re-exported, and explicit
inverses and factorizations live only in `linalg`."""

import ast
import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kronfisher

# every module but the command line, which exports nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(kronfisher.__path__) if m.name != "cli")

# benchmarks/tracing.py wraps these in the factorizations and precond
# namespaces, so they stay imported there although nothing in them calls them
UNUSED_IMPORTS_ALLOWED = {
    ("factorizations", "zf_matvec"),
    ("factorizations", "zf_rmatvec"),
    ("precond", "inv_sqrt"),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kronfisher.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_nothing():
    public = [n for n, v in vars(kronfisher).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert public == []


def test_cli_import_leaves_numpy_unloaded():
    """Numpy (and BLAS, which reads its thread count as it loads) loads
    only when a command runs, so the launching shell's settings apply."""
    src = str(Path(kronfisher.__file__).resolve().parent.parent)
    code = "import sys, kronfisher.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_sibling_imports_are_used_or_exported():
    unused = []
    for path in sorted(Path(kronfisher.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module(f"kronfisher.{path.stem}")
        kept = used | set(getattr(module, "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in kept and (path.stem, name) not in UNUSED_IMPORTS_ALLOWED:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []


def test_explicit_inverses_live_in_linalg():
    """`linalg` is the one home of an explicit inverse and of the
    factorizations behind one, so the factorization that suits each matrix
    (Cholesky for a positive-definite one) is chosen in one place."""
    calls = ("np.linalg.inv(", "np.linalg.cholesky(", "np.linalg.eigh(")
    found = [(path.name, call)
             for path in sorted(Path(kronfisher.__file__).parent.glob("*.py"))
             if path.name != "linalg.py"
             for call in calls if call in path.read_text()]
    assert found == []
