"""The package's public names: each module's ``__all__`` is their one
declaration, and the package itself re-exports nothing."""

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
