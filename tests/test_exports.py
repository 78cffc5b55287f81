"""Every name in each rydeit module's __all__ exists, and the package
re-exports only public names of its submodules."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import rydeit


@pytest.mark.parametrize("name", ["rydeit"] + [
    f"rydeit.{m.name}" for m in pkgutil.iter_modules(rydeit.__path__)])
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_single_atom_solve_is_exported():
    """The single-atom operands and their stacked solve, which the collisional
    solve and the scan rows share, are public names of noninteracting."""
    from rydeit import noninteracting

    assert {"single_atom_operands", "solve_sigma"} <= set(noninteracting.__all__)


def test_package_imports_only_public_names():
    """Each name ``rydeit/__init__.py`` imports from a submodule is in that
    submodule's ``__all__``."""
    tree = ast.parse(inspect.getsource(rydeit))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    private = [(module, name) for module, name in imported
               if name not in importlib.import_module(f"rydeit.{module}").__all__]
    assert private == []
