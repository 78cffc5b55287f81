"""Every name in each rydeit module's __all__ exists, the package
re-exports only public names of its submodules, and no public name is
kept for the tests alone."""
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


# public names no code in src/rydeit calls, kept because an acceptance
# criterion (tests/test_acceptance.py) is built on them
_BACKS_A_CRITERION = {
    "ss1333_ladder_approximation": "criteria 5 and 6",
    "nb_tilde_raman_contribution": "criterion 6",
}


def _used_names(tree) -> set:
    """Names a module loads, reads as attributes, imports or mentions in a
    string (a docstring naming a tested reference path), outside
    ``__all__`` and outside the top-level statement that defines each."""
    used = set()
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(re.findall(r"\w+", sub.value))
        used |= names - {getattr(node, "name", None)}
    return used


def test_no_dead_public_names():
    """Every name in a submodule's ``__all__`` is re-exported by the
    package, referenced in ``src/rydeit`` outside its own definition, or
    backs an acceptance criterion: no public name lives on for tests alone."""
    src = Path(rydeit.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    reexported = {alias.name for node in ast.walk(trees.pop("__init__"))
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set().union(*map(_used_names, trees.values()))
    unused = sorted(name for m in pkgutil.iter_modules(rydeit.__path__)
                    for name in importlib.import_module(f"rydeit.{m.name}").__all__
                    if name not in reexported | used)
    assert unused == sorted(_BACKS_A_CRITERION)
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    assert all(name in acceptance for name in _BACKS_A_CRITERION)
