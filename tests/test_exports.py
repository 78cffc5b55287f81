"""Every name in each rydeit module's __all__ exists."""
import importlib
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
