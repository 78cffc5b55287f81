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
