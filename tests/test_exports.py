"""Every name that dirtda or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import dirtda

MODULES = [dirtda] + [
    importlib.import_module(f"dirtda.{info.name}") for info in pkgutil.iter_modules(dirtda.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which it does not define"
