"""Every name that dirtda or one of its modules exports resolves."""

import ast
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



def test_package_exports_are_module_exports():
    # a name dirtda re-exports from a submodule is part of that submodule's API
    with open(dirtda.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    unlisted = [
        f"dirtda.{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name in dirtda.__all__
        and alias.name not in importlib.import_module(f"dirtda.{node.module}").__all__
    ]
    assert not unlisted, f"dirtda re-exports {unlisted}, missing from their module's __all__"
