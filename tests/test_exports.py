import importlib
import pkgutil

import pytest

import fedstat

MODULES = ["fedstat"] + [
    f"fedstat.{info.name}"
    for info in pkgutil.iter_modules(fedstat.__path__)
    if info.name != "cli"  # the command line exports nothing
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
