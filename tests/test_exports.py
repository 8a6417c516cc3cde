"""Every name a branelab module exports exists."""
import importlib
import pkgutil

import pytest

import branelab

MODULES = ["branelab"] + [f"branelab.{m.name}"
                          for m in pkgutil.iter_modules(branelab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", [])
               if not hasattr(module, entry)]
    assert not missing
