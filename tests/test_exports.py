"""Every name a branelab module exports exists, and every factory the
CLI offers is exported."""
import importlib
import pkgutil

import pytest

import branelab
from branelab import cli

MODULES = ["branelab"] + [f"branelab.{m.name}"
                          for m in pkgutil.iter_modules(branelab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", [])
               if not hasattr(module, entry)]
    assert not missing


@pytest.mark.parametrize("factory", [
    pytest.param(f, id=key) for registry in (cli.EMBEDDINGS, cli.MODELS)
    for key, (f, _reads) in registry.items()])
def test_cli_factories_are_exported(factory):
    module = importlib.import_module(factory.__module__)
    assert factory.__name__ in module.__all__
