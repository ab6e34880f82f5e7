"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import dtcf

# __main__ runs the command line when imported
MODULES = ["dtcf"] + sorted(m.name for m in pkgutil.iter_modules(dtcf.__path__, "dtcf.")
                            if m.name != "dtcf.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
