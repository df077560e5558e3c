"""Every name a module exports through __all__ exists in it."""

import importlib
import pkgutil

import pytest

import andreief

MODULES = ["andreief"] + [
    f"andreief.{info.name}" for info in pkgutil.iter_modules(andreief.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} declares no __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
