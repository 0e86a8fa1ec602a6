import importlib

import pytest

import tsui

SUBMODULES = ("cli", "fitting", "fock", "gaussian", "metrology", "simulate")


def test_package_exports_resolve():
    assert [name for name in tsui.__all__ if not hasattr(tsui, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"tsui.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_submodule_objects():
    # Every top-level name is the object its submodule exports.
    owners = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"tsui.{name}")
        owners.update({n: getattr(module, n) for n in module.__all__})
    for name in tsui.__all__:
        if name != "__version__":
            assert getattr(tsui, name) is owners[name], name
