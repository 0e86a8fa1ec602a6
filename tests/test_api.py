import ast
import importlib
import pathlib

import pytest

import tsui

SUBMODULES = ("cli", "data", "fitting", "fock", "gaussian", "metrology", "simulate")


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


def _imports(path: pathlib.Path) -> tuple[set[str], list[str]]:
    """The tsui modules a source file imports, and every private name it
    takes from one (``from .m import _x``, or ``m._x`` on an imported m)."""
    tree = ast.parse(path.read_text())
    modules: set[str] = set()
    bound: dict[str, str] = {}
    private: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tsui")):
            base = (node.module or "").removeprefix("tsui").lstrip(".")
            for alias in node.names:
                if base:
                    modules.add(base)
                    if alias.name.startswith("_"):
                        private.append(f"{base}.{alias.name}")
                else:  # from . import m
                    modules.add(alias.name)
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tsui."):
                    modules.add(alias.name.removeprefix("tsui."))
                    if alias.asname:
                        bound[alias.asname] = alias.name.removeprefix("tsui.")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and node.attr.startswith("_")
        ):
            private.append(f"{bound[node.value.id]}.{node.attr}")
    return modules, private


SOURCES = {p.stem: p for p in pathlib.Path(tsui.__file__).parent.glob("*.py")}


def test_import_rule():
    # No module reaches into another's private names; the file formats
    # and shared checks depend on nothing else in tsui; the simulator
    # does not depend on the fitter.
    edges = {name: _imports(path) for name, path in SOURCES.items()}
    assert {name: private for name, (_, private) in edges.items() if private} == {}
    assert edges["data"][0] == set()
    assert "fitting" not in edges["simulate"][0]


def test_import_rule_sees_private_reads(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from . import metrology\nfrom .gaussian import _check, ok\n"
        "import tsui.fock as f\nx = metrology._grid(f._y, f.z)\n"
    )
    modules, private = _imports(src)
    assert modules == {"metrology", "gaussian", "fock"}
    assert sorted(private) == ["fock._y", "gaussian._check", "metrology._grid"]
