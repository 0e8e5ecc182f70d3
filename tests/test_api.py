"""The public names: every export resolves and the package exports what it imports."""

import ast
import importlib
import pkgutil

import dfscore


def test_every_export_resolves_and_the_package_exports_its_imports():
    modules = [
        importlib.import_module(f"dfscore.{info.name}")
        for info in pkgutil.iter_modules(dfscore.__path__)
    ]
    for module in [dfscore, *modules]:
        exports = getattr(module, "__all__", ())
        missing = [name for name in exports if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(exports)) == len(exports), module.__name__

    with open(dfscore.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(dfscore.__all__) == imported
