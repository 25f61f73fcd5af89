import ast
import importlib
import pkgutil

import tblim


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(tblim.__path__):
        module = importlib.import_module(f"tblim.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_every_package_import_resolves():
    with open(tblim.__file__) as fh:
        tree = ast.parse(fh.read())
    names = [alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(tblim, name)] == []
