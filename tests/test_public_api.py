import ast
from pathlib import Path

import cmreg


def test_all_lists_exactly_what_the_package_imports():
    # a stale entry in __all__ would otherwise fail only at `from cmreg import *`
    tree = ast.parse(Path(cmreg.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(cmreg.__all__) == sorted(imported)
    namespace = {}
    exec("from cmreg import *", namespace)  # raises on an entry that does not resolve
    assert set(cmreg.__all__) <= namespace.keys()
