"""relight imports nothing beyond numpy, the standard library and itself, and uses every name it imports."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relight"
ALLOWED = {"numpy", "relight"} | set(sys.stdlib_module_names)


def imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_relight_imports_only_numpy_and_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {f"{path.name}: {root}" for path in files for root in imported_roots(path) if root not in ALLOWED}
    assert not foreign, sorted(foreign)


def unused_imports(path):
    """Names path imports (past ``from __future__``) that it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    unused = {f"{path.name}: {name}" for path in sorted(SRC.glob("*.py")) for name in unused_imports(path)}
    assert not unused, sorted(unused)
