"""Every op output is built by tensor._record: no other relight code calls ``__new__``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relight"


def new_sites(path):
    """(file name, innermost enclosing function or "<module>") of every ``.__new__`` in path."""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            yield path.name, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


def test_only_record_bypasses_the_tensor_constructor():
    files = sorted(SRC.glob("*.py"))
    assert files
    sites = sorted(site for path in files for site in new_sites(path))
    assert sites == [("tensor.py", "_record")], sites
