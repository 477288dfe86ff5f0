"""Every op output is built by tensor._record, and every op is declared by tensor._op.

No other relight code calls ``__new__``; ``_record`` is called only by the
``_op`` wrapper and by ``Tensor.detach``; and every public function of
``tensor.py`` but ``zero_grad`` carries ``@_op``, so no op body builds its own
record or skips the operand rule.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relight"
NOT_OPS = {"zero_grad"}  # the public functions of tensor.py that are not ops


def sites(source, name, matches):
    """(name, dotted path of the enclosing defs, or "<module>") of every node of source that matches."""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if matches(node):
            yield name, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    yield from visit(ast.parse(source, filename=name), "<module>")


def new_sites(path):
    return sites(path.read_text(), path.name, lambda node: isinstance(node, ast.Attribute) and node.attr == "__new__")


def record_sites(source, name="tensor.py"):
    """Where source calls ``_record``."""
    calls = lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record"
    return sorted(sites(source, name, calls))


def ops(source):
    """The module-level functions of source that carry ``@_op``."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and any(getattr(d, "id", None) == "_op" for d in node.decorator_list)
    }


def undeclared_ops(source):
    """The public module-level functions of source, but NOT_OPS, that do not carry ``@_op``."""
    functions = [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    return sorted({name for name in functions if not name.startswith("_")} - NOT_OPS - ops(source))


def test_only_record_bypasses_the_tensor_constructor():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = sorted(site for path in files for site in new_sites(path))
    assert found == [("tensor.py", "_record")], found


def test_only_op_and_detach_call_record():
    found = [site for path in sorted(SRC.glob("*.py")) for site in record_sites(path.read_text(), path.name)]
    assert found == [("tensor.py", "Tensor.detach"), ("tensor.py", "_op.op")], found


def test_every_public_function_of_tensor_but_zero_grad_is_an_op():
    source = (SRC / "tensor.py").read_text()
    assert ops(source)
    assert undeclared_ops(source) == []


HAND_WRITTEN = '''
@_op
def declared(x: Tensor) -> Tensor:
    return x.data, lambda g: (g,)


def hand_written(x: Tensor) -> Tensor:
    return _record(x.data, (x,), lambda g: (g,))
'''


def test_the_guards_catch_an_op_that_builds_its_own_record():
    assert record_sites(HAND_WRITTEN) == [("tensor.py", "hand_written")]
    assert undeclared_ops(HAND_WRITTEN) == ["hand_written"]
