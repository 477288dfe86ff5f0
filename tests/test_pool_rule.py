"""src/relight runs work on threads in one place: the strip pool of attention.py.

Only ``_pooled``, which opens a forward's one pool, names an executor or a thread
(``_by_strips`` submits to that pool without naming one), and only
``_openblas_threads``, which finds the count ``_pooled`` holds at one while its
pool runs, names OpenBLAS's thread count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relight"
EXECUTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Pool", "concurrent", "multiprocessing"}
BLAS_SYMBOL = "num_threads"  # in every OpenBLAS thread count symbol, e.g. scipy_openblas_set_num_threads64_


def mentions(source: str) -> list[tuple[str, int, str]]:
    """(top-level definition, line, name) of every executor or thread name in source, an import
    of one included, and of every name or string that names an OpenBLAS thread count symbol."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and (name in EXECUTORS or BLAS_SYMBOL in name):
                found.append((where, node.lineno, name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                names = modules + [alias.name for alias in node.names]
                found += [(where, node.lineno, name) for name in names if name.split(".")[0] in EXECUTORS]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and BLAS_SYMBOL in node.value:
                found.append((where, node.lineno, node.value))
    return found


def seam(source: str) -> set[str]:
    """The top-level definitions that name an executor, a thread or a BLAS thread count symbol,
    imports left out."""
    return {where for where, _, name in mentions(source) if where != "<module>"}


def test_only_the_pool_names_an_executor_or_the_blas_thread_count():
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        if path.name == "attention.py":
            assert seam(source) == {"_pooled", "_openblas_threads"}
            assert [where for where, _, name in mentions(source) if name == "concurrent.futures"] == ["_pooled"]
        else:
            assert mentions(source) == [], path.name


def test_the_guard_sees_a_second_pool():
    # A conv that ran its own column blocks on threads, with OpenBLAS held at one thread.
    source = """
import concurrent.futures as cf
from threading import Thread

def conv2d(x, blocks, lib):
    lib.scipy_openblas_set_num_threads64_(1)
    with cf.ThreadPoolExecutor(2) as pool:
        parts = list(pool.map(x.block, blocks))
    getattr(lib, "openblas_set_num_threads")(2)
    return parts

def gelu(x):
    Thread(target=x.run).start()
"""
    assert mentions(source) == [
        ("<module>", 2, "concurrent.futures"),
        ("<module>", 3, "Thread"),
        ("conv2d", 6, "scipy_openblas_set_num_threads64_"),
        ("conv2d", 7, "ThreadPoolExecutor"),
        ("conv2d", 9, "openblas_set_num_threads"),
        ("gelu", 13, "Thread"),
    ]
    assert seam(source) == {"conv2d", "gelu"}
