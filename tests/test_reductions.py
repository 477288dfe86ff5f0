"""tensor.py sums over an axis only through its one reduction rule, ``_sum_last``/``_sum_lead``."""

import ast
from pathlib import Path

TENSOR = Path(__file__).resolve().parents[1] / "src" / "relight" / "tensor.py"
REDUCTIONS = {"sum", "mean", "max"}
RULE = {"_sum_last", "_sum_lead"}


def axis_reductions(source: str) -> list[tuple[str, int]]:
    """(top-level function, line) of every .sum/.mean/.max call in source that is given an axis.

    A method call ``a.sum(0)`` takes its axis first, a function call
    ``np.sum(a, 0)`` second; either may pass ``axis=``.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in REDUCTIONS:
                continue
            on_numpy = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            if any(k.arg == "axis" for k in node.keywords) or len(node.args) > on_numpy:
                found.append((getattr(top, "name", "<module>"), node.lineno))
    return found


def test_every_axis_reduction_goes_through_the_rule():
    stray = [(name, line) for name, line in axis_reductions(TENSOR.read_text()) if name not in RULE]
    assert stray == []


def test_the_guard_sees_each_form_of_an_axis():
    # The means of layer_norm as it was written before the rule, and the other forms a sum takes.
    source = """
def layer_norm(x):
    mu = x.data.mean(axis=-1, keepdims=True)
    return (x.data * x.data).mean(-1)

def bias_grad(g):
    return np.sum(g, 0) + np.max(g, axis=0) + g.sum()
"""
    assert axis_reductions(source) == [("layer_norm", 3), ("layer_norm", 4), ("bias_grad", 7), ("bias_grad", 7)]
