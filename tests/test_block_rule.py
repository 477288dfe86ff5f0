"""tensor.py cuts an op into column blocks only in ``conv2d``, the one op that calls ``_blocks``."""

from pathlib import Path

from test_strip_rule import calls

TENSOR = Path(__file__).resolve().parents[1] / "src" / "relight" / "tensor.py"
RULE = {"conv2d"}


def test_only_conv2d_cuts_blocks():
    assert {name for name, _ in calls(TENSOR.read_text(), {"_blocks"})} == RULE


def test_the_guard_sees_a_second_blocked_op():
    # gelu as it was once written, with its own flat blocks.
    source = """
def gelu(x):
    d = x.data.reshape(-1)
    t, y = np.empty(d.size), np.empty(d.size)
    blocks = _blocks(d.size, 8)
    for blk in blocks:
        np.multiply(d[blk], d[blk], out=t[blk])

def conv2d(x, w, n, Cout):
    blocks = T._blocks(n, 8 * Cout)
"""
    assert calls(source, {"_blocks"}) == [("gelu", 5), ("conv2d", 10)]
