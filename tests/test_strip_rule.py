"""attention.py, windows.py and generator.py cut rows only through the strip rule.

``windows._rows`` crops, ``attention._by_strips`` joins.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relight"
ATTENTION = SRC / "attention.py"
WINDOWS = SRC / "windows.py"
GENERATOR = SRC / "generator.py"
CUTS = {"crop", "concat"}
RULE = {"_rows", "_by_strips"}


def calls(source: str, names: set[str]) -> list[tuple[str, int]]:
    """(top-level function, line) of every call in source to one of names, as ``T.name`` or bare ``name``."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append((getattr(top, "name", "<module>"), node.lineno))
    return found


def test_only_the_rule_crops_or_concats():
    attention, windows = ATTENTION.read_text(), WINDOWS.read_text()
    assert calls(attention, {"crop"}) == []  # its strips read their rows through windows._rows
    assert {name for name, _ in calls(attention, {"concat"})} == {"_by_strips"}
    assert {name for name, _ in calls(windows, {"crop"})} == {"_rows"}
    assert calls(windows, {"concat"}) == []


def test_the_generator_crops_only_through_the_rule():
    source = GENERATOR.read_text()
    assert calls(source, {"crop"}) == []
    # its one concat joins a head strip's local and recovered global channels, not rows
    assert [name for name, _ in calls(source, {"concat"})] == ["forward"]
    assert {name for name, _ in calls(source, RULE)} == {"forward"}


def test_the_guard_sees_a_second_cut():
    # mhsa as it was written before the rule, with its own tiles, crop and concat.
    source = """
def mhsa(q, k, v, L, hd):
    tiles = T._blocks(L, 8 * L)
    if len(tiles) == 1:
        ctx = T.softmax(q @ k) @ v
    else:
        ctx = T.concat([T.softmax(T.crop(q, t.start, 0, t.stop - t.start, hd) @ k) @ v for t in tiles], axis=2)
    return ctx

def strip(x):
    return concat([crop(x, 0, 0, 1, 1)])
"""
    assert calls(source, CUTS) == [("mhsa", 7), ("mhsa", 7), ("strip", 11), ("strip", 11)]


def test_the_generator_guard_sees_a_crop():
    # A fusion head that cut its own strips with context rows; the channel concat of the branches is no row cut.
    source = """
def forward(x, feat, head, rows):
    feat = T.concat([feat, feat], axis=0)
    out = [head(T.crop(feat, max(0, top - 2), 0, rows + 4, 64)) for top in range(0, 64, rows)]
    return T.concat(out, axis=-2)
"""
    assert calls(source, {"crop"}) == [("forward", 4)]
