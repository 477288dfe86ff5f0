"""attention.py, windows.py and generator.py cut rows only through the strip rule.

``windows._rows`` crops, ``attention._by_strips`` joins; the generator's head
reads its context rows only through them.
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


def row_cuts(source: str) -> list[tuple[str, int]]:
    """(top-level function, line) of every call in source that may cut or join rows: a crop, a ``_rows``
    or a concat that does not name axis 0, the channels."""
    found = calls(source, {"crop", "_rows"})
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) != "concat":
                continue
            axis = [k.value for k in node.keywords if k.arg == "axis"] or node.args[1:2]
            if not (len(axis) == 1 and isinstance(axis[0], ast.Constant) and axis[0].value == 0):
                found.append((getattr(top, "name", "<module>"), node.lineno))
    return sorted(found, key=lambda call: call[1])


def test_only_the_rule_crops_or_concats():
    attention, windows = ATTENTION.read_text(), WINDOWS.read_text()
    assert calls(attention, {"crop"}) == []  # its strips read their rows through windows._rows
    assert {name for name, _ in calls(attention, {"concat"})} == {"_by_strips"}
    assert {name for name, _ in calls(windows, {"crop"})} == {"_rows"}
    assert calls(windows, {"concat"}) == []


def test_the_generator_cuts_rows_only_through_the_rule():
    # The head's context rows and the join of the first-stage strips they come from are cut and made
    # only by _by_strips; the generator's one concat stacks a strip's two branches along channels.
    source = GENERATOR.read_text()
    assert row_cuts(source) == []
    assert [name for name, _ in calls(source, {"concat"})] == ["forward"]
    assert [name for name, _ in calls(source, RULE)] == ["forward"]


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


def test_the_generator_guard_sees_a_stray_crop():
    # A fusion head that cut its own context rows from a whole feature map and joined its strips;
    # the channel concat of the branches is no row cut, in either spelling of its axis.
    source = """
def forward(x, local, recovered, head, rows):
    feat = T.concat([local, recovered], axis=0)
    feat = T.concat([feat, feat], 0)
    out = [head(T.crop(feat, max(0, top - 2), 0, rows + 4, 64)) for top in range(0, 64, rows)]
    return T.concat(out, axis=-2)

def stage_one(first, lo, hi):
    return T.concat([W._rows(t, 0, 2) for t in first], 1)
"""
    assert row_cuts(source) == [("forward", 5), ("forward", 6), ("stage_one", 9), ("stage_one", 9)]
