"""Source-level checks: the block orders and the copy order have one owner.

``channels.py`` alone reads the graph's block orders, regroups the copies of a
tensor power and calls ``tensor_power``; every other module works on
connections in index order and gets the copy order from
``channels.copy_grouping``.
"""

import ast
from pathlib import Path

import pytest

import polychan

SOURCES = sorted(Path(polychan.__file__).parent.glob("*.py"))
OWNER = "channels.py"
BLOCK_ORDER_NAMES = {"input_order", "output_order", "in_block_dims", "out_block_dims",
                     "_leg_grouping_index"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_range_loop(gen: ast.comprehension) -> bool:
    return isinstance(gen.iter, ast.Call) and _name(gen.iter.func) == "range"


def _is_copy_grouping_order(node) -> bool:
    """A comprehension like ``[c * legs + s for s in range(legs) for c in range(n)]``."""
    if not isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return False
    elt = node.elt
    return (len(node.generators) >= 2 and all(map(_is_range_loop, node.generators))
            and isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Add)
            and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    for side in (elt.left, elt.right)))


def offences(path: Path) -> list[str]:
    """Block-order names, ``tensor_power`` calls and inline copy orders in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = [_name(node)]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        found += [f"line {node.lineno}: {n}" for n in names if n in BLOCK_ORDER_NAMES]
        if isinstance(node, ast.Call) and _name(node.func) == "tensor_power":
            found.append(f"line {node.lineno}: tensor_power call")
        if _is_copy_grouping_order(node):
            found.append(f"line {node.lineno}: inline copy-grouping order")
    return found


def test_sources_found():
    assert OWNER in {p.name for p in SOURCES} and len(SOURCES) > 5


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != OWNER], ids=lambda p: p.name)
def test_block_and_copy_orders_stay_in_channels(path):
    assert offences(path) == []


def test_the_owner_holds_the_one_copy_order():
    # the detector sees the order where it lives, so an empty result elsewhere means something
    orders = [o for o in offences(Path(polychan.__file__).parent / OWNER)
              if o.endswith("inline copy-grouping order")]
    assert len(orders) == 1
