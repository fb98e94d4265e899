"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import inclab

SOURCE = Path(inclab.__file__).parent


def test_library_has_no_assert_statements():
    # runtime checks must raise named errors: ``assert`` vanishes under -O
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
