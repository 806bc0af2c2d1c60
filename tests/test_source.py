"""Static checks over the package source."""

import ast
from pathlib import Path

import cjopt

SRC = Path(cjopt.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements; runtime checks must raise.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, f"assert statements in src: {found}"
