"""Static checks over the package source."""

import ast
import importlib
from pathlib import Path

import cjopt

SRC = Path(cjopt.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_no_assert_statements():
    # `python -O` strips assert statements; runtime checks must raise.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, f"assert statements in src: {found}"


def test_benchmark_layers_resolve():
    # The benchmark wraps these functions by (module, attribute) at run
    # time; a rename in src/ would silently drop its spans.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), str(TRACING))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    missing = [f"{mod}.{attr}" for mod, attr in layers.values()
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert layers and not missing, f"benchmark layers missing from cjopt: {missing}"
