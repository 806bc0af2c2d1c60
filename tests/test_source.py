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


def test_no_global_statements():
    # Module state written from inside functions hides what a result
    # depends on; what a draw shares lives on the draw (ChannelSet).
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"global or nonlocal statements in src: {found}"


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


def test_exports_resolve():
    # A name left in a module's __all__ after its definition is gone breaks
    # `from cjopt.<module> import *` and nothing else would notice.
    stale = []
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module("cjopt" if path.stem == "__init__" else f"cjopt.{path.stem}")
        stale += [f"{mod.__name__}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not stale, f"__all__ names that do not resolve: {stale}"


def test_src_reachable_from_cli():
    # Every top-level function and class in src/ is reached by name from
    # cli.main or a module-level statement; code only the tests call
    # belongs in tests/.
    defs = {}  # name -> [(module, node)]
    roots = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    main = [node for mod, node in defs.get("main", []) if mod == "cli"]
    assert main, "cli.main not found"
    reached = {("cli", "main")}
    todo = roots + main
    while todo:
        for sub in ast.walk(todo.pop()):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            for mod, node in defs.get(name, []):
                if (mod, name) not in reached:
                    reached.add((mod, name))
                    todo.append(node)
    unreached = sorted(f"{mod}.{name}" for name, entries in defs.items()
                       for mod, _ in entries if (mod, name) not in reached)
    assert not unreached, f"defined in src/ but unreachable from the CLI: {unreached}"
