"""Every imported name is read somewhere in the file that imports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files():
    for sub in ("src/sobtrace", "tests", "demos"):
        for path in sorted((ROOT / sub).glob("*.py")):
            # the package's __init__ imports names to re-export them
            if path.name != "__init__.py":
                yield path


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    unused = {}
    for path in _files():
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}
