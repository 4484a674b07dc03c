"""Source hygiene: every name a module imports is read by that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(tree):
    """``{bound name: line}`` of every import in a module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unread_imports(source):
    """``(line, name)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name)
        for name, line in imported_names(tree).items()
        if name not in read
    )


def test_unread_imports_are_detected():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(a.b, w)\n"
    assert unread_imports(source) == [(1, "os"), (3, "z")]


def test_every_import_is_read():
    # Package __init__ modules import to re-export, so they are skipped.
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert unread == []
