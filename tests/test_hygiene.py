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


#: Definitions in ``src/gencluster/`` that nothing in ``src/``, ``scripts/``
#: or ``perfbench/`` uses, kept on purpose.  Every other definition must
#: have a user there; a helper only the tests need lives in the tests.
UNUSED_ON_PURPOSE = {
    "constant": "kernel constructor beside LaurentPolynomial.zero and .one",
    "parse_matrix": "reads back the text form write_matrix prints",
    "scaled_matrix": "the whole divisor-scaled matrix; the library reads one row at a time",
}


def defined_names(tree):
    """``{name: line}`` of every function, class and method a module defines."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in ast.walk(tree) if isinstance(node, kinds)}


def referenced_names(tree):
    """Every name a module reads, as a name, an attribute or a string.

    Strings count because a name can be looked up by its text (the
    benchmark's tracer wraps attributes it names in strings).
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unused_definitions(sources, users):
    """``(path, line, name)`` of every definition in ``sources`` no user reads.

    Both arguments map a path to module source; dunder methods are
    exempt, since the language calls them.
    """
    read = set()
    for source in users.values():
        read |= referenced_names(ast.parse(source))
    return sorted(
        (path, line, name)
        for path, source in sources.items()
        for name, line in defined_names(ast.parse(source)).items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )


def test_unused_definitions_are_detected():
    sources = {
        "a.py": (
            "def f():\n    pass\n"
            "def g():\n    pass\n"
            "class C:\n"
            "    def __init__(self):\n        pass\n"
            "    def m(self):\n        pass\n"
            "    def n(self):\n        pass\n"
        ),
    }
    users = {"b.py": "g()\nc.m()\ngetattr(c, 'n')\n"}
    assert unused_definitions(sources, users) == [("a.py", 1, "f"), ("a.py", 5, "C")]


def test_every_definition_is_used():
    def read(folder):
        return {
            str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
            for path in sorted((ROOT / folder).rglob("*.py"))
        }

    users = {**read("src"), **read("scripts"), **read("perfbench")}
    unused = unused_definitions(read("src/gencluster"), users)
    assert [u for u in unused if u[2] not in UNUSED_ON_PURPOSE] == []
    # An exemption whose name is used again, or gone, is dropped.
    assert sorted(UNUSED_ON_PURPOSE) == sorted(name for _, _, name in unused)
