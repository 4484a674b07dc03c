"""Source hygiene: every name a module imports is read by that module."""

import ast
import importlib
import importlib.util
import io
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

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


#: Names private to the Laurent kernel: the helpers that build, bound and
#: move results on packed keys, and the attributes that hold the key format
#: (a polynomial's, a packed monomial's and a column map's packed images).
KERNEL_PRIVATE_IMPORTS = {"_trusted", "_drop_zeros", "_extremes", "_repack"}
KERNEL_PRIVATE_ATTRIBUTES = {
    "_keys", "_amp", "_layout", "_packed", "_divisor", "_numer",
    "_key", "_bound", "_rung", "_rungs", "_row_keys",
}


def kernel_internals(source):
    """``(line, name)`` of every import or attribute read of a kernel-private name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name in KERNEL_PRIVATE_IMPORTS
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in KERNEL_PRIVATE_ATTRIBUTES | KERNEL_PRIVATE_IMPORTS:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_kernel_internals_are_detected():
    source = (
        "from .laurent_kernel import VariableTable, _trusted as t, _extremes\n"
        "p._keys = {}\n"
        "print(p._amp, table._layout.offset, mono._packed(), lk._drop_zeros)\n"
        "print(p.terms, seed._trusted_seed, _amplitude)\n"
        "print(side._key, side._rung.offset, columns.sides(row), columns._rungs)\n"
    )
    assert kernel_internals(source) == [
        (1, "_extremes"), (1, "_trusted"),
        (3, "_amp"), (3, "_drop_zeros"), (3, "_layout"), (3, "_packed"),
        (5, "_key"), (5, "_rung"), (5, "_rungs"),
    ]


def test_key_format_stays_in_the_kernel():
    # Only laurent_kernel.py reads packed keys and their bounds.
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "gencluster").glob("*.py"))
        if path.name != "laurent_kernel.py"
        for line, name in kernel_internals(path.read_text(encoding="utf-8"))
    ]
    assert found == []


#: The sizes the folded layout is worked out from.  Only ``unfolding.py``
#: turns them into column positions; the other modules read the ranges
#: of :class:`~gencluster.unfolding.FoldedLayout`.
FOLDED_LAYOUT_SIZES = {"group_sizes", "m_original"}


def layout_size_reads(source):
    """``(line, name)`` of every attribute read of a folded layout size."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in FOLDED_LAYOUT_SIZES
    )


def test_layout_size_reads_are_detected():
    source = (
        "frozen_end = fm.layout.total + fm.m_original\n"
        "sizes = fs.folded.group_sizes\n"
        "fm.m_original = 2\n"
        "print(layout.f_block, layout.group_range(0))\n"
    )
    assert layout_size_reads(source) == [(1, "m_original"), (2, "group_sizes")]


def test_folded_layout_stays_in_unfolding():
    # Only unfolding.py works out folded column positions; the benchmark's
    # tracer under perfbench/ reads the sizes as a state key, not as positions.
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "gencluster").glob("*.py"))
        if path.name != "unfolding.py"
        for line, name in layout_size_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


#: The ``gencluster`` modules each module of the package imports, reviewed:
#: ``module: (at import time, inside functions)``.  Each layer imports
#: only the layers below it.  The quotient layer is imported inside the
#: ``cli_io`` functions whose targets need it (and by the package's
#: ``__getattr__``, through ``importlib``), so the other targets never
#: load it.
REVIEWED_IMPORTS = {
    "__init__": ({
        "cli_io", "errors", "gca_seed", "laurent_kernel", "matrix_mutation",
        "root_adjoin", "unfolding",
    }, set()),
    "__main__": ({"cli_io"}, set()),
    "errors": (set(), set()),
    "laurent_kernel": ({"errors"}, set()),
    "matrix_mutation": ({"errors"}, set()),
    "unfolding": ({"errors", "matrix_mutation"}, set()),
    "gca_seed": ({"errors", "laurent_kernel", "matrix_mutation"}, set()),
    "root_adjoin": ({"errors", "gca_seed", "laurent_kernel"}, set()),
    "fixtures": ({"errors", "gca_seed", "laurent_kernel", "matrix_mutation"}, set()),
    "randomgen": ({"gca_seed", "laurent_kernel", "matrix_mutation"}, set()),
    "quotient_embedding": ({
        "errors", "gca_seed", "laurent_kernel", "matrix_mutation", "root_adjoin",
        "unfolding",
    }, set()),
    "cli_io": ({
        "errors", "fixtures", "gca_seed", "laurent_kernel", "matrix_mutation",
        "randomgen", "root_adjoin", "unfolding",
    }, {"quotient_embedding"}),
}


def package_imports(source):
    """``(eager, lazy)``: the package modules a module imports, by where.

    Relative imports and absolute ``gencluster.`` imports count; an
    import inside a function is lazy, any other is eager.
    """
    tree = ast.parse(source)
    lazy_nodes = {
        node
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }
    eager, lazy = set(), set()
    for node in ast.walk(tree):
        found = set()
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and not module:
                found = {alias.name for alias in node.names}
            elif node.level == 1:
                found = {module.split(".")[0]}
            elif module == "gencluster":
                found = {alias.name for alias in node.names}
            elif module.startswith("gencluster."):
                found = {module.split(".")[1]}
        elif isinstance(node, ast.Import):
            found = {
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("gencluster.")
            }
        (lazy if node in lazy_nodes else eager).update(found)
    return eager, lazy


def test_package_imports_are_detected():
    source = (
        "import os\nimport gencluster.root_adjoin\n"
        "from .errors import A\nfrom gencluster import fixtures\n"
        "def f():\n    from . import quotient_embedding\n"
        "    from .unfolding.sub import g\n"
    )
    found = package_imports(source)
    assert found == ({"root_adjoin", "errors", "fixtures"}, {"quotient_embedding", "unfolding"})
    # As the source of a low layer, it breaks the table.
    assert found != REVIEWED_IMPORTS["laurent_kernel"]


def test_modules_import_only_the_reviewed_layers():
    # A new import is reviewed here; a reviewed one that is gone is dropped.
    found = {
        path.stem: package_imports(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "gencluster").glob("*.py"))
    }
    assert found == REVIEWED_IMPORTS


def run_with_src(code, *flags):
    """stdout of ``code`` run by a fresh interpreter that imports from ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("target", ["hadamard", "double-constant", "laurent"])
def test_block_and_seed_targets_leave_the_quotient_layer_unloaded(target):
    code = (
        "import io, sys\n"
        "from gencluster.cli_io import run_command\n"
        f"argv = ['verify', '{target}', '--seed', 'FIX-A', '--depth', '2']\n"
        "assert run_command(argv, io.StringIO()) == 0\n"
        "print('gencluster.quotient_embedding' in sys.modules)\n"
    )
    assert run_with_src(code) == "False\n"


#: Standard modules the command line does without at start-up: the value
#: types are plain classes (``dataclasses`` pulls in ``inspect``), the
#: skew-symmetrizer walk keeps integer ratio pairs, only ``trace`` digests
#: and only ``--sequences random:N`` draws.
UNLOADED_AT_IMPORT = ("dataclasses", "fractions", "hashlib", "inspect", "random")


def test_importing_the_command_line_leaves_heavy_modules_unloaded():
    # -S keeps site-packages start-up hooks out of the count.
    code = (
        "import sys\n"
        "import gencluster, gencluster.cli_io\n"
        f"print([name for name in {UNLOADED_AT_IMPORT!r} if name in sys.modules])\n"
    )
    assert run_with_src(code, "-S") == "[]\n"


#: Member and field names that more than one class defines.  The scans
#: cannot tell whose attribute a read is, so each entry names the reads
#: that are each owner's own.
SHARED_MEMBER_NAMES = {
    "group_sizes": (
        "FoldedLayout's by self.group_sizes and layout.group_sizes in unfolding; "
        "FoldedMatrix's (its layout's) by fm.group_sizes in perfbench's tracer "
        "and the tests"
    ),
    "layout": (
        "FoldedMatrix's by fm.layout in unfolding, quotient_embedding and cli_io; "
        "QuotientContext's by self.layout and ctx.layout in quotient_embedding"
    ),
    "m_original": (
        "FoldedLayout's by self.m_original and fm.layout.m_original in unfolding; "
        "FoldedMatrix's (its layout's) by fm.m_original in perfbench's tracer and "
        "the tests"
    ),
    "matrix": (
        "FoldedMatrix's by fm.matrix in unfolding, quotient_embedding and cli_io; "
        "GeneralizedSeed's by seed.matrix"
    ),
    "multiplicity": (
        "AdjoinedSeed's by self.multiplicity in root_adjoin and adjoined.multiplicity "
        "in quotient_embedding and the scripts; FoldedLayout's (the root multiplicity "
        "that scales its F columns) by self.multiplicity in unfolding and "
        "fm.layout.multiplicity in the tests"
    ),
    "one": (
        "VariableTable's by table.one() in gca_seed, fixtures, randomgen and "
        "quotient_embedding; LaurentPolynomial's by LaurentPolynomial.one(table)"
    ),
    "rows": (
        "CoefficientStrings's by seed.strings.rows in gca_seed; "
        "ExtendedExchangeMatrix's by matrix.rows"
    ),
    "seed": (
        "AdjoinedSeed's by adjoined.seed and tau_tilde(...).seed; ExchangeContext's "
        "by ctx.seed in root_adjoin"
    ),
    "table": (
        "the fields of GeneralizedSeed, LaurentPolynomial and Monomial by "
        "seed.table, p.table and mono.table; QuotientContext's folded table by "
        "self.table and ctx.table in quotient_embedding and the scripts; "
        "ColumnMap's by self.table in laurent_kernel and columns.table in "
        "quotient_embedding"
    ),
}


def definitions(tree):
    """The definitions of a module, split by how they are reached.

    Returns ``(plain, members, fields)``: ``plain`` maps the name of each
    function and class that is not a class's method to its line;
    ``members`` maps ``(class, name)`` of each method and property to
    its line; ``fields`` maps ``(class, name)`` of each name a class
    annotates in its body, lists in its ``__slots__`` or assigns on
    ``self`` to the line of its first such definition.
    """
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    members, fields, methods = {}, {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members[(node.name, item.name)] = item.lineno
                methods.add(item)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                fields.setdefault((node.name, item.target.id), item.lineno)
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                for entry in ast.walk(item.value):
                    if isinstance(entry, ast.Constant) and isinstance(entry.value, str):
                        fields.setdefault((node.name, entry.value), item.lineno)
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                fields.setdefault((node.name, sub.attr), sub.lineno)
    plain = {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, kinds) and node not in methods
    }
    return plain, members, fields


def referenced_names(tree):
    """``(names, attributes)`` a module reads.

    ``names`` holds every name read bare, as an attribute or in a
    string; ``attributes`` only those read as an attribute or in a
    string.  Strings count because a name can be looked up by its text
    (the benchmark's tracer wraps attributes it names in strings).
    """
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return names | attributes, attributes


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unused_definitions(sources, users):
    """``(path, line, name)`` of every definition in ``sources`` no user reads.

    Both arguments map a path to module source.  A function or class
    counts as read when a user names it in any way; a method or
    property, named ``Class.member``, only when a user reads it as an
    attribute or names it in a string, since a bare name of the same
    spelling is some local variable.  Dunder methods are exempt, since
    the language calls them.
    """
    names, attributes = set(), set()
    for source in users.values():
        read = referenced_names(ast.parse(source))
        names |= read[0]
        attributes |= read[1]
    unused = []
    for path, source in sources.items():
        plain, members, _ = definitions(ast.parse(source))
        unused += [
            (path, line, name)
            for name, line in plain.items()
            if name not in names and not is_dunder(name)
        ]
        unused += [
            (path, line, f"{owner}.{name}")
            for (owner, name), line in members.items()
            if name not in attributes and not is_dunder(name)
        ]
    return sorted(unused)


def unread_fields(sources, users):
    """``(path, line, Class.field)`` of every field in ``sources`` no user reads.

    A field counts as read when a user loads an attribute of its name;
    assigning it, on ``self`` or through a constructor keyword, is not a
    read.  Dunder names are exempt.  The scan cannot tell whose
    attribute a read is, so a name that two classes define is reviewed
    in :data:`SHARED_MEMBER_NAMES` instead.
    """
    read = {
        node.attr
        for source in users.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (path, line, f"{owner}.{name}")
        for path, source in sources.items()
        for (owner, name), line in definitions(ast.parse(source))[2].items()
        if name not in read and not is_dunder(name)
    )


def shared_member_names(sources):
    """``{name: owners}`` of each member or field name another class also defines.

    A method, property or field shares its name when another class
    defines a member or a field of that name; ``owners`` lists the
    ``Class.name`` of every such definition.
    """
    defined = set()
    for source in sources.values():
        _, members, fields = definitions(ast.parse(source))
        defined |= set(members) | set(fields)
    shared = {}
    for owner, name in sorted(defined):
        if is_dunder(name):
            continue
        if any(n == name and c != owner for c, n in defined):
            shared.setdefault(name, []).append(f"{owner}.{name}")
    return shared


def test_unused_definitions_are_detected():
    sources = {
        "a.py": (
            "def f():\n    pass\n"
            "def g():\n    pass\n"
            "class C:\n"
            "    def __init__(self):\n        pass\n"
            "    def m(self):\n        pass\n"
            "    def n(self):\n        pass\n"
            "    def o(self):\n        pass\n"
        ),
    }
    users = {"b.py": "g()\nc.m()\ngetattr(c, 'n')\no = 1\nprint(o)\n"}
    assert unused_definitions(sources, users) == [
        ("a.py", 1, "f"), ("a.py", 5, "C"), ("a.py", 12, "C.o"),
    ]


def test_unread_fields_are_detected():
    sources = {
        "a.py": (
            "class A:\n"
            "    size: int\n"
            "    kept: int\n"
            "class B:\n"
            "    __slots__ = ('rows', 'cols')\n"
            "    def __init__(self):\n"
            "        self.rows = self.cols = ()\n"
            "        self.cache = {}\n"
            "        self.__dict__ = {}\n"
        ),
    }
    users = {"b.py": "print(a.kept, b.rows)\nb.cache = {}\nA(size=1)\nsize = 2\n"}
    assert unread_fields(sources, users) == [
        ("a.py", 2, "A.size"), ("a.py", 5, "B.cols"), ("a.py", 8, "B.cache"),
    ]


def test_shared_member_names_are_detected():
    sources = {
        "a.py": (
            "class A:\n"
            "    size: int\n"
            "    def rows(self):\n        pass\n"
            "    def keys(self):\n        pass\n"
            "    def only(self):\n        pass\n"
        ),
        "b.py": (
            "class B:\n"
            "    rows: tuple\n"
            "    def __init__(self):\n        self.keys = {}\n"
            "    def size(self):\n        pass\n"
        ),
        # Fields alone: a field read through one class hides the other's.
        "c.py": (
            "class C:\n"
            "    __slots__ = ('seed', 'own')\n"
            "class D:\n"
            "    seed: int\n"
            "    def __init__(self):\n        self.own_too = 1\n"
        ),
    }
    assert shared_member_names(sources) == {
        "keys": ["A.keys", "B.keys"],
        "rows": ["A.rows", "B.rows"],
        "seed": ["C.seed", "D.seed"],
        "size": ["A.size", "B.size"],
    }


#: The reviewed constructors that build an object without its class's
#: checks, as ``(file, function)``; every other fast path reuses them.
TRUSTED_BYPASSES = {
    ("laurent_kernel.py", "_trusted"),
    ("laurent_kernel.py", "_trusted_monomial"),
    ("errors.py", "_trusted_replace"),
}


def calls(source, matches):
    """``(line, function)`` of every call whose callee node ``matches``.

    ``function`` is the innermost enclosing function, ``None`` at module
    or class level.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child.func):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def method_calls(source, matches):
    """:func:`calls` of every ``x.name(...)`` for which ``matches(x.name)``."""
    return calls(source, lambda called: isinstance(called, ast.Attribute) and matches(called))


def constructor_bypasses(source):
    """``(line, function)`` of every call that skips a constructor.

    These are calls of ``__new__``, on any receiver, and of
    ``__dict__.update``, as :func:`method_calls` finds them.
    """
    return method_calls(source, lambda called: called.attr == "__new__" or (
        called.attr == "update"
        and isinstance(called.value, ast.Attribute)
        and called.value.attr == "__dict__"
    ))


def test_constructor_bypasses_are_detected():
    source = (
        "def _trusted(x):\n"
        "    p = object.__new__(C)\n"
        "    p.__dict__.update(x.__dict__)\n"
        "class C:\n"
        "    def copy(self):\n"
        "        def inner():\n"
        "            return C.__new__(C)\n"
        "        return inner()\n"
        "    spare = object.__new__(object)\n"
        "c = C()\n"
        "c.__dict__['x'] = 1\n"
        "object.__setattr__(c, 'x', 2)\n"
    )
    assert constructor_bypasses(source) == [
        (2, "_trusted"), (3, "_trusted"), (7, "inner"), (9, None),
    ]


def test_only_the_reviewed_constructors_skip_checks():
    found = {
        (path.name, function): line
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, function in constructor_bypasses(path.read_text(encoding="utf-8"))
    }
    assert {k: v for k, v in found.items() if k not in TRUSTED_BYPASSES} == {}
    # A reviewed bypass that is gone is dropped from the table.
    assert set(found) == TRUSTED_BYPASSES


#: The functions that build a kernel ``Substitution``, as ``(file,
#: function)``, each once: the embedding ``phi`` (once per walk, in
#: ``QuotientContext.__init__``), and root adjunction's ``f -> g^n``, once
#: when it adjoins and once per transport check.  The unit elimination
#: ``E`` is ``FoldedLayout.eliminate_units`` and builds none.  A second
#: ``phi``, or a map built per call, shows here.
SUBSTITUTION_BUILDERS = (
    ("quotient_embedding.py", "__init__"),
    ("root_adjoin.py", "tau_tilde"),
    ("root_adjoin.py", "transport_check"),
)


def substitution_builds(source):
    """:func:`calls` of ``Substitution``, bare or read off a module."""
    return calls(source, lambda called: "Substitution" in (
        getattr(called, "id", None), getattr(called, "attr", None)
    ))


def test_substitution_builds_are_detected():
    source = (
        "from .laurent_kernel import Substitution\n"
        "def phi(t):\n"
        "    return Substitution({}, t, t)\n"
        "class C:\n"
        "    def __init__(self, t):\n"
        "        self.e = laurent_kernel.Substitution({}, t, t)\n"
        "    def kind(self):\n"
        "        return Substitution\n"
        "E = Substitution({}, T, T)\n"
    )
    assert substitution_builds(source) == [(3, "phi"), (6, "__init__"), (9, None)]


def test_only_the_reviewed_functions_build_substitutions():
    found = sorted(
        (path.name, function)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for _, function in substitution_builds(path.read_text(encoding="utf-8"))
    )
    assert found == sorted(SUBSTITUTION_BUILDERS)


#: The names and attributes that hold ``quotient_embedding``'s monomial
#: map kernel ``Substitution``: the embedding ``phi``.  Every image there
#: is built from exponent vectors, so it is applied through ``.vector``
#: only; the unit elimination ``E`` is a layout method on vectors.
VECTOR_ONLY_MAPS = {"phi"}


def polynomial_map_calls(source):
    """:func:`calls` of a map of :data:`VECTOR_ONLY_MAPS` on a polynomial.

    ``phi.vector(v)`` calls ``vector``, which is not matched.
    """
    return calls(source, lambda called: VECTOR_ONLY_MAPS & {
        getattr(called, "id", None), getattr(called, "attr", None)
    })


def test_polynomial_map_calls_are_detected():
    source = (
        "def walk(ctx, p, v):\n"
        "    phi = ctx.phi\n"
        "    phi.vector(v), ctx.phi.vector(v), ctx.layout.eliminate_units(v)\n"
        "    return phi(p), ctx.phi(p)\n"
        "def group(self, k):\n"
        "    return self.phi(k)\n"
    )
    assert polynomial_map_calls(source) == [(4, "walk"), (4, "walk"), (6, "group")]


def test_quotient_maps_apply_to_exponent_vectors_only():
    source = (ROOT / "src" / "gencluster" / "quotient_embedding.py").read_text(encoding="utf-8")
    assert polynomial_map_calls(source) == []


#: The kernel's two product loops, each with the kernel functions that add
#: a product's terms into a key dict through it.  ``_add_product`` is the
#: schoolbook loop, which the sum of products runs below the row route's
#: size and when the route does not pay; ``_add_row_product`` is the row
#: route.  Both are reached only from the sum of products.  ``poly_mul``
#: and ``poly_add`` are the sum's one- and two-pair cases and hold no loop
#: of their own.
PRODUCT_LOOP_CALLERS = {
    "_add_product": {"poly_sum_of_products"},
    "_add_row_product": {"poly_sum_of_products"},
}
LOOP_FREE = ("poly_mul", "poly_add")
LOOP_NODES = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def product_loop_calls(source):
    """``(line, function, loop)`` of each call of a product loop, bare or as an attribute, by :func:`calls`."""
    return [
        (line, function, loop)
        for loop in PRODUCT_LOOP_CALLERS
        for line, function in calls(source, lambda called, loop=loop: loop in (
            getattr(called, "id", None), getattr(called, "attr", None)
        ))
    ]


def loop_lines(source, names):
    """``{name: lines}`` of the loops and comprehensions in each top-level function ``names``."""
    return {
        node.name: [n.lineno for n in ast.walk(node) if isinstance(n, LOOP_NODES)]
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }


def test_second_product_loops_are_detected():
    source = (
        "def poly_mul(a, b):\n"
        "    return poly_sum_of_products(a.table, ((a, b),))\n"
        "def poly_add(a, b):\n"
        "    terms = dict(a._keys)\n"
        "    for key, coeff in b._keys.items():\n"
        "        terms[key] = terms.get(key, 0) + coeff\n"
        "    return {k: c for k, c in terms.items() if c}\n"
        "def poly_square(a):\n"
        "    terms = {}\n"
        "    _add_product(terms, a, a, 0)\n"
        "    helper._add_product(terms, a, a, 0)\n"
        "    return _add_row_product(terms, a, a, None)\n"
    )
    assert loop_lines(source, LOOP_FREE) == {"poly_mul": [], "poly_add": [5, 7]}
    assert product_loop_calls(source) == [
        (10, "poly_square", "_add_product"),
        (11, "poly_square", "_add_product"),
        (12, "poly_square", "_add_row_product"),
    ]


def test_products_and_sums_share_one_loop():
    # The schoolbook loop and the row route are the only product loops.
    found = {
        (path.name, loop, function)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for _, function, loop in product_loop_calls(path.read_text(encoding="utf-8"))
    }
    assert found == {
        ("laurent_kernel.py", loop, function)
        for loop, functions in PRODUCT_LOOP_CALLERS.items()
        for function in functions
    }
    kernel = (ROOT / "src" / "gencluster" / "laurent_kernel.py").read_text(encoding="utf-8")
    assert loop_lines(kernel, LOOP_FREE) == {name: [] for name in LOOP_FREE}


#: The kernel is the one place that expands a product of binomials
#: ``prod (x^a + x^b)``: its two entry points hold no loop and share
#: ``_binomial_levels``.  The quotient layer enumerates no subsets, and
#: its member binomial product multiplies nothing itself.
BINOMIAL_ENTRY_POINTS = ("poly_binomial_product", "poly_binomial_levels")
BINOMIAL_PRODUCTS = ("_member_binomial_product",)


def read_names(source, functions):
    """``{function: names}``: the names each top-level function reads, bare or as attributes."""
    return {
        node.name: {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in functions
    }


def test_read_names_are_detected():
    source = (
        "def f(a):\n"
        "    return reduce(poly_mul, a)\n"
        "def g(a):\n"
        "    return kernel.poly_mul(a, a)\n"
        "def h(a):\n"
        "    poly_mul = a\n"
    )
    assert read_names(source, ("f", "g", "h")) == {
        "f": {"reduce", "poly_mul", "a"}, "g": {"kernel", "poly_mul", "a"}, "h": {"a"},
    }


def test_binomial_products_are_expanded_only_in_the_kernel():
    package = ROOT / "src" / "gencluster"
    quotient = (package / "quotient_embedding.py").read_text(encoding="utf-8")
    assert "combinations" not in imported_names(ast.parse(quotient))
    for names in read_names(quotient, BINOMIAL_PRODUCTS).values():
        assert "poly_mul" not in names and "poly_binomial_product" in names
    kernel = (package / "laurent_kernel.py").read_text(encoding="utf-8")
    assert loop_lines(kernel, BINOMIAL_ENTRY_POINTS) == {name: [] for name in BINOMIAL_ENTRY_POINTS}
    found = {
        (path.name, function)
        for path in sorted(package.glob("*.py"))
        for _, function in calls(
            path.read_text(encoding="utf-8"),
            lambda called: "_binomial_levels" in (
                getattr(called, "id", None), getattr(called, "attr", None)
            ),
        )
    }
    assert found == {("laurent_kernel.py", name) for name in BINOMIAL_ENTRY_POINTS}


#: The quotient checks that read exchange sides through the kernel's column
#: map of ``E``: the member binomial product (the product formula's left
#: side and the right side of ``(iii) exchange``), the product formula's
#: shells and the side ratios of (iv).  None of them reads a row side as an
#: exponent vector and eliminates it: ``matrix_mutation.sides`` is called
#: only on the coherent row ``first``, for the vectors (i) and (ii) compare,
#: and ``eliminate_units`` is not read at all.
COLUMN_MAP_SITES = ("_member_binomial_product", "product_formula_check", "_embedding_conditions_at")


def vector_side_reads(source, functions):
    """``(line, function, name)`` of each vector-route read in the top-level ``functions``.

    These are the calls of the bare name ``sides`` whose first argument is
    not the name ``first``, and every read of ``eliminate_units``, called
    or passed on.
    """
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in functions):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "sides":
                if not (sub.args and getattr(sub.args[0], "id", None) == "first"):
                    found.append((sub.lineno, node.name, "sides"))
            elif "eliminate_units" in (getattr(sub, "id", None), getattr(sub, "attr", None)):
                if isinstance(sub.ctx, ast.Load):
                    found.append((sub.lineno, node.name, "eliminate_units"))
    return sorted(found)


def test_vector_side_reads_are_detected():
    source = (
        "def _member_binomial_product(table, fm, k):\n"
        "    layout = fm.layout\n"
        "    return poly_binomial_product(table, (\n"
        "        map(layout.eliminate_units, sides(fm.matrix.rows[c])) for c in members))\n"
        "def product_formula_check(columns, fm, k):\n"
        "    g, l = sides(_coherent_row(fm.matrix, fm.layout, k), block)\n"
        "    return columns.sides(row), eliminate_units\n"
        "def _embedding_conditions_at(ctx, columns, tracked, fm):\n"
        "    u_gt, u_lt = sides(first, layout.cluster_block)\n"
        "    gt, lt = sides(row, layout.frozen_block)\n"
        "    return ctx.layout.eliminate_units((gt, lt)), columns.sides(row, block)\n"
        "def group_image(self, k):\n"
        "    return self.layout.eliminate_units(sides(row)[0])\n"
    )
    assert vector_side_reads(source, COLUMN_MAP_SITES) == [
        (4, "_member_binomial_product", "eliminate_units"),
        (4, "_member_binomial_product", "sides"),
        (6, "product_formula_check", "sides"),
        (7, "product_formula_check", "eliminate_units"),
        (10, "_embedding_conditions_at", "sides"),
        (11, "_embedding_conditions_at", "eliminate_units"),
    ]


def test_the_column_map_sites_read_no_row_side_vectors():
    source = (ROOT / "src" / "gencluster" / "quotient_embedding.py").read_text(encoding="utf-8")
    assert set(read_names(source, COLUMN_MAP_SITES)) == set(COLUMN_MAP_SITES)
    assert vector_side_reads(source, COLUMN_MAP_SITES) == []


#: What the quotient layer does not import, under any name: it builds no
#: folded seed (``initial_seed``) and multiplies no polynomials itself
#: (``reduce``, ``poly_mul``, ``poly_pow``); its products are kernel
#: expansions of exponent vectors.
QUOTIENT_UNIMPORTED = {"initial_seed", "reduce", "poly_mul", "poly_pow"}


def unimported_reads(source):
    """``(line, name)`` of each import or attribute read of a :data:`QUOTIENT_UNIMPORTED` name.

    An import counts by the name it imports, whatever it is bound to.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [
                (node.lineno, alias.name.split(".")[-1])
                for alias in node.names
                if alias.name.split(".")[-1] in QUOTIENT_UNIMPORTED
            ]
        elif isinstance(node, ast.Attribute) and node.attr in QUOTIENT_UNIMPORTED:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_unimported_reads_are_detected():
    source = (
        "from functools import reduce as fold, lru_cache\n"
        "from .gca_seed import ExchangeContext, initial_seed\n"
        "import functools\n"
        "total = functools.reduce(add, [])\n"
        "from .laurent_kernel import poly_pow, poly_sub\n"
        "poly_mul = None\n"
    )
    assert unimported_reads(source) == [
        (1, "reduce"), (2, "initial_seed"), (4, "reduce"), (5, "poly_pow"),
    ]


def test_the_quotient_layer_builds_no_folded_seed_and_multiplies_nothing():
    source = (ROOT / "src" / "gencluster" / "quotient_embedding.py").read_text(encoding="utf-8")
    assert unimported_reads(source) == []


#: The functions that build values with ``FrozenValue._trusted_replace``,
#: as ``(file, function)``.  The helper copies the instance dict, so only
#: a type whose instances hold nothing but their fields may take it.
TRUSTED_REPLACE_CALLERS = {
    ("matrix_mutation.py", "mutate_commuting"),
    ("gca_seed.py", "mutate_exchange_data"),
    ("root_adjoin.py", "tau_tilde"),
    ("quotient_embedding.py", "__init__"),
}


def trusted_replace_calls(source):
    """``(line, function)`` of each ``_trusted_replace`` call, found by :func:`method_calls`."""
    return method_calls(source, lambda called: called.attr == "_trusted_replace")


def test_trusted_replace_calls_are_detected():
    source = (
        "def mutate(m):\n"
        "    return m._trusted_replace(rows=())\n"
        "x = seed._trusted_replace(strings=s._trusted_replace(rows=()))\n"
        "y = seed.trusted_replace()\n"
    )
    assert trusted_replace_calls(source) == [(2, "mutate"), (3, None), (3, None)]


def test_only_the_reviewed_functions_replace_fields():
    found = {
        (path.name, function)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for _, function in trusted_replace_calls(path.read_text(encoding="utf-8"))
    }
    assert found == TRUSTED_REPLACE_CALLERS


def test_replaced_values_hold_exactly_their_fields(monkeypatch):
    # Runs every reviewed caller and records each value the helper builds.
    from gencluster.errors import FrozenValue
    from gencluster.fixtures import fixture_seed
    from gencluster.gca_seed import mutate_exchange_data, mutate_seed
    from gencluster.matrix_mutation import mutate_commuting
    from gencluster.quotient_embedding import QuotientContext
    from gencluster.randomgen import random_seed
    from gencluster.root_adjoin import tau_tilde
    from gencluster.unfolding import build

    built = []
    replace = FrozenValue._trusted_replace

    def recording(value, **changes):
        built.append(replace(value, **changes))
        return built[-1]

    monkeypatch.setattr(FrozenValue, "_trusted_replace", recording)
    rng = random.Random(31)
    starts = [fixture_seed(name) for name in ("FIX-B", "FIX-C")]
    starts += [random_seed(rng, max_frozen=3) for _ in range(10)]
    for start in starts:
        # The members of an unfolding's group do not interact.
        unfolded = build(start)
        mutate_commuting(unfolded.matrix, unfolded.layout.group_range(0))
        for seed in (start, tau_tilde(start).seed):
            mutate_commuting(seed.matrix, range(1))
            mutate_seed(mutate_seed(seed, 0), seed.rank - 1)
            mutate_exchange_data(seed, seed.rank - 1)
        for mode in ("total", "lcm"):
            QuotientContext.create(start, mode)
    assert {type(value).__name__ for value in built} == {
        "ExtendedExchangeMatrix", "GeneralizedSeed", "CoefficientStrings",
    }
    for value in built:
        assert vars(value).keys() == set(type(value)._fields), type(value)


#: The methods :class:`gencluster.errors.FrozenValue` owns for every value type.
VALUE_SEMANTICS = ("__init__", "__eq__", "__hash__")


def hand_written_value_semantics(sources):
    """``(path, line, Class.method)`` of each value-semantics method a value type defines.

    A value type is a class that derives from ``FrozenValue``, directly
    or through another value type of ``sources`` (a path-to-source map).
    """
    trees = {path: ast.parse(source) for path, source in sources.items()}
    classes = [
        (path, node) for path, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    values = {"FrozenValue"}
    while True:
        derived = {
            node.name for _, node in classes
            if any(getattr(base, "id", getattr(base, "attr", None)) in values
                   for base in node.bases)
        }
        if derived <= values:
            break
        values |= derived
    return sorted(
        (path, item.lineno, f"{node.name}.{item.name}")
        for path, node in classes if node.name in values - {"FrozenValue"}
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in VALUE_SEMANTICS
    )


def test_hand_written_value_semantics_are_detected():
    sources = {
        "a.py": (
            "class FrozenValue:\n    def __eq__(self, other):\n        pass\n"
            "class Plain:\n    def __hash__(self):\n        pass\n"
        ),
        "b.py": (
            "class Leaf(Mid):\n    def __init__(self):\n        pass\n"
            "class Mid(errors.FrozenValue):\n"
            "    def __eq__(self, other):\n        pass\n"
            "    def __post_init__(self):\n        pass\n"
            "    def __repr__(self):\n        pass\n"
        ),
    }
    assert hand_written_value_semantics(sources) == [
        ("b.py", 2, "Leaf.__init__"), ("b.py", 5, "Mid.__eq__"),
    ]


def test_value_types_leave_their_semantics_to_the_base():
    assert hand_written_value_semantics(read_tree("src")) == []


def read_tree(folder):
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def test_every_definition_is_used():
    # A helper only the tests need lives in the tests.
    users = {**read_tree("src"), **read_tree("scripts"), **read_tree("perfbench")}
    assert unused_definitions(read_tree("src/gencluster"), users) == []


def test_every_field_is_read():
    # A field is data its object carries for callers, and the tests read
    # reports' fields as callers do, so they count as readers here.
    users = {
        **read_tree("src"), **read_tree("tests"),
        **read_tree("scripts"), **read_tree("perfbench"),
    }
    assert unread_fields(read_tree("src/gencluster"), users) == []


def test_shared_member_names_are_reviewed():
    shared = shared_member_names(read_tree("src/gencluster"))
    assert {n: o for n, o in shared.items() if n not in SHARED_MEMBER_NAMES} == {}
    # An entry whose name no longer collides is dropped.
    assert sorted(SHARED_MEMBER_NAMES) == sorted(shared)


#: The functions that reverse a sequence, as ``(file, function)``: only
#: the exchange-data step, which reverses string row ``k``.  Seed
#: mutation, ``trace`` and the embedding walk all step through it.
REVERSERS = {("gca_seed.py", "mutate_exchange_data")}


def reversals(source):
    """``(line, function)`` of each negative-step slice and each ``reversed`` call.

    ``function`` is the innermost enclosing function, as in :func:`calls`.
    """
    found = calls(source, lambda called: getattr(called, "id", None) == "reversed")

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            step = child.step if isinstance(child, ast.Slice) else None
            if step is not None and ast.unparse(step).startswith("-"):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found)


def test_reversals_are_detected():
    source = (
        "def step(rows, k):\n"
        "    rows[k] = rows[k][::-1]\n"
        "    return rows[::2], rows[1:3]\n"
        "def by_hand(row):\n"
        "    def inner():\n"
        "        return row[len(row)::-2]\n"
        "    return tuple(reversed(row)), inner()\n"
        "LAST = ROWS[::-1]\n"
    )
    assert reversals(source) == [(2, "step"), (6, "inner"), (7, "by_hand"), (8, None)]


def test_only_the_exchange_data_step_reverses_a_string_row():
    found = {
        (path.name, function)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for _, function in reversals(path.read_text(encoding="utf-8"))
    }
    assert found == REVERSERS


#: Every cache the library makes, reviewed: ``module.name: (bound, fill)``.
#: ``bound`` is its ``maxsize`` (``None``: unbounded); ``fill`` is its size
#: after one pass of the benchmark's ``quotient`` units, or ``None`` where
#: that is no fixed count: ``_layout`` keeps one layout per table width and
#: rung of field sizes, and ``_build_parser`` takes no argument.  A bounded cache that fills up evicts
#: in the order the units run, so the traced work counts of a benchmark run
#: would differ between passes; a new cache is reviewed here before it lands.
REVIEWED_CACHES = {
    "laurent_kernel._layout": (None, None),
    "laurent_kernel._table_cache": (64, 15),
    "quotient_embedding._sigma_levels": (64, 5),
    "cli_io._build_parser": (1, None),
}

CACHE_FACTORIES = {"cache", "lru_cache"}


def caches(source):
    """``{owner: bound}`` of every ``cache`` or ``lru_cache`` a module applies.

    Decorators and calls both count, bare or read off ``functools``.
    ``owner`` is the function or class a decorator wraps, the targets of
    the assignment a call sits in, or ``line N`` elsewhere.  ``bound`` is
    the ``maxsize`` when it is written as a constant, ``None`` for
    ``cache``, and ``lru_cache``'s default of 128 otherwise.
    """
    tree = ast.parse(source)
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name not in CACHE_FACTORIES or not isinstance(node.ctx, ast.Load):
            continue
        bound = None if name == "cache" else 128
        call = parents[node]
        if name == "lru_cache" and isinstance(call, ast.Call) and call.func is node:
            sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            if sizes and isinstance(sizes[0], ast.Constant):
                bound = sizes[0].value
        owner, child, up = f"line {node.lineno}", node, parents.get(node)
        while up is not None:
            if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child in up.decorator_list:
                    owner = up.name
                break
            if isinstance(up, ast.Assign):
                owner = ", ".join(ast.unparse(t) for t in up.targets)
                break
            if isinstance(up, ast.stmt):
                break
            child, up = up, parents.get(up)
        found[owner] = bound
    return found


def test_caches_are_detected():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef a(x):\n    pass\n"
        "@functools.lru_cache\ndef b(x):\n    pass\n"
        "@cache\ndef c(x):\n    pass\n"
        "class D:\n    @functools.cache\n    def e(self):\n        pass\n"
        "f = lru_cache(maxsize=None)(len)\n"
        "g = functools.lru_cache(4, typed=True)(len)\n"
        "def h():\n    return lru_cache(len)\n"
        "print(cache(len))\n"
        "my_cache = tool.lru_cache_info\n"
    )
    assert caches(source) == {
        "a": 8, "b": 128, "c": None, "e": None, "f": None, "g": 4,
        "line 19": 128, "line 20": None,
    }


def test_every_cache_is_reviewed():
    found = {
        f"{path.stem}.{owner}": bound
        for path in sorted((ROOT / "src" / "gencluster").glob("*.py"))
        for owner, bound in caches(path.read_text(encoding="utf-8")).items()
    }
    assert found == {name: bound for name, (bound, _) in REVIEWED_CACHES.items()}


def quotient_pass():
    """Run every unit of the benchmark's ``quotient`` workload once, as the CLI does."""
    from gencluster import cli_io

    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for unit in workloads.generate("quotient", "full"):
        assert cli_io.run_command(unit.verify_argv(), io.StringIO()) == 0


def bounded_caches():
    """``{name: cache}`` of every reviewed cache with a pinned fill."""
    pinned = {}
    for name, (_, fill) in REVIEWED_CACHES.items():
        if fill is not None:
            module, function = name.split(".")
            pinned[name] = getattr(importlib.import_module(f"gencluster.{module}"), function)
    return pinned


def test_bounded_caches_do_not_fill_in_a_quotient_pass():
    pinned = bounded_caches()
    for cached in pinned.values():
        cached.cache_clear()
    quotient_pass()
    for name, cached in pinned.items():
        bound, fill = REVIEWED_CACHES[name]
        assert cached.cache_info().currsize == fill < bound, name


def test_a_quotient_pass_compares_tables_by_value_only_when_they_differ(monkeypatch):
    # Equal tables are one shared object, so a walk that rebuilds its
    # tables shows here: without sharing, a warm pass made 2877 such
    # comparisons, 2691 of them of equal tables.  The 14 left compare a
    # tracked or base table with a folded or adjoined one, once for each
    # substitution built between them (7 embeddings, one per walk, and 7
    # root adjunctions); with one embedding per source table they were 17,
    # and before substitutions were built once, each mapping made them
    # again (186).
    from gencluster.laurent_kernel import VariableTable

    for cached in bounded_caches().values():
        cached.cache_clear()
    quotient_pass()
    compared = {"distinct": 0, "equal": 0}
    value_eq = VariableTable.__eq__

    def counting_eq(a, b):
        same = value_eq(a, b)
        if a is not b:
            compared["distinct"] += 1
            compared["equal"] += same is True
        return same

    monkeypatch.setattr(VariableTable, "__eq__", counting_eq)
    quotient_pass()
    assert compared == {"distinct": 14, "equal": 0}


def test_a_warm_quotient_pass_hashes_tables_and_checks_seeds_a_pinned_number_of_times(monkeypatch):
    # One process cache lookup hashes its table.  The quotient layer reads
    # the folded table and layout, not a folded seed, so a warm pass
    # checks divisor compatibility only for the seeds it parses and
    # adjoins (16; 30 with a folded seed per context, checked twice) and
    # hashes 188 tables (517 with the unit elimination and the sigma
    # products cached per pattern).
    from gencluster import gca_seed
    from gencluster.laurent_kernel import VariableTable

    for cached in bounded_caches().values():
        cached.cache_clear()
    quotient_pass()
    counts = {"check_compatible": 0, "hash": 0}
    check, table_hash = gca_seed.check_compatible, VariableTable.__hash__

    def counting_check(*args):
        counts["check_compatible"] += 1
        return check(*args)

    def counting_hash(table):
        counts["hash"] += 1
        return table_hash(table)

    monkeypatch.setattr(gca_seed, "check_compatible", counting_check)
    monkeypatch.setattr(VariableTable, "__hash__", counting_hash)
    quotient_pass()
    assert counts == {"check_compatible": 16, "hash": 188}
