"""Every module of the package, every demo and every test file uses each
name it imports, and the package uses each private helper it defines.

The package's `__init__.py` is left out of the import check: its imports
are the package's public names.  An import kept for its side effect is
marked `# noqa: F401` on its line.  A private helper is a module-level
function or class, or a method, whose name starts with one underscore; one
that nothing in the package reads is left over from a deletion.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# package modules by file name, demos and tests by path from the repo root
FILES = {p.name: p for p in (ROOT / "src" / "neckflow").glob("*.py")
         if p.name != "__init__.py"}
FILES.update({str(p.relative_to(ROOT)): p for d in ("demos", "tests")
              for p in (ROOT / d).glob("*.py")})


def unused_imports(source):
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in ln
               for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    # an attribute chain such as np.linalg.norm starts with the Name np
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    src = ("import os\nimport sys\nimport scipy.optimize  # noqa: F401\n"
           "from math import pi, tau\n\ndef f():\n"
           "    from json import dumps\n    return sys.argv, tau\n")
    assert unused_imports(src) == ["dumps", "os", "pi"]


@pytest.mark.parametrize("module", sorted(FILES))
def test_no_unused_imports(module):
    assert unused_imports(FILES[module].read_text()) == []


def unreferenced_privates(sources):
    """(module, name) of each private module-level function or class, and
    each private method of a module-level class, in sources ({module:
    source}) that no name or attribute in any of them reads."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, n.name) for n in node.body
                            if isinstance(n, ast.FunctionDef)]
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    return sorted((m, name) for m, name in defined if name not in read
                  and name.startswith("_") and not name.startswith("__"))


def test_checker_finds_an_unreferenced_private():
    sources = {"a": ("def _used():\n    pass\n\ndef _left():\n    pass\n\n"
                     "class _Cls:\n    def _meth(self):\n        pass\n"
                     "    def __init__(self):\n        pass\n"),
               "b": "from a import _used, _Cls\n_used()\n_Cls()\n"}
    assert unreferenced_privates(sources) == [("a", "_left"), ("a", "_meth")]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text()
               for p in (ROOT / "src" / "neckflow").glob("*.py")}
    assert unreferenced_privates(sources) == []
