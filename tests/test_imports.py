"""Every module of the package uses each name it imports.

`__init__.py` is left out: its imports are the package's public names.  An
import kept for its side effect is marked `# noqa: F401` on its line.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "neckflow"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
