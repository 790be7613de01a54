"""Every name the package imports is used: an import that a deletion orphans fails here.

A small ``ast`` check in place of a linter.  ``__init__.py`` re-exports its
imports, ``from __future__`` imports change the compiler rather than bind a
name, and a line marked ``# noqa: F401`` keeps a name bound on purpose.
"""
import ast
from pathlib import Path

import onlinelp

PACKAGE = Path(onlinelp.__file__).resolve().parent


def unused_imports(source: str):
    """(line, name) for each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_package_imports_nothing_it_does_not_use():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    problems = [f"{path.name}:{line} imports {name} and never uses it"
                for path in modules
                for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not problems, "\n".join(problems)


def test_the_guard_finds_an_unused_import():
    source = "\n".join((
        "from __future__ import annotations",
        "import math",
        "import os.path",
        "import numpy as np",
        "from typing import Dict, List",
        "from .core import Kept  # noqa: F401",
        "from .generators import (",
        "    GeneratorFamily,",
        "    GeneratorSpec,",
        ")",
        "from .metrics import Listed",
        "__all__ = ['Listed']",
        "def f(x: Dict) -> GeneratorSpec:",
        "    return np.sqrt(os.path.sep)",
    ))
    assert unused_imports(source) == [(2, "math"), (5, "List"), (7, "GeneratorFamily")]
