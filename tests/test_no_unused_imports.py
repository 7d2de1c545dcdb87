"""No unused module-level import in the package.

A name imported at module level and never read is dead code that still
costs its import at every start of the command line.  ``__init__.py``
is left out, since its imports are the package's re-exports, and so is
``from __future__``.
"""

import ast
import pathlib

import hyperq

SRC = pathlib.Path(hyperq.__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module-level imports, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def test_package_has_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items()
                  if name not in used]
    assert found == []
