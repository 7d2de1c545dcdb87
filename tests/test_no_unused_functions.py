"""No function or method of the package that nothing calls.

Every function and method defined in ``src/hyperq/*.py`` must be
referenced somewhere in the package, the tests, the demos or the
benchmark apart from its own ``def``: as a name, as an attribute, or as
a name imported from a module.  The package's ``__init__.py`` imports do
not count, since they only re-export.  Dunder methods are left out:
Python calls them.
"""

import ast
import pathlib

import hyperq

SRC = pathlib.Path(hyperq.__file__).parent
ROOT = pathlib.Path(__file__).parent.parent


def _defined(tree: ast.Module) -> list[tuple[str, int]]:
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _referenced(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_function_is_referenced():
    files = [*SRC.glob("*.py"), *(path for folder in ("tests", "demos", "hqbench")
                                  for path in (ROOT / folder).glob("*.py"))]
    used = set()
    for path in files:
        if path != SRC / "__init__.py":
            used |= _referenced(ast.parse(path.read_text(), filename=str(path)))
    found = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py"))
             for name, line in _defined(ast.parse(path.read_text(), filename=str(path)))
             if name not in used]
    assert found == []
