"""No ``assert`` statement in the package.

``python -O`` strips asserts, so a verdict or a refusal that rests on one
changes with the interpreter's flags.  Invariants are checked with
explicit raises instead.
"""

import ast
import pathlib

import hyperq

SRC = pathlib.Path(hyperq.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
