import ast
import pathlib

import oakit

PACKAGE = pathlib.Path(oakit.__file__).parent


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so every check must be a raise
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
