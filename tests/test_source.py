import ast
import importlib
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


def test_every_open_names_its_encoding():
    # without encoding= the host locale would decide how input is decoded
    paths = sorted(PACKAGE.glob("*.py"))
    calls = [
        (path.name, node)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    ]
    assert calls
    found = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if not any(keyword.arg == "encoding" for keyword in node.keywords)
    ]
    assert found == []


def test_package_exports_the_union_of_the_module_lists():
    # a public name is declared once, in its module's __all__
    modules = sorted({path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "cli"})
    lists = {name: importlib.import_module(f"oakit.{name}").__all__ for name in modules}
    exported = [name for names in lists.values() for name in names]
    assert len(exported) == len(set(exported))  # the module lists are disjoint
    assert sorted(oakit.__all__) == sorted(exported)
    for module, names in lists.items():
        for name in names:
            assert getattr(oakit, name) is getattr(importlib.import_module(f"oakit.{module}"), name)


def test_every_private_definition_is_used_in_the_package():
    # code that only the tests call belongs in the tests: each private
    # function or class the package defines is named somewhere in the
    # package, by a name, an attribute or an import
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = [
        where
        for name, where in defined.items()
        if name.startswith("_") and not name.endswith("__") and name not in used
    ]
    assert defined
    assert private == []
