"""Source hygiene checks on the library, with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "linsep").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads or re-exports."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Quoted forward references and ``__all__`` entries count as uses.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unreferenced_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Underscore-prefixed functions, classes and methods no module names."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n")
    assert _unused_imports(tree) == ["os (line 1)", "comb (line 2)"]


def test_every_private_name_is_referenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _unreferenced_private_names(trees) == []


def test_unreferenced_private_name_is_reported():
    trees = {
        "a": ast.parse("def _kept():\n    pass\n\nclass _Gone:\n    def _used(self):\n        pass\n"),
        "b": ast.parse("import a\na._kept()\nx._used()\n\ndef __dunder__():\n    pass\n"),
    }
    assert _unreferenced_private_names(trees) == ["a._Gone (line 4)"]
