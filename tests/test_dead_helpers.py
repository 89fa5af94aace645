"""Every private module-level name of the package is used somewhere else in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "optomo"


def _private_definitions(tree):
    """(name, node) of each module-level def, class or assignment whose name
    starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node):
    """Names read in ``node``: loaded names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    everywhere = [ref for tree in trees.values() for ref in _references(tree)]
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            inside = list(_references(node)).count(name)
            if everywhere.count(name) == inside:
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, f"private names used nowhere else in the package: {dead}"
