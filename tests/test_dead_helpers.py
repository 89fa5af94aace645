"""Every module-level name of the package is read somewhere else in it.

Private names must be; public defs, classes and constants must be too,
unless ``BENCH_HOOKED`` names them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "optomo"

# Public names that only the benchmark harness still reads, by name; ROADMAP
# item 1b ports the harness off them and empties this set.
BENCH_HOOKED = {"apply_pure", "apply_kraus_bipartite", "align_to_truth"}


def _definitions(tree):
    """(name, node) of each module-level def, class or assignment, dunder
    names left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def _references(node):
    """Names read in ``node``: loaded names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _unread(private):
    """Module-level names, private or public, read nowhere else in the
    package."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    everywhere = [ref for tree in trees.values() for ref in _references(tree)]
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("_") != private:
                continue
            inside = list(_references(node)).count(name)
            if everywhere.count(name) == inside:
                dead.append((module, node.lineno, name))
    return dead


def test_no_dead_private_helpers():
    dead = [f"{m}:{line} {name}" for m, line, name in _unread(private=True)]
    assert not dead, f"private names used nowhere else in the package: {dead}"


def test_no_dead_public_names():
    unread = _unread(private=False)
    names = {name for _, _, name in unread}
    assert BENCH_HOOKED <= names, (
        f"no longer unread, drop from BENCH_HOOKED: {BENCH_HOOKED - names}")
    dead = [f"{m}:{line} {name}" for m, line, name in unread
            if name not in BENCH_HOOKED]
    assert not dead, f"public names read nowhere else in the package: {dead}"
