"""The package's modules import only what their layer may use.

``estimation`` is written against the backend interface and reaches no
sampler or quorum module; ``sampling`` draws records without knowing the
quorum type; ``maps`` builds states and applies no policy, so it warns
about nothing.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "optomo"


def _imports(module):
    """Dotted names a module imports anywhere in its body: ``import a.b``
    gives a.b, ``from a import b`` gives a and a.b."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module, forbidden", [
    ("estimation", {"optomo.sampling", "optomo.quorum"}),
    ("sampling", {"optomo.quorum"}),
    ("maps", {"warnings"}),
], ids=["estimation", "sampling", "maps"])
def test_module_does_not_import(module, forbidden):
    found = {name for name in _imports(module)
             if any(name == f or name.startswith(f + ".") for f in forbidden)}
    assert not found, f"{module} imports {sorted(found)}"
