"""Every name a poakit module imports is read in that module.

No linter ships with the project, so this ast scan stands in for the
unused-import check: code that deletes a caller must delete its import too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "poakit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import but ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    """Names loaded anywhere, string annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name}: imported but never read: {unused}"
