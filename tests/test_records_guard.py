"""The Jacobi record's exact algebra lives in `records` alone.

`records` is a leaf: it imports no greenlab module but `errors`, so every
other module can read it without an import cycle. The exact helpers it
holds were once private functions of `manifold`, `green` and `ball_stats`,
imported from one module into the next; a private copy or a private import
of one would give a patch on `records` a reader it does not reach.
"""

import ast
from pathlib import Path

import pytest

import greenlab

SRC = Path(greenlab.__file__).resolve().parent
EXACT = {
    "_pi_rational",
    "_volume_ratio",
    "_recentre",
    "_antiderivative",
    "_flip",
    "_laurent_numerator",
    "_laurent_parts",
    "_laurent_moment",
    "_odd_parts",
    "_record_series",
}


def tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def greenlab_imports(module: ast.Module) -> set:
    """The greenlab modules a module imports, by their names within the package."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("greenlab"):
            found |= {node.module.removeprefix("greenlab").lstrip(".") or "greenlab"}
        elif isinstance(node, ast.Import):
            found |= {a.name.removeprefix("greenlab.") for a in node.names if a.name.startswith("greenlab")}
    return found


def test_records_is_a_leaf():
    assert greenlab_imports(tree("records.py")) <= {"errors"}


def test_the_guard_sees_an_import():
    assert greenlab_imports(tree("ball_stats.py")) >= {"records", "green", "manifold"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_exact_helper_is_imported(path):
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & EXACT


@pytest.mark.parametrize("name", ["green.py", "manifold.py", "ball_stats.py"])
def test_no_private_exact_helper_is_defined(name):
    defined = set()
    for node in tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert not defined & EXACT
