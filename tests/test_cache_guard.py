"""greenlab memoises one way: a `functools` cache on the function that derives the value.

The caches are thread-safe as they stand, and a value two threads race to
build comes out equal for both, so no module needs a lock: none imports
`threading`. The tests' `fresh_caches` fixture finds the caches rather than
listing them; every function a greenlab module decorates with `cache` or
`lru_cache` must be among those it finds.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest
from conftest import greenlab_caches

import greenlab
from greenlab import bounds
from greenlab.manifold import Family, ManifoldSpec

SRC = Path(greenlab.__file__).resolve().parent
CACHES = {"cache", "lru_cache"}


def cached_functions(path: Path) -> set:
    """(module, function) of every function in the file decorated with a functools cache."""
    module = "greenlab" if path.stem == "__init__" else f"greenlab.{path.stem}"
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in CACHES:
                    found.add((module, node.name))
    return found


def threading_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module or "")
    return [name for name in found if name.split(".")[0] in {"threading", "_thread"}]


def test_the_fixture_finds_every_cache():
    for info in pkgutil.iter_modules(greenlab.__path__):
        importlib.import_module(f"greenlab.{info.name}")
    declared = set().union(*(cached_functions(path) for path in SRC.glob("*.py")))
    found = {(fn.__module__, fn.__qualname__) for fn in greenlab_caches()}
    assert declared and found == declared


def test_the_fixture_empties_every_cache(fresh_caches):
    bounds.best_finite_bound(ManifoldSpec(Family.COMPLEX_PROJ, 2), 500)
    assert bounds._search_radius.cache_info().currsize == 1
    fresh_caches()
    assert all(fn.cache_info().currsize == 0 for fn in greenlab_caches())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_threading(path):
    assert threading_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "planted",
    [
        "import threading",
        "from threading import Lock",
        "import _thread",
        "def f():\n    import threading\n    return threading.Lock()",
    ],
)
def test_the_guard_sees_an_import(planted):
    assert threading_imports("import functools\n" + planted) != []
