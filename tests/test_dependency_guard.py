"""numpy is greenlab's one runtime dependency.

scipy is a test dependency only: the tests use its `betainc` as an oracle
for `special_math.incomplete_beta`, and the bench's reference imports it
on its own. A module of the library that imported it, at the top or inside
a function, would put it back on the runtime path.
"""

import ast
from pathlib import Path

import pytest

import greenlab

SRC = Path(greenlab.__file__).resolve().parent


def scipy_imports(source: str) -> list[str]:
    """The scipy modules an import statement anywhere in the source names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module or "")
    return [name for name in found if name.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert scipy_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "planted",
    [
        "import scipy",
        "import scipy.special as sp",
        "from scipy.special import betainc",
        "from scipy import special",
        "def f():\n    from scipy.special import betaincinv\n    return betaincinv",
    ],
)
def test_the_guard_sees_an_import(planted):
    assert scipy_imports("import numpy as np\n" + planted) != []
