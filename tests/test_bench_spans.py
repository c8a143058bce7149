"""The benchmark tracer's span list names functions that exist in greenlab.

`greenbench/run.py --trace 1` wraps every (module, qualified name) of
`greenbench/tracing.SPANS` by name, so a renamed or deleted function
breaks traced runs without failing any other test.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "greenbench" / "tracing.py"


def traced_spans() -> tuple:
    """SPANS as written in tracing.py, read without importing the module."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS assignment in {TRACING}")


@pytest.mark.parametrize("module, qualname", traced_spans())
def test_traced_name_resolves(module, qualname):
    home = importlib.import_module(f"greenlab.{module}")
    if "." in qualname:
        # methods are wrapped in their class's own namespace
        cls_name, meth = qualname.split(".")
        assert meth in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, qualname))
