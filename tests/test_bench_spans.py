"""The benchmark tracer's span list names functions that exist in greenlab.

`greenbench/run.py --trace 1` wraps every (module, qualified name) of
`greenbench/tracing.SPANS` by name, so a renamed or deleted function
breaks traced runs without failing any other test. A method is wrapped on
its own class, so a subclass that defines it again escapes the count.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import greenlab

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


def subclasses(cls):
    """Every subclass of cls defined in greenlab, however deep."""
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


@pytest.mark.parametrize("module, qualname", [span for span in traced_spans() if "." in span[1]])
def test_no_subclass_defines_a_traced_method(module, qualname):
    # the tracer wraps a method on its own class only: a subclass that defines
    # it again would run unwrapped, and its calls would drop out of the counts
    # without any error
    for info in pkgutil.iter_modules(greenlab.__path__):
        importlib.import_module(f"greenlab.{info.name}")
    cls_name, meth = qualname.split(".")
    cls = getattr(importlib.import_module(f"greenlab.{module}"), cls_name)
    assert [sub.__qualname__ for sub in subclasses(cls) if meth in vars(sub)] == []


def test_the_closed_forms_inherit_the_traced_profile():
    from greenlab import green

    assert {green._LaurentProfile, green._OddProfile} <= set(subclasses(green.RadialGreenProfile))
