"""Fixtures shared by the test modules.

Every memo in greenlab is a `functools` cache on a module-level function.
`fresh_caches` finds them all, in whatever greenlab modules are imported,
and empties them before and after a test, so no value computed in one test
serves another. `tests/test_cache_guard.py` checks that it finds every one.
"""

import sys

import pytest


def greenlab_caches() -> list:
    """Every `functools` cache defined at the top of an imported greenlab module."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "greenlab" or name.startswith("greenlab."):
            found += [
                value
                for value in vars(module).values()
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name
            ]
    return found


def clear_caches() -> None:
    for cached in greenlab_caches():
        cached.cache_clear()


@pytest.fixture
def fresh_caches():
    """Every greenlab cache empty as the test starts and once it ends; the
    fixture's value empties them all again mid-test."""
    clear_caches()
    yield clear_caches
    clear_caches()
