"""The integration rule lives in `special_math` alone, and has no unused knobs.

`special_math.integrate_intervals` is the one routine that takes first
panels in a batch and bisects the intervals that miss; `integrate` is its
one-interval case. Another module that reached for the panel or the
bisection loop directly would write the rule a second time.

In `ball_stats`, one routine integrates every K and Theta row of a pass in
one `integrate_intervals` call; a second caller would bring back a
per-branch or per-kernel call beside it.

Likewise the optimizer reads phi' from the profile's closed form: an
`energy` that named the direct slope would put it back on the hot path.
And `greenlab optimize` reports the energy its last accepted step computed:
an `energy` call in the command would sweep every pair once more.
"""

import ast
import inspect
from pathlib import Path

import pytest

import greenlab
from greenlab import ball_stats, energy, green, special_math

SRC = Path(greenlab.__file__).resolve().parent
PRIVATE_RULE = {"_refine", "gauss_kronrod_panels"}


def names_used(path: Path) -> set:
    """Every name, attribute and imported name a module's source mentions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "special_math.py"), ids=lambda p: p.name
)
def test_rule_is_written_once(path):
    assert not names_used(path) & PRIVATE_RULE


@pytest.mark.parametrize(
    "fn",
    [
        ball_stats.k_quadrature,
        ball_stats.theta_quadrature,
        ball_stats.cum_volume_over_area,
        green.phi_hat,
        green.build_profile,
        special_math.integrate,
        special_math.integrate_intervals,
    ],
    ids=lambda fn: fn.__name__,
)
def test_no_settings_parameter(fn):
    assert "settings" not in inspect.signature(fn).parameters


def public_callables(module):
    """The functions and classes a module exports, and the public methods of those classes."""
    for name in module.__all__:
        obj = getattr(module, name)
        yield obj
        if inspect.isclass(obj):
            yield from (m for k, m in vars(obj).items() if not k.startswith("_") and callable(m))
            yield from (m.__func__ for m in vars(obj).values() if isinstance(m, classmethod))


def test_energy_takes_no_profile_or_thread_count():
    # the energies depend only on the points: the profile is the one
    # `get_profile` gives their manifold, and the sweep runs in one thread
    found = list(public_callables(energy))
    assert energy.EnergyReport.from_configuration.__func__ in found
    for fn in found:
        assert not {"profile", "threads"} & set(inspect.signature(fn).parameters), fn


def callers(path: Path, name: str) -> set:
    """The top-level functions of a module whose bodies call `name`."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called == name:
                    found.add(getattr(top, "name", None))
    return found


def test_kernels_integrate_from_one_routine():
    assert callers(SRC / "ball_stats.py", "integrate_intervals") == {"_quadratures"}


def test_optimizer_reads_the_slope_table():
    assert not names_used(SRC / "energy.py") & {"phi_hat_prime", "_radial_ratios"}


def test_optimize_command_does_not_sweep_the_energy_again():
    assert "_cmd_optimize" not in callers(SRC / "cli.py", "energy")
