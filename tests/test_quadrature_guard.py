"""The integration rule lives in `special_math` alone, and has no unused knobs.

`special_math.integrate` is the one adaptive routine: it takes a first
panel and bisects one subinterval at a time. Another module that reached
for the panels or the bisection loop directly would write the rule a
second time.

In `ball_stats`, `k_quadrature` and `theta_quadrature` integrate one
radius each; a routine beside them that integrated a kernel would bring
back a second path to the same oracle.

The bound and the energy report take K and Theta from the closed forms on
every family: a spy on the integration routine, under every name a
module imports it by, sees no call.

Nor does the bound call the incomplete beta, `special_math.incomplete_beta`:
the kernel pass returns mu = V(a)/V with K and Theta, from the record's own
series, on every family.

Likewise the optimizer reads phi' from the profile's closed form: an
`energy` that named the direct slope would put it back on the hot path.
And `greenlab optimize` reports the energy its last accepted step computed:
an `energy` call in the command would sweep every pair once more.
"""

import ast
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import greenlab
from greenlab import ball_stats, bounds, energy, green, manifold, special_math
from greenlab.cli import main
from greenlab.manifold import Family, ManifoldSpec, sample_uniform

SRC = Path(greenlab.__file__).resolve().parent
PRIVATE_RULE = {"_panels", "gauss_kronrod_panels"}


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
    assert callers(SRC / "ball_stats.py", "integrate") == {
        "cum_volume_over_area",
        "k_quadrature",
        "theta_quadrature",
    }


def test_optimizer_reads_the_slope_table():
    assert not names_used(SRC / "energy.py") & {"phi_hat_prime", "_radial_ratios"}


def test_optimize_command_does_not_sweep_the_energy_again():
    assert "_cmd_optimize" not in callers(SRC / "cli.py", "energy")


@pytest.fixture
def quadrature_calls(monkeypatch, fresh_caches):
    """The integration routine's name once per call while a test runs, through
    any greenlab module's name for it; no bound or profile comes from a cache."""
    calls = []
    modules = [m for key, m in sys.modules.items() if key == "greenlab" or key.startswith("greenlab.")]
    original = special_math.integrate

    def spy(*args, **kwargs):
        calls.append("integrate")
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, "integrate", None) is original:
            monkeypatch.setattr(module, "integrate", spy)
    return calls


def test_the_spy_sees_the_quadrature(quadrature_calls):
    ball_stats.k_quadrature(ManifoldSpec(Family.SPHERE, 3), 0.5)
    assert quadrature_calls == ["integrate"]


@pytest.mark.parametrize(
    "spec",
    [ManifoldSpec(Family.SPHERE, n) for n in (2, 3, 10)]
    + [ManifoldSpec(Family.REAL_PROJ, n) for n in (2, 3, 21)]
    + [ManifoldSpec.from_token(token, n) for token, n in (("cp", 2), ("hp", 1), ("op2", 2))],
    ids=str,
)
def test_bound_and_energy_report_run_no_quadrature(spec, quadrature_calls):
    bounds.best_finite_bound(spec, 1234)
    if spec.family is not Family.CAYLEY_PLANE:  # no point model
        energy.EnergyReport.from_configuration(sample_uniform(spec, np.random.default_rng(1), size=40))
    assert quadrature_calls == []


@pytest.mark.parametrize(("family", "n"), [("cp", 2), ("hp", 1), ("op2", 2), ("s", 3), ("rp", 3)])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_bound_calls_no_incomplete_beta(monkeypatch, capsys, family, n, warm):
    spec = ManifoldSpec.from_token(family, n)
    green.get_profile(spec)  # built beforehand: the profile is not a kernel pass
    bounds._search_radius.cache_clear()
    if warm:
        bounds.best_finite_bound(spec, 1234)
        bounds._search_radius.cache_clear()
    calls = {"incomplete_beta": 0, "kernels": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    counted = spy("incomplete_beta", special_math.incomplete_beta)
    for module in (special_math, manifold, green):  # under every name it is imported by
        if hasattr(module, "incomplete_beta"):
            monkeypatch.setattr(module, "incomplete_beta", counted)
    kernels = spy("kernels", ball_stats._closed_kernels)
    monkeypatch.setattr(ball_stats, "_closed_kernels", kernels)
    argv = ["bound", "--family", family, "--points", "1234"] + ([] if family == "op2" else ["--n", str(n)])
    assert main(argv) == 0, capsys.readouterr().err
    assert calls == {"incomplete_beta": 0, "kernels": 1}
    manifold.ball_volume_fraction(spec, np.array([0.5]))  # the spy sees a call where there is one
    assert calls == {"incomplete_beta": 1, "kernels": 1}
