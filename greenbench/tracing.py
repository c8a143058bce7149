"""Span tracing of greenlab's public functions, from outside the program.

install() wraps each named function wherever a greenlab module bound the
name (so `from .special_math import integrate` in another module is
wrapped too) and each named method on its class. A wrapper keeps a stack
of open spans; a span's self time is its duration minus the time its child
spans cover. Spans are aggregated per name as they close, so memory stays
flat however many calls a run makes. Single-threaded use only: the CLI
runs its energy sweep on one thread unless --threads is given.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, qualified name) of every traced function or method
SPANS = (
    ("special_math", "integrate"),
    ("special_math", "gauss_kronrod_panel"),
    ("special_math", "reg_incomplete_beta"),
    ("chebyshev", "ChebyshevInterpolant.__call__"),
    ("green", "build_profile"),
    ("green", "RadialGreenProfile.phi"),
    ("green", "phi_hat"),
    ("green", "phi_hat_prime"),
    ("ball_stats", "k_value"),
    ("ball_stats", "theta_value"),
    ("ball_stats", "k_quadrature"),
    ("ball_stats", "theta_quadrature"),
    ("ball_stats", "k_closed"),
    ("ball_stats", "theta_closed"),
    ("ball_stats", "cum_volume_over_area"),
    ("bounds", "best_finite_bound"),
    ("bounds", "finite_bound"),
    ("manifold", "sample_uniform"),
    ("manifold", "quat_hermitian_inner"),
    ("manifold", "distance"),
    ("manifold", "load_configuration"),
    ("manifold", "save_configuration"),
    ("energy", "energy"),
    ("energy", "EnergyReport.from_configuration"),
    ("energy", "optimize"),
    ("cli", "main"),
)


# metric name -> unit of every per-layer metric a traced run reports
PER_LAYER = {
    **{f"{mod}.{name}.calls": "count" for mod, name in SPANS},
    "chebyshev.ChebyshevInterpolant.__call__.points": "count",
    "chebyshev.ChebyshevInterpolant.__call__.max_points": "count",
    "green.RadialGreenProfile.phi.points": "count",
    "energy.energy.pairs": "count",
    "ball_stats.memo_hit_ratio": "ratio",
    **{f"{mod}.{name}.self_s": "s" for mod, name in SPANS},
    "trace.setup_s": "s",
    "trace.timed_s": "s",
}


def _points(args, kwargs):
    return int(np.size(args[1]))


def _pairs(args, kwargs):
    n = len(args[0])
    return n * (n - 1) // 2


# extra per-call counts: span name -> (counter name, function of the call's arguments)
_COUNTERS = {
    "chebyshev.ChebyshevInterpolant.__call__": ("points", _points),
    "green.RadialGreenProfile.phi": ("points", _points),
    "energy.energy": ("pairs", _pairs),
}


class SpanStats:
    __slots__ = ("calls", "self_s", "points", "max_points", "pairs")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.points = 0
        self.max_points = 0
        self.pairs = 0


class Tracer:
    """Aggregated spans of the wrapped functions; install() starts recording."""

    def __init__(self):
        self.stats = {f"{mod}.{name}": SpanStats() for mod, name in SPANS}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dur - child
                if stack:
                    stack[-1] += dur
                if counter is not None:
                    kind, count = counter
                    k = count(args, kwargs)
                    if kind == "pairs":
                        stat.pairs += k
                    else:
                        stat.points += k
                        stat.max_points = max(stat.max_points, k)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k.startswith("greenlab.")]
        for mod_name, qualname in SPANS:
            name = f"{mod_name}.{qualname}"
            home = sys.modules[f"greenlab.{mod_name}"]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, meth, self._wrap(name, raw))
                continue
            orig = getattr(home, qualname)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """Flat '<span>.<field>' table of every span, zero rows included."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            counter = _COUNTERS.get(name)
            if counter is not None and counter[0] == "pairs":
                out[f"{name}.pairs"] = st.pairs
            elif counter is not None:
                out[f"{name}.points"] = st.points
                if name.startswith("chebyshev."):
                    out[f"{name}.max_points"] = st.max_points
        value_calls = out["ball_stats.k_value.calls"] + out["ball_stats.theta_value.calls"]
        route_calls = sum(
            out[f"ball_stats.{r}.calls"]
            for r in ("k_quadrature", "theta_quadrature", "k_closed", "theta_closed")
        )
        # share of K/Theta lookups served from the memo; 0 when there were none
        out["ball_stats.memo_hit_ratio"] = 1.0 - route_calls / value_calls if value_calls else 0.0
        return out
