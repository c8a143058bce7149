"""Finite-N Green-energy lower bounds and their asymptotic coefficients.

The certified finite-N bound for N points and any probe radius a is

    E >= N (1 - 2N + V/V(a)) K(M, a) - N Theta(M, a),

valid on every compact harmonic manifold. Maximizing the leading terms
over a for d > 2 gives a closed optimal-radius constant and an
asymptotic coefficient of N^(2-2/d), which this module reproduces both
through the general pipeline and through the per-family closed formulas,
together with the prior coefficients they are compared against.

The bound B(a) has one maximum, where V(a)/V = 1/N. With v = V(a)',
H = int_0^a V/v and J = int_0^a V^2/v (H' = V(a)/v, J' = V(a)^2/v),
`ball_stats`' K = H/V - J/(V V(a)) and Theta = phi(a) + K + (1/V(a) - 1/V) H,
with phi' = -psi/V = -(V - V(a))/(V v), give

    K'     = v J / (V V(a)^2) > 0,
    Theta' = K' - v H / V(a)^2.

Of B' below, -N V v K / V(a)^2 and the term N v H / V(a)^2 of -N Theta'
add up to N v J / V(a)^3 = N V K' / V(a), as H - V K = J / V(a); so

    B' = N (1 - 2N + V/V(a)) K' - N V v K / V(a)^2 - N Theta'
       = 2N K' (V/V(a) - N).

The bound rises while V(a) < V/N and falls after; the paper's asymptotic
radius sqrt(c_opt) N^(-1/d) is the same condition with V(a) ~ omega a^d / d.
`best_finite_bound` takes that radius from `ball_stats._fraction_radius`, a
numpy-only Newton solve on the record series, and makes one `finite_bounds`
pass over the report's grid (32 log-spaced radii from a small radius to
exactly D), the asymptotic radius when d > 2 and that radius together; the
reported best is the largest of them.

So a fresh N costs one kernel pass of 33 to 34 radii plus a scalar Newton
solve, with `volume`, `optimal_radius_constant` and the prior coefficient
cached per spec. The search keeps its last 1024 reports (`functools.lru_cache`,
about 4 KB each): a (spec, N) among them is not searched again. A report is
frozen, its radius grid a tuple, so every caller may share it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import records
from .ball_stats import _fraction_radius, _kernel_radii, _kernels, _require_finite
from .errors import DomainError, UnsupportedManifoldError
from .manifold import (
    Family,
    ManifoldSpec,
    _record,
    diameter,
    dimension,
    volume,
)

__all__ = [
    "BoundCoefficients",
    "BoundReport",
    "finite_bound",
    "optimal_radius_constant",
    "matzke_coefficient",
    "our_coefficient",
    "legacy_2d_constants",
    "best_finite_bound",
    "compare_table",
]

GRID_POINTS = 32


@dataclass(frozen=True)
class BoundCoefficients:
    """Optimal-radius constant and the leading asymptotic coefficient (d > 2)."""

    spec: ManifoldSpec
    c_opt: float
    leading: float
    exponent: float


@dataclass(frozen=True)
class BoundReport:
    """Result of maximizing the finite-N bound over the probe radius."""

    spec: ManifoldSpec
    N: int
    radius_grid: tuple[tuple[float, float], ...]
    best_a: float
    best_bound: float
    asymptotic_a: float | None = None
    asymptotic_bound: float | None = None
    leading_coefficient: float | None = None
    matzke_coefficient: float | None = None
    exponent: float | None = None

    def __post_init__(self):
        if self.N >= 2 and self.best_bound > 0.0:
            raise DomainError(
                f"a positive lower bound {self.best_bound} contradicts the mean-zero "
                "energy; bound evaluation is broken"
            )

    def to_dict(self) -> dict:
        return {
            "family": self.spec.token,
            "n": self.spec.n,
            "N": self.N,
            "best_a": self.best_a,
            "best_bound": self.best_bound,
            "asymptotic_a": self.asymptotic_a,
            "asymptotic_bound": self.asymptotic_bound,
            "leading_coefficient": self.leading_coefficient,
            "matzke_coefficient": self.matzke_coefficient,
            "exponent": self.exponent,
            "radius_grid": [[a, b] for a, b in self.radius_grid],
        }


def _check_points(N: int, least: int) -> None:
    """DomainError unless least <= N and N fits in a double."""
    if N < least:
        raise DomainError(f"need N >= {least}, got {N}")
    try:
        float(N)
    except OverflowError:
        raise DomainError(f"need N < 2^1024 to fit in a double, got an N of {N.bit_length()} bits") from None


def finite_bounds(spec: ManifoldSpec, N: int, radii) -> np.ndarray:
    """The certified lower bound at every probe radius of a 1-D array.

    The radii are checked, and K, Theta and mu = V(a)/V come from one pass
    of the closed forms behind `k_values` and `theta_values`, with no
    quadrature, so a radius gets the same bits alone as in any batch. A
    non-finite K, Theta or bound, as where V(a) underflows, raises
    SingularityError naming the radius; an N past the range of a double
    raises DomainError.
    """
    _check_points(N, 1)
    radii = _kernel_radii(spec, radii, "the bound")
    V = volume(spec)
    k, theta, mu = _kernels(spec, radii)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bounds = N * (1.0 - 2.0 * N + V / (V * mu)) * k - N * theta
    return _require_finite(bounds, radii, "the bound", spec)


def finite_bound(spec: ManifoldSpec, N: int, a: float) -> float:
    """The certified lower bound at probe radius a: `finite_bounds` on one radius."""
    return float(finite_bounds(spec, N, [a])[0])


def _c_opt(spec: ManifoldSpec) -> float:
    """c_opt = (d (d^2 - 4) margin / 4)^(2/d) = (d V/omega)^(2/d), taken in logs (d > 2):
    the margin B_M - V / ((d + 2) omega) is 4 (V/omega) / (d^2 - 4) > 0."""
    d = dimension(spec)
    if d <= 2:
        raise UnsupportedManifoldError(
            "the closed optimal radius needs d > 2; use best_finite_bound for d = 2"
        )
    return math.exp(2.0 / d * math.log(d * records.volume_ratio(_record(spec))))


@functools.cache
def optimal_radius_constant(spec: ManifoldSpec) -> BoundCoefficients:
    """Closed optimal-radius constant and N^(2-2/d) coefficient for d > 2,
    computed once per spec."""
    d = dimension(spec)
    c_opt = _c_opt(spec)
    leading = d * c_opt / ((d * d - 4) * volume(spec))
    return BoundCoefficients(spec=spec, c_opt=c_opt, leading=leading, exponent=2.0 - 2.0 / d)


def matzke_coefficient(spec: ManifoldSpec) -> float:
    """Prior leading coefficient (1/V factor excluded, as in the comparisons)."""
    n = spec.n
    if spec.family is Family.REAL_PROJ:
        if n < 3:
            raise DomainError("prior real projective coefficient needs n >= 3")
        return n / (4.0 * (n - 2)) * math.exp(
            (math.log(math.pi) - 2.0 * math.lgamma(0.5 * (n + 1))) / n
        )
    if spec.family is Family.COMPLEX_PROJ:
        if n < 2:
            raise DomainError("prior complex projective coefficient needs n >= 2")
        return n / (4.0 * (n - 1) * math.exp(math.lgamma(n + 1.0) / n))
    if spec.family is Family.QUAT_PROJ:
        return n / (2.0 * (2 * n - 1) * math.exp(math.lgamma(2 * n + 2.0) / (2 * n)))
    if spec.family is Family.CAYLEY_PLANE:
        return (2.0 / 7.0) * (6.0 / math.factorial(11)) ** 0.125
    raise UnsupportedManifoldError(f"no prior coefficient is tabulated for {spec}")


def our_coefficient(spec: ManifoldSpec) -> float:
    """Our leading coefficient without the 1/V factor (figure normalization): d c_opt / (d^2 - 4)."""
    d = dimension(spec)
    return d * _c_opt(spec) / (d * d - 4)


def legacy_2d_constants() -> dict[str, float]:
    """The paper's reference constants for the dimension-2 cases. The
    acceptance tests check its displayed numerals against them, and the
    tests hold the dimension-2 bounds to their N log N law.

    CP^1 is S^2 of radius 1/2, and scaling the metric leaves the 2-D Green
    function as it is: phi_CP1(r) = phi_S2(2 r) (`verify`'s "complex line
    isometry"). So CP^1's energies, bound and N log N law are S^2's; the
    source inventory's -1/pi and -1/(2 pi) are 4 = V_S2 / V_CP1 times these.
    """
    c_bhs = (
        2.0 * math.log(2.0)
        + 0.5 * math.log(2.0 / 3.0)
        + 3.0 * math.log(math.sqrt(math.pi) / math.gamma(1.0 / 3.0))
    )
    return {
        # logarithmic-energy constant upper bound and the matching lower-bound constant
        "C_BHS": c_bhs,
        "lauritsen": math.log(2.0) - 0.75,
        # sphere Green energy: E >= -(N/4pi) log N - N/(8pi) + o(N)
        "s2_nlogn": -1.0 / (4.0 * math.pi),
        "s2_linear": -1.0 / (8.0 * math.pi),
        "s2_linear_upper": (2.0 * c_bhs + 1.0 - 2.0 * math.log(2.0)) / (4.0 * math.pi),
        # real projective plane
        "rp2_nlogn": -1.0 / (4.0 * math.pi),
        "rp2_linear": (0.5 - math.log(2.0)) / (4.0 * math.pi),
        # complex projective line: the sphere's law
        "cp1_nlogn": -1.0 / (4.0 * math.pi),
        "cp1_linear": -1.0 / (8.0 * math.pi),
    }


_FLOOR = 1e-4  # the grid's smallest radius, as a share of D


def _log_grid(spec: ManifoldSpec, N: int) -> np.ndarray:
    """The report's GRID_POINTS radii, log-spaced from lo to exactly D."""
    D = diameter(spec)
    lo = max(_FLOOR * D, 0.05 * D * float(N) ** (-2.0 / dimension(spec)))
    log_lo = math.log(lo)
    step = (math.log(D) - log_lo) / (GRID_POINTS - 1)
    return np.array([lo, *(math.exp(log_lo + k * step) for k in range(1, GRID_POINTS - 1)), D])


def best_finite_bound(spec: ManifoldSpec, N: int) -> BoundReport:
    """Maximize the finite-N bound over the probe radius (module docstring).

    The reported best is the maximum over every radius evaluated.
    """
    _check_points(N, 2)
    return _search_radius(spec, N)


@functools.cache
def _prior_coefficient(spec: ManifoldSpec) -> float | None:
    """`matzke_coefficient`, or None for a family without one (S^n, RP^2, CP^1)."""
    try:
        return matzke_coefficient(spec)
    except (DomainError, UnsupportedManifoldError):
        return None


@functools.lru_cache(maxsize=1024)
def _search_radius(spec: ManifoldSpec, N: int) -> BoundReport:
    d = dimension(spec)
    asymptotic = {}
    extra = []  # the asymptotic radius where d > 2, then the one where V(a)/V = 1/N
    if d > 2:
        coeff = optimal_radius_constant(spec)
        asymptotic = {
            "asymptotic_a": math.sqrt(coeff.c_opt) * float(N) ** (-1.0 / d),
            "leading_coefficient": coeff.leading,
            "matzke_coefficient": _prior_coefficient(spec),
            "exponent": coeff.exponent,
        }
        extra.append(asymptotic["asymptotic_a"])
    extra.append(_fraction_radius(spec, 1.0 / N))

    radii = [*_log_grid(spec, N).tolist(), *extra]
    values = finite_bounds(spec, N, radii).tolist()
    if d > 2:
        asymptotic["asymptotic_bound"] = values[GRID_POINTS]
    best_a, best_bound = max(zip(radii, values), key=itemgetter(1))
    return BoundReport(
        spec=spec,
        N=N,
        radius_grid=tuple(zip(radii[:GRID_POINTS], values)),
        best_a=best_a,
        best_bound=best_bound,
        **asymptotic,
    )


_COMPARE_RANGES = {
    Family.REAL_PROJ: (3, None),
    Family.COMPLEX_PROJ: (2, None),
    Family.QUAT_PROJ: (1, None),
    Family.CAYLEY_PLANE: (2, 2),
}


def compare_table(family: Family, n_min: int, n_max: int) -> list[tuple[int, float, float, float]]:
    """(n, ours, prior, ratio) rows, both coefficients without the 1/V factor."""
    if family not in _COMPARE_RANGES:
        raise UnsupportedManifoldError(f"no comparison data for family {family.value}")
    lo, hi = _COMPARE_RANGES[family]
    if n_min > n_max:
        raise DomainError(f"need n_min <= n_max, got [{n_min}, {n_max}]")
    if n_min < lo or (hi is not None and n_max > hi):
        raise DomainError(
            f"family {family.value} supports n in [{lo}, {hi or 'inf'}], "
            f"got [{n_min}, {n_max}]"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        spec = ManifoldSpec(family, n)
        ours = our_coefficient(spec)
        prior = matzke_coefficient(spec)
        rows.append((n, ours, prior, ours / prior))
    return rows
