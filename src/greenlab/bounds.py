"""Finite-N Green-energy lower bounds and their asymptotic coefficients.

The certified finite-N bound for N points and any probe radius a is

    E >= N (1 - 2N + V/V(a)) K(M, a) - N Theta(M, a),

valid on every compact harmonic manifold. Maximizing the leading terms
over a for d > 2 gives a closed optimal-radius constant and an
asymptotic coefficient of N^(2-2/d), which this module reproduces both
through the general pipeline and through the per-family closed formulas,
together with the prior coefficients they are compared against.

`best_finite_bound` maximises the finite-N bound over a: a 32-point log
grid from a small radius to exactly D, with the asymptotic radius when
d > 2, is one `finite_bounds` pass (K and Theta over all radii at once).
A Chebyshev proxy in log a on the grid argmax's neighbours takes a second
pass over its 22 interior nodes, and the proxy's maximiser a third (Boyd,
SIAM Review 55, 2013). Each (spec, N) is searched once per process;
later calls get copies of the stored report.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .ball_stats import _kernel_radii, _kernels, _require_finite
from .chebyshev import lobatto_nodes
from .errors import DomainError, UnsupportedManifoldError
from .manifold import (
    Family,
    ManifoldSpec,
    _volume_ratio,
    ball_volume_fraction,
    diameter,
    dimension,
    volume,
)
from .special_math import log_gamma, vol_unit_sphere

__all__ = [
    "BoundCoefficients",
    "BoundReport",
    "finite_bound",
    "optimal_radius_constant",
    "sphere_leading_coefficient",
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


@dataclass
class BoundReport:
    """Result of maximizing the finite-N bound over the probe radius."""

    spec: ManifoldSpec
    N: int
    radius_grid: list[tuple[float, float]]
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


def finite_bounds(spec: ManifoldSpec, N: int, radii) -> np.ndarray:
    """The certified lower bound at every probe radius of a 1-D array.

    The radii are checked and V(a) computed once, and K and Theta come from
    one pass of the route behind `k_values` and `theta_values` (on S^n and
    RP^n, one quadrature call for both kernels at every radius), so a
    radius gets the same bits alone as in any batch. A non-finite bound, as
    where V(a) underflows, raises SingularityError naming the radius.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    radii = _kernel_radii(spec, radii, "the bound")
    V = volume(spec)
    va = V * ball_volume_fraction(spec, radii)
    k, theta = _kernels(spec, radii, va)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = N * (1.0 - 2.0 * N + V / va) * k - N * theta
    return _require_finite(bound, radii, "the bound", spec)


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
    return math.exp(2.0 / d * math.log(d * _volume_ratio(spec)))


def optimal_radius_constant(spec: ManifoldSpec) -> BoundCoefficients:
    """Closed optimal-radius constant and N^(2-2/d) coefficient for d > 2."""
    d = dimension(spec)
    c_opt = _c_opt(spec)
    leading = d * c_opt / ((d * d - 4) * volume(spec))
    return BoundCoefficients(spec=spec, c_opt=c_opt, leading=leading, exponent=2.0 - 2.0 / d)


def sphere_leading_coefficient(n: int) -> float:
    """The sphere coefficient of N^(2-2/n) in the direct Gamma-function form."""
    if n < 3:
        raise DomainError(f"the closed sphere coefficient needs n >= 3, got {n}")
    v_n = volume(ManifoldSpec(Family.SPHERE, n))
    v_nm1 = vol_unit_sphere(n)  # volume of S^(n-1)
    return n ** (1.0 + 2.0 / n) / (
        (n * n - 4) * v_n ** (1.0 - 2.0 / n) * v_nm1 ** (2.0 / n)
    )


def matzke_coefficient(spec: ManifoldSpec) -> float:
    """Prior leading coefficient (1/V factor excluded, as in the comparisons)."""
    n = spec.n
    if spec.family is Family.REAL_PROJ:
        if n < 3:
            raise DomainError("prior real projective coefficient needs n >= 3")
        return n / (4.0 * (n - 2)) * math.exp(
            (math.log(math.pi) - 2.0 * log_gamma(0.5 * (n + 1))) / n
        )
    if spec.family is Family.COMPLEX_PROJ:
        if n < 2:
            raise DomainError("prior complex projective coefficient needs n >= 2")
        return n / (4.0 * (n - 1) * math.exp(log_gamma(n + 1.0) / n))
    if spec.family is Family.QUAT_PROJ:
        return n / (2.0 * (2 * n - 1) * math.exp(log_gamma(2 * n + 2.0) / (2 * n)))
    if spec.family is Family.CAYLEY_PLANE:
        return (2.0 / 7.0) * (6.0 / math.factorial(11)) ** 0.125
    raise UnsupportedManifoldError(f"no prior coefficient is tabulated for {spec}")


def our_coefficient(spec: ManifoldSpec) -> float:
    """Our leading coefficient without the 1/V factor (figure normalization): d c_opt / (d^2 - 4)."""
    d = dimension(spec)
    return d * _c_opt(spec) / (d * d - 4)


def legacy_2d_constants() -> dict[str, float]:
    """Reference constants for the dimension-2 cases, quoted for report footers."""
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
        # complex projective line, as displayed in the source inventory
        "cp1_nlogn": -1.0 / math.pi,
        "cp1_linear": -1.0 / (2.0 * math.pi),
    }


def _log_grid(spec: ManifoldSpec, N: int, count: int = GRID_POINTS) -> np.ndarray:
    """count log-spaced radii from lo to exactly D."""
    D = diameter(spec)
    lo = max(1e-4 * D, 0.05 * D * float(N) ** (-2.0 / dimension(spec)))
    step = (math.log(D) - math.log(lo)) / (count - 1)
    inner = [math.exp(math.log(lo) + k * step) for k in range(1, count - 1)]
    return np.array([lo, *inner, D])


_NODES = 24  # Chebyshev-Lobatto nodes of a proxy, both bracket ends included
_TAIL = 1e-13  # a proxy is resolved when its last two coefficients are within _TAIL max|bound|
_ROUNDS = 4  # proxies built at most, each on the last one's best node and its neighbours
_LOBATTO = lobatto_nodes(_NODES, -1.0, 1.0)
_K = np.arange(_NODES)
_ENDS = np.r_[0.5, np.ones(_NODES - 2), 0.5]
# node values -> Chebyshev coefficients (the DCT-I), and coefficients -> the derivative's
_DCT = np.outer(_ENDS, _ENDS) * np.cos(np.pi * np.outer(_K, _K[::-1]) / _K[-1]) * 2.0 / _K[-1]
_DIFF = np.array(
    [[2.0 * j if j > k and (j - k) % 2 else 0.0 for j in range(_NODES)] for k in range(_NODES)]
)
_DIFF[0] *= 0.5


def _proxy_argmax(c: np.ndarray, j: int) -> float | None:
    """The maximiser of the Chebyshev series c next to its best Lobatto node j, or None
    where j is an end of [-1, 1] that the series rises towards: Newton's iteration on the
    derivative from node j, bisecting j's neighbours where a step leaves them or the
    series is not concave there.
    """
    derivatives = np.stack([_DIFF @ c, _DIFF @ _DIFF @ c])
    slopes = lambda x: (derivatives @ np.cos(_K * math.acos(x))).tolist()  # p'(x), p''(x)
    x = float(_LOBATTO[j])
    if (j == 0 and slopes(x)[0] <= 0.0) or (j == _NODES - 1 and slopes(x)[0] >= 0.0):
        return None
    lo, hi = float(_LOBATTO[max(j - 1, 0)]), float(_LOBATTO[min(j + 1, _NODES - 1)])
    for _ in range(64):
        slope, curve = slopes(x)
        lo, hi = (x, hi) if slope > 0.0 else (lo, x)
        step = x - slope / curve if curve < 0.0 else math.nan
        x, last = (step if lo < step < hi else 0.5 * (lo + hi)), x
        if abs(x - last) <= 1e-15:
            break
    return x


def _proxy_search(spec: ManifoldSpec, N: int, ends) -> dict[float, float]:
    """Maximize the bound over the bracket ends = ((lo, bound), (hi, bound)) by proxies in log a.

    A round is one `finite_bounds` pass over the bracket's interior Lobatto
    nodes; an unresolved proxy (where the bound is not analytic at an end,
    as Theta at D) is rebuilt on its best node's neighbours. The proxy's
    maximiser takes one `finite_bound`. Returns every radius evaluated.
    """
    evaluations = {}
    for rounds in range(_ROUNDS):
        (lo, f_lo), (hi, f_hi) = ends
        t_mid, t_half = 0.5 * math.log(hi * lo), 0.5 * math.log(hi / lo)
        radii = [lo, *np.exp(t_mid + t_half * _LOBATTO[1:-1]).tolist(), hi]
        values = [f_lo, *finite_bounds(spec, N, radii[1:-1]).tolist(), f_hi]
        evaluations.update(zip(radii, values))
        c = _DCT @ values
        j = max(range(_NODES), key=values.__getitem__)
        if np.abs(c[-2:]).max() <= _TAIL * max(map(abs, values)) or rounds == _ROUNDS - 1:
            break
        ends = [(radii[i], values[i]) for i in (max(j - 1, 0), min(j + 1, _NODES - 1))]
    x = _proxy_argmax(c, j)
    if x is not None:
        a = min(max(math.exp(t_mid + t_half * x), lo), hi)
        evaluations[a] = finite_bound(spec, N, a)
    return evaluations


_REPORTS: dict[tuple[ManifoldSpec, int], BoundReport] = {}
_REPORTS_LOCK = threading.Lock()


def best_finite_bound(spec: ManifoldSpec, N: int) -> BoundReport:
    """Maximize the finite-N bound over the probe radius (module docstring).

    The reported best is the maximum over everything evaluated. The first
    call for a (spec, N) runs the search and keeps its report; every call
    returns its own copy, so callers may mutate it.
    """
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    key = (spec, N)
    with _REPORTS_LOCK:
        report = _REPORTS.get(key)
    if report is None:
        report = _search_radius(spec, N)
        with _REPORTS_LOCK:
            report = _REPORTS.setdefault(key, report)
    return replace(report, radius_grid=list(report.radius_grid))


def _search_radius(spec: ManifoldSpec, N: int) -> BoundReport:
    d = dimension(spec)
    grid_radii = _log_grid(spec, N)
    radii = grid_radii
    report = BoundReport(spec=spec, N=N, radius_grid=[], best_a=math.nan, best_bound=-math.inf)
    if d > 2:
        coeff = optimal_radius_constant(spec)
        report.asymptotic_a = math.sqrt(coeff.c_opt) * float(N) ** (-1.0 / d)
        report.leading_coefficient = coeff.leading
        report.exponent = coeff.exponent
        try:
            report.matzke_coefficient = matzke_coefficient(spec)
        except (DomainError, UnsupportedManifoldError):
            report.matzke_coefficient = None
        radii = np.append(grid_radii, report.asymptotic_a)

    values = finite_bounds(spec, N, radii).tolist()
    grid = report.radius_grid = list(zip(grid_radii.tolist(), values))
    evaluations = dict(grid)
    if d > 2:
        report.asymptotic_bound = evaluations[report.asymptotic_a] = values[-1]
    # the bound is flat near its maximum; bracket it by the grid argmax's neighbours
    b = max(range(len(grid)), key=lambda i: grid[i][1])
    ends = grid[max(b - 1, 0)], grid[min(b + 1, len(grid) - 1)]
    evaluations.update(_proxy_search(spec, N, ends))
    report.best_a, report.best_bound = max(evaluations.items(), key=lambda kv: kv[1])
    report.__post_init__()
    return report


_COMPARE_RANGES = {
    Family.REAL_PROJ: (3, None),
    Family.COMPLEX_PROJ: (2, None),
    Family.QUAT_PROJ: (1, None),
    Family.CAYLEY_PLANE: (2, 2),
}


def compare_table(family: Family, n_min: int, n_max: int) -> list[tuple[int, float, float, float]]:
    """(n, ours, prior, ratio) rows, both coefficients without the 1/V factor."""
    if family not in _COMPARE_RANGES:
        raise UnsupportedManifoldError(f"no comparison data for family {family}")
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
