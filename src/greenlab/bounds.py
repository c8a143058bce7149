"""Finite-N Green-energy lower bounds and their asymptotic coefficients.

The certified finite-N bound for N points and any probe radius a is

    E >= N (1 - 2N + V/V(a)) K(M, a) - N Theta(M, a),

valid on every compact harmonic manifold. Maximizing the leading terms
over a for d > 2 gives a closed optimal-radius constant and an
asymptotic coefficient of N^(2-2/d), which this module reproduces both
through the general pipeline and through the per-family closed formulas,
together with the prior coefficients they are compared against.

K, Theta and mu = V(a)/V do not depend on N, so `best_finite_bound`
searches a on a log lattice that each manifold computes once: from
1e-4 D to exactly D, spaced no wider than the 32-point report grid at
N = 1000. K, Theta and mu at the lattice radii, and at the 24
Chebyshev-Lobatto nodes in log a of each lattice bracket
[L(i-1), L(i+1)] the first time it is used, are kept as read-only arrays
(non-finite values included). Per N the search is then arithmetic on
them: the lattice argmax over the finite values picks the bracket, whose
cached nodes are round 0 of a Chebyshev proxy of the bound (Boyd, SIAM
Review 55, 2013); an unresolved proxy, as where the bracket ends at D, is
rebuilt on its best node's neighbours by one `finite_bounds` pass a
round. One `finite_bounds` pass then evaluates the report's grid (32
log-spaced radii from a small radius to exactly D), the asymptotic radius
when d > 2 and the proxy's maximiser together.

So a fresh N on a manifold searched before costs one kernel pass (that
last one, 33 to 34 radii; a second for the 22 interior nodes of a bracket
not used before, and one per further proxy round) plus arithmetic on
values cached per spec: the lattice and its brackets, `volume`,
`optimal_radius_constant` and `matzke_coefficient`, with the proxy's
derivative matrices (`_DIFF`, `_DIFF2`) formed once. Each (spec, N) is
searched once per process while its report is among the last
`_REPORTS_KEPT` searched; later calls get copies of the stored report.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import records
from .ball_stats import _closed_kernels, _kernel_radii, _kernels, _require_finite
from .chebyshev import lobatto_nodes
from .errors import DomainError, UnsupportedManifoldError
from .manifold import (
    Family,
    ManifoldSpec,
    _record,
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

    def _copy(self) -> BoundReport:
        """A copy with a list of its own for radius_grid, made without
        re-running `__init__` and its check."""
        copy = object.__new__(BoundReport)
        copy.__dict__.update(self.__dict__, radius_grid=list(self.radius_grid))
        return copy

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


def _bounds(V: float, N: int, k: np.ndarray, theta: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The bound from K, Theta and mu = V(a)/V at each radius, elementwise;
    non-finite where they or V(a) = V mu leave the range of a double."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return N * (1.0 - 2.0 * N + V / (V * mu)) * k - N * theta


def finite_bounds(spec: ManifoldSpec, N: int, radii) -> np.ndarray:
    """The certified lower bound at every probe radius of a 1-D array.

    The radii are checked, and K, Theta and mu = V(a)/V come from one pass
    of the closed forms behind `k_values` and `theta_values`, with no
    quadrature, so a radius gets the same bits alone as in any batch. A
    non-finite K, Theta or bound, as where V(a) underflows, raises
    SingularityError naming the radius.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    radii = _kernel_radii(spec, radii, "the bound")
    V = volume(spec)
    return _require_finite(_bounds(V, N, *_kernels(spec, radii)), radii, "the bound", spec)


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


def sphere_leading_coefficient(n: int) -> float:
    """The sphere coefficient of N^(2-2/n) in the direct Gamma-function form."""
    if n < 3:
        raise DomainError(f"the closed sphere coefficient needs n >= 3, got {n}")
    v_n = volume(ManifoldSpec(Family.SPHERE, n))
    v_nm1 = vol_unit_sphere(n)  # volume of S^(n-1)
    return n ** (1.0 + 2.0 / n) / (
        (n * n - 4) * v_n ** (1.0 - 2.0 / n) * v_nm1 ** (2.0 / n)
    )


@functools.cache
def matzke_coefficient(spec: ManifoldSpec) -> float:
    """Prior leading coefficient (1/V factor excluded, as in the comparisons),
    computed once per spec."""
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


_FLOOR = 1e-4  # the smallest radius searched, as a share of D


def _log_radii(lo: float, hi: float, count: int) -> np.ndarray:
    """count log-spaced radii from exactly lo to exactly hi."""
    log_lo = math.log(lo)
    step = (math.log(hi) - log_lo) / (count - 1)
    inner = [math.exp(log_lo + k * step) for k in range(1, count - 1)]
    return np.array([lo, *inner, hi])


def _log_grid(spec: ManifoldSpec, N: int) -> np.ndarray:
    """The report's GRID_POINTS radii, log-spaced from lo to exactly D."""
    D = diameter(spec)
    lo = max(_FLOOR * D, 0.05 * D * float(N) ** (-2.0 / dimension(spec)))
    return _log_radii(lo, D, GRID_POINTS)


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
_DIFF2 = _DIFF @ _DIFF  # the second derivative's, as `_DIFF @ _DIFF @ c` groups


def _proxy_argmax(c: np.ndarray, j: int) -> float | None:
    """The maximiser of the Chebyshev series c next to its best Lobatto node j, or None
    where j is an end of [-1, 1] that the series rises towards: Newton's iteration on the
    derivative from node j, bisecting j's neighbours where a step leaves them or the
    series is not concave there.
    """
    derivatives = np.stack([_DIFF @ c, _DIFF2 @ c])
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


def _lobatto_radii(lo: float, hi: float) -> list[float]:
    """The _NODES Chebyshev-Lobatto nodes of [lo, hi] in log a, ends exact."""
    t_mid, t_half = 0.5 * math.log(hi * lo), 0.5 * math.log(hi / lo)
    return [lo, *np.exp(t_mid + t_half * _LOBATTO[1:-1]).tolist(), hi]


def _proxy_search(spec: ManifoldSpec, N: int, radii: list[float], values: list[float]):
    """Maximize the bound by proxies in log a, from its values at the
    `_lobatto_radii` of a bracket (round 0).

    An unresolved proxy (where the bound is not analytic at an end, as
    Theta at D) is rebuilt on its best node's neighbours, one
    `finite_bounds` pass over the interior nodes a round. Returns every
    radius evaluated, and the last proxy's maximiser, or None where the
    proxy rises towards an end of its bracket; the caller evaluates it.
    """
    evaluations = {}
    for rounds in range(_ROUNDS):
        if rounds:
            (lo, f_lo), (hi, f_hi) = ends
            radii = _lobatto_radii(lo, hi)
            values = [f_lo, *finite_bounds(spec, N, radii[1:-1]).tolist(), f_hi]
        evaluations.update(zip(radii, values))
        c = _DCT @ values
        j = max(range(_NODES), key=values.__getitem__)
        if np.abs(c[-2:]).max() <= _TAIL * max(map(abs, values)) or rounds == _ROUNDS - 1:
            break
        ends = [(radii[i], values[i]) for i in (max(j - 1, 0), min(j + 1, _NODES - 1))]
    x = _proxy_argmax(c, j)
    if x is None:
        return evaluations, None
    lo, hi = radii[0], radii[-1]
    t_mid, t_half = 0.5 * math.log(hi * lo), 0.5 * math.log(hi / lo)
    return evaluations, min(max(math.exp(t_mid + t_half * x), lo), hi)


@dataclass(frozen=True)
class _KernelTable:
    """K, Theta and mu = V(a)/V, the rows of values, at radii: read-only,
    non-finite values kept."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.radii.flags.writeable = False
        self.values.flags.writeable = False

    def bounds(self, spec: ManifoldSpec, N: int) -> np.ndarray:
        """The bound at every radius, with the bits `finite_bounds` gives it."""
        return _bounds(volume(spec), N, *self.values)


def _kernel_rows(spec: ManifoldSpec, radii: np.ndarray) -> np.ndarray:
    """[K, Theta, mu] at radii in (0, D] from one `_closed_kernels` pass."""
    return np.array(_closed_kernels(spec, radii))


@functools.cache
def _lattice(spec: ManifoldSpec) -> _KernelTable:
    """The search lattice: log-spaced from _FLOOR D to exactly D, at most as
    far apart as the report grid's radii at N = 1000."""
    grid = _log_grid(spec, 1000)
    # where that grid starts at the floor (d = 2), the lattice is that grid
    count = math.ceil(math.log(1.0 / _FLOOR) / math.log(grid[1] / grid[0]) - 1e-9) + 1
    radii = _log_radii(_FLOOR * grid[-1], grid[-1], count)
    return _KernelTable(radii, _kernel_rows(spec, radii))


@functools.cache
def _bracket(spec: ManifoldSpec, i: int) -> _KernelTable:
    """The `_lobatto_radii` of the lattice bracket [L(i-1), L(i+1)]: the ends
    from the lattice, the interior nodes from one pass."""
    lattice = _lattice(spec)
    ends = [max(i - 1, 0), min(i + 1, len(lattice.radii) - 1)]
    radii = _lobatto_radii(*lattice.radii[ends].tolist())
    inner = _kernel_rows(spec, np.array(radii[1:-1]))
    lo, hi = lattice.values[:, ends].T
    return _KernelTable(np.array(radii), np.column_stack([lo, inner, hi]))


_REPORTS: dict[tuple[ManifoldSpec, int], BoundReport] = {}
_REPORTS_LOCK = threading.Lock()
_REPORTS_KEPT = 1024  # reports kept, about 4 KB each; past it the oldest go first


def best_finite_bound(spec: ManifoldSpec, N: int) -> BoundReport:
    """Maximize the finite-N bound over the probe radius (module docstring).

    The reported best is the maximum over everything evaluated. The first
    call for a (spec, N) runs the search and keeps its report, among the
    last `_REPORTS_KEPT` searched; every call returns its own copy, so
    callers may mutate it.
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
            while len(_REPORTS) > _REPORTS_KEPT:
                del _REPORTS[next(iter(_REPORTS))]
    return report._copy()


def _search_radius(spec: ManifoldSpec, N: int) -> BoundReport:
    d = dimension(spec)
    grid_radii = _log_grid(spec, N)
    extra = []  # the asymptotic radius where d > 2, then the proxy's maximiser
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
        extra.append(report.asymptotic_a)

    # the bound is flat near its maximum; bracket it by the lattice argmax's neighbours
    evaluations, best = {}, None
    lattice = _lattice(spec)
    values = lattice.bounds(spec, N)
    finite = np.isfinite(values)
    if finite.any():
        i = int(np.argmax(np.where(finite, values, -np.inf)))
        evaluations[lattice.radii[i].item()] = values[i].item()
        bracket = _bracket(spec, i)
        nodes = bracket.bounds(spec, N)
        if not np.isfinite(nodes).all():
            # raise as a search by `finite_bounds` alone would: the grid's error first
            finite_bounds(spec, N, np.concatenate([grid_radii, extra]))
            nodes = finite_bounds(spec, N, bracket.radii)
        found, best = _proxy_search(spec, N, bracket.radii.tolist(), nodes.tolist())
        evaluations.update(found)
    if best is not None:
        extra.append(best)

    values = finite_bounds(spec, N, np.concatenate([grid_radii, extra])).tolist()
    grid = report.radius_grid = list(zip(grid_radii.tolist(), values))
    evaluations.update(grid)
    if d > 2:
        report.asymptotic_bound = evaluations[report.asymptotic_a] = values[GRID_POINTS]
    if best is not None:
        evaluations[best] = values[-1]
    report.best_a, report.best_bound = max(evaluations.items(), key=itemgetter(1))
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
