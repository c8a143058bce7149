"""Scalar special functions and adaptive 1-D quadrature.

Everything here is a pure function of its arguments; the rest of the
library builds radial integrals, ball volumes and Green profiles on top
of these primitives.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureSettings",
    "log_gamma",
    "vol_unit_sphere",
    "reg_incomplete_beta",
    "harmonic_number",
    "integrate",
    "gauss_kronrod_panel",
]


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and the subdivision budget for adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol}")
        if not self.abs_tol > 0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be at least 1, got {self.max_subdivisions}"
            )


DEFAULT_SETTINGS = QuadratureSettings()


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def vol_unit_sphere(k: int) -> float:
    """Surface volume of the unit (k-1)-sphere in R^k: 2 pi^(k/2) / Gamma(k/2)."""
    if k < 1:
        raise DomainError(f"vol_unit_sphere requires k >= 1, got {k}")
    return math.exp(math.log(2.0) + 0.5 * k * math.log(math.pi) - math.lgamma(0.5 * k))


def _beta_continued_fraction(a: float, b: float, s: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz iteration).

    Converges rapidly for s below the symmetry switch point.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * s / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * s / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * s / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise QuadratureError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, s={s}",
        estimate=h,
        error_bound=float("nan"),
    )


def reg_incomplete_beta(s: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_s(a, b) = B_s(a,b) / B(a,b).

    Evaluated through the continued fraction, switching to the symmetric
    form 1 - I_{1-s}(b, a) past s = a/(a+b) so the fraction always runs
    in its fast-convergence region.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"reg_incomplete_beta requires a, b > 0, got a={a}, b={b}")
    if s < 0.0 or s > 1.0:
        raise DomainError(f"reg_incomplete_beta requires 0 <= s <= 1, got s={s}")
    if s == 0.0:
        return 0.0
    if s == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(s)
        + b * math.log1p(-s)
    )
    front = math.exp(log_front)
    if s < a / (a + b):
        return front * _beta_continued_fraction(a, b, s) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - s) / b


def harmonic_number(k: int) -> float:
    """H_k = sum_{j=1..k} 1/j, with H_0 = 0."""
    if k < 0:
        raise DomainError(f"harmonic_number requires k >= 0, got {k}")
    return math.fsum(1.0 / j for j in range(1, k + 1))


# 7-point Gauss / 15-point Kronrod node-weight table on [-1, 1].
# Nodes are the Kronrod abscissae; Gauss weights are zero on the
# Kronrod-only points.
_GK15 = (
    (0.000000000000000000e0, 4.179591836734693878e-1, 2.094821410847278280e-1),
    (4.058451513773971669e-1, 3.818300505051189449e-1, 1.903505780647854099e-1),
    (-4.058451513773971669e-1, 3.818300505051189449e-1, 1.903505780647854099e-1),
    (7.415311855993944399e-1, 2.797053914892766679e-1, 1.406532597155259187e-1),
    (-7.415311855993944399e-1, 2.797053914892766679e-1, 1.406532597155259187e-1),
    (9.491079123427585245e-1, 1.294849661688696933e-1, 6.309209262997855329e-2),
    (-9.491079123427585245e-1, 1.294849661688696933e-1, 6.309209262997855329e-2),
    (2.077849550078984676e-1, 0.0, 2.044329400752988924e-1),
    (-2.077849550078984676e-1, 0.0, 2.044329400752988924e-1),
    (5.860872354676911303e-1, 0.0, 1.690047266392679028e-1),
    (-5.860872354676911303e-1, 0.0, 1.690047266392679028e-1),
    (8.648644233597690727e-1, 0.0, 1.047900103222501838e-1),
    (-8.648644233597690727e-1, 0.0, 1.047900103222501838e-1),
    (9.914553711208126392e-1, 0.0, 2.293532201052922496e-2),
    (-9.914553711208126392e-1, 0.0, 2.293532201052922496e-2),
)


def gauss_kronrod_panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, float]:
    """One G7/K15 panel on [lo, hi].

    Returns (kronrod_estimate, error_estimate, resabs). The error estimate
    follows the QUADPACK recipe (200|K-G|)^{3/2} capped by |K-G|, with a
    roundoff floor tied to the integral of |f|.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    gauss = 0.0
    kronrod = 0.0
    resabs = 0.0
    for node, wg, wk in _GK15:
        fx = f(mid + half * node)
        gauss += wg * fx
        kronrod += wk * fx
        resabs += wk * abs(fx)
    gauss *= half
    kronrod *= half
    resabs *= abs(half)
    diff = abs(kronrod - gauss)
    err = diff
    # (200 diff)^1.5 is the smaller term only for diff < 200^-3 = 1.25e-7,
    # and it overflows for diff above ~1e205, so it is formed only below 2e-7
    if 0.0 < diff < 2e-7:
        scaled = (200.0 * diff) ** 1.5
        if scaled < diff:
            err = scaled
    floor = 50.0 * 2.220446049250313e-16 * resabs
    if err < floor:
        err = floor
    return kronrod, err, resabs


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    settings: QuadratureSettings | None = None,
) -> float:
    """Adaptive Gauss-Kronrod integration of f over [lo, hi].

    Bisects the interval with the largest error estimate until the summed
    error drops below max(rel_tol * |result|, abs_tol). Endpoints are never
    evaluated (the K15 rule is open), so integrable endpoint singularities
    are tolerated, though callers with strong singularities should split or
    transform first. Deterministic for fixed inputs.
    """
    if settings is None:
        settings = DEFAULT_SETTINGS
    if lo > hi:
        raise DomainError(f"integrate requires lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0

    value, err, _ = gauss_kronrod_panel(f, lo, hi)
    # heap entries: (-error, insertion_counter, lo, hi, value, error)
    heap = [(-err, 0, lo, hi, value, err)]
    total = value
    total_err = err
    counter = 1
    while total_err > max(settings.rel_tol * abs(total), settings.abs_tol):
        if len(heap) >= settings.max_subdivisions:
            raise QuadratureError(
                f"quadrature failed to converge within {settings.max_subdivisions} "
                "subdivisions",
                estimate=total,
                error_bound=total_err,
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # interval at floating point resolution; keep its estimate as is
            heapq.heappush(heap, (0.0, counter, a, b, v, 0.0))
            counter += 1
            total_err -= e
            continue
        v1, e1, _ = gauss_kronrod_panel(f, a, m)
        v2, e2, _ = gauss_kronrod_panel(f, m, b)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, m, b, v2, e2))
        counter += 2
    return total
