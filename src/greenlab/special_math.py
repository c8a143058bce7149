"""Special functions and adaptive 1-D quadrature.

Everything here is a pure function of its arguments; the rest of the
library builds radial integrals, ball volumes and Green profiles on top
of these primitives.

`integrate` and `gauss_kronrod_panel` take array integrands: f receives a
1-D numpy array of abscissae (the 15 Kronrod nodes of each panel, panel by
panel) and must return an array of the same shape, so a batch of panels
costs one call of f. There is no scalar path; write integrands with numpy
ufuncs, not `math`.

`integrate` is the one adaptive routine. An integral is done once its
summed error estimate is below max(1e-12 |value|, abs_tol), the QUADPACK
test (Piessens et al., 1983), within 4000 subintervals. At rel_tol 1e-10
the ball kernel K stopped early near the diameter (3e-7 off on OP^2 at
D - 1e-3); 1e-12 settles it to the closed forms' last digits. abs_tol
defaults to 1e-300, so the relative test governs. A caller passes a
larger one only for an integral whose value is about 0 against the
integral of |f|: each panel's error is floored at 50 eps times its
integral of |f|, which there lies above 1e-12 |value|, so the relative
test cannot be met and the integral would raise QuadratureError.

`incomplete_beta` is the library's regularized incomplete beta, in numpy, on
the half-integer arguments of a Jacobi record: the ball fraction and the
oracle ratios call it, with the record's exact constant, which it reads
itself. `reg_incomplete_beta` takes any a, b > 0, on one scalar route: the
same continued fraction, with the constant and the powers in logs.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable

import numpy as np

from . import records
from .errors import DomainError, QuadratureError

__all__ = [
    "vol_unit_sphere",
    "reg_incomplete_beta",
    "incomplete_beta",
    "integrate",
    "gauss_kronrod_panel",
]


# the relative tolerance of every integral and its subinterval budget
_REL_TOL = 1e-12
_MAX_SUBDIVISIONS = 4000


@functools.cache
def vol_unit_sphere(k: int) -> float:
    """Surface volume of the unit (k-1)-sphere in R^k: 2 pi^(k/2) / Gamma(k/2), rounded once."""
    if k < 1:
        raise DomainError(f"vol_unit_sphere requires k >= 1, got {k}")
    return records.pi_rational(k / 2, (), (k / 2,), 2)


def reg_incomplete_beta(s: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_s(a, b) for any finite a, b > 0: the continued
    fraction of `incomplete_beta` on the side of the mean a/(a + b) that holds s,
    times the powers s^a (1 - s)^b over a B(a, b), or b B(a, b) past the mean,
    summed in logs with log B from `math.lgamma`. Relative to scipy's betainc it is
    1.5e-13 off for a, b <= 60 (2e4 random draws), 5.0e-11 off on a grid of a to
    2000, b to 300 and s in steps of 1/20, 1.5e-11 off at (1e-5, 0.5, 1e4) and
    3.9e-10 off for a, b to 1e5, as log B is then a difference of terms up to 1e6
    in size."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"reg_incomplete_beta requires finite a, b > 0, got a={a}, b={b}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"reg_incomplete_beta requires 0 <= s <= 1, got s={s}")
    if s in (0.0, 1.0):
        return float(s)
    log_inv_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    log_powers = a * math.log(s) + b * math.log1p(-s)
    above = s > a / (a + b)  # as in `incomplete_beta`
    p, q, z = (b, a, 1.0 - s) if above else (a, b, s)
    near = math.exp(log_powers + log_inv_beta - math.log(p))
    near *= float(_beta_continued_fraction(p, q, np.array([z]))[0])
    return 1.0 - near if above else near


def incomplete_beta(p, q, t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """(I_t(p, q), I_u(q, p), above, F) for the half-integers p, q > 0 of a Jacobi
    record, t + u = 1, above = t > p / (p + q), the mean: t^p u^q F / (p B(p, q))
    with F = 2F1(p + q, 1; p + 1; t) up to the mean, t^p u^q F / (q B(p, q)) with
    F = 2F1(p + q, 1; q + 1; u) past it, each 1 minus the other on the other side.
    The constant 1 / (4^l p B(p, q)), l = min(p, q), is `records.kernel_scale`,
    exact and rounded once, at most (2n + 1)/16, on HP^n; the powers are grouped
    as t^(p-l) u^(q-l) (4 t u)^l, so no factor leaves the range while the
    fraction is normal. Other p or q raise DomainError."""
    if not (p > 0 and q > 0 and float(2 * p).is_integer() and float(2 * q).is_integer()):
        raise DomainError(f"incomplete_beta requires half-integers p, q > 0, got p={p}, q={q}")
    scale = records.kernel_scale((p, q, 1.0))
    above = t > p / (p + q)
    F = np.empty_like(t)
    for side, (a, b, z) in ((~above, (p, q, t)), (above, (q, p, u))):
        if side.any():
            F[side] = _beta_continued_fraction(a, b, z[side])
    low = min(p, q)
    power = t ** (p - low) * u ** (q - low) * (4.0 * t * u) ** low
    near = scale * power * np.where(above, p / q, 1.0) * F
    return np.where(above, 1.0 - near, near), np.where(above, near, 1.0 - near), above, F


def _beta_continued_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """2F1(a+b, 1; a+1; x) = 1 / (1 + e_1 x / (1 + e_2 x / ...)) (Press et al., Numerical
    Recipes, 6.4), vectorised, up to the mean a/(a+b): 10 steps at a = b = 1/2, 110
    at a = 100, b = 1/2. Lentz's forward iteration finds where each element's
    factors settle, and that convergent is evaluated from its tail up, t = 1 +
    e_j x / t, which damps each rounding where the product carries it (9 ulps
    off, not 20, near the mean of a = 4.5, b = 1/2). Each element keeps its own
    depth, so it gets the same bits alone as in any batch.

    Near the mean the depth grows like sqrt(a/b) + sqrt(a + b): it was at most
    8.3 times that for a and b from 0.01 to 1e5 (462 steps at a = 1000,
    b = 0.1). The loop gives up at 400 steps plus 16 times that, never fewer
    than 400."""
    tiny = 1e-300
    x = np.asarray(x, dtype=float)
    c = np.ones_like(x)
    d = 1.0 / (1.0 - (a + b) / (a + 1.0) * x)
    depth = np.zeros(x.shape, dtype=int)
    terms = []
    for m in range(1, 400 + math.ceil(16.0 * (math.sqrt(a / b) + math.sqrt(a + b)))):
        even = m * (b - m) / ((a - 1.0 + 2 * m) * (a + 2 * m))
        terms.append((even, -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 1.0 + 2 * m))))
        for term in terms[-1]:
            aa = term * x
            d = 1.0 + aa * d
            d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < tiny, tiny, c)
        # one ulp of slack: for a = b = 1/2 the last factor settles at 1 - eps/2
        depth[(np.abs(d * c - 1.0) <= 2.3e-16) & (depth == 0)] = m
        if depth.all():
            break
    else:
        raise QuadratureError(f"beta continued fraction did not converge at a={a}, b={b}", math.nan, math.nan)
    t = np.ones_like(x)
    for m in range(int(depth.max(initial=0)), 0, -1):
        live = depth >= m
        even, odd = terms[m - 1]
        t = np.where(live, 1.0 + odd * x / t, t)
        t = np.where(live, 1.0 + even * x / t, t)
    return 1.0 / (1.0 - (a + b) / (a + 1.0) * x / t)


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
_GK15_NODES = np.array([node for node, _, _ in _GK15])
_GK15_WEIGHTS = np.array([[wk for _, _, wk in _GK15], [wg for _, wg, _ in _GK15]])
_K15_WEIGHTS = _GK15_WEIGHTS[0].copy()
# K, 200 (K - G) and the mean K/2 as the weighted sums of one pass over f,
# resabs and its floor 50 eps resabs as those of one pass over |f|
_PASS_WEIGHTS = np.array(
    [_K15_WEIGHTS, 200.0 * (_K15_WEIGHTS - _GK15_WEIGHTS[1]), 0.5 * _K15_WEIGHTS]
)
_EPS = 2.220446049250313e-16
_ABS_WEIGHTS = np.array([_K15_WEIGHTS, 50.0 * _EPS * _K15_WEIGHTS])


def _row_sums(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] w[..., j], each row summed on its own (numpy < 2)."""
    return (a * w).sum(axis=-1)


# np.vecdot is numpy 2's row-local dot product; numpy 1 gets the plain sum
_row_dot = getattr(np, "vecdot", _row_sums)


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """One G7/K15 panel on each interval [lo_i, hi_i], from a single call of f.

    lo and hi are 1-D float arrays of one length; f receives the 15
    Kronrod nodes of every interval, interval by interval, as one 1-D
    array. Returns arrays (kronrod_estimate, error_estimate, resabs, floor)
    by QUADPACK's qk15 recipe (Piessens et al., 1983): with
    resasc = int |f - mean f|, the error is
    resasc * min(1, (200 |K - G| / resasc)^1.5), floored at
    floor = 50 eps resabs, so it follows the integrand's own variation, not
    its magnitude. K - G is summed with the weight differences, in one pass
    with K.

    Every weighted sum runs along its own row (`_row_dot`, not a BLAS
    matrix product, whose summation order depends on the row's place in the
    batch), so an interval gets the same bits alone as in any batch.
    """
    half = (0.5 * (hi - lo))[:, None]
    x = half * _GK15_NODES + (0.5 * (hi + lo))[:, None]
    # the integrand scaled by the half width, so that the weighted sums are integrals
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape) * half
    sums = _row_dot(fx[:, None, :], _PASS_WEIGHTS)
    kronrod, diff = sums[:, 0], sums[:, 1]
    abs_sums = _row_dot(np.abs(fx)[:, None, :], _ABS_WEIGHTS)
    resabs, floor = abs_sums[:, 0], abs_sums[:, 1]
    resasc = _row_dot(np.abs(fx - sums[:, 2:]), _K15_WEIGHTS)
    # min(1, 200 |K - G| / resasc) as min(resasc, 200 |K - G|) / resasc, capped
    # at 1 before the power. Where resasc = 0 the integrand is constant on the
    # panel and |K - G| is rounding: the divisor 5e-324 gives err 0, so the
    # floor stands in, with no division by zero
    capped = np.minimum(resasc, np.abs(diff)) / np.fmax(resasc, 5e-324)
    return kronrod, np.fmax(resasc * capped**1.5, floor), resabs, floor


def gauss_kronrod_panel(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float, float]:
    """(kronrod_estimate, error_estimate, resabs) of `_panels` on the one interval [lo, hi], as floats."""
    value, err, resabs, _ = _panels(f, np.array([lo]), np.array([hi]))
    return float(value[0]), float(err[0]), float(resabs[0])


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float = 1e-300,
) -> float:
    """Adaptive Gauss-Kronrod integration of f over [lo, hi].

    Takes one G7/K15 panel over [lo, hi], then bisects the subinterval with
    the largest error estimate, one at a time, until the summed error drops
    below the module docstring's tolerance. f is an array integrand, called
    once for the first panel and once for the two halves of each bisection.
    Endpoints are never evaluated (the K15 rule is open), so integrable
    endpoint singularities are tolerated, though callers with strong
    singularities should split or transform first.

    Raises QuadratureError when the estimate is not finite, after 4000
    subintervals, or once every subinterval's error estimate sits at its
    floor, 50 eps times its integral of |f|, while their sum misses the
    tolerance: the halves' floors sum to their parent's, so bisection cannot
    lower it (QUADPACK's roundoff detection). The first panel counts as
    above its floor.
    """
    if lo > hi:
        raise DomainError(f"integrate requires lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    value, err, _, _ = _panels(f, np.array([lo]), np.array([hi]))
    total, total_err = float(value[0]), float(err[0])
    # heap entries: (-error, insertion counter, lo, hi, value, error, above its floor)
    heap = [(-total_err, 0, lo, hi, total, total_err, True)]
    counter = 1
    above = 1  # subintervals above their error floor
    # a nan or inf estimate makes the loop test false
    while total_err > max(_REL_TOL * abs(total), abs_tol):
        if len(heap) >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature failed to converge within {_MAX_SUBDIVISIONS} subdivisions",
                estimate=total,
                error_bound=total_err,
            )
        if not above:
            raise QuadratureError(
                "quadrature cannot reach its tolerance: every subinterval's error "
                "estimate sits at its rounding floor, 50 eps times its integral of |f|",
                estimate=total,
                error_bound=total_err,
            )
        _, _, a, b, v, e, was_above = heapq.heappop(heap)
        above -= was_above
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # interval at floating point resolution; keep its estimate as is
            heapq.heappush(heap, (0.0, counter, a, b, v, 0.0, False))
            counter += 1
            total_err -= e
            continue
        values, errors, _, floors = _panels(f, np.array([a, m]), np.array([m, b]))
        (v1, v2), (e1, e2) = values.tolist(), errors.tolist()
        over1, over2 = (errors > floors).tolist()
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1, over1))
        heapq.heappush(heap, (-e2, counter + 1, m, b, v2, e2, over2))
        above += over1 + over2
        counter += 2
    if not math.isfinite(total):
        raise QuadratureError(
            f"integrand is not finite on [{lo}, {hi}]", estimate=total, error_bound=total_err
        )
    return total

