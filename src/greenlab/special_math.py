"""Special functions and adaptive 1-D quadrature.

Everything here is a pure function of its arguments; the rest of the
library builds radial integrals, ball volumes and Green profiles on top
of these primitives.

`integrate`, `gauss_kronrod_panel` and `gauss_kronrod_panels` take array
integrands: f receives a 1-D numpy array of abscissae (the 15 Kronrod
nodes of each panel, panel by panel) and must return an array of the same
shape, so a batch of panels costs one call of f. There is no scalar path;
write integrands with numpy ufuncs, not `math`.

`integrate_intervals` integrates a batch of intervals by `integrate`'s
rule, and `integrate` is its one-interval case. Its integrand is
f(x, rows): x holds Kronrod nodes as above, and rows[j] is the index of
the interval whose panel holds x[j], so a per-interval constant c enters
as c[rows]. Panels come in interval order, so rows is non-decreasing in
every call.

Both run at one tolerance: an interval is done once its summed error
estimate is below max(1e-12 |value|, abs_tol), the QUADPACK test
(Piessens et al., 1983), within 4000 subintervals. At rel_tol 1e-10 the
ball kernel K stopped early near the diameter (3e-7 off on OP^2 at
D - 1e-3); 1e-12 settles it to the closed forms' last digits. abs_tol
defaults to 1e-300, so the relative test governs. A caller passes a
larger one only for an integral whose value is about 0 against the
integral of |f|: each panel's error is floored at 50 eps times its
integral of |f|, which there lies above 1e-12 |value|, so the relative
test cannot be met and the integral would raise QuadratureError.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np
from scipy.special import betainc

from .errors import DomainError, QuadratureError

__all__ = [
    "log_gamma",
    "vol_unit_sphere",
    "reg_incomplete_beta",
    "integrate",
    "integrate_intervals",
    "gauss_kronrod_panel",
    "gauss_kronrod_panels",
]


# the relative tolerance of every integral and its subinterval budget
_REL_TOL = 1e-12
_MAX_SUBDIVISIONS = 4000


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


def reg_incomplete_beta(s: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_s(a, b) = B_s(a,b) / B(a,b), via scipy."""
    if a <= 0 or b <= 0:
        raise DomainError(f"reg_incomplete_beta requires a, b > 0, got a={a}, b={b}")
    if s < 0.0 or s > 1.0:
        raise DomainError(f"reg_incomplete_beta requires 0 <= s <= 1, got s={s}")
    return float(betainc(a, b, s))


def _beta_continued_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The incomplete-beta continued fraction 2F1(a+b, 1; a+1; x), vectorised.

    Modified Lentz iteration (Press et al., Numerical Recipes, 6.4), so that
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times the result. Converges fast for
    x below a/(a+b); within 3.6e-15 of mpmath for a = b = n/2, n <= 100, x <= 1/2.
    An element whose last factor settles has its x set to 0, which makes
    every later factor exactly 1, so it keeps the value it has alone however
    long the rest of the batch runs.
    """
    tiny = 1e-300
    x = np.asarray(x, dtype=float)
    c = np.ones_like(x)
    h = d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    settled_count = 0
    for m in range(1, 400):
        for aa in (
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
            c = 1.0 + aa / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            factor = d * c
            h = h * factor
        # one ulp of slack: for a = b = 1/2 the last factor settles at 1 - eps/2
        settled = np.abs(factor - 1.0) <= 2.3e-16
        count = np.count_nonzero(settled)
        if count == x.size:
            return h
        if count > settled_count:
            x = np.where(settled, 0.0, x)
            settled_count = count
    nan = float("nan")
    raise QuadratureError(f"beta continued fraction did not converge for a={a}, b={b}", nan, nan)


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


def gauss_kronrod_panels(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One G7/K15 panel on each interval [lo_i, hi_i], from a single call of f.

    lo and hi are 1-D float arrays of one length; f receives the 15
    Kronrod nodes of every interval, interval by interval, as one 1-D
    array. Returns arrays (kronrod_estimate, error_estimate, resabs) by
    QUADPACK's qk15 recipe (Piessens et al., 1983): with
    resasc = int |f - mean f|, the error is
    resasc * min(1, (200 |K - G| / resasc)^1.5), floored at 50 eps resabs,
    so it follows the integrand's own variation, not its magnitude. K - G
    is summed with the weight differences, in one pass with K.

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
    return kronrod, np.fmax(resasc * capped**1.5, floor), resabs


def gauss_kronrod_panel(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float, float]:
    """`gauss_kronrod_panels` on the one interval [lo, hi], as floats."""
    value, err, resabs = gauss_kronrod_panels(f, np.array([lo]), np.array([hi]))
    return float(value[0]), float(err[0]), float(resabs[0])


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float = 1e-300,
) -> float:
    """Adaptive Gauss-Kronrod integration of f over [lo, hi].

    Bisects the interval with the largest error estimate until the summed
    error drops below the module docstring's tolerance. f is an array
    integrand, called once for the first panel and once for the two halves
    of each bisection (see the module docstring). Endpoints
    are never evaluated (the K15 rule is open), so integrable endpoint
    singularities are tolerated, though callers with strong singularities
    should split or transform first. A panel whose values are not finite
    raises QuadratureError. Deterministic for fixed inputs.
    """
    if lo > hi:
        raise DomainError(f"integrate requires lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    values = integrate_intervals(lambda x, rows: f(x), np.array([lo]), np.array([hi]), abs_tol)
    return float(values[0])


def integrate_intervals(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    abs_tol: float = 1e-300,
) -> np.ndarray:
    """`integrate` on every interval [lo_i, hi_i] of two 1-D float arrays.

    f(x, rows) is the module docstring's batch integrand. One
    `gauss_kronrod_panels` call takes the first panel of every interval;
    the intervals whose panel misses the tolerance, or is not finite, are
    bisected from that panel by `_refine`, all of them together. Every sum
    runs along its own interval, so each value has the bits of `integrate`
    on that interval alone.
    """
    if not lo.size:
        return np.zeros(0)
    rows = np.repeat(np.arange(lo.size), _GK15_NODES.size)
    values, errors, _ = gauss_kronrod_panels(lambda x: f(x, rows), lo, hi)
    missed = np.flatnonzero(~(np.isfinite(values) & (errors <= _tolerance(values, abs_tol))))
    if missed.size:
        values[missed] = _refine(
            f, missed, lo[missed], hi[missed], values[missed], errors[missed], abs_tol
        )
    return values


def _tolerance(value, abs_tol: float):
    """The error an estimate may carry: max(_REL_TOL |value|, abs_tol), a nan value giving nan."""
    return np.maximum(_REL_TOL * np.abs(value), abs_tol)


def _refine(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    index: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    value: np.ndarray,
    err: np.ndarray,
    abs_tol: float,
) -> np.ndarray:
    """`integrate` from its first panel on, for every interval [lo_i, hi_i] at once.

    value and err are each interval's G7/K15 panel, as `gauss_kronrod_panels`
    gives them, and index[i] is the row that f(x, rows) knows interval i by.
    The intervals advance in lockstep: each round pops the worst
    sub-interval of every interval still short of its tolerance and bisects
    them all with one call of f. Each interval keeps its own heap, counter
    and totals, so its value has the bits of refining it alone. Of the
    intervals that fail, the lowest-indexed one's error is raised; once one
    has failed, those after it stop.
    """
    lo, hi = lo.tolist(), hi.tolist()
    # heap entries: (-error, insertion_counter, lo, hi, value, error)
    heaps = [[(-e, 0, a, b, v, e)] for a, b, v, e in zip(lo, hi, value.tolist(), err.tolist())]
    totals, total_errs = value.tolist(), err.tolist()
    counters = [1] * len(lo)
    active = list(range(len(lo)))
    failed = None  # (i, error) of the lowest-indexed interval that failed so far
    while True:
        bisect = []  # (i, a, m, b, v, e) of the sub-interval each active interval splits
        for i in active:
            if failed is not None and i > failed[0]:
                break
            heap = heaps[i]
            while total_errs[i] > _tolerance(totals[i], abs_tol):
                if len(heap) >= _MAX_SUBDIVISIONS:
                    failed = i, QuadratureError(
                        f"quadrature failed to converge within {_MAX_SUBDIVISIONS} "
                        "subdivisions",
                        estimate=totals[i],
                        error_bound=total_errs[i],
                    )
                    break
                _, _, a, b, v, e = heapq.heappop(heap)
                m = 0.5 * (a + b)
                if m <= a or m >= b:
                    # interval at floating point resolution; keep its estimate as is
                    heapq.heappush(heap, (0.0, counters[i], a, b, v, 0.0))
                    counters[i] += 1
                    total_errs[i] -= e
                    continue
                bisect.append((i, a, m, b, v, e))
                break
            else:
                # a nan or inf value makes the loop test false, so it ends up here
                if not math.isfinite(totals[i]):
                    failed = i, QuadratureError(
                        f"integrand is not finite on [{lo[i]}, {hi[i]}]",
                        estimate=totals[i],
                        error_bound=total_errs[i],
                    )
        if not bisect:
            break
        which, a, m, b, v, e = zip(*bisect)
        # the two halves of each split sub-interval, side by side
        halves_lo = np.column_stack([a, m]).ravel()
        halves_hi = np.column_stack([m, b]).ravel()
        rows = np.repeat(index[np.repeat(which, 2)], _GK15_NODES.size)
        values, errors, _ = gauss_kronrod_panels(lambda x: f(x, rows), halves_lo, halves_hi)
        values, errors = values.tolist(), errors.tolist()
        for k, (i, a, m, b, v, e) in enumerate(bisect):
            v1, v2, e1, e2 = values[2 * k], values[2 * k + 1], errors[2 * k], errors[2 * k + 1]
            totals[i] += (v1 + v2) - v
            total_errs[i] += (e1 + e2) - e
            heapq.heappush(heaps[i], (-e1, counters[i], a, m, v1, e1))
            heapq.heappush(heaps[i], (-e2, counters[i] + 1, m, b, v2, e2))
            counters[i] += 2
        active = list(which)
    if failed is not None:
        raise failed[1]
    return np.array(totals)
