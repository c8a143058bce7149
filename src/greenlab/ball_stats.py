"""Ball-average kernels of the Green function.

Two radial kernels drive the finite-N energy bound. Integrating their
defining double integrals by parts leaves one smooth single integral each:

    K(M, a)     = (1/(V V(a))) int_0^a V(u) (V(a) - V(u)) / v(u) du
    Theta(M, a) = phi(a) + (1/(V V(a))) int_0^a V(r) psi(r) dr

where psi(r) = (V - V(r)) / v(r) is the slope magnitude of the Green
profile, evaluated without cancellation by green._radial_ratios. Both
integrands vanish like u at the pole and stay bounded up to the diameter,
so plain adaptive quadrature converges for every family and radius.

While V(a) <= V/2, K takes V(a) - V(u) directly. Past that it uses
v(u) psi(u) - (V - V(a)), with V - V(a) = v(a) psi(a): the direct
difference loses its digits near a = D, the rewritten one at small a.

`k_values` and `theta_values` evaluate a vector of radii, and `k_value`
and `theta_value` are their one-radius case; the bound's `finite_bounds`
asks for both at once. On spheres and real projective spaces one
`special_math.integrate_intervals` call integrates every [0, a_i] of the
pass, the K rows of all branches and the Theta rows alike, through one
integrand that dispatches on the row: one G7/K15 call takes every first
panel, and the intervals that miss `integrate`'s tolerance are bisected
together. Every sum runs along its own interval, so a radius gets the same
bits alone as in any batch, and the same as `k_quadrature` and
`theta_quadrature`. Nothing is memoised: a value depends only on its
radius. A non-finite K or Theta raises SingularityError naming the radius.

The exact closed formulas are the preferred route where the ball volume
is a polynomial, mu(x) = V(a)/V = x^m D(y) with x = sin^2 a, y = cos^2 a
and mu' = c' x^(m-1) (1 - x)^(k-1): the records with integer m and k and
s = 1 (`_has_closed_kernels`: CP^n, HP^n, OP^2). The quadrature is their
independent cross-check. There

    V mu_a K = int_0^(x_a) (mu_a - mu) D(1 - x) / (4 c' (1 - x)^k) dx
    V (mu_a / x_a) Theta = (mu_a phi_hat(x_a) - mu_a int_0^1 mu h + int_0^(x_a) mu h) / x_a

with h = (1 - mu) / (4 x (1 - x) mu') = Q(x) / x^m the profile's Laurent
form, phi_hat = int_x^1 h and int_0^1 mu h = -c_m. `_kernel_parts` takes Q
and int_0^x mu h from `green`, takes the integrals once per manifold in
rational arithmetic and asserts that every negative power cancels;
multiplied out, each reads

    c V x^e D(y) kernel = R(x) + P(x) log(1 - t)

with e = m (K) or m - 1 (Theta), c the least common denominator of P's
coefficients and t the variable in which the numerator vanishes:
t = x for K, to order e + 1 at the pole, and t = y for Theta, which is
zero at a = D. The direct formula cancels as t -> 0, so up to a switch
point the kernel is the Taylor series of the numerator in t, whose
vanishing coefficients are dropped exactly and nothing cancels; past it,
the direct formula with R and P re-centred in u = 1 - t and log u taken as
2 log cos a (K) or 2 log sin a (Theta), evaluated in double precision.

The switch is the first t at which the direct formula's rounding-error
amplification, sum |coefficient * term| / |value|, is no larger than the
series', and at most t = 1/2 (x^e = 1/4 for K when e > 2), so neither
route loses more than a few bits. Past the polynomials the series
coefficients are bounded by |P|_1 / (j - deg P); the series stops once the
terms it drops, at most |P|_1 t^J / ((J - deg P)(1 - t)), are below 2^-56
of its value at the switch, and they shrink like t^J below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, QuadratureError, SingularityError, UnsupportedManifoldError
from .green import _laurent_moment, _laurent_numerator, _radial_ratios, get_profile
from .manifold import (
    Family,
    ManifoldSpec,
    _antiderivative,
    _integer_record,
    _mul,
    _radius_limit,
    _recentre,
    _record,
    ball_volume,
    ball_volume_fraction,
    bm_constant,
    diameter,
    dimension,
    sphere_area,
    volume,
)
from .special_math import integrate, integrate_intervals

__all__ = [
    "k_quadrature",
    "k_closed",
    "theta_quadrature",
    "theta_closed",
    "k_value",
    "theta_value",
    "k_values",
    "theta_values",
    "k_asymptotic",
    "theta_asymptotic",
    "ball_average_green",
    "spherical_mean",
    "cum_volume_over_area",
]


def cum_volume_over_area(spec: ManifoldSpec, r: float) -> float:
    """H(r) = int_0^r V(u)/v(u) du for 0 <= r < D.

    Diverges at r = D on every family whose density vanishes there, hence
    the strict upper bound.
    """
    if r < 0.0 or r >= diameter(spec):
        raise DomainError(f"cumulative volume ratio needs 0 <= r < D, got {r}")
    return integrate(_radial_ratios(spec).rho, 0.0, r)


def _kernel_radii(spec: ManifoldSpec, radii, name: str) -> np.ndarray:
    """radii as a 1-D float array, checked to lie in (0, D] up to rounding and clamped to D."""
    a = np.asarray(radii, dtype=float)
    if a.ndim != 1:
        raise DomainError(f"{name} needs a 1-D array of radii, got shape {a.shape}")
    D, limit = diameter(spec), _radius_limit(spec)
    beyond = False
    for x in a.tolist():
        if not 0.0 < x <= limit:
            raise DomainError(f"{name} needs a in (0, D], got {x!r}")
        beyond = beyond or x > D
    return np.minimum(a, D) if beyond else a


def _require_finite(values: np.ndarray, radii: np.ndarray, name: str, spec: ManifoldSpec):
    """values, or a SingularityError naming the first radius where one is not finite."""
    for value, a in zip(values.tolist(), radii.tolist()):
        if not math.isfinite(value):
            raise SingularityError(
                f"{name} is {value!r} at a = {a!r} on {spec}: "
                "a ball volume or kernel leaves the range of a double there"
            )
    return values


# the integrand of each quadrature row, in the order the rows take: K below
# V/2, K past it, K past it where v(a) is below the normal range, and the
# plain moment (K at D, and Theta)
_NEAR, _FAR, _FAR_TINY, _MOMENT = range(4)
# a radius past V/2 on S^n whose boundary layer next to a, 40 (D - a) / (n - 1)
# wide, is narrower than this share of a is integrated over two rows
# (`_k_rows`). Measured on S^4 to S^200: one row is up to 9e-7 off below a
# share of 2.5e-3 and up to 2e-12 below 1e-2; above 0.05 one and two rows
# agree to 1e-15
_LAYER_SHARE = 0.05


def _k_rows(spec: ManifoldSpec, radii: np.ndarray, va: np.ndarray, psi):
    """The K rows of `_quadratures`, sorted by kind: for each row its radius's
    index, its interval [lo, hi], its constant and its kind."""
    V, D = volume(spec), diameter(spec)
    kind = np.where(va <= 0.5 * V, _NEAR, np.where(radii == D, _MOMENT, _FAR))
    c = va.copy()
    far = np.flatnonzero(kind == _FAR)
    if far.size:
        area, psi_a = sphere_area(spec, radii[far]), psi(radii[far])
        tiny = area < np.finfo(float).tiny
        c[far] = np.where(tiny, psi_a, area * psi_a)
        kind[far[tiny]] = _FAR_TINY
    index = np.argsort(kind, kind="stable")
    lo, hi = np.zeros(index.size), radii[index]
    # v(a) psi(a) rho(u) falls from the size of the moment to nothing within
    # about (D - a) / n of a, too close for the first panels to see where v(a)
    # is tiny, and on S^n wherever that is a small share of a. Such a radius
    # gets a second row, over the last 40 (D - a) / (n - 1), where the fall is
    # more than e^-35 of the moment
    kinds = kind[index]
    j, m = np.searchsorted(kinds, [_FAR, _MOMENT]).tolist()
    if m > j:
        two = kinds[j:m] == _FAR_TINY
        if spec.family is Family.SPHERE:
            two |= 40.0 * (D - hi[j:m]) < _LAYER_SHARE * (spec.n - 1) * hi[j:m]
        split_rows = j + np.flatnonzero(two)
        a = hi[split_rows]
        split = a - np.minimum(0.5 * a, 40.0 * (D - a) / (spec.n - 1))
        hi[split_rows] = split
        after = split_rows + 1
        index = np.insert(index, after, index[split_rows])
        lo, hi = np.insert(lo, after, split), np.insert(hi, after, a)
    return index, lo, hi, c[index], kind[index]


def _quadratures(
    spec: ManifoldSpec,
    radii: np.ndarray,
    va: np.ndarray,
    k: bool = True,
    theta: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(K, Theta) at checked radii with ball volumes va = V(a), from one
    `integrate_intervals` call; None for a kernel not asked for.

    The call holds the K rows of the radii, sorted by kind, then a Theta row
    per radius. As in the module docstring, K takes V(a) - V(u) directly
    while V(a) <= V/2 (near), v(u) psi(u) - (V - V(a)) past that (far), and
    the plain moment at a = D, as Theta does. Where v(a) is below the
    normal range, v(a) psi(a) loses its digits or vanishes while rho(u)
    overflows near D, so those rows form v(a) psi(a) rho(u) as
    psi(a) exp(log V(u) + log (v(a) / v(u))), over two rows (`_k_rows`).
    On S^n, a far radius whose boundary layer next to a is thin also takes
    two rows.
    The integrand's rows are non-decreasing, so each kind is one run of
    nodes. Theta takes phi from the shared profile, `get_profile(spec)`.

    Errors come in the order of a call per kernel: K's quadrature error or
    non-finite value first, then the profile's failure to build, then
    Theta's quadrature error.
    """
    V = volume(spec)
    ratios = _radial_ratios(spec)
    size = radii.size
    if k:
        index, lo, hi, consts, kinds = _k_rows(spec, radii, va, ratios.psi)
    else:
        index = kinds = np.zeros(0, dtype=int)
        lo = hi = consts = np.zeros(0)
    # the first row of each kind past _NEAR; the Theta rows, all _MOMENT, come last
    starts = np.cumsum(np.bincount(kinds, minlength=4))[:3]
    log_sin = np.log(np.sin(radii[index])) if starts[2] > starts[1] else None
    if theta:
        lo, hi = np.append(lo, np.zeros(size)), np.append(hi, radii)

    def integrand(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        i, j, m = np.searchsorted(rows, starts).tolist()
        out = np.empty(u.size)
        if i:
            out[:i] = ratios.rho(u[:i]) * (consts[rows[:i]] - V * ball_volume_fraction(spec, u[:i]))
        if i < u.size:
            out[i:] = ratios.moment(u[i:])
        if j > i:
            out[i:j] -= consts[rows[i:j]] * ratios.rho(u[i:j])
        if m > j:
            s = u[j:m]
            with np.errstate(divide="ignore"):
                log_ratio = (spec.n - 1) * (log_sin[rows[j:m]] - np.log(np.sin(s)))
                scaled_rho = np.exp(np.log(V * ball_volume_fraction(spec, s)) + log_ratio)
            out[j:m] -= consts[rows[j:m]] * scaled_rho
        return out

    try:
        integrals = integrate_intervals(integrand, lo, hi)
    except QuadratureError:
        if k and theta:
            _quadratures(spec, radii, va, theta=False)
        if theta:
            get_profile(spec)
        raise
    k_out = theta_out = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if k:
            # each radius's integral over [0, a], summed over its rows
            k_out = np.bincount(index, integrals[: index.size], size) / (V * va)
        if theta:
            theta_out = integrals[index.size :] / (V * va)
    if k:
        _require_finite(k_out, radii, "K", spec)
    if not theta:
        return k_out, None
    with np.errstate(invalid="ignore", over="ignore"):
        theta_out = get_profile(spec).phi(radii) + theta_out
    return k_out, _require_finite(theta_out, radii, "Theta", spec)


def _ball_volumes(spec: ManifoldSpec, radii: np.ndarray) -> np.ndarray:
    """V(a) at every radius."""
    return volume(spec) * ball_volume_fraction(spec, radii)


def k_quadrature(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) by adaptive quadrature of its single-integral form."""
    radii = _kernel_radii(spec, [a], "K")
    return float(_quadratures(spec, radii, _ball_volumes(spec, radii), theta=False)[0][0])


def theta_quadrature(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a): mean of the Green function over a ball about its pole."""
    radii = _kernel_radii(spec, [a], "Theta")
    return float(_quadratures(spec, radii, _ball_volumes(spec, radii), k=False)[1][0])


# ---------------------------------------------------------------------------
# Closed forms (the families with a ball polynomial)
# ---------------------------------------------------------------------------


def _has_closed_kernels(spec: ManifoldSpec) -> bool:
    """Whether K and Theta have closed forms: a record with integer m and k
    and s = 1 (CP^n, HP^n, OP^2), so that x = sin^2 a."""
    return _integer_record(spec) is not None and _record(spec)[2] == 1.0


@functools.cache
def _kernel_parts(spec: ManifoldSpec) -> dict[str, tuple]:
    """Each kernel's parts (R, P, e, c) as in the module docstring, with R and P
    exact in ascending powers of u = y (K) or u = x (Theta). The integrals run
    in y for K and in x for Theta, on the profile's h = Q(x) / x^m
    (`green._laurent_numerator`), where 1 - mu = 4 c' y^k Q(1 - y)."""
    if not _has_closed_kernels(spec):
        raise UnsupportedManifoldError(
            "no closed ball kernel exists for spheres or real projective spaces"
        )
    m, k, d = _integer_record(spec)
    size = m + 2 * k  # longer than every polynomial below

    def padded(coeffs, shift=0):
        """coeffs times s^shift as Fractions, padded or cut to size."""
        return ([Fraction(0)] * shift + [Fraction(v) for v in coeffs] + [Fraction(0)] * size)[:size]

    big_q, d_y = padded(_laurent_numerator(spec)), padded(d)
    quarter = Fraction(1, 4 * m * sum(d))  # 1 / (4 c') with c' = m D(1)
    mu = [(i == 0) - v / quarter for i, v in enumerate(padded(_recentre(big_q), k))]
    # K: V mu_a K = mu_a (F1(1) - F1(y_a)) + F2(y_a) - F2(1), where
    # F1 = G1 / y^(k-1) + b1 log y integrates D / (4 c' y^k) and F2 integrates
    # mu D / (4 c' y^k). G has no y^(k-1) term, which holds -G(1) in G - G(1) y^(k-1)
    d_q = [v * quarter for v in d_y]
    g1, b1 = _antiderivative(d_q, k)
    g2, b2 = _antiderivative(_mul(mu, d_q), k)
    g1[k - 1], g2[k - 1] = -sum(g1), -sum(g2)
    k_r = [v - a for a, v in zip(_mul(mu, g1), g2)]
    k_p = [b2 * (i == 0) - b1 * v for i, v in enumerate(mu)]
    # Theta: phi_hat = G(1) - G / x^(m-1) - b log x and int_0^x mu h = I(x)
    # (`green._laurent_moment`). The part without logs is
    # D ((G(1) - I(1)) x^(m-1) - G) + I / x, and G has no x^(m-1) term,
    # which holds -(G(1) - I(1))
    d_x = _recentre(d_y)
    g, b = _antiderivative(big_q, m)
    moment = padded(_laurent_moment(spec))
    g[m - 1] = sum(moment) - sum(g)
    theta_r = [v - a for a, v in zip(_mul(d_x, g), padded(moment[1:]))]
    theta_p = padded([-b * v for v in d_x], m - 1)
    parts = {}
    # K's part without logs is over y^(k-1), Theta's over 1
    for kernel, r, p, e, low in (("k", k_r, k_p, m, k - 1), ("theta", theta_r, theta_p, m - 1, 0)):
        if any(r[:low]):
            raise AssertionError(f"the closed {kernel} on {spec} keeps a negative power")
        c = math.lcm(*(v.denominator for v in p))
        r, p = [v * c for v in r[low:]], [v * c for v in p]
        for coeffs in (r, p):  # without trailing zeros, but never empty
            while len(coeffs) > 1 and not coeffs[-1]:
                coeffs.pop()
        parts[kernel] = (r, p, e, c)
    return parts


@dataclass(frozen=True)
class _ClosedForm:
    """One kernel's closed formula on one manifold, tabulated in doubles.

    Below t = switch the kernel is t * poly(series, t) / (scale D(y)) for K
    (the series is already divided by x^e) and / (scale x^e D(y)) for Theta;
    from there on (poly(r, u) + poly(p, u) log u) / (scale x^e D(y)), with
    u = 1 - t. tail bounds the relative size of the series terms left out.
    """

    t_is_x: bool
    series: tuple[float, ...]
    r: tuple[float, ...]
    p: tuple[float, ...]
    e: int
    d: tuple[float, ...]
    scale: float
    switch: float
    tail: float


def _poly(coeffs: tuple[float, ...], s: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _abs_poly(coeffs: list[Fraction], s: np.ndarray) -> np.ndarray:
    return s[:, None] ** np.arange(len(coeffs)) @ np.array([abs(float(v)) for v in coeffs])


@functools.cache
def _closed_form(spec: ManifoldSpec, kernel: str) -> _ClosedForm:
    """Derive one formula's series and re-centred polynomials exactly."""
    t_is_x = kernel == "k"
    r_u, p_u, e, c = _kernel_parts(spec)[kernel]
    r_t, p_t = _recentre(r_u), _recentre(p_u)
    # the numerator vanishes to order e + 1 in x (K) or 1 in y (Theta)
    order = e + 1 if t_is_x else 1
    # log(1 - t) = -sum t^k / k, so R + P log(1 - t) = sum_j (R_j - sum_i P_i / (j - i)) t^j
    nonzero = [(i, pi) for i, pi in enumerate(p_t) if pi]
    p_norm = float(sum(abs(pi) for _, pi in nonzero))
    coeffs: list[Fraction] = []

    def series(switch: float) -> tuple[tuple[float, ...], float]:
        """Coefficients from t^order on for t < switch, and the relative size of the rest.

        Past the polynomials |coefficient j| <= |P|_1 / (j - deg P), so the
        terms from t^count on sum to at most `dropped` at the switch.
        """
        count = max(order + math.ceil(38.0 / -math.log(switch)), len(r_t) + 1)
        while True:
            for j in range(len(coeffs), count):
                rj = r_t[j] if j < len(r_t) else Fraction(0)
                coeffs.append(rj - sum((pi / (j - i) for i, pi in nonzero if i < j), Fraction(0)))
            kept = tuple(float(v) for v in coeffs[order:count])
            value = abs(switch**order * _poly(kept, switch))
            dropped = p_norm * switch**count / ((count - len(p_t) + 1) * (1.0 - switch))
            if dropped <= 2.0**-56 * value:
                return kept, dropped / value
            count += 4

    # past t = 1/2, or x^e = 1/4 for K with e > 2, the series needs too many terms
    cap = max(0.5, 4.0 ** (-1.0 / e)) if t_is_x else 0.5
    kept, _ = series(cap)
    if any(coeffs[:order]):
        raise AssertionError(f"closed {kernel} numerator on {spec} does not vanish to order {order}")
    # rounding-error amplification of both routes on a grid up to the cap; the
    # series serves t until the direct formula's falls to its own. log u is off
    # by an ulp of 1 near u = 1, hence the 1 added to |log u|
    grid = cap * np.arange(1, 65) / 64
    powers = grid[:, None] ** np.arange(len(kept))
    values = np.abs(powers @ np.array(kept))
    u = 1.0 - grid
    with np.errstate(divide="ignore", under="ignore"):  # t^order underflows on a high-dimensional grid
        amp_series = (powers @ np.abs(kept)) / values
        amp_direct = (_abs_poly(r_u, u) + (np.abs(np.log(u)) + 1.0) * _abs_poly(p_u, u)) / (
            grid**order * values
        )
    crossed = np.flatnonzero(amp_direct <= amp_series)
    switch = float(grid[crossed[0]]) if crossed.size else cap
    kept, tail = series(switch)
    return _ClosedForm(
        t_is_x=t_is_x,
        series=kept,
        r=tuple(float(v) for v in r_u),
        p=tuple(float(v) for v in p_u),
        e=e,
        d=tuple(float(v) for v in _integer_record(spec)[2]),
        scale=c * volume(spec),
        switch=switch,
        tail=tail,
    )


def _closed_eval(form: _ClosedForm, a: float) -> float:
    sin_a, cos_a = math.sin(a), math.cos(a)
    x, y = sin_a * sin_a, cos_a * cos_a
    t, u = (x, y) if form.t_is_x else (y, x)
    if t < form.switch:
        num, e = t * _poly(form.series, t), 0 if form.t_is_x else form.e
    else:
        log_u = 2.0 * math.log(cos_a if form.t_is_x else sin_a)
        num, e = _poly(form.r, u) + _poly(form.p, u) * log_u, form.e
    den = form.scale * sin_a ** (2 * e) * _poly(form.d, y)
    value = num / den if den else math.inf
    if not math.isfinite(value):
        raise SingularityError(f"the closed kernel formula overflows a double at a = {a!r}")
    return value


def k_closed(spec: ManifoldSpec, a: float) -> float:
    """The exact K(M, a) formula in double precision.

    V mu_a K = int_0^(x_a) (mu_a - mu) D(1 - x) / (4 c' (1 - x)^k) dx, with
    mu = V(a)/V = x^m D(y), integrated exactly: c V x^m D(y) K = R(y) + P(y) log y
    vanishes to order m + 1 at x = 0. Below the switch, K is the Taylor
    series of that numerator over x^m, which leaves out less than 2^-56 of
    the value; above it, the direct formula in powers of y with
    log y = 2 log cos a.
    """
    return _closed_eval(_closed_form(spec, "k"), float(_kernel_radii(spec, [a], "K")[0]))


def theta_closed(spec: ManifoldSpec, a: float) -> float:
    """The exact Theta(M, a) formula in double precision.

    V (mu_a / x_a) Theta = (mu_a phi_hat(x_a) - mu_a int_0^1 mu h + int_0^(x_a) mu h) / x_a,
    with h = (1 - mu) / (4 x (1 - x) mu') a Laurent polynomial in x,
    phi_hat = int_x^1 h and int_0^1 mu h = -c_m, integrated exactly:
    c V x^(m-1) D(y) Theta = R(x) + P(x) log x vanishes at y = 0, where
    Theta(M, D) = 0. Below the switch in y, Theta is the Taylor series of
    that numerator in y, which leaves out less than 2^-56 of the value;
    above it, the direct formula in powers of x with log x = 2 log sin a.
    """
    return _closed_eval(_closed_form(spec, "theta"), float(_kernel_radii(spec, [a], "Theta")[0]))


# ---------------------------------------------------------------------------
# Route selection, asymptotics
# ---------------------------------------------------------------------------

def _closed_values(spec: ManifoldSpec, kernel: str, radii: np.ndarray) -> np.ndarray:
    form = _closed_form(spec, kernel)
    return np.array([_closed_eval(form, a) for a in radii.tolist()])


def _kernels(
    spec: ManifoldSpec, radii: np.ndarray, va: np.ndarray, k: bool = True, theta: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(K, Theta) at checked radii with ball volumes va = V(a): closed forms
    else one quadrature pass; None for a kernel not asked for."""
    if not _has_closed_kernels(spec):
        return _quadratures(spec, radii, va, k, theta)
    return (
        _closed_values(spec, "k", radii) if k else None,
        _closed_values(spec, "theta", radii) if theta else None,
    )


def k_values(spec: ManifoldSpec, radii) -> np.ndarray:
    """K(M, a) at every radius of a 1-D array: closed form else quadrature.

    The quadrature route integrates every [0, a_i] in one
    `integrate_intervals` call; each value has the bits of `k_quadrature` at
    its radius, alone or in any batch. A non-finite value raises
    SingularityError naming the radius.
    """
    radii = _kernel_radii(spec, radii, "K")
    return _kernels(spec, radii, _ball_volumes(spec, radii), theta=False)[0]


def theta_values(spec: ManifoldSpec, radii) -> np.ndarray:
    """Theta(M, a) at every radius of a 1-D array: closed form else quadrature,
    as `k_values`; the same bits as `theta_quadrature` at each radius."""
    radii = _kernel_radii(spec, radii, "Theta")
    return _kernels(spec, radii, _ball_volumes(spec, radii), k=False)[1]


def k_value(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) at one radius: `k_values` on a one-element array."""
    return float(k_values(spec, [a])[0])


def theta_value(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a) at one radius: `theta_values` on a one-element array."""
    return float(theta_values(spec, [a])[0])


def k_asymptotic(spec: ManifoldSpec, a: float) -> float:
    """Small-radius law K = a^2 / (2 (d+2) V)."""
    return a * a / (2.0 * (dimension(spec) + 2) * volume(spec))


def theta_asymptotic(spec: ManifoldSpec, a: float) -> float:
    """Small-radius law Theta = d B_M a^(2-d) / (2 V); requires d > 2."""
    d = dimension(spec)
    return d * bm_constant(spec) * a ** (2 - d) / (2.0 * volume(spec))


# ---------------------------------------------------------------------------
# Ball and sphere averages of G
# ---------------------------------------------------------------------------


def ball_average_green(spec: ManifoldSpec, t: float, a: float) -> float:
    """Mean of G(p, .) over the ball B(p0, a) with t = d_R(p0, p).

    Equals phi(t) + K(M, a) for t >= a; for t < a the overlap correction
    subtracts a double integral, collapsed here to a single one by
    swapping the integration order. t = 0 is rejected: phi diverges there
    while the true ball mean is the finite Theta(M, a).
    """
    D = diameter(spec)
    if t == 0.0:
        raise SingularityError(
            "the ball average at t = 0 is Theta(M, a); phi diverges pointwise"
        )
    if not 0.0 < t <= D:
        raise DomainError(f"need 0 < t <= D, got t={t}")
    if not 0.0 < a < D:
        raise DomainError(f"need 0 < a < D, got a={a}")
    base = get_profile(spec).phi(t) + k_value(spec, a)
    if t >= a:
        return base
    va = ball_volume(spec, a)

    def overlap(u: np.ndarray) -> np.ndarray:
        return (va - ball_volume(spec, u)) / sphere_area(spec, u)

    # only the base's absolute accuracy is needed: near t = a, va - V(u) is rounding noise
    correction = integrate(overlap, t, a, max(1e-15 * va * abs(base), 1e-300)) / va
    return base - correction


def spherical_mean(spec: ManifoldSpec, t: float, a: float) -> float:
    """Mean of G(p, .) over the geodesic sphere S(p0, a), for a < t = d_R(p, p0).

    Closed identity: phi(t) + (1/V) int_0^a V(u)/v(u) du.
    """
    D = diameter(spec)
    if not 0.0 < t <= D:
        raise DomainError(f"need 0 < t <= D, got t={t}")
    if not 0.0 < a < t:
        raise DomainError(
            f"the sphere-mean identity holds for a < t only, got a={a}, t={t}"
        )
    return get_profile(spec).phi(t) + cum_volume_over_area(spec, a) / volume(spec)
