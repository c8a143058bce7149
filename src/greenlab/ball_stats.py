"""Ball-average kernels of the Green function.

Two radial kernels drive the finite-N energy bound. Integrating their
defining double integrals by parts leaves one single integral each:

    K(M, a)     = (1/(V V(a))) int_0^a V(u) (V(a) - V(u)) / v(u) du
    Theta(M, a) = phi(a) + (1/(V V(a))) int_0^a V(r) psi(r) dr

where psi(r) = (V - V(r)) / v(r) is the slope magnitude of the Green
profile. With H(a) = int_0^a V/v and J(a) = int_0^a V^2/v they are

    K     = (V(a) H - J) / (V V(a))
    Theta = phi(a) + K + (1/V(a) - 1/V) H.

Every family evaluates both in closed form, from exact coefficients derived
once per manifold in rational arithmetic, through one numpy evaluator over
the radius array (`_closed_kernels`). The same pass returns the ball
fraction mu = V(a)/V from values it already holds: x^m D(y) on CP^n, HP^n
and OP^2, and on S^n and RP^n the one `_regularized_beta` call that the
sphere's kernels make, which on RP^n also takes RP^n's own fraction.
Every step is elementwise, so a radius gets the same bits alone and in
any batch: `k_values`, `theta_values` and the bound's `finite_bounds` and
radius lattice call it, and `k_closed`, `theta_closed`, `k_value` and
`theta_value` are its one-radius case. Nothing is memoised here but the
coefficients. A non-finite K or Theta raises SingularityError naming the
radius.

S^n, every n. In x = sin^2(a/2) and y = cos^2(a/2), with m = n/2, the ball
fraction is mu = I_x(m, m) = x^m y^m F(x) / (m B(m, m)) with
F = 2F1(n, 1; m + 1; x), so

    H = (1/m) int_0^x F,    J / V(a) = q = r / F,

where r solves t (1 - t) r' + m (1 - 2t) r = t (1 - t) F^2 / m
(`_sphere_series`). F, H and r have positive rational coefficients and are
summed at t = min(x, y) <= 1/2. Up to a = pi/2 that gives V K = H - q and
V Theta = (phi_hat + c_m) + V K + H (1 - mu) / mu, with phi_hat from the
profile's direct form. Past pi/2, H and J diverge toward D while K and
Theta stay finite, and the mirror t = y serves: phi_hat(a) is H's series at
y (the profile's antipodal series), H(a) = phi_hat(pi - a) is the profile's
direct form at (y, x), and J(pi - a) = q(y) (V - V(a)). As
c_m = -(1/V) int_0^D V(u) psi(u) du, V H - J = V (-c_m - phi_hat(a)) + J(pi - a), so

    V K     = ((q(y) - H(a)) (1 - mu) - c_m - phi_hat(a)) / mu
    V Theta = (1 - mu) (q(y) - phi_hat(a) - c_m) / mu,

and Theta vanishes at D.

RP^n is the double cover of S^n: for a <= pi/2 = D its balls and spheres
are the sphere's, and V_RP = V_S / 2, so K_RP = 2 K_S and
Theta_RP = Theta_S + K_S + c_S / V_S.

CP^n, HP^n and OP^2 have a ball polynomial, mu(x) = V(a)/V = x^m D(y) with
x = sin^2 a, y = cos^2 a and mu' = c' x^(m-1) (1 - x)^(k-1): the records
with integer m and k and s = 1. There

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

Quadrature. `k_quadrature`, `theta_quadrature` and `cum_volume_over_area`
integrate the single-integral forms adaptively: they are the oracle that
`verify`, the tests and `greenlab ball` check the closed forms against,
and no bound or energy calls them. psi comes from green._radial_ratios
without cancellation; both integrands vanish like u at the pole and stay
bounded up to the diameter. While V(a) <= V/2, K takes V(a) - V(u)
directly; past that it uses v(u) psi(u) - (V - V(a)), with
V - V(a) = v(a) psi(a): the direct difference loses its digits near a = D,
the rewritten one at small a. Each call integrates one radius with
`special_math.integrate`: Theta over [0, a], K over [0, a] or, where the
integrand falls off in a thin layer next to a, over two pieces
(`_k_integrand`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, QuadratureError, SingularityError
from .green import _laurent_moment, _laurent_numerator, _radial_ratios, get_profile
from .manifold import (
    Family,
    ManifoldSpec,
    _antiderivative,
    _integer_record,
    _mul,
    _radius_limit,
    _recentre,
    _regularized_beta,
    _sin_cos_squares,
    ball_volume,
    ball_volume_fraction,
    bm_constant,
    diameter,
    dimension,
    sphere_area,
    volume,
)
from .special_math import integrate

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
    inside = (a > 0.0) & (a <= limit)
    if not inside.all():
        raise DomainError(f"{name} needs a in (0, D], got {a[~inside].tolist()[0]!r}")
    return np.minimum(a, D) if (a > D).any() else a


def _require_finite(values: np.ndarray, radii: np.ndarray, name: str, spec: ManifoldSpec):
    """values, or a SingularityError naming the first radius where one is not finite."""
    if np.isfinite(values).all():
        return values
    value, a = next((v, a) for v, a in zip(values.tolist(), radii.tolist()) if not math.isfinite(v))
    raise SingularityError(
        f"{name} is {value!r} at a = {a!r} on {spec}: "
        "a ball volume or kernel leaves the range of a double there"
    )


# a radius past V/2 on S^n whose boundary layer next to a, 40 (D - a) / (n - 1)
# wide, is narrower than this share of a is integrated in two pieces
# (`_k_integrand`). Measured on S^4 to S^200: one piece is up to 9e-7 off
# below a share of 2.5e-3 and up to 2e-12 below 1e-2; above 0.05 one and two
# pieces agree to 1e-15
_LAYER_SHARE = 0.05


def _k_integrand(spec: ManifoldSpec, radii: np.ndarray, va: np.ndarray):
    """K's integrand at the one checked radius a = radii[0], with va = V(a),
    and the points 0 < ... < a that cut [0, a] into the pieces it is
    integrated over.

    As in the module docstring, K takes V(a) - V(u) directly while
    V(a) <= V/2, v(u) psi(u) - v(a) psi(a) past that, and the plain moment at
    a = D. Where v(a) is below the normal range, v(a) psi(a) loses its digits
    or vanishes while rho(u) overflows near D, so v(a) psi(a) rho(u) is formed
    as psi(a) exp(log V(u) + log (v(a) / v(u))).
    """
    V, D = volume(spec), diameter(spec)
    ratios = _radial_ratios(spec)
    a, ball = radii[0], va[0]
    if ball <= 0.5 * V:
        return lambda u: ratios.rho(u) * (ball - V * ball_volume_fraction(spec, u)), [0.0, a]
    if a == D:
        return ratios.moment, [0.0, a]
    area, psi_a = sphere_area(spec, radii)[0], ratios.psi(radii)[0]
    tiny = area < np.finfo(float).tiny
    if tiny:
        log_sin = np.log(np.sin(radii))[0]

        def integrand(u: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore"):
                log_ratio = (spec.n - 1) * (log_sin - np.log(np.sin(u)))
                scaled_rho = np.exp(np.log(V * ball_volume_fraction(spec, u)) + log_ratio)
            return ratios.moment(u) - psi_a * scaled_rho

    else:
        far = area * psi_a

        def integrand(u: np.ndarray) -> np.ndarray:
            return ratios.moment(u) - far * ratios.rho(u)

    # v(a) psi(a) rho(u) falls from the size of the moment to nothing within
    # about (D - a) / n of a, too close for the first panels to see where v(a)
    # is tiny, and on S^n wherever that is a small share of a. Such a radius
    # gets a second piece, over the last 40 (D - a) / (n - 1), where the fall
    # is more than e^-35 of the moment
    if tiny or (spec.family is Family.SPHERE and 40.0 * (D - a) < _LAYER_SHARE * (spec.n - 1) * a):
        return integrand, [0.0, a - min(0.5 * a, 40.0 * (D - a) / (spec.n - 1)), a]
    return integrand, [0.0, a]


def _ball_volumes(spec: ManifoldSpec, radii: np.ndarray) -> np.ndarray:
    """V(a) at every radius."""
    return volume(spec) * ball_volume_fraction(spec, radii)


def k_quadrature(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) by adaptive quadrature of its single-integral form, one
    `integrate` call per piece of `_k_integrand`."""
    radii = _kernel_radii(spec, [a], "K")
    va = _ball_volumes(spec, radii)
    integrand, cuts = _k_integrand(spec, radii, va)
    total = sum(integrate(integrand, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = total / (volume(spec) * va)
    return float(_require_finite(k, radii, "K", spec)[0])


def theta_quadrature(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a): mean of the Green function over a ball about its pole, as
    phi(a) plus the moment's integral over [0, a] divided by V V(a), with phi
    from the shared profile `get_profile(spec)`. A profile that fails to
    build raises before the moment's quadrature error."""
    radii = _kernel_radii(spec, [a], "Theta")
    va = _ball_volumes(spec, radii)
    try:
        moment = integrate(_radial_ratios(spec).moment, 0.0, radii[0])
    except QuadratureError:
        get_profile(spec)
        raise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = get_profile(spec).phi(radii) + moment / (volume(spec) * va)
    return float(_require_finite(theta, radii, "Theta", spec)[0])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


@functools.cache
def _kernel_parts(spec: ManifoldSpec) -> dict[str, tuple]:
    """Each kernel's parts (R, P, e, c) as in the module docstring, with R and P
    exact in ascending powers of u = y (K) or u = x (Theta), on CP^n, HP^n or
    OP^2. The integrals run in y for K and in x for Theta, on the profile's
    h = Q(x) / x^m (`green._laurent_numerator`), where 1 - mu = 4 c' y^k Q(1 - y)."""
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
    # log(1 - t) = -sum t^k / k, so R + P log(1 - t) = sum_j (R_j - sum_i P_i / (j - i)) t^j;
    # P's coefficients are integers (c clears their denominators), so each sum
    # is one integer over the lcm of its j - i
    nonzero = [(i, int(pi)) for i, pi in enumerate(p_t) if pi]
    p_norm = float(sum(abs(pi) for _, pi in nonzero))
    coeffs: list[Fraction] = []

    def log_sum(j: int) -> Fraction:
        lcm = math.lcm(*(j - i for i, _ in nonzero if i < j))
        return Fraction(sum(pi * (lcm // (j - i)) for i, pi in nonzero if i < j), lcm)

    def series(switch: float) -> tuple[tuple[float, ...], float]:
        """Coefficients from t^order on for t < switch, and the relative size of the rest.

        Past the polynomials |coefficient j| <= |P|_1 / (j - deg P), so the
        terms from t^count on sum to at most `dropped` at the switch.
        """
        count = max(order + math.ceil(38.0 / -math.log(switch)), len(r_t) + 1)
        while True:
            for j in range(len(coeffs), count):
                rj = r_t[j] if j < len(r_t) else Fraction(0)
                coeffs.append(rj - log_sum(j))
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


# radii per block of `_power_sums`: 4096 radii by 62 powers is 2 MB a series
_SERIES_BLOCK = 4096


@functools.cache
def _series_table(coeffs: tuple[tuple[float, ...], ...]) -> np.ndarray:
    """The coefficient lists as the columns of one read-only array, padded with zeros."""
    width = max(map(len, coeffs))
    table = np.array([c + (0.0,) * (width - len(c)) for c in coeffs]).T[:, :, None]
    table.flags.writeable = False
    return table


def _power_sums(coeffs: tuple[tuple[float, ...], ...], t: np.ndarray) -> np.ndarray:
    """sum_j coeffs[i][j] t[i]^j for every row i of t, as a table of powers
    times the coefficients, summed term by term from j = 0: t^(k+j) =
    t^k t^j fills the table in log2 of its length numpy calls, where Horner's
    rule takes two per coefficient.
    Every element is summed on its own in the same order, so a radius has
    the same bits alone and in any batch."""
    table = _series_table(coeffs)
    out = np.empty(t.shape)
    for lo in range(0, t.shape[1], _SERIES_BLOCK):
        block = t[:, lo : lo + _SERIES_BLOCK]
        powers = np.empty((table.shape[0], *block.shape))
        powers[0], powers[1], square, k = 1.0, block, block, 2
        while k < len(powers):  # t^(k + j) = t^k t^j for j < k, square = t^k
            square = square * square
            top = powers[k : 2 * k]
            np.multiply(powers[: len(top)], square, out=top)
            k *= 2
        powers *= table
        out[:, lo : lo + _SERIES_BLOCK] = powers.sum(axis=0)
    return out


# the row of (x, y) at which `_form_kernels` evaluates each polynomial of
# `_form_arrays`: K's series in x and Theta's in y, their R and their P in
# u = y (K) and u = x (Theta), and D in y
_FORM_ROWS = [0, 1, 1, 0, 1, 0, 1]


@functools.cache
def _form_arrays(forms: tuple[_ClosedForm, _ClosedForm]) -> tuple:
    """The K and Theta forms laid out for `_form_kernels`: their polynomials
    in the order of `_FORM_ROWS`, and the read-only columns switch, e, scale
    and t_is_x."""
    k, theta = forms
    polys = (k.series, theta.series, k.r, theta.r, k.p, theta.p, k.d)
    names = ("switch", "e", "scale", "t_is_x")
    columns = [np.array([[getattr(k, name)], [getattr(theta, name)]]) for name in names]
    for column in columns:
        column.flags.writeable = False
    return polys, *columns


def _form_kernels(
    forms: tuple[_ClosedForm, _ClosedForm], a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """([K, Theta], mu) at every radius from the forms of CP^n, HP^n or OP^2,
    elementwise: each kernel's series below its switch, its direct formula
    from there on. Row 0 is K, in t = x = sin^2 a and u = y = cos^2 a; row 1
    Theta, in t = y and u = x. mu = V(a)/V = x^m D(y) takes D(y) from the
    same pass (m is K's e)."""
    polys, switch, e, scale, t_is_x = _form_arrays(forms)
    roots = np.stack([np.sin(a), np.cos(a)])
    t = roots * roots
    values = _power_sums(polys, t[_FORM_ROWS])
    series = t * values[:2]
    # log u = 2 log cos a (K) or 2 log sin a (Theta)
    direct = values[2:4] + values[4:6] * (2.0 * np.log(roots[::-1]))
    low = t < switch
    # K's series is already divided by x^e
    power = np.where(low & t_is_x, 0, e)
    kernels = np.where(low, series, direct) / (scale * roots[0] ** (2 * power) * values[6])
    return kernels, t[0] ** forms[0].e * values[6]


@functools.cache
def _sphere_series(n: int) -> tuple[tuple[float, ...], ...]:
    """(F, H, r) of S^n in ascending powers of t <= 1/2, each coefficient an
    exact rational rounded once: F = 2F1(n, 1; n/2 + 1; t), H = int_0^t F / m
    and r = q F, m = n/2 (module docstring).

    With f_i, E_i, h_i and r_i the coefficients of F, F^2, H and r, the
    first-order equations t (1 - t) F' = m - m (1 - 2t) F and
    t (1 - t) r' + m (1 - 2t) r = t (1 - t) F^2 / m give, all positive,

        f_i = f_(i-1) (n + i - 1) / (m + i),       h_i = f_(i-1) / (m i),
        (i + 2m) E_i = (i - 1 + 4m) E_(i-1) + 2m f_i,
        (i + m) r_i = (i - 1 + 2m) r_(i-1) + (E_(i-1) - E_(i-2)) / m.

    They run on integers: f_i = a_i / A_i, E_i = b_i / (A_i B_i) and
    r_i = c_i / (n A_(i-1) A_i B_(i-1)), with A_i and B_i the products of
    n + 2j and n + j over j = 1..i, and each coefficient is one integer
    quotient, rounded once.

    Each series stops once its last term at t = 1/2, times rho / (1 - rho)
    with rho the ratio of its last two terms, is below 2^-56 of its sum: the
    ratios fall past that point (f's provably, as in
    `green._antipodal_series`), so that bounds the terms dropped.
    """
    a, b, c, big_a, big_b = 1, 1, 0, 1, 1  # at i = 0
    delta = 1  # E_(i-1) - E_(i-2) = delta / (A_(i-1) B_(i-1))
    coeffs: list[list[float]] = [[1.0], [0.0], [0.0]]  # f, h, r
    sums = [1.0, 0.0, 0.0]  # of f, h and r at t = 1/2 so far
    i = 0
    while True:
        i += 1
        h = 2 * a / (n * i * big_a)
        c = 2 * (n + i - 1) ** 2 * (n + 2 * i - 2) * c + 4 * delta * big_a
        a, last_a, big_a = 2 * (n + i - 1) * a, big_a, (n + 2 * i) * big_a
        r = c / (n * last_a * big_a * big_b)
        b_next = (i - 1 + 2 * n) * (n + 2 * i) * b + n * a * big_b
        delta = b_next - b * (n + 2 * i) * (n + i)
        b, big_b = b_next, (n + i) * big_b
        settled = i > 1
        for j, value in enumerate((a / big_a, h, r)):
            last, before = value / 2**i, coeffs[j][-1] / 2 ** (i - 1)
            coeffs[j].append(value)
            sums[j] += last
            if settled:
                rho = last / before
                settled = rho < 1.0 and last * rho / (1.0 - rho) <= 2.0**-56 * sums[j]
        if settled:
            return tuple(map(tuple, coeffs))


def _sphere_kernels(spec: ManifoldSpec, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V_S K and V_S Theta of S^n, n = spec.n, at every radius, from the
    profile and `_sphere_series`, and mu = V(a)/V of spec, S^n or RP^n. One
    `_regularized_beta` call gives the sphere's mu and, on RP^n, its own
    I_(sin^2 a)(n/2, 1/2).

    With t = min(x, y) and u = max(x, y), x = sin^2(a/2): the profile's
    direct form at (t, u) is phi_hat(a) up to a = pi/2 and H(a) = phi_hat(pi - a)
    past it, and the series at t give H(a) and q(x) up to pi/2, phi_hat(a)
    and q(y) past it.
    """
    sphere = ManifoldSpec(Family.SPHERE, spec.n)
    prof = get_profile(sphere)
    c = prof.c_m
    x, y = _sin_cos_squares(sphere, a)
    m = spec.n / 2
    if spec.family is Family.SPHERE:
        mu, rest = _regularized_beta(m, m, x, y)
        fraction = mu
    else:  # a row for the sphere and one for RP^n, each with its own parameters
        rows = [np.stack(pair) for pair in zip((x, y), _sin_cos_squares(spec, a))]
        (mu, fraction), (rest, _) = _regularized_beta(np.array([[m], [m]]), np.array([[m], [0.5]]), *rows)
    near = x <= y
    t, u = np.where(near, x, y), np.where(near, y, x)
    f_t, h_t, r_t = _power_sums(_sphere_series(spec.n), np.broadcast_to(t, (3, t.size)))
    direct = prof.phi_hat(t, u, np.empty_like(t))
    q = r_t / f_t
    # past pi/2, (1 - mu) H(a) -> 0 at D, where 1 - mu is 0 and H may overflow
    far = np.where(rest > 0.0, (q - direct) * rest, 0.0)
    k = np.where(near, h_t - q, (far - c - h_t) / mu)
    theta = np.where(near, direct + c + k + h_t * rest / mu, rest * (q - h_t - c) / mu)
    return k, theta, fraction


def _closed_kernels(spec: ManifoldSpec, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, Theta, mu) at checked radii, mu = V(a)/V, elementwise from the
    closed forms in one pass: a radius gets the same bits alone and in any
    batch. Values that leave the range of a double come back as inf or nan.

    RP^n is S^n's double cover (module docstring): K_RP = 2 K_S and
    Theta_RP = Theta_S + K_S + c_S / V_S, at a <= pi/2.
    """
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        if spec.family not in (Family.SPHERE, Family.REAL_PROJ):
            (k, theta), mu = _form_kernels((_closed_form(spec, "k"), _closed_form(spec, "theta")), a)
            return k, theta, mu
        sphere = ManifoldSpec(Family.SPHERE, spec.n)
        V = volume(sphere)
        k, theta, mu = _sphere_kernels(spec, a)
        k, theta = k / V, theta / V
        if spec.family is Family.SPHERE:
            return k, theta, mu
        return 2.0 * k, theta + k + get_profile(sphere).c_m / V, mu


def k_closed(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) from the closed forms in double precision: the one-radius case of `k_values`."""
    return float(k_values(spec, [a])[0])


def theta_closed(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a) from the closed forms in double precision: the one-radius case of `theta_values`."""
    return float(theta_values(spec, [a])[0])


# ---------------------------------------------------------------------------
# Array kernels, asymptotics
# ---------------------------------------------------------------------------


def _kernels(spec: ManifoldSpec, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, Theta, mu) at checked radii from `_closed_kernels`; a non-finite K
    or Theta raises SingularityError naming its radius, K's first."""
    k, theta, mu = _closed_kernels(spec, radii)
    return _require_finite(k, radii, "K", spec), _require_finite(theta, radii, "Theta", spec), mu


def k_values(spec: ManifoldSpec, radii) -> np.ndarray:
    """K(M, a) at every radius of a 1-D array, from the closed forms.

    Each value is computed elementwise, so it has the same bits alone and
    in any batch. A non-finite value raises SingularityError naming the
    radius.
    """
    radii = _kernel_radii(spec, radii, "K")
    return _require_finite(_closed_kernels(spec, radii)[0], radii, "K", spec)


def theta_values(spec: ManifoldSpec, radii) -> np.ndarray:
    """Theta(M, a) at every radius of a 1-D array, from the closed forms, as `k_values`."""
    radii = _kernel_radii(spec, radii, "Theta")
    return _require_finite(_closed_kernels(spec, radii)[1], radii, "Theta", spec)


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
