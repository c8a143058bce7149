"""Ball-average kernels of the Green function.

Two radial kernels drive the finite-N energy bound. Integrating their
defining double integrals by parts leaves one single integral each:

    K(M, a)     = (1/(V V(a))) int_0^a V(u) (V(a) - V(u)) / v(u) du
    Theta(M, a) = phi(a) + (1/(V V(a))) int_0^a V(r) psi(r) dr

where psi(r) = (V - V(r)) / v(r) is the slope magnitude of the Green
profile. With H(a) = int_0^a V/v and J(a) = int_0^a V^2/v they are

    K     = (V(a) H - J) / (V V(a))
    Theta = phi(a) + K + (1/V(a) - 1/V) H.

Every family evaluates both in closed form, from series and profile
coefficients derived once per manifold, through one numpy evaluator over
the radius array (`_closed_kernels`). The same pass returns the ball
fraction mu = V(a)/V from its own series, with no incomplete beta. Every step is
elementwise, so a radius gets the same bits alone and in any batch:
`k_values`, `theta_values` and the bound's `finite_bounds` call it, and
`k_closed`, `theta_closed`, `k_value` and `theta_value` are its
one-radius case. Nothing is memoised here but the
coefficients. A non-finite K or Theta raises SingularityError naming the
radius.

Records and mirrors. On the Jacobi record (m, k, s) (`records`) of S^n,
CP^n, HP^n or OP^2, in x = sin^2(s a) and y = 1 - x, the ball fraction is
mu = I_x(m, k) = x^m y^k F(x) / (m B(m, k)) with F = 2F1(m + k, 1; m + 1; x), so

    H = int_0^x F / (4 s^2 m),    J / V(a) = q = r / F,

where r solves x y r' + (m y - k x) r = x y F^2 / (4 s^2 m). F, H and r are
series of positive terms (`records.record_series`), summed up to the mean
x = m / (m + k), where V K = H - q and
V Theta = (phi_hat + c_m) + V K + H (1 - mu) / mu, with phi_hat from the
profile. Past the mean H and J diverge toward D while K and Theta stay
finite, and the mirror record (k, m, s), the same geometry seen from the
far end of the diameter, serves at y: 1 - mu = y^k x^m F~(y) / (k B(m, k)),
phi_hat(a) is the mirror's H, H(a) is the mirror's phi_hat and
J~(D - a) = q~(y) (V - V(a)) (S^n is its own mirror). As
c_m = -(1/V) int_0^D V(u) psi(u) du, V H - J = V (-c_m - phi_hat(a)) + J~, so

    V K     = ((q~ - H(a)) (1 - mu) - c_m - phi_hat(a)) / mu
    V Theta = (1 - mu) (q~ - phi_hat(a) - c_m) / mu,

and Theta vanishes at D. H(a) itself overflows near D on high spheres,
where 1 - mu underflows; their product stays small, and is formed as
(1 - mu) / (4 x y)^(k-1) times Phi = (4 x y)^(k-1) H, which the mirror's
profile gives with no factor out of range (`_record_route`): its Laurent
form where k is an integer, S^n's odd form on odd n.

RP^n is the double cover of S^n: for a <= pi/2 = D its balls and spheres
are the sphere's, and V_RP = V_S / 2, so K_RP = 2 K_S,
Theta_RP = Theta_S + K_S + c_S / V_S and mu_RP = 2 mu_S.

Quadrature. `k_quadrature`, `theta_quadrature` and `cum_volume_over_area`
integrate the single-integral forms adaptively: they are the oracle that
`verify`, the tests and `greenlab ball` check the closed forms against,
and no bound or energy calls them. Each integrand reads V(u)/V, rho(u),
psi(u) and the moment V(u) psi(u) at its nodes from one incomplete beta,
`green._radial_ratios(spec, u)` (psi without cancellation), and V(a) and
psi(a) come from one call at the radius. Both integrands vanish like u at
the pole and stay bounded up to the diameter. While V(a) <= V/2, K takes V(a) - V(u)
directly; past that it uses v(u) psi(u) - (V - V(a)), with
V - V(a) = v(a) psi(a): the direct difference loses its digits near a = D,
the rewritten one at small a. Theta switches at the same point to
-(1/V(a)) int_a^D phi v, as G has mean zero. Each call integrates one
radius with `special_math.integrate`: Theta over [0, a] or [a, D], K over
[0, a] or, where the integrand falls off in a thin layer next to a, over
two pieces (`_k_integrand`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import records
from .errors import DomainError, QuadratureError, SingularityError
from .green import _radial_ratios, get_profile
from .manifold import (
    Family,
    ManifoldSpec,
    _radius_limit,
    _record,
    _sin_cos_squares,
    diameter,
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
    "cum_volume_over_area",
]


def cum_volume_over_area(spec: ManifoldSpec, r: float) -> float:
    """H(r) = int_0^r V(u)/v(u) du for 0 <= r < D.

    Diverges at r = D on every family whose density vanishes there, hence
    the strict upper bound.
    """
    if not 0.0 <= r < diameter(spec):
        raise DomainError(f"cumulative volume ratio needs 0 <= r < D, got {r}")
    return integrate(lambda u: _radial_ratios(spec, u)[1], 0.0, r)


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


def _k_integrand(spec: ManifoldSpec, a: float, ball: float, psi_a: float):
    """K's integrand at the one checked radius a, with ball = V(a) and
    psi_a = psi(a), each evaluation from one `_radial_ratios` call at its
    nodes, and the points 0 < ... < a that cut [0, a] into its pieces.

    As in the module docstring, K takes V(a) - V(u) directly while
    V(a) <= V/2, v(u) psi(u) - v(a) psi(a) past that, and the plain moment at
    a = D. Where v(a) is below the normal range, v(a) psi(a) loses its digits
    or vanishes while rho(u) overflows near D, so v(a) psi(a) rho(u) is formed
    as psi(a) exp(log V(u) + log (v(a) / v(u))).
    """
    V, D = volume(spec), diameter(spec)
    area = float(sphere_area(spec, a))
    tiny, log_sin = area < np.finfo(float).tiny, np.log(np.sin(a))

    def integrand(u: np.ndarray) -> np.ndarray:
        mu, rho, _, moment = _radial_ratios(spec, u)
        if ball <= 0.5 * V:
            return rho * (ball - V * mu)
        if a == D:
            return moment
        if not tiny:
            return moment - area * psi_a * rho
        with np.errstate(divide="ignore"):
            log_ratio = (spec.n - 1) * (log_sin - np.log(np.sin(u)))
            return moment - psi_a * np.exp(np.log(V * mu) + log_ratio)

    # v(a) psi(a) rho(u) falls from the size of the moment to nothing within
    # about (D - a) / n of a, too close for the first panels to see where v(a)
    # is tiny, and on S^n wherever that is a small share of a. Such a radius
    # past V/2 gets a second piece, over the last 40 (D - a) / (n - 1), where
    # the fall is more than e^-35 of the moment
    thin = spec.family is Family.SPHERE and 40.0 * (D - a) < _LAYER_SHARE * (spec.n - 1) * a
    if ball > 0.5 * V and a < D and (tiny or thin):
        return integrand, [0.0, a - min(0.5 * a, 40.0 * (D - a) / (spec.n - 1)), a]
    return integrand, [0.0, a]


def k_quadrature(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) by adaptive quadrature of its single-integral form, one
    `integrate` call per piece of `_k_integrand`."""
    radii = _kernel_radii(spec, [a], "K")
    mu, _, psi, _ = _radial_ratios(spec, radii)
    va = volume(spec) * mu
    integrand, cuts = _k_integrand(spec, radii[0], va[0], psi[0])
    total = sum(integrate(integrand, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = total / (volume(spec) * va)
    return float(_require_finite(k, radii, "K", spec)[0])


def theta_quadrature(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a): mean of the Green function over a ball about its pole.

    While V(a) <= V/2 it is phi(a) plus the moment's integral over [0, a]
    divided by V V(a); past that, as G has mean zero, it is
    -(1/V(a)) int_a^D phi v dr, which integrates the small tail instead of
    cancelling two large terms near D. phi comes from the shared profile
    `get_profile(spec)`; a profile that fails to build raises before the
    moment's quadrature error."""
    radii = _kernel_radii(spec, [a], "Theta")
    va = volume(spec) * _radial_ratios(spec, radii)[0]
    if va[0] > 0.5 * volume(spec):
        prof = get_profile(spec)
        tail = integrate(lambda r: prof.phi(r) * sphere_area(spec, r), radii[0], diameter(spec))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            theta = 0.0 - tail / va  # +0 at D
        return float(_require_finite(theta, radii, "Theta", spec)[0])
    try:
        moment = integrate(lambda r: _radial_ratios(spec, r)[3], 0.0, radii[0])
    except QuadratureError:
        get_profile(spec)
        raise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = get_profile(spec).phi(radii) + moment / (volume(spec) * va)
    return float(_require_finite(theta, radii, "Theta", spec)[0])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


# the powers `_power_sums` holds at once, 2^18 doubles: 2 MB
_SERIES_BLOCK = 1 << 18


def _power_sums(table: np.ndarray, t: list[np.ndarray]) -> np.ndarray:
    """sum_j table[j, i] t[i]^j for every 1-D array t[i], with the coefficient
    lists as the columns of table (shape (length, rows, 1), padded with
    zeros), as a table of powers times the coefficients, summed term by term
    from j = 0: t^(k+j) = t^k t^j fills the table in log2 of its length numpy
    calls, where Horner's rule takes two per coefficient.
    Every element is summed on its own in the same order, so a radius has
    the same bits alone and in any batch, and in blocks of as many radii as
    keep the table of powers within `_SERIES_BLOCK`."""
    out = np.empty((len(t), t[0].size))
    step = max(1, _SERIES_BLOCK // table.size)
    for lo in range(0, out.shape[1], step):
        block = np.stack([row[lo : lo + step] for row in t])
        powers = np.empty((table.shape[0], *block.shape))
        powers[0], powers[1], square, k = 1.0, block, block, 2
        while k < len(powers):  # t^(k + j) = t^k t^j for j < k, square = t^k
            square = square * square
            top = powers[k : 2 * k]
            np.multiply(powers[: len(top)], square, out=top)
            k *= 2
        powers *= table
        out[:, lo : lo + step] = powers.sum(axis=0)
    return out


@functools.cache
def _record_route(spec: ManifoldSpec) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """What `_record_kernels` sums and scales by on S^n, CP^n, HP^n or OP^2:
    the read-only `_power_sums` table of the record's (F, H, r), the mirror
    record's (F, H, r) and the polynomials of Phi = (4 x y)^(k-1) H; then
    1 / (4^k m B(m, k)), rounded once, and Phi's constants.

    With integer k, H is the mirror's Laurent form c(v) - b log y, v = x / y
    (`records.laurent_parts` of the record (k, m, s)), so Phi =
    (4x)^(k-1) (x^(k-1) c~(w) - b y^(k-1) log y), c~ the reversed c and
    w = y / x: the last row is c~ and the constants are (b,). On odd S^n,
    n = 2j + 1, H is the profile's odd form at pi - a (`records.odd_parts`),
    and Phi = F sin^(2j-1) a + A a |cos a| G + sin a R~, where G and R~ = -R
    are homogeneous of degree j - 1 in (cos^2 a, sin^2 a): the last rows are
    g and R~, each forwards and reversed, and the constants are (A, F).
    """
    m, k, s = record = _record(spec)
    if k == int(k):
        c, _, b = records.laurent_parts((k, m, s))
        rows, constants = [tuple(float(v) for v in c[:0:-1]) or (0.0,)], (float(b),)
    else:
        A, g, R, _, F, _ = records.odd_parts(round(k - 0.5))
        g, R = tuple(map(float, g)), tuple(-float(v) for v in R)
        rows, constants = [g, g[::-1], R, R[::-1]], (float(A), float(F))
    rows = [*records.record_series(record), *records.record_series((k, m, s)), *rows]
    width = max(map(len, rows))
    table = np.array([row + (0.0,) * (width - len(row)) for row in rows]).T[:, :, None]
    table.flags.writeable = False
    return table, records.kernel_scale(record), constants


def _record_kernels(spec: ManifoldSpec, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K, Theta and mu = V(a)/V of S^n, CP^n, HP^n or OP^2 at every radius,
    from one `_power_sums` pass: the record's series and its profile at x up
    to the mean, the mirror's series and Phi past it (module docstring).
    Each radius takes its side's values, so a side's values at the other
    side's radii may overflow unseen.

    Past the mean Theta carries (4xy)^k, which leaves the normal range long
    before Theta does on high spheres: below about 2^-600 it is formed as
    (2^j 4xy)^k, j even, and Theta is scaled by 2^(-jk) last, so no factor
    is subnormal where Theta is normal."""
    m, k, _ = _record(spec)
    V = volume(spec)
    table, scale, constants = _record_route(spec)
    prof = get_profile(spec)
    x, y = _sin_cos_squares(spec, a)
    sigma, lean = 4.0 * x * y, x ** (m - k)
    power = lean * sigma**k  # 4^k x^m y^k
    if k == int(k):  # Phi reads w = y / x
        z = [y / x]
    else:  # Phi reads the smaller of cos^2 a and sin^2 a over the larger
        kappa = (x - y) ** 2
        wide = sigma >= kappa
        z = [np.where(wide, kappa / sigma, sigma / kappa)] * 4
    f, h, r, f_m, phi, r_m, *sums = _power_sums(table, [x, x, x, y, y, y, *z])
    near = x <= m / (m + k)
    # up to the mean; the profile takes (y, x) past it, which keeps S^n's on its direct form
    mu = power * f * scale
    vk = h - r / f
    phi_hat = prof.phi_hat(np.where(near, x, y), np.where(near, y, x), np.empty_like(x))
    vtheta = phi_hat + prof.c_m + vk + h * (1.0 - mu) / mu
    # past it, with Phi = (4 x y)^(k-1) H
    if k == int(k):
        e = k - 1
        scaled = (4.0 * x) ** e * (x**e * sums[0] - constants[0] * y**e * np.log(y))
    else:
        A, F = constants
        top, e = np.maximum(sigma, kappa), k - 1.5
        g, r_tilde = (top**e * np.where(wide, sums[i], sums[i + 1]) for i in (0, 2))
        root = np.sqrt(sigma)
        scaled = F * sigma**e * root + A * a * (x - y) * g + root * r_tilde
    rest_scale = scale * m / k
    rest = rest_scale * f_m * power  # 1 - mu
    # (1 - mu) H, finite where H alone overflows and 1 - mu underflows
    held = rest_scale * f_m * lean * sigma * scaled
    q = r_m / f_m
    far_mu = 1.0 - rest
    vk = np.where(near, vk, (q * rest - held - prof.c_m - phi) / far_mu)
    shift = np.maximum(0, -np.frexp(sigma)[1] - int(600 // k))
    j = shift + shift % 2
    scaled_rest = rest_scale * f_m * (lean * np.ldexp(sigma, j) ** k)  # 2^(jk) (1 - mu)
    theta = np.ldexp(scaled_rest * (q - phi - prof.c_m) / far_mu / V, (-j * k).astype(int))
    return vk / V, np.where(near, vtheta / V, theta), np.where(near, mu, far_mu)


def _closed_kernels(spec: ManifoldSpec, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, Theta, mu) at checked radii, mu = V(a)/V, elementwise from the
    closed forms in one pass: a radius gets the same bits alone and in any
    batch. Values that leave the range of a double come back as inf or nan.

    RP^n is S^n's double cover (module docstring): K_RP = 2 K_S,
    Theta_RP = Theta_S + K_S + c_S / V_S and mu_RP = 2 mu_S, at a <= pi/2.
    """
    cover = ManifoldSpec(Family.SPHERE, spec.n) if spec.family is Family.REAL_PROJ else spec
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        k, theta, mu = _record_kernels(cover, a)
        if cover is spec:
            return k, theta, mu
        return 2.0 * k, theta + k + get_profile(cover).c_m / volume(cover), 2.0 * mu


def _log_fraction_root(series: np.ndarray, p, q, c: float, target: float, limit: float):
    """t = log x where c + log(x^p (1 - x)^q F(x)) = target, F the series, by
    Newton's method from the small-ball guess c + p t = target; None once t
    passes limit.

    That is log mu on a record (p, q, s), or log(1 - mu) on its mirror: the log
    of the CDF of log X, X ~ Beta(p, q), whose slope in t is p / ((1 - x) F)
    (`records.record_series`' equation for F). Its density is log-concave for
    q >= 1, so the CDF is too: each tangent lies above it, and from the guess,
    which (1 - x)^(q-1) <= 1 puts at or below the root, every step lands at or
    below the root and climbs to it.
    """
    powers, t = np.arange(len(series)), (target - c) / p
    for _ in range(64):
        if t > limit:
            return None
        x, y = math.exp(t), -math.expm1(t)
        f = float(series @ x**powers)
        step = (target - c - p * t - q * math.log(y) - math.log(f)) * y * f / p
        t += step
        if abs(step) <= 1e-10:  # the error squares each step: the next one is far below an ulp
            return t
    raise AssertionError(f"no root of the ball fraction at {math.exp(target)!r}")


def _fraction_radius(spec: ManifoldSpec, u: float) -> float:
    """The radius a where mu = V(a)/V = u, 0 < u <= 1/2, numpy-only, from the
    record series the kernel pass sums (`_record_route`): mu = 4^k scale x^m
    y^k F(x) in log x up to the mean x = m / (m + k), and past it the mirror's
    1 - mu = (m/k) 4^k scale y^k x^m F~(y) in log y. RP^n takes its S^n cover
    at u/2 (module docstring).
    """
    if spec.family is Family.REAL_PROJ:
        spec, u = ManifoldSpec(Family.SPHERE, spec.n), 0.5 * u
    m, k, s = _record(spec)
    table, scale, _ = _record_route(spec)
    c = math.log(scale) + k * math.log(4.0)
    t = _log_fraction_root(table[:, 0, 0], m, k, c, math.log(u), math.log(m / (m + k)))
    if t is None:
        t = _log_fraction_root(table[:, 3, 0], k, m, c + math.log(m / k), math.log1p(-u), math.inf)
        x, y = -math.expm1(t), math.exp(t)
    else:
        x, y = math.exp(t), -math.expm1(t)
    return math.atan2(math.sqrt(x), math.sqrt(y)) / s


def k_closed(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) from the closed forms in double precision: the one-radius case of `k_values`."""
    return float(k_values(spec, [a])[0])


def theta_closed(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a) from the closed forms in double precision: the one-radius case of `theta_values`."""
    return float(theta_values(spec, [a])[0])


# ---------------------------------------------------------------------------
# Array kernels
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
