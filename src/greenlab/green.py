"""Radial Green profiles on the harmonic manifolds.

The Green function of each manifold is radial, G(p, q) = phi(d_R(p, q)),
and phi is recovered from the volume data alone:

    phi(r)   = (phi_hat(r) + C) / V,
    phi_hat(r) = integral over [r, D] of (V - V(s)) / v(s) ds,

where the integrand is the negative of the radial derivative of the
profile and C is fixed by the mean-zero property of G.

Every profile is evaluated in closed form at (x, y) = (sin^2(s r),
cos^2(s r)) of the record (m, k, s) of `manifold`: phi_hat and
h = -d phi_hat / dx, and the slope psi = 2 s h sqrt(x y). Its exact
coefficients are derived once per manifold in rational arithmetic, and
each radius is evaluated elementwise down to the representable floor, with
no table and no quadrature. Two forms cover the five families.

Laurent form (integer m: S^(2j), RP^(2j), CP^n, HP^n, OP^2). With the
ball fraction mu = I_x(m, k), h = (1 - mu) / (4 s^2 x y mu') equals
2F1(k, 1 - m; k + 1; y) / (4 s^2 k x^m), a polynomial in y over x^m, so

    phi_hat = sum_j c_j v^j - b log x,   v = 1/x - 1 = cot^2(s r),

with positive coefficients (`_laurent_profile`): -log x on S^2,
-(1/2) log x on RP^2, (1/x - 1 - log x)/8 on CP^2 and (1/x - 1 - 2 log x)/24
on HP^1. Its rounding error grows like m, because x^(1-m) amplifies the
rounding of x: 2.8e-16 m of |phi_hat| + |c_m| against a 40-digit sum.

Odd form (odd n: S^n and RP^n, n = 2k + 1). On S^n the reduction formula
for int sin^(2k) gives, with c = cot r and u = 1 + c^2 = 1 / sin^2 r,

    psi     = A (pi - r) u^k + c P(u),   A = (2k - 1)!! / (2k)!!,
    phi_hat = F(pi) + A (pi - r) c g(c^2) - R(c^2),

S^3's (1 + (pi - r) cot r)/2 the smallest case (`_odd_profile`). RP^n is
the double cover, phi_RP(r) = phi_S(r) + phi_S(pi - r); applied to these
exact forms it leaves the same polynomials with pi/2 - r in place of
pi - r and no constant, so every term is positive for r in (0, pi/2]. On
S^n past r = pi/2 the two terms cancel toward the antipode, and the series
h = (2/n) 2F1(1, n; n/2 + 1; y) of positive terms in y = sin^2((pi - r)/2),
even in pi - r, takes over there, phi_hat its integral in y.

r_cut = max(D/100, 2 x the representable floor) only sets where `grid_rows`
starts. The quadrature `phi_hat` and `phi_hat_prime` are the oracles the
tests and `verify` check the profile against.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .chebyshev import lobatto_nodes
from .errors import DomainError, SingularityError
from .manifold import (
    Family,
    ManifoldSpec,
    _antiderivative,
    _density,
    _integer_record,
    _mul,
    _radius_limit,
    _recentre,
    _record,
    _regularized_beta,
    _sin_cos_squares,
    _volume_ratio,
    diameter,
    dimension,
    volume,
)
from .special_math import _beta_continued_fraction, integrate, integrate_intervals

__all__ = [
    "RadialGreenProfile",
    "phi_hat_prime",
    "phi_hat",
    "build_profile",
    "get_profile",
]

_PROFILE_ROWS = 200  # radii listed by `grid_rows`
# radii per chunk of `phi` and `phi_hat_values`: one energy block of pairs,
# 512 KB an array, which stays in a 2 MB L2 cache. Against whole-array
# passes, chunks of 8192 radii cost 4 to 8 % more at 20 000 to 55 000 radii
# in dimensions 3 and 4 (a dozen numpy calls a chunk); chunks of 65536 cost
# 0 to 5 % less there and 12 to 22 % less at 10^6 radii
_SWEEP_CHUNK = 1 << 16
# betainc's relative error below half the mean grows with p + q (5.8e-16 at
# p = q = 4, 1.1e-15 at 12, 1.9e-15 at 20 against mpmath), so the oracle psi
# takes the continued fraction there from this p + q on
_CF_ORDER = 24


class _Ratios(NamedTuple):
    rho: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    moment: Callable[[np.ndarray], np.ndarray]


@lru_cache(maxsize=None)
def _radial_ratios(spec: ManifoldSpec) -> _Ratios:
    """Array functions rho(s) = V(s)/v(s), psi(s) = (V - V(s))/v(s) and moment(s) = V(s) psi(s).

    psi is the profile slope magnitude, moment the integrand of Theta and of
    the mean-zero constant. With the record (m, k, s) of `manifold`, rho is
    (V/omega) I_x(m, k) / (v/omega), x = sin^2(s r), and psi the same ratio on
    the mirrored record (k, m, y), y = cos^2(s r): no V - V(s) is a difference
    and omega divides nothing. Where I_t(p, q) leaves the normal range, or lies
    below half its mean with p + q >= _CF_ORDER, the ratio is
    sqrt(t (1 - t)) 2F1(p + q, 1; p + 1; t) / (2 s p) from a continued fraction.
    The moment is the smaller fraction's ratio times the larger fraction.
    These are the oracles of the closed profiles, and the integrands of the
    K and Theta quadrature on S^n and RP^n.
    """
    m, k, step = _record(spec)
    mass = _volume_ratio(spec)
    limit = _radius_limit(spec)

    def ratio(frac, p, q, t, u, density):
        """(V/omega) I_t(p, q) / (v/omega) from frac = I_t(p, q)."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = mass * frac / density
        low = frac < 1e-280
        if p + q >= _CF_ORDER:
            low |= t < 0.5 * p / (p + q)
        if low.any():
            cf = _beta_continued_fraction(p, q, t[low])
            out[low] = np.sqrt(t[low] * u[low]) * cf / (2.0 * step * p)
        return out

    def rho(r):
        x, y = _sin_cos_squares(spec, r)
        return ratio(_regularized_beta(m, k, x, y)[0], m, k, x, y, _density(spec, x, y))

    def psi(r):
        if (r > limit).any():
            raise DomainError(f"psi needs s <= D = {diameter(spec)} on {spec}, got {float(r.max())!r}")
        x, y = _sin_cos_squares(spec, r)
        return ratio(_regularized_beta(m, k, x, y)[1], k, m, y, x, _density(spec, x, y))

    def moment(r):
        x, y = _sin_cos_squares(spec, r)
        mu, rest = _regularized_beta(m, k, x, y)
        density = _density(spec, x, y)
        lower, upper = ratio(mu, m, k, x, y, density), ratio(rest, k, m, y, x, density)
        with np.errstate(invalid="ignore", over="ignore"):  # in the branch not taken
            return volume(spec) * np.where(mu <= rest, lower * rest, mu * upper)

    return _Ratios(rho, psi, moment)


def phi_hat_prime(spec: ManifoldSpec, s):
    """Radial derivative of phi_hat: -(V - V(s)) / v(s), negative on (0, D).

    Array-valued like s; like phi_hat, raises `SingularityError` below
    `_phi_hat_floor`. This is the direct form by the incomplete beta, the
    oracle of `RadialGreenProfile.phi_hat_prime_values`.
    """
    s_arr = np.asarray(s, dtype=float)
    _check_slope_radii(spec, s_arr)
    out = -_radial_ratios(spec).psi(np.atleast_1d(s_arr))
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


def _check_slope_radii(spec: ManifoldSpec, s: np.ndarray) -> None:
    """The domain and floor errors of phi_hat_prime."""
    D = diameter(spec)
    if not ((s > 0.0).all() and (s < D).all()):
        raise DomainError(f"phi_hat_prime needs 0 < s < D={D}, got s={s}")
    if (s < _phi_hat_floor(spec)).any():
        raise _unrepresentable(spec, float(np.min(s)), "phi_hat_prime")


def _log_interval_integrals(psi, hi: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Integrals of psi over every [hi_i exp(-width_i), hi_i], by `integrate_intervals`.

    Substituting s = hi exp(-w) keeps the integrand a smooth exponential
    even when psi carries the s^(1-d) blow-up, so plain adaptive panels
    converge quickly however small the lower end is.
    """
    def integrand(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        s = hi[rows] * np.exp(-w)
        return psi(s) * s

    return integrate_intervals(integrand, np.zeros_like(width), width)


@lru_cache(maxsize=None)
def _phi_hat_floor(spec: ManifoldSpec) -> float:
    """Smallest radius at which phi_hat can be represented in floating point.

    Below it x = sin^2(s r) is not normal, sin(s)^(d-1) in the slope psi
    underflows, or, for d > 2, phi_hat ~ r^(2-d) nears overflow (10 decades).
    """
    D = diameter(spec)
    d = dimension(spec)
    floor = max(D * 10.0 ** (-300.0 / (d - 1)), 1e-150 / _record(spec)[2])
    if d > 2:
        floor = max(floor, D * 10.0 ** (-270.0 / (d - 2)))
    return floor


def _cut_radius(spec: ManifoldSpec) -> float:
    """r_cut: D/100, or twice `_phi_hat_floor` where that is larger (d of 120 and up)."""
    return max(diameter(spec) / 100.0, 2.0 * _phi_hat_floor(spec))


def _unrepresentable(spec: ManifoldSpec, r: float, what: str) -> SingularityError:
    return SingularityError(
        f"{what} at r={r:g} on {spec} is not representable: radii below "
        f"{_phi_hat_floor(spec):g} underflow or overflow in floating point"
    )


def _overflow(spec: ManifoldSpec, r: float) -> SingularityError:
    return SingularityError(
        f"phi at r={r:g} on {spec} overflows a double: (phi_hat + c_m) / V "
        f"with V = {volume(spec):g}"
    )


def phi_hat(spec: ManifoldSpec, r: float) -> float:
    """phi_hat(r) = integral of (V - V(s))/v(s) over [r, D], by quadrature.

    The closed profiles never call it: it stays as their oracle, which the
    tests and `verify` compare them against.
    """
    D = diameter(spec)
    if r <= 0.0:
        raise DomainError(f"phi_hat needs r > 0, got r={r}")
    if r < _phi_hat_floor(spec):
        raise _unrepresentable(spec, r, "phi_hat")
    if r > _radius_limit(spec):
        raise DomainError(f"phi_hat needs r <= D={D}, got r={r}")
    if r >= D:
        return 0.0
    psi = _radial_ratios(spec).psi
    knee = D / 8.0
    if r >= knee:
        return integrate(psi, r, D)
    upper = integrate(psi, knee, D)
    return upper + float(
        _log_interval_integrals(psi, np.array([knee]), np.array([math.log(knee / r)]))[0]
    )


def _horner(coeffs: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] t^(j+1), by Horner's rule in place; with one coefficient
    its product overwrites t."""
    acc = np.multiply(t, coeffs[-1], out=None if len(coeffs) > 1 else t)
    for c in coeffs[-2::-1]:
        acc += c
        acc *= t
    return acc


def _polyval(coeffs: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] t^j as a new array."""
    if len(coeffs) == 1:
        return np.full_like(t, coeffs[0])
    return _horner(coeffs[1:], t.copy()) + coeffs[0]


@dataclass(frozen=True)
class _LaurentProfile:
    """phi_hat and its slope as functions of x = sin^2(s r), on a record with integer m.

    With w = 1/x and v = w - 1 = cot^2(s r), phi_hat = sum_j c_j v^j - b log x
    over j = 1..m-1, and h = -d phi_hat / dx = w (b + sum_j j a_j w^j), where
    sum_j c_j v^j = sum_j a_j (w^j - 1). Every coefficient is positive, so no
    two terms cancel, and phi_hat(D) is 0. Each coefficient is an exact
    rational rounded once; y is not read.
    """

    reads_y = False
    poly: tuple[float, ...]  # c_1, ..., c_(m-1)
    slope: tuple[float, ...]  # b, 1 a_1, ..., (m-1) a_(m-1)
    c_m: float
    s: float

    def phi_hat(self, x: np.ndarray, y: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """phi_hat at the flat array x, written to out (which may be x) and returned."""
        v = None
        if self.poly:
            v = np.divide(1.0, x)
            v -= 1.0
        np.log(x, out=out)
        out *= -self.slope[0]
        if v is not None:
            out += _horner(self.poly, v)
        return out

    def h(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """h = -d phi_hat / dx at the flat arrays (x, y)."""
        return _horner(self.slope, np.divide(1.0, x))

    def psi(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """psi = 2 s h sqrt(x y), as 2 s (h / w) sqrt(y / x): h / w grows like
        x^(1-m), as phi_hat does, so no factor overflows where psi is a double."""
        w = 1.0 / x
        over_w = _horner(self.slope[1:], w) + self.slope[0] if len(self.slope) > 1 else self.slope[0]
        return 2.0 * self.s * over_w * (np.sqrt(y) / np.sqrt(x))


@dataclass(frozen=True)
class _OddProfile:
    """phi_hat, h and psi of S^n or RP^n with odd n = 2k + 1, from (x, y).

    With c = cot r, v = c^2 and u = 1 + v = 1 / sin^2 r of the distance r,
    and t = pi - r on S^n (x = sin^2(r/2)) or pi/2 - r on RP^n (x = sin^2 r):

        phi_hat = const + A t c g(v) - R(v),   psi = A t u^k + c P(u),

    where g and P have positive coefficients and R negative ones, so on RP^n
    and on S^n up to r = pi/2 no two terms cancel. const is F(pi) on S^n and
    0 on RP^n. t comes from atan2 of sqrt(y) and sqrt(x). On S^n below y = 1/2
    (r past pi/2) the positive series h = sum_j e_j y^j, phi_hat =
    sum_j e_j y^(j+1) / (j+1) serves instead.
    """

    reads_y = True
    sphere: bool
    k: int
    A: float
    const: float
    g: tuple[float, ...]  # g_0 = 1, ..., g_(k-1)
    R: tuple[float, ...]  # R_1, ..., R_(k-1): R(v) = sum_j R_j v^j
    P: tuple[float, ...]  # P_0, ..., P_(k-1) in u
    series: tuple[float, ...]  # e_0, e_1, ... of h (S^n only)
    series_phi: tuple[float, ...]  # e_j / (j + 1), of y^(j+1) in phi_hat
    c_m: float
    s: float

    def _angles(self, x, y):
        """(t, c, v, sin^2 r) of the direct form."""
        t = np.arctan2(np.sqrt(y), np.sqrt(x))
        if self.sphere:
            t *= 2.0
            sin2 = 4.0 * x * y
            v = np.square(y - x)
            v /= sin2
        else:
            sin2 = x
            v = y / x
        return t, np.sqrt(v), v, sin2

    def _parts(self, x, y, direct, near):
        """direct(x, y), and on S^n near(x, y) below y = 1/2 instead, elementwise.

        The two sets are gathered by index, which costs a fraction of a
        boolean mask's gather on pairs in random order.
        """
        series = np.flatnonzero(y < 0.5) if self.sphere else ()
        if not len(series):
            return direct(x, y)
        if len(series) == y.size:
            return near(x, y)
        rest = np.flatnonzero(y >= 0.5)
        out = np.empty_like(x)
        out.put(rest, direct(x.take(rest), y.take(rest)))
        out.put(series, near(x.take(series), y.take(series)))
        return out

    def _phi_direct(self, x, y):
        t, c, v, _ = self._angles(x, y)
        out = _polyval(self.g, v)
        out *= c
        out *= t
        out *= self.A
        if self.R:
            out -= _horner(self.R, v)
        out += self.const
        return out

    def _psi_direct(self, x, y):
        t, c, _, sin2 = self._angles(x, y)
        u = np.divide(1.0, sin2)
        out = np.power(u, self.k)
        out *= t
        out *= self.A
        out += c * _polyval(self.P, u)
        return out

    def phi_hat(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """phi_hat at the flat arrays (x, y), written to out (which may be x) and returned."""
        out[...] = self._parts(x, y, self._phi_direct, lambda x, y: _horner(self.series_phi, y.copy()))
        return out

    def psi(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """psi = 2 s h sqrt(x y) at the flat arrays (x, y)."""
        return self._parts(x, y, self._psi_direct, lambda x, y: _polyval(self.series, y) * np.sqrt(x * y))

    def h(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """h = -d phi_hat / dx at the flat arrays (x, y)."""
        if self.sphere:  # 2 s sqrt(x y) = sqrt(x y)
            return self._parts(
                x, y, lambda x, y: self._psi_direct(x, y) / np.sqrt(x * y),
                lambda x, y: _polyval(self.series, y),
            )
        # psi / (2 sqrt(x y)) = (A (t / sqrt(y)) x^(-k-1/2) + P(1/x) / x) / 2,
        # where t / sqrt(y) -> 1 at y = 0 (r = D)
        root_y = np.sqrt(y)
        t = np.arctan2(root_y, np.sqrt(x))
        ratio = np.divide(t, root_y, out=np.ones_like(t), where=root_y > 0.0)
        u = np.divide(1.0, x)
        out = np.power(u, self.k)
        out *= ratio
        out *= self.A / np.sqrt(x)
        out += _polyval(self.P, u) * u
        out *= 0.5
        return out


def _flip(coeffs: list) -> list:
    """The coefficients of c(-s) from those of c(s)."""
    return [v if i % 2 == 0 else -v for i, v in enumerate(coeffs)]


def _laurent_numerator(spec: ManifoldSpec) -> list[Fraction]:
    """Q(x) with h = Q(x) / x^m on a record with integer m, exactly:
    h = 2F1(k, 1 - m; k + 1; y) / (4 s^2 k x^m) makes Q(1 - y) =
    sum_j C(m-1, j) (-y)^j / (k + j) / (4 s^2)."""
    m, k, s = _record(spec)
    m, k = int(m), Fraction(k)
    scale = 1 / (4 * Fraction(s) ** 2)
    return _recentre([scale * math.comb(m - 1, j) * (-1) ** j / (k + j) for j in range(m)])


@lru_cache(maxsize=None)
def _laurent_parts(spec: ManifoldSpec) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """(c, a, b): phi_hat = sum_j c_j v^j - b log x = sum_j a_j (w^j - 1) - b log x,
    exactly, j = 1..m-1 (c and a from index 1), for a record with integer m.

    phi_hat = int_x^1 Q / x^m = G(1) - G(x) / x^(m-1) - b log x, G and b from
    `manifold._antiderivative`, and -G(x) / x^(m-1) = sum_j a_j w^j
    re-expands in v = w - 1.
    """
    m = int(_record(spec)[0])
    g, b = _antiderivative(_laurent_numerator(spec), m)
    # a_j for j = 0..m-1, a_0 = 0: G has no x^(m-1) term
    a = [-g[m - 1 - j] for j in range(m)]
    # sum_j a_j ((1 + v)^j - 1) = sum_i c_i v^i, i >= 1: a(1 + v) is the
    # recentred a at s = -v, less its constant a(1)
    c = _flip(_recentre(a))
    c[0] = Fraction(0)
    return c, a, b


def _laurent_moment(spec: ManifoldSpec) -> Fraction:
    """c_m = -int_0^1 mu h dx = -int_0^1 D(1 - x) Q(x) dx of a record with
    integer m and k, where mu = x^m D(y)."""
    m, k, d = _integer_record(spec)
    size = m + k - 1  # D(1 - x) Q(x) has degree m + k - 2

    def padded(coeffs):
        return ([Fraction(v) for v in coeffs] + [Fraction(0)] * size)[:size]

    moment = _mul(_recentre(padded(d)), padded(_laurent_numerator(spec)))
    return -sum(v / (i + 1) for i, v in enumerate(moment))


def _laurent_profile(spec: ManifoldSpec) -> _LaurentProfile:
    """The Laurent form of a record with integer m, with its mean-zero constant.

    RP^(2j) (k = 1/2, no polynomial mu) takes the double cover of S^(2j):
    phi_hat_RP + c_RP = (phi_hat_S(r) + phi_hat_S(pi - r)) / 2 + c_S and
    phi_hat_RP(pi/2) = 0 give c_RP = c_S + phi_hat_S(pi/2), where x_S = 1/2:
    c_S + sum_j c_j + b log 2.
    """
    c, a, b = _laurent_parts(spec)
    if spec.family is Family.REAL_PROJ:
        cover = ManifoldSpec(Family.SPHERE, spec.n)
        c_s, _, b_s = _laurent_parts(cover)
        c_m = float(_laurent_moment(cover) + sum(c_s)) + float(b_s) * math.log(2.0)
    else:
        c_m = float(_laurent_moment(spec))
    return _LaurentProfile(
        poly=tuple(float(v) for v in c[1:]),
        slope=(float(b), *(float(j * v) for j, v in enumerate(a) if j)),
        c_m=c_m,
        s=_record(spec)[2],
    )


@lru_cache(maxsize=None)
def _odd_parts(k: int) -> tuple:
    """(A, g, R, P, F, c_RP) of S^(2k+1) and RP^(2k+1), exactly; see `_OddProfile`.

    int_r^pi sin^(2k) = A (pi - r) + cos r sum_j beta_j sin^(2j+1) r, so psi =
    that over sin^(2k) r is A (pi - r) u^k + c P(u) with P(u) = sum_j beta_j
    u^(k-1-j). With G(c) = int_0^c (1 + t^2)^(k-1) dt = c g(c^2), integrating
    psi by parts in c leaves phi_hat = F(pi) + A (pi - r) G(c) - R(c^2) with
    dR/dc = c (A g(v) - P(u)) / u: in u = 1 + v, `manifold._antiderivative`
    integrates N(u) / u, N = A g(u - 1) - P(u), and asserts that its log term,
    the one that would not vanish at the antipode, is 0. R(0) = G(0) = 0, so
    F(pi) = phi_hat(pi/2) = int_0^(pi/2) cos^(2k) t G(tan t) dt
    = sum_(i<k) 1 / (2k (2i + 1)). RP^n's mean-zero constant
    c_RP = -(1/V) int phi_hat v reduces to Wallis integrals, which sum to
    -H_k / (4k), H_k the harmonic number.
    """
    A = Fraction(math.comb(2 * k, k), 4**k)
    beta: list[Fraction] = []
    for i in range(k):
        beta = [v * Fraction(2 * i + 1, 2 * i + 2) for v in beta] + [Fraction(1, 2 * i + 2)]
    g = [Fraction(math.comb(k - 1, i), 2 * i + 1) for i in range(k)]
    P = beta[::-1]
    # N(u) = A g(u - 1) - P(u): g(u - 1) is the recentred g(-s) at s = u
    N = [A * gu - p for gu, p in zip(_recentre(_flip(g)), P)]
    H, log_term = _antiderivative(N, 1)
    if log_term:
        raise AssertionError(f"the odd profile of S^{2 * k + 1} keeps a log term")
    # R(v) = (H(1 + v) - H(1)) / 2, H(1 + v) the recentred H at s = -v
    R = [v / 2 for v in _flip(_recentre(H))]
    R[0] = Fraction(0)
    F = sum(Fraction(1, 2 * i + 1) for i in range(k)) / (2 * k)
    return A, g, R, P, F, -sum(Fraction(1, i) for i in range(1, k + 1)) / (4 * k)


def _antipodal_series(n: int) -> tuple[float, ...]:
    """e_j of h = sum_j e_j y^j = (2/n) 2F1(1, n; n/2 + 1; y) on S^n, as many as
    y = 1/2 needs.

    h = 2F1(1, m + k; k + 1; y) / (4 s^2 k) on every record; on S^n the terms
    are positive and their ratio e_(j+1) y / e_j = (n + j) y / (n/2 + 1 + j)
    falls with j, so the terms after e_J y^J sum to at most that term times
    rho / (1 - rho) with rho its ratio. The series stops once that is below
    2^-56 of its value at y = 1/2, and phi_hat's series, whose terms carry
    1 / (j + 1) more, below that too.
    """
    terms = [Fraction(2, n)]
    half = Fraction(1, 2)
    total, total_phi = terms[0], terms[0] * half
    while True:
        j = len(terms) - 1
        rho = (n + j) * half / (Fraction(n, 2) + 1 + j)
        tail = terms[-1] * half**j * rho / (1 - rho)
        if tail <= Fraction(1, 2**56) * total and tail * half / (j + 2) <= Fraction(1, 2**56) * total_phi:
            return tuple(float(v) for v in terms)
        terms.append(terms[-1] * (n + j) / (Fraction(n, 2) + 1 + j))
        total += terms[-1] * half ** (j + 1)
        total_phi += terms[-1] * half ** (j + 2) / (j + 2)


def _odd_profile(spec: ManifoldSpec) -> _OddProfile:
    """The odd form of S^n or RP^n, n = 2k + 1.

    By the double cover c_RP = c_S + phi_hat_S(pi/2) = c_S + F(pi) (see
    `_laurent_profile`).
    """
    k = (spec.n - 1) // 2
    A, g, R, P, F, c_rp = _odd_parts(k)
    sphere = spec.family is Family.SPHERE
    series = _antipodal_series(spec.n) if sphere else ()
    return _OddProfile(
        sphere=sphere,
        k=k,
        A=float(A),
        const=float(F) if sphere else 0.0,
        g=tuple(float(v) for v in g),
        R=tuple(float(v) for v in R[1:]),
        P=tuple(float(v) for v in P),
        series=series,
        series_phi=tuple(e / (j + 1) for j, e in enumerate(series)),
        c_m=float(c_rp - F if sphere else c_rp),
        s=_record(spec)[2],
    )


@lru_cache(maxsize=None)
def _closed_profile(spec: ManifoldSpec) -> _LaurentProfile | _OddProfile:
    """The closed form of phi_hat, its slope and c_m: Laurent for integer m, else odd."""
    if _record(spec)[0] == int(_record(spec)[0]):
        return _laurent_profile(spec)
    return _odd_profile(spec)


@dataclass(frozen=True, eq=False)
class RadialGreenProfile:
    """Evaluable radial Green function phi(r) = (phi_hat(r) + c_m) / V.

    `closed` is the manifold's closed form in x = sin^2(s r) and y = cos^2(s r).
    Immutable, so one profile serves concurrent callers.
    """

    spec: ManifoldSpec
    c_m: float
    r_cut: float
    closed: _LaurentProfile | _OddProfile

    @property
    def diameter(self) -> float:
        return diameter(self.spec)

    def phi_hat_values(self, r) -> np.ndarray:
        """Vectorized phi_hat over radii in (0, D]."""
        return self._values(np.atleast_1d(np.asarray(r, dtype=float)), phi=False)

    def phi(self, r):
        """Green profile value(s) phi(r); scalar in, scalar out."""
        r_arr = np.asarray(r, dtype=float)
        vals = self._values(np.atleast_1d(r_arr), phi=True)
        return float(vals[0]) if r_arr.ndim == 0 else vals.reshape(r_arr.shape)

    def _values(self, r: np.ndarray, phi: bool) -> np.ndarray:
        """phi_hat at r, or phi = (phi_hat + c_m) / V when `phi`, in chunks of `_SWEEP_CHUNK` radii.

        Each chunk is checked, evaluated and transformed in place while it
        is in cache, so no pass runs over the whole array. Every step is
        elementwise, so phi(r) is (phi_hat_values(r) + c_m) / V bit for bit,
        and a radius has the same bits alone and in any batch.
        """
        D, limit = self.diameter, _radius_limit(self.spec)
        s = self.closed.s
        V = volume(self.spec) if phi else 1.0
        flat = r.ravel()
        out = np.empty_like(flat)
        for lo in range(0, flat.size, _SWEEP_CHUNK):
            x, acc = flat[lo : lo + _SWEEP_CHUNK], out[lo : lo + _SWEEP_CHUNK]
            least, most = x.min(), x.max()
            if least <= 0.0:
                raise SingularityError("phi_hat diverges at r = 0")
            if most > limit:
                raise DomainError("radius beyond the manifold diameter")
            if least < _phi_hat_floor(self.spec):
                raise _unrepresentable(self.spec, float(least), "phi_hat")
            np.multiply(np.minimum(x, D) if most > D else x, s, out=acc)
            y = None
            if self.closed.reads_y:
                y = np.cos(acc)
                y *= y
            np.sin(acc, out=acc)
            np.square(acc, out=acc)
            self.closed.phi_hat(acc, y, out=acc)
            # phi_hat decreases, so the largest phi is at the smallest radius
            if phi and least < self.r_cut and not math.isfinite((float(acc.max()) + self.c_m) / V):
                raise _overflow(self.spec, float(least))
            if phi:
                acc += self.c_m
                acc /= V
        return out.reshape(r.shape)

    def phi_hat_prime_values(self, s):
        """-psi = -2 s h(x, y) sqrt(x y) from the closed form; array-valued like s.

        It raises the same domain and floor errors as `phi_hat_prime`, and is
        elementwise, so a radius has the same bits alone and in any batch.
        """
        s_arr = np.asarray(s, dtype=float)
        _check_slope_radii(self.spec, s_arr)
        x, y = _sin_cos_squares(self.spec, np.atleast_1d(s_arr).ravel())
        out = -self.closed.psi(x, y)
        return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)

    def grid_rows(self):
        """(r, phi_hat, phi) rows at 200 Chebyshev-Lobatto radii from r_cut to D."""
        nodes = lobatto_nodes(_PROFILE_ROWS, self.r_cut, self.diameter)
        ph = self.phi_hat_values(nodes)
        phi = (ph + self.c_m) / volume(self.spec)
        return zip(nodes.tolist(), ph.tolist(), phi.tolist())


def build_profile(spec: ManifoldSpec) -> RadialGreenProfile:
    """Construct the radial Green profile for a manifold from `_closed_profile`.

    Raises SingularityError where phi leaves double range on [r_cut, D]:
    phi decreases, so its values at r_cut and D bound it there.
    """
    D, V = diameter(spec), volume(spec)
    r_cut = _cut_radius(spec)
    closed = _closed_profile(spec)
    prof = RadialGreenProfile(spec=spec, c_m=closed.c_m, r_cut=r_cut, closed=closed)
    for r, value in ((r_cut, float(prof.phi_hat_values(r_cut)[0])), (D, 0.0)):
        if not math.isfinite((value + closed.c_m) / V):
            raise _overflow(spec, r)
    return prof


_PROFILE_CACHE: dict[ManifoldSpec, RadialGreenProfile] = {}
_CACHE_LOCK = threading.Lock()


def get_profile(spec: ManifoldSpec) -> RadialGreenProfile:
    """Default-parameter profile, built once per spec and shared."""
    with _CACHE_LOCK:
        prof = _PROFILE_CACHE.get(spec)
    if prof is None:
        prof = build_profile(spec)
        with _CACHE_LOCK:
            _PROFILE_CACHE.setdefault(spec, prof)
            prof = _PROFILE_CACHE[spec]
    return prof
