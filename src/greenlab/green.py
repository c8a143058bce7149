"""Radial Green profiles on the harmonic manifolds.

The Green function of each manifold is radial, G(p, q) = phi(d_R(p, q)),
and phi is recovered from the volume data alone:

    phi(r)   = (phi_hat(r) + C) / V,
    phi_hat(r) = integral over [r, D] of (V - V(s)) / v(s) ds,

where the integrand is the negative of the radial derivative of the
profile and C is fixed by the mean-zero property of G.

Every profile is evaluated in closed form at (x, y) = (sin^2(s r),
cos^2(s r)) of the record (m, k, s) (`records`): phi_hat and
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
even in pi - r, takes over there, phi_hat its integral in y: the F and H
of S^n's record, its own mirror (`records.record_series`).

r_cut = max(D/100, 2 x the representable floor) only sets where `grid_rows`
starts. The quadrature `phi_hat` and `phi_hat_prime` are the oracles the
tests and `verify` check the profile against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import records
from .chebyshev import lobatto_nodes
from .errors import DomainError, SingularityError
from .manifold import (
    ManifoldSpec,
    _density,
    _radius_limit,
    _record,
    _sin_cos_squares,
    diameter,
    dimension,
    volume,
)
from .special_math import incomplete_beta, integrate

__all__ = [
    "RadialGreenProfile",
    "phi_hat_prime",
    "phi_hat",
    "build_profile",
    "get_profile",
]

_PROFILE_ROWS = 200  # radii listed by `grid_rows`
# radii per chunk of `phi` and `phi_hat_values`, 512 KB an array, each chunk
# checked and evaluated in place while it is in cache. One phi call on 10^6
# radii, best of 15 on a 2-core Intel Xeon: 61 to 63 ms in chunks against 123
# to 131 ms in one pass on S^3, 40 to 42 against 52 to 64 ms on RP^3; CP^2,
# S^2 and HP^1 take 20 to 26 ms either way
_SWEEP_CHUNK = 1 << 16


def _radial_ratios(spec: ManifoldSpec, r: np.ndarray):
    """(mu, rho, psi, moment) at radii r <= D from one incomplete beta:
    mu = V(r)/V, the bits of `ball_volume_fraction`, rho = V(r)/v(r), the
    profile slope psi = (V - V(r))/v(r), and moment = V(r) psi, the integrand
    of Theta and of the mean-zero constant: the oracles of the closed profiles
    and kernels. psi is rho on the mirrored record (k, m, s) at y = cos^2(s r).
    Each ratio is sqrt(x y) F / (2 s m), or / (2 s k), on its side of the
    mean, F the continued fraction of `special_math.incomplete_beta`, so it
    underflows only with the ratio, and takes 1 minus the fraction on the
    other. The moment is the near ratio times the far fraction.
    """
    if (r > _radius_limit(spec)).any():
        raise DomainError(f"psi needs s <= D = {diameter(spec)} on {spec}, got {float(r.max())!r}")
    m, k, step = record = _record(spec)
    x, y = _sin_cos_squares(spec, r)
    mu, rest, above, F = incomplete_beta(m, k, x, y)
    near = np.sqrt(x * y) * F / (2.0 * step * np.where(above, k, m))
    fraction = np.where(above, mu, rest)  # the far one
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        far = records.volume_ratio(record) * fraction / _density(spec, x, y)
    return mu, np.where(above, far, near), np.where(above, near, far), volume(spec) * (near * fraction)


def phi_hat_prime(spec: ManifoldSpec, s):
    """Radial derivative of phi_hat: -(V - V(s)) / v(s), negative on (0, D).

    Array-valued like s; like phi_hat, raises `SingularityError` below
    `_phi_hat_floor`. This is the direct form by the incomplete beta, the
    oracle of the profile's closed slope: -2 s h(x, y) sqrt(x y).
    """
    s_arr = np.asarray(s, dtype=float)
    D = diameter(spec)
    if not ((s_arr > 0.0).all() and (s_arr < D).all()):
        raise DomainError(f"phi_hat_prime needs 0 < s < D={D}, got s={s_arr}")
    if (s_arr < _phi_hat_floor(spec)).any():
        raise _unrepresentable(spec, float(np.min(s_arr)), "phi_hat_prime")
    out = -_radial_ratios(spec, np.atleast_1d(s_arr))[2]
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


@functools.cache
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
    if not r > 0.0:
        raise DomainError(f"phi_hat needs r > 0, got r={r}")
    if r < _phi_hat_floor(spec):
        raise _unrepresentable(spec, r, "phi_hat")
    if not r <= _radius_limit(spec):
        raise DomainError(f"phi_hat needs r <= D={D}, got r={r}")
    if r >= D:
        return 0.0

    def integrand(s: np.ndarray) -> np.ndarray:  # psi
        return _radial_ratios(spec, s)[2]

    knee = D / 8.0
    if r >= knee:
        return integrate(integrand, r, D)
    upper = integrate(integrand, knee, D)

    def log_integrand(w: np.ndarray) -> np.ndarray:
        # s = knee exp(-w) keeps the integrand a smooth exponential even where
        # psi carries the s^(1-d) blow-up, so plain adaptive panels converge
        # quickly however small r is
        s = knee * np.exp(-w)
        return integrand(s) * s

    return upper + integrate(log_integrand, 0.0, math.log(knee / r))


def _horner(coeffs: tuple[float, ...], t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j coeffs[j] t^(j+1), by Horner's rule in place in out, which is not
    t; with no out, a new array, or with one coefficient t itself."""
    if out is None and len(coeffs) == 1:
        out = t
    acc = np.multiply(t, coeffs[-1], out=out)
    for c in coeffs[-2::-1]:
        acc += c
        acc *= t
    return acc


def _polyval(coeffs: tuple[float, ...], t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j coeffs[j] t^j, written to out (a new array by default), which is not t."""
    if out is None:
        out = np.empty_like(t)
    if len(coeffs) == 1:
        out.fill(coeffs[0])
        return out
    _horner(coeffs[1:], t, out)
    out += coeffs[0]
    return out


@dataclass(frozen=True, eq=False)
class RadialGreenProfile:
    """Evaluable radial Green function phi(r) = (phi_hat(r) + c_m) / V.

    Each manifold's profile is its closed form, `_LaurentProfile` or
    `_OddProfile`: the form gives phi_hat(x, y, out) and its slope
    h(x, y) = -d phi_hat / dx (psi = 2 s h sqrt(x y)) at x = sin^2(s r),
    y = cos^2(s r), and `reads_y` says whether phi_hat reads y; this class
    takes radii. Immutable, so one profile serves
    concurrent callers.
    """

    spec: ManifoldSpec
    c_m: float

    @property
    def diameter(self) -> float:
        return diameter(self.spec)

    @property
    def s(self) -> float:
        """The s of the record (m, k, s): x = sin^2(s r)."""
        return _record(self.spec)[2]

    @property
    def r_cut(self) -> float:
        return _cut_radius(self.spec)

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
        s = self.s
        V = volume(self.spec) if phi else 1.0
        flat = r.ravel()
        out = np.empty_like(flat)
        for lo in range(0, flat.size, _SWEEP_CHUNK):
            x, acc = flat[lo : lo + _SWEEP_CHUNK], out[lo : lo + _SWEEP_CHUNK]
            least, most = x.min(), x.max()
            if least <= 0.0:
                raise SingularityError("phi_hat diverges at r = 0")
            if not most <= limit:  # or a nan, which min and max carry
                raise DomainError("radius beyond the manifold diameter")
            if least < _phi_hat_floor(self.spec):
                raise _unrepresentable(self.spec, float(least), "phi_hat")
            np.multiply(np.minimum(x, D) if most > D else x, s, out=acc)
            y = None
            if self.reads_y:
                y = np.cos(acc)
                y *= y
            np.sin(acc, out=acc)
            np.square(acc, out=acc)
            self.phi_hat(acc, y, out=acc)
            # phi_hat decreases, so the largest phi is at the smallest radius
            if phi and least < self.r_cut and not math.isfinite((float(acc.max()) + self.c_m) / V):
                raise _overflow(self.spec, float(least))
            if phi:
                acc += self.c_m
                acc /= V
        return out.reshape(r.shape)

    def grid_rows(self):
        """(r, phi_hat, phi) rows at 200 Chebyshev-Lobatto radii from r_cut to D."""
        nodes = lobatto_nodes(_PROFILE_ROWS, self.r_cut, self.diameter)
        ph = self.phi_hat_values(nodes)
        phi = (ph + self.c_m) / volume(self.spec)
        return zip(nodes.tolist(), ph.tolist(), phi.tolist())


@dataclass(frozen=True, eq=False)
class _LaurentProfile(RadialGreenProfile):
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


@dataclass(frozen=True, eq=False)
class _OddProfile(RadialGreenProfile):
    """phi_hat and h of S^n or RP^n with odd n = 2k + 1, from (x, y).

    With c = cot r, v = c^2 and u = 1 + v = 1 / sin^2 r of the distance r,
    and t = pi - r on S^n (x = sin^2(r/2)) or pi/2 - r on RP^n (x = sin^2 r):

        phi_hat = const + A t c g(v) - R(v),   psi = A t u^k + c P(u),

    where g and P have positive coefficients and R negative ones, so on RP^n
    and on S^n up to r = pi/2 no two terms cancel. const is F(pi) on S^n and
    0 on RP^n. t comes from atan2 of sqrt(y) and sqrt(x). On S^n below y = 1/2
    (r past pi/2) the positive series h = sum_j e_j y^j, phi_hat =
    sum_j H_(j+1) y^(j+1) = int_0^y h serves instead.
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
    series_phi: tuple[float, ...]  # H_1, H_2, ..., of y^(j+1) in phi_hat

    def _angles(self, x, y):
        """(t, c, v, sin^2 r) of the direct form, each step written into an
        array of its own; sin^2 r is x itself on RP^n."""
        t = np.sqrt(y)
        c = np.sqrt(x)
        np.arctan2(t, c, out=t)
        if self.sphere:
            t *= 2.0
            sin2 = np.multiply(4.0, x)
            sin2 *= y
            v = np.subtract(y, x)
            np.square(v, out=v)
            v /= sin2
        else:
            sin2 = x
            v = np.divide(y, x)
        np.sqrt(v, out=c)
        return t, c, v, sin2

    def _parts(self, x, y, direct, near, out=None):
        """direct(x, y, out), and on S^n near(x, y, out) below y = 1/2 instead,
        elementwise, written to out (a new array when None), which may be x.

        The two sets are gathered by index, which costs a fraction of a
        boolean mask's gather on pairs in random order.
        """
        series = np.flatnonzero(y < 0.5) if self.sphere else ()
        if not len(series):
            return direct(x, y, out)
        if len(series) == y.size:
            return near(x, y, out)
        rest = np.flatnonzero(y >= 0.5)
        if out is None:
            out = np.empty_like(x)
        # each gather reads x before out (which may be x) is written there
        out.put(rest, direct(x.take(rest), y.take(rest), None))
        out.put(series, near(x.take(series), y.take(series), None))
        return out

    def _phi_direct(self, x, y, out=None):
        """The direct form of phi_hat, written to out (a new array when None),
        which may be x: `_angles` reads x before out is written."""
        t, c, v, _ = self._angles(x, y)
        if len(self.g) > 1:  # g_0 = 1, so a lone g is no factor
            c *= _polyval(self.g, v)
        out = np.multiply(c, t, out=t if out is None else out)
        out *= self.A
        if self.R:
            out -= _horner(self.R, v, c)
        if self.const:  # 0 on RP^n
            out += self.const
        return out

    def _psi_direct(self, x, y, out=None):
        t, c, _, sin2 = self._angles(x, y)
        u = np.divide(1.0, sin2)
        out = np.power(u, self.k, out=out)
        out *= t
        out *= self.A
        out += c * _polyval(self.P, u)
        return out

    def phi_hat(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """phi_hat at the flat arrays (x, y), written to out (which may be x) and returned."""
        return self._parts(x, y, self._phi_direct, lambda x, y, out: _horner(self.series_phi, y, out), out)

    def h(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """h = -d phi_hat / dx at the flat arrays (x, y)."""
        if self.sphere:  # 2 s sqrt(x y) = sqrt(x y)
            return self._parts(
                x, y, lambda x, y, out: np.divide(self._psi_direct(x, y), np.sqrt(x * y), out=out),
                lambda x, y, out: _polyval(self.series, y, out),
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


def _laurent_profile(spec: ManifoldSpec) -> _LaurentProfile:
    """The Laurent form of a record with integer m, with its mean-zero constant."""
    record = _record(spec)
    c, a, b = records.laurent_parts(record)
    return _LaurentProfile(
        spec=spec,
        poly=tuple(float(v) for v in c[1:]),
        slope=(float(b), *(float(j * v) for j, v in enumerate(a) if j)),
        c_m=records.mean_zero_constant(record),
    )


def _odd_profile(spec: ManifoldSpec) -> _OddProfile:
    """The odd form of S^n or RP^n, n = 2k + 1, with its mean-zero constant."""
    k = (spec.n - 1) // 2
    A, g, R, P, F, _ = records.odd_parts(k)
    record = _record(spec)
    sphere = records.sphere_cover(record) == record
    # past pi/2 on S^n, h = F / m and phi_hat = H (4 s^2 = 1) of its record,
    # which is its own mirror, at y
    f, H, _ = records.record_series(record) if sphere else ((), (0.0,), ())
    return _OddProfile(
        spec=spec,
        sphere=sphere,
        k=k,
        A=float(A),
        const=float(F) if sphere else 0.0,
        g=tuple(float(v) for v in g),
        R=tuple(float(v) for v in R[1:]),
        P=tuple(float(v) for v in P),
        series=tuple(v / record[0] for v in f),
        series_phi=H[1:],
        c_m=records.mean_zero_constant(record),
    )


def build_profile(spec: ManifoldSpec) -> RadialGreenProfile:
    """The closed form of a manifold's profile, with its mean-zero constant
    c_m: the Laurent form for integer m, else the odd form.

    Raises SingularityError where phi leaves double range on [r_cut, D]:
    phi decreases, so its values at r_cut and D bound it there.
    """
    m = _record(spec)[0]
    prof = _laurent_profile(spec) if m == int(m) else _odd_profile(spec)
    V = volume(spec)
    for r, value in ((prof.r_cut, float(prof.phi_hat_values(prof.r_cut)[0])), (prof.diameter, 0.0)):
        if not math.isfinite((value + prof.c_m) / V):
            raise _overflow(spec, r)
    return prof


@functools.cache
def get_profile(spec: ManifoldSpec) -> RadialGreenProfile:
    """The profile of a manifold, built once per spec and shared."""
    return build_profile(spec)  # by the module's name, so a wrapper set on it sees every build
