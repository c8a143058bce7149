"""Radial Green profiles on the harmonic manifolds.

The Green function of each manifold is radial, G(p, q) = phi(d_R(p, q)),
and phi is recovered from the volume data alone:

    phi(r)   = (phi_hat(r) + C) / V,
    phi_hat(r) = integral over [r, D] of (V - V(s)) / v(s) ds,

where the integrand is the negative of the radial derivative of the
profile and C is fixed by the mean-zero property of G.

Closed route. Where the record (m, k, s) of `manifold` has integer m
and k (S^(2j), CP^n, HP^n, OP^2), phi_hat is elementary in x = sin^2(s r):
with mu = x^m D(y) the ball fraction, h = (1 - mu) / (4 s^2 x (1 - x) mu')
is a Laurent polynomial, so

    phi_hat = sum_j c_j v^j - b log x,   v = 1/x - 1 = cot^2(s r),
    psi     = 2 s h(x) sqrt(x (1 - x)),  c_m = -int_0^1 mu h dx,

with positive coefficients derived once per manifold in exact rational
arithmetic (`_closed_profile`): -log x on S^2, (1/x - 1 - log x)/8 on CP^2
and (1/x - 1 - 2 log x)/24 on HP^1. Such a profile builds no table, and
evaluates every radius down to the representable floor elementwise in x.
Its rounding error grows with m, because x^(1-m) amplifies the rounding
of x; a record whose estimate (`_rounding_estimate`) exceeds 1e-14 of
|phi_hat| + |c_m|, m > 30 (S^n past n = 60, CP^n past 30, HP^n past 15),
keeps the tables below, as do odd S^n and every RP^n.

Tabled route. All quadrature here runs on smooth integrands: the
r^(2-d) blow-up toward r = 0 is tamed by integrating in the variable
w = log(r_cut / r), where the integrand grows like a smooth exponential.

A built profile tabulates phi_hat on [r_cut, D] with panels of 17
Chebyshev-Lobatto nodes (see `chebyshev`), storing phi_hat r^(d-2), or
phi_hat with the log term removed when d = 2, so the stored function is
tame on each panel. Its breakpoints start geometric on [r_cut, D/2] and
uniform on [D/2, D], and a panel is halved while its highest Chebyshev
coefficients exceed 1e-14 of the local error scale (|phi_hat| + |c_m|)
r^(d-2): on high-dimensional spheres, where phi_hat r^(d-2) spans many
decades, one polynomial over [r_cut, D] would be off by more than phi_hat
itself. The node values are filled from the integrals of psi between
neighbouring nodes, which one `special_math.integrate_intervals` call
computes for all new intervals at once: one batched G7/K15 panel each, and
bisection only for an interval whose panel misses `integrate`'s tolerance.
r_cut is D/100, or twice the radius below which phi_hat is not
representable in floating point where that is larger (d of 120 and up).

The panels are only the build source. Radii in [r_cut, D] are evaluated
from a cell table fitted to them (`chebyshev.CellTable`): S uniform cells
of degree-5 polynomials, found by arithmetic instead of a search, with S
doubled from 2048 until the cells match the panels within 1e-14 of the
same error scale at off-grid check points. A radius r below r_cut takes
phi_hat(r_cut) from the cells plus the integral of psi over [r, r_cut],
all such radii of a call in one batched quadrature; below the
representable floor it raises SingularityError.

The slope phi_hat' = -psi of a tabled profile has a cell table of its
own, which `RadialGreenProfile.phi_hat_prime_values` builds on its first
call, so work that never evaluates phi' never pays for it. It stores psi r^(d-1)
on [r_cut, D], fitted to the direct psi by the same doubling rule, within
1e-14 of its largest magnitude (2048 cells on S^3, RP^2 to RP^40 and S^41,
4096 on S^61). The fit samples half a cell past D, where psi takes its odd
mirror psi(D + e) = -psi(D - e), its analytic continuation in every
family. Radii below r_cut take the direct psi. The optimizer reads phi'
from this table; `phi_hat_prime` is the direct form and the table's
oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .chebyshev import CellTable, ChebyshevInterpolant, lobatto_nodes
from .errors import DomainError, SingularityError
from .manifold import (
    ManifoldSpec,
    _antiderivative,
    _ball_complement,
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

# main table: panels of _PANEL_NODES Lobatto nodes, first laid out geometrically
# on [r_cut, D/2] and uniformly on [D/2, D], then halved (geometrically below
# D/2) while the two highest Chebyshev coefficients of the stored function
# exceed _TAIL_TOL of the error scale (|phi_hat| + |c_m|) r^(d-2)
_PANEL_NODES = 17
_GEOMETRIC_PANELS = 8
_UNIFORM_PANELS = 4
_TAIL_TOL = 1e-14
_MAX_SPLIT_ROUNDS = 8
# the cell table evaluated in place of the main table: _MIN_CELLS cells,
# doubled up to _MAX_CELLS until they match the main table within _TAIL_TOL
# of the same error scale at the _CELL_CHECKS offsets (in cell widths) from
# every centre: both ends of each cell, where the interpolation error peaks
_MIN_CELLS = 2048
_MAX_CELLS = 1 << 16
_CELL_CHECKS = np.array([-0.499, 0.499])
# radii per psi call while the slope table is fitted, which bounds psi's
# temporaries (16 KB an array) whatever the number of cells
_SLOPE_SLICE = 2048
_PROFILE_ROWS = 200  # radii listed by `grid_rows`
# radii per chunk of `phi` and `phi_hat_values`: one energy block of pairs,
# 512 KB an array, which stays in a 2 MB L2 cache. Against whole-array
# passes, chunks of 8192 radii cost 4 to 8 % more at 20 000 to 55 000 radii
# in dimensions 3 and 4 (a dozen numpy calls a chunk); chunks of 65536 cost
# 0 to 5 % less there and 12 to 22 % less at 10^6 radii
_SWEEP_CHUNK = 1 << 16
# betainc's relative error below half the mean grows with p + q (5.8e-16 at
# p = q = 4, 1.1e-15 at 12, 1.9e-15 at 20 against mpmath); through psi it takes
# the slope table on S^40 to S^80 from 2048-8192 cells to 65536
_CF_ORDER = 24
# a record with integer m and k takes the closed route where the closed
# phi_hat's rounding-error estimate (`_rounding_estimate`) is at most this
# share of |phi_hat| + |c_m|
_CLOSED_TOL = 1e-14
_UNIT_ROUNDOFF = 2.0**-53


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
    `_phi_hat_floor`. This is the direct form, the oracle of the slope table
    that `RadialGreenProfile.phi_hat_prime_values` reads.
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
    converge quickly however small the lower end is. A caller passes
    width = log(hi / lo) as it computes it: `math.log` and `np.log` can
    differ in the last bit.
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
    """phi_hat(r) = integral of (V - V(s))/v(s) over [r, D], by quadrature."""
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


@dataclass(frozen=True)
class _ClosedProfile:
    """phi_hat and its slope as functions of x = sin^2(s r), on a record with integer m and k.

    With w = 1/x and v = w - 1 = cot^2(s r), phi_hat = sum_j c_j v^j - b log x
    over j = 1..m-1, and h = -d phi_hat / dx = w (b + sum_j j a_j w^j), where
    sum_j c_j v^j = sum_j a_j (w^j - 1); the slope is psi = 2 s h sqrt(x (1 - x)).
    Every coefficient is positive, so no two terms cancel, and phi_hat(D)
    is 0. Each coefficient is an exact rational rounded once, and each
    evaluation is elementwise.
    """

    poly: tuple[float, ...]  # c_1, ..., c_(m-1)
    slope: tuple[float, ...]  # b, 1 a_1, ..., (m-1) a_(m-1)
    c_m: float
    s: float

    def phi_hat(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
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

    def h(self, x: np.ndarray) -> np.ndarray:
        """h = -d phi_hat / dx at the flat array x."""
        w = np.divide(1.0, x)
        return _horner(self.slope, w)

    def psi(self, r: np.ndarray) -> np.ndarray:
        """psi = 2 s h(x) sqrt(x y) at radii r, x = sin^2(s r) and y = cos^2(s r), as
        2 s (h / w) cot(s r): h / w grows like x^(1-m), as phi_hat does, so no
        factor overflows where psi is a double."""
        sin, cos = np.sin(self.s * r), np.cos(self.s * r)
        w = 1.0 / (sin * sin)
        over_w = _horner(self.slope[1:], w) + self.slope[0] if len(self.slope) > 1 else self.slope[0]
        return 2.0 * self.s * over_w * (cos / sin)


def _horner(coeffs: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] t^(j+1), by Horner's rule in place; with one coefficient
    its product overwrites t."""
    acc = np.multiply(t, coeffs[-1], out=None if len(coeffs) > 1 else t)
    for c in coeffs[-2::-1]:
        acc += c
        acc *= t
    return acc


def _rounding_estimate(m: int, b: float, c_m: float) -> float:
    """A bound on the closed phi_hat's rounding error over x in (0, 1], relative to |phi_hat| + |c_m|.

    As `ball_stats._closed_form` rates a route: the sum of |coefficient *
    term| over |value|, in units of 2^-53, here with each term c_j v^j
    counted 3j + 1 times: x = sin^2(s r) takes two roundings and
    v = 1/x - 1 a third, and v^j multiplies v's relative error by j. log x
    is off by an ulp of 1 near x = 1, so b log x counts |log x| + 1 times.
    Every term is positive, so the ratio is at most the largest of the
    terms' own, 3 (m - 1) + 1 and b (|log x| + 1) / (b |log x| + |c_m|); the
    first is reached toward x = 0, where the leading term takes over.
    """
    return max(3.0 * m - 2.0, b / abs(c_m), 1.0) * _UNIT_ROUNDOFF


@lru_cache(maxsize=None)
def _closed_profile(spec: ManifoldSpec) -> _ClosedProfile | None:
    """The closed phi_hat, slope and c_m of a record with integer m and k, derived exactly;
    None for a half-integer record or where `_rounding_estimate` exceeds _CLOSED_TOL.

    In x = sin^2(s r), phi_hat = int_x^1 h with h = (1 - mu) / (4 s^2 x (1 - x) mu'),
    mu = x^m D(y) the ball fraction and mu' = c' x^(m-1) (1 - x)^(k-1), c' = m D(1).
    1 - mu = y^k q(y) (`manifold._ball_complement`) makes h = Q(x) / (4 s^2 c' x^m)
    with Q(x) = q(1 - x), so phi_hat = (G(1) - G(x) / x^(m-1) - b log x) / (4 s^2 c'),
    G and b from `manifold._antiderivative`, and -G(x) / x^(m-1) = sum_j a_j w^j
    re-expands in v = w - 1. The mean-zero constant is
    c_m = -int_0^1 mu h dx = -int_0^1 D(1 - x) Q(x) dx / (4 s^2 c').
    """
    record = _integer_record(spec)
    if record is None:
        return None
    m, k, d = record
    s = _record(spec)[2]
    scale = 1 / (4 * Fraction(s) ** 2 * m * sum(d))
    size = m + k - 1  # D(1 - x) Q(x) has degree m + k - 2

    def padded(coeffs):
        return ([Fraction(v) for v in coeffs] + [Fraction(0)] * size)[:size]

    big_q = _recentre([Fraction(v) for v in _ball_complement(m, k, d)])
    g, b = _antiderivative(big_q, m)
    # a_j for j = 0..m-1, a_0 = 0: G has no x^(m-1) term
    a = [-g[m - 1 - j] * scale for j in range(m)]
    # sum_j a_j ((1 + v)^j - 1) = sum_i c_i v^i, i >= 1
    poly = [sum(a[j] * math.comb(j, i) for j in range(i, m)) for i in range(1, m)]
    moment = _mul(_recentre(padded(d)), padded(big_q))
    c_m = float(-scale * sum(v / (i + 1) for i, v in enumerate(moment)))
    b_scaled = float(b * scale)
    if _rounding_estimate(m, b_scaled, c_m) > _CLOSED_TOL:
        return None
    return _ClosedProfile(
        poly=tuple(float(v) for v in poly),
        slope=(b_scaled, *(float(j * v) for j, v in enumerate(a) if j)),
        c_m=c_m,
        s=s,
    )


@dataclass(frozen=True, eq=False)
class RadialGreenProfile:
    """Evaluable radial Green function phi(r) = (phi_hat(r) + c_m) / V.

    A record with integer m and k evaluates the closed form `closed` in
    x = sin^2(s r); the others read the cells. Immutable once built, apart
    from the slope table of a tabled profile, which the first call of
    `phi_hat_prime_values` builds under a lock, so one profile serves
    concurrent callers.
    """

    spec: ManifoldSpec
    c_m: float
    r_cut: float
    # phi_hat r^(d-2) on [r_cut, D] (d = 2: phi_hat + log term), in uniform cells
    # fitted to the panels of `_build_phi_hat_tables`; None on the closed route
    _cells: CellTable | None
    _log_coeff: float  # V / vol(S^(d-1)); the d=2 log-head slope
    closed: _ClosedProfile | None = None
    # psi r^(d-1) on [r_cut, D] in uniform cells, built on first use
    _slope: CellTable | None = field(default=None, init=False, repr=False)
    _slope_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

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
        is in cache, so no pass runs over the whole array. The closed route
        evaluates phi_hat at x = sin^2(s r) for every radius down to the
        representable floor. The cells read radii below r_cut at r_cut
        first, and those then gain the integral of psi up to r_cut, so a
        chunk never splits into gathered parts. Every step is elementwise,
        so phi(r) is (phi_hat_values(r) + c_m) / V bit for bit, and a radius
        has the same bits alone and in any batch.
        """
        d = dimension(self.spec)
        D, limit = self.diameter, _radius_limit(self.spec)
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
            if self.closed is not None:
                if least < _phi_hat_floor(self.spec):
                    raise _unrepresentable(self.spec, float(least), "phi_hat")
                np.multiply(np.minimum(x, D) if most > D else x, self.closed.s, out=acc)
                np.sin(acc, out=acc)
                np.square(acc, out=acc)
                self.closed.phi_hat(acc, out=acc)
                # phi_hat decreases, so the largest phi is at the smallest radius
                if phi and least < self.r_cut and not math.isfinite((float(acc.max()) + self.c_m) / V):
                    raise _overflow(self.spec, float(least))
            else:
                clamped = np.maximum(x, self.r_cut) if least < self.r_cut else x
                if most > D:
                    clamped = np.minimum(clamped, D)
                self._cells(clamped, out=acc)
                _phi_hat_from_stored(acc, clamped, d, self._log_coeff)
                if least < self.r_cut:
                    below = np.flatnonzero(x < self.r_cut)
                    acc[below] += self._integrals_to_cut(x[below])
                    # phi_hat decreases, so the largest phi below r_cut is at the largest phi_hat
                    if phi and not math.isfinite((float(acc[below].max()) + self.c_m) / V):
                        raise _overflow(self.spec, float(x[below].min()))
            if phi:
                acc += self.c_m
                acc /= V
        return out.reshape(r.shape)

    def _integrals_to_cut(self, r: np.ndarray) -> np.ndarray:
        """The integrals of psi over every [r_i, r_cut], by one batched quadrature."""
        least = float(r.min())
        if least < _phi_hat_floor(self.spec):
            raise _unrepresentable(self.spec, least, "phi_hat")
        hi = np.full_like(r, self.r_cut)
        return _log_interval_integrals(_radial_ratios(self.spec).psi, hi, np.log(hi / r))

    def phi_hat_prime_values(self, s):
        """`phi_hat_prime` from the closed form or the slope table; array-valued like s.

        It raises the same domain and floor errors. The closed route takes
        -psi = -2 s h(x) sqrt(x y) at every radius. Otherwise radii in
        [r_cut, D) read the slope cells, built on the first call, and radii
        below r_cut take the direct psi. All are elementwise, so a radius has
        the same bits alone and in any batch.
        """
        s_arr = np.asarray(s, dtype=float)
        _check_slope_radii(self.spec, s_arr)
        flat = np.atleast_1d(s_arr).ravel()
        if self.closed is not None:
            out = -self.closed.psi(flat)
            return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)
        d = dimension(self.spec)

        def from_cells(x):
            return self._slope_cells()(x) * -(x ** (1 - d))

        below = flat < self.r_cut
        if not below.any():
            out = from_cells(flat)
        else:
            out = np.empty_like(flat)
            out[~below] = from_cells(flat[~below])
            out[below] = -_radial_ratios(self.spec).psi(flat[below])
        return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)

    def _slope_cells(self) -> CellTable:
        if self._slope is None:
            with self._slope_lock:
                if self._slope is None:
                    object.__setattr__(self, "_slope", _fit_slope_cells(self.spec, self.r_cut))
        return self._slope

    def grid_rows(self):
        """(r, phi_hat, phi) rows at 200 Chebyshev-Lobatto radii from r_cut to D."""
        nodes = lobatto_nodes(_PROFILE_ROWS, self.r_cut, self.diameter)
        ph = self.phi_hat_values(nodes)
        phi = (ph + self.c_m) / volume(self.spec)
        return zip(nodes.tolist(), ph.tolist(), phi.tolist())


def _tail(values: np.ndarray) -> np.ndarray:
    """Largest of the two highest Chebyshev coefficients of each row of Lobatto values."""
    m = values.shape[1]
    theta = np.pi * np.arange(m - 1, -1, -1) / (m - 1)  # ascending nodes: x_j = cos(theta_j)
    weights = np.full(m, 2.0 / (m - 1))
    weights[[0, -1]] *= 0.5
    basis = np.cos(np.outer([m - 2, m - 1], theta)) * weights
    basis[1] *= 0.5
    return np.max(np.abs(values @ basis.T), axis=1)


def _phi_hat_from_stored(stored: np.ndarray, x: np.ndarray, d: int, log_coeff: float) -> np.ndarray:
    """phi_hat at x from the tables' stored function, phi_hat r^(d-2), or
    phi_hat + log_coeff log r when d = 2; computed in place in stored, which is returned."""
    if d > 2:
        stored *= x ** (2 - d)
    else:
        stored -= log_coeff * np.log(x)
    return stored


def _fit_cells(f, lo: float, hi: float, close: Callable[[np.ndarray, np.ndarray], bool]) -> CellTable:
    """The fewest cells of f on [lo, hi], doubling from _MIN_CELLS up to _MAX_CELLS,
    whose values y at the check points x pass close(x, y)."""
    cells = _MIN_CELLS
    while True:
        table = CellTable.fit(f, lo, hi, cells)
        x = np.clip((table.centres[:, None] + table.h * _CELL_CHECKS).ravel(), lo, hi)
        if cells >= _MAX_CELLS or close(x, table(x)):
            return table
        cells *= 2


def _fit_phi_hat_cells(main: ChebyshevInterpolant, c_m: float, d: int, log_coeff: float) -> CellTable:
    """Cells fitted to the main table, within _TAIL_TOL of |phi_hat| + |c_m|."""

    def close(x, y):
        exact = _phi_hat_from_stored(main(x), x, d, log_coeff)
        defect = np.abs(_phi_hat_from_stored(y, x, d, log_coeff) - exact)
        return np.all(defect <= _TAIL_TOL * (np.abs(exact) + abs(c_m)))

    return _fit_cells(main, main.nodes[0], main.nodes[-1], close)


def _fit_slope_cells(spec: ManifoldSpec, r_cut: float) -> CellTable:
    """Cells of psi(r) r^(d-1) on [r_cut, D], within _TAIL_TOL of its largest magnitude.

    `CellTable.fit` samples half a cell past D, where psi is undefined. There
    psi takes its analytic continuation, the odd mirror psi(D + e) = -psi(D - e):
    psi is proportional to D - s near the antipode of S^n, and to cos s in
    the other families. psi runs on _SLOPE_SLICE radii at a time, so its
    temporaries do not grow with the number of cells.
    """
    D = diameter(spec)
    d = dimension(spec)
    psi = _radial_ratios(spec).psi

    def stored(x):
        out = np.empty(x.size)
        for start in range(0, x.size, _SLOPE_SLICE):
            s = x[start : start + _SLOPE_SLICE]
            mirrored = psi(np.minimum(s, 2.0 * D - s))
            out[start : start + s.size] = np.where(s > D, -1.0, 1.0) * mirrored * s ** (d - 1)
        return out

    def close(x, y):
        exact = stored(x)
        return np.all(np.abs(y - exact) <= _TAIL_TOL * np.abs(exact).max())

    return _fit_cells(stored, r_cut, D, close)


def _build_phi_hat_tables(spec, c_m, r_cut):
    """The main table of phi_hat on [r_cut, D], split into panels until each resolves it,
    and its cell table.

    Node values come from the integrals of psi between neighbouring nodes,
    summed from D down: over whole panels first, then within each panel,
    so no sum runs over more than a few dozen terms.
    """
    D = diameter(spec)
    d = dimension(spec)
    psi = _radial_ratios(spec).psi
    m = _PANEL_NODES
    log_coeff = _volume_ratio(spec)

    knee = 0.5 * D if r_cut < 0.5 * D else r_cut
    breaks = np.concatenate([
        np.geomspace(r_cut, knee, _GEOMETRIC_PANELS + 1)[:-1] if knee > r_cut else [],
        np.linspace(knee, D, _UNIFORM_PANELS + 1),
    ])
    breaks[0], breaks[-1] = r_cut, D

    integrals = {}  # (lo, hi) of a panel -> its m-1 node-interval integrals
    for round_ in range(_MAX_SPLIT_ROUNDS):
        keys = list(zip(breaks[:-1], breaks[1:]))
        nodes = np.array([lobatto_nodes(m, lo, hi) for lo, hi in keys])
        new = np.array([key not in integrals for key in keys])
        lo_r, hi_r = nodes[new, :-1].ravel(), nodes[new, 1:].ravel()
        fresh = _log_interval_integrals(psi, hi_r, np.log(hi_r / lo_r)).reshape(-1, m - 1)
        integrals.update(zip([key for key, n in zip(keys, new) if n], fresh))

        panels = np.array([integrals[key] for key in keys])
        # value at each node minus the value at its panel's right end
        within = np.cumsum(panels[:, ::-1], axis=1)[:, ::-1]
        right = np.append(np.cumsum(within[:0:-1, 0])[::-1], 0.0)
        vals = np.column_stack([within, np.zeros(len(keys))]) + right[:, None]
        if d > 2:
            stored = vals * nodes ** (d - 2)
            scale = (vals + abs(c_m)) * nodes ** (d - 2)
        else:
            stored = vals + log_coeff * np.log(nodes)
            scale = vals + abs(c_m)
        coarse = _tail(stored) > _TAIL_TOL * scale.min(axis=1)
        if not coarse.any() or round_ == _MAX_SPLIT_ROUNDS - 1:
            break
        lo, hi = breaks[:-1][coarse], breaks[1:][coarse]
        mids = np.where(hi <= knee, np.sqrt(lo * hi), 0.5 * (lo + hi))
        breaks = np.sort(np.concatenate([breaks, mids]))

    flat = np.append(stored[:, :-1].ravel(), stored[-1, -1])
    main = ChebyshevInterpolant(np.append(nodes[:, :-1].ravel(), D), flat, m)
    return main, _fit_phi_hat_cells(main, c_m, d, log_coeff)


def build_profile(spec: ManifoldSpec) -> RadialGreenProfile:
    """Construct the radial Green profile for a manifold: the closed form
    where `_closed_profile` gives one, else the cell table.

    Raises SingularityError where phi leaves double range on [r_cut, D]:
    phi decreases, so its values at r_cut and D bound it there.
    """
    D, V = diameter(spec), volume(spec)
    r_cut = _cut_radius(spec)
    closed = _closed_profile(spec)
    if closed is not None:
        c_m, cells = closed.c_m, None
    else:
        # mean-zero constant: Theta(M, D) = 0 gives C = -(1/V) int_0^D V(s) psi(s) ds
        c_m = -integrate(_radial_ratios(spec).moment, 0.0, D) / V
        cells = _build_phi_hat_tables(spec, c_m, r_cut)[1]
    prof = RadialGreenProfile(
        spec=spec, c_m=c_m, r_cut=r_cut, _cells=cells, _log_coeff=_volume_ratio(spec), closed=closed
    )
    for r, value in ((r_cut, float(prof.phi_hat_values(r_cut)[0])), (D, 0.0)):
        if not math.isfinite((value + c_m) / V):
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
