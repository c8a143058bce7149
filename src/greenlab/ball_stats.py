"""Ball-average kernels of the Green function.

Two radial kernels drive the finite-N energy bound. Integrating their
defining double integrals by parts leaves one smooth single integral each:

    K(M, a)     = (1/(V V(a))) int_0^a V(u) (V(a) - V(u)) / v(u) du
    Theta(M, a) = phi(a) + (1/(V V(a))) int_0^a V(r) psi(r) dr

where psi(r) = (V - V(r)) / v(r) is the slope magnitude of the Green
profile, evaluated without cancellation by green._decreasing_ratio. Both
integrands vanish like u at the pole and stay bounded up to the diameter,
so plain adaptive quadrature converges for every family and radius.

While V(a) <= V/2, K takes V(a) - V(u) directly. Past that it uses
v(u) psi(u) - (V - V(a)), with V - V(a) = v(a) psi(a): the direct
difference loses its digits near a = D, the rewritten one at small a.

The exact closed formulas (complex/quaternionic projective spaces and the
Cayley plane) are the preferred route where they exist and the
independent cross-check of the quadrature. They suffer heavy
floating-point cancellation for small sin(a); they are evaluated in
adaptive-precision arithmetic (mpmath) and rounded once at the end.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import mpmath as mp
import numpy as np

from .errors import DomainError, SingularityError, UnsupportedManifoldError
from .green import RadialGreenProfile, _radial_ratios
from .manifold import (
    Family,
    ManifoldSpec,
    ball_volume,
    ball_volume_fraction,
    bm_constant,
    diameter,
    dimension,
    sphere_area,
    volume,
)
from .special_math import QuadratureSettings, harmonic_number, integrate

__all__ = [
    "Method",
    "BallKernelValue",
    "k_quadrature",
    "k_closed",
    "theta_quadrature",
    "theta_closed",
    "k_value",
    "theta_value",
    "k_asymptotic",
    "theta_asymptotic",
    "ball_average_green",
    "spherical_mean",
    "cum_volume_over_area",
    "kernel_row",
]

# at rel_tol 1e-10 the K integral can stop early near the diameter (3e-7 off
# on OP^2 at D - 1e-3); 1e-12 settles it to the closed forms' last digits
_SETTINGS = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=3000)


class Method(Enum):
    QUADRATURE = "quadrature"
    CLOSED_FORM = "closed_form"


@dataclass(frozen=True)
class BallKernelValue:
    spec: ManifoldSpec
    a: float
    k_value: float
    theta_value: float
    method: Method

    def __post_init__(self):
        if not 0.0 < self.a <= diameter(self.spec):
            raise DomainError(f"radius {self.a} outside (0, D] for {self.spec}")


def cum_volume_over_area(
    spec: ManifoldSpec, r: float, settings: QuadratureSettings | None = None
) -> float:
    """H(r) = int_0^r V(u)/v(u) du for 0 <= r < D.

    Diverges at r = D on every family whose density vanishes there, hence
    the strict upper bound.
    """
    if r < 0.0 or r >= diameter(spec):
        raise DomainError(f"cumulative volume ratio needs 0 <= r < D, got {r}")
    return integrate(_radial_ratios(spec).rho, 0.0, r, settings or _SETTINGS)


def k_quadrature(
    spec: ManifoldSpec, a: float, settings: QuadratureSettings | None = None
) -> float:
    """K(M, a) by adaptive quadrature of its single-integral form."""
    D = diameter(spec)
    if not 0.0 < a <= D * (1.0 + 1e-12):
        raise DomainError(f"K needs a in (0, D], got {a}")
    a = min(a, D)
    V = volume(spec)
    va = ball_volume(spec, a)
    ratios = _radial_ratios(spec)
    if va <= 0.5 * V:

        def integrand(u: np.ndarray) -> np.ndarray:
            return ratios.rho(u) * (va - V * ball_volume_fraction(spec, u))

    else:
        # V - V(a) without the cancellation of the direct difference
        rest = sphere_area(spec, a) * float(ratios.psi(np.array([a]))[0]) if a < D else 0.0

        def integrand(u: np.ndarray) -> np.ndarray:
            return ratios.moment(u) - rest * ratios.rho(u) if rest else ratios.moment(u)

    return integrate(integrand, 0.0, a, settings or _SETTINGS) / (V * va)


def theta_quadrature(
    profile: RadialGreenProfile, a: float, settings: QuadratureSettings | None = None
) -> float:
    """Theta(M, a): mean of the Green function over a ball about its pole."""
    spec = profile.spec
    D = diameter(spec)
    if not 0.0 < a <= D * (1.0 + 1e-12):
        raise DomainError(f"Theta needs a in (0, D], got {a}")
    a = min(a, D)
    moment = integrate(_radial_ratios(spec).moment, 0.0, a, settings or _SETTINGS)
    return profile.phi(a) + moment / (volume(spec) * ball_volume(spec, a))


# ---------------------------------------------------------------------------
# Closed forms (complex/quaternionic projective spaces, Cayley plane)
# ---------------------------------------------------------------------------


def _closed_dps(n: int, a: float, D: float) -> int:
    # the formulas cancel through ~2n*log10(1/S) digits for small S = sin a
    s = math.sin(min(a, D))
    if s <= 0.0:
        raise DomainError("closed forms need a > 0")
    extra = int(2 * max(n, 8) * math.log10(1.0 / s)) + 10 if s < 1.0 else 10
    return min(40 + max(extra, 0), 600)


def k_closed(spec: ManifoldSpec, a: float) -> float:
    """The exact K(M, a) formulas in S = sin a, at adaptive precision."""
    D = diameter(spec)
    if spec.family in (Family.SPHERE, Family.REAL_PROJ):
        raise UnsupportedManifoldError(
            "no closed ball kernel exists for spheres or real projective spaces"
        )
    if not 0.0 < a <= D * (1.0 + 1e-12):
        raise DomainError(f"K needs a in (0, D], got {a}")
    n = spec.n
    V = volume(spec)
    if a >= D:
        # S -> 1 limit: the (1 - S^{2n}) log(1 - S^2) terms vanish
        if spec.family is Family.COMPLEX_PROJ:
            return harmonic_number(n) / (4.0 * n * V)
        if spec.family is Family.QUAT_PROJ:
            return harmonic_number(2 * n + 1) / (4.0 * (2 * n + 1) * V)
        return 83711.0 / 1219680.0 / V

    with mp.workdps(_closed_dps(2 * n if spec.family is Family.QUAT_PROJ else n, a, D)):
        S2 = mp.sin(mp.mpf(a)) ** 2
        log1mS2 = mp.log(1 - S2)
        if spec.family is Family.COMPLEX_PROJ:
            acc = mp.fsum(S2**k / k for k in range(1, n + 1))
            val = ((1 - S2**n) * log1mS2 + acc) / (4 * n * V * S2**n)
        elif spec.family is Family.QUAT_PROJ:
            m = 2 * n
            acc = mp.fsum(S2**k / k for k in range(1, m + 2))
            w = m * (1 - S2) + 1
            val = ((acc + log1mS2) / S2 ** (2 * n) - w * log1mS2) / (
                4 * (m + 1) * w * V
            )
        else:
            S = mp.sqrt(S2)
            poly = (
                815640 * S**20
                - 1826748 * S**18
                + 1019480 * S**16
                + 3465 * S**14
                + 3960 * S**12
                + 4620 * S**10
                + 5544 * S**8
                + 6930 * S**6
                + 9240 * S**4
                + 13860 * S**2
                + 27720
            )
            logpoly = 120 * S**22 - 396 * S**20 + 440 * S**18 - 165 * S**16 + 1
            denom = 1219680 * V * S**16 * (-120 * S**6 + 396 * S**4 - 440 * S**2 + 165)
            val = (S**2 * poly + 27720 * logpoly * mp.log(1 - S**2)) / denom
        return float(val)


def theta_closed(spec: ManifoldSpec, a: float) -> float:
    """The exact Theta(M, a) formulas in S = sin a, at adaptive precision."""
    D = diameter(spec)
    if spec.family in (Family.SPHERE, Family.REAL_PROJ):
        raise UnsupportedManifoldError(
            "no closed ball kernel exists for spheres or real projective spaces"
        )
    if not 0.0 < a <= D * (1.0 + 1e-12):
        raise DomainError(f"Theta needs a in (0, D], got {a}")
    n = spec.n
    V = volume(spec)
    with mp.workdps(_closed_dps(2 * n if spec.family is Family.QUAT_PROJ else n, a, D)):
        S2 = mp.sin(mp.mpf(min(a, D))) ** 2
        logS = mp.log(S2) / 2
        if spec.family is Family.COMPLEX_PROJ:
            acc = mp.fsum(
                mp.mpf(1) / (k * (n - k) * S2**k) for k in range(1, n)
            )
            val = (-harmonic_number(n - 1) - logS + n * acc / 2) / (2 * n * V)
        elif spec.family is Family.QUAT_PROJ:
            m = 2 * n
            w = m * (1 - S2) + 1
            acc = mp.fsum(
                mp.mpf(1) / (k * (k + 1) * (m - k) * S2**k) for k in range(1, m)
            )
            val = (
                n * acc / (2 * w)
                - mp.mpf(harmonic_number(m - 1)) / (2 * (m + 1))
                - logS / (2 * (m + 1))
                - (1 + 2 * (n - 1) * S2) / (4 * (m + 1) * w)
            ) / V
        else:
            S = mp.sqrt(S2)
            poly = (
                101420 * S**20
                - 353334 * S**18
                + 427500 * S**16
                - 190150 * S**14
                + 9900 * S**12
                + 2310 * S**10
                + 924 * S**8
                + 495 * S**6
                + 330 * S**4
                + 275 * S**2
                + 330
            )
            denom = 9240 * S**14 * (-120 * S**6 + 396 * S**4 - 440 * S**2 + 165)
            val = (poly / denom - logS / 22) / V
        return float(val)


# ---------------------------------------------------------------------------
# Route selection, memoization, asymptotics
# ---------------------------------------------------------------------------

_HAS_CLOSED = (Family.COMPLEX_PROJ, Family.QUAT_PROJ, Family.CAYLEY_PLANE)

_K_MEMO: dict[tuple[ManifoldSpec, float], float] = {}
_THETA_MEMO: dict[tuple[ManifoldSpec, float], float] = {}
_MEMO_LOCK = threading.Lock()


def k_value(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) through the preferred route: closed form else quadrature."""
    key = (spec, float(a))
    with _MEMO_LOCK:
        if key in _K_MEMO:
            return _K_MEMO[key]
    val = k_closed(spec, a) if spec.family in _HAS_CLOSED else k_quadrature(spec, a)
    with _MEMO_LOCK:
        _K_MEMO.setdefault(key, val)
    return val


def theta_value(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a) through the preferred route: closed form else quadrature."""
    key = (spec, float(a))
    with _MEMO_LOCK:
        if key in _THETA_MEMO:
            return _THETA_MEMO[key]
    if spec.family in _HAS_CLOSED:
        val = theta_closed(spec, a)
    else:
        from .green import get_profile

        val = theta_quadrature(get_profile(spec), a)
    with _MEMO_LOCK:
        _THETA_MEMO.setdefault(key, val)
    return val


def k_asymptotic(spec: ManifoldSpec, a: float) -> float:
    """Small-radius law K = a^2 / (2 (d+2) V)."""
    return a * a / (2.0 * (dimension(spec) + 2) * volume(spec))


def theta_asymptotic(spec: ManifoldSpec, a: float) -> float:
    """Small-radius law Theta = d B_M a^(2-d) / (2 V); requires d > 2."""
    d = dimension(spec)
    return d * bm_constant(spec) * a ** (2 - d) / (2.0 * volume(spec))


def kernel_row(spec: ManifoldSpec, a: float) -> BallKernelValue:
    """Both kernels at (spec, a) via the preferred route."""
    method = Method.CLOSED_FORM if spec.family in _HAS_CLOSED else Method.QUADRATURE
    return BallKernelValue(spec, a, k_value(spec, a), theta_value(spec, a), method)


# ---------------------------------------------------------------------------
# Ball and sphere averages of G
# ---------------------------------------------------------------------------


def ball_average_green(
    profile: RadialGreenProfile, t: float, a: float
) -> float:
    """Mean of G(p, .) over the ball B(p0, a) with t = d_R(p0, p).

    Equals phi(t) + K(M, a) for t >= a; for t < a the overlap correction
    subtracts a double integral, collapsed here to a single one by
    swapping the integration order. t = 0 is rejected: phi diverges there
    while the true ball mean is the finite Theta(M, a).
    """
    spec = profile.spec
    D = diameter(spec)
    if t == 0.0:
        raise SingularityError(
            "the ball average at t = 0 is Theta(M, a); phi diverges pointwise"
        )
    if not 0.0 < t <= D:
        raise DomainError(f"need 0 < t <= D, got t={t}")
    if not 0.0 < a < D:
        raise DomainError(f"need 0 < a < D, got a={a}")
    base = profile.phi(t) + k_value(spec, a)
    if t >= a:
        return base
    va = ball_volume(spec, a)

    def overlap(u: np.ndarray) -> np.ndarray:
        return (va - ball_volume(spec, u)) / sphere_area(spec, u)

    # only the base's absolute accuracy is needed: near t = a, va - V(u) is rounding noise
    settings = QuadratureSettings(rel_tol=1e-12, abs_tol=max(1e-15 * va * abs(base), 1e-300))
    correction = integrate(overlap, t, a, settings) / va
    return base - correction


def spherical_mean(profile: RadialGreenProfile, t: float, a: float) -> float:
    """Mean of G(p, .) over the geodesic sphere S(p0, a), for a < t = d_R(p, p0).

    Closed identity: phi(t) + (1/V) int_0^a V(u)/v(u) du.
    """
    spec = profile.spec
    D = diameter(spec)
    if not 0.0 < t <= D:
        raise DomainError(f"need 0 < t <= D, got t={t}")
    if not 0.0 < a < t:
        raise DomainError(
            f"the sphere-mean identity holds for a < t only, got a={a}, t={t}"
        )
    return profile.phi(t) + cum_volume_over_area(spec, a) / volume(spec)
