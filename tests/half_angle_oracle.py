"""Reference values of V(r)/V, rho and psi on S^n and RP^n in mpmath.

They come from the half-angle forms V(r)/V = I_x(n/2, n/2) on S^n and
2 I_x(n/2, n/2) on RP^n, x = sin^2(r/2), and v(r) = omega sin^(n-1) r,
independently of the Jacobi records the library derives them from.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from greenlab.manifold import Family, ManifoldSpec, diameter, dimension

# S^n and RP^n, n = 3, 40, 101
SPECS = [ManifoldSpec(f, n) for f in (Family.SPHERE, Family.REAL_PROJ) for n in (3, 40, 101)]


def radii(spec: ManifoldSpec) -> np.ndarray:
    """41 radii in [0.01 D, 0.99 D], then 0.995, 0.999 and 0.9999 D."""
    D = diameter(spec)
    return np.concatenate([np.linspace(0.01 * D, 0.99 * D, 41), D * np.array([0.995, 0.999, 0.9999])])


def tolerance(spec: ManifoldSpec, ulps: float) -> float:
    """(d + 4) ulps units of 1e-16, relative: V(r)/V and its ratios hold a power
    of about d of sin(s r), whose rounding they carry d-fold whatever evaluates them."""
    return (dimension(spec) + 4) * ulps * 1e-16


def _fractions(spec: ManifoldSpec, r: float) -> tuple:
    """(V(r)/V, (V - V(r))/V), each without cancellation at 60 digits."""
    a = mp.mpf(spec.n) / 2
    half = mp.mpf(r) / 2
    lower = mp.betainc(a, a, 0, mp.sin(half) ** 2, regularized=True)
    if spec.family is Family.SPHERE:
        return lower, mp.betainc(a, a, 0, mp.cos(half) ** 2, regularized=True)
    return 2 * lower, 1 - 2 * lower


def fraction(spec: ManifoldSpec, r: float):
    with mp.workdps(60):
        return _fractions(spec, r)[0]


def ratios(spec: ManifoldSpec, r: float) -> tuple:
    """(rho, psi) = (V(r), V - V(r)) / v(r)."""
    with mp.workdps(60):
        n = spec.n
        V = 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
        if spec.family is Family.REAL_PROJ:
            V /= 2
        omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        area = omega * mp.sin(mp.mpf(r)) ** (n - 1)
        lower, upper = _fractions(spec, r)
        return V * lower / area, V * upper / area
