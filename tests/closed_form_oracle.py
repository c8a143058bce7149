"""Reference values of the closed K and Theta formulas in mpmath.

These are the exact formulas in S = sin a for the complex and
quaternionic projective spaces and the Cayley plane, evaluated at enough
digits that their cancellation for small S does not show, and rounded
once at the end. The library evaluates the same formulas in double
precision; the tests compare the two.
"""

from __future__ import annotations

import math

import mpmath as mp

from greenlab.manifold import Family, ManifoldSpec, diameter, volume


def _dps(n: int, a: float) -> int:
    # the formulas cancel through ~2n*log10(1/S) digits for small S = sin a
    s = math.sin(a)
    extra = int(2 * max(n, 8) * math.log10(1.0 / s)) + 10 if s < 1.0 else 10
    return min(40 + max(extra, 0), 600)


def _degree(spec: ManifoldSpec) -> int:
    return 2 * spec.n if spec.family is Family.QUAT_PROJ else spec.n


def k_oracle(spec: ManifoldSpec, a: float) -> float:
    """K(M, a) from its closed formula at adaptive precision."""
    n = spec.n
    V = volume(spec)
    a = min(a, diameter(spec))
    with mp.workdps(_dps(_degree(spec), a)):
        S2 = mp.sin(mp.mpf(a)) ** 2
        log1mS2 = mp.log(1 - S2)
        if spec.family is Family.COMPLEX_PROJ:
            acc = mp.fsum(S2**k / k for k in range(1, n + 1))
            val = ((1 - S2**n) * log1mS2 + acc) / (4 * n * V * S2**n)
        elif spec.family is Family.QUAT_PROJ:
            m = 2 * n
            acc = mp.fsum(S2**k / k for k in range(1, m + 2))
            w = m * (1 - S2) + 1
            val = ((acc + log1mS2) / S2 ** (2 * n) - w * log1mS2) / (4 * (m + 1) * w * V)
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
            val = (S**2 * poly + 27720 * logpoly * log1mS2) / denom
        return float(val)


def theta_oracle(spec: ManifoldSpec, a: float) -> float:
    """Theta(M, a) from its closed formula at adaptive precision."""
    n = spec.n
    V = volume(spec)
    a = min(a, diameter(spec))
    with mp.workdps(_dps(_degree(spec), a)):
        S2 = mp.sin(mp.mpf(a)) ** 2
        logS = mp.log(S2) / 2
        if spec.family is Family.COMPLEX_PROJ:
            acc = mp.fsum(mp.mpf(1) / (k * (n - k) * S2**k) for k in range(1, n))
            val = (-mp.harmonic(n - 1) - logS + n * acc / 2) / (2 * n * V)
        elif spec.family is Family.QUAT_PROJ:
            m = 2 * n
            w = m * (1 - S2) + 1
            acc = mp.fsum(mp.mpf(1) / (k * (k + 1) * (m - k) * S2**k) for k in range(1, m))
            val = (
                n * acc / (2 * w)
                - mp.harmonic(m - 1) / (2 * (m + 1))
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
