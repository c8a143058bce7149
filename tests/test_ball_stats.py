"""Ball kernels: quadrature vs closed forms, asymptotics, average identities."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import greenlab
from greenlab import ball_stats as bs
from greenlab import green, manifold, records, special_math
from greenlab import verify as vf
from greenlab.errors import DomainError, QuadratureError, SingularityError
from greenlab.green import get_profile
from greenlab.manifold import (
    Family,
    ManifoldSpec,
    _record,
    ball_volume,
    ball_volume_fraction,
    diameter,
    dimension,
    sphere_area,
    volume,
)
from greenlab.special_math import vol_unit_sphere

import single_integral_oracle
from closed_form_oracle import k_oracle, theta_oracle

S2 = ManifoldSpec(Family.SPHERE, 2)
S3 = ManifoldSpec(Family.SPHERE, 3)
RP2 = ManifoldSpec(Family.REAL_PROJ, 2)
RP3 = ManifoldSpec(Family.REAL_PROJ, 3)
CP2 = ManifoldSpec(Family.COMPLEX_PROJ, 2)
HP1 = ManifoldSpec(Family.QUAT_PROJ, 1)
OP2 = ManifoldSpec(Family.CAYLEY_PLANE, 2)

SRC = os.path.dirname(os.path.dirname(greenlab.__file__))

CLOSED_SPECS = (
    [ManifoldSpec(Family.COMPLEX_PROJ, n) for n in (1, 2, 3, 5, 10)]
    + [ManifoldSpec(Family.QUAT_PROJ, n) for n in (1, 2, 3, 5)]
    + [OP2]
)
# the near-diameter radii come last so the earlier cases keep their test ids
CROSS_GRID = [(spec, a) for spec in CLOSED_SPECS for a in (0.2, 0.6, 1.0, 1.4)] + [
    (spec, diameter(spec) - eps) for spec in CLOSED_SPECS for eps in (1e-3, 1e-6)
]


def _sphere_k_mpmath(n: int, a: float) -> float:
    """K(S^n, a) = int_0^a V(u) (V(a) - V(u)) / v(u) du / (V V(a)) by mpmath at 40 digits.

    V(u) and V - V(u) each come from the incomplete beta function at the pole
    nearer to u, so no difference cancels. The integrand is scaled to K's
    size, as mp.quad's tolerance is absolute.
    """
    with mpmath.workdps(40):
        h = mpmath.mpf(n) / 2
        V = 2 * mpmath.pi ** (h + 0.5) / mpmath.gamma(h + 0.5)
        omega = 2 * mpmath.pi**h / mpmath.gamma(h)

        def volumes(u):  # (V(u), V - V(u))
            if u < mpmath.pi / 2:
                inner = V * mpmath.betainc(h, h, 0, mpmath.sin(u / 2) ** 2, regularized=True)
                return inner, V - inner
            outer = V * mpmath.betainc(h, h, 0, mpmath.cos(u / 2) ** 2, regularized=True)
            return V - outer, outer

        a = mpmath.mpf(a)
        va, rest_a = volumes(a)

        def integrand(u):
            vu, rest_u = volumes(u)
            return vu * (rest_u - rest_a) / (omega * mpmath.sin(u) ** (n - 1) * V * va)

        breaks = [b for b in (0, 1.3, mpmath.pi / 2, 1.85, 2.6) if b < a] + [a]
        return float(mpmath.quad(integrand, breaks))


class TestKQuadrature:
    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2])
    def test_small_radius_law(self, spec):
        a = 1e-2 * diameter(spec)
        assert bs.k_quadrature(spec, a) / vf._k_asymptotic(spec, a) == pytest.approx(
            1.0, abs=0.01
        )

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_complex_full_ball_limit(self, n):
        # S -> 1 limit of the closed formula: H_n / (4 n V)
        spec = ManifoldSpec(Family.COMPLEX_PROJ, n)
        expected = math.fsum(1.0 / j for j in range(1, n + 1)) / (4 * n * volume(spec))
        assert bs.k_quadrature(spec, diameter(spec)) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, OP2])
    def test_positive(self, spec):
        for frac in (0.1, 0.5, 1.0):
            assert bs.k_quadrature(spec, frac * diameter(spec)) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bs.k_quadrature(S2, 0.0)
        with pytest.raises(DomainError):
            bs.k_quadrature(S2, 4.0)

    @pytest.mark.parametrize("n", [16, 20, 30, 40])
    def test_high_dimensional_spheres(self, n):
        spec = ManifoldSpec(Family.SPHERE, n)
        for a in (0.5, diameter(spec)):
            k = bs.k_quadrature(spec, a)
            assert math.isfinite(k) and k > 0.0

    def test_s40_against_mpmath(self):
        # mpmath at 50 digits, V(a) from mp.betainc
        k = bs.k_quadrature(ManifoldSpec(Family.SPHERE, 40), 0.5)
        assert k == pytest.approx(53570.656460745508, rel=1e-9)

    def test_s40_against_mpmath_to_roundoff(self):
        # an integral of magnitude 2e-24 before the 1/(V V(a)) factor: the
        # panel error is scaled by the integrand's own variation (resasc), so
        # it runs to rel_tol instead of stopping 3.5e-10 off
        k = bs.k_quadrature(ManifoldSpec(Family.SPHERE, 40), 0.5)
        assert k == pytest.approx(53570.656460745508, rel=1e-13)

    @pytest.mark.parametrize("spec", [ManifoldSpec(Family.SPHERE, 60), ManifoldSpec(Family.REAL_PROJ, 60)])
    def test_finite_where_the_density_underflows(self, spec):
        # v(u) ~ u^59 underflows at the first panel's nodes near u = 1e-6
        a = 1e-4 * diameter(spec)
        k = bs.k_quadrature(spec, a)
        theta = bs.theta_quadrature(spec, a)
        assert math.isfinite(k) and k > 0.0
        assert math.isfinite(theta) and theta > 0.0
        assert k == pytest.approx(vf._k_asymptotic(spec, a), rel=1e-6)

    @pytest.mark.parametrize("fraction", [0.995, 0.999])
    def test_s150_near_the_diameter_against_mpmath(self, fraction):
        # v(a) underflows to 0 there while rho(u) overflows near D, and the
        # far integrand falls to zero within (D - a) / 150 of a
        spec = ManifoldSpec(Family.SPHERE, 150)
        a = fraction * diameter(spec)
        assert bs.k_quadrature(spec, a) == pytest.approx(_sphere_k_mpmath(150, a), rel=1e-10)

    @pytest.mark.parametrize("fraction", [0.999, 0.9999])
    @pytest.mark.parametrize("n", [30, 60, 100])
    def test_high_dimensional_sphere_near_the_diameter_against_mpmath(self, n, fraction):
        # v(a) is in the normal range, but the far integrand still falls to
        # zero within (D - a) / n of a: one row over [0, a] was 9e-10 to
        # 2e-8 off here, the layer lying between the first panel's last node and a
        spec = ManifoldSpec(Family.SPHERE, n)
        a = fraction * diameter(spec)
        assert bs.k_quadrature(spec, a) == pytest.approx(_sphere_k_mpmath(n, a), rel=1e-13)

    def test_independent_of_earlier_calls(self):
        code = (
            "import sys\n"
            "from greenlab import ball_stats as bs\n"
            "from greenlab.manifold import ManifoldSpec\n"
            "s3 = ManifoldSpec.from_token('s', 3)\n"
            "for a in sys.argv[1:]:\n"
            "    bs.k_quadrature(s3, float(a))\n"
            "print(repr(bs.k_quadrature(s3, 1.3)))\n"
        )

        def fresh(*radii):
            return subprocess.run(
                [sys.executable, "-c", code, *radii],
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": SRC},
            ).stdout

        assert fresh() == fresh("0.2", "0.5", "2.0", "3.0")


class TestClosedForms:
    @pytest.mark.parametrize(("spec", "a"), CROSS_GRID)
    def test_k_cross_validation(self, spec, a):
        closed = bs.k_closed(spec, a)
        quad = bs.k_quadrature(spec, a)
        assert quad == pytest.approx(closed, rel=1e-7)

    @pytest.mark.parametrize(("spec", "a"), CROSS_GRID)
    def test_theta_cross_validation(self, spec, a):
        closed = bs.theta_closed(spec, a)
        quad = bs.theta_quadrature(spec, a)
        assert quad == pytest.approx(closed, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize(
        "spec", [S2, S3, ManifoldSpec(Family.SPHERE, 10), RP2, RP3, ManifoldSpec(Family.REAL_PROJ, 4)], ids=str
    )
    def test_spheres_and_real_projective_spaces_match_the_quadrature(self, spec):
        # Theta below 1.4, where the quadrature's Theta does not cancel
        for a in (0.2, 0.6, 1.0, 1.4, diameter(spec) - 1e-3):
            assert bs.k_quadrature(spec, a) == pytest.approx(bs.k_closed(spec, a), rel=1e-10, abs=0)
            if a <= 1.4:
                assert bs.theta_quadrature(spec, a) == pytest.approx(bs.theta_closed(spec, a), rel=1e-10, abs=0)

    @pytest.mark.parametrize("spec", [CP2, HP1, OP2])
    def test_theta_mean_zero_at_diameter(self, spec):
        # the full-ball mean of a mean-zero kernel vanishes
        assert abs(bs.theta_closed(spec, diameter(spec))) < 1e-12
        prof = get_profile(spec)
        scale = abs(prof.c_m) / volume(spec)
        assert abs(bs.theta_quadrature(spec, diameter(spec))) < 1e-8 * max(scale, 1.0)

    def test_complex_theta_cancellation_identity(self):
        # (n/2) sum 1/(k(n-k)) telescopes to H_{n-1}: exact zero at S = 1
        for n in (2, 3, 7, 10):
            acc = 0.5 * n * sum(1.0 / (k * (n - k)) for k in range(1, n))
            assert acc == pytest.approx(math.fsum(1.0 / j for j in range(1, n)), rel=1e-13, abs=0)

    def test_small_radius_cancellation_regime(self):
        # tiny sin(a) drives the direct closed formula through massive
        # cancellation; the series branch must still match quadrature
        spec = ManifoldSpec(Family.COMPLEX_PROJ, 10)
        a = 0.05
        assert bs.k_closed(spec, a) == pytest.approx(
            bs.k_quadrature(spec, a), rel=1e-7
        )


class TestClosedFormsAgainstMpmath:
    """The double-precision closed forms against the same formulas in mpmath."""

    SPECS = [ManifoldSpec(Family.COMPLEX_PROJ, n) for n in (2, 10, 30)] + [
        ManifoldSpec(Family.QUAT_PROJ, n) for n in (1, 5, 15)
    ] + [OP2]

    @staticmethod
    def radii(spec):
        D = diameter(spec)
        return [float(a) for a in np.geomspace(1e-4 * D, D, 200)]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_k(self, spec):
        worst = max(
            abs(bs.k_closed(spec, a) / k_oracle(spec, a) - 1.0) for a in self.radii(spec)
        )
        assert worst < 1e-13

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_theta(self, spec):
        floor = 1e-14 / volume(spec)
        for a in self.radii(spec):
            want = theta_oracle(spec, a)
            assert abs(bs.theta_closed(spec, a) - want) <= 1e-13 * abs(want) + floor, a


class TestSphereKernelsAgainstMpmath:
    """The closed K and Theta of S^n and RP^n against their single-integral
    forms in mpmath (`single_integral_oracle`), at 50 geometric radii from
    1e-4 D to D. Theta vanishes at D, so its floor is absolute, at the scale
    max(1, |c_m|) / V of the profile."""

    SPECS = [ManifoldSpec(Family.SPHERE, n) for n in (2, 3, 4, 5, 10, 21, 41)] + [
        ManifoldSpec(Family.REAL_PROJ, n) for n in (2, 3, 4, 5, 21)
    ]

    @staticmethod
    def values(spec):
        radii = tuple(np.geomspace(1e-4, 1.0, 50) * diameter(spec))
        return np.array(radii), *map(np.array, single_integral_oracle.kernels(spec, radii))

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_k(self, spec):
        radii, k, _ = self.values(spec)
        assert np.all(np.abs(bs.k_values(spec, radii) - k) <= 1e-13 * k)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_theta(self, spec):
        radii, _, theta = self.values(spec)
        floor = 1e-14 * max(1.0, abs(get_profile(spec).c_m)) / volume(spec)
        assert np.all(np.abs(bs.theta_values(spec, radii) - theta) <= 1e-13 * np.abs(theta) + floor)


def _exact_series(m, k, s, count):
    """F, H and r of the record (m, k, s) to count terms, in Fractions:
    f_i = (m + k)_i / (m + 1)_i, h_i = f_(i-1) / (4 s^2 m i), and r from its
    equation x y r' + (m y - k x) r = x y F^2 / (4 s^2 m) coefficient by
    coefficient, with F^2 by convolution."""
    m, k, s = Fraction(m), Fraction(k), Fraction(s)
    four = 4 * s * s * m
    f = [Fraction(1)]
    for i in range(1, count):
        f.append(f[-1] * (m + k + i - 1) / (m + i))
    h = [Fraction(0)] + [f[i - 1] / (four * i) for i in range(1, count)]
    g = [sum(f[j] * f[i - j] for j in range(i + 1)) for i in range(count)]
    r = [Fraction(0)]
    for j in range(1, count):
        r.append(((j - 1 + m + k) * r[-1] + (g[j - 1] - (g[j - 2] if j > 1 else 0)) / four) / (j + m))
    return f, h, r


# (m, k, s) of S^n, CP^n, HP^n and OP^2, and the mirrors (k, m, s) of the last three
RECORDS = [(n / 2, n / 2, 0.5) for n in (2, 3, 4, 21, 61, 199)] + [
    (1, 1, 1.0), (2, 1, 1.0), (1, 2, 1.0), (10, 1, 1.0), (1, 10, 1.0),
    (2, 2, 1.0), (10, 2, 1.0), (2, 10, 1.0), (8, 4, 1.0), (4, 8, 1.0),
]


class TestRecordSeries:
    """The series of `records.record_series` against the same series in
    Fractions, and the closed K and Theta they give against identities of
    their own: the small-radius laws, Theta(D) = 0, CP^n's K series, and the
    two sides agreeing where they meet."""

    @pytest.mark.parametrize("record", RECORDS, ids=str)
    def test_coefficients_and_truncation(self, record):
        # every coefficient its exact value rounded once, and the terms dropped
        # at the mean below 2^-56 of the sum, against the exact series to twice the length
        kept = records.record_series(record)
        mean = record[0] / (record[0] + record[1])
        for rounded, full in zip(kept, _exact_series(*record, 2 * len(kept[0]))):
            assert rounded == tuple(float(v) for v in full[: len(rounded)])
            terms = [float(v) * mean**j for j, v in enumerate(full)]
            assert math.fsum(terms[len(rounded) :]) <= 2.0**-56 * math.fsum(terms)

    def test_series_keep_their_bits(self):
        # the sha256 of every coefficient, in hex, of the 412 distinct records
        # of S^n, RP^n, CP^n and HP^n (n < 60), OP^2 and their mirrors: a
        # coefficient one ulp off, or a term more or fewer, changes it
        pinned = []
        for n in range(1, 60):
            pinned += [(n / 2, n / 2, 0.5), (n / 2, 0.5, 1.0), (float(n), 1.0, 1.0), (2.0 * n, 2.0, 1.0)]
        pinned.append((8.0, 4.0, 1.0))
        pinned = list(dict.fromkeys(pinned + [(k, m, s) for m, k, s in pinned]))
        digest = hashlib.sha256()
        for record in pinned:
            for series in records.record_series.__wrapped__(record):  # uncached
                digest.update((",".join(map(float.hex, series)) + ";").encode())
        assert len(pinned) == 412
        assert digest.hexdigest() == "9b884665ce33684a5c38f3de7bf485c054ed137e5a110d5d9aa19395e1710b27"

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_complex_projective_k_is_its_series(self, n):
        # K = sum_j x^j / (4 V j (j + n)), x = sin^2 a, up to the mean, and
        # K(D) = H_n / (4 n V), H_n the harmonic number, on the mirror's side
        spec = ManifoldSpec(Family.COMPLEX_PROJ, n)
        V = volume(spec)
        radii = np.linspace(0.05, 1.0, 20) * math.asin(math.sqrt(n / (n + 1)))
        want = []
        for x in (np.sin(radii) ** 2).tolist():
            terms = [x / (4 * (1 + n))]
            while terms[-1] > 1e-20 * terms[0]:
                j = len(terms) + 1
                terms.append(x**j / (4 * j * (j + n)))
            want.append(math.fsum(terms) / V)
        assert np.all(np.abs(bs.k_values(spec, radii) / want - 1.0) <= 5e-15)
        full = math.fsum(1.0 / j for j in range(1, n + 1)) / (4 * n * V)
        assert bs.k_value(spec, diameter(spec)) == pytest.approx(full, rel=5e-16, abs=0)

    SPECS = (
        [ManifoldSpec(Family.SPHERE, n) for n in (2, 3, 10, 61)]
        + [ManifoldSpec(Family.COMPLEX_PROJ, n) for n in range(1, 41)]
        + [ManifoldSpec(Family.QUAT_PROJ, n) for n in range(1, 21)]
        + [OP2]
    )

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_k_starts_with_the_small_radius_law(self, spec):
        # V K = H - r / F = x / (4 s^2 (m + 1)) + O(x^2), x = s^2 a^2 + O(a^4):
        # K -> a^2 / (2 (d + 2) V)
        m, k, s = _record(spec)
        _, h, r = records.record_series((m, k, s))
        assert h[1] - r[1] == pytest.approx(1.0 / (4 * s * s * (m + 1)), rel=1e-15, abs=0)
        a = 1e-6 * diameter(spec)
        assert bs.k_value(spec, a) == pytest.approx(vf._k_asymptotic(spec, a), rel=1e-11, abs=0)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_theta_vanishes_at_the_diameter(self, spec):
        # Theta(M, D) = 0: V Theta carries 1 - mu, which is 0 at D up to the rounding of cos^2(s D)
        scale = max(1.0, abs(get_profile(spec).c_m)) / volume(spec)
        assert abs(bs.theta_value(spec, diameter(spec))) <= 1e-30 * scale

    @pytest.mark.parametrize("spec", [s for s in SPECS[4:] if dimension(s) > 2], ids=str)
    def test_theta_head_is_the_small_radius_law(self, spec):
        # Theta -> d B_M a^(2-d) / (2 V)
        a = 1e-3 * diameter(spec)
        assert bs.theta_value(spec, a) == pytest.approx(vf._theta_asymptotic(spec, a), rel=1e-4)

    @pytest.mark.parametrize("spec", SPECS[4:], ids=str)
    def test_volume_is_the_sphere_area_over_twice_the_slope_constant(self, spec):
        # v(a) = V mu'(x) dx/da with mu' = c' x^(m-1) y^(k-1) and c' = m D(1),
        # D(y) = sum_(j<k) C(m+j-1, j) y^j
        m, k = (int(v) for v in _record(spec)[:2])
        omega = vol_unit_sphere(dimension(spec))
        d_at_1 = sum(math.comb(m + j - 1, j) for j in range(k))
        assert volume(spec) == pytest.approx(omega / (2 * m * d_at_1), rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "spec",
        [S2, S3, ManifoldSpec(Family.SPHERE, 10), ManifoldSpec(Family.SPHERE, 61), CP2]
        + [ManifoldSpec(Family.COMPLEX_PROJ, 30), HP1, ManifoldSpec(Family.QUAT_PROJ, 15), OP2],
        ids=str,
    )
    def test_sides_meet_at_the_mean(self, spec):
        # the record's series up to x = m / (m + k) and the mirror's past it
        # agree on neighbouring radii across the switch
        m, k, s = _record(spec)
        mean = m / (m + k)
        a = math.asin(math.sqrt(mean)) / s
        while math.sin(s * a) ** 2 > mean:
            a = math.nextafter(a, 0.0)
        while math.sin(s * math.nextafter(a, 4.0)) ** 2 <= mean:
            a = math.nextafter(a, 4.0)
        radii = np.array([a, math.nextafter(a, 4.0)])
        k_pair, theta_pair, mu_pair = bs._closed_kernels(spec, radii)
        phi = abs(get_profile(spec).phi(a))
        assert k_pair[1] == pytest.approx(k_pair[0], rel=1e-14, abs=0)
        assert abs(theta_pair[1] - theta_pair[0]) <= 2e-14 * max(abs(theta_pair[0]), phi)
        assert mu_pair[1] == pytest.approx(mu_pair[0], rel=1e-14, abs=0)


class TestHighSphereFarSide:
    """Past the mean of a high sphere, H(a) overflows near D while 1 - mu
    underflows: their product (1 - mu) H is formed from the mirror's scaled
    profile, so K and Theta stay finite and right up to D."""

    @pytest.mark.parametrize("n", [100, 150, 199])
    def test_finite_up_to_the_diameter(self, n):
        spec = ManifoldSpec(Family.SPHERE, n)
        radii = np.linspace(0.5, 1.0, 200_000) * diameter(spec)
        assert np.isfinite(bs.k_values(spec, radii)).all()
        assert np.isfinite(bs.theta_values(spec, radii)).all()

    @pytest.mark.parametrize("n, fraction", [(100, 0.9998), (150, 0.9976), (199, 0.9919)])
    def test_band_where_h_overflows_matches_the_oracle(self, n, fraction):
        # the oracle integrates over pieces cut at its radii, which the steep
        # H integrand near D needs
        spec = ManifoldSpec(Family.SPHERE, n)
        D = diameter(spec)
        radii = (0.5 * D, 0.9 * D, 0.99 * D, fraction * D)
        k, theta = (values[-1] for values in single_integral_oracle.kernels(spec, radii))
        floor = 1e-14 * max(1.0, abs(get_profile(spec).c_m)) / volume(spec)
        assert bs.k_value(spec, radii[-1]) == pytest.approx(k, rel=1e-13)
        assert abs(bs.theta_value(spec, radii[-1]) - theta) <= 1e-13 * abs(theta) + floor

    @pytest.mark.parametrize("n, radius", [(10, lambda D: D - 1e-3), (150, lambda D: 0.9976 * D)], ids=["s10", "s150"])
    def test_a_lone_radius_near_the_diameter_matches_the_oracle(self, n, radius):
        # the oracle cuts its integrals at 0.5, 0.9 and 0.99 D by itself, so a
        # radius near D needs no others before it
        spec = ManifoldSpec(Family.SPHERE, n)
        a = radius(diameter(spec))
        (k,), (theta,) = single_integral_oracle.kernels(spec, (a,))
        floor = 1e-14 * max(1.0, abs(get_profile(spec).c_m)) / volume(spec)
        assert bs.k_value(spec, a) == pytest.approx(k, rel=1e-13)
        assert abs(bs.theta_value(spec, a) - theta) <= 1e-13 * abs(theta) + floor

    @pytest.mark.parametrize("n, fraction", [(100, 0.9998), (150, 0.9976)])
    def test_theta_keeps_its_digits_where_one_minus_mu_is_subnormal(self, n, fraction):
        # (4xy)^k is 6.6e-321 and 4.0e-319 at these radii, and Theta 2.3e-285
        # and 2.0e-251: it is formed with no subnormal factor, to the
        # relative precision of its normal range
        spec = ManifoldSpec(Family.SPHERE, n)
        D = diameter(spec)
        radii = (0.5 * D, 0.9 * D, 0.99 * D, fraction * D)
        theta = single_integral_oracle.kernels(spec, radii)[1][-1]
        assert abs(bs.theta_value(spec, radii[-1]) - theta) <= 1e-13 * theta


class TestThetaQuadrature:
    @pytest.mark.parametrize("spec", [S3, RP3, CP2, HP1, OP2])
    def test_small_radius_law(self, spec):
        D = diameter(spec)
        dev2 = abs(bs.theta_quadrature(spec, 1e-2 * D) / vf._theta_asymptotic(spec, 1e-2 * D) - 1)
        dev3 = abs(bs.theta_quadrature(spec, 1e-3 * D) / vf._theta_asymptotic(spec, 1e-3 * D) - 1)
        assert dev2 < 0.02
        assert dev3 < dev2

    @pytest.mark.parametrize("spec", [S2, S3, CP2, OP2])
    def test_positive_near_pole(self, spec):
        assert bs.theta_quadrature(spec, 0.05 * diameter(spec)) > 0.0


class TestRealProjectiveDoubleCover:
    """RP^n's kernel quadrature is checked against S^n's (the closed kernels
    of RP^n are built from this identity, so they would check nothing).

    On the double cover the balls of radius a <= pi/2 coincide and V_RP = V_S / 2,
    so K(RP^n, a) = 2 K(S^n, a). With H(a) = int_0^a V(u)/v(u) du = phi_hat_S(pi - a)
    on S^n, Theta(RP^n, a) = Theta(S^n, a) + K(S^n, a) + phi_S(pi).
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 21, 40])
    def test_kernels_match_the_sphere(self, n):
        sphere, rp = ManifoldSpec(Family.SPHERE, n), ManifoldSpec(Family.REAL_PROJ, n)
        a = np.geomspace(1e-3, 1.0, 27) * diameter(rp)
        k_s, theta_s, k_rp, theta_rp = (
            np.array([kernel(spec, r) for r in a.tolist()])
            for spec in (sphere, rp)
            for kernel in (bs.k_quadrature, bs.theta_quadrature)
        )
        antipode = get_profile(sphere).phi(math.pi)
        assert np.all(np.abs(k_rp - 2.0 * k_s) <= 1e-14 * np.abs(k_rp))
        # Theta on RP^n cancels to 0 at D, so it is measured against its terms
        scale = np.abs(theta_s) + np.abs(k_s) + abs(antipode)
        assert np.all(np.abs(theta_rp - (theta_s + k_s + antipode)) <= 1e-14 * scale)


class TestKernelPassFraction:
    """The closed kernel pass returns mu = V(a)/V with K and Theta, from the
    same series: within a few ulps per power of x of the incomplete beta."""

    @pytest.mark.parametrize(
        "spec",
        [S2, S3, ManifoldSpec(Family.SPHERE, 61), RP2, RP3, ManifoldSpec(Family.REAL_PROJ, 21)]
        + [CP2, HP1, OP2, ManifoldSpec(Family.COMPLEX_PROJ, 30), ManifoldSpec(Family.QUAT_PROJ, 15)],
        ids=str,
    )
    def test_fraction_is_the_incomplete_beta(self, spec):
        radii = np.geomspace(1e-2, 1.0, 60) * diameter(spec)
        mu, reference = bs._closed_kernels(spec, radii)[2], ball_volume_fraction(spec, radii)
        assert np.all(np.abs(mu - reference) <= 6e-16 * dimension(spec) * reference)


class TestPowerSums:
    @pytest.mark.parametrize("spec", [ManifoldSpec(Family.COMPLEX_PROJ, 30), ManifoldSpec(Family.SPHERE, 199)], ids=str)
    def test_memory_stays_bounded(self, spec):
        # the table of powers is summed in blocks of at most 2 MB, however
        # long the series (1241 terms on CP^30) and however many the radii
        radii = np.geomspace(1e-4, 1.0, 100_000) * diameter(spec)
        bs.k_values(spec, radii[:3])
        tracemalloc.start()
        try:
            bs.k_values(spec, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestBallAverage:
    def test_outside_branch_is_exact(self):
        prof = get_profile(S2)
        k = bs.k_value(S2, 0.3)
        assert vf._ball_average_green(S2, 1.0, 0.3) == prof.phi(1.0) + k

    def test_branches_agree_at_boundary(self):
        t = 0.4
        outside = vf._ball_average_green(S2, t, t)
        inside = vf._ball_average_green(S2, t - 1e-12, t)
        assert inside == pytest.approx(outside, abs=1e-9)

    @pytest.mark.parametrize("spec", [S2, CP2])
    def test_never_exceeds_exact_branch(self, spec):
        prof = get_profile(spec)
        a = 0.4 * diameter(spec)
        bound = bs.k_value(spec, a)
        for t in (0.1 * a, 0.5 * a, 0.99 * a, 1.5 * a):
            avg = vf._ball_average_green(spec, t, a)
            assert avg <= prof.phi(t) + bound + 1e-12

    def test_monte_carlo_oracle(self):
        # rejection sampling of the ball average on the 2-sphere
        prof = get_profile(S2)
        t, a = 1.0, 0.3
        rng = np.random.default_rng(90)
        want = 100_000
        kept = []
        while sum(len(k) for k in kept) < want:
            raw = rng.standard_normal((400_000, 3))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            in_ball = raw[:, 2] > math.cos(a)
            kept.append(raw[in_ball])
        pts = np.concatenate(kept)[:want]
        p = np.array([math.sin(t), 0.0, math.cos(t)])
        dists = np.arccos(np.clip(pts @ p, -1.0, 1.0))
        vals = prof.phi(dists)
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(want))
        assert abs(mc - vf._ball_average_green(S2, t, a)) < 3 * se

    def test_pole_rejected(self):
        with pytest.raises(SingularityError):
            vf._ball_average_green(S2, 0.0, 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            vf._ball_average_green(S2, 0.5, diameter(S2))


class TestSphericalMean:
    def test_shrinking_sphere_limit(self):
        prof = get_profile(S3)
        t = 1.0
        assert vf._spherical_mean(S3, t, 1e-8) == pytest.approx(prof.phi(t), rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", [S2, S3, CP2])
    def test_radial_derivative(self, spec):
        D = diameter(spec)
        t, a = 0.8 * D, 0.4 * D
        h = 1e-5 * D
        numeric = (
            vf._spherical_mean(spec, t, a + h) - vf._spherical_mean(spec, t, a - h)
        ) / (2 * h)
        exact = ball_volume(spec, a) / (volume(spec) * sphere_area(spec, a))
        assert numeric == pytest.approx(exact, rel=1e-6)

    def test_consistency_with_ball_average(self):
        # d/da [V(a) * ball_average] = v(a) * spherical_mean for a < t
        t, a = 1.2, 0.5
        h = 5e-4

        def g(x):
            return ball_volume(S2, x) * vf._ball_average_green(S2, t, x)

        numeric = (g(a + h) - g(a - h)) / (2 * h)
        exact = sphere_area(S2, a) * vf._spherical_mean(S2, t, a)
        assert numeric == pytest.approx(exact, rel=1e-6)

    def test_requires_a_below_t(self):
        with pytest.raises(DomainError):
            vf._spherical_mean(S2, 0.5, 0.5)


class TestConditionalPositivity:
    @pytest.mark.parametrize("spec", [S3, CP2, OP2])
    def test_disjoint_ball_energy_dominance(self, spec):
        # self-energy term of two disjoint uniform ball charges dominates
        # their cross term for every separation t >= 2a
        prof = get_profile(spec)
        D = diameter(spec)
        for a in (0.04 * D, 0.1 * D, 0.2 * D):
            va = ball_volume(spec, a)
            self_term = bs.theta_value(spec, a) - (volume(spec) - va) / va * bs.k_value(
                spec, a
            )
            ts = [2 * a, 3 * a, 0.7 * D, 0.95 * D]
            for t in ts:
                if t < 2 * a or t > D:
                    continue
                cross = prof.phi(t) + 2 * bs.k_value(spec, a)
                assert self_term >= cross


class TestMemoization:
    def test_concurrent_reads_consistent(self):
        spec = ManifoldSpec(Family.COMPLEX_PROJ, 3)
        with ThreadPoolExecutor(max_workers=8) as pool:
            vals = list(pool.map(lambda _: bs.k_value(spec, 0.77), range(32)))
        assert len(set(vals)) == 1
        with ThreadPoolExecutor(max_workers=8) as pool:
            vals = list(pool.map(lambda _: bs.theta_value(spec, 0.77), range(32)))
        assert len(set(vals)) == 1


class TestQuadratureRoutes:
    """`k_quadrature` and `theta_quadrature` integrate one radius at a time,
    over one piece of [0, a] or, near D on S^n, two."""

    @pytest.mark.parametrize(
        "spec, fraction, pieces",
        [
            (S3, 0.1, 1),  # V(a) <= V/2
            (S3, 0.7, 1),  # past V/2
            (S3, 1.0, 1),  # a = D, the plain moment
            (ManifoldSpec(Family.SPHERE, 60), 0.999, 2),  # S^n's thin boundary layer
            (ManifoldSpec(Family.SPHERE, 150), 0.999, 2),  # v(a) below the normal range
        ],
    )
    def test_k_sums_its_pieces(self, spec, fraction, pieces, monkeypatch):
        a = fraction * diameter(spec)
        calls = []

        def spy(f, lo, hi):
            value = special_math.integrate(f, lo, hi)
            calls.append((lo, hi, value))
            return value

        monkeypatch.setattr(bs, "integrate", spy)
        k = bs.k_quadrature(spec, a)
        assert len(calls) == pieces
        cuts = [lo for lo, _, _ in calls] + [calls[-1][1]]
        assert cuts[0] == 0.0 and cuts[-1] == a
        assert all(hi == lo for (_, hi, _), (lo, _, _) in zip(calls, calls[1:]))
        total = sum(value for _, _, value in calls)
        assert k == total / (volume(spec) * (volume(spec) * ball_volume_fraction(spec, np.array([a]))[0]))
        if fraction == 0.999:
            tiny = sphere_area(spec, a) < np.finfo(float).tiny
            assert tiny == (spec.n == 150)

    @pytest.fixture
    def beta_calls(self, monkeypatch):
        """(incomplete beta calls in all, the calls in each evaluation of an
        integrand that the oracles pass to `integrate`), counted under both
        names `ball_stats` could reach it by."""
        calls, per_evaluation = [], []

        def counted_beta(*args):
            calls.append(args)
            return special_math.incomplete_beta(*args)

        def counted_integrate(f, lo, hi, *rest):
            def counted(u):
                before = len(calls)
                out = f(u)
                per_evaluation.append(len(calls) - before)
                return out

            return special_math.integrate(counted, lo, hi, *rest)

        for module in (green, manifold):
            monkeypatch.setattr(module, "incomplete_beta", counted_beta)
        monkeypatch.setattr(bs, "integrate", counted_integrate)
        return calls, per_evaluation

    @pytest.mark.parametrize(
        "spec, fraction",
        [(S3, 0.1), (S3, 0.7), (S3, 1.0), (ManifoldSpec(Family.SPHERE, 150), 0.999)],
        ids=["below-half", "past-half", "diameter", "tiny-area"],
    )
    def test_each_k_evaluation_reads_one_incomplete_beta(self, spec, fraction, beta_calls):
        # V(a) and psi(a) come from one call at the radius, and every
        # evaluation of each branch's integrand from one call at its nodes
        calls, per_evaluation = beta_calls
        bs.k_quadrature(spec, fraction * diameter(spec))
        assert per_evaluation and set(per_evaluation) == {1}
        assert len(calls) == len(per_evaluation) + 1

    @pytest.mark.parametrize("spec", [S3, CP2, OP2], ids=str)
    def test_theta_moment_and_h_read_one_incomplete_beta(self, spec, beta_calls):
        calls, per_evaluation = beta_calls
        bs.theta_quadrature(spec, 0.2 * diameter(spec))
        assert per_evaluation and set(per_evaluation) == {1}
        assert len(calls) == len(per_evaluation) + 1
        del calls[:], per_evaluation[:]
        bs.cum_volume_over_area(spec, 0.4 * diameter(spec))
        assert per_evaluation and set(per_evaluation) == {1}
        assert len(calls) == len(per_evaluation)

    def test_theta_integrates_the_moment_once(self, monkeypatch):
        calls = []

        def spy(f, lo, hi):
            calls.append((lo, hi))
            return special_math.integrate(f, lo, hi)

        monkeypatch.setattr(bs, "integrate", spy)
        bs.theta_quadrature(S3, 0.7)
        assert calls == [(0.0, 0.7)]

    def test_k_quadrature_error_names_the_radius(self):
        # V V(a) underflows at a = 0.05 on S^200, so K is not finite there
        with pytest.raises(SingularityError, match=r"K is (inf|nan) at a = 0\.05 on s200"):
            bs.k_quadrature(ManifoldSpec(Family.SPHERE, 200), 0.05)

    def test_theta_quadrature_error_names_the_interval(self, monkeypatch):
        ratios = bs._radial_ratios

        def broken(spec, r):
            return (*ratios(spec, r)[:3], np.full(r.size, np.nan))

        monkeypatch.setattr(bs, "_radial_ratios", broken)
        with pytest.raises(QuadratureError, match=r"not finite on \[0\.0, 0\.3\]"):
            bs.theta_quadrature(S3, 0.3)


class TestArrayKernels:
    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2])
    def test_lone_radius_matches_batch_bit_for_bit(self, spec):
        D = diameter(spec)
        radii = np.append(np.random.default_rng(33).uniform(0.005 * D, D, 31), [0.9 * D, D])
        k, theta = bs.k_values(spec, radii), bs.theta_values(spec, radii)
        assert k.tolist() == [bs.k_value(spec, a) for a in radii.tolist()]
        assert theta.tolist() == [bs.theta_value(spec, a) for a in radii.tolist()]
        assert k.tolist() == [bs.k_closed(spec, a) for a in radii.tolist()]
        assert theta.tolist() == [bs.theta_closed(spec, a) for a in radii.tolist()]

    @pytest.mark.parametrize("radii", [[0.5, 0.0], [0.5, 3.2], [[0.5]], [0.5, float("nan")]])
    def test_radii_outside_the_domain_rejected(self, radii):
        with pytest.raises(DomainError):
            bs.k_values(S2, radii)
        with pytest.raises(DomainError):
            bs.theta_values(S2, radii)

    @pytest.mark.parametrize("spec", [S3, CP2])
    def test_no_radii(self, spec):
        assert bs.k_values(spec, []).shape == (0,)
        assert bs.theta_values(spec, np.array([])).shape == (0,)

    def test_radius_rounded_past_the_diameter_is_clamped(self):
        D = diameter(S3)
        assert bs.k_values(S3, [D * (1 + 1e-14)]).tolist() == [bs.k_value(S3, D)]

    @pytest.mark.parametrize("family", [Family.SPHERE, Family.REAL_PROJ])
    def test_underflowed_ball_volume_names_the_radius(self, family):
        # V(a) underflows at small radii in 200 dimensions, and Theta divides by it
        with pytest.raises(SingularityError, match=r"Theta is (inf|nan) at a = 0\.05 on"):
            bs.theta_values(ManifoldSpec(family, 200), [1.0, 0.05])
