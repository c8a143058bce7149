"""Ball kernels: quadrature vs closed forms, asymptotics, average identities."""

import dataclasses
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import greenlab
from greenlab import ball_stats as bs
from greenlab import special_math
from greenlab.errors import DomainError, SingularityError, UnsupportedManifoldError
from greenlab.green import get_profile
from greenlab.manifold import (
    Family,
    ManifoldSpec,
    _ball_polynomial,
    ball_volume,
    bm_constant,
    diameter,
    dimension,
    sphere_area,
    volume,
)
from greenlab.special_math import vol_unit_sphere

from closed_form_oracle import k_oracle, theta_oracle

S2 = ManifoldSpec(Family.SPHERE, 2)
S3 = ManifoldSpec(Family.SPHERE, 3)
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
        assert bs.k_quadrature(spec, a) / bs.k_asymptotic(spec, a) == pytest.approx(
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
        assert k == pytest.approx(bs.k_asymptotic(spec, a), rel=1e-6)

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

    def test_no_closed_form_for_spheres(self):
        with pytest.raises(UnsupportedManifoldError):
            bs.k_closed(S3, 0.5)
        with pytest.raises(UnsupportedManifoldError):
            bs.theta_closed(RP3, 0.5)

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
            assert acc == pytest.approx(math.fsum(1.0 / j for j in range(1, n)), rel=1e-13)

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

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_series_truncation_bound(self, spec):
        for kernel in ("k", "theta"):
            form = bs._closed_form(spec, kernel)
            assert 0.0 < form.switch < 1.0
            assert form.tail <= 2.0**-56

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_complex_k_series_coefficients(self, n):
        # K = sum_j x^j / (4 V j (j + n)), x = sin^2 a
        series = bs._closed_form(ManifoldSpec(Family.COMPLEX_PROJ, n), "k").series
        assert series == tuple(float(Fraction(n, j * (j + n))) for j in range(1, len(series) + 1))

    @pytest.mark.parametrize("n", [1, 3, 15])
    def test_quaternionic_k_series_coefficients(self, n):
        # numerator / x^m = (m+1) x - m(m+1) sum_{j>=2} x^j / (j (j-1) (j+m)), m = 2n
        m = 2 * n
        series = bs._closed_form(ManifoldSpec(Family.QUAT_PROJ, n), "k").series
        want = [float(m + 1)] + [
            float(Fraction(-m * (m + 1), j * (j - 1) * (j + m))) for j in range(2, len(series) + 1)
        ]
        assert series == tuple(want)

    @pytest.mark.parametrize("spec", [CP2, HP1, OP2], ids=str)
    def test_branches_meet_at_the_switch(self, spec):
        for kernel in ("k", "theta"):
            form = bs._closed_form(spec, kernel)
            # the radius whose sin^2 (K) or cos^2 (Theta) is the switch
            a = math.asin(math.sqrt(form.switch if form.t_is_x else 1.0 - form.switch))
            series = bs._closed_eval(dataclasses.replace(form, switch=2.0), a)
            direct = bs._closed_eval(dataclasses.replace(form, switch=-1.0), a)
            assert direct == pytest.approx(series, rel=1e-14)


class TestDerivedKernelParts:
    """Exact identities of the closed kernels' parts derived from V(a)/V = x^m D(y)."""

    SPECS = (
        [ManifoldSpec(Family.COMPLEX_PROJ, n) for n in range(1, 41)]
        + [ManifoldSpec(Family.QUAT_PROJ, n) for n in range(1, 21)]
        + [OP2]
    )

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_k_numerator_starts_with_the_small_radius_law(self, spec):
        # c V x^m D(y) K = R(y) + P(y) log(1 - x) = sum_j s_j x^j vanishes to
        # order m + 1, and K -> s_(m+1) x / (c V D(1)) = a^2 / (2 (d + 2) V)
        m, _, d = _ball_polynomial(spec)
        r, p, e, c = bs._kernel_parts(spec)["k"]
        r_x, p_x = bs._recentre(r), bs._recentre(p)
        series = [
            (r_x[j] if j < len(r_x) else 0) - sum(pi / (j - i) for i, pi in enumerate(p_x[:j]))
            for j in range(m + 2)
        ]
        assert e == m and not any(series[: m + 1])
        assert series[m + 1] / (c * sum(d)) == Fraction(1, 2 * (dimension(spec) + 2))

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_theta_numerator_vanishes_at_the_diameter(self, spec):
        # Theta(M, D) = 0: R(x) + P(x) log x is R(1) at x = 1
        r, _, e, _ = bs._kernel_parts(spec)["theta"]
        assert e == _ball_polynomial(spec)[0] - 1 and sum(r) == 0

    @pytest.mark.parametrize("spec", [s for s in SPECS if dimension(s) > 2], ids=str)
    def test_theta_head_is_the_small_radius_law(self, spec):
        # Theta -> R(0) / (c V x^(m-1) D(1)) = d B_M a^(2-d) / (2 V)
        r, _, _, c = bs._kernel_parts(spec)["theta"]
        head = r[0] / (c * sum(_ball_polynomial(spec)[2]))
        assert float(head) == pytest.approx(dimension(spec) * bm_constant(spec) / 2, rel=1e-15)

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_volume_is_the_sphere_area_over_twice_the_slope_constant(self, spec):
        # v(a) = V mu'(x) dx/da with mu' = c' x^(m-1) y^(k-1) and c' = m D(1)
        m, _, d = _ball_polynomial(spec)
        omega = vol_unit_sphere(dimension(spec))
        assert volume(spec) == pytest.approx(omega / (2 * m * sum(d)), rel=1e-14)


class TestThetaQuadrature:
    @pytest.mark.parametrize("spec", [S3, RP3, CP2, HP1, OP2])
    def test_small_radius_law(self, spec):
        D = diameter(spec)
        dev2 = abs(bs.theta_quadrature(spec, 1e-2 * D) / bs.theta_asymptotic(spec, 1e-2 * D) - 1)
        dev3 = abs(bs.theta_quadrature(spec, 1e-3 * D) / bs.theta_asymptotic(spec, 1e-3 * D) - 1)
        assert dev2 < 0.02
        assert dev3 < dev2

    @pytest.mark.parametrize("spec", [S2, S3, CP2, OP2])
    def test_positive_near_pole(self, spec):
        assert bs.theta_quadrature(spec, 0.05 * diameter(spec)) > 0.0


class TestBallAverage:
    def test_outside_branch_is_exact(self):
        prof = get_profile(S2)
        k = bs.k_value(S2, 0.3)
        assert bs.ball_average_green(S2, 1.0, 0.3) == prof.phi(1.0) + k

    def test_branches_agree_at_boundary(self):
        t = 0.4
        outside = bs.ball_average_green(S2, t, t)
        inside = bs.ball_average_green(S2, t - 1e-12, t)
        assert inside == pytest.approx(outside, abs=1e-9)

    @pytest.mark.parametrize("spec", [S2, CP2])
    def test_never_exceeds_exact_branch(self, spec):
        prof = get_profile(spec)
        a = 0.4 * diameter(spec)
        bound = bs.k_value(spec, a)
        for t in (0.1 * a, 0.5 * a, 0.99 * a, 1.5 * a):
            avg = bs.ball_average_green(spec, t, a)
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
        assert abs(mc - bs.ball_average_green(S2, t, a)) < 3 * se

    def test_pole_rejected(self):
        with pytest.raises(SingularityError):
            bs.ball_average_green(S2, 0.0, 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            bs.ball_average_green(S2, 0.5, diameter(S2))


class TestSphericalMean:
    def test_shrinking_sphere_limit(self):
        prof = get_profile(S3)
        t = 1.0
        assert bs.spherical_mean(S3, t, 1e-8) == pytest.approx(prof.phi(t), rel=1e-12)

    @pytest.mark.parametrize("spec", [S2, S3, CP2])
    def test_radial_derivative(self, spec):
        D = diameter(spec)
        t, a = 0.8 * D, 0.4 * D
        h = 1e-5 * D
        numeric = (
            bs.spherical_mean(spec, t, a + h) - bs.spherical_mean(spec, t, a - h)
        ) / (2 * h)
        exact = ball_volume(spec, a) / (volume(spec) * sphere_area(spec, a))
        assert numeric == pytest.approx(exact, rel=1e-6)

    def test_consistency_with_ball_average(self):
        # d/da [V(a) * ball_average] = v(a) * spherical_mean for a < t
        t, a = 1.2, 0.5
        h = 5e-4

        def g(x):
            return ball_volume(S2, x) * bs.ball_average_green(S2, t, x)

        numeric = (g(a + h) - g(a - h)) / (2 * h)
        exact = sphere_area(S2, a) * bs.spherical_mean(S2, t, a)
        assert numeric == pytest.approx(exact, rel=1e-6)

    def test_requires_a_below_t(self):
        with pytest.raises(DomainError):
            bs.spherical_mean(S2, 0.5, 0.5)


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


class TestArrayKernels:
    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2])
    def test_lone_radius_matches_batch_bit_for_bit(self, spec, monkeypatch):
        D = diameter(spec)
        # 31 random radii, one that takes the adaptive fallback, and D itself
        radii = np.append(np.random.default_rng(33).uniform(0.005 * D, D, 31), [0.9 * D, D])
        refined = []
        inner = special_math._refine

        def spy(f, index, lo, hi, value, err, abs_tol):
            refined.extend(hi.tolist())
            return inner(f, index, lo, hi, value, err, abs_tol)

        monkeypatch.setattr(special_math, "_refine", spy)
        k, theta = bs.k_values(spec, radii), bs.theta_values(spec, radii)
        assert k.tolist() == [bs.k_value(spec, a) for a in radii.tolist()]
        assert theta.tolist() == [bs.theta_value(spec, a) for a in radii.tolist()]
        if spec.family in (Family.SPHERE, Family.REAL_PROJ):
            assert 0.9 * D in refined
            assert k.tolist() == [bs.k_quadrature(spec, a) for a in radii.tolist()]
            assert theta.tolist() == [bs.theta_quadrature(spec, a) for a in radii.tolist()]
        else:
            assert k.tolist() == [bs.k_closed(spec, a) for a in radii.tolist()]
            assert theta.tolist() == [bs.theta_closed(spec, a) for a in radii.tolist()]

    @pytest.mark.parametrize("fraction", [0.1, 0.7, 1.0])
    def test_lone_radius_makes_one_integrate_intervals_call(self, fraction, monkeypatch):
        # one radius in each K branch of S^3: V(a) <= V/2, a < D past that, and a = D
        calls, sizes = [], []
        batched = bs.integrate_intervals

        def spy(f, lo, hi):
            calls.append(hi.size)
            return batched(f, lo, hi)

        def watched(fn):
            def call(s):
                sizes.append(np.size(s))
                return fn(s)

            return call

        ratios = bs._radial_ratios(S3)
        monkeypatch.setattr(bs, "integrate_intervals", spy)
        monkeypatch.setattr(bs, "_radial_ratios", lambda spec: type(ratios)(*map(watched, ratios)))
        bs.k_values(S3, [fraction * diameter(S3)])
        assert calls == [1]
        assert sizes and min(sizes) > 0

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
        # V V(a) underflows at small radii in 200 dimensions
        with pytest.raises(SingularityError, match=r"K is (inf|nan) at a = 0\.05 on"):
            bs.k_values(ManifoldSpec(family, 200), [1.0, 0.05])
