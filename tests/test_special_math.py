"""Special functions and the adaptive integrator."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc as scipy_betainc

from greenlab import special_math
from greenlab.errors import DomainError, QuadratureError
from greenlab.special_math import (
    _GK15_NODES,
    _GK15_WEIGHTS,
    _beta_continued_fraction,
    gauss_kronrod_panel,
    gauss_kronrod_panels,
    integrate,
    integrate_intervals,
    log_gamma,
    reg_incomplete_beta,
    vol_unit_sphere,
)


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    def test_factorial_seven(self):
        fact = 1
        for k in range(1, 8):
            fact *= k
        assert log_gamma(8.0) == pytest.approx(math.log(fact), rel=1e-14)

    def test_against_mpmath_across_range(self):
        xs = [0.5, 0.77, 1.0, 2.5, 10.0, 33.3, 100.0, 170.0]
        for x in xs:
            exact = float(mpmath.loggamma(x))
            if exact == 0.0:
                assert abs(log_gamma(x)) < 1e-13
            else:
                assert log_gamma(x) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestVolUnitSphere:
    def test_circle(self):
        assert vol_unit_sphere(2) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert vol_unit_sphere(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere(self):
        assert vol_unit_sphere(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            vol_unit_sphere(0)


class TestRegIncompleteBeta:
    def test_full_mass(self):
        assert reg_incomplete_beta(1.0, 2.3, 4.5) == 1.0

    def test_empty_mass(self):
        assert reg_incomplete_beta(0.0, 2.3, 4.5) == 0.0

    def test_uniform_case(self):
        assert reg_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_half_sphere_volume_fraction(self):
        # I_{sin^2(pi/4)}(3/2, 3/2) is the half-ball fraction of the 3-sphere:
        # quadrature of sin^2 over [0, pi/2] against [0, pi]
        num = integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi / 2)
        den = integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi)
        oracle = num / den
        got = reg_incomplete_beta(math.sin(math.pi / 4) ** 2, 1.5, 1.5)
        assert got == pytest.approx(oracle, rel=1e-12)

    @given(
        # away from the endpoints 1-s itself rounds; there the identity is
        # ill-posed in doubles, not a property of the implementation
        s=st.floats(1e-4, 1.0 - 1e-4),
        a=st.floats(0.1, 60.0),
        b=st.floats(0.1, 60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, s, a, b):
        total = reg_incomplete_beta(s, a, b) + reg_incomplete_beta(1.0 - s, b, a)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_at_exact_complements(self):
        for s in (0.25, 0.5, 0.75, 0.0625):
            for a, b in ((0.5, 3.0), (10.0, 0.2), (40.0, 40.0)):
                total = reg_incomplete_beta(s, a, b) + reg_incomplete_beta(1.0 - s, b, a)
                assert total == pytest.approx(1.0, abs=1e-13)

    def test_against_scipy(self):
        for s in (0.001, 0.2, 0.5, 0.83, 0.999):
            for a, b in ((0.5, 0.5), (1.5, 1.5), (7.0, 2.0), (30.0, 30.0), (60.0, 1.0)):
                assert reg_incomplete_beta(s, a, b) == pytest.approx(
                    float(scipy_betainc(a, b, s)), rel=1e-11, abs=1e-14
                )

    @pytest.mark.parametrize("bad_s", [-0.1, 1.0001])
    def test_domain_s(self, bad_s):
        with pytest.raises(DomainError):
            reg_incomplete_beta(bad_s, 1.0, 1.0)

    def test_domain_ab(self):
        with pytest.raises(DomainError):
            reg_incomplete_beta(0.5, -1.0, 1.0)


class TestIntegrate:
    def test_sine_arch(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_power_of_sine_times_cosine(self):
        # antiderivative sin^4/4 gives exactly 1/4 on [0, pi/2]
        val = integrate(lambda t: np.sin(t) ** 3 * np.cos(t), 0.0, math.pi / 2)
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_endpoint_log_singularity(self):
        val = integrate(lambda t: -np.log(t), 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(np.sin, 1.0, 0.0)

    @given(split=st.floats(0.05, 1.95))
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, split):
        # a part can be small against the integral of |f|, below the 1e-12
        # relative test's reach (the panels' rounding floor, 50 eps int |f|),
        # so the parts, compared absolutely, are integrated to an absolute floor
        f = lambda x: np.exp(-x) * np.cos(4.0 * x)
        whole = integrate(f, 0.0, 2.0, 1e-14)
        parts = integrate(f, 0.0, split, 1e-14) + integrate(f, split, 2.0, 1e-14)
        assert parts == pytest.approx(whole, abs=5e-12)

    def test_failure_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(special_math, "_MAX_SUBDIVISIONS", 3)
        with pytest.raises(QuadratureError) as err:
            integrate(lambda t: abs(t - 1 / math.pi) ** -0.5, 0.0, 1.0)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_non_finite_integrand_raises(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(QuadratureError, match="not finite"):
                integrate(lambda t: np.where(t > 0.7, np.nan, t), 0.0, 1.0)
            with pytest.raises(QuadratureError, match="not finite"):
                integrate(lambda t: 1.0 / (t - t), 0.0, 1.0)

    def test_integrand_called_once_per_panel(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.cos(t)

        val, _, _ = gauss_kronrod_panel(f, 0.0, 1.0)
        assert calls == [(15,)]
        assert val == pytest.approx(math.sin(1.0), rel=1e-15)

    def test_small_integral_converges_to_its_own_scale(self):
        # a bump of height 1e-30: the error estimate follows the integrand's
        # variation, not its absolute size, so rel_tol governs the result
        val = integrate(lambda t: 1e-30 * np.exp(-40.0 * (t - 0.3) ** 2), 0.0, 1.0)
        exact = 1e-30 * float(
            mpmath.sqrt(mpmath.pi / 40) / 2 * (mpmath.erf(mpmath.sqrt(40) * 0.7) + mpmath.erf(mpmath.sqrt(40) * 0.3))
        )
        assert val == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_panel_exact_on_polynomials(self):
        # the 15-point Kronrod rule integrates degree <= 22 exactly
        for deg in range(23):
            val, _, _ = gauss_kronrod_panel(lambda x, d=deg: x**d, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (deg + 1), rel=1e-13)

    def test_panel_huge_integrand_stays_finite(self):
        # |K - G| near 1e240 must not reach the (200 |K - G|)^1.5 power
        val, err, _ = gauss_kronrod_panel(lambda x: 1e250 * x**40, 0.0, 1.0)
        assert math.isfinite(val) and math.isfinite(err)
        assert val == pytest.approx(1e250 / 41, rel=1e-6)


# the row sums numpy 2 takes, and the ones numpy 1 falls back to
ROW_DOTS = pytest.mark.parametrize(
    "row_dot", [special_math._row_dot, special_math._row_sums], ids=["installed", "numpy1"]
)


class TestPanels:
    @staticmethod
    def f(x):
        return np.exp(np.sin(7.0 * x)) / (1.0 + x * x)

    @ROW_DOTS
    def test_interval_alone_matches_batch_bit_for_bit(self, row_dot, monkeypatch):
        monkeypatch.setattr(special_math, "_row_dot", row_dot)
        rng = np.random.default_rng(2)
        lo = rng.uniform(-3.0, 1.0, 40)
        hi = lo + rng.uniform(1e-6, 4.0, 40)
        values, errors, resabs = gauss_kronrod_panels(self.f, lo, hi)
        for i in range(40):
            one = gauss_kronrod_panels(self.f, lo[i : i + 1], hi[i : i + 1])
            assert (one[0][0], one[1][0], one[2][0]) == (values[i], errors[i], resabs[i])

    @ROW_DOTS
    def test_error_follows_the_quadpack_recipe(self, row_dot, monkeypatch):
        # the loop the array form replaced, on the same node values
        monkeypatch.setattr(special_math, "_row_dot", row_dot)
        lo = np.linspace(0.0, 2.0, 25)
        hi = lo + np.geomspace(1e-3, 3.0, 25)
        values, errors, resabs = gauss_kronrod_panels(self.f, lo, hi)
        half = 0.5 * (hi - lo)
        nodes = half[:, None] * _GK15_NODES + (0.5 * (hi + lo))[:, None]
        fx = self.f(nodes) * half[:, None]
        for i in range(25):
            k = math.fsum(fx[i] * _GK15_WEIGHTS[0])
            g = math.fsum(fx[i] * _GK15_WEIGHTS[1])
            asc = math.fsum(np.abs(fx[i] - 0.5 * k) * _GK15_WEIGHTS[0])
            err = max(asc * min(1.0, 200.0 * abs(k - g) / asc) ** 1.5, 50.0 * 2.0**-52 * resabs[i])
            assert values[i] == pytest.approx(k, rel=1e-14)
            assert errors[i] == pytest.approx(err, rel=1e-9)

    def test_constant_integrand_error_is_the_floor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors, resabs = gauss_kronrod_panels(
                lambda x: np.full_like(x, 3.0), np.array([0.0, 1.0]), np.array([1.0, 5.0])
            )
        assert values == pytest.approx([3.0, 12.0], rel=1e-15)
        assert errors == pytest.approx(50.0 * 2.0**-52 * resabs, rel=1e-14)


class TestIntegrateIntervals:
    def test_each_interval_gets_the_bits_of_integrate_alone(self, monkeypatch):
        # a Runge bump of width w[i] on each interval; only the narrow one on
        # [-1, 1] misses its first panel and is bisected
        lo = np.array([0.0, -1.0, 2.0, 0.5])
        hi = np.array([1.0, 1.0, 3.0, 0.6])
        width = np.array([10.0, 1e-3, 20.0, 5.0])
        refined = []
        inner = special_math._refine

        def spy(f, index, a, b, value, err, abs_tol):
            refined.extend(zip(a.tolist(), b.tolist()))
            return inner(f, index, a, b, value, err, abs_tol)

        monkeypatch.setattr(special_math, "_refine", spy)
        batch = integrate_intervals(lambda x, rows: 1.0 / (width[rows] ** 2 + x * x), lo, hi)
        assert refined == [(-1.0, 1.0)]
        lone = [
            integrate(lambda x, w=w: 1.0 / (w * w + x * x), a, b)
            for a, b, w in zip(lo.tolist(), hi.tolist(), width.tolist())
        ]
        assert batch.tolist() == lone
        assert batch[1] == pytest.approx(2e3 * math.atan(1e3), rel=1e-12)

    def test_missed_intervals_are_bisected_together(self):
        # narrow Runge bumps that each need several bisections, and a wide one
        # that needs none: one integrand call per round of bisections, not one
        # per bisection
        lo = np.array([-1.0, 0.0, -2.0, -0.5, 3.0])
        hi = np.array([1.0, 2.0, 1.0, 0.5, 4.0])
        width = np.array([1e-2, 3e-3, 1e-3, 3e-2, 2.0])
        calls = []

        def bump(x, w):
            calls.append(x.size)
            return 1.0 / (w * w + x * x)

        batch = integrate_intervals(lambda x, rows: bump(x, width[rows]), lo, hi)
        rounds = len(calls) - 1
        lone, bisections = [], []
        for a, b, w in zip(lo.tolist(), hi.tolist(), width.tolist()):
            calls.clear()
            lone.append(integrate(lambda x, w=w: bump(x, w), a, b))
            bisections.append(len(calls) - 1)
        assert batch.tolist() == lone
        assert min(bisections[:4]) >= 3 and bisections[4] == 0
        assert rounds == max(bisections) < sum(bisections)

    @pytest.mark.parametrize(
        "kinds, message",
        [
            # the narrow bump runs out of subdivisions after the later interval
            # is found not finite: the earlier interval's error
            (["wide", "narrow", "inf"], "within 4 subdivisions"),
            # the earlier interval is not finite from its first panel, and the
            # later one would run out of subdivisions after it
            (["inf", "narrow", "wide"], r"not finite on \[0.0, 1.0\]"),
        ],
    )
    def test_lowest_failing_interval_raises(self, kinds, message, monkeypatch):
        # as if the intervals ran one after another
        monkeypatch.setattr(special_math, "_MAX_SUBDIVISIONS", 4)
        width = np.array([{"wide": 1.0, "narrow": 1e-4, "inf": 1.0}[kind] for kind in kinds])
        infinite = np.array([kind == "inf" for kind in kinds])

        def f(x, rows):
            return np.where(infinite[rows], np.inf, 1.0 / (width[rows] ** 2 + x * x))

        lo = np.array([-1.0 if kind == "narrow" else 0.0 for kind in kinds])
        with np.errstate(invalid="ignore"):
            with pytest.raises(QuadratureError, match=message):
                integrate_intervals(f, lo, np.ones(len(kinds)))

    def test_empty_batch(self):
        def f(x, rows):
            raise AssertionError("an empty batch calls no integrand")

        assert integrate_intervals(f, np.zeros(0), np.zeros(0)).shape == (0,)

    def test_non_finite_interval_raises(self):
        def f(x, rows):
            return np.where(rows == 1, np.inf, x)

        with np.errstate(invalid="ignore"):
            with pytest.raises(QuadratureError, match=r"not finite on \[1.0, 2.0\]"):
                integrate_intervals(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]))


class TestBetaContinuedFraction:
    @pytest.mark.parametrize("a", [1.0, 1.5, 2.5, 20.0])
    def test_element_alone_matches_batch_bit_for_bit(self, a):
        x = np.random.default_rng(8).uniform(0.0, 0.5, 300)
        batch = _beta_continued_fraction(a, a, x)
        lone = [_beta_continued_fraction(a, a, x[i : i + 1])[0] for i in range(x.size)]
        assert batch.tolist() == lone

    def test_against_mpmath(self):
        for n in (2, 3, 10, 40):
            x = np.linspace(0.001, 0.5, 25)
            got = _beta_continued_fraction(n / 2, n / 2, x)
            for xi, gi in zip(x.tolist(), got.tolist()):
                exact = float(mpmath.hyp2f1(n, 1, n / 2 + 1, xi))
                assert gi == pytest.approx(exact, rel=3.6e-15, abs=0.0)

