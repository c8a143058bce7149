"""Special functions and the adaptive integrator."""

import hashlib
import math
import sys
import time
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
    _panels,
    gauss_kronrod_panel,
    incomplete_beta,
    integrate,
    reg_incomplete_beta,
    vol_unit_sphere,
)


class TestVolUnitSphere:
    def test_circle(self):
        assert vol_unit_sphere(2) == pytest.approx(2 * math.pi, rel=1e-15, abs=0)

    def test_two_sphere(self):
        assert vol_unit_sphere(3) == pytest.approx(4 * math.pi, rel=1e-15, abs=0)

    def test_three_sphere(self):
        assert vol_unit_sphere(4) == pytest.approx(2 * math.pi**2, rel=1e-14, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            vol_unit_sphere(0)


class TestRegIncompleteBeta:
    def test_full_mass(self):
        assert reg_incomplete_beta(1.0, 2.3, 4.5) == 1.0

    def test_empty_mass(self):
        assert reg_incomplete_beta(0.0, 2.3, 4.5) == 0.0

    def test_uniform_case(self):
        assert reg_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14, abs=0)

    def test_half_sphere_volume_fraction(self):
        # I_{sin^2(pi/4)}(3/2, 3/2) is the half-ball fraction of the 3-sphere:
        # quadrature of sin^2 over [0, pi/2] against [0, pi]
        num = integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi / 2)
        den = integrate(lambda t: np.sin(t) ** 2, 0.0, math.pi)
        oracle = num / den
        got = reg_incomplete_beta(math.sin(math.pi / 4) ** 2, 1.5, 1.5)
        assert got == pytest.approx(oracle, rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("s, a, b", [(0.9999, 1000.0, 0.1), (0.9995, 1000.0, 0.1), (0.998, 200.0, 0.01)])
    def test_large_a_with_small_b_near_the_mean(self, s, a, b):
        # the fraction's depth near the mean grows like sqrt(a / b): 462 steps
        # at the first case, which once raised QuadratureError at step 400;
        # log B from lgamma limits the agreement to about 5e-13
        assert reg_incomplete_beta(s, a, b) == pytest.approx(float(scipy_betainc(a, b, s)), rel=1e-11, abs=0)

    @pytest.mark.parametrize(
        "s, a, b",
        [
            (0.5, 1e5, 1e4),  # far below the mean: both 0
            (0.91, 1e5, 1e4),  # near the mean
            (9.99990000099999e-06, 1.0, 1e5),  # the worst of a grid to a, b = 1e5: 3.9e-10
            (0.3, 1000.0, 2000.0),  # 1.5e-12 off
            (0.5, 0.5, 1e4),  # far past the mean: both 1
            (0.5, 1e4 + 0.3, 1e3 + 0.2),  # the constant 1 / B(a, b) alone overflows
        ],
    )
    def test_a_constant_past_the_double_range_is_taken_in_logs(self, s, a, b):
        # these once raised a raw OverflowError; log B(a, b) from lgamma, a
        # difference of terms up to 1e6 in size, limits the agreement
        assert reg_incomplete_beta(s, a, b) == pytest.approx(float(scipy_betainc(a, b, s)), rel=5e-10, abs=0)

    def test_the_log_route_keeps_the_endpoints_and_the_symmetry(self):
        assert reg_incomplete_beta(0.0, 1e5, 1e4) == 0.0
        assert reg_incomplete_beta(1.0, 1e5, 1e4) == 1.0
        for s in (0.9, 0.905, 0.91, 0.915):
            total = reg_incomplete_beta(s, 1e5, 1e4) + reg_incomplete_beta(1.0 - s, 1e4, 1e5)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_a_grid_to_a_2000_b_300_against_scipy(self):
        # the worst of these 735 values is 5.0e-11 off, at (0.7, 2000, 4.5);
        # scipy gives 0 for three values below the normal range
        for a in (0.5, 1.5, 2.3, 30.0, 30.5, 250.5, 2000.0):
            for b in (0.1, 0.5, 4.5, 60.0, 300.0):
                for s in np.linspace(0.0, 1.0, 21).tolist():
                    assert reg_incomplete_beta(s, a, b) == pytest.approx(
                        float(scipy_betainc(a, b, s)), rel=1e-10, abs=sys.float_info.min
                    ), (s, a, b)

    @pytest.mark.parametrize(
        "s, a, b",
        [(0.1, 1000.0, 2000.0), (0.1, 1000.3, 2000.2), (0.6, 2000.0, 300.0), (0.4, 1000.0, 100.0)],
    )
    def test_powers_below_the_normal_range_are_taken_in_logs(self, s, a, b):
        # the powers s^a (1 - s)^b are below the normal range, and the values
        # 1e-265 and up: in doubles the product would be 0
        assert reg_incomplete_beta(s, a, b) == pytest.approx(float(scipy_betainc(a, b, s)), rel=1e-11, abs=0)

    @pytest.mark.parametrize("bad_s", [-0.1, 1.0001])
    def test_domain_s(self, bad_s):
        with pytest.raises(DomainError):
            reg_incomplete_beta(bad_s, 1.0, 1.0)

    def test_domain_ab(self):
        with pytest.raises(DomainError):
            reg_incomplete_beta(0.5, -1.0, 1.0)

    @pytest.mark.parametrize(
        "s, a, b",
        [(0.5, 2.0, math.nan), (math.nan, 2.0, 3.0), (0.5, math.nan, 3.0), (0.5, math.inf, 1.0), (0.5, 1.0, math.inf)],
    )
    def test_nan_or_inf_is_a_domain_error(self, s, a, b):
        with pytest.raises(DomainError):
            reg_incomplete_beta(s, a, b)


class TestIncompleteBeta:
    @pytest.mark.parametrize("p, q", [(2.3, 1.0), (1.0, 2.3), (0.0, 1.0), (1.5, -0.5), (math.nan, 1.0)])
    def test_only_a_records_half_integers(self, p, q):
        x = np.array([0.25])
        with pytest.raises(DomainError, match="half-integers"):
            incomplete_beta(p, q, x, 1.0 - x)


class TestIntegrate:
    def test_sine_arch(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_power_of_sine_times_cosine(self):
        # antiderivative sin^4/4 gives exactly 1/4 on [0, pi/2]
        val = integrate(lambda t: np.sin(t) ** 3 * np.cos(t), 0.0, math.pi / 2)
        assert val == pytest.approx(0.25, rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("upper", [1.06, 1.31])
    def test_tolerance_below_the_rounding_floor_raises_at_once(self, upper):
        # int_0^s e^-x cos 4x dx is -0.0045 or -0.0040 here, against 0.3 for
        # the integral of |f|, so 1e-12 of it lies below the panels' summed
        # floors 50 eps int |f|. Bisection cannot lower them, and the call
        # ran to all 4000 subintervals before it raised (about 0.2 s)
        f = lambda x: np.exp(-x) * np.cos(4.0 * x)
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="rounding floor") as err:
            integrate(f, 0.0, upper)
        assert time.perf_counter() - start < 0.1
        exact = (math.exp(-upper) * (4.0 * math.sin(4.0 * upper) - math.cos(4.0 * upper)) + 1.0) / 17.0
        assert err.value.estimate == pytest.approx(exact, abs=1e-14)
        # with an absolute floor within reach it converges
        assert integrate(f, 0.0, upper, 1e-14) == pytest.approx(exact, abs=1e-14)

    def test_non_finite_integrand_raises(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(QuadratureError, match="not finite"):
                integrate(lambda t: np.where(t > 0.7, np.nan, t), 0.0, 1.0)
            with pytest.raises(QuadratureError, match="not finite"):
                integrate(lambda t: 1.0 / (t - t), 0.0, 1.0)

    def test_non_finite_interval_raises(self):
        # the message names the interval
        with np.errstate(invalid="ignore"):
            with pytest.raises(QuadratureError, match=r"not finite on \[1.0, 2.0\]"):
                integrate(lambda x: np.full_like(x, np.inf), 1.0, 2.0)

    def test_converged_first_panel_is_the_only_call(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.cos(t)

        assert integrate(f, 0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-15, abs=0)
        assert calls == [(15,)]

    def test_each_bisection_evaluates_both_halves_in_one_call(self):
        # a narrow Runge bump misses its first panel and is bisected many times
        w = 1e-3
        calls = []

        def f(t):
            calls.append(t.shape)
            return 1.0 / (w * w + t * t)

        val = integrate(f, -1.0, 1.0)
        assert val == pytest.approx(2.0 / w * math.atan(1.0 / w), rel=1e-12)
        assert len(calls) > 3
        assert calls == [(15,)] + [(30,)] * (len(calls) - 1)

    def test_bisects_the_largest_error_first(self, monkeypatch):
        # replay the subintervals: each bisected one has the largest error
        # estimate of those not yet bisected
        leaves = {}
        inner = special_math._panels

        def spy(f, lo, hi):
            out = inner(f, lo, hi)
            if leaves:
                parent = (float(lo[0]), float(hi[-1]))
                assert leaves[parent] == max(leaves.values())
                del leaves[parent]
            leaves.update(zip(zip(lo.tolist(), hi.tolist()), out[1].tolist()))
            return out

        monkeypatch.setattr(special_math, "_panels", spy)
        w = np.array([1e-3, 3e-2])
        val = integrate(lambda t: (1.0 / (w[:, None] ** 2 + (t - 0.5) ** 2)).sum(axis=0), 0.0, 1.0)
        assert val == pytest.approx(float((2.0 / w * np.arctan(0.5 / w)).sum()), rel=1e-12)
        assert len(leaves) > 4

    @pytest.mark.parametrize(
        "kind, message",
        [
            # the narrow bump runs out of subdivisions
            ("narrow", "within 4 subdivisions"),
            # a first panel that is not finite raises before any bisection
            ("inf", r"not finite on \[0.0, 1.0\]"),
        ],
    )
    def test_error_under_a_subdivision_cap(self, kind, message, monkeypatch):
        monkeypatch.setattr(special_math, "_MAX_SUBDIVISIONS", 4)
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.full_like(t, np.inf) if kind == "inf" else 1.0 / (1e-8 + t * t)

        with np.errstate(invalid="ignore"):
            with pytest.raises(QuadratureError, match=message):
                integrate(f, -1.0 if kind == "narrow" else 0.0, 1.0)
        assert len(calls) == (4 if kind == "narrow" else 1)

    def test_integrand_called_once_per_panel(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.cos(t)

        val, _, _ = gauss_kronrod_panel(f, 0.0, 1.0)
        assert calls == [(15,)]
        assert val == pytest.approx(math.sin(1.0), rel=1e-15, abs=0)

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
            assert val == pytest.approx(1.0 / (deg + 1), rel=1e-13, abs=0)

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
        values, errors, resabs = _panels(self.f, lo, hi)[:3]
        for i in range(40):
            one = _panels(self.f, lo[i : i + 1], hi[i : i + 1])
            assert (one[0][0], one[1][0], one[2][0]) == (values[i], errors[i], resabs[i])

    @ROW_DOTS
    def test_error_follows_the_quadpack_recipe(self, row_dot, monkeypatch):
        # the loop the array form replaced, on the same node values
        monkeypatch.setattr(special_math, "_row_dot", row_dot)
        lo = np.linspace(0.0, 2.0, 25)
        hi = lo + np.geomspace(1e-3, 3.0, 25)
        values, errors, resabs = _panels(self.f, lo, hi)[:3]
        half = 0.5 * (hi - lo)
        nodes = half[:, None] * _GK15_NODES + (0.5 * (hi + lo))[:, None]
        fx = self.f(nodes) * half[:, None]
        # |K - G| is summed in one pass with the weight differences, so it can
        # differ from k - g below by a few units in the last place of K: where
        # that is far below |K - G| the estimate matches to 1e-9, and elsewhere
        # it lies between the recipe's values at |K - G| -+ 4 ulp
        well_above = 0
        for i in range(25):
            k = math.fsum(fx[i] * _GK15_WEIGHTS[0])
            g = math.fsum(fx[i] * _GK15_WEIGHTS[1])
            asc = math.fsum(np.abs(fx[i] - 0.5 * k) * _GK15_WEIGHTS[0])

            def recipe(diff):
                return max(asc * min(1.0, 200.0 * diff / asc) ** 1.5, 50.0 * 2.0**-52 * resabs[i])

            assert values[i] == pytest.approx(k, rel=1e-14, abs=0)
            ulp = math.ulp(max(abs(k), abs(g)))
            if abs(k - g) > 1e9 * ulp:
                well_above += 1
                assert errors[i] == pytest.approx(recipe(abs(k - g)), rel=1e-9, abs=0)
            else:
                low, high = recipe(max(abs(k - g) - 4 * ulp, 0.0)), recipe(abs(k - g) + 4 * ulp)
                assert low * (1 - 1e-14) <= errors[i] <= high * (1 + 1e-14)
        assert well_above == 6

    def test_constant_integrand_error_is_the_floor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors, resabs, _ = _panels(
                lambda x: np.full_like(x, 3.0), np.array([0.0, 1.0]), np.array([1.0, 5.0])
            )
        assert values == pytest.approx([3.0, 12.0], rel=1e-15, abs=0)
        assert errors == pytest.approx(50.0 * 2.0**-52 * resabs, rel=1e-14, abs=0)


class TestBetaContinuedFraction:
    @pytest.mark.parametrize("a", [1.0, 1.5, 2.5, 20.0])
    def test_element_alone_matches_batch_bit_for_bit(self, a):
        x = np.random.default_rng(8).uniform(0.0, 0.5, 300)
        batch = _beta_continued_fraction(a, a, x)
        lone = [_beta_continued_fraction(a, a, x[i : i + 1])[0] for i in range(x.size)]
        assert batch.tolist() == lone

    def test_depth_is_where_the_factors_settle(self):
        # the step cap follows a and b but is never below 400, so an element
        # that settled within 400 steps keeps its depth and its bits: the
        # sha256 of these values, all of which settle there
        h = hashlib.sha256()
        for a in (0.5, 1.5, 4.5, 30.0, 60.0, 200.0):
            for b in (0.1, 0.5, 1.0, 2.0, 10.5):
                x = a / (a + b) * np.linspace(0.0, 1.0, 41)
                h.update(_beta_continued_fraction(a, b, x).astype("<f8").tobytes())
        assert h.hexdigest() == "df6859094291f4df1b4eb90b64764666e24f6f8972246461a53435871beaa3a8"

    def test_against_mpmath(self):
        for n in (2, 3, 10, 40):
            x = np.linspace(0.001, 0.5, 25)
            got = _beta_continued_fraction(n / 2, n / 2, x)
            for xi, gi in zip(x.tolist(), got.tolist()):
                exact = float(mpmath.hyp2f1(n, 1, n / 2 + 1, xi))
                assert gi == pytest.approx(exact, rel=3.6e-15, abs=0.0)

