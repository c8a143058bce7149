"""Finite-N lower bounds, optimal-radius constants, prior comparisons."""

import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from greenlab import ball_stats as bs
from greenlab import bounds as bd
from greenlab.errors import (
    DomainError,
    QuadratureError,
    SingularityError,
    UnsupportedManifoldError,
)
from greenlab.manifold import Family, ManifoldSpec, diameter, dimension, volume

S2 = ManifoldSpec(Family.SPHERE, 2)
S3 = ManifoldSpec(Family.SPHERE, 3)
RP2 = ManifoldSpec(Family.REAL_PROJ, 2)
RP3 = ManifoldSpec(Family.REAL_PROJ, 3)
CP1 = ManifoldSpec(Family.COMPLEX_PROJ, 1)
CP2 = ManifoldSpec(Family.COMPLEX_PROJ, 2)
HP1 = ManifoldSpec(Family.QUAT_PROJ, 1)
OP2 = ManifoldSpec(Family.CAYLEY_PLANE, 2)
S40 = ManifoldSpec(Family.SPHERE, 40)
CP30 = ManifoldSpec(Family.COMPLEX_PROJ, 30)
HP15 = ManifoldSpec(Family.QUAT_PROJ, 15)


class TestFiniteBound:
    @pytest.mark.parametrize("spec", [S2, CP2, OP2])
    def test_full_ball_reduction(self, spec):
        # at a = D the ratio term is 1 and Theta vanishes: 2N(1-N)K(M,D)
        N = 50
        expected = 2 * N * (1 - N) * bs.k_value(spec, diameter(spec))
        assert bd.finite_bound(spec, N, diameter(spec)) == pytest.approx(
            expected, rel=1e-6
        )

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2])
    def test_single_point_scan_nonpositive(self, spec):
        # one point has zero energy, so the N=1 bound can never be positive
        for frac in (0.05, 0.2, 0.5, 0.8, 1.0):
            assert bd.finite_bound(spec, 1, frac * diameter(spec)) <= 1e-12

    def test_two_sphere_thousand_points(self):
        rep = bd.best_finite_bound(S2, 1000)
        N = 1000
        target = -(N / (4 * math.pi)) * math.log(N) - N / (8 * math.pi)
        assert 0.9 < rep.best_bound / target < 1.1

    def test_validation(self):
        with pytest.raises(DomainError):
            bd.finite_bound(S2, 0, 0.3)
        with pytest.raises(DomainError):
            bd.finite_bound(S2, 5, 0.0)


class TestOptimalRadiusConstant:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_complex_projective(self, n):
        spec = ManifoldSpec(Family.COMPLEX_PROJ, n)
        coeff = bd.optimal_radius_constant(spec)
        assert coeff.c_opt == pytest.approx(1.0, rel=1e-12)
        assert coeff.leading == pytest.approx(
            n / (2 * (n * n - 1) * volume(spec)), rel=1e-12
        )
        assert coeff.exponent == pytest.approx(2 - 1 / n, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_quaternionic_projective(self, n):
        spec = ManifoldSpec(Family.QUAT_PROJ, n)
        coeff = bd.optimal_radius_constant(spec)
        assert coeff.c_opt == pytest.approx((2 * n + 1) ** (-1 / (2 * n)), rel=1e-12)
        expected = n / ((2 * n - 1) * (2 * n + 1) ** (1 + 1 / (2 * n)) * volume(spec))
        assert coeff.leading == pytest.approx(expected, rel=1e-12)

    def test_cayley_plane(self):
        coeff = bd.optimal_radius_constant(OP2)
        assert coeff.c_opt == pytest.approx(165 ** (-1 / 8), rel=1e-12)
        assert coeff.leading == pytest.approx(
            4 / (63 * 165 ** (1 / 8) * volume(OP2)), rel=1e-12
        )

    @pytest.mark.parametrize("n", range(3, 11))
    def test_real_projective(self, n):
        spec = ManifoldSpec(Family.REAL_PROJ, n)
        coeff = bd.optimal_radius_constant(spec)
        expected = (
            n
            / ((n * n - 4) * volume(spec))
            * (math.gamma(n / 2 + 1) * math.sqrt(math.pi) / math.gamma((n + 1) / 2))
            ** (2 / n)
        )
        assert coeff.leading == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", [S2, ManifoldSpec(Family.COMPLEX_PROJ, 1)])
    def test_dimension_two_unsupported(self, spec):
        with pytest.raises(UnsupportedManifoldError):
            bd.optimal_radius_constant(spec)


class TestSphereLeadingCoefficient:
    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_two_routes_collapse(self, n):
        direct = bd.sphere_leading_coefficient(n)
        pipeline = bd.optimal_radius_constant(ManifoldSpec(Family.SPHERE, n)).leading
        assert direct == pytest.approx(pipeline, rel=1e-12)

    def test_tabulation_finite_positive(self):
        vals = [bd.sphere_leading_coefficient(n) for n in range(3, 40)]
        assert all(v > 0 and math.isfinite(v) for v in vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            bd.sphere_leading_coefficient(2)


class TestPriorCoefficients:
    def test_cayley_plane_display_values(self):
        ours = bd.our_coefficient(OP2)
        prior = bd.matzke_coefficient(OP2)
        # displayed as 0.0335... and 0.0400... (truncated decimals)
        assert math.floor(ours * 1e4) / 1e4 == 0.0335
        assert math.floor(prior * 1e4) / 1e4 == 0.0400

    def test_complex_projective_formula(self):
        for n in (2, 5, 20):
            expected = n / (4 * (n - 1) * math.exp(math.lgamma(n + 1.0) / n))
            spec = ManifoldSpec(Family.COMPLEX_PROJ, n)
            assert bd.matzke_coefficient(spec) == pytest.approx(expected, rel=1e-13)

    def test_quaternionic_line_finite(self):
        val = bd.matzke_coefficient(HP1)
        assert val > 0 and math.isfinite(val)

    def test_sphere_unsupported(self):
        with pytest.raises(UnsupportedManifoldError):
            bd.matzke_coefficient(S3)

    def test_real_projective_needs_n3(self):
        with pytest.raises(DomainError):
            bd.matzke_coefficient(ManifoldSpec(Family.REAL_PROJ, 2))


class TestLegacyConstants:
    def test_four_decimal_values(self):
        table = bd.legacy_2d_constants()
        assert math.floor(abs(table["C_BHS"]) * 1e4) / 1e4 == 0.0556
        assert math.floor(abs(table["lauritsen"]) * 1e4) / 1e4 == 0.0568
        assert table["cp1_nlogn"] == pytest.approx(-1 / math.pi, rel=1e-15)
        assert table["cp1_linear"] == pytest.approx(-1 / (2 * math.pi), rel=1e-15)
        assert table["rp2_nlogn"] == pytest.approx(-1 / (4 * math.pi), rel=1e-15)


class TestBestFiniteBound:
    def test_dominates_grid(self):
        rep = bd.best_finite_bound(CP2, 500)
        assert all(rep.best_bound >= val for _, val in rep.radius_grid)
        assert rep.best_bound <= 0.0

    @pytest.mark.parametrize("spec", [CP2, HP1])
    def test_large_n_asymptotic_consistency(self, spec):
        N = 10**6
        rep = bd.best_finite_bound(spec, N)
        coeff = bd.optimal_radius_constant(spec)
        assert rep.best_a / rep.asymptotic_a == pytest.approx(1.0, abs=0.05)
        predicted = -coeff.leading * N**coeff.exponent
        assert rep.best_bound / predicted == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("spec", [S3, CP2, HP1, OP2])
    @pytest.mark.parametrize("N", [100, 10_000, 1_000_000])
    def test_asymptotic_radius_below_best(self, spec, N):
        rep = bd.best_finite_bound(spec, N)
        assert rep.asymptotic_bound <= rep.best_bound <= 0.0

    def test_two_points_minimum(self):
        with pytest.raises(DomainError):
            bd.best_finite_bound(S2, 1)

    def test_report_serialization(self):
        rep = bd.best_finite_bound(HP1, 100)
        payload = rep.to_dict()
        assert payload["family"] == "hp"
        assert payload["N"] == 100
        assert len(payload["radius_grid"]) == bd.GRID_POINTS


def _golden_reference(spec, N, rep):
    """Max over rep's grid, its asymptotic radius and an 80-step golden-section search."""

    def f(a):
        return bd.finite_bound(spec, N, a)

    grid = rep.radius_grid
    if rep.asymptotic_a is not None:
        lo = max(1e-6, 0.1 * rep.asymptotic_a)
        hi = min(diameter(spec), 10.0 * rep.asymptotic_a)
    else:
        best = max(range(len(grid)), key=lambda i: grid[i][1])
        lo, hi = grid[max(best - 1, 0)][0], grid[min(best + 1, len(grid) - 1)][0]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
    found = [f1, f2] + [b for _, b in grid]
    if rep.asymptotic_bound is not None:
        found.append(rep.asymptotic_bound)
    return max(found)


class TestRadiusSearch:
    SPECS = [S2, S3, RP3, CP2, HP1, OP2]

    @pytest.mark.parametrize("spec", SPECS)
    def test_few_evaluations(self, spec, monkeypatch):
        calls = []
        inner = bd.finite_bounds

        def counted(spec, N, radii):
            calls.append(len(radii))
            return inner(spec, N, radii)

        monkeypatch.setattr(bd, "finite_bounds", counted)
        monkeypatch.setattr(bd, "_REPORTS", {})
        bd.best_finite_bound(spec, 1000)
        # the 32 grid points and the asymptotic radius, the proxy's interior
        # nodes, then its maximiser: the first proxy is resolved
        assert calls == [bd.GRID_POINTS + (dimension(spec) > 2), bd._NODES - 2, 1]

    @pytest.mark.parametrize(
        ("spec", "N"),
        [(s, 1000) for s in SPECS] + [(s, N) for s in (S40, CP30, HP15) for N in (2, 3, 10**6)],
        ids=str,
    )
    def test_matches_golden_section_reference(self, spec, N):
        # at N = 2 and 3 the CP^30 bracket ends at D, where Theta's log cos^2 a
        # leaves the first proxy unresolved and the search shrinks it
        rep = bd.best_finite_bound(spec, N)
        reference = _golden_reference(spec, N, rep)
        assert rep.best_bound == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", SPECS)
    def test_dominates_every_grid_value(self, spec):
        rep = bd.best_finite_bound(spec, 1000)
        assert all(rep.best_bound >= val for _, val in rep.radius_grid)

    @staticmethod
    def analytic_search(monkeypatch, f, lo, hi):
        """`_proxy_search` on [lo, hi] with f in place of the bound, and its pass sizes."""
        passes = []

        def bounds(spec, N, radii):
            passes.append(len(radii))
            return f(np.asarray(radii, dtype=float))

        monkeypatch.setattr(bd, "finite_bounds", bounds)
        return bd._proxy_search(S3, 10, ((lo, f(lo)), (hi, f(hi)))), passes

    def test_proxy_finds_an_interior_maximum(self, monkeypatch):
        # a exp(-a / 0.7) peaks at exactly a = 0.7
        f = lambda a: a * np.exp(-a / 0.7)
        evaluations, passes = self.analytic_search(monkeypatch, f, 0.4, 1.2)
        best = max(evaluations, key=evaluations.get)
        assert passes == [bd._NODES - 2, 1]
        assert best == pytest.approx(0.7, rel=0.0, abs=1e-12)
        assert evaluations[best] == pytest.approx(0.7 * math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_bracket_adds_no_radius(self, monkeypatch, sign):
        f = lambda a: sign * np.log1p(a)
        evaluations, passes = self.analytic_search(monkeypatch, f, 0.2, 0.7)
        assert passes == [bd._NODES - 2]
        assert max(evaluations, key=evaluations.get) == (0.7 if sign > 0 else 0.2)

    def test_unresolved_proxy_shrinks_the_bracket(self, monkeypatch):
        # |a - 0.61|^3 is not analytic, so no proxy is resolved: every round
        # runs, each on the last one's best node and its neighbours
        f = lambda a: -np.abs(a - 0.61) ** 3
        evaluations, passes = self.analytic_search(monkeypatch, f, 0.2, 1.0)
        assert passes == [bd._NODES - 2] * bd._ROUNDS + [1]
        best = max(evaluations, key=evaluations.get)
        assert best == pytest.approx(0.61, abs=1e-4) and evaluations[best] > -1e-15


class TestCompareTable:
    @pytest.mark.parametrize(
        ("family", "lo", "hi"),
        [
            (Family.REAL_PROJ, 3, 60),
            (Family.COMPLEX_PROJ, 2, 60),
            (Family.QUAT_PROJ, 1, 30),
        ],
    )
    def test_strictly_sharper_everywhere(self, family, lo, hi):
        rows = bd.compare_table(family, lo, hi)
        assert len(rows) == hi - lo + 1
        for n, ours, prior, ratio in rows:
            assert 0 < abs(ours) < abs(prior)
            assert ratio == pytest.approx(ours / prior, rel=1e-15)

    @pytest.mark.parametrize(
        ("family", "lo", "hi"),
        [
            (Family.REAL_PROJ, 3, 1000),
            (Family.COMPLEX_PROJ, 2, 500),
            (Family.QUAT_PROJ, 1, 250),
        ],
    )
    def test_ratio_is_the_gamma_identity_in_any_dimension(self, family, lo, hi):
        # ours / prior = 2 Gamma(d/2 + 1)^(2/d) / (d/2 + 1) on every family, also
        # where V and the unit-sphere area leave the range of a double
        for n, ours, prior, ratio in bd.compare_table(family, lo, hi):
            assert math.isfinite(ours) and math.isfinite(prior)
            half = mpmath.mpf(dimension(ManifoldSpec(family, n))) / 2
            with mpmath.workdps(30):
                exact = 2 * mpmath.gamma(half + 1) ** (1 / half) / (half + 1)
            assert abs(ratio - exact) <= 1e-13 * exact, n

    def test_cayley_plane_single_row(self):
        rows = bd.compare_table(Family.CAYLEY_PLANE, 2, 2)
        assert len(rows) == 1
        assert rows[0][0] == 2

    def test_range_validation(self):
        with pytest.raises(DomainError):
            bd.compare_table(Family.REAL_PROJ, 2, 10)
        with pytest.raises(UnsupportedManifoldError):
            bd.compare_table(Family.SPHERE, 3, 5)


class TestBoundArrays:
    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2])
    def test_batch_matches_one_radius_calls(self, spec):
        D = diameter(spec)
        radii = np.append(np.random.default_rng(4).uniform(0.01 * D, D, 16), [0.9 * D, D])
        lone = [bd.finite_bound(spec, 300, a) for a in radii.tolist()]
        assert bd.finite_bounds(spec, 300, radii).tolist() == lone

    def test_radius_past_the_diameter_rejected(self):
        with pytest.raises(DomainError):
            bd.finite_bounds(S2, 10, [0.5, 3.2])

    @pytest.mark.parametrize("spec", [S3, RP3])
    def test_one_quadrature_call_per_pass(self, spec, monkeypatch):
        # the search's 33-radius pass and its one-radius pass at the proxy's
        # maximiser: every K and Theta row of a pass shares one integrate_intervals call
        calls = []
        batched = bs.integrate_intervals

        def spy(f, lo, hi):
            calls.append(hi.size)
            return batched(f, lo, hi)

        monkeypatch.setattr(bs, "integrate_intervals", spy)
        radii = np.append(bd._log_grid(spec, 1000), 0.3 * diameter(spec))
        bd.finite_bounds(spec, 1000, radii)
        assert calls == [2 * 33]
        calls.clear()
        bd.finite_bound(spec, 1000, 0.8 * diameter(spec))
        assert calls == [2]

    def test_k_error_comes_before_a_theta_quadrature_error(self, monkeypatch):
        # V V(a) underflows at a = 0.05 on S^200, so K is not finite there; a
        # Theta row that cannot be integrated shares the call but must not
        # hide that
        ratios = bs._radial_ratios(ManifoldSpec(Family.SPHERE, 200))
        broken = ratios._replace(moment=lambda s: np.full(s.size, np.nan))
        monkeypatch.setattr(bs, "_radial_ratios", lambda spec: broken)
        with pytest.raises(SingularityError, match=r"K is (inf|nan) at a = 0\.05 on s200"):
            bd.finite_bounds(ManifoldSpec(Family.SPHERE, 200), 1000, [1.0, 0.05])

    def test_theta_quadrature_error_raised_once_k_is_finite(self, monkeypatch):
        ratios = bs._radial_ratios(S3)
        broken = ratios._replace(moment=lambda s: np.full(s.size, np.nan))
        monkeypatch.setattr(bs, "_radial_ratios", lambda spec: broken)
        with pytest.raises(QuadratureError, match=r"not finite on \[0\.0, 0\.3\]"):
            bd.finite_bounds(S3, 1000, [0.3])

    @pytest.mark.parametrize("spec", [S2, S3, RP2, RP3, CP1, CP2, HP1, OP2])
    @pytest.mark.parametrize("N", [10, 100, 400, 1000, 2400, 10_000, 1_000_000])
    def test_grid_ends_at_the_diameter(self, spec, N):
        radii = [a for a, _ in bd.best_finite_bound(spec, N).radius_grid]
        assert len(radii) == bd.GRID_POINTS
        assert all(a <= diameter(spec) for a in radii)
        assert radii[-1] == diameter(spec)
        assert radii == sorted(radii)


class TestReportCache:
    def test_repeated_calls_return_equal_reports(self, monkeypatch):
        monkeypatch.setattr(bd, "_REPORTS", {})
        first = bd.best_finite_bound(S3, 777)
        second = bd.best_finite_bound(S3, 777)
        assert first == second and first is not second
        assert len(bd._REPORTS) == 1

    def test_mutating_a_report_leaves_the_cache_alone(self, monkeypatch):
        monkeypatch.setattr(bd, "_REPORTS", {})
        first = bd.best_finite_bound(CP2, 778)
        grid = list(first.radius_grid)
        first.radius_grid[0] = (1.0, 1.0)
        first.radius_grid.append((2.0, 2.0))
        first.best_bound = -1.0
        again = bd.best_finite_bound(CP2, 778)
        assert again.radius_grid == grid
        assert again.best_bound != -1.0

    def test_concurrent_searches_agree(self, monkeypatch):
        monkeypatch.setattr(bd, "_REPORTS", {})
        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(pool.map(lambda _: bd.best_finite_bound(RP3, 779), range(16)))
        assert all(rep == reports[0] for rep in reports)
        assert len({id(rep.radius_grid) for rep in reports}) == len(reports)
        assert len(bd._REPORTS) == 1
