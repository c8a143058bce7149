"""Finite-N lower bounds, optimal-radius constants, prior comparisons."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from greenlab import ball_stats as bs
from greenlab import bounds as bd
from greenlab import energy as en
from greenlab import verify as vf
from greenlab.errors import DomainError, SingularityError, UnsupportedManifoldError
from greenlab.manifold import (
    Family,
    ManifoldSpec,
    ball_volume_fraction,
    diameter,
    dimension,
    sample_uniform,
    volume,
)

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
S200 = ManifoldSpec(Family.SPHERE, 200)
RP186 = ManifoldSpec(Family.REAL_PROJ, 186)
CP93 = ManifoldSpec(Family.COMPLEX_PROJ, 93)
HP46 = ManifoldSpec(Family.QUAT_PROJ, 46)


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
            n / (2 * (n * n - 1) * volume(spec)), rel=1e-12, abs=0
        )
        assert coeff.exponent == pytest.approx(2 - 1 / n, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_quaternionic_projective(self, n):
        spec = ManifoldSpec(Family.QUAT_PROJ, n)
        coeff = bd.optimal_radius_constant(spec)
        assert coeff.c_opt == pytest.approx((2 * n + 1) ** (-1 / (2 * n)), rel=1e-12, abs=0)
        expected = n / ((2 * n - 1) * (2 * n + 1) ** (1 + 1 / (2 * n)) * volume(spec))
        assert coeff.leading == pytest.approx(expected, rel=1e-12, abs=0)

    def test_cayley_plane(self):
        coeff = bd.optimal_radius_constant(OP2)
        assert coeff.c_opt == pytest.approx(165 ** (-1 / 8), rel=1e-12, abs=0)
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
        assert coeff.leading == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", [S2, ManifoldSpec(Family.COMPLEX_PROJ, 1)])
    def test_dimension_two_unsupported(self, spec):
        with pytest.raises(UnsupportedManifoldError):
            bd.optimal_radius_constant(spec)


class TestSphereLeadingCoefficient:
    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_two_routes_collapse(self, n):
        direct = vf._sphere_leading_coefficient(n)
        pipeline = bd.optimal_radius_constant(ManifoldSpec(Family.SPHERE, n)).leading
        assert direct == pytest.approx(pipeline, rel=1e-12, abs=0)

    def test_tabulation_finite_positive(self):
        vals = [vf._sphere_leading_coefficient(n) for n in range(3, 40)]
        assert all(v > 0 and math.isfinite(v) for v in vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            vf._sphere_leading_coefficient(2)


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
            assert bd.matzke_coefficient(spec) == pytest.approx(expected, rel=1e-13, abs=0)

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
        assert table["cp1_nlogn"] == pytest.approx(-1 / (4 * math.pi), rel=1e-15, abs=0)
        assert table["cp1_linear"] == pytest.approx(-1 / (8 * math.pi), rel=1e-15, abs=0)
        assert table["rp2_nlogn"] == pytest.approx(-1 / (4 * math.pi), rel=1e-15, abs=0)


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


@pytest.fixture
def passes(monkeypatch):
    """The sizes of the `finite_bounds` passes and the number of kernel passes
    (`ball_stats._closed_kernels` calls) while a test runs."""
    found = {"finite_bounds": [], "kernels": 0}
    bounds, kernels = bd.finite_bounds, bs._closed_kernels

    def counted_bounds(spec, N, radii):
        found["finite_bounds"].append(len(radii))
        return bounds(spec, N, radii)

    def counted_kernels(spec, a):
        found["kernels"] += 1
        return kernels(spec, a)

    monkeypatch.setattr(bd, "finite_bounds", counted_bounds)
    monkeypatch.setattr(bs, "_closed_kernels", counted_kernels)
    return found


class TestRadiusSearch:
    SPECS = [S2, S3, RP3, CP2, HP1, OP2]

    @pytest.mark.parametrize("spec", SPECS)
    def test_cold_search_makes_one_pass(self, spec, fresh_caches, passes):
        bd.best_finite_bound(spec, 1000)
        # one pass over the 32 grid points, the asymptotic radius and the root of V(a)/V = 1/N
        assert passes == {"finite_bounds": [bd.GRID_POINTS + (dimension(spec) > 2) + 1], "kernels": 1}

    @pytest.mark.parametrize("spec", SPECS)
    def test_warm_search_makes_one_pass(self, spec, fresh_caches, passes):
        bd.best_finite_bound(spec, 1000)
        bd._search_radius.cache_clear()
        passes.update(finite_bounds=[], kernels=0)
        bd.best_finite_bound(spec, 1000)
        assert passes == {"finite_bounds": [bd.GRID_POINTS + (dimension(spec) > 2) + 1], "kernels": 1}

    @pytest.mark.parametrize(
        ("spec", "N"),
        [(s, 1000) for s in SPECS] + [(s, N) for s in (S40, CP30, HP15) for N in (2, 3, 10**6)],
        ids=str,
    )
    def test_matches_golden_section_reference(self, spec, N):
        # at N = 2 the CP^30 maximum lies past the mean, on the mirror's side
        rep = bd.best_finite_bound(spec, N)
        reference = _golden_reference(spec, N, rep)
        assert rep.best_bound == pytest.approx(reference, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", SPECS)
    def test_dominates_every_grid_value(self, spec):
        rep = bd.best_finite_bound(spec, 1000)
        assert all(rep.best_bound >= val for _, val in rep.radius_grid)

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2, S200, RP186, CP93, HP46], ids=str)
    def test_best_radius_holds_one_nth_of_the_volume(self, spec):
        # B' = 2N K' (V/V(a) - N) vanishes there alone; ball_volume_fraction
        # (the incomplete beta, not the record series) checks the root
        checked = 0
        for N in (2, 3, 77, 1234, 10**6):
            try:
                rep = bd.best_finite_bound(spec, N)
            except SingularityError:
                continue  # the bound is not finite at some radius of the grid
            checked += 1
            mu = ball_volume_fraction(spec, np.array([rep.best_a]))[0]
            assert abs(N * mu - 1.0) <= 1e-12, N
        assert checked

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2, CP30], ids=str)
    def test_slope_factors_through_the_ball_fraction(self, spec):
        # B'/(2N K') = V/V(a) - N by central differences, K' > 0
        for frac in (0.1, 0.4, 0.8):
            a = frac * diameter(spec)
            h = 1e-5 * a
            inverse = 1.0 / ball_volume_fraction(spec, np.array([a]))[0]  # V/V(a)
            k_slope = (bs.k_value(spec, a + h) - bs.k_value(spec, a - h)) / (2.0 * h)
            assert k_slope > 0.0
            for N in (3, 1000):
                slope = (bd.finite_bound(spec, N, a + h) - bd.finite_bound(spec, N, a - h)) / (2.0 * h)
                assert slope / (2.0 * N * k_slope) == pytest.approx(inverse - N, rel=0.0, abs=1e-6 * inverse)

    @pytest.mark.parametrize(("spec", "key"), [(S2, "s2"), (RP2, "rp2"), (CP1, "cp1")], ids=["s2", "rp2", "cp1"])
    @pytest.mark.parametrize("N", [10**8, 10**9, 10**12])
    def test_dimension_two_follows_the_n_log_n_law(self, spec, key, N):
        # the maximum lies below the grid's 1e-4 D floor from N of about 4e7.
        # CP^1 is S^2 with the metric scaled, which the 2-D Green function
        # does not see: its bound, and so its law, are S^2's
        table = bd.legacy_2d_constants()
        law = table[f"{key}_nlogn"] * N * math.log(N) + table[f"{key}_linear"] * N
        rel = 1e-13 if N == 10**12 else 1e-9
        assert bd.best_finite_bound(spec, N).best_bound == pytest.approx(law, rel=rel, abs=0.0)


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
            assert ratio == pytest.approx(ours / prior, rel=1e-15, abs=0)

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

    @pytest.mark.parametrize("spec", [S2, S3, RP2, RP3, CP1, CP2, HP1, OP2])
    @pytest.mark.parametrize("N", [10, 100, 400, 1000, 2400, 10_000, 1_000_000])
    def test_grid_ends_at_the_diameter(self, spec, N):
        radii = [a for a, _ in bd.best_finite_bound(spec, N).radius_grid]
        assert len(radii) == bd.GRID_POINTS
        assert all(a <= diameter(spec) for a in radii)
        assert radii[-1] == diameter(spec)
        assert radii == sorted(radii)


class TestSearchCaches:
    """A report has the same bits whatever other N were searched before it."""

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1, OP2, CP30], ids=str)
    def test_report_does_not_depend_on_the_caches(self, spec, fresh_caches):
        sizes = [2, 3, 401, 2400, 10**6]
        cold = {}
        for N in sizes:
            fresh_caches()
            cold[N] = bd.best_finite_bound(spec, N).to_dict()
        for N in sizes:
            fresh_caches()
            for other in sizes[::-1]:
                if other != N:
                    bd.best_finite_bound(spec, other)
            bd._search_radius.cache_clear()
            assert repr(bd.best_finite_bound(spec, N).to_dict()) == repr(cold[N]), N

    def test_the_grid_error_comes_first(self):
        # on S^429 at N = 5000 Theta overflows at the grid's smallest radius,
        # the first radius of the search's one pass
        spec, N = ManifoldSpec(Family.SPHERE, 429), 5000
        lo = float(bd._log_grid(spec, N)[0])
        with pytest.raises(SingularityError, match=f"Theta is inf at a = {lo!r} on s429"):
            bd.best_finite_bound(spec, N)

    def test_an_n_past_the_double_range_is_a_domain_error(self):
        N = 10**400
        with pytest.raises(DomainError, match="fit in a double"):
            bd.best_finite_bound(S3, N)
        with pytest.raises(DomainError, match="fit in a double"):
            bd.finite_bounds(S3, N, [0.5])


class TestReportCache:
    def test_repeated_calls_return_equal_reports(self, fresh_caches):
        first = bd.best_finite_bound(S3, 777)
        second = bd.best_finite_bound(S3, 777)
        assert first is second
        assert bd._search_radius.cache_info().currsize == 1

    def test_a_report_cannot_be_changed(self, fresh_caches):
        report = bd.best_finite_bound(CP2, 778)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.best_bound = -1.0
        with pytest.raises(TypeError):
            report.radius_grid[0] = (1.0, 1.0)

    def test_concurrent_searches_agree(self, fresh_caches):
        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(pool.map(lambda _: bd.best_finite_bound(RP3, 779), range(16)))
        assert all(rep == reports[0] for rep in reports)
        assert bd._search_radius.cache_info().currsize == 1

    def test_a_cleared_report_is_searched_again_to_the_same_bits(self, fresh_caches):
        assert bd._search_radius.cache_info().maxsize == 1024
        first = bd.best_finite_bound(CP2, 780)
        bd._search_radius.cache_clear()
        again = bd.best_finite_bound(CP2, 780)
        assert bd._search_radius.cache_info().misses == 1
        assert repr(again) == repr(first)

    def test_the_prior_is_looked_up_once_per_spec(self, fresh_caches, monkeypatch):
        # S^3 has no prior: its lookup raises once and is kept as None
        calls = []
        prior = bd.matzke_coefficient
        monkeypatch.setattr(bd, "matzke_coefficient", lambda spec: calls.append(spec) or prior(spec))
        reports = [bd.best_finite_bound(spec, N) for spec in (S3, RP3, CP2) for N in (400, 401, 2400)]
        assert calls == [S3, RP3, CP2]
        assert [rep.matzke_coefficient for rep in reports[::3]] == [None, prior(RP3), prior(CP2)]

    def test_an_energy_after_its_warm_up_bound_is_a_hit(self, fresh_caches):
        # as `energy` runs after a bound at its N: the report comes from the cache
        cfg = sample_uniform(RP3, np.random.default_rng(2), 40)
        warm = bd.best_finite_bound(RP3, 40)
        for N in range(41, 41 + 50):
            bd.best_finite_bound(CP2, N)
        assert bd._search_radius.cache_info().misses == 51
        assert en.EnergyReport.from_configuration(cfg).bound == warm
        assert bd._search_radius.cache_info().misses == 51
