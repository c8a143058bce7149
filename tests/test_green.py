"""Radial Green profiles: construction, closed-form oracles, defining properties.

Closed reference profiles used as oracles below (hand integration of the
slope (V - V(s))/v(s) and of the mean-zero constant):

    2-sphere:            phi_hat = -2 log sin(r/2),              C = -1
    3-sphere:            phi_hat = (1 + (pi - r) cot r)/2,       C = -3/4
    real proj. plane:    phi_hat = -log sin r,                   C = log 2 - 1
    complex proj. line:  phi_hat = -(1/2) log sin r,             C = -1/4
    complex proj. plane: phi_hat = ( -log sin r + (csc^2 r - 1)/2 )/4
"""

import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from greenlab import cli, green
from greenlab.chebyshev import _CELL_CHUNK, _CHUNK
from greenlab.errors import DomainError, GreenLabError, SingularityError
from greenlab.green import (
    _cut_radius,
    _phi_hat_floor,
    _radial_ratios,
    build_profile,
    get_profile,
    phi_hat,
    phi_hat_prime,
)
from greenlab.manifold import (
    Family,
    ManifoldSpec,
    _record,
    _regularized_beta,
    _sin_cos_squares,
    _volume_ratio,
    bm_constant,
    diameter,
    dimension,
    sample_uniform,
    save_configuration,
    sphere_area,
    volume,
)
from greenlab.special_math import integrate, vol_unit_sphere

import half_angle_oracle

S2 = ManifoldSpec(Family.SPHERE, 2)
S3 = ManifoldSpec(Family.SPHERE, 3)
S4 = ManifoldSpec(Family.SPHERE, 4)
RP2 = ManifoldSpec(Family.REAL_PROJ, 2)
RP3 = ManifoldSpec(Family.REAL_PROJ, 3)
CP1 = ManifoldSpec(Family.COMPLEX_PROJ, 1)
CP2 = ManifoldSpec(Family.COMPLEX_PROJ, 2)
HP1 = ManifoldSpec(Family.QUAT_PROJ, 1)
OP2 = ManifoldSpec(Family.CAYLEY_PLANE, 2)
S5 = ManifoldSpec(Family.SPHERE, 5)
S17 = ManifoldSpec(Family.SPHERE, 17)
S39 = ManifoldSpec(Family.SPHERE, 39)
S40 = ManifoldSpec(Family.SPHERE, 40)
S41 = ManifoldSpec(Family.SPHERE, 41)
S61 = ManifoldSpec(Family.SPHERE, 61)
S60 = ManifoldSpec(Family.SPHERE, 60)
S100 = ManifoldSpec(Family.SPHERE, 100)
S200 = ManifoldSpec(Family.SPHERE, 200)
CP100 = ManifoldSpec(Family.COMPLEX_PROJ, 100)
RP4 = ManifoldSpec(Family.REAL_PROJ, 4)
RP16 = ManifoldSpec(Family.REAL_PROJ, 16)
RP40 = ManifoldSpec(Family.REAL_PROJ, 40)
RP41 = ManifoldSpec(Family.REAL_PROJ, 41)
CP20 = ManifoldSpec(Family.COMPLEX_PROJ, 20)
HP10 = ManifoldSpec(Family.QUAT_PROJ, 10)

CORE = [S2, S3, RP2, RP3, CP1, CP2, HP1, OP2]
# tabled specs of about the dimensions of the closed ones in CORE and of S^40,
# CP^20 and HP^10: the tests of table internals run on these
TABLED = [S3, RP2, RP3, RP4, S5, RP16, S17, S39, RP40, S41, RP41]


def phi_hat_s2(r):
    return -2.0 * np.log(np.sin(r / 2))


def phi_hat_s3(r):
    return 0.5 * (1.0 + (math.pi - r) / np.tan(r))


def eq1_profile(r):
    # unit-sphere Green function in terms of the chordal distance 2 sin(r/2)
    return (
        np.log(1.0 / (2.0 * np.sin(r / 2))) / (2 * math.pi)
        - 1 / (4 * math.pi)
        + math.log(2.0) / (2 * math.pi)
    )


def panel_table(prof):
    """The panel table the profile's cells were fitted to, built again: a profile keeps only its cells."""
    return green._build_phi_hat_tables(prof.spec, prof.c_m, prof.r_cut)[0]


class TestPhiHatPrime:
    def test_two_sphere_midpoint(self):
        # -(V - V(s))/v(s) = -(1 + cos s)/sin s = -cot(s/2); equals -1 at pi/2
        assert phi_hat_prime(S2, math.pi / 2) == pytest.approx(-1.0, rel=1e-13)

    def test_two_sphere_closed_form(self):
        for s in (0.2, 1.0, 2.7):
            expected = -(1 + math.cos(s)) / math.sin(s)
            assert phi_hat_prime(S2, s) == pytest.approx(expected, rel=1e-12)

    def test_complex_family_vanishes_at_diameter(self):
        for spec in (CP1, CP2):
            assert abs(phi_hat_prime(spec, diameter(spec) - 1e-6)) < 1e-5

    @pytest.mark.parametrize("spec", CORE)
    def test_always_negative(self, spec):
        D = diameter(spec)
        for frac in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert phi_hat_prime(spec, frac * D) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_hat_prime(S2, 0.0)
        with pytest.raises(DomainError):
            phi_hat_prime(S2, math.pi)
        with pytest.raises(DomainError):
            phi_hat_prime(S2, np.array([0.5, math.pi]))

    @pytest.mark.parametrize("spec", CORE + [ManifoldSpec(Family.SPHERE, 40)])
    def test_array_matches_scalar_calls(self, spec):
        s = np.linspace(0.01, 0.99, 37) * diameter(spec)
        loop = np.array([phi_hat_prime(spec, float(x)) for x in s])
        got = phi_hat_prime(spec, s)
        assert got.shape == s.shape
        # the continued fraction takes each element at its own convergence
        assert got.tolist() == loop.tolist()

    @pytest.mark.parametrize(("family", "n"), [(Family.SPHERE, 3), (Family.SPHERE, 40), (Family.SPHERE, 100), (Family.REAL_PROJ, 60)])
    def test_against_mpmath(self, family, n):
        # psi = (V - V(s)) / v(s) from the regularized incomplete beta at 40 digits
        spec = ManifoldSpec(family, n)
        D = diameter(spec)
        with mpmath.workdps(40):
            a = mpmath.mpf(n) / 2
            for s in (0.05 * D, 0.3 * D, 0.49 * D, 0.51 * D, 0.8 * D, 0.999 * D):
                x = mpmath.sin(mpmath.mpf(s) / 2) ** 2
                # I over [x, 1] is I over [0, 1 - x] for equal parameters
                rest = mpmath.betainc(a, a, 0, mpmath.cos(mpmath.mpf(s) / 2) ** 2, regularized=True)
                if family is Family.REAL_PROJ:
                    rest -= mpmath.betainc(a, a, 0, x, regularized=True)
                    rest /= 2
                exact = 2 ** (n - 1) * mpmath.beta(a, a) * rest / mpmath.sin(mpmath.mpf(s)) ** (n - 1)
                assert -phi_hat_prime(spec, s) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


class TestRadialRatios:
    @pytest.mark.parametrize("spec", [CP1, CP2, HP1, HP10, OP2, RP3])
    def test_psi_refuses_radii_past_the_diameter(self, spec):
        psi = _radial_ratios(spec).psi
        D = diameter(spec)
        assert np.all(np.isfinite(psi(np.array([0.5 * D, D * (1 + 1e-13)]))))
        with pytest.raises(DomainError, match="psi needs s <= D"):
            psi(np.array([0.5 * D, 1.6]))

    def test_cayley_complement_against_mpmath(self):
        # (V - V(s))/omega = mass (1 - (1 + 8x + 36x^2 + 120x^3)(1 - x)^8) in
        # x = cos^2 s: the mirrored fraction I_x(4, 8) that psi divides by v/omega
        mass = volume(OP2) / vol_unit_sphere(dimension(OP2))
        s = np.linspace(0.0, diameter(OP2), 202)[1:-1]
        m, k, _ = _record(OP2)
        got = _volume_ratio(OP2) * _regularized_beta(m, k, *_sin_cos_squares(OP2, s))[1]
        with mpmath.workdps(40):
            for si, value in zip(s, got):
                x = mpmath.cos(mpmath.mpf(si)) ** 2
                exact = mass * (1 - (1 + x * (8 + x * (36 + 120 * x))) * (1 - x) ** 8)
                assert value == pytest.approx(float(exact), rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("spec", half_angle_oracle.SPECS, ids=str)
    def test_rho_and_psi_against_mpmath(self, spec):
        # psi is rho on the mirrored record; values beyond a double are skipped
        radii = half_angle_oracle.radii(spec)
        ratios = _radial_ratios(spec)
        rho, psi = ratios.rho(radii), ratios.psi(radii)
        for r, got in zip(radii.tolist(), zip(rho.tolist(), psi.tolist())):
            for value, exact in zip(got, half_angle_oracle.ratios(spec, r)):
                if 1e-300 < exact < 1e300:
                    assert abs(value - exact) <= half_angle_oracle.tolerance(spec, 3) * exact, r

    def test_sphere_psi_past_half_the_diameter_is_the_mirrored_ratio(self):
        ratios = _radial_ratios(S3)
        s = np.array([1.7, 2.5, 3.1])
        np.testing.assert_allclose(ratios.psi(s), ratios.rho(np.pi - s), rtol=1e-14)


class TestPhiHat:
    def test_vanishes_at_diameter(self):
        for spec in CORE:
            assert phi_hat(spec, diameter(spec)) == 0.0

    def test_two_sphere_closed_form(self):
        for r in np.linspace(0.01, math.pi, 50):
            assert phi_hat(S2, float(r)) == pytest.approx(float(phi_hat_s2(r)), rel=1e-10)

    def test_three_sphere_closed_form(self):
        for r in (1e-4, 0.1, 1.0, 2.0, 3.0):
            assert phi_hat(S3, r) == pytest.approx(float(phi_hat_s3(r)), rel=1e-10)

    def test_monotone_decreasing(self):
        rr = np.linspace(0.05, math.pi / 2, 30)
        for spec in (RP3, CP2, OP2):
            vals = [phi_hat(spec, float(r) * diameter(spec) / (math.pi / 2)) for r in rr]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_derivative_consistency(self):
        h = 1e-6
        for spec in CORE:
            D = diameter(spec)
            for frac in (0.15, 0.4, 0.6, 0.85):
                s = frac * D
                numeric = (phi_hat(spec, s + h) - phi_hat(spec, s - h)) / (2 * h)
                assert numeric == pytest.approx(phi_hat_prime(spec, s), rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_hat(S2, 0.0)


class TestProfileConstants:
    def test_frozen_constants(self):
        assert get_profile(S2).c_m == pytest.approx(-1.0, rel=1e-11)
        assert get_profile(S3).c_m == pytest.approx(-0.75, rel=1e-11)
        assert get_profile(RP2).c_m == pytest.approx(math.log(2.0) - 1.0, rel=1e-11)
        assert get_profile(CP1).c_m == pytest.approx(-0.25, rel=1e-11)
        assert get_profile(CP2).c_m == pytest.approx(-3.0 / 16.0, rel=1e-11)

    def test_constant_is_full_ball_kernel(self):
        # C = -V K(M, D): partial integration of the defining moment
        from greenlab.ball_stats import k_closed

        for spec in (CP1, CP2, HP1, OP2):
            expected = -volume(spec) * k_closed(spec, diameter(spec))
            assert get_profile(spec).c_m == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("spec", CORE)
    def test_mean_zero(self, spec):
        prof = get_profile(spec)
        moment = integrate(
            lambda r: prof.phi(r) * sphere_area(spec, r), 0.0, diameter(spec), 1e-10
        )
        assert abs(moment) <= 1e-8 * volume(spec) * max(abs(prof.c_m), 1.0)


class TestGreenEval:
    def test_two_sphere_against_log_formula(self):
        prof = get_profile(S2)
        rr = np.linspace(0.02, math.pi, 50)
        assert np.max(np.abs(prof.phi(rr) - eq1_profile(rr))) < 1e-8

    def test_antipodal_value(self):
        prof = get_profile(S2)
        assert prof.phi(math.pi) == pytest.approx(-1 / (4 * math.pi), rel=1e-10)

    def test_unit_chord_value(self):
        # chordal distance 1 sits at r = pi/3; value log2/(2pi) - 1/(4pi)
        prof = get_profile(S2)
        expected = math.log(2.0) / (2 * math.pi) - 1 / (4 * math.pi)
        assert prof.phi(math.pi / 3) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("spec", [S3, RP3, CP2, HP1, OP2])
    def test_near_diagonal_head(self, spec):
        prof = get_profile(spec)
        d = dimension(spec)
        r = 1e-3 * diameter(spec)
        head = volume(spec) * r ** (d - 2) * prof.phi(r)
        assert head == pytest.approx(bm_constant(spec), rel=0.02)

    @pytest.mark.parametrize("spec", [S3, RP3, CP2, HP1, OP2])
    def test_head_convergence_order(self, spec):
        # deviation decays like r (d=3) or essentially r^2 (d>=4, with a log
        # factor at d=4): the halving ratio separates the two regimes
        prof = get_profile(spec)
        d = dimension(spec)
        bm = bm_constant(spec)

        def dev(r):
            return abs(volume(spec) * r ** (d - 2) * prof.phi(r) / bm - 1.0)

        r = 1e-3 * diameter(spec)
        ratio = dev(r) / dev(r / 2)
        if d == 3:
            assert 1.6 < ratio < 2.5
        else:
            assert 2.6 < ratio < 4.9

    @pytest.mark.parametrize("spec", [S2, RP2, CP1])
    def test_log_head_dimension_two(self, spec):
        # 2 pi phi(r) + log r approaches a finite limit
        prof = get_profile(spec)
        f = lambda r: 2 * math.pi * prof.phi(r) + math.log(r)
        assert abs(f(1e-4) - f(1e-5)) < 1e-3
        assert abs(f(1e-5) - f(1e-6)) < 1e-4

    @pytest.mark.parametrize("spec", CORE)
    def test_continuity_at_cut(self, spec):
        prof = get_profile(spec)
        below = prof.phi(np.nextafter(prof.r_cut, 0.0))
        at = prof.phi(prof.r_cut)
        scale = max(abs(at), 1.0)
        assert abs(below - at) < 1e-10 * scale

    @pytest.mark.parametrize("spec", CORE)
    def test_strictly_decreasing(self, spec):
        prof = get_profile(spec)
        rr = np.linspace(1e-3 * diameter(spec), diameter(spec), 60)
        vals = prof.phi(rr)
        assert np.all(np.diff(vals) < 0.0)

    def test_singularity_error(self):
        prof = get_profile(S2)
        with pytest.raises(SingularityError):
            prof.phi(0.0)
        with pytest.raises(SingularityError):
            prof.phi(-0.5)

    def test_below_cut_is_the_direct_quadrature(self):
        prof = get_profile(S2)
        r = 1e-10 * diameter(S2)
        direct = (phi_hat(S2, r) + prof.c_m) / volume(S2)
        assert prof.phi(r) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize(
        "spec, tol",
        [(S2, 1e-14), (S3, 1e-14), (RP3, 1e-14), (CP2, 1e-14), (HP1, 1e-14),
         (OP2, 1e-13), (S200, 1e-13), (CP100, 1e-13)],
        ids=str,
    )
    def test_below_cut_matches_phi_hat(self, spec, tol):
        # the cells' value at r_cut plus the integral of psi up to it, against
        # the oracle's integral from D down, to the floor on S^200 and CP^100,
        # which cut at twice it. On OP^2, S^200 and CP^100 phi_hat itself is
        # 2.4e-14 to 4.7e-14 off a 40-digit mpmath quadrature at the worst
        # radius, where the value below r_cut is 0.7e-14 to 1.3e-14 off
        prof = get_profile(spec)
        lo = max(1e-6 * diameter(spec), _phi_hat_floor(spec))
        r = np.geomspace(lo, prof.r_cut, 51)[:-1]
        direct = np.array([phi_hat(spec, float(x)) for x in r])
        defect = np.abs(prof.phi_hat_values(r) - direct) / (np.abs(direct) + abs(prof.c_m))
        assert defect.max() < tol

    @pytest.mark.parametrize(
        "spec, scale",
        [
            (ManifoldSpec(Family.SPHERE, 40), 1e-9),
            (ManifoldSpec(Family.REAL_PROJ, 40), 1e-9),
            (ManifoldSpec(Family.SPHERE, 30), 1e-12),
        ],
    )
    def test_unrepresentable_radius_raises(self, spec, scale):
        # sin(r)^(d-1) underflows in the quadrature below the floor
        prof = get_profile(spec)
        r = scale * diameter(spec)
        with pytest.raises(GreenLabError, match="not representable"):
            prof.phi(r)
        with pytest.raises(GreenLabError, match="not representable"):
            prof.phi(np.array([1.0, r]))
        with pytest.raises(GreenLabError, match="not representable"):
            phi_hat(spec, r)

    @pytest.mark.parametrize(
        "spec", [ManifoldSpec(Family.SPHERE, 40), ManifoldSpec(Family.REAL_PROJ, 40)]
    )
    def test_unrepresentable_slope_raises(self, spec):
        # the slope -psi underflows like phi_hat itself; the optimizer reaches it
        r = 1e-9 * diameter(spec)
        with pytest.raises(SingularityError, match=rf"phi_hat_prime at r={r:g} .* below \d"):
            phi_hat_prime(spec, r)


    @pytest.mark.parametrize("spec", [S2, RP2, CP1], ids=str)
    def test_two_dimensional_floor_keeps_sin_squared_normal(self, spec):
        # sin^2(s r) goes subnormal near r = 1e-154 long before sin(s r) underflows
        # in psi; below that the quadrature failed or numpy warned instead of this
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (1e-160, 1e-200, 1e-290):
                with pytest.raises(SingularityError, match="not representable"):
                    phi_hat(spec, r)
                with pytest.raises(SingularityError, match="not representable"):
                    get_profile(spec).phi(r)
                with pytest.raises(SingularityError, match="not representable"):
                    phi_hat_prime(spec, r)


class TestChunkedEvaluation:
    @pytest.mark.parametrize("spec", [RP2, RP4])
    def test_vector_matches_scalar_bit_for_bit(self, spec):
        # Every sum runs along one row of the barycentric formula, and the
        # cells are evaluated elementwise, so a radius has the same bits
        # alone as inside any batch: random radii between the table's nodes,
        # the nodes themselves, the cell centres, r_cut, D and radii below
        # r_cut, shuffled across the chunk boundaries of both evaluators.
        prof = get_profile(spec)
        D = diameter(spec)
        lo = max(1e-9 * D, 2.0 * _phi_hat_floor(spec))
        rng = np.random.default_rng(5)
        one = np.concatenate([
            rng.uniform(prof.r_cut, D, 400),
            np.exp(rng.uniform(math.log(lo), math.log(prof.r_cut), 200)),
            panel_table(prof).nodes,
            prof._cells.centres,
            [prof.r_cut, D, lo],
        ])
        r = np.tile(one, max(3 * _CHUNK, 2 * _CELL_CHUNK) // one.size + 1)
        rng.shuffle(r)
        assert r.size > 3 * _CHUNK and r.size > 2 * _CELL_CHUNK
        vec = prof.phi(r)
        single = np.array([prof.phi(float(x)) for x in r])
        assert np.array_equal(vec, single)

    @pytest.mark.parametrize("spec", [RP2, RP3, RP4])
    def test_sweep_chunks_match_whole_array_passes(self, spec):
        # phi checks and transforms its radii chunk by chunk, in place; the
        # bits are those of the cells followed by whole-array passes, and a
        # batch split anywhere, with a few radii below r_cut, gives the same
        prof = get_profile(spec)
        d = dimension(spec)
        rng = np.random.default_rng(9)
        r = rng.uniform(prof.r_cut, diameter(spec), 2 * green._SWEEP_CHUNK + 123)
        whole = prof._cells(r)
        whole = whole * r ** (2 - d) if d > 2 else whole - prof._log_coeff * np.log(r)
        assert np.array_equal(prof.phi(r), (whole + prof.c_m) / volume(spec))
        lo = max(1e-9 * diameter(spec), 2.0 * _phi_hat_floor(spec))
        r[rng.integers(r.size, size=40)] = rng.uniform(lo, prof.r_cut, 40)
        parts = np.array_split(r, [1, 777, green._SWEEP_CHUNK + 5, r.size - 3])
        assert np.array_equal(prof.phi(r), np.concatenate([prof.phi(part) for part in parts]))

    @pytest.mark.parametrize("spec", [RP2, S41, S61, S100, RP40, S39, RP41, S17], ids=str)
    def test_cells_match_the_panels(self, spec):
        # the cell table serves every radius in [r_cut, D] within 1e-14 of the
        # error scale |phi_hat| + |c_m| of the panels it was fitted to; a fixed
        # 1024 cells would be 1.4e-12 off on S^60
        prof = get_profile(spec)
        d = dimension(spec)
        r = np.random.default_rng(11).uniform(prof.r_cut, diameter(spec), 10_000)
        stored = panel_table(prof)(r)
        panels = stored * r ** (2 - d) if d > 2 else stored - prof._log_coeff * np.log(r)
        defect = np.abs(prof.phi_hat_values(r) - panels) / (np.abs(panels) + abs(prof.c_m))
        assert defect.max() < 1e-14

    def test_memory_does_not_grow_with_radius_count(self):
        prof = get_profile(S3)
        r = np.linspace(prof.r_cut, diameter(S3), 20_000)
        prof.phi(r[:10])
        tracemalloc.start()
        try:
            prof.phi(r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestCrossFamilyIdentities:
    def test_complex_line_matches_half_sphere(self):
        # the Fubini-Study line is the round sphere of radius 1/2; in
        # dimension 2 the Green kernel is scale invariant, so the profiles
        # transfer with doubled distance and no prefactor
        p_cp1 = get_profile(CP1)
        p_s2 = get_profile(S2)
        rr = np.linspace(0.01, math.pi / 2, 40)
        assert np.max(np.abs(p_cp1.phi(rr) - p_s2.phi(2 * rr))) < 1e-8

    def test_quaternionic_line_matches_half_four_sphere(self):
        # HP^1 is the radius-1/2 four-sphere; in dimension 4 the kernel
        # picks up the scaling factor lambda^(2-d) = 4
        p_hp1 = get_profile(HP1)
        p_s4 = get_profile(S4)
        rr = np.linspace(0.01, math.pi / 2 - 1e-9, 40)
        lhs = p_hp1.phi(rr)
        rhs = 4.0 * p_s4.phi(2 * rr)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-9

    @pytest.mark.parametrize(("rp", "sph"), [(RP2, S2), (RP3, S3)])
    def test_projective_profile_from_double_cover(self, rp, sph):
        # G_RP(theta) = G_S(theta) + G_S(pi - theta) on the double cover
        p_rp = get_profile(rp)
        p_s = get_profile(sph)
        rr = np.linspace(0.01, math.pi / 2 - 1e-9, 40)
        lhs = p_rp.phi(rr)
        rhs = p_s.phi(rr) + p_s.phi(math.pi - rr)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_rp2_closed_form(self):
        prof = get_profile(RP2)
        rr = np.linspace(0.05, math.pi / 2, 30)
        expected = (-np.log(np.sin(rr)) + math.log(2.0) - 1.0) / (2 * math.pi)
        assert np.max(np.abs(prof.phi(rr) - expected)) < 1e-10


class TestBuildProfile:
    def test_cut_is_a_hundredth_of_the_diameter_above_twice_the_floor(self):
        # S^n and RP^n to n = 1000, CP^n to 500, HP^n to 250 and OP^2
        ranges = {Family.SPHERE: (2, 1000), Family.REAL_PROJ: (2, 1000),
                  Family.COMPLEX_PROJ: (1, 500), Family.QUAT_PROJ: (1, 250),
                  Family.CAYLEY_PLANE: (2, 2)}
        for family, (lo, hi) in ranges.items():
            for n in range(lo, hi + 1):
                spec = ManifoldSpec(family, n)
                r_cut = _cut_radius(spec)
                assert r_cut >= 2.0 * _phi_hat_floor(spec)
                if dimension(spec) < 119:
                    assert r_cut == diameter(spec) / 100.0
        assert get_profile(S200).r_cut == _cut_radius(S200) > diameter(S200) / 100.0

    def test_first_grid_row_is_the_stored_cut_value(self):
        # the first main-table node is r_cut itself, so it is served by the
        # main table's stored value, with no integral below r_cut
        prof = get_profile(RP4)
        r, ph, _ = next(iter(prof.grid_rows()))
        assert r == prof.r_cut
        assert ph == panel_table(prof).values[0] * r ** (2 - dimension(RP4))

    def test_grid_rows_cover_cut_to_diameter(self):
        prof = get_profile(CP2)
        rows = list(prof.grid_rows())
        rs = [r for r, _, _ in rows]
        assert rs[0] == pytest.approx(prof.r_cut)
        assert rs[-1] == pytest.approx(diameter(CP2))
        phis = [phi for _, _, phi in rows]
        assert all(b < a for a, b in zip(phis, phis[1:]))


def spy_on_slope_builds(monkeypatch) -> list:
    """Record every slope-table build from now on."""
    builds = []
    real = green._fit_slope_cells

    def spy(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(green, "_fit_slope_cells", spy)
    return builds


class TestSlopeTable:
    @pytest.mark.parametrize("spec", TABLED, ids=str)
    def test_matches_the_direct_slope(self, spec):
        # every radius in [r_cut, D) within 1e-14 of the largest psi r^(d-1)
        prof = get_profile(spec)
        s = np.random.default_rng(17).uniform(prof.r_cut, diameter(spec), 10_000)
        weight = s ** (dimension(spec) - 1)
        direct = phi_hat_prime(spec, s) * weight
        defect = np.abs(prof.phi_hat_prime_values(s) * weight - direct)
        assert defect.max() < 1e-14 * np.abs(direct).max()
        # the fewest cells: samples clamped at D instead of mirrored past it,
        # or the OP^2 complement's old switch at cos^2 s = 0.05, double them to 65536
        assert prof._slope.centres.size - 1 == green._MIN_CELLS

    @pytest.mark.parametrize("spec", [RP2, S41, RP3, RP4, S17], ids=str)
    def test_lone_radius_matches_batch_bit_for_bit(self, spec):
        # a batch that straddles r_cut: cells above it, the direct psi below
        prof = get_profile(spec)
        D = diameter(spec)
        rng = np.random.default_rng(23)
        below = np.exp(rng.uniform(math.log(_phi_hat_floor(spec)), math.log(prof.r_cut), 100))
        edges = [prof.r_cut, np.nextafter(prof.r_cut, 0.0), np.nextafter(D, 0.0)]
        s = np.concatenate([rng.uniform(prof.r_cut, D, 300), below, edges])
        rng.shuffle(s)
        batch = prof.phi_hat_prime_values(s)
        lone = np.array([prof.phi_hat_prime_values(float(x)) for x in s])
        assert np.array_equal(batch, lone)
        cells = s >= prof.r_cut
        assert np.array_equal(prof.phi_hat_prime_values(s[cells]), lone[cells])
        assert np.array_equal(batch[~cells], phi_hat_prime(spec, s[~cells]))

    @pytest.mark.parametrize("spec", [S2, S40, RP40], ids=str)
    def test_errors_match_phi_hat_prime(self, spec):
        prof = get_profile(spec)
        D = diameter(spec)
        unrepresentable = 0.5 * _phi_hat_floor(spec)
        for bad, error in (
            (0.0, DomainError),
            (-1.0, DomainError),
            (D, DomainError),
            (np.array([0.5 * D, D]), DomainError),
            (unrepresentable, SingularityError),
            (np.array([0.5 * D, unrepresentable]), SingularityError),
        ):
            with pytest.raises(error) as direct:
                phi_hat_prime(spec, bad)
            with pytest.raises(error) as table:
                prof.phi_hat_prime_values(bad)
            assert str(table.value) == str(direct.value)

    def test_bound_and_energy_never_build_it(self, monkeypatch, tmp_path, capsys):
        # bound and energy never evaluate phi', so they must not pay for its table
        builds = spy_on_slope_builds(monkeypatch)
        monkeypatch.setattr(green, "_PROFILE_CACHE", {})
        config = tmp_path / "points.txt"
        with open(config, "w") as fh:
            save_configuration(sample_uniform(RP3, np.random.default_rng(3), 20), fh)
        assert cli.main(["bound", "--family", "rp", "--n", "3", "--points", "37"]) == 0
        assert cli.main(["energy", "--config", str(config)]) == 0
        assert builds == []
        argv = ["optimize", "--family", "rp", "--n", "3", "--points", "6", "--iters", "1", "--seed", "1"]
        assert cli.main(argv) == 0
        assert len(builds) == 1
        capsys.readouterr()

    def test_threads_share_one_build(self, monkeypatch):
        builds = spy_on_slope_builds(monkeypatch)
        prof = build_profile(S3)
        s = np.linspace(1e-3, 0.999, 5000) * diameter(S3)
        start = threading.Barrier(8)

        def slopes(_):
            start.wait(timeout=60)
            return prof.phi_hat_prime_values(s)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(slopes, range(8)))
        assert len(builds) == 1
        assert all(np.array_equal(r, results[0]) for r in results)


S10, S62 = (ManifoldSpec(Family.SPHERE, n) for n in (10, 62))
CP10, CP30, CP31 = (ManifoldSpec(Family.COMPLEX_PROJ, n) for n in (10, 30, 31))
HP5, HP15, HP16 = (ManifoldSpec(Family.QUAT_PROJ, n) for n in (5, 15, 16))
CLOSED = [S2, S4, S10, CP2, CP10, CP30, HP1, HP5, OP2]


class TestClosedProfile:
    """The closed route of the records with integer m and k."""

    @pytest.mark.parametrize(
        "spec, closed",
        [(S2, True), (S4, True), (S60, True), (CP1, True), (CP30, True), (HP1, True),
         (HP15, True), (OP2, True), (S3, False), (S62, False), (S100, False), (RP2, False),
         (RP4, False), (CP31, False), (HP16, False)],
        ids=str,
    )
    def test_route_follows_the_record(self, spec, closed, monkeypatch):
        # integer m and k with a rounding estimate within 1e-14: m <= 30
        builds = []
        real = green._build_phi_hat_tables
        monkeypatch.setattr(
            green, "_build_phi_hat_tables", lambda *args: builds.append(args) or real(*args)
        )
        prof = build_profile(spec)
        assert (green._closed_profile(spec) is not None) is closed
        assert (prof.closed is not None) is closed
        assert (prof._cells is None) is closed
        assert len(builds) == (0 if closed else 1)

    @pytest.mark.parametrize(
        "spec, a, b, c_m",
        [(S2, [], 1, -1), (CP2, [1 / 8], 1 / 8, -3 / 16), (HP1, [1 / 24], 2 / 24, -11 / 72)],
        ids=str,
    )
    def test_hand_derived_coefficients(self, spec, a, b, c_m):
        # phi_hat = -log x on S^2, (1/x - 1 - log x)/8 on CP^2 and
        # (1/x - 1 - 2 log x)/24 on HP^1; c_m = -int_0^1 mu h dx
        # in v = 1/x - 1 the polynomial part is a v on CP^2 and HP^1
        closed = green._closed_profile(spec)
        assert list(closed.poly) == a
        assert closed.slope == (b, *a)
        assert closed.c_m == c_m == get_profile(spec).c_m

    @pytest.mark.parametrize("spec", CLOSED, ids=str)
    def test_matches_the_quadrature(self, spec):
        # the derivation: over [r_cut, D], within 1e-13 of |phi_hat| + |c_m|
        # of the oracle phi_hat
        prof = get_profile(spec)
        D = diameter(spec)
        r = np.concatenate([np.geomspace(prof.r_cut, D, 30), np.linspace(0.5, 1.0, 11) * D])
        direct = np.array([phi_hat(spec, float(x)) for x in r])
        defect = np.abs(prof.phi_hat_values(r) - direct) / (np.abs(direct) + abs(prof.c_m))
        assert defect.max() < 1e-13

    @pytest.mark.parametrize("spec", CLOSED, ids=str)
    def test_evaluation_rounding(self, spec):
        # the float evaluation at radii over [floor, D], within 1e-14 of
        # |phi_hat| + |c_m| of its own coefficients summed at 40 digits
        # (below r_cut the oracle phi_hat is itself up to 1e-13 off)
        prof = get_profile(spec)
        closed = prof.closed
        r = np.geomspace(_phi_hat_floor(spec), diameter(spec), 60)
        got = prof.phi_hat_values(r)
        with mpmath.workdps(40):
            for x, value in zip(r.tolist(), got.tolist()):
                sin2 = mpmath.sin(mpmath.mpf(closed.s) * x) ** 2
                v = 1 / sin2 - 1
                exact = sum(c * v ** j for j, c in enumerate(closed.poly, start=1))
                exact -= closed.slope[0] * mpmath.log(sin2)
                assert abs(value - exact) <= 1e-14 * (abs(exact) + abs(prof.c_m)), x

    @pytest.mark.parametrize("spec", CLOSED, ids=str)
    def test_c_m_matches_the_moment_quadrature(self, spec):
        moment = integrate(_radial_ratios(spec).moment, 0.0, diameter(spec)) / volume(spec)
        assert get_profile(spec).c_m == pytest.approx(-moment, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", [S2, S4, CP2, HP1, OP2], ids=str)
    def test_slope_near_the_diameter(self, spec):
        # the slope table was up to 1.3e-12 relative off here
        D = diameter(spec)
        s = np.random.default_rng(31).uniform(0.99 * D, D, 2000)
        s = s[s < D]
        direct = phi_hat_prime(spec, s)
        got = get_profile(spec).phi_hat_prime_values(s)
        assert np.max(np.abs(got - direct) / np.abs(direct)) < 1e-14

    @pytest.mark.parametrize("spec", [S2, CP2, OP2], ids=str)
    def test_slope_matches_the_direct_slope(self, spec):
        prof = get_profile(spec)
        s = np.random.default_rng(17).uniform(_phi_hat_floor(spec), diameter(spec), 10_000)
        direct = phi_hat_prime(spec, s)
        assert np.max(np.abs(prof.phi_hat_prime_values(s) - direct) / np.abs(direct)) < 1e-14

    @pytest.mark.parametrize("spec", [S2, CP2, HP10], ids=str)
    def test_lone_radius_matches_batch_bit_for_bit(self, spec):
        # elementwise in x = sin^2(s r): radii above and below r_cut, r_cut,
        # D and the floor, across the chunk boundaries of phi
        prof = get_profile(spec)
        D = diameter(spec)
        rng = np.random.default_rng(5)
        lo = _phi_hat_floor(spec)
        one = np.concatenate([
            rng.uniform(prof.r_cut, D, 400),
            np.exp(rng.uniform(math.log(lo), math.log(prof.r_cut), 200)),
            [prof.r_cut, np.nextafter(D, 0.0), lo],
        ])
        r = np.tile(one, green._SWEEP_CHUNK // one.size + 2)
        rng.shuffle(r)
        assert r.size > green._SWEEP_CHUNK
        assert np.array_equal(prof.phi(r), np.array([prof.phi(float(x)) for x in r[:700]] + list(prof.phi(r[700:]))))
        assert np.array_equal(prof.phi(r), (prof.phi_hat_values(r) + prof.c_m) / volume(spec))
        slopes = prof.phi_hat_prime_values(one)
        assert np.array_equal(slopes, [prof.phi_hat_prime_values(float(x)) for x in one])
        assert prof.phi(D) == prof.c_m / volume(spec)

    @pytest.mark.parametrize("spec", [S2, CP2], ids=str)
    def test_below_the_floor_raises(self, spec):
        prof = get_profile(spec)
        r = 0.5 * _phi_hat_floor(spec)
        with pytest.raises(SingularityError, match="not representable"):
            prof.phi(np.array([1.0, r]))
        with pytest.raises(SingularityError, match="not representable"):
            prof.phi_hat_prime_values(r)

    def test_slope_needs_no_table(self, monkeypatch):
        builds = spy_on_slope_builds(monkeypatch)
        prof = build_profile(HP1)
        prof.phi_hat_prime_values(np.linspace(0.01, 0.99, 50) * diameter(HP1))
        assert builds == [] and prof._slope is None
