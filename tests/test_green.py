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
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from greenlab import green
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
        # the closed form below r_cut against the oracle's integral from D
        # down, to the floor on S^200 and CP^100, which cut at twice it. On
        # OP^2, S^200 and CP^100 phi_hat itself is 2.4e-14 to 4.7e-14 off a
        # 40-digit mpmath quadrature at the worst radius
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
    @pytest.mark.parametrize("spec", [S3, S5, RP2, RP3, RP4], ids=str)
    def test_vector_matches_scalar_bit_for_bit(self, spec):
        # Every step is elementwise, and the odd forms pick the direct form or
        # the antipodal series per radius, so a radius has the same bits alone
        # as inside any batch: random radii over [floor, D], radii near pi/2 on
        # S^n, r_cut, D and the floor, shuffled across the chunk boundaries.
        prof = get_profile(spec)
        D = diameter(spec)
        lo = _phi_hat_floor(spec)
        rng = np.random.default_rng(5)
        one = np.concatenate([
            rng.uniform(prof.r_cut, D, 400),
            np.exp(rng.uniform(math.log(lo), math.log(prof.r_cut), 200)),
            np.linspace(0.49, 0.51, 21) * D,
            [prof.r_cut, D, lo],
        ])
        r = np.tile(one, green._SWEEP_CHUNK // one.size + 2)
        rng.shuffle(r)
        assert r.size > green._SWEEP_CHUNK
        vec = prof.phi(r)
        single = np.array([prof.phi(float(x)) for x in r[:2000]])
        assert np.array_equal(vec[:2000], single)
        assert np.array_equal(vec, np.concatenate([prof.phi(r[:7]), prof.phi(r[7:])]))

    @pytest.mark.parametrize("spec", [S3, RP2, RP3, RP4], ids=str)
    def test_sweep_chunks_match_whole_array_passes(self, spec):
        # phi checks and transforms its radii chunk by chunk, in place; the
        # bits are those of the closed form over the whole array followed by
        # whole-array passes, and a batch split anywhere gives the same
        prof = get_profile(spec)
        rng = np.random.default_rng(9)
        lo = _phi_hat_floor(spec)
        r = rng.uniform(prof.r_cut, diameter(spec), 2 * green._SWEEP_CHUNK + 123)
        r[rng.integers(r.size, size=40)] = np.exp(rng.uniform(math.log(lo), math.log(prof.r_cut), 40))
        x, y = _sin_cos_squares(spec, r)
        whole = prof.closed.phi_hat(x, y, out=np.empty_like(x))
        assert np.array_equal(prof.phi(r), (whole + prof.c_m) / volume(spec))
        parts = np.array_split(r, [1, 777, green._SWEEP_CHUNK + 5, r.size - 3])
        assert np.array_equal(prof.phi(r), np.concatenate([prof.phi(part) for part in parts]))

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

    @pytest.mark.parametrize("spec", [RP4, S3], ids=str)
    def test_first_grid_row_is_the_cut_value(self, spec):
        # the first grid radius is r_cut itself, with the profile's own value there
        prof = get_profile(spec)
        r, ph, _ = next(iter(prof.grid_rows()))
        assert r == prof.r_cut
        assert ph == prof.phi_hat_values(r)[0]

    def test_grid_rows_cover_cut_to_diameter(self):
        prof = get_profile(CP2)
        rows = list(prof.grid_rows())
        rs = [r for r, _, _ in rows]
        assert rs[0] == pytest.approx(prof.r_cut)
        assert rs[-1] == pytest.approx(diameter(CP2))
        phis = [phi for _, _, phi in rows]
        assert all(b < a for a, b in zip(phis, phis[1:]))


S10, S21, S62, S99, S399 = (ManifoldSpec(Family.SPHERE, n) for n in (10, 21, 62, 99, 399))
RP5, RP60, RP61, RP200 = (ManifoldSpec(Family.REAL_PROJ, n) for n in (5, 60, 61, 200))
CP10, CP30, CP31 = (ManifoldSpec(Family.COMPLEX_PROJ, n) for n in (10, 30, 31))
HP5, HP15, HP16, HP50 = (ManifoldSpec(Family.QUAT_PROJ, n) for n in (5, 15, 16, 50))
LAURENT = [S2, S4, S10, RP2, RP4, CP2, CP10, CP30, HP1, HP5, OP2]
ODD = [S3, S5, S21, RP3, RP5, RP41]
CLOSED = LAURENT + ODD
# the specs of the slope tests: the odd forms, RP^n, and S^100 (m = 50)
SLOPES = [S3, S5, RP2, RP3, RP40, S41, S100]


def mp_fraction(q):
    return mpmath.mpf(q.numerator) / q.denominator


def reference_phi_hat(spec, r):
    """phi_hat(r) from the form's exact coefficients at 50 digits: the Laurent
    sum, or on odd n the direct form below pi/2 and the antipodal series in
    y = cos^2(r/2), summed to convergence, past it on S^n. Every term of
    these sums is positive, so no digit cancels."""
    m, _, s = _record(spec)
    with mpmath.workdps(50):
        R = mpmath.mpf(r)
        if m == int(m):
            c, _, b = green._laurent_parts(spec)
            x = mpmath.sin(mpmath.mpf(s) * R) ** 2
            v = 1 / x - 1
            value = sum(mp_fraction(cj) * v**j for j, cj in enumerate(c)) - mp_fraction(b) * mpmath.log(x)
        elif spec.family is Family.SPHERE and R > mpmath.pi / 2:
            y, n = mpmath.cos(R / 2) ** 2, spec.n
            term, value, j = mpmath.mpf(2) / n, mpmath.mpf(0), 0
            while j < 10 or abs(term * y ** (j + 1)) > mpmath.eps * abs(value):
                value += term * y ** (j + 1) / (j + 1)
                term = term * (n + j) / (mpmath.mpf(n) / 2 + 1 + j)
                j += 1
        else:
            A, g, R_, _, F, _ = green._odd_parts((spec.n - 1) // 2)
            c = mpmath.cot(R)
            v = c * c
            sphere = spec.family is Family.SPHERE
            t = mpmath.pi - R if sphere else mpmath.pi / 2 - R
            value = (mp_fraction(F) if sphere else 0) + mp_fraction(A) * t * c * sum(
                mp_fraction(gi) * v**i for i, gi in enumerate(g)
            ) - sum(mp_fraction(ri) * v**i for i, ri in enumerate(R_))
        return float(value)


def mp_slope(spec, r):
    """psi(r) = (V - V(r)) / v(r) = B(m, k) I_y(k, m) / (2 s x^(m-1/2) y^(k-1/2)) by
    mpmath's incomplete beta at 40 digits, at the rounded (x, y) =
    (sin^2, cos^2)(s r) that the profile and the oracle phi_hat_prime read."""
    m, k, s = _record(spec)
    x, y = (float(v[0]) for v in _sin_cos_squares(spec, np.array([r])))
    with mpmath.workdps(40):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        rest = mpmath.betainc(k, m, 0, y, regularized=True)
        return float(mpmath.beta(m, k) * rest / (2 * mpmath.mpf(s) * x ** (m - 0.5) * y ** (k - 0.5)))


class TestClosedProfile:
    """Every manifold's closed profile in (x, y) = (sin^2, cos^2)(s r)."""

    @pytest.mark.parametrize(
        "spec, odd",
        [(S2, False), (S3, True), (S5, True), (S60, False), (S62, False), (S100, False),
         (RP2, False), (RP3, True), (RP4, False), (RP41, True), (CP1, False), (CP31, False),
         (HP16, False), (OP2, False)],
        ids=str,
    )
    def test_form_follows_the_record(self, spec, odd):
        # the Laurent form for integer m, the odd form for odd S^n and RP^n;
        # no record is left without a closed form
        prof = build_profile(spec)
        assert isinstance(prof.closed, green._OddProfile if odd else green._LaurentProfile)
        assert prof.c_m == prof.closed.c_m

    @pytest.mark.parametrize(
        "spec, a, b, c_m",
        [(S2, [], 1, -1), (RP2, [], 1 / 2, math.log(2.0) - 1.0), (CP2, [1 / 8], 1 / 8, -3 / 16),
         (HP1, [1 / 24], 2 / 24, -11 / 72)],
        ids=str,
    )
    def test_hand_derived_coefficients(self, spec, a, b, c_m):
        # phi_hat = -log x on S^2, -(1/2) log x on RP^2 (-log sin r),
        # (1/x - 1 - log x)/8 on CP^2 and (1/x - 1 - 2 log x)/24 on HP^1;
        # c_m = -int_0^1 mu h dx, and on RP^2 c_S2 + phi_hat_S2(pi/2) = log 2 - 1.
        # In v = 1/x - 1 the polynomial part is a v on CP^2 and HP^1
        closed = green._closed_profile(spec)
        assert list(closed.poly) == a
        assert closed.slope == (b, *a)
        assert closed.c_m == c_m == get_profile(spec).c_m

    @pytest.mark.parametrize(
        "spec, A, g, R, P, const, c_m",
        [(S3, 1 / 2, (1.0,), (), (1 / 2,), 1 / 2, -3 / 4),
         (RP3, 1 / 2, (1.0,), (), (1 / 2,), 0.0, -1 / 4),
         (S5, 3 / 8, (1.0, 1 / 3), (-1 / 8,), (1 / 4, 3 / 8), 1 / 3, -25 / 48)],
        ids=str,
    )
    def test_hand_derived_odd_forms(self, spec, A, g, R, P, const, c_m):
        # S^3: phi_hat = (1 + (pi - r) cot r)/2, psi = ((pi - r) u + c)/2 with
        # u = 1/sin^2 r. S^5: int_r^pi sin^4 = (3/8)(pi - r) + cos r (sin^3 r/4
        # + 3 sin r/8), so psi = (3/8)(pi - r) u^2 + c (1/4 + 3u/8) and phi_hat =
        # 1/3 + (3/8)(pi - r) c (1 + c^2/3) + c^2/8. RP^3 is S^3's cover:
        # (pi/2 - r) cot r / 2 and c_m = -3/4 + 1/2
        closed = green._closed_profile(spec)
        assert (closed.A, closed.g, closed.R, closed.P, closed.const) == (A, g, R, P, const)
        assert closed.c_m == c_m == get_profile(spec).c_m

    @pytest.mark.parametrize("k", range(1, 13))
    def test_odd_c_m_is_the_wallis_integral(self, k):
        # c_S = -(1/V) int_0^pi phi_hat sin^(2k) r dr with phi_hat = F + A (pi - r) G(c)
        # - R(c^2), V/omega = pi A: Wallis integrals W(a, b) = int_0^pi sin^(2a)
        # cos^(2b) / pi, and for (pi - r) cos^(2i+1) r sin^(2k-2i-1) r the integral
        # of its antiderivative int_0^(sin r) (1 - t^2)^i t^(2k-2i-1) dt
        A, g, R, _, F, c_rp = green._odd_parts(k)

        def wallis(a, b):
            odd = lambda j: math.prod(range(2 * j - 1, 0, -2))
            return Fraction(odd(a) * odd(b), 2 ** (a + b) * math.factorial(a + b))

        J = [sum(Fraction(math.comb(i, j) * (-1) ** j, 2 * (k - i + j)) * wallis(k - i + j, 0)
                 for j in range(i + 1)) for i in range(k)]
        mean = F * A + A * sum(gi * Ji for gi, Ji in zip(g, J)) - sum(
            Ri * wallis(k - i, i) for i, Ri in enumerate(R))
        assert c_rp - F == -mean / A

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

    @pytest.mark.parametrize("spec", CLOSED + [S41, RP40], ids=str)
    def test_evaluation_rounding(self, spec):
        # the float evaluation at radii over [floor, D], within 1e-14 of
        # |phi_hat| + |c_m| of its own exact coefficients summed at 50 digits
        # (below r_cut the oracle phi_hat is itself up to 1e-13 off)
        prof = get_profile(spec)
        r = np.concatenate([np.geomspace(_phi_hat_floor(spec), diameter(spec), 60),
                            np.linspace(0.45, 0.55, 7) * diameter(spec)])
        got = prof.phi_hat_values(r)
        for x, value in zip(r.tolist(), got.tolist()):
            exact = reference_phi_hat(spec, x)
            assert abs(value - exact) <= 1e-14 * (abs(exact) + abs(prof.c_m)), x

    @pytest.mark.parametrize("spec", [S61, RP61, S99, S100, S399, RP200, CP100, HP50], ids=str)
    def test_high_dimensions_within_1e_13(self, spec):
        # x^(1-m), and on odd n cot(r)^(2k-1), amplify the rounding of x about
        # m-fold: 1.4e-14 on S^61, about 6e-14 near S^400
        prof = get_profile(spec)
        r = np.geomspace(_phi_hat_floor(spec), diameter(spec), 40)
        got = prof.phi_hat_values(r)
        for x, value in zip(r.tolist(), got.tolist()):
            exact = reference_phi_hat(spec, x)
            assert abs(value - exact) <= 1e-13 * (abs(exact) + abs(prof.c_m)), x

    @pytest.mark.parametrize("spec", CLOSED, ids=str)
    def test_c_m_matches_the_moment_quadrature(self, spec):
        moment = integrate(_radial_ratios(spec).moment, 0.0, diameter(spec)) / volume(spec)
        assert get_profile(spec).c_m == pytest.approx(-moment, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", [S2, S4, CP2, HP1, OP2] + SLOPES, ids=str)
    def test_slope_near_the_diameter(self, spec):
        # psi -> 0 at D, so only a form without cancellation there keeps its
        # relative precision: the odd spheres' antipodal series, RP^n's
        # positive terms and the Laurent form in v -> 0
        D = diameter(spec)
        s = np.random.default_rng(31).uniform(0.99 * D, D, 2000)
        s = s[s < D]
        direct = phi_hat_prime(spec, s)
        got = get_profile(spec).phi_hat_prime_values(s)
        assert np.max(np.abs(got - direct) / np.abs(direct)) < 1e-14

    @pytest.mark.parametrize("spec", [S2, CP2, OP2] + SLOPES[:-1], ids=str)
    def test_slope_matches_the_direct_slope(self, spec):
        prof = get_profile(spec)
        s = np.random.default_rng(17).uniform(_phi_hat_floor(spec), diameter(spec), 10_000)
        direct = phi_hat_prime(spec, s)
        assert np.max(np.abs(prof.phi_hat_prime_values(s) - direct) / np.abs(direct)) < 1e-14

    def test_slope_matches_mpmath_on_s100(self):
        # on S^100 the oracle phi_hat_prime is itself up to 3.3e-14 off (its
        # betainc), so the closed slope is checked against 40 digits there.
        # It reads 1.25e-14: the rounded x and y sum to 1 only to an ulp, and
        # the form's 49 powers of w = 1/x amplify that against a reference
        # that reads I_y; at the same x its float evaluation is within 5.4e-15
        prof = get_profile(S100)
        s = np.random.default_rng(17).uniform(_phi_hat_floor(S100), diameter(S100), 300)
        got = -prof.phi_hat_prime_values(s)
        exact = np.array([mp_slope(S100, x) for x in s.tolist()])
        assert np.max(np.abs(got - exact) / exact) < 2e-14

    @pytest.mark.parametrize("spec", [S2, CP2, HP10, S3, S5, S41, RP2, RP3, RP4], ids=str)
    def test_lone_radius_matches_batch_bit_for_bit(self, spec):
        # elementwise in (x, y): radii above and below r_cut, r_cut, D and the
        # floor, across the chunk boundaries of phi
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
        if isinstance(prof.closed, green._LaurentProfile):
            assert prof.phi(D) == prof.c_m / volume(spec)

    @pytest.mark.parametrize("spec", [S2, S40, RP40, S3, RP3], ids=str)
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
            with pytest.raises(error) as closed:
                prof.phi_hat_prime_values(bad)
            assert str(closed.value) == str(direct.value)

    @pytest.mark.parametrize("spec", [S2, CP2, S3, RP3], ids=str)
    def test_below_the_floor_raises(self, spec):
        prof = get_profile(spec)
        r = 0.5 * _phi_hat_floor(spec)
        with pytest.raises(SingularityError, match="not representable"):
            prof.phi(np.array([1.0, r]))
        with pytest.raises(SingularityError, match="not representable"):
            prof.phi_hat_prime_values(r)
