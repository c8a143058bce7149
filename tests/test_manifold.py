"""Geometry of the five families: constants, densities, points, sampling."""

import copy
import io
import math
import os
import pickle
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import betainc

import greenlab
from greenlab.errors import DomainError, SingularityError, UnsupportedManifoldError
from greenlab.manifold import (
    Configuration,
    Family,
    ManifoldSpec,
    ball_volume,
    ball_volume_fraction,
    bm_constant,
    diameter,
    dimension,
    distance,
    _geodesic_rows,
    _project_horizontal,
    _record,
    _row_width,
    load_configuration,
    radial_density,
    random_distance,
    sample_uniform,
    save_configuration,
    sphere_area,
    volume,
)
from greenlab import manifold as mf
from greenlab.ball_stats import theta_value
from greenlab.green import get_profile
from greenlab.special_math import incomplete_beta, integrate, vol_unit_sphere

import half_angle_oracle

S2 = ManifoldSpec(Family.SPHERE, 2)
S3 = ManifoldSpec(Family.SPHERE, 3)
RP3 = ManifoldSpec(Family.REAL_PROJ, 3)
CP2 = ManifoldSpec(Family.COMPLEX_PROJ, 2)
HP1 = ManifoldSpec(Family.QUAT_PROJ, 1)
OP2 = ManifoldSpec(Family.CAYLEY_PLANE, 2)

ALL_SPECS = [S2, S3, RP3, CP2, HP1, OP2]
POINT_SPECS = [S2, S3, RP3, CP2, HP1]


def field_coords(spec, row: np.ndarray) -> np.ndarray:
    """A real frame as coordinates over the base field: complex (n+1,) on
    CP^n, (n+1, 4) quaternions in (w, x, y, z) layout on HP^n, the row itself
    on S^n and RP^n."""
    row = np.ascontiguousarray(row, dtype=float)
    if spec.family is Family.COMPLEX_PROJ:
        return row.view(complex)
    if spec.family is Family.QUAT_PROJ:
        return row.reshape(-1, 4)
    return row


def frame(coords: np.ndarray) -> np.ndarray:
    """The real frame of coordinates over the base field; inverse of `field_coords`."""
    return np.ascontiguousarray(coords).view(float).ravel()


def one_point(spec, rng) -> np.ndarray:
    """The real frame of one uniform point."""
    return sample_uniform(spec, rng, 1).coords_array()[0]


class TestSpecValidation:
    def test_cayley_plane_dimension_fixed(self):
        with pytest.raises(DomainError):
            ManifoldSpec(Family.CAYLEY_PLANE, 3)

    def test_positive_n(self):
        with pytest.raises(DomainError):
            ManifoldSpec(Family.SPHERE, 0)

    @pytest.mark.parametrize("family", [Family.SPHERE, Family.REAL_PROJ])
    def test_circle_rejected(self, family):
        with pytest.raises(DomainError, match="circle"):
            ManifoldSpec(family, 1)

    def test_tokens_round_trip(self):
        for spec in ALL_SPECS:
            again = ManifoldSpec.from_token(spec.token, spec.n)
            assert again == spec


class TestSpecHash:
    """A spec hashes once, to the bits of its fields, and pickles without its hash."""

    def test_hash_and_equality_are_the_fields(self):
        for spec in ALL_SPECS:
            assert hash(spec) == hash((spec.family, spec.n))
            twin = ManifoldSpec(spec.family, spec.n)
            assert twin == spec and twin is not spec and hash(twin) == hash(spec)
        assert S2 != ManifoldSpec(Family.SPHERE, 3) and S2 != RP3
        assert len({S2, S3, RP3, CP2, HP1, OP2, ManifoldSpec(Family.SPHERE, 2)}) == 6

    def test_copies_and_pickles_are_equal(self):
        for spec in ALL_SPECS:
            for again in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
                assert again == spec and hash(again) == hash(spec)
            assert b"_hash" not in pickle.dumps(spec)

    def test_a_pickled_spec_hashes_anew_in_another_process(self):
        # a Family hashes by its name, and string hashes are salted per
        # process: a spec loaded under another salt hashes as that process's
        # (family, n), not as this one's
        code = (
            "import pickle, sys\n"
            "spec = pickle.loads(sys.stdin.buffer.read())\n"
            "print(hash(spec) == hash((spec.family, spec.n)), spec)\n"
        )
        src = os.path.dirname(os.path.dirname(greenlab.__file__))
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                input=pickle.dumps(CP2),
                capture_output=True,
                check=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            assert out.split() == [b"True", b"cp2"]


class TestTableConstants:
    def test_dimensions(self):
        assert [dimension(s) for s in ALL_SPECS] == [2, 3, 3, 4, 4, 16]

    def test_diameters(self):
        assert diameter(S2) == math.pi
        for spec in (RP3, CP2, HP1, OP2):
            assert diameter(spec) == math.pi / 2

    def test_volumes(self):
        assert volume(S2) == pytest.approx(4 * math.pi, rel=1e-14, abs=0)
        assert volume(S3) == pytest.approx(2 * math.pi**2, rel=1e-14, abs=0)
        assert volume(RP3) == pytest.approx(math.pi**2, rel=1e-14, abs=0)
        for n in range(1, 6):
            spec = ManifoldSpec(Family.COMPLEX_PROJ, n)
            assert volume(spec) == pytest.approx(
                math.pi**n / math.factorial(n), rel=1e-13, abs=0
            )
        assert volume(HP1) == pytest.approx(math.pi**2 / 6, rel=1e-14, abs=0)
        assert volume(OP2) == pytest.approx(
            math.pi**8 / (1320 * math.factorial(7)), rel=1e-13, abs=0
        )

    def test_bm_constants(self):
        assert bm_constant(OP2) == pytest.approx(1 / 36960, rel=1e-15, abs=0)
        assert bm_constant(CP2) == pytest.approx(1 / 8, rel=1e-15, abs=0)
        assert bm_constant(HP1) == pytest.approx(1 / 24, rel=1e-15, abs=0)
        assert bm_constant(S3) == pytest.approx(math.pi / 2, rel=1e-14, abs=0)
        assert bm_constant(RP3) == pytest.approx(math.pi / 4, rel=1e-14, abs=0)

    @pytest.mark.parametrize("spec", [S2, ManifoldSpec(Family.COMPLEX_PROJ, 1)])
    def test_bm_needs_dimension_above_two(self, spec):
        with pytest.raises(UnsupportedManifoldError):
            bm_constant(spec)


class TestJacobiRecord:
    """Volumes, constants and ball fractions derived from (m, k, s), against mpmath."""

    SPECS = (
        [ManifoldSpec(f, n) for f in (Family.SPHERE, Family.REAL_PROJ) for n in (2, 3, 4, 7, 40, 101)]
        + [ManifoldSpec(Family.COMPLEX_PROJ, n) for n in (1, 2, 10, 60)]
        + [ManifoldSpec(Family.QUAT_PROJ, n) for n in (1, 5, 30)]
        + [OP2]
    )

    @staticmethod
    def exact_volume(spec):
        n, pi = spec.n, mpmath.pi
        if spec.family is Family.SPHERE:
            return 2 * pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
        if spec.family is Family.REAL_PROJ:
            return pi ** (mpmath.mpf(n + 1) / 2) / mpmath.gamma(mpmath.mpf(n + 1) / 2)
        if spec.family is Family.COMPLEX_PROJ:
            return pi**n / mpmath.factorial(n)
        if spec.family is Family.QUAT_PROJ:
            return pi ** (2 * n) / mpmath.factorial(2 * n + 1)
        return pi**8 / (1320 * mpmath.factorial(7))

    @staticmethod
    def exact_bm(spec):
        n = mpmath.mpf(spec.n)
        if spec.family is Family.SPHERE:
            return mpmath.sqrt(mpmath.pi) * mpmath.gamma(n / 2) / ((n - 2) * mpmath.gamma((n + 1) / 2))
        if spec.family is Family.REAL_PROJ:
            return mpmath.sqrt(mpmath.pi) * mpmath.gamma(n / 2 - 1) / (4 * mpmath.gamma((n + 1) / 2))
        if spec.family is Family.COMPLEX_PROJ:
            return 1 / (4 * n * (n - 1))
        if spec.family is Family.QUAT_PROJ:
            return 1 / (8 * n * (4 * n * n - 1))
        return mpmath.mpf(1) / 36960

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_volume_against_mpmath(self, spec):
        with mpmath.workdps(50):
            exact = self.exact_volume(spec)
            assert abs(volume(spec) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("spec", [s for s in SPECS if dimension(s) > 2], ids=str)
    def test_bm_constant_against_mpmath(self, spec):
        with mpmath.workdps(50):
            exact = self.exact_bm(spec)
            assert abs(bm_constant(spec) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize(
        "spec",
        [ManifoldSpec(Family.SPHERE, 1000), ManifoldSpec(Family.COMPLEX_PROJ, 300), ManifoldSpec(Family.QUAT_PROJ, 113)],
        ids=str,
    )
    def test_volume_below_the_normal_range_is_an_error_naming_the_spec(self, spec):
        with pytest.raises(SingularityError, match=f"volume of {spec} "):
            volume(spec)
        assert 0.0 < bm_constant(spec) < 1.0

    @pytest.mark.parametrize("spec", half_angle_oracle.SPECS, ids=str)
    def test_ball_fraction_against_mpmath(self, spec):
        # past the mean x = m / (m + k) the fraction is 1 - I_y(k, m) in
        # y = cos^2(s a); on RP^n, taking I_x there (x near 1) is 5e-13 to 4e-12 off
        radii = half_angle_oracle.radii(spec)
        got = ball_volume_fraction(spec, radii)
        for r, value in zip(radii.tolist(), got.tolist()):
            exact = half_angle_oracle.fraction(spec, r)
            if exact > 1e-300:
                assert abs(value - exact) <= half_angle_oracle.tolerance(spec, 2) * exact, r


class TestRadialDensity:
    def test_examples(self):
        assert radial_density(S3, math.pi / 2) == pytest.approx(1.0, rel=1e-15, abs=0)
        assert radial_density(
            ManifoldSpec(Family.COMPLEX_PROJ, 3), math.pi / 2
        ) == pytest.approx(0.0, abs=1e-15)
        assert radial_density(OP2, math.pi / 4) == pytest.approx(2.0**-11, rel=1e-13, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_density(CP2, -0.1)
        with pytest.raises(DomainError):
            radial_density(CP2, 2.0)

    @pytest.mark.parametrize(
        "spec",
        ALL_SPECS
        + [
            ManifoldSpec(Family.SPHERE, 60),
            ManifoldSpec(Family.REAL_PROJ, 60),
            ManifoldSpec(Family.COMPLEX_PROJ, 60),
            ManifoldSpec(Family.QUAT_PROJ, 60),
        ],
    )
    def test_total_mass_matches_volume(self, spec):
        total = vol_unit_sphere(dimension(spec)) * integrate(
            lambda r: radial_density(spec, r), 0.0, diameter(spec)
        )
        assert total == pytest.approx(volume(spec), rel=1e-10, abs=0)


class TestBallVolume:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_full_ball_is_whole_manifold(self, spec):
        assert ball_volume(spec, diameter(spec)) == pytest.approx(volume(spec), rel=1e-12, abs=0)

    def test_cp2_quarter_turn(self):
        assert ball_volume(CP2, math.pi / 4) == pytest.approx(math.pi**2 / 8, rel=1e-13, abs=0)

    def test_cayley_polynomial_normalizes(self):
        # 165 - 440 + 396 - 120 = 1 makes the full ball close exactly
        assert ball_volume(OP2, math.pi / 2) == pytest.approx(volume(OP2), rel=1e-14, abs=0)

    def test_cayley_fraction_near_the_diameter_against_mpmath(self):
        # x^8 D(y) with D = 1 + 8y + 36y^2 + 120y^3 has no cancellation; the
        # same polynomial in x, 165 - 440x + 396x^2 - 120x^3, cancels near D
        a = np.linspace(0.5, diameter(OP2), 401)[:-1]
        got = ball_volume_fraction(OP2, a)
        with mpmath.workdps(50):
            for ai, value in zip(a.tolist(), got.tolist()):
                y = mpmath.cos(mpmath.mpf(ai)) ** 2
                exact = (1 - y) ** 8 * (1 + y * (8 + y * (36 + 120 * y)))
                assert value == pytest.approx(float(exact), rel=1e-14, abs=0.0), ai

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_matches_density_quadrature(self, spec):
        D = diameter(spec)
        for frac in (0.15, 0.4, 0.7, 0.95):
            a = frac * D
            oracle = vol_unit_sphere(dimension(spec)) * integrate(
                lambda r: radial_density(spec, r), 0.0, a
            )
            assert ball_volume(spec, a) == pytest.approx(oracle, rel=1e-10, abs=0)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_strictly_increasing(self, spec):
        D = diameter(spec)
        grid = np.linspace(0.01 * D, D, 40)
        vals = [ball_volume(spec, a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_vectorized_fraction_agrees(self, spec):
        D = diameter(spec)
        grid = np.linspace(0.05 * D, D, 17)
        vec = ball_volume_fraction(spec, grid)
        scalar = np.array([ball_volume(spec, a) / volume(spec) for a in grid])
        assert np.allclose(vec, scalar, rtol=1e-11, atol=1e-14)


class TestRegularizedBeta:
    @staticmethod
    def two_calls(p, q, t, u):
        """scipy's betainc, the oracle, in t up to the mean and in u past it."""
        above = t > p / (p + q)
        lower = betainc(p, q, np.where(above, 0.0, t))
        upper = betainc(q, p, np.where(above, u, 0.0))
        return np.where(above, 1.0 - upper, lower), np.where(above, upper, 1.0 - lower)

    @pytest.mark.parametrize("spec", [S3, RP3, ManifoldSpec(Family.SPHERE, 5)], ids=str)
    @pytest.mark.parametrize("side", ["below", "above", "mixed"])
    def test_each_side_matches_scipy(self, spec, side):
        # mixed radii take both sides' parameters in one call
        m, k, s = _record(spec)
        mean = math.asin(math.sqrt(m / (m + k))) / s  # the radius where x = m / (m + k)
        below = np.linspace(0.001, 0.999, 15) * mean
        above = mean + np.linspace(0.001, 1.0, 15) * (diameter(spec) - mean)
        a = {"below": below, "above": above, "mixed": np.concatenate([above, below])}[side]
        x, y = np.sin(s * a) ** 2, np.cos(s * a) ** 2
        got = incomplete_beta(m, k, x, y)[:2]
        for g, w in zip(got, self.two_calls(m, k, x, y)):
            np.testing.assert_allclose(g, w, rtol=half_angle_oracle.tolerance(spec, 2), atol=0)


class TestArrayRadii:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_array_matches_scalar_calls(self, spec):
        grid = np.linspace(0.0, 1.0, 23) * diameter(spec)
        for fn in (ball_volume, sphere_area, radial_density):
            got = fn(spec, grid)
            assert isinstance(got, np.ndarray) and got.shape == grid.shape
            assert np.array_equal(got, [fn(spec, float(a)) for a in grid])
            assert isinstance(fn(spec, float(grid[5])), float)

    def test_any_bad_radius_is_rejected(self):
        with pytest.raises(DomainError):
            ball_volume(S2, np.array([0.5, 4.0]))
        with pytest.raises(DomainError):
            sphere_area(CP2, np.array([-0.1, 0.5]))

    @pytest.mark.parametrize(
        "fn, r",
        [(fn, math.nan) for fn in (radial_density, sphere_area, ball_volume, ball_volume_fraction)]
        + [(ball_volume_fraction, 4.0), (ball_volume_fraction, -0.5)],
        ids=lambda v: getattr(v, "__name__", repr(v)),
    )
    def test_a_nan_or_outside_radius_is_a_domain_error(self, fn, r):
        # the range check is a positive condition, so a nan fails it: the
        # density once came back nan and the ball volume raised the continued
        # fraction's error, and the ball fraction checked no range at all
        with pytest.raises(DomainError, match="outside"):
            fn(S3, np.array([0.5, r]))


class TestSphereArea:
    def test_two_sphere_circumference(self):
        for a in (0.3, 1.0, 2.5):
            assert sphere_area(S2, a) == pytest.approx(2 * math.pi * math.sin(a), rel=1e-13, abs=0)

    def test_vanishes_at_projective_diameter(self):
        assert sphere_area(CP2, diameter(CP2)) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_at_origin(self):
        assert sphere_area(S3, 0.0) == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_is_ball_volume_derivative(self, spec):
        D = diameter(spec)
        h = 1e-5
        for frac in (0.2, 0.5, 0.8):
            a = frac * D
            deriv = (ball_volume(spec, a + h) - ball_volume(spec, a - h)) / (2 * h)
            assert deriv == pytest.approx(sphere_area(spec, a), rel=1e-6, abs=0)


class TestDistance:
    def test_coincident(self):
        p = one_point(CP2, np.random.default_rng(0))
        assert distance(CP2, p, p) == 0.0

    def test_orthogonal_complex_representatives(self):
        p = frame(np.array([1.0 + 0j, 0.0, 0.0]))
        q = frame(np.array([0.0, 1.0 + 0j, 0.0]))
        assert distance(CP2, p, q) == pytest.approx(math.pi / 2, rel=1e-15, abs=0)

    def test_antipodal_projective_representatives(self):
        p = np.array([0.0, 0.0, 0.0, 1.0])
        q = np.array([0.0, 0.0, 0.0, -1.0])
        assert distance(RP3, p, q) == 0.0

    def test_spec_mismatch(self):
        # a point of S^3 has no real frame of S^2's width
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            distance(S2, one_point(S2, rng), one_point(S3, rng))

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_symmetry_and_triangle(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p, q, r = sample_uniform(spec, rng, 3).coords_array()
            assert distance(spec, p, q) == pytest.approx(distance(spec, q, p), abs=1e-12)
            assert distance(spec, p, q) <= distance(spec, p, r) + distance(spec, r, q) + 1e-12

    def test_phase_invariance_complex(self):
        rng = np.random.default_rng(3)
        p, q = sample_uniform(CP2, rng, 2).coords_array()
        q2 = frame(field_coords(CP2, q) * np.exp(1j * 0.87))
        assert distance(CP2, p, q2) == pytest.approx(distance(CP2, p, q), abs=1e-12)

    def test_phase_invariance_quaternion(self):
        rng = np.random.default_rng(4)
        p, q = sample_uniform(HP1, rng, 2).coords_array()
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        # right product q_i u of every quaternionic coordinate, (w, x, y, z) layout
        w, x, y, z = field_coords(HP1, q).T
        rephased = np.stack(
            [
                w * u[0] - x * u[1] - y * u[2] - z * u[3],
                w * u[1] + x * u[0] + y * u[3] - z * u[2],
                w * u[2] - x * u[3] + y * u[0] + z * u[1],
                w * u[3] + x * u[2] - y * u[1] + z * u[0],
            ],
            axis=1,
        )
        assert distance(HP1, p, frame(rephased)) == pytest.approx(distance(HP1, p, q), abs=1e-12)


class TestDistanceRows:
    """`distance` takes two real frames and checks them as a configuration's rows."""

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_wrong_width_rejected(self, spec):
        p = one_point(spec, np.random.default_rng(1))
        for bad in (p[:-1], np.append(p, 0.0), p.reshape(1, -1)):
            with pytest.raises(DomainError, match="coordinates"):
                distance(spec, p, bad)
            with pytest.raises(DomainError, match="coordinates"):
                distance(spec, bad, p)

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_non_unit_row_rejected(self, spec):
        p, q = sample_uniform(spec, np.random.default_rng(2), 2).coords_array()
        for bad in (q * (1.0 + 1e-11), np.zeros_like(q), np.full_like(q, np.nan)):
            with pytest.raises(DomainError, match="unit vector"):
                distance(spec, p, bad)
            with pytest.raises(DomainError, match="unit vector"):
                distance(spec, bad, p)
        # within the 1e-12 norm tolerance a row is taken as it is
        assert distance(spec, p, q * (1.0 + 1e-13)) == pytest.approx(distance(spec, p, q), abs=1e-12)

    def test_cayley_plane_rejected(self):
        row = np.eye(17)[0]
        with pytest.raises(UnsupportedManifoldError):
            distance(OP2, row, row)


class TestPublicSurface:
    REMOVED = ("Point", "RngSeed")

    @pytest.mark.parametrize("module", [greenlab, mf], ids=lambda m: m.__name__)
    def test_all_resolves_and_names_no_removed_symbol(self, module):
        assert not set(self.REMOVED) & set(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), name
        for name in self.REMOVED:
            assert not hasattr(module, name), name

    def test_rows_are_the_only_point_form(self):
        assert not hasattr(Configuration, "from_array")
        assert not hasattr(Configuration, "points")
        assert not hasattr(Configuration, "__iter__")
        for helper in ("_coords_shape", "_flatten_coords", "_unflatten_coords"):
            assert not hasattr(mf, helper), helper

    def test_sample_uniform_needs_a_size(self):
        with pytest.raises(TypeError):
            sample_uniform(S2, np.random.default_rng(0))


class TestSampleUniform:
    def test_axis_moment_on_two_sphere(self):
        rng = np.random.default_rng(123)
        vals = sample_uniform(S2, rng, 100_000).coords_array()[:, 2] ** 2
        assert abs(float(vals.mean()) - 1.0 / 3.0) < 0.01

    @pytest.mark.parametrize("spec", [S3, CP2])
    def test_distance_cdf_matches_ball_fraction(self, spec):
        rng = np.random.default_rng(7)
        pole = one_point(spec, rng)
        draws = np.sort(
            [distance(spec, pole, q) for q in sample_uniform(spec, rng, 100_000).coords_array()]
        )
        cdf = ball_volume_fraction(spec, draws)
        emp = (np.arange(draws.size) + 0.5) / draws.size
        assert float(np.max(np.abs(cdf - emp))) < 0.01

    def test_samples_distinct(self):
        rng = np.random.default_rng(5)
        p, q = sample_uniform(S2, rng, 2).coords_array()
        assert distance(S2, p, q) > 0.0

    def test_cayley_plane_rejected(self):
        with pytest.raises(UnsupportedManifoldError):
            sample_uniform(OP2, np.random.default_rng(0), 1)

    @pytest.mark.parametrize(
        "draw",
        [lambda rng: sample_uniform(S2, rng, -1), lambda rng: random_distance(S2, rng, size=-1)],
        ids=["sample_uniform", "random_distance"],
    )
    def test_a_negative_size_is_a_domain_error(self, draw):
        with pytest.raises(DomainError):
            draw(np.random.default_rng(0))

    # a nan raised ValueError and an infinity OverflowError, and 2.7 drew 2 points
    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 2.7, "3"], ids=repr)
    def test_sample_uniform_takes_integer_sizes_only(self, size):
        with pytest.raises(DomainError) as exc:
            sample_uniform(S2, np.random.default_rng(0), size)
        assert repr(size) in str(exc.value)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), 2.7, "3"], ids=repr)
    def test_random_distance_takes_integer_sizes_only(self, size):
        with pytest.raises(DomainError) as exc:
            random_distance(S2, np.random.default_rng(0), size=size)
        assert repr(size) in str(exc.value)


class TestBatchedSampling:
    @pytest.mark.parametrize("spec", POINT_SPECS + [ManifoldSpec(Family.COMPLEX_PROJ, 20)])
    def test_batch_is_the_single_draws_in_turn(self, spec):
        rng = np.random.default_rng(6)
        single = np.concatenate([sample_uniform(spec, rng, 1).coords_array() for _ in range(30)])
        batch = sample_uniform(spec, np.random.default_rng(6), 30)
        assert isinstance(batch, Configuration) and batch.spec == spec
        assert np.array_equal(batch.coords_array(), single)


def horizontal_units(spec, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The horizontal parts of the rows of v at the matching rows, scaled to unit length."""
    u = _project_horizontal(mf._frames(mf._FIELD_RANK[spec.family], rows), v)
    return u / np.linalg.norm(u, axis=1)[:, None]


def step(spec, p: np.ndarray, direction: np.ndarray, t: float) -> np.ndarray:
    """The real frame at arclength t from the row p along the horizontal part
    of a direction, by `_geodesic_rows`."""
    x = p[None]
    u = horizontal_units(spec, x, np.asarray(direction, dtype=float)[None])
    return _geodesic_rows(x, u, np.array([t]))[0]


class TestGeodesicRows:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(2)
        p = one_point(S3, rng)
        u = rng.standard_normal(4)
        q = step(S3, p, u, 0.0)
        assert distance(S3, p, q) < 1e-12

    def test_great_circle_formula(self):
        p = np.array([0.0, 0.0, 1.0])
        q = step(S2, p, np.array([1.0, 0.0, 0.0]), 0.7)
        expected = np.array([math.sin(0.7), 0.0, math.cos(0.7)])
        assert np.allclose(q, expected, atol=1e-15)

    def test_cp1_quarter_diameter(self):
        cp1 = ManifoldSpec(Family.COMPLEX_PROJ, 1)
        rng = np.random.default_rng(9)
        p = one_point(cp1, rng)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = step(cp1, p, frame(u), math.pi / 2)
        assert distance(cp1, p, q) == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_arclength_realized(self, spec):
        rng = np.random.default_rng(13)
        p = one_point(spec, rng)
        shape = field_coords(spec, p).shape
        if spec.family is Family.COMPLEX_PROJ:
            u = frame(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        else:
            u = rng.standard_normal(shape).ravel()
        for t in (0.1, 0.4 * diameter(spec), 0.9 * diameter(spec)):
            q = step(spec, p, u, t)
            assert distance(spec, p, q) == pytest.approx(t, abs=1e-10)

    def test_non_horizontal_direction_projected(self):
        rng = np.random.default_rng(21)
        p = one_point(S2, rng)
        u = rng.standard_normal(3)
        skewed = u + 3.7 * p
        q1 = step(S2, p, u, 0.5)
        q2 = step(S2, p, skewed, 0.5)
        assert distance(S2, q1, q2) < 1e-12

    def test_zero_direction_stays(self):
        rows = np.array([[0.0, 0.0, 1.0]])
        zero = _project_horizontal(mf._frames(1, rows), rows.copy())
        assert not zero.any()
        moved = _geodesic_rows(rows, zero, np.array([0.3]))
        assert np.array_equal(moved, rows)

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_rows_move_as_single_steps(self, spec):
        rng = np.random.default_rng(14)
        rows = sample_uniform(spec, rng, 6).coords_array()
        tangents = rng.standard_normal(rows.shape)
        angles = np.linspace(-0.3, 0.9, 6) * diameter(spec)
        moved = _geodesic_rows(rows, horizontal_units(spec, rows, tangents), angles)
        singles = [step(spec, p, v, t) for p, v, t in zip(rows, tangents, angles)]
        np.testing.assert_allclose(moved, np.stack(singles), rtol=0, atol=1e-15)


class TestRandomDistance:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_within_range_and_ks(self, spec):
        rng = np.random.default_rng(31)
        draws = random_distance(spec, rng, size=100_000)
        assert np.all(draws >= 0.0) and np.all(draws <= diameter(spec))
        draws = np.sort(draws)
        cdf = ball_volume_fraction(spec, draws)
        emp = (np.arange(draws.size) + 0.5) / draws.size
        assert float(np.max(np.abs(cdf - emp))) < 0.01

    @pytest.mark.parametrize(
        ("spec", "fraction"),
        [(spec, f) for spec in POINT_SPECS for f in (0.1, 0.5)] + [(OP2, 0.3), (OP2, 0.5)],
        ids=lambda v: str(v) if isinstance(v, ManifoldSpec) else f"{v}D",
    )
    def test_phi_past_a_has_mean_minus_mu_theta(self, spec, fraction):
        # G has mean zero and Theta(a) is phi's mean over the ball, so
        # E[phi(r) 1{r > a}] = -mu(a) Theta(a), with phi bounded past a. The
        # normal law behind 4 standard errors needs a small skewness of the
        # mean: over 10^5 draws it is at most 0.02 here, but 277 on OP^2 at
        # 0.1 D (phi ~ r^-14), where 26 of 100 seeds fell outside (16 with the
        # inverse-CDF sampler); OP^2 takes 0.3 D (0.05) instead
        a = fraction * diameter(spec)
        draws = random_distance(spec, np.random.default_rng(41), size=100_000)
        values = np.zeros(draws.size)
        values[draws > a] = get_profile(spec).phi(draws[draws > a])
        exact = -ball_volume_fraction(spec, np.array([a]))[0] * theta_value(spec, a)
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - exact) < 4 * stderr

    def test_median_on_two_sphere(self):
        rng = np.random.default_rng(17)
        draws = random_distance(S2, rng, size=100_000)
        assert abs(float(np.median(draws)) - math.pi / 2) < 0.01

    def test_scalar_form(self):
        val = random_distance(OP2, np.random.default_rng(0))
        assert isinstance(val, float) and 0.0 <= val <= math.pi / 2


class TestConfigurationFiles:
    @pytest.mark.parametrize("spec", [S2, CP2, HP1], ids=str)
    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    def test_a_non_finite_row_is_rejected_before_it_is_scaled(self, spec, bad):
        # inf / inf once warned of an invalid division before the error
        row = " ".join(["0.5"] * (_row_width(spec) - 1) + [bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="every row must be a finite unit vector"):
                load_configuration(io.StringIO(f"# manifold={spec.token} n={spec.n}\n{row}\n"))

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_round_trip(self, spec):
        rng = np.random.default_rng(55)
        pts = sample_uniform(spec, rng, 5)
        buf = io.StringIO()
        save_configuration(pts, buf)
        buf.seek(0)
        again = load_configuration(buf)
        assert len(again) == 5 and again.spec == spec
        for p, q in zip(pts.coords_array(), again.coords_array()):
            assert distance(spec, p, q) < 1e-12

    @pytest.mark.parametrize("spec", POINT_SPECS)
    def test_rows_scaled_as_points(self, spec):
        # each row gets the bits of its coordinates over the base field
        # divided by their norm
        rng = np.random.default_rng(56)
        raw = rng.standard_normal((7, _row_width(spec)))
        text = f"# manifold={spec.token} n={spec.n}\n"
        text += "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in raw)
        loaded = load_configuration(io.StringIO(text))
        expected = []
        for row in raw:
            coords = field_coords(spec, row)
            expected.append(frame(coords / np.linalg.norm(coords)))
        assert np.array_equal(loaded.coords_array(), np.stack(expected))

    def test_array_must_hold_unit_rows(self):
        with pytest.raises(DomainError):
            Configuration(S2, np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(DomainError):
            Configuration(S2, np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(DomainError):
            Configuration(S2, np.array([[1.0, 0.0]]))
        with pytest.raises(DomainError):
            Configuration(S2, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            Configuration(S2, np.empty((0, 3)))
        with pytest.raises(UnsupportedManifoldError):
            Configuration(OP2, np.eye(17)[:1])

    def test_rows_are_copied_and_read_only(self):
        rows = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        config = Configuration(S2, rows)
        rows[0, 2] = 5.0
        held = config.coords_array()
        assert np.array_equal(held, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert not held.flags.writeable and len(config) == 2

    def test_cayley_plane_file_rejected(self):
        with pytest.raises(UnsupportedManifoldError):
            load_configuration(io.StringIO("# manifold=op2 n=2\n" + "0 " * 16 + "1\n"))

    def test_header_required(self):
        with pytest.raises(DomainError):
            load_configuration(io.StringIO("1.0 0.0 0.0\n"))

    @pytest.mark.parametrize("n", ["two", "2.5", ""])
    def test_non_integer_dimension_rejected(self, n):
        with pytest.raises(DomainError, match="field n"):
            load_configuration(io.StringIO(f"# manifold=s n={n}\n1.0 0.0 0.0\n"))

    def test_bad_coordinates(self):
        with pytest.raises(DomainError):
            load_configuration(io.StringIO("# manifold=s n=2\n1.0 zero 0.0\n"))

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            load_configuration(io.StringIO("# manifold=s n=2\n1.0 0.0\n"))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            load_configuration(io.StringIO("# manifold=s n=2\n"))

    def test_blank_and_comment_lines_skipped(self):
        text = "# manifold=s n=2\n\n  # a comment\n0 0 2\n\t\n 0 3 0 \n"
        loaded = load_configuration(io.StringIO(text))
        assert np.array_equal(loaded.coords_array(), [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    def test_float_spellings_accepted(self):
        # float() reads these; numpy's text reader takes neither
        text = "# manifold=s n=2\n1_0 0 0\n0 \uff11 0\n"
        loaded = load_configuration(io.StringIO(text))
        assert np.array_equal(loaded.coords_array(), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1 0 0\n# note\n\n0 1 # 0\n", "bad coordinate on line 5"),
            ("1 0 0 # trailing note\n", "bad coordinate on line 2"),
            ("1 0 0\n0 1 0\n0 1\n", "got 2 on line 4"),
            ("1 0\n0 1 0 0\n", "got 2 on line 2"),
            ("1 0 0 0\n0 1 0 0\n", "got 4 on line 2"),
            ("1 0 0\n0 1 zero\n", "bad coordinate on line 3"),
        ],
    )
    def test_bad_line_named(self, body, message):
        with pytest.raises(DomainError, match=message):
            load_configuration(io.StringIO("# manifold=s n=2\n" + body))
