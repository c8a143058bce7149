"""Self-contained invariant suite behind the `verify` subcommand.

Each check returns (passed, detail). The quick tier keeps everything under
a few seconds; the full tier adds the sampling statistics and optimizer
checks. The helpers that only these checks read live here: the
small-radius laws of K and Theta, the ball and sphere averages of G, the
direct sphere coefficient and the Monte Carlo energy moment.
"""

from __future__ import annotations

import math

import numpy as np

from . import ball_stats as bs
from . import bounds as bd
from . import energy as en
from .ball_stats import cum_volume_over_area, k_value
from .energy import energy
from .errors import DomainError, SingularityError
from .green import _phi_hat_floor, get_profile, phi_hat, phi_hat_prime
from .manifold import (
    Family,
    ManifoldSpec,
    _as_generator,
    _sin_cos_squares,
    ball_volume,
    ball_volume_fraction,
    bm_constant,
    diameter,
    dimension,
    distance,
    radial_density,
    random_distance,
    sample_uniform,
    sphere_area,
    volume,
)
from .special_math import gauss_kronrod_panel, incomplete_beta, integrate, vol_unit_sphere

CORE_SPECS = [
    ManifoldSpec(Family.SPHERE, 2),
    ManifoldSpec(Family.SPHERE, 3),
    ManifoldSpec(Family.REAL_PROJ, 3),
    ManifoldSpec(Family.COMPLEX_PROJ, 2),
    ManifoldSpec(Family.QUAT_PROJ, 1),
    ManifoldSpec(Family.CAYLEY_PLANE, 2),
]


_BETA_S = (0.01, 0.2, 0.5, 0.77, 0.99)
_BETA_AB = ((0.5, 0.5), (1.5, 2.5), (8.0, 3.0), (30.0, 30.0))


def _beta(s: float, a: float, b: float) -> float:
    """I_s(a, b) by `incomplete_beta`, the route of the ball fraction and the oracles."""
    return float(incomplete_beta(a, b, np.array([s]), np.array([1 - s]))[0][0])


def _check_beta_symmetry():
    # past the mean I_(1-s)(b, a) is 1 - I_s(a, b) by construction, so this
    # checks rounding; the closed forms below check the values
    worst = 0.0
    for s in _BETA_S:
        for a, b in _BETA_AB:
            worst = max(
                worst,
                abs(_beta(s, a, b) + _beta(1 - s, b, a) - 1),
            )
    return worst < 1e-12, f"max symmetry defect {worst:.2e}"


def _check_beta_closed_forms():
    # I_x(a, 1) = x^a, I_x(1, b) = 1 - (1 - x)^b, and the arcsine forms of
    # I_x(1/2, 1/2) and I_x(3/2, 3/2), relative, at the symmetry check's grid
    worst = 0.0
    for x in _BETA_S:
        angle = math.asin(math.sqrt(x))
        cases = [(a, 1.0, x**a) for a, _ in _BETA_AB]
        cases += [(1.0, b, -math.expm1(b * math.log1p(-x))) for _, b in _BETA_AB]
        cases += [
            (0.5, 0.5, 2.0 / math.pi * angle),
            (1.5, 1.5, 2.0 / math.pi * (angle - (1.0 - 2.0 * x) * math.sqrt(x * (1.0 - x)))),
        ]
        for a, b, exact in cases:
            worst = max(worst, abs(_beta(x, a, b) - exact) / exact)
    return worst < 1e-13, f"max closed-form defect {worst:.2e}"  # reads 3.2e-15


def _check_panel_exactness():
    worst = 0.0
    for deg in range(23):
        val, _, _ = gauss_kronrod_panel(lambda x: x**deg, 0.0, 1.0)
        worst = max(worst, abs(val - 1.0 / (deg + 1)) * (deg + 1))
    return worst < 1e-13, f"max degree<=22 panel error {worst:.2e}"


def _check_quadrature_additivity():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    whole = integrate(f, 0.0, 2.0)
    split = integrate(f, 0.0, 0.7) + integrate(f, 0.7, 2.0)
    return abs(whole - split) < 1e-12, f"split defect {abs(whole - split):.2e}"


def _check_volume_quadrature():
    worst = 0.0
    specs = CORE_SPECS + [
        ManifoldSpec(Family.SPHERE, 60),
        ManifoldSpec(Family.REAL_PROJ, 60),
        ManifoldSpec(Family.COMPLEX_PROJ, 60),
        ManifoldSpec(Family.QUAT_PROJ, 30),
    ]
    for spec in specs:
        total = vol_unit_sphere(dimension(spec)) * integrate(
            lambda r: radial_density(spec, r), 0.0, diameter(spec)
        )
        worst = max(worst, abs(total - volume(spec)) / volume(spec))
    return worst < 1e-12, f"max volume defect {worst:.2e}"  # reads 1.7e-15


def _check_ball_volume_quadrature():
    worst = 0.0
    for spec in CORE_SPECS:
        D = diameter(spec)
        for frac in (0.2, 0.5, 0.8, 1.0):
            a = frac * D
            quad = vol_unit_sphere(dimension(spec)) * integrate(
                lambda r: radial_density(spec, r), 0.0, a
            )
            worst = max(worst, abs(quad - ball_volume(spec, a)) / volume(spec))
    return worst < 5e-14, f"max ball-volume defect {worst:.2e}"  # reads 4.6e-16


# the three derivative checks difference another route (ball volumes, the
# quadrature phi_hat, sphere means) against the exact derivative: only they tie
# the two routes together; a central difference is 2e-11 to 3e-8 off, so 1e-6


def _check_sphere_area_derivative():
    worst = 0.0
    h = 1e-5
    for spec in CORE_SPECS:
        D = diameter(spec)
        for frac in (0.2, 0.5, 0.8):
            a = frac * D
            deriv = (ball_volume(spec, a + h) - ball_volume(spec, a - h)) / (2 * h)
            v = sphere_area(spec, a)
            worst = max(worst, abs(deriv - v) / v)
    return worst < 1e-6, f"max dV/da defect {worst:.2e}"


def _check_distance_axioms():
    rng = np.random.default_rng(2024)
    worst_tri = 0.0
    worst_sym = 0.0
    for spec in CORE_SPECS:
        if spec.family is Family.CAYLEY_PLANE:
            continue
        for _ in range(20):
            p, q, r = sample_uniform(spec, rng, 3).coords_array()
            dpq, dqp = distance(spec, p, q), distance(spec, q, p)
            worst_sym = max(worst_sym, abs(dpq - dqp))
            worst_tri = max(worst_tri, dpq - distance(spec, p, r) - distance(spec, r, q))
    ok = worst_sym < 1e-12 and worst_tri < 1e-12
    return ok, f"symmetry {worst_sym:.1e}, triangle excess {worst_tri:.1e}"


def _check_green_mean_zero():
    worst = 0.0
    for spec in CORE_SPECS:
        prof = get_profile(spec)
        mz = integrate(lambda r: prof.phi(r) * sphere_area(spec, r), 0.0, diameter(spec), 1e-10)
        worst = max(worst, abs(mz))
    return worst < 1e-11, f"max mean defect {worst:.2e}"  # reads 1.2e-13


def _check_sphere_profile_closed_form():
    spec = ManifoldSpec(Family.SPHERE, 2)
    prof = get_profile(spec)
    rr = np.linspace(0.01, math.pi, 50)
    exact = -np.log(np.sin(rr / 2)) / (2 * math.pi) - 1 / (4 * math.pi)
    got = prof.phi(rr)
    worst = float(np.max(np.abs(got - exact)))
    return worst < 2e-15, f"max pointwise defect {worst:.2e}"  # reads 2.8e-17


# the closed profiles against their direct forms, the quadrature phi_hat and
# phi_hat_prime: the Laurent form (S^2 to S^60, RP^2, RP^40, CP^20, HP^10,
# OP^2), where x^(1-m) amplifies rounding, and the odd form (S^3, S^5, RP^3).
# Higher odd n are left to the tests, against 40-digit references: near the
# floor the oracle phi_hat is itself about 1e-13 off there
_PROFILE_SPECS = [
    ManifoldSpec(Family.SPHERE, 2),
    ManifoldSpec(Family.SPHERE, 3),
    ManifoldSpec(Family.SPHERE, 5),
    ManifoldSpec(Family.SPHERE, 16),
    ManifoldSpec(Family.SPHERE, 40),
    ManifoldSpec(Family.SPHERE, 60),
    ManifoldSpec(Family.REAL_PROJ, 2),
    ManifoldSpec(Family.REAL_PROJ, 3),
    ManifoldSpec(Family.REAL_PROJ, 40),
    ManifoldSpec(Family.COMPLEX_PROJ, 20),
    ManifoldSpec(Family.QUAT_PROJ, 10),
    ManifoldSpec(Family.CAYLEY_PLANE, 2),
]


def _profile_radii(prof) -> np.ndarray:
    """18 radii in [r_cut, D), geometric over the whole range and uniform over its upper half."""
    D = prof.diameter
    frac = np.linspace(0.0, 1.0, 14)[1:-1] + 0.013
    return np.concatenate([prof.r_cut * (D / prof.r_cut) ** frac, D * (0.5 + 0.5 * frac[::2])])


def _check_closed_profile():
    worst = 0.0
    for spec in _PROFILE_SPECS:
        prof = get_profile(spec)
        # and 4 radii below r_cut, down to 1e-6 D, which the closed form
        # treats as any other radius
        below = np.geomspace(max(1e-6 * prof.diameter, _phi_hat_floor(spec)), prof.r_cut, 5)[:-1]
        radii = np.concatenate([below, _profile_radii(prof)])
        closed = prof.phi_hat_values(radii)
        direct = np.array([phi_hat(spec, float(r)) for r in radii])
        worst = max(worst, float(np.max(np.abs(closed - direct) / (np.abs(direct) + abs(prof.c_m)))))
    return worst < 1e-13, f"max profile defect {worst:.2e} of |phi_hat| + |c_m|"


def _check_closed_slope():
    # psi = 2 s h(x, y) sqrt(x y) from the profile's slope h, the one the optimizer reads
    worst = 0.0
    for spec in _PROFILE_SPECS:
        prof = get_profile(spec)
        radii = _profile_radii(prof)
        x, y = _sin_cos_squares(spec, radii)
        weight = radii ** (dimension(spec) - 1)
        direct = phi_hat_prime(spec, radii) * weight
        defect = np.abs(-2.0 * prof.s * prof.h(x, y) * np.sqrt(x * y) * weight - direct)
        worst = max(worst, float(np.max(defect) / np.max(np.abs(direct))))
    return worst < 1e-13, f"max slope defect {worst:.2e} of max |psi r^(d-1)|"


def _check_bm_heads():
    worst = 0.0
    for spec in CORE_SPECS:
        if dimension(spec) <= 2:
            continue
        prof = get_profile(spec)
        r = 1e-3 * diameter(spec)
        dev = abs(
            volume(spec) * r ** (dimension(spec) - 2) * prof.phi(r) - bm_constant(spec)
        ) / bm_constant(spec)
        worst = max(worst, dev)
    return worst < 0.02, f"max head deviation {worst:.2%}"


def _check_profile_derivative():
    worst = 0.0
    h = 1e-6
    for spec in CORE_SPECS:
        D = diameter(spec)
        for frac in (0.2, 0.5, 0.8):
            s = frac * D
            num = (phi_hat(spec, s + h) - phi_hat(spec, s - h)) / (2 * h)
            exact = phi_hat_prime(spec, s)
            worst = max(worst, abs(num - exact) / abs(exact))
    return worst < 1e-6, f"max derivative defect {worst:.2e}"


def _check_kernel_cross_validation(quick: bool):
    grid = [
        (Family.COMPLEX_PROJ, 2),
        (Family.QUAT_PROJ, 1),
        (Family.CAYLEY_PLANE, 2),
        (Family.SPHERE, 3),
        (Family.REAL_PROJ, 3),
    ]
    if not quick:
        grid += [(Family.COMPLEX_PROJ, 5), (Family.QUAT_PROJ, 3)]
        grid += [(Family.SPHERE, n) for n in (2, 10, 21)] + [(Family.REAL_PROJ, n) for n in (4, 21)]
    worst = 0.0
    for fam, n in grid:
        spec = ManifoldSpec(fam, n)
        # 0.8 D lies past the mean, where the kernels take the mirror's series,
        # on each of these records (RP^n takes S^n's below pi/2); D - 1e-3
        # guards K near the diameter. Theta is
        # left out there because it vanishes at D, so its relative defect
        # would measure its size, not the quadrature
        for a in (0.3, 0.9, 1.4, 0.8 * diameter(spec), diameter(spec) - 1e-3):
            worst = max(
                worst,
                abs(bs.k_quadrature(spec, a) - bs.k_closed(spec, a))
                / abs(bs.k_closed(spec, a)),
            )
        for a in (0.3, 0.9, 1.4, 0.8 * diameter(spec)):
            worst = max(
                worst,
                abs(bs.theta_quadrature(spec, a) - bs.theta_closed(spec, a))
                / max(abs(bs.theta_closed(spec, a)), 1e-12),
            )
    # at most 100 times the defect measured: 1.1e-15 on the quick grid, 4.3e-14
    # on the wide one (K on S^10 at D - 1e-3, where the quadrature is the one off)
    return worst < (1e-13 if quick else 4e-12), f"max closed-vs-quadrature defect {worst:.2e}"


def _k_asymptotic(spec: ManifoldSpec, a: float) -> float:
    """Small-radius law K = a^2 / (2 (d+2) V)."""
    return a * a / (2.0 * (dimension(spec) + 2) * volume(spec))


def _theta_asymptotic(spec: ManifoldSpec, a: float) -> float:
    """Small-radius law Theta = d B_M a^(2-d) / (2 V); requires d > 2."""
    d = dimension(spec)
    return d * bm_constant(spec) * a ** (2 - d) / (2.0 * volume(spec))


def _check_small_radius_asymptotics():
    worst_k = 0.0
    worst_theta = 0.0
    for spec in CORE_SPECS:
        D = diameter(spec)
        a = 1e-2 * D
        worst_k = max(worst_k, abs(bs.k_value(spec, a) / _k_asymptotic(spec, a) - 1))
        if dimension(spec) > 2:
            worst_theta = max(
                worst_theta,
                abs(bs.theta_value(spec, a) / _theta_asymptotic(spec, a) - 1),
            )
    ok = worst_k < 0.01 and worst_theta < 0.02
    return ok, f"K ratio defect {worst_k:.2%}, Theta ratio defect {worst_theta:.2%}"


# ---------------------------------------------------------------------------
# Ball and sphere averages of G
# ---------------------------------------------------------------------------


def _ball_average_green(spec: ManifoldSpec, t: float, a: float) -> float:
    """Mean of G(p, .) over the ball B(p0, a) with t = d_R(p0, p).

    Equals phi(t) + K(M, a) for t >= a; for t < a the overlap correction
    subtracts a double integral, collapsed here to a single one by
    swapping the integration order. t = 0 is rejected: phi diverges there
    while the true ball mean is the finite Theta(M, a).
    """
    D = diameter(spec)
    if t == 0.0:
        raise SingularityError(
            "the ball average at t = 0 is Theta(M, a); phi diverges pointwise"
        )
    if not 0.0 < t <= D:
        raise DomainError(f"need 0 < t <= D, got t={t}")
    if not 0.0 < a < D:
        raise DomainError(f"need 0 < a < D, got a={a}")
    base = get_profile(spec).phi(t) + k_value(spec, a)
    if t >= a:
        return base
    va = ball_volume(spec, a)

    def overlap(u: np.ndarray) -> np.ndarray:
        return (va - ball_volume(spec, u)) / sphere_area(spec, u)

    # only the base's absolute accuracy is needed: near t = a, va - V(u) is rounding noise
    correction = integrate(overlap, t, a, max(1e-15 * va * abs(base), 1e-300)) / va
    return base - correction


def _spherical_mean(spec: ManifoldSpec, t: float, a: float) -> float:
    """Mean of G(p, .) over the geodesic sphere S(p0, a), for a < t = d_R(p, p0).

    Closed identity: phi(t) + (1/V) int_0^a V(u)/v(u) du.
    """
    D = diameter(spec)
    if not 0.0 < t <= D:
        raise DomainError(f"need 0 < t <= D, got t={t}")
    if not 0.0 < a < t:
        raise DomainError(
            f"the sphere-mean identity holds for a < t only, got a={a}, t={t}"
        )
    return get_profile(spec).phi(t) + cum_volume_over_area(spec, a) / volume(spec)


def _check_ball_average_identity():
    spec = ManifoldSpec(Family.SPHERE, 2)
    prof = get_profile(spec)
    k03 = bs.k_value(spec, 0.3)
    exact_branch = _ball_average_green(spec, 1.0, 0.3) - (prof.phi(1.0) + k03)
    continuity = _ball_average_green(spec, 0.3 - 1e-12, 0.3) - _ball_average_green(
        spec, 0.3, 0.3
    )
    bound_ok = all(
        _ball_average_green(spec, t, 0.8) <= prof.phi(t) + bs.k_value(spec, 0.8) + 1e-12
        for t in (0.1, 0.4, 0.79, 1.2)
    )
    ok = exact_branch == 0.0 and abs(continuity) < 5e-11 and bound_ok  # reads 5.3e-13
    return ok, f"branch {exact_branch:.1e}, continuity {continuity:.1e}, bound {bound_ok}"


def _check_spherical_mean_derivative():
    spec = ManifoldSpec(Family.SPHERE, 3)
    h = 1e-5
    t, a = 1.2, 0.6
    num = (_spherical_mean(spec, t, a + h) - _spherical_mean(spec, t, a - h)) / (2 * h)
    exact = ball_volume(spec, a) / (volume(spec) * sphere_area(spec, a))
    dev = abs(num - exact) / exact
    return dev < 1e-6, f"derivative defect {dev:.2e}"


def _check_conditional_positivity():
    worst = 1.0
    for spec in (ManifoldSpec(Family.SPHERE, 3), ManifoldSpec(Family.COMPLEX_PROJ, 2)):
        prof = get_profile(spec)
        D = diameter(spec)
        for a in (0.05 * D, 0.12 * D):
            va = ball_volume(spec, a)
            self_term = bs.theta_value(spec, a) - (volume(spec) - va) / va * bs.k_value(spec, a)
            for t in (2 * a, 3 * a, 0.9 * D):
                if t > D:
                    continue
                cross = prof.phi(t) + 2 * bs.k_value(spec, a)
                worst = min(worst, self_term - cross)
    return worst >= 0.0, f"min self-minus-cross margin {worst:.3e}"


def _sphere_leading_coefficient(n: int) -> float:
    """The sphere coefficient of N^(2-2/n) in the direct Gamma-function form."""
    if n < 3:
        raise DomainError(f"the closed sphere coefficient needs n >= 3, got {n}")
    v_n = volume(ManifoldSpec(Family.SPHERE, n))
    v_nm1 = vol_unit_sphere(n)  # volume of S^(n-1)
    return n ** (1.0 + 2.0 / n) / (
        (n * n - 4) * v_n ** (1.0 - 2.0 / n) * v_nm1 ** (2.0 / n)
    )


def _check_coefficient_closure():
    worst = 0.0
    for n in range(2, 11):
        spec = ManifoldSpec(Family.COMPLEX_PROJ, n)
        c = bd.optimal_radius_constant(spec)
        worst = max(worst, abs(c.c_opt - 1.0))
        target = n / (2 * (n * n - 1) * volume(spec))
        worst = max(worst, abs(c.leading - target) / target)
    for n in range(1, 6):
        spec = ManifoldSpec(Family.QUAT_PROJ, n)
        c = bd.optimal_radius_constant(spec)
        target_c = (2 * n + 1) ** (-1 / (2 * n))
        worst = max(worst, abs(c.c_opt - target_c) / target_c)
    spec = ManifoldSpec(Family.CAYLEY_PLANE, 2)
    c = bd.optimal_radius_constant(spec)
    worst = max(worst, abs(c.c_opt - 165 ** (-0.125)) / 165 ** (-0.125))
    for n in range(3, 11):
        s = _sphere_leading_coefficient(n)
        c = bd.optimal_radius_constant(ManifoldSpec(Family.SPHERE, n))
        worst = max(worst, abs(c.leading - s) / s)
    return worst < 1e-12, f"max closure defect {worst:.2e}"


_COMPARE_RANGES = ((Family.REAL_PROJ, 3, 60), (Family.COMPLEX_PROJ, 2, 60), (Family.QUAT_PROJ, 1, 30))


def _check_comparisons_sharper():
    for fam, lo, hi in _COMPARE_RANGES:
        for _, ours, prior, _ in bd.compare_table(fam, lo, hi):
            if not abs(ours) < abs(prior):
                return False, f"row not sharper in {fam.value}"
    return True, "all rows sharper"


def _check_comparison_gamma_identity():
    # ours / prior = 2 Gamma(d/2 + 1)^(2/d) / (d/2 + 1) on every family
    worst = 0.0
    for fam, lo, hi in _COMPARE_RANGES:
        for n, _, _, ratio in bd.compare_table(fam, lo, hi):
            half = 0.5 * dimension(ManifoldSpec(fam, n))
            exact = 2.0 * math.exp(math.lgamma(half + 1.0) / half) / (half + 1.0)
            worst = max(worst, abs(ratio - exact) / exact)
    return worst < 1e-13, f"max ratio defect {worst:.2e}"


def _check_radius_search():
    # best_bound against an 80-step golden-section search on the grid argmax's neighbours
    worst, inv = 0.0, (math.sqrt(5.0) - 1.0) / 2.0
    for spec in (CORE_SPECS[1], CORE_SPECS[2], CORE_SPECS[3], CORE_SPECS[5]):
        rep = bd.best_finite_bound(spec, 1000)
        grid, found = rep.radius_grid, [b for _, b in rep.radius_grid]
        best = found.index(max(found))
        lo, hi = grid[max(best - 1, 0)][0], grid[min(best + 1, len(grid) - 1)][0]
        for _ in range(80):
            x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
            found += [bd.finite_bound(spec, 1000, x1), bd.finite_bound(spec, 1000, x2)]
            lo, hi = (x1, hi) if found[-2] < found[-1] else (lo, x2)
        worst = max(worst, abs(rep.best_bound / max(found) - 1.0))
    return worst < 1e-14, f"max best_bound defect {worst:.2e}"


def _check_single_point_bound():
    worst = 0.0
    for spec in CORE_SPECS:
        D = diameter(spec)
        for frac in (0.1, 0.4, 0.8, 1.0):
            worst = max(worst, bd.finite_bound(spec, 1, frac * D))
    return worst <= 1e-12, f"max N=1 bound {worst:.2e}"


def _check_certificates():
    rng = np.random.default_rng(7)
    for spec in (ManifoldSpec(Family.SPHERE, 2), ManifoldSpec(Family.COMPLEX_PROJ, 2)):
        for _ in range(3):
            en.EnergyReport.from_configuration(sample_uniform(spec, rng, 12))
    return True, "no certificate violations"


def _mc_energy_moment(
    spec: ManifoldSpec, N: int, samples: int, rng
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of E over i.i.d. uniform configurations.

    The Cayley plane has no point model; there, each ordered pair is
    simulated by an independent radial draw, which reproduces the mean
    exactly because the expectation is linear in the pair terms. The standard
    error is no error bar for d >= 4, where Var phi(r) is infinite (int r^(4-2d)
    r^(d-1) dr diverges at 0): on OP^2, N = 2 and 10^5 samples, 20 seeds gave
    z-scores of mean -2.63, deviation 2.58 and largest size 6.80.
    """
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    gen = _as_generator(rng)
    values = np.empty(samples)
    if spec.family is Family.CAYLEY_PLANE:
        pairs = N * (N - 1)
        draws = random_distance(spec, gen, size=samples * pairs)
        values = get_profile(spec).phi(draws).reshape(samples, pairs).sum(axis=1)
    else:
        for s in range(samples):
            values[s] = energy(sample_uniform(spec, gen, N))
    mean = float(np.mean(values))
    std_err = float(np.std(values, ddof=1) / math.sqrt(samples))
    return mean, std_err


def _check_energy_mean_zero():
    rng = np.random.default_rng(31)
    spec = ManifoldSpec(Family.SPHERE, 2)
    mean, stderr = _mc_energy_moment(spec, 20, 150, rng)
    return abs(mean) < 3 * stderr, f"mean {mean:.3f} vs stderr {stderr:.3f}"


def _check_cp1_isometry():
    cp1 = ManifoldSpec(Family.COMPLEX_PROJ, 1)
    s2 = ManifoldSpec(Family.SPHERE, 2)
    p1, p2 = get_profile(cp1), get_profile(s2)
    rr = np.linspace(0.05, math.pi / 2, 20)
    worst = float(np.max(np.abs(p1.phi(rr) - p2.phi(2 * rr))))
    return worst < 1e-14, f"profile transfer defect {worst:.2e}"  # reads 0


def _check_optimizer_tetrahedron():
    spec = ManifoldSpec(Family.SPHERE, 2)
    prof = get_profile(spec)
    _, e = en.optimize(spec, 4, 300, np.random.default_rng(7))
    target = 12 * prof.phi(math.acos(-1.0 / 3.0))
    dev = abs(e - target)
    return dev < 1e-6, f"tetrahedron defect {dev:.2e}"


def _check_sampling_statistics():
    rng = np.random.default_rng(5)
    worst = 0.0
    for spec in (ManifoldSpec(Family.SPHERE, 2), ManifoldSpec(Family.CAYLEY_PLANE, 2)):
        draws = np.sort(random_distance(spec, rng, size=100_000))
        cdf = ball_volume_fraction(spec, draws)
        emp = (np.arange(draws.size) + 0.5) / draws.size
        worst = max(worst, float(np.max(np.abs(cdf - emp))))
    return worst < 0.01, f"max KS distance {worst:.4f}"


QUICK_CHECKS = [
    ("beta symmetry", _check_beta_symmetry),
    ("incomplete beta closed forms", _check_beta_closed_forms),
    ("quadrature panel exactness", _check_panel_exactness),
    ("quadrature additivity", _check_quadrature_additivity),
    ("volume vs density quadrature", _check_volume_quadrature),
    ("ball volume vs quadrature", _check_ball_volume_quadrature),
    ("sphere area is dV/da", _check_sphere_area_derivative),
    ("distance axioms", _check_distance_axioms),
    ("green mean zero", _check_green_mean_zero),
    ("sphere profile closed form", _check_sphere_profile_closed_form),
    ("closed profile vs quadrature", _check_closed_profile),
    ("closed slope vs direct psi", _check_closed_slope),
    ("near-diagonal heads", _check_bm_heads),
    ("profile derivative", _check_profile_derivative),
    ("kernel closed vs quadrature", lambda: _check_kernel_cross_validation(True)),
    ("small-radius laws", _check_small_radius_asymptotics),
    ("ball-average identity", _check_ball_average_identity),
    ("sphere-mean derivative", _check_spherical_mean_derivative),
    ("conditional positivity", _check_conditional_positivity),
    ("coefficient closure", _check_coefficient_closure),
    ("comparisons sharper", _check_comparisons_sharper),
    ("comparison Gamma identity", _check_comparison_gamma_identity),
    ("single-point bound nonpositive", _check_single_point_bound),
    ("energy certificates", _check_certificates),
    ("complex line isometry", _check_cp1_isometry),
]

FULL_CHECKS = QUICK_CHECKS + [
    ("kernel cross validation (wide)", lambda: _check_kernel_cross_validation(False)),
    ("energy mean zero", _check_energy_mean_zero),
    ("optimizer tetrahedron", _check_optimizer_tetrahedron),
    ("radius search vs golden section", _check_radius_search),
    ("radial sampling statistics", _check_sampling_statistics),
]


def run_verification(quick: bool = False, stream=None) -> bool:
    """Run the invariant suite, print a pass/fail table, return overall success.

    Each line ends with the check's wall time.
    """
    import sys
    import time

    out = stream or sys.stdout
    checks = QUICK_CHECKS if quick else FULL_CHECKS
    all_ok = True
    width = max(len(name) for name, _ in checks) + 2
    for name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with its own diagnostic
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        all_ok &= ok
        out.write(f"{'PASS' if ok else 'FAIL'}  {name:<{width}} {detail} ({elapsed:.2f} s)\n")
    out.write(("all checks passed\n") if all_ok else ("FAILURES detected\n"))
    return all_ok
