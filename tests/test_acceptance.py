"""Acceptance gate: one test per criterion, each printing a pass line.

Tolerances are pinned here and match the statements in the project brief;
run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math

import numpy as np
import pytest

from greenlab import ball_stats as bs
from greenlab import bounds as bd
from greenlab import energy as en
from greenlab import verify as vf
from greenlab.green import get_profile
from greenlab.manifold import (
    Family,
    ManifoldSpec,
    ball_volume,
    bm_constant,
    diameter,
    dimension,
    radial_density,
    sample_uniform,
    sphere_area,
    volume,
)
from greenlab.special_math import vol_unit_sphere

S2 = ManifoldSpec(Family.SPHERE, 2)
S3 = ManifoldSpec(Family.SPHERE, 3)
RP3 = ManifoldSpec(Family.REAL_PROJ, 3)
CP2 = ManifoldSpec(Family.COMPLEX_PROJ, 2)
HP1 = ManifoldSpec(Family.QUAT_PROJ, 1)
OP2 = ManifoldSpec(Family.CAYLEY_PLANE, 2)

MINIMUM_SET = [S3, RP3, CP2, HP1, OP2]


def _report(name: str, detail: str):
    print(f"ACCEPTANCE PASS  {name}: {detail}")


def test_criterion_1_coefficient_closure():
    """Optimal-radius pipeline reproduces every closed coefficient to 1e-12."""
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
        t_c = (2 * n + 1) ** (-1 / (2 * n))
        t_l = n / ((2 * n - 1) * (2 * n + 1) ** (1 + 1 / (2 * n)) * volume(spec))
        worst = max(worst, abs(c.c_opt - t_c) / t_c, abs(c.leading - t_l) / t_l)
    c = bd.optimal_radius_constant(OP2)
    t_c = 165 ** (-0.125)
    t_l = 4 / (63 * 165**0.125 * volume(OP2))
    worst = max(worst, abs(c.c_opt - t_c) / t_c, abs(c.leading - t_l) / t_l)
    for n in range(3, 11):
        spec = ManifoldSpec(Family.REAL_PROJ, n)
        c = bd.optimal_radius_constant(spec)
        t_l = (
            n
            / ((n * n - 4) * volume(spec))
            * (math.gamma(n / 2 + 1) * math.sqrt(math.pi) / math.gamma((n + 1) / 2))
            ** (2 / n)
        )
        worst = max(worst, abs(c.leading - t_l) / t_l)
    for n in range(3, 11):
        spec = ManifoldSpec(Family.SPHERE, n)
        c = bd.optimal_radius_constant(spec)
        t_l = vf._sphere_leading_coefficient(n)
        worst = max(worst, abs(c.leading - t_l) / t_l)
    assert worst <= 1e-12
    _report("coefficient closure", f"worst relative deviation {worst:.2e}")


def test_criterion_2_paper_numerals():
    """The displayed reference constants to four decimals."""
    ours = bd.our_coefficient(OP2)
    prior = bd.matzke_coefficient(OP2)
    assert math.floor(ours * 1e4) / 1e4 == 0.0335
    assert math.floor(prior * 1e4) / 1e4 == 0.0400
    table = bd.legacy_2d_constants()
    assert math.floor(abs(table["C_BHS"]) * 1e4) / 1e4 == 0.0556
    assert math.floor(abs(table["lauritsen"]) * 1e4) / 1e4 == 0.0568
    _report(
        "paper numerals",
        f"ours {ours:.6f}, prior {prior:.6f}, "
        f"C_BHS {table['C_BHS']:.6f}, lauritsen {table['lauritsen']:.6f}",
    )


def test_criterion_3_closed_form_cross_validation():
    """K and Theta closed forms against independent nested quadrature, 1e-6."""
    d_cp = diameter(CP2)
    combos = (
        [(ManifoldSpec(Family.COMPLEX_PROJ, n), a) for n in (1, 2, 3, 5, 10) for a in (0.3, 1.0)]
        + [(ManifoldSpec(Family.QUAT_PROJ, n), a) for n in (1, 2, 3) for a in (0.3, 1.0)]
        + [(OP2, a) for a in (0.3, 1.0)]
        + [(CP2, d_cp - 1e-3), (HP1, d_cp - 1e-3), (OP2, d_cp - 1e-3), (CP2, d_cp)]
    )
    assert len(combos) >= 20
    worst = 0.0
    for spec, a in combos:
        prof = get_profile(spec)
        kc, kq = bs.k_closed(spec, a), bs.k_quadrature(spec, a)
        tc, tq = bs.theta_closed(spec, a), bs.theta_quadrature(spec, a)
        assert abs(kq - kc) / abs(kc) <= 1e-6
        # Theta crosses zero at the diameter; there the agreement is held
        # absolutely, at 1e-6 of the profile scale |c_m|/V
        theta_scale = max(abs(tc), 1e-6 * abs(prof.c_m) / volume(spec))
        assert abs(tq - tc) / theta_scale <= 1e-6
        worst = max(worst, abs(kq - kc) / abs(kc), abs(tq - tc) / theta_scale)
    _report(
        "closed-form cross-validation",
        f"{len(combos)} combinations, worst relative gap {worst:.2e}",
    )


def test_criterion_4_green_defining_properties():
    """Mean zero, the log-formula profile on the 2-sphere, near-diagonal heads."""
    from greenlab.special_math import integrate

    worst_mean = 0.0
    for spec in MINIMUM_SET:
        prof = get_profile(spec)
        moment = integrate(
            lambda r: prof.phi(r) * sphere_area(spec, r), 0.0, diameter(spec), 1e-10
        )
        worst_mean = max(worst_mean, abs(moment))
        assert abs(moment) <= 1e-8

    prof = get_profile(S2)
    rr = np.linspace(0.02, math.pi, 50)
    closed = (
        np.log(1.0 / (2.0 * np.sin(rr / 2))) / (2 * math.pi)
        - 1 / (4 * math.pi)
        + math.log(2.0) / (2 * math.pi)
    )
    gap = float(np.max(np.abs(prof.phi(rr) - closed)))
    assert gap <= 1e-8

    worst_head = 0.0
    for spec in MINIMUM_SET:
        prof = get_profile(spec)
        d = dimension(spec)
        r = 1e-3 * diameter(spec)
        dev = abs(
            volume(spec) * r ** (d - 2) * prof.phi(r) / bm_constant(spec) - 1.0
        )
        worst_head = max(worst_head, dev)
        assert dev <= 0.02
    _report(
        "green defining properties",
        f"mean defect {worst_mean:.1e}, log-profile gap {gap:.1e}, "
        f"head deviation {worst_head:.2%}",
    )


def test_criterion_5_small_radius_asymptotics():
    """Volume, area and kernel small-radius laws at 1e-2 D, improving at 1e-3 D.

    V, v and K sit within 1%. Theta carries an O(a) correction in dimension
    3 whose true size at 1e-2 D is 1.007%, so it is held to the 2% stated
    with the kernel operations; the improvement assertion is strict.
    """
    rows = []
    for spec in MINIMUM_SET:
        D = diameter(spec)
        d = dimension(spec)
        area = vol_unit_sphere(d)

        def laws(a):
            v_dev = abs(ball_volume(spec, a) / (area * a**d / d) - 1.0)
            s_dev = abs(
                area * radial_density(spec, a) / (area * a ** (d - 1)) - 1.0
            )
            k_dev = abs(bs.k_value(spec, a) / vf._k_asymptotic(spec, a) - 1.0)
            t_dev = abs(
                bs.theta_quadrature(spec, a) / vf._theta_asymptotic(spec, a) - 1.0
            )
            return v_dev, s_dev, k_dev, t_dev

        coarse = laws(1e-2 * D)
        fine = laws(1e-3 * D)
        assert coarse[0] <= 0.01 and coarse[1] <= 0.01 and coarse[2] <= 0.01
        assert coarse[3] <= 0.02
        assert all(f < c for f, c in zip(fine, coarse))
        rows.append(max(coarse))
    _report(
        "small-radius asymptotics",
        f"worst coarse deviation {max(rows):.2%}, all improving at 1e-3 D",
    )


def test_criterion_6_ball_average_identity():
    """Exact branch, Monte Carlo ball average, sphere-mean derivative."""
    prof = get_profile(S2)
    t, a = 1.0, 0.3

    # (i) the t >= a branch is the identity by construction
    assert vf._ball_average_green(S2, t, a) == prof.phi(t) + bs.k_value(S2, a)

    # (ii) Monte Carlo over 1e6 in-ball rejection samples
    rng = np.random.default_rng(424242)
    want = 1_000_000
    kept = []
    total = 0
    while total < want:
        raw = rng.standard_normal((2_000_000, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        sel = raw[raw[:, 2] > math.cos(a)]
        kept.append(sel)
        total += sel.shape[0]
    pts = np.concatenate(kept)[:want]
    pole = np.array([math.sin(t), 0.0, math.cos(t)])
    vals = prof.phi(np.arccos(np.clip(pts @ pole, -1.0, 1.0)))
    mc = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(want))
    exact = vf._ball_average_green(S2, t, a)
    assert abs(mc - exact) <= 3 * se

    # (iii) derivative of the sphere mean in its radius
    h = 1e-5
    t2, a2 = 1.2, 0.5
    numeric = (
        vf._spherical_mean(S2, t2, a2 + h) - vf._spherical_mean(S2, t2, a2 - h)
    ) / (2 * h)
    exact_deriv = ball_volume(S2, a2) / (volume(S2) * sphere_area(S2, a2))
    assert numeric == pytest.approx(exact_deriv, rel=1e-6)
    _report(
        "ball-average identity",
        f"MC gap {abs(mc - exact):.2e} vs 3se {3 * se:.2e}, "
        f"derivative defect {abs(numeric - exact_deriv) / exact_deriv:.1e}",
    )


def test_criterion_7_lower_bound_never_violated():
    """Energy >= the finite-N bound for every probe radius, zero tolerance."""
    checked = 0
    for spec in (S2, RP3, CP2):
        for n_points in (10, 100):
            report = bd.best_finite_bound(spec, n_points)
            bound_values = [val for _, val in report.radius_grid] + [report.best_bound]
            for k in range(17):
                rng = np.random.default_rng([spec.n, n_points, k])
                e = en.energy(sample_uniform(spec, rng, n_points))
                assert all(e >= b for b in bound_values)
                checked += 1
        _, e_opt = en.optimize(spec, 30, 30, np.random.default_rng(17))
        report = bd.best_finite_bound(spec, 30)
        assert all(e_opt >= b for _, b in report.radius_grid)
        assert e_opt >= report.best_bound
        checked += 1
    assert checked >= 100
    _report("bound never violated", f"{checked} configurations certified")


def test_criterion_8_two_sphere_asymptotic_window():
    """Best finite bound at N = 1e4 within 10% of the d=2 reference line."""
    N = 10_000
    report = bd.best_finite_bound(S2, N)
    target = -(N / (4 * math.pi)) * math.log(N) - N / (8 * math.pi)
    ratio = report.best_bound / target
    assert 0.9 <= ratio <= 1.1
    _report(
        "two-sphere asymptotic window",
        f"bound {report.best_bound:.2f} vs target {target:.2f} (ratio {ratio:.4f})",
    )


def test_criterion_9_comparison_rows_all_sharper():
    """Our coefficient beats the prior one on every comparison row."""
    total = 0
    for family, lo, hi in (
        (Family.REAL_PROJ, 3, 60),
        (Family.COMPLEX_PROJ, 2, 60),
        (Family.QUAT_PROJ, 1, 30),
    ):
        rows = bd.compare_table(family, lo, hi)
        for _, ours, prior, _ in rows:
            assert abs(ours) < abs(prior)
        total += len(rows)
    _report("comparison rows", f"{total} rows, ours strictly smaller on each")


def test_criterion_10_optimizer_tetrahedron():
    """Four points on the 2-sphere descend to the regular tetrahedron."""
    prof = get_profile(S2)
    _, e = en.optimize(S2, 4, 300, np.random.default_rng(7))
    target = 12 * prof.phi(math.acos(-1.0 / 3.0))
    gap = abs(e - target)
    assert gap <= 1e-6
    _report("optimizer tetrahedron", f"energy gap {gap:.2e}")
