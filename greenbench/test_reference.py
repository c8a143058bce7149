"""Tests of the benchmark's reference computation against known values.

Run with:  python3 -m pytest greenbench/test_reference.py -q
"""

import math

import numpy as np
import pytest

from reference import Manifold, distances, energy, sample_rows

ALL = [
    Manifold("s", 2),
    Manifold("s", 5),
    Manifold("rp", 2),
    Manifold("rp", 3),
    Manifold("cp", 1),
    Manifold("cp", 3),
    Manifold("hp", 1),
    Manifold("hp", 2),
    Manifold("op2", 2),
]


def _s2_green(r):
    # -(1/4 pi)(log(1 - cos r) + 1 - log 2), with 1 - cos r = 2 sin^2(r/2)
    return -(math.log(2.0 * math.sin(0.5 * r) ** 2) + 1.0 - math.log(2.0)) / (4.0 * math.pi)


@pytest.mark.parametrize("r", [1e-9, 1e-4, 0.01, 0.3, 1.0, 2.0, 3.0, math.pi])
def test_s2_green_function(r):
    m = Manifold("s", 2)
    exact = _s2_green(r)
    assert m.phi(r) == pytest.approx(exact, rel=1e-12, abs=1e-15)
    assert m.phi_many([r])[0] == pytest.approx(exact, rel=1e-11, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_k_cpn_at_diameter(n):
    m = Manifold("cp", n)
    harmonic = math.fsum(1.0 / j for j in range(1, n + 1))
    assert m.K(m.D) == pytest.approx(harmonic / (4.0 * n * m.V), rel=1e-12)


@pytest.mark.parametrize("m", ALL, ids=str)
def test_area_is_derivative_of_ball_volume(m):
    h = 1e-6
    for a in np.linspace(0.1, 0.95, 5) * m.D:
        if a < 0.5 * m.D:
            slope = float(m.ball(a + h) - m.ball(a - h)) / (2 * h)
        else:  # V(a) is close to V there; difference the complement instead
            slope = float(m.complement(a - h) - m.complement(a + h)) / (2 * h)
        assert slope == pytest.approx(float(m.area(a)), rel=1e-7)
    assert float(m.ball(m.D)) == pytest.approx(m.V, rel=1e-14)


@pytest.mark.parametrize("m", ALL, ids=str)
def test_complement_matches_ball_volume(m):
    a = np.linspace(0.05, 0.999, 40) * m.D
    np.testing.assert_allclose(m.complement(a) + m.ball(a), m.V, rtol=1e-13)


@pytest.mark.parametrize("m", ALL, ids=str)
def test_green_function_has_mean_zero(m):
    # Theta(M, D) is the mean of G over the whole manifold
    assert abs(m.theta(m.D)) <= 1e-12 * abs(m.c_m / m.V)


@pytest.mark.parametrize("m", ALL, ids=str)
def test_k_small_radius_law(m):
    a = 1e-3 * m.D
    assert m.K(a) == pytest.approx(a * a / (2.0 * (m.d + 2) * m.V), rel=1e-4)


@pytest.mark.parametrize("m", [Manifold("s", 2), Manifold("rp", 3), Manifold("cp", 2), Manifold("hp", 1)], ids=str)
def test_table_matches_quadrature(m):
    for r in np.geomspace(1e-6, 1.0, 7) * m.D:
        assert m.phi_many([r])[0] == pytest.approx(m.phi(r), rel=1e-10)


def _quat_mul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def test_hp_distance_against_hamilton_products():
    m = Manifold("hp", 2)
    rows = sample_rows(m, 5, np.random.default_rng(3))
    got = distances(m, rows)
    q = rows.reshape(5, 3, 4)
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    expect = []
    for i in range(5):
        for j in range(i + 1, 5):
            h = sum(_quat_mul(q[i, c] * conj, q[j, c]) for c in range(3))
            expect.append(math.acos(min(1.0, float(np.linalg.norm(h)))))
    np.testing.assert_allclose(got, expect, rtol=1e-12)


@pytest.mark.parametrize("m", [Manifold("rp", 3), Manifold("cp", 2), Manifold("hp", 1)], ids=str)
def test_projective_distance_ignores_the_representative(m):
    rng = np.random.default_rng(5)
    rows = sample_rows(m, 6, rng)
    moved = rows.copy()
    if m.family == "rp":
        moved[1] *= -1.0
    elif m.family == "cp":
        z = moved[1, 0::2] + 1j * moved[1, 1::2]
        z *= np.exp(0.7j)
        moved[1, 0::2], moved[1, 1::2] = z.real, z.imag
    else:
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        q = moved[1].reshape(-1, 4)
        moved[1] = np.array([_quat_mul(x, u) for x in q]).ravel()
    np.testing.assert_allclose(distances(m, moved), distances(m, rows), rtol=1e-12, atol=1e-14)


def test_energy_of_antipodal_pair_on_s2():
    m = Manifold("s", 2)
    rows = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    e, _ = energy(m, rows)
    assert e == pytest.approx(2.0 * _s2_green(math.pi), rel=1e-13)
