"""Configuration energies, certificates, the descent optimizer."""

import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from greenlab import energy as en
from greenlab import manifold as mf
from greenlab import verify as vf
from greenlab.errors import DomainError, SingularityError, UnsupportedManifoldError
from greenlab.green import get_profile
from greenlab.manifold import (
    _CHORD_COSINE,
    _CONJ_SIGN,
    _FIELD_RANK,
    Family,
    ManifoldSpec,
    _frames,
    _geodesic_rows,
    _modulus,
    _products,
    _project_horizontal,
    _row_width,
    diameter,
    distance,
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


def quaternions(row: np.ndarray) -> np.ndarray:
    """The (n+1, 4) quaternionic coordinates, (w, x, y, z) layout, of a real frame of HP^n."""
    return row.reshape(-1, 4)


def frame(coords: np.ndarray) -> np.ndarray:
    """The real frame of coordinates over the base field."""
    return np.ascontiguousarray(coords).view(float).ravel()


def geodesic_step(spec, p: np.ndarray, direction: np.ndarray, t: float) -> np.ndarray:
    """The real frame at arclength t from the row p along the horizontal part of a direction."""
    x = p[None]
    v = np.asarray(direction, dtype=float)[None]
    u = _project_horizontal(_frames(_FIELD_RANK[spec.family], x), v)
    u /= np.linalg.norm(u, axis=1)[:, None]
    return _geodesic_rows(x, u, np.array([t]))[0]


def coordinate_normal(spec, rng) -> np.ndarray:
    """A real frame of standard normal draws, one per real coordinate of
    S^n, RP^n and HP^n and one per complex coordinate of CP^n, in its real
    part (the imaginary parts are 0)."""
    if spec.family is Family.COMPLEX_PROJ:
        return frame(rng.standard_normal(spec.n + 1).astype(complex))
    return rng.standard_normal(_row_width(spec))


def aligned_rows(spec, x: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Representatives y u of the rows y of others with <x, y u> real and >= 0:
    the per-distance reference of the gradient tests.

    u = conj(h) / |h| for h = <x, y>, and u = 1 where h = 0. This is the
    sign on RP^n, the phase on CP^n and a unit quaternion on HP^n; sphere
    points are returned unchanged.
    """
    if spec.family is Family.SPHERE:
        return others
    k = _FIELD_RANK[spec.family]
    h = _products(k, x[None], others)[0]
    mod = _modulus(h)
    u = h * _CONJ_SIGN[:k, None] / np.where(mod > 0.0, mod, 1.0)
    u[0, mod == 0.0] = 1.0
    return np.einsum("cb,bcd->bd", u, _frames(k, others))


def random_config(spec, n, seed):
    return sample_uniform(spec, np.random.default_rng(seed), n)


def hopf_image(row: np.ndarray) -> np.ndarray:
    """Complex projective line to unit two-sphere, on real frames."""
    z0, z1 = row.view(complex)
    x = 2.0 * (z0.conjugate() * z1).real
    y = 2.0 * (z0.conjugate() * z1).imag
    z = abs(z0) ** 2 - abs(z1) ** 2
    return np.array([x, y, z]) / np.linalg.norm([x, y, z])


def rephased(spec, row: np.ndarray) -> np.ndarray:
    """The same point under another representative: the row's coordinates
    times a unit scalar on the right."""
    c, s = math.cos(0.7), math.sin(0.7)
    if spec.family is Family.SPHERE:
        return row
    if spec.family is Family.REAL_PROJ:
        return -row
    if spec.family is Family.COMPLEX_PROJ:
        return frame(row.view(complex) * complex(c, s))
    w, x, y, z = quaternions(row).T  # right product by the quaternion c + s i
    return frame(np.stack([c * w - s * x, c * x + s * w, c * y + s * z, c * z - s * y], axis=1))


class TestEnergy:
    def test_single_point(self):
        cfg = sample_uniform(S2, np.random.default_rng(0), 1)
        assert en.energy(cfg) == 0.0

    def test_antipodal_pair(self):
        cfg = en.Configuration(S2, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        assert en.energy(cfg) == pytest.approx(-1 / (2 * math.pi), rel=1e-10)

    def test_relabeling_invariance(self):
        cfg = random_config(S2, 30, 5)
        shuffled = en.Configuration(S2, cfg.coords_array()[::-1])
        assert en.energy(shuffled) == pytest.approx(en.energy(cfg), abs=1e-10)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        cfg = random_config(S3, 15, 8)
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = en.Configuration(S3, [q_mat @ p for p in cfg.coords_array()])
        assert en.energy(rotated) == pytest.approx(en.energy(cfg), abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        cfg = random_config(CP2, 12, 9)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q_mat, _ = np.linalg.qr(a)
        rotated = en.Configuration(CP2, [frame(q_mat @ p.view(complex)) for p in cfg.coords_array()])
        assert en.energy(rotated) == pytest.approx(en.energy(cfg), abs=1e-10)

    def test_quaternionic_isometry_invariance(self):
        # coordinate permutation composed with a left unit-quaternion twist
        # preserves the Hermitian inner product
        rng = np.random.default_rng(10)
        cfg = random_config(HP1, 10, 10)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)

        def act(p):
            flipped = quaternions(p)[::-1].copy()
            twisted = np.stack(
                [
                    np.array(
                        [
                            u[0] * q[0] - u[1] * q[1] - u[2] * q[2] - u[3] * q[3],
                            u[0] * q[1] + u[1] * q[0] + u[2] * q[3] - u[3] * q[2],
                            u[0] * q[2] + u[2] * q[0] + u[3] * q[1] - u[1] * q[3],
                            u[0] * q[3] + u[3] * q[0] + u[1] * q[2] - u[2] * q[1],
                        ]
                    )
                    for q in flipped
                ]
            )
            return frame(twisted / np.linalg.norm(twisted))

        moved = en.Configuration(HP1, [act(p) for p in cfg.coords_array()])
        assert en.energy(moved) == pytest.approx(en.energy(cfg), abs=1e-10)

    def test_mean_zero_over_uniform_configurations(self):
        vals = [en.energy(random_config(S2, 50, 1000 + k)) for k in range(200)]
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean) < 3 * stderr

    def test_duplicate_guard_names_indices(self):
        p = np.array([0.0, 0.0, 1.0])
        q = sample_uniform(S2, np.random.default_rng(1), 1).coords_array()[0]
        cfg = en.Configuration(S2, [p, q, p])
        with pytest.raises(SingularityError, match="0 and 2"):
            en.energy(cfg)

    def test_duplicate_guard_names_indices_past_the_first_block(self):
        # 300 points sweep in two row blocks; the second meets only the
        # points after its first row, and the error still names both indices
        rows = sample_uniform(S2, np.random.default_rng(2), 300).coords_array().copy()
        rows[280] = rows[250]
        cfg = en.Configuration(S2, rows)
        assert len(en._row_blocks(300, en._BLOCK_PAIRS)) > 1
        with pytest.raises(SingularityError, match="points 250 and 280 "):
            en.energy(cfg)

    @pytest.mark.parametrize("spec", [S2, HP1])
    def test_duplicate_guard_names_the_first_pair_in_row_order(self, spec):
        rows = sample_uniform(spec, np.random.default_rng(3), 50).coords_array().copy()
        rows[40], rows[12] = rows[10], rows[11]
        cfg = en.Configuration(spec, rows)
        with pytest.raises(SingularityError, match="points 10 and 40 "):
            en.energy(cfg)

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    def test_batched_sweep_matches_pairwise_distances(self, spec):
        # the Gram/arccos sweep against scalar `distance` calls; the pair 1e-7
        # apart, under another representative, takes the chord route in both
        rng = np.random.default_rng(17)
        points = list(sample_uniform(spec, rng, 12).coords_array())
        step = coordinate_normal(spec, rng)
        near = rephased(spec, geodesic_step(spec, points[0], step, 1e-7))
        assert distance(spec, points[0], near) == pytest.approx(1e-7, rel=1e-8, abs=0)
        profile = get_profile(spec)
        for pts in (points, points + [near]):
            terms = [profile.phi(distance(spec, p, q)) for i, p in enumerate(pts) for q in pts[i + 1 :]]
            # relative to sum |phi|: the random pairs' terms largely cancel
            scale = 2.0 * math.fsum(abs(t) for t in terms)
            got = en.energy(en.Configuration(spec, pts))
            assert abs(got - 2.0 * math.fsum(terms)) <= 1e-12 * scale

    def test_peak_memory_flat_in_n(self):
        cfg = random_config(S3, 1200, 34)
        get_profile(S3)
        tracemalloc.start()
        try:
            en.energy(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6


def reference_distances(spec, rows):
    """Distances of the pairs i < j of normalized rows: mpmath at 40 digits above cosine 0.9,
    long-double arccos (well conditioned there) below."""
    k = _FIELD_RANK[spec.family]
    iu, ju = np.triu_indices(len(rows), 1)
    wide = rows.astype(np.longdouble)
    h = np.einsum("acd,bd->abc", _frames(k, wide), wide)[iu, ju]
    cos = h[:, 0] if spec.family is Family.SPHERE else np.sqrt(np.sum(h * h, axis=1))
    norms = np.sqrt(np.sum(wide * wide, axis=1))
    cos = cos / (norms[iu] * norms[ju])
    dist = np.arccos(np.clip(cos, -1.0, 1.0))
    frames = _frames(k, rows)
    with mpmath.workdps(40):
        for p in np.nonzero(cos > 0.9)[0]:
            i, j = iu[p], ju[p]
            comps = [mpmath.fdot(frames[i, c].tolist(), rows[j].tolist()) for c in range(k)]
            c = comps[0] if spec.family is Family.SPHERE else mpmath.sqrt(mpmath.fdot(comps, comps))
            ni, nj = (mpmath.sqrt(mpmath.fdot(rows[a].tolist(), rows[a].tolist())) for a in (i, j))
            dist[p] = mpmath.acos(c / (ni * nj))
    return dist.astype(float)


def cosines(spec, rows):
    """(N, N) cosines of the distances between the rows: h_0 on spheres, |<x, y>| elsewhere."""
    h = _products(_FIELD_RANK[spec.family], rows, rows)
    return h[:, 0] if spec.family is Family.SPHERE else _modulus(h)


def rectangle_energy(spec, profile, coords):
    """The energy sweep over each block's whole Gram rectangle, as it was
    written before the flat pair sweep: the oracle for its bits. It forms
    (x, y) = (sin^2, cos^2)(s d) on the rectangle elementwise, by the same
    operations as the flat sweep, and x from the chord past `_CHORD_COSINE`."""
    n = len(coords)
    floor = en._MIN_SEPARATION_FACTOR * diameter(spec)
    k = en._FIELD_RANK[spec.family]

    def block_sum(lo, hi):
        later = coords[lo + 1 :]
        products = _products(k, coords[lo:hi], later)
        if spec.family is Family.SPHERE:
            t = products[:, 0].copy()
            x = t * -0.5
            x += 0.5
            t *= 0.5
            t += 0.5
            y = t
        else:
            y = np.square(products[:, 0])
            for c in range(1, k):
                y += np.square(products[:, c])
            x = np.subtract(1.0, y)
        upper = np.arange(n - lo - 1)[None, :] >= np.arange(hi - lo)[:, None]
        x_close = math.sin(profile.s * math.acos(_CHORD_COSINE)) ** 2
        rows, cols = np.nonzero(upper & (x < x_close))
        x[rows, cols] = mf._chord_sin_squares(spec, coords[lo + rows], later[cols])
        y[rows, cols] = 1.0 - x[rows, cols]
        pair_x, pair_y = x[upper], y[upper]
        assert not np.any(pair_x < math.sin(profile.s * floor) ** 2)
        values = profile.phi_hat(pair_x, pair_y, out=np.empty_like(pair_x)) + profile.c_m
        return float(np.sum(values)) / volume(spec)

    blocks = [(lo, hi) for lo, hi in en._row_blocks(n, en._BLOCK_PAIRS) if lo < n - 1]
    return 2.0 * float(np.sum(np.asarray([block_sum(lo, hi) for lo, hi in blocks])))


def plant_close(rows, pairs, rng, scale=0.02):
    """rows with row j of each (i, j) in pairs moved next to row i, at cosine above 0.99."""
    rows = rows.copy()
    for i, j in pairs:
        near = rows[i] + scale * rng.standard_normal(rows.shape[1])
        rows[j] = near / np.linalg.norm(near)
    return rows


class TestFlatSweep:
    """The flat pair sweep against the rectangle sweep, bit for bit."""

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1])
    @pytest.mark.parametrize(
        "n, block_pairs",
        [
            (2, 1 << 16),  # one pair
            (3, 1 << 16),
            (300, 1 << 16),  # two blocks, the second of 82 rows
            (25, 25),  # one row per block
            (25, 75),  # three rows per block; the last block, point 24 alone, is left out
            (26, 78),  # the last block holds points 24 and 25: one pair
        ],
    )
    def test_matches_the_rectangle_sweep(self, spec, n, block_pairs, monkeypatch):
        monkeypatch.setattr(en, "_BLOCK_PAIRS", block_pairs)
        rows = sample_uniform(spec, np.random.default_rng(n), n).coords_array()
        profile = get_profile(spec)
        cfg = en.Configuration(spec, rows)
        expected = rectangle_energy(spec, profile, rows)
        assert en.energy(cfg) == expected

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1])
    def test_close_pairs_on_both_sides_of_a_block_boundary(self, spec, monkeypatch):
        # three rows per block: rows 0-2 form block 0 and rows 3-5 block 1
        monkeypatch.setattr(en, "_BLOCK_PAIRS", 3 * 20)
        assert en._row_blocks(20, en._BLOCK_PAIRS)[:2] == [(0, 3), (3, 6)]
        rng = np.random.default_rng(7)
        rows = sample_uniform(spec, rng, 20).coords_array()
        close = [(2, 3), (2, 17), (3, 4), (5, 19), (0, 1), (17, 18)]
        rows = plant_close(rows, close, rng)
        cos = cosines(spec, rows)
        assert all(cos[i, j] > _CHORD_COSINE for i, j in close)
        cfg = en.Configuration(spec, rows)
        expected = rectangle_energy(spec, get_profile(spec), rows)
        assert en.energy(cfg) == expected

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1])
    def test_more_block_shapes_than_the_mask_cache_holds(self, spec, monkeypatch):
        # one row a block: 39 blocks of 39 shapes against the 16 masks kept,
        # so the second sweep finds its first masks evicted and made anew
        monkeypatch.setattr(en, "_BLOCK_PAIRS", 40)
        held = mf._upper_mask.cache_info().maxsize
        shapes = {(hi - lo, 39 - lo) for lo, hi in en._row_blocks(40, en._BLOCK_PAIRS) if lo < 39}
        assert held is not None and len(shapes) == 39 > held
        rows = sample_uniform(spec, np.random.default_rng(40), 40).coords_array()
        cfg = en.Configuration(spec, rows)
        expected = rectangle_energy(spec, get_profile(spec), rows)
        assert en.energy(cfg) == expected
        assert en.energy(cfg) == expected
        assert mf._upper_mask.cache_info().currsize <= held

    def test_masks_are_read_only_and_shared_by_one_shape(self):
        rng = np.random.default_rng(2)
        cp2, s2 = (sample_uniform(spec, rng, 30).coords_array() for spec in (CP2, S2))
        first = mf._pair_sin_cos_squares(CP2, cp2[:7], cp2[1:])[1]
        again = mf._pair_sin_cos_squares(S2, s2[:7], s2[1:])[1]
        assert first.shape == (7, 29) and again is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = False
        assert np.array_equal(first, np.triu(np.ones((7, 29), dtype=bool)))
        assert mf._pair_sin_cos_squares(CP2, cp2[:6], cp2[1:])[1] is not first

    @pytest.mark.parametrize("spec", [S2, S3, RP3, CP2, HP1])
    def test_least_x_and_y_of_a_block(self, spec):
        # least is the least x, chord pairs and all; without y, a sphere's
        # y is None and x and least keep their bits
        rng = np.random.default_rng(6)
        rows = plant_close(sample_uniform(spec, rng, 30).coords_array(), [(0, 1), (4, 20)], rng)
        for lo, hi in ((0, 30), (3, 10)):
            left, right = rows[lo:hi], rows[lo + 1 :]
            _, pairs, x, y, least = mf._pair_sin_cos_squares(spec, left, right)
            assert least == x.min() and y.shape == x.shape == (np.count_nonzero(pairs),)
            _, _, x_only, no_y, least_only = mf._pair_sin_cos_squares(spec, left, right, False)
            assert np.array_equal(x_only, x) and least_only == least
            assert no_y is None if spec.family is Family.SPHERE else np.array_equal(no_y, y)
        assert least < mf._pair_constants(spec)[1]  # the planted pair (4, 20) takes its chord

    @pytest.mark.parametrize("spec", [S2, S3, RP3, HP1])
    def test_chord_only_for_close_pairs_in_energy_and_gradient(self, spec, monkeypatch):
        # close pairs take x from the chord, and only they, in the energy
        # and in its gradient alike
        calls = []
        chord = mf._chord_sin_squares

        def spy(spec, left, right):
            calls.append((left.copy(), right.copy()))
            return chord(spec, left, right)

        monkeypatch.setattr(mf, "_chord_sin_squares", spy)
        rng = np.random.default_rng(5)
        rows = sample_uniform(spec, rng, 40).coords_array()
        # no pair of the points kept is close
        cos = cosines(spec, rows)
        kept = []
        for i in range(40):
            if all(cos[i, j] <= _CHORD_COSINE for j in kept):
                kept.append(i)
        rows = rows[kept]
        assert len(kept) > 20
        profile = get_profile(spec)
        en.energy(en.Configuration(spec, rows))
        en._descent_rows(spec, profile, rows)
        assert calls == []
        planted = plant_close(rows, [(1, 15)], rng)
        for sweep in (en._energy_rows, en._descent_rows):
            sweep(spec, profile, planted)
            (left, right), = calls
            assert np.array_equal(left, planted[[1]]) and np.array_equal(right, planted[[15]])
            calls.clear()


class TestClosePairs:
    @pytest.mark.parametrize("spec, n", [(HP1, 290), (CP2, 340), (S2, 450)])
    def test_energy_matches_mpmath_distances(self, spec, n):
        # Seeded random points, then four planted 1e-3 to 3e-2 D from others,
        # where arccos of the cosine loses digits (an arccos sweep is about
        # 6e-11 of sum |phi| off here on HP^1 and CP^2).
        # The scale is sum |phi|: E itself cancels 100 to 1250 fold, so that
        # even ulp-exact distances would move it by about 1e-14 of |E|.
        rng = np.random.default_rng(0)
        points = list(sample_uniform(spec, rng, n).coords_array())
        for t in (1e-3, 3e-3, 1e-2, 3e-2):
            step = coordinate_normal(spec, rng)
            points.append(geodesic_step(spec, points[len(points) % 7], step, t * diameter(spec)))
        profile = get_profile(spec)
        rows = en.Configuration(spec, points).coords_array()
        terms = profile.phi(reference_distances(spec, rows))
        first = np.triu_indices(len(points), 1)[1] < n  # pairs among the random points
        for pts, sel, tol in ((points[:n], first, 1e-15), (points, slice(None), 1e-13)):
            got = en.energy(en.Configuration(spec, pts))
            scale = 2.0 * math.fsum(np.abs(terms[sel]))
            assert abs(got - 2.0 * math.fsum(terms[sel])) <= tol * scale


class TestEnergyReport:
    def test_certificate_holds_for_random_configs(self):
        for k in range(5):
            cfg = random_config(CP2, 10, 300 + k)
            rep = en.EnergyReport.from_configuration(cfg)
            assert rep.slack >= 0.0
            assert rep.energy >= rep.bound.best_bound

    def test_serialization(self):
        cfg = random_config(S2, 8, 77)
        rep = en.EnergyReport.from_configuration(cfg)
        payload = rep.to_dict()
        assert payload["N"] == 8 and payload["family"] == "s"
        assert payload["slack"] >= 0.0


class TestIsometryRelations:
    def test_complex_line_energy_transfers_to_sphere(self):
        # map a CP^1 configuration through the Riemann-sphere identification;
        # dimension-2 Green kernels are scale invariant, so energies agree
        cfg = random_config(CP1, 10, 4)
        mapped = en.Configuration(S2, [hopf_image(p) for p in cfg.coords_array()])
        assert en.energy(mapped) == pytest.approx(en.energy(cfg), abs=1e-8)

    def test_real_projective_plane_affine_relation(self):
        # E_RP2 = alpha * E_S2(antipodal lift) + beta * N; recover the
        # constants from two configurations, then hold them fixed
        def pair(seed, n=12):
            cfg = random_config(RP2, n, seed)
            lifted = []
            for p in cfg.coords_array():
                lifted.append(p.copy())
                lifted.append(-p.copy())
            return en.energy(cfg), en.energy(en.Configuration(S2, lifted))

        # solve e_rp = alpha * e_s2 + c from two independent samples
        (r1, s1), (r2, s2) = pair(11), pair(12)
        alpha = (r1 - r2) / (s1 - s2)
        const = r1 - alpha * s1
        assert alpha == pytest.approx(0.5, rel=1e-6)
        assert const == pytest.approx(12 / (4 * math.pi), rel=1e-6)
        for seed in range(20):
            r, s = pair(500 + seed)
            assert r == pytest.approx(alpha * s + const, abs=1e-8)


class TestOptimizer:
    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    def test_descent_direction_matches_per_distance_loop(self, spec):
        from greenlab.green import phi_hat_prime
        from greenlab.manifold import volume

        coords = random_config(spec, 12, 5).coords_array()
        rows = en._descent_rows(spec, get_profile(spec), coords)
        for i in (0, 7):
            base = coords[i]
            aligned = aligned_rows(spec, base, np.delete(coords, i, axis=0))
            cos_d = np.clip(aligned @ base, -1.0, 1.0)
            d = np.arccos(cos_d)
            sin_d = np.sqrt(np.maximum(1.0 - cos_d * cos_d, 1e-30))
            weights = np.array(
                [phi_hat_prime(spec, float(x)) / volume(spec) if 0.0 < x < diameter(spec) else 0.0
                 for x in d]
            )
            loop = np.einsum("k,km->m", weights / sin_d, aligned - cos_d[:, None] * base)
            np.testing.assert_allclose(rows[i], loop, rtol=1e-14, atol=1e-14 * np.abs(loop).max())

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    def test_descent_takes_close_pairs_from_the_chord(self, spec):
        # one pair planted 1e-7 apart and one 1e-5 apart: each close point's
        # row against the per-distance loop with d = 2 asin(c/2) from the
        # chord c = |x_i - x_j u| of the aligned representatives, where the
        # Gram route's 1 - cos d keeps only half the digits
        from greenlab.green import phi_hat_prime

        rng = np.random.default_rng(18)
        points = list(random_config(spec, 12, 17).coords_array())
        for i, d in ((0, 1e-7), (2, 1e-5)):
            points[i + 1] = geodesic_step(spec, points[i], coordinate_normal(spec, rng), d)
        coords = en.Configuration(spec, points).coords_array()
        rows = en._descent_rows(spec, get_profile(spec), coords)
        for i in range(4):
            base = coords[i]
            aligned = aligned_rows(spec, base, np.delete(coords, i, axis=0))
            chord = np.linalg.norm(aligned - base, axis=1)
            cos_d = aligned @ base
            d = np.where(chord < 1.0, 2.0 * np.arcsin(0.5 * chord), np.arccos(np.clip(cos_d, -1.0, 1.0)))
            weights = phi_hat_prime(spec, d) / volume(spec) / np.sin(d)
            loop = weights @ (aligned - cos_d[:, None] * base)
            assert np.linalg.norm(rows[i] - loop) <= 1e-7 * np.linalg.norm(loop)

    # final energies of the point-by-point descent that the batched one
    # replaced, at --iters 3 and seeds 1 to 6: the batched descent must not end higher
    EARLIER_FINAL_ENERGIES = {
        (S2, 54): (-18.84281301404115, -18.84557091601775, -18.88425150505801,
                   -18.804745423670397, -18.77772896737105, -18.76578112711082),
        (RP3, 40): (-10.935529590180472, -10.773215467934037, -10.798856987176244,
                    -10.701157714085344, -10.81392479631084, -10.866688469206057),
        (CP2, 60): (-29.831205238665493, -29.923852182637887, -29.95698603493107,
                    -29.907971313856336, -29.879905900683163, -29.878106620417427),
        (HP1, 16): (-6.964460103831392, -7.085807462410463, -7.1542489861114635,
                    -7.170174574557086, -7.150301543636216, -7.0741691770476685),
    }

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize("spec, n", list(EARLIER_FINAL_ENERGIES))
    def test_three_sweeps_end_no_higher_than_before(self, spec, n, seed):
        pinned = self.EARLIER_FINAL_ENERGIES[spec, n][seed - 1]
        _, got = en.optimize(spec, n, 3, np.random.default_rng(seed))
        assert got <= pinned + 1e-12 * abs(pinned)

    # the repr of the final energy and the leading 16 hex digits of the
    # sha256 of the output rows' bytes at --iters 3 and seeds 1 and 2, as
    # commit 239a20c gave them (numpy 2.4 on its bundled OpenBLAS, x86-64):
    # a change for speed keeps these bits. Another BLAS may round the Gram
    # products differently.
    PINNED_DESCENTS = {
        (S2, 54): (("-19.114339184894455", "0f0a4af31367b60d"),
                   ("-19.007711037145405", "8c7f8bff7f94a6f7")),
        (RP3, 40): (("-11.091756438115278", "8f3dca108879401c"),
                    ("-11.067812787126355", "f26c2368b77fa61b")),
        (CP2, 60): (("-30.3133674127749", "a6f10c225de4c349"),
                    ("-30.30612737629147", "62f99d47875b05d6")),
        (HP1, 16): (("-7.223567818557717", "d05e6749595a2ad7"),
                    ("-7.271689590841007", "d5752222a8f5f4a4")),
    }

    @pytest.mark.parametrize("seed", (1, 2))
    @pytest.mark.parametrize("spec, n", list(PINNED_DESCENTS))
    def test_three_sweeps_keep_their_bits(self, spec, n, seed):
        config, e = en.optimize(spec, n, 3, np.random.default_rng(seed))
        digest = hashlib.sha256(config.coords_array().tobytes()).hexdigest()[:16]
        assert (repr(e), digest) == self.PINNED_DESCENTS[spec, n][seed - 1]
        assert repr(en.energy(config)) == repr(e)

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    def test_energy_never_increases_from_step_to_step(self, spec):
        rng = np.random.default_rng(8)
        coords = sample_uniform(spec, rng, 30).coords_array()
        profile = get_profile(spec)
        energies = [en.energy(en.Configuration(spec, coords))]
        for rows, e in en._descent_steps(spec, profile, coords, 12):
            assert e == en.energy(en.Configuration(spec, rows))
            energies.append(e)
        assert len(energies) == 13
        assert all(b < a for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    def test_no_sweeps_return_the_start(self, spec):
        # the start is the sample rescaled once more as real frames, which
        # moves no coordinate by more than two units in the last place
        rng = np.random.default_rng(4)
        sample = sample_uniform(spec, rng, 25).coords_array()
        got = en.optimize(spec, 25, 0, np.random.default_rng(4))[0].coords_array()
        norms = np.sqrt([x.dot(x) for x in sample])
        assert np.array_equal(got, sample / norms[:, None])
        assert np.all(np.abs(got - sample) <= 2.0 * np.spacing(np.abs(sample)))

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    def test_blocks_do_not_change_the_descent(self, spec, monkeypatch):
        # one sweep of 20 points: from a random start the first steps
        # amplify any rounding difference about tenfold each (S^2, 40
        # points: 3e-15 after one step, 4e-13 after six)
        profile = get_profile(spec)
        coords = random_config(spec, 40, 9).coords_array()
        one_block = en._descent_rows(spec, profile, coords)
        final = en.optimize(spec, 20, 1, np.random.default_rng(9))[0].coords_array()
        monkeypatch.setattr(en, "_BLOCK_PAIRS", 64)
        assert len(en._row_blocks(40, en._BLOCK_PAIRS)) == 40
        blocked = en._descent_rows(spec, profile, coords)
        np.testing.assert_allclose(blocked, one_block, rtol=0, atol=1e-14 * np.abs(one_block).max())
        again = en.optimize(spec, 20, 1, np.random.default_rng(9))[0].coords_array()
        np.testing.assert_allclose(again, final, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    def test_kept_block_gives_the_fresh_sweep(self, spec):
        # the block an energy sweep keeps, close pairs and all, gives the
        # gradient of a sweep of its own bit for bit
        rng = np.random.default_rng(12)
        close = [(0, 1), (5, 30), (30, 31)]
        rows = plant_close(sample_uniform(spec, rng, 40).coords_array(), close, rng)
        cos = cosines(spec, rows)
        assert all(cos[i, j] > _CHORD_COSINE for i, j in close)
        profile = get_profile(spec)
        kept = []
        assert en._energy_rows(spec, profile, rows, kept) == en._energy_rows(spec, profile, rows)
        (block,) = kept
        assert block[0] == 0 and block[2].shape == (40, 39)
        fresh = en._descent_rows(spec, profile, rows)
        assert np.array_equal(en._descent_rows(spec, profile, rows, kept), fresh)

    @pytest.mark.parametrize("spec", [S2, HP1])
    @pytest.mark.parametrize("n, blocks", [(40, 1), (256, 1), (257, 2)])
    def test_one_pair_sweep_per_energy_in_one_block(self, spec, n, blocks, monkeypatch):
        # N <= 256 at 2^16 pairs: one sweep for the start and one per trial
        # energy, the gradients reading the accepted trials' blocks; past one
        # block each gradient sweeps every block again
        sweeps, evaluations = [], []
        pair_sweep, energy_rows = en._pair_sin_cos_squares, en._energy_rows

        def sweep_spy(*args):
            sweeps.append(1)
            return pair_sweep(*args)

        def energy_spy(*args):
            evaluations.append(1)
            return energy_rows(*args)

        monkeypatch.setattr(en, "_pair_sin_cos_squares", sweep_spy)
        monkeypatch.setattr(en, "_energy_rows", energy_spy)
        assert len([lo for lo, _ in en._row_blocks(n, en._BLOCK_PAIRS) if lo < n - 1]) == blocks
        coords = sample_uniform(spec, np.random.default_rng(3), n).coords_array()
        steps = len(list(en._descent_steps(spec, get_profile(spec), coords, 3)))
        trials = len(evaluations) - 1
        assert steps == 3 and trials >= steps
        if blocks == 1:
            assert len(sweeps) == 1 + trials
        else:
            assert len(sweeps) == blocks * (1 + trials + steps)

    @pytest.mark.parametrize("spec", [S2, RP3, CP2, HP1])
    @pytest.mark.parametrize("n", [20, 60])
    def test_kept_blocks_do_not_change_the_descent(self, spec, n, monkeypatch):
        kept = en.optimize(spec, n, 3, np.random.default_rng(n))
        descent_rows = en._descent_rows

        def sweep_anew(spec, profile, coords, kept=None):
            return descent_rows(spec, profile, coords)

        monkeypatch.setattr(en, "_descent_rows", sweep_anew)
        fresh = en.optimize(spec, n, 3, np.random.default_rng(n))
        assert np.array_equal(kept[0].coords_array(), fresh[0].coords_array())
        assert kept[1] == fresh[1]

    def test_negative_iterations_rejected(self):
        with pytest.raises(DomainError):
            en.optimize(S2, 5, -1, np.random.default_rng(0))

    def test_energy_never_increases_from_start(self):
        seed = 21
        spec = S2
        rng = np.random.default_rng(seed)
        start = sample_uniform(spec, rng, 20)
        optimized, e = en.optimize(spec, 20, 30, np.random.default_rng(seed))
        assert e == en.energy(optimized) < en.energy(start)

    def test_deterministic_for_fixed_seed(self):
        a, e_a = en.optimize(S2, 10, 15, np.random.default_rng(3))
        b, e_b = en.optimize(S2, 10, 15, np.random.default_rng(3))
        assert np.array_equal(a.coords_array(), b.coords_array()) and e_a == e_b

    def test_tetrahedron(self):
        prof = get_profile(S2)
        _, e = en.optimize(S2, 4, 300, np.random.default_rng(7))
        target = 12 * prof.phi(math.acos(-1.0 / 3.0))
        assert e == pytest.approx(target, abs=1e-6)

    def test_optimized_beats_random_and_respects_bound(self):
        from greenlab.bounds import best_finite_bound

        spec = S2
        n = 60
        _, e_opt = en.optimize(spec, n, 40, np.random.default_rng(50))
        e_rand = np.mean([en.energy(random_config(spec, n, 600 + k)) for k in range(5)])
        bound = best_finite_bound(spec, n).best_bound
        assert e_opt < e_rand
        assert e_opt >= bound

    def test_projective_families_run(self):
        for spec in (CP2, HP1):
            cfg, e = en.optimize(spec, 6, 10, np.random.default_rng(2))
            assert len(cfg) == 6 and e == en.energy(cfg)

    def test_cayley_plane_rejected(self):
        with pytest.raises(UnsupportedManifoldError):
            en.optimize(OP2, 5, 5, np.random.default_rng(0))


class TestMonteCarloMoments:
    def test_mean_zero_two_sphere(self):
        mean, stderr = vf._mc_energy_moment(S2, 20, 200, np.random.default_rng(12))
        assert abs(mean) < 3 * stderr

    def test_mean_zero_cayley_plane(self):
        # one million radial pair draws in total (N(N-1) = 2 per sample)
        mean, stderr = vf._mc_energy_moment(OP2, 2, 500_000, np.random.default_rng(13))
        assert abs(mean) < 3 * stderr

    def test_stderr_scaling(self):
        _, se1 = vf._mc_energy_moment(S2, 10, 200, np.random.default_rng(14))
        _, se2 = vf._mc_energy_moment(S2, 10, 800, np.random.default_rng(15))
        assert 0.3 < se2 / se1 < 0.75

    def test_validation(self):
        with pytest.raises(DomainError):
            vf._mc_energy_moment(S2, 1, 100, np.random.default_rng(0))


RP5 = ManifoldSpec(Family.REAL_PROJ, 5)
S5 = ManifoldSpec(Family.SPHERE, 5)
CP31 = ManifoldSpec(Family.COMPLEX_PROJ, 31)


def cp_profile(n):
    """(phi_hat(x), c_m, V) of CP^n at the working precision, from
    h = Q(x) / x^n, Q(x) = (1/4) sum_j C(n-1, j) (x - 1)^j / (1 + j), integrated
    term by term: phi_hat = int_x^1 h = sum_(j>=1) q_(n-1-j) (w^j - 1) / j
    - q_(n-1) log x with w = 1/x, and c_m = -int_0^1 x^n h dx."""
    q = [mpmath.mpf(0)] * n  # Q(x) = sum_i q_i x^i
    for j in range(n):
        for i in range(j + 1):
            q[i] += mpmath.binomial(n - 1, j) * mpmath.binomial(j, i) * (-1) ** (j - i) / (4 * (1 + j))
    w_coeffs = [q[n - 1 - j] / j for j in range(n - 1, 0, -1)] + [0]  # highest power first

    def phi_hat(x):
        return mpmath.polyval(w_coeffs, 1 / x) - sum(w_coeffs) - q[n - 1] * mpmath.log(x)

    return phi_hat, -sum(qi / (i + 1) for i, qi in enumerate(q)), mpmath.pi**n / mpmath.factorial(n)


class TestClosedRoute:
    """Energies and gradients read (x, y) = (sin^2, cos^2)(s d) from the Gram
    entries on every family: no arccos."""

    @pytest.mark.parametrize("spec", [S2, S3, S5, RP2, RP3, RP5, CP2, HP1, CP31], ids=str)
    def test_no_arccos(self, spec, monkeypatch):
        coords = random_config(spec, 40, 3).coords_array()
        profile = get_profile(spec)
        calls = []
        arccos = np.arccos

        def arccos_spy(*args, **kwargs):
            calls.append("arccos")
            return arccos(*args, **kwargs)

        monkeypatch.setattr(np, "arccos", arccos_spy)
        en.energy(en.Configuration(spec, coords))
        en._descent_rows(spec, profile, coords)
        assert calls == []

    @pytest.mark.parametrize("spec", [S2, CP2, HP1, RP2, RP3, S3, S5, CP31], ids=str)
    def test_energy_matches_mpmath(self, spec):
        # 40-digit energy of seeded points from hand-derived profiles,
        # x = sin^2(s d) of the normalised rows: phi_hat = -log x (S^2),
        # (1/x - 1 - log x)/8 (CP^2), (1/x - 1 - 2 log x)/24 (HP^1), -log sin d
        # (RP^2), (pi/2 - d) cot d / 2 (RP^3), (1 + (pi - d) cot d)/2 (S^3),
        # 1/3 + (3/8)(pi - d) c (1 + c^2/3) + c^2/8 with c = cot d (S^5), and
        # CP^31's from its h term by term (`cp_profile`)
        rows = sample_uniform(spec, np.random.default_rng(41), 100).coords_array()
        k = _FIELD_RANK[spec.family]
        frames = _frames(k, rows)
        with mpmath.workdps(40 if spec is not CP31 else 50):
            pi = mpmath.pi

            def angle(x):
                # d from x = sin^2(s d): s = 1/2 on spheres
                a = mpmath.asin(mpmath.sqrt(x))
                return 2 * a if spec.family is Family.SPHERE else a

            if spec is S2:
                volume_, c_m = 4 * pi, mpmath.mpf(-1)
                form = lambda x: -mpmath.log(x)
            elif spec is CP2:
                volume_, c_m = pi**2 / 2, mpmath.mpf(-3) / 16
                form = lambda x: (1 / x - 1 - mpmath.log(x)) / 8
            elif spec is HP1:
                volume_, c_m = pi**2 / 6, mpmath.mpf(-11) / 72
                form = lambda x: (1 / x - 1 - 2 * mpmath.log(x)) / 24
            elif spec is RP2:
                volume_, c_m = 2 * pi, mpmath.log(2) - 1
                form = lambda x: -mpmath.log(x) / 2
            elif spec is RP3:
                volume_, c_m = pi**2, mpmath.mpf(-1) / 4
                form = lambda x: (pi / 2 - angle(x)) * mpmath.cot(angle(x)) / 2
            elif spec is S3:
                volume_, c_m = 2 * pi**2, mpmath.mpf(-3) / 4
                form = lambda x: (1 + (pi - angle(x)) * mpmath.cot(angle(x))) / 2
            elif spec is S5:
                volume_, c_m = pi**3, mpmath.mpf(-25) / 48
                def form(x):
                    d = angle(x)
                    c = mpmath.cot(d)
                    return mpmath.mpf(1) / 3 + 3 * (pi - d) * c * (1 + c * c / 3) / 8 + c * c / 8
            else:
                form, c_m, volume_ = cp_profile(31)
            norms = [mpmath.sqrt(mpmath.fdot(r.tolist(), r.tolist())) for r in rows]
            total = mpmath.mpf(0)
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    h = [mpmath.fdot(frames[i, c].tolist(), rows[j].tolist()) / (norms[i] * norms[j])
                         for c in range(k)]
                    x = (1 - h[0]) / 2 if spec.family is Family.SPHERE else 1 - mpmath.fdot(h, h)
                    total += (form(x) + c_m) / volume_
            exact = 2 * total
        got = en.energy(en.Configuration(spec, rows))
        assert abs(got - exact) <= 5e-14 * abs(exact)
