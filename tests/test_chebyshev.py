"""Barycentric Chebyshev interpolation utility."""

import math

import numpy as np
import pytest

from greenlab.chebyshev import _CHUNK, ChebyshevInterpolant, lobatto_nodes


def panel_nodes(breaks, m):
    """Lobatto panels between consecutive breakpoints, each shared end once."""
    inner = [lobatto_nodes(m, lo, hi)[:-1] for lo, hi in zip(breaks[:-1], breaks[1:])]
    return np.concatenate(inner + [breaks[-1:]])


class TestLobattoNodes:
    def test_endpoints_and_order(self):
        nodes = lobatto_nodes(33, -1.5, 2.5)
        assert nodes[0] == pytest.approx(-1.5)
        assert nodes[-1] == pytest.approx(2.5)
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize(("lo", "hi"), [(math.pi / 100, math.pi / 2), (0.1, 0.7), (-1.5, 2.5), (1e-9, 3.0)])
    def test_ends_are_exact(self, lo, hi):
        for m in (2, 17, 200):
            nodes = lobatto_nodes(m, lo, hi)
            assert nodes[0] == lo and nodes[-1] == hi

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            lobatto_nodes(1, 0.0, 1.0)


class TestInterpolant:
    def test_exact_at_nodes(self):
        itp = ChebyshevInterpolant.from_function(math.exp, 20, 0.0, 1.0)
        assert itp(itp.nodes[7]) == itp.values[7]
        reps = _CHUNK // itp.nodes.size + 2  # a grid longer than one chunk
        assert np.array_equal(itp(np.tile(itp.nodes, reps)), np.tile(itp.values, reps))

    @pytest.mark.parametrize(
        "size", [1, 2, 255, 256, 257, 769, 775, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]
    )
    def test_chunks_match_one_sweep(self, size):
        # the whole input in one barycentric sweep, as the chunks compute it:
        # both sums run along each row
        itp = ChebyshevInterpolant.from_function(lambda x: math.exp(math.sin(3 * x)), 64, 0.0, 2.0)
        x = np.random.default_rng(size).uniform(0.0, 2.0, size)
        ratios = itp._w / (x[:, None] - itp.nodes)
        assert np.array_equal(itp(x), (ratios * itp.values).sum(axis=1) / ratios.sum(axis=1))

    def test_empty_input(self):
        itp = ChebyshevInterpolant.from_function(math.cos, 30, 0.0, 3.0)
        assert itp(np.array([])).shape == (0,)

    def test_spectral_accuracy_on_smooth_function(self):
        itp = ChebyshevInterpolant.from_function(lambda x: math.exp(math.sin(3 * x)), 64, 0.0, 2.0)
        xs = np.linspace(0.0, 2.0, 500)
        exact = np.exp(np.sin(3 * xs))
        assert float(np.max(np.abs(itp(xs) - exact))) < 1e-12

    def test_scalar_and_array_forms(self):
        itp = ChebyshevInterpolant.from_function(math.cos, 30, 0.0, 3.0)
        scalar = itp(1.234)
        assert isinstance(scalar, float)
        arr = itp(np.array([[0.5, 1.0], [2.0, 3.0]]))
        assert arr.shape == (2, 2)
        assert arr[0, 1] == pytest.approx(math.cos(1.0), abs=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChebyshevInterpolant(np.arange(4.0), np.arange(5.0))


class TestPanels:
    BREAKS = np.array([0.1, 0.2, 0.45, 0.7, 1.3, 2.0])

    def table(self, m=17):
        nodes = panel_nodes(self.BREAKS, m)
        return ChebyshevInterpolant(nodes, np.exp(np.sin(3 * nodes)) / nodes, m)

    def test_panel_nodes_share_their_ends(self):
        nodes = panel_nodes(self.BREAKS, 17)
        assert nodes.size == 5 * 16 + 1
        assert np.array_equal(nodes[::16], self.BREAKS)
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes[16:33], lobatto_nodes(17, 0.2, 0.45))

    def test_exact_at_nodes_and_breakpoints(self):
        itp = self.table()
        assert np.array_equal(itp(itp.nodes), itp.values)
        assert np.array_equal(itp.breaks, self.BREAKS)
        assert itp(0.45) == itp.values[32]

    def test_each_radius_takes_its_panel(self):
        itp = self.table()
        x = np.random.default_rng(3).uniform(0.1, 2.0, 4000)
        got = itp(x)
        for p, (lo, hi) in enumerate(zip(self.BREAKS[:-1], self.BREAKS[1:])):
            one = ChebyshevInterpolant(itp.nodes[16 * p : 16 * p + 17], itp.values[16 * p : 16 * p + 17])
            inside = (x >= lo) & (x <= hi)
            assert np.array_equal(got[inside], one(x[inside]))
        exact = np.exp(np.sin(3 * x)) / x
        assert float(np.max(np.abs(got - exact) / np.abs(exact))) < 1e-10

    def test_lone_radius_has_its_batch_bits(self):
        itp = self.table()
        x = np.random.default_rng(4).uniform(0.05, 2.1, 3 * _CHUNK + 5)
        batch = itp(x)
        assert np.array_equal(batch, [itp(float(v)) for v in x])
        assert np.array_equal(batch[::-1], itp(x[::-1]))

    def test_panels_must_tile_the_nodes(self):
        with pytest.raises(ValueError):
            ChebyshevInterpolant(np.arange(20.0), np.arange(20.0), 17)
