"""Barycentric Chebyshev interpolation utility."""

import math

import numpy as np
import pytest

from greenlab.chebyshev import _CHUNK, ChebyshevInterpolant, lobatto_nodes


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

    @pytest.mark.parametrize("size", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1, 3 * _CHUNK + 7])
    def test_chunks_match_one_sweep(self, size):
        # the whole input in one barycentric sweep, as the chunks compute it
        itp = ChebyshevInterpolant.from_function(lambda x: math.exp(math.sin(3 * x)), 64, 0.0, 2.0)
        x = np.random.default_rng(size).uniform(0.0, 2.0, size)
        ratios = itp._w / (x[:, None] - itp.nodes)
        assert np.array_equal(itp(x), ratios @ itp.values / ratios.sum(axis=1))

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
