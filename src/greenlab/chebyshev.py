"""Barycentric interpolation on Chebyshev-Lobatto grids.

Evaluation sweeps its radii in chunks of `_CHUNK`, so one call holds at
most a `_CHUNK` x m work matrix (m nodes; 200 x 256 doubles is 400 KB)
whatever the number of radii, and the chunk stays in cache.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lobatto_nodes", "ChebyshevInterpolant"]

_CHUNK = 256


def lobatto_nodes(m: int, lo: float, hi: float) -> np.ndarray:
    """m Chebyshev points of the second kind on [lo, hi], ascending, from exactly lo to hi."""
    if m < 2:
        raise ValueError("need at least two nodes")
    k = np.arange(m)
    x = np.cos(np.pi * k / (m - 1))[::-1]  # ascending on [-1, 1]
    nodes = (lo + hi) / 2.0 + (hi - lo) / 2.0 * x
    nodes[0], nodes[-1] = lo, hi  # the affine map can miss the ends by an ulp
    return nodes


class ChebyshevInterpolant:
    """Barycentric interpolant through values on a Chebyshev-Lobatto grid.

    Exact at the nodes; evaluation is vectorized over numpy arrays and runs
    in chunks of `_CHUNK` radii through one reused work matrix, so its
    memory is bounded by the chunk, not by the input size. Chunks start at
    multiples of `_CHUNK`, so each value has the bits of one single-threaded
    sweep over the whole input. The barycentric
    weights for Lobatto points are (-1)^k with the endpoints halved, which
    keeps the formula stable for any degree.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.shape != values.shape or nodes.ndim != 1:
            raise ValueError("nodes and values must be matching 1-D arrays")
        m = nodes.size
        w = np.ones(m)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        self.nodes = nodes
        self.values = values
        self._w = w
        self.lo = float(nodes[0])
        self.hi = float(nodes[-1])

    @classmethod
    def from_function(cls, f, m: int, lo: float, hi: float) -> "ChebyshevInterpolant":
        nodes = lobatto_nodes(m, lo, hi)
        return cls(nodes, np.array([f(x) for x in nodes]))

    def __call__(self, x):
        # The barycentric form is kept over a Clenshaw sum of the Chebyshev
        # coefficients: its rounding error is local, relative to the values
        # near x, while Clenshaw's is global, of order eps * sum |c_k|. The
        # high-dimensional tables span many decades (5e11 on S^30), where
        # Clenshaw loses digits at the small end.
        x_arr = np.asarray(x, dtype=float)
        xf = x_arr.ravel()
        n = xf.size
        starts = list(range(0, n, _CHUNK))
        if n > 1 and n - starts[-1] == 1:
            # a one-row product takes numpy's dot path, which rounds
            # differently from the matrix-vector kernel; fold the row in
            starts.pop()
        out = np.empty(n)
        work = np.empty((min(n, _CHUNK + 1), self.nodes.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo, hi in zip(starts, starts[1:] + [n]):
                ratios = work[: hi - lo]
                np.subtract(xf[lo:hi, None], self.nodes, out=ratios)
                np.divide(self._w, ratios, out=ratios)
                np.divide(ratios @ self.values, ratios.sum(axis=1), out=out[lo:hi])
        # at a node the formula is 0/0 or inf/inf; return the stored value
        idx = np.minimum(np.searchsorted(self.nodes, xf), self.nodes.size - 1)
        hit = self.nodes[idx] == xf
        out[hit] = self.values[idx[hit]]
        return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)
