"""Chebyshev-Lobatto points, and piecewise barycentric interpolation on them.

`lobatto_nodes` lays out the points that `bounds` samples its bound on and
that `RadialGreenProfile.grid_rows` lists the profile at.

A panel table is a run of panels, each a Chebyshev-Lobatto grid of m
nodes on its own interval, neighbours sharing their end node
("Piecewise-smooth chebfuns", Pachon, Platte & Trefethen, IMA J. Numer.
Anal. 2010). A point is located by one `searchsorted` and evaluated by the
barycentric formula of its panel (Berrut & Trefethen, SIAM Review 2004),
gathered row by row. Every sum runs along one row, so a value has the same
bits whatever batch it is evaluated in. Evaluation sweeps its points in
chunks of `_CHUNK` rows, so one call holds two `_CHUNK` x m work matrices
(m = 17: 140 KB each) whatever the number of points. No profile is
tabulated any more (every profile is closed, see `green`), so the library
itself builds none; `ChebyshevInterpolant` stays because the benchmark's
tracer (`greenbench/tracing.py`) wraps its `__call__` by name and
`tests/test_bench_spans.py` pins that name.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lobatto_nodes", "ChebyshevInterpolant"]

_CHUNK = 1024


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
    """Piecewise barycentric interpolant through values on Lobatto panels.

    nodes is ascending; panel p is nodes[p (m-1) : p (m-1) + m], the
    `lobatto_nodes` of its own interval, and m defaults to all nodes, one
    panel. Exact at the nodes; a radius outside the table takes the
    nearest panel's polynomial. The barycentric weights for Lobatto points
    are (-1)^k with the endpoints halved, which keeps the formula stable
    for any degree.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray, m: int | None = None):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.shape != values.shape or nodes.ndim != 1:
            raise ValueError("nodes and values must be matching 1-D arrays")
        m = nodes.size if m is None else m
        if m < 2 or (nodes.size - 1) % (m - 1):
            raise ValueError(f"{nodes.size} nodes do not form panels of {m}")
        w = np.ones(m)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        self.nodes = nodes
        self.values = values
        self.breaks = nodes[:: m - 1]
        self._inner_breaks = self.breaks[1:-1]
        self._w = w
        # (panels, m) copies, so that a chunk's rows are one contiguous gather
        rows = np.arange(self.breaks.size - 1)[:, None] * (m - 1) + np.arange(m)
        self._panel_nodes = nodes[rows]
        self._panel_values = values[rows]

    @classmethod
    def from_function(cls, f, m: int, lo: float, hi: float) -> "ChebyshevInterpolant":
        nodes = lobatto_nodes(m, lo, hi)
        return cls(nodes, np.array([f(x) for x in nodes]))

    def __call__(self, x):
        # The barycentric form is kept over a Clenshaw sum of the Chebyshev
        # coefficients: its rounding error is local, relative to the values
        # near x, while Clenshaw's is global, of order eps * sum |c_k|.
        x_arr = np.asarray(x, dtype=float)
        xf = x_arr.ravel()
        n = xf.size
        panel = np.searchsorted(self._inner_breaks, xf)
        out = np.empty(n)
        ratios = np.empty((min(n, _CHUNK), self._w.size))
        terms = np.empty_like(ratios)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, n, _CHUNK):
                hi = min(lo + _CHUNK, n)
                r, t, p = ratios[: hi - lo], terms[: hi - lo], panel[lo:hi]
                np.take(self._panel_nodes, p, axis=0, out=r)
                np.subtract(xf[lo:hi, None], r, out=r)
                np.divide(self._w, r, out=r)
                np.take(self._panel_values, p, axis=0, out=t)
                np.multiply(t, r, out=t)
                np.divide(t.sum(axis=1), r.sum(axis=1), out=out[lo:hi])
        # at a node the formula is 0/0 or inf/inf; return the stored value
        missed = np.flatnonzero(np.isnan(out))
        if missed.size:
            idx = np.minimum(np.searchsorted(self.nodes, xf[missed]), self.nodes.size - 1)
            hit = self.nodes[idx] == xf[missed]
            out[missed[hit]] = self.values[idx[hit]]
        return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)
