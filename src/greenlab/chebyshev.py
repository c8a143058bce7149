"""Piecewise Chebyshev tables: barycentric panels, and uniform cells derived from them.

A panel table is a run of panels, each a Chebyshev-Lobatto grid of m
nodes on its own interval, neighbours sharing their end node
("Piecewise-smooth chebfuns", Pachon, Platte & Trefethen, IMA J. Numer.
Anal. 2010). A point is located by one `searchsorted` and evaluated by the
barycentric formula of its panel (Berrut & Trefethen, SIAM Review 2004),
gathered row by row. Every sum runs along one row, so a value has the same
bits whatever batch it is evaluated in. Evaluation sweeps its points in
chunks of `_CHUNK` rows, so one call holds two `_CHUNK` x m work matrices
(m = 17: 140 KB each) whatever the number of points. In `green` a panel
table (`ChebyshevInterpolant`) only builds the cells: it is the source
that the profile's cell table is fitted to and checked against, and no
radius of a profile is evaluated from it.

A cell table is fitted once to a function such as a panel table. It
covers [lo, hi] with S + 1 cells of width h = (hi - lo) / S, each a
polynomial of degree 5 interpolating the function at the first-kind
Chebyshev points of the cell (Trefethen, *Approximation Theory and
Approximation Practice*, 2013), so a point costs one arithmetic lookup
of its cell, seven one-dimensional gathers (its centre and six
coefficients) and a Horner loop, with no search and no row reduction.
Every operation is elementwise, so here too a value has the same bits
whatever batch it is evaluated in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lobatto_nodes", "ChebyshevInterpolant", "CellTable"]

_CHUNK = 1024

_CELL_DEGREE = 5
_CELL_CHUNK = 8192


def _cell_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first-kind Chebyshev points s_j of [-1/2, 1/2], one per
    coefficient of a cell, the matrix taking values there to the
    coefficients of 1, s, ..., s^5 of the interpolant, and the matrix
    taking them to its slopes at the s_j.

    The Chebyshev coefficients come from the discrete cosine transform and
    T_k(2s) = 4s T_(k-1)(2s) - T_(k-2)(2s) turns them into monomials, so no
    linear solve is needed.
    """
    n = _CELL_DEGREE + 1
    k = np.arange(n)
    theta = np.pi * (k + 0.5) / n
    to_cheb = (2.0 / n) * np.cos(np.outer(k, theta))
    to_cheb[0] *= 0.5
    monomials = np.zeros((n, n))  # row k: the coefficients of T_k(2s)
    monomials[0, 0] = 1.0
    monomials[1, 1] = 2.0
    for j in range(2, n):
        monomials[j, 1:] = 4.0 * monomials[j - 1, :-1]
        monomials[j] -= monomials[j - 2]
    nodes = 0.5 * np.cos(theta)
    fit = monomials.T @ to_cheb
    slope = (k[1:] * nodes[:, None] ** (k[1:] - 1)) @ fit[1:]
    return nodes, fit, slope


# a cell's polynomial is written in s = (x - centre) / h, |s| <= 1/2
_CELL_NODES, _CELL_FIT, _CELL_SLOPE = _cell_matrices()


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


class CellTable:
    """Degree-5 polynomials on a uniform grid of cells over [lo, hi].

    Cell j = 0..S is centred at centres[j] = lo + j h, h = (hi - lo) / S,
    with centres[0] = lo and centres[S] = hi exactly, and holds the
    coefficients coeffs[:, j] of sum_k coeffs[k, j] s^k in
    s = (x - centres[j]) / h. A point x in [lo, hi] takes the cell
    j = int((x - lo) / h + 1/2), so |s| <= 1/2 up to rounding. x and its
    centre lie within a factor 2 of each other once lo >= h, so x - centre
    is exact and s carries one rounding.
    """

    def __init__(self, lo: float, hi: float, centres: np.ndarray, coeffs: np.ndarray):
        if coeffs.shape != (_CELL_DEGREE + 1, centres.size) or centres.size < 2:
            raise ValueError("need one column of coefficients per cell, at least two cells")
        self.lo = lo
        self.h = (hi - lo) / (centres.size - 1)
        self.centres = centres
        self.coeffs = coeffs

    @classmethod
    def fit(cls, f, lo: float, hi: float, cells: int) -> "CellTable":
        """Cells over [lo, hi] interpolating the array function f.

        The constant coefficient is f at the centre, so every centre, lo and
        hi among them, returns f's own value bit for bit. f is sampled
        half a cell beyond lo and hi. The interpolation points are rounded
        to floats, off the intended s by up to an ulp of x; one first-order
        step with the fitted slope moves each value to its intended point,
        so that the fit does not inherit an error of order |f'| eps x.
        """
        h = (hi - lo) / cells
        centres = lo + h * np.arange(cells + 1)
        centres[0], centres[-1] = lo, hi
        x = centres[:, None] + h * _CELL_NODES
        y = f(x.ravel()).reshape(x.shape)
        # y -= ((x - centre) / h - node) * slope, with x as the scratch array
        x -= centres[:, None]
        x /= h
        x -= _CELL_NODES
        x *= y @ _CELL_SLOPE.T
        y -= x
        coeffs = (y @ _CELL_FIT.T).T
        coeffs[0] = f(centres)
        return cls(lo, hi, centres, np.ascontiguousarray(coeffs))

    def __call__(self, x, out=None):
        """Values at x; with `out`, a flat array of x's size, written there in place."""
        x_arr = np.asarray(x, dtype=float)
        xf = x_arr.ravel()
        n = xf.size
        if out is None:
            out = np.empty(n)
        m = min(n, _CELL_CHUNK)
        s, tmp, j = np.empty(m), np.empty(m), np.empty(m, dtype=np.intp)
        for lo in range(0, n, _CELL_CHUNK):
            hi = min(lo + _CELL_CHUNK, n)
            xc, sc, tc, jc, acc = xf[lo:hi], s[: hi - lo], tmp[: hi - lo], j[: hi - lo], out[lo:hi]
            np.subtract(xc, self.lo, out=sc)
            np.divide(sc, self.h, out=sc)
            np.add(sc, 0.5, out=jc, casting="unsafe")  # truncation: the nearest centre
            np.take(self.centres, jc, out=tc, mode="clip")
            np.subtract(xc, tc, out=sc)
            np.divide(sc, self.h, out=sc)
            np.take(self.coeffs[_CELL_DEGREE], jc, out=acc, mode="clip")
            for k in range(_CELL_DEGREE - 1, -1, -1):
                np.multiply(acc, sc, out=acc)
                np.take(self.coeffs[k], jc, out=tc, mode="clip")
                np.add(acc, tc, out=acc)
        return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)
