"""The five compact harmonic manifold families.

Covers the geometric inventory every other module consumes: dimensions,
diameters, volumes, radial volume densities, ball volumes, points as real
frames with geodesic distance, uniform sampling and radial distance sampling.

Each family's radial geometry is its Jacobi record (m, k, s) (`_record`),
from which `records` derives the volumes and every closed form.

Real frames
-----------
A point is given by its real frame: the row x in R^(k(n+1)), k = 1, 1, 2,
4, of a unit vector of R^(n+1) on S^n and RP^n, of C^(n+1) on CP^n and of
H^(n+1) on HP^n, holding each coordinate's real components (re, im or w,
x, y, z) in turn, which is exactly one line of a configuration file. On
the projective families a row is a homogeneous representative: any right
multiple by a unit scalar names the same point. Right multiplication by
e_c in {1, i, j, k} only permutes and negates the entries of x, so the k
components h_c = (x_p e_c) . x_q of the Hermitian inner product
<p, q> = sum conj(p_i) q_i come from one real matrix product for every
family. A pair's (x, y) = (sin^2(s d), cos^2(s d)) comes from them in one
place (`_pair_sin_cos_squares`), which `distance`, the energy and its
gradient share: cos d is h_0 on the sphere and |<p, q>| = ||h|| on the
projective families, the normalization under which the radial densities
below hold, and near coincidence x comes from the chord of the
phase-aligned representatives instead. Phase alignment and the horizontal
projection are built from the same products. A `Configuration` holds N
points as the read-only (N, D) array of their real frames. The Cayley
plane has no point model here; all its radial quantities and radial
sampling are fully supported.

Configuration file format
-------------------------
One point per line, whitespace-separated decimal reals, preceded by a
header line ``# manifold=<family> n=<n>``. Real families store n+1
coordinates per line, complex ones 2(n+1) (interleaved re, im), and
quaternionic ones 4(n+1) (w, x, y, z per coordinate).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

import numpy as np

from . import records
from .errors import DomainError, SingularityError, UnsupportedManifoldError
from .special_math import incomplete_beta, vol_unit_sphere

__all__ = [
    "Family",
    "ManifoldSpec",
    "Configuration",
    "dimension",
    "diameter",
    "volume",
    "bm_constant",
    "radial_density",
    "ball_volume",
    "ball_volume_fraction",
    "sphere_area",
    "distance",
    "sample_uniform",
    "random_distance",
    "quat_hermitian_inner",
    "save_configuration",
    "load_configuration",
]


class Family(Enum):
    SPHERE = "sphere"
    REAL_PROJ = "real_proj"
    COMPLEX_PROJ = "complex_proj"
    QUAT_PROJ = "quat_proj"
    CAYLEY_PLANE = "cayley_plane"


_CLI_TOKENS = {
    "s": Family.SPHERE,
    "rp": Family.REAL_PROJ,
    "cp": Family.COMPLEX_PROJ,
    "hp": Family.QUAT_PROJ,
    "op2": Family.CAYLEY_PLANE,
}


@dataclass(frozen=True)
class ManifoldSpec:
    """A harmonic manifold: family plus its dimension parameter n."""

    family: Family
    n: int

    def __post_init__(self):
        if self.family is Family.CAYLEY_PLANE:
            if self.n != 2:
                raise DomainError("the Cayley plane exists only for n = 2")
        elif self.n < 1:
            raise DomainError(f"{self.family.value} requires n >= 1, got n={self.n}")
        elif self.n == 1 and self.family in (Family.SPHERE, Family.REAL_PROJ):
            # a circle: psi = (V - V(s)) / v(s) stays bounded at s = 0, so
            # none of the singular forms of the profile and the bound apply
            raise DomainError(
                f"{self.family.value} with n=1 is a circle; the Green energy "
                "needs dimension d >= 2"
            )
        object.__setattr__(self, "_hash", hash((self.family, self.n)))  # once: specs key every cache

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # a Family's hash is salted per process: a loaded spec hashes anew
        return ManifoldSpec, (self.family, self.n)

    @classmethod
    def from_token(cls, token: str, n: int | None = None) -> "ManifoldSpec":
        """Build from a CLI token in {s, rp, cp, hp, op2}."""
        key = token.lower()
        if key not in _CLI_TOKENS:
            raise DomainError(f"unknown family token {token!r}")
        family = _CLI_TOKENS[key]
        if family is Family.CAYLEY_PLANE:
            return cls(family, 2 if n is None else n)
        if n is None:
            raise DomainError(f"family {token!r} needs an explicit n")
        return cls(family, n)

    @property
    def token(self) -> str:
        for tok, fam in _CLI_TOKENS.items():
            if fam is self.family:
                return tok
        raise AssertionError

    def __str__(self):
        return f"{self.token}{'' if self.family is Family.CAYLEY_PLANE else self.n}"


# the Jacobi record (m, k, s) of each family (`records` module docstring)
_RECORDS = {
    Family.SPHERE: lambda n: (n / 2, n / 2, 0.5),
    Family.REAL_PROJ: lambda n: (n / 2, 0.5, 1.0),
    Family.COMPLEX_PROJ: lambda n: (n, 1, 1.0),
    Family.QUAT_PROJ: lambda n: (2 * n, 2, 1.0),
    Family.CAYLEY_PLANE: lambda n: (8, 4, 1.0),
}


def _record(spec: ManifoldSpec) -> tuple[float, float, float]:
    """The Jacobi record (m, k, s) of a manifold."""
    return _RECORDS[spec.family](spec.n)


def dimension(spec: ManifoldSpec) -> int:
    """Real dimension d = 2m."""
    return round(2 * _record(spec)[0])


def diameter(spec: ManifoldSpec) -> float:
    """Maximal geodesic distance D = pi / (2s)."""
    return math.pi / (2.0 * _record(spec)[2])


def _radius_limit(spec: ManifoldSpec) -> float:
    """The largest radius taken as lying in [0, D]: D with a relative slack for rounding."""
    return diameter(spec) * (1.0 + 1e-12)


@functools.cache
def volume(spec: ManifoldSpec) -> float:
    """Riemannian volume V = pi^m Gamma(k) / (s^d Gamma(m + k)); SingularityError
    where V is not a normal double (d of about 430 and up)."""
    V = records.volume(_record(spec))
    if not V >= sys.float_info.min:
        raise SingularityError(f"the volume of {spec} is {V:.3g}, below the normal range of a double")
    return V


def bm_constant(spec: ManifoldSpec) -> float:
    """Coefficient (V/omega) / (d - 2) of the d_R^(2-d) singularity of V*G near the diagonal (d > 2 only)."""
    d = dimension(spec)
    if d <= 2:
        raise UnsupportedManifoldError(
            f"the near-diagonal power coefficient needs d > 2, got d={d} for {spec}"
        )
    return records.volume_ratio(_record(spec)) / (d - 2)


def _radii(spec: ManifoldSpec, r, what: str = "r") -> np.ndarray:
    """r as a float array, checked to lie in [0, D]."""
    r = np.asarray(r, dtype=float)
    if not ((r >= 0.0).all() and (r <= _radius_limit(spec)).all()):
        raise DomainError(f"{what}={r} outside [0, {diameter(spec)}] for {spec}")
    return r


def _like(r: np.ndarray, values: np.ndarray):
    """values, computed on np.atleast_1d(r), as a float for a scalar r (a
    one-element array gets the bits of a batch; numpy's scalar power does not)."""
    return float(values[0]) if r.ndim == 0 else values


def _sin_cos_squares(spec: ManifoldSpec, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) = (sin^2(s r), cos^2(s r)), each to full relative precision."""
    s = _record(spec)[2]
    return np.sin(s * r) ** 2, np.cos(s * r) ** 2


def _density(spec: ManifoldSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """v/omega = s^(1-d) x^(m-1/2) y^(k-1/2) from x = sin^2(s r), y = cos^2(s r), as
    (x/s^2)^(m-k) (4xy)^(k-1/2) (2s)^(1-2k) (m >= k): 4xy = sin^2(2sr) underflows only with v."""
    m, k, s = _record(spec)
    return (x / (s * s)) ** (m - k) * (4.0 * x * y) ** (k - 0.5) * (2.0 * s) ** (1 - 2 * k)


def radial_density(spec: ManifoldSpec, r):
    """Radial integration weight r^(d-1) * Omega(r), for a radius or an array of them."""
    r = _radii(spec, r)
    return _like(r, _density(spec, *_sin_cos_squares(spec, np.atleast_1d(r))))


def sphere_area(spec: ManifoldSpec, a):
    """(d-1)-volume v(a) of the geodesic sphere of radius a (array-valued like a)."""
    return vol_unit_sphere(dimension(spec)) * radial_density(spec, a)


def ball_volume(spec: ManifoldSpec, a):
    """Volume V(a) of a geodesic ball of radius a, by the closed forms (array-valued like a)."""
    a = _radii(spec, a, "a")
    return _like(a, volume(spec) * ball_volume_fraction(spec, np.atleast_1d(a)))


def ball_volume_fraction(spec: ManifoldSpec, a: np.ndarray) -> np.ndarray:
    """V(a)/V = I_x(m, k), x = sin^2(s a), past the mean 1 - I_y(k, m), for an array of radii."""
    m, k, _ = _record(spec)
    x, y = _sin_cos_squares(spec, _radii(spec, a, "a"))
    return incomplete_beta(m, k, x, y)[0]


# ---------------------------------------------------------------------------
# Real frames, distances and sampling
# ---------------------------------------------------------------------------


# real components per coordinate: the rank k of the base field over R
_FIELD_RANK = {
    Family.SPHERE: 1,
    Family.REAL_PROJ: 1,
    Family.COMPLEX_PROJ: 2,
    Family.QUAT_PROJ: 4,
}

# component j of the right product q e_c of q = (w, x, y, z) with
# e_c in (1, i, j, k) is _RIGHT_SIGN[c, j] * q[_RIGHT_PERM[c, j]]; the
# leading 2 x 2 blocks do the same for a complex number (re, im)
_RIGHT_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_RIGHT_SIGN = np.array(
    [[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0]]
)
_CONJ_SIGN = np.array([1.0, -1.0, -1.0, -1.0])
# above this cosine a pair's x = sin^2(s d) is taken from the chord, not from the cosine
_CHORD_COSINE = 0.99


@functools.cache
def _right_units(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign arrays, each (k, k m), of the maps x -> x e_c on real frames."""
    index = k * np.arange(m)[:, None] + _RIGHT_PERM[:k, None, :k]
    sign = np.broadcast_to(_RIGHT_SIGN[:k, None, :k], index.shape)
    index, sign = index.reshape(k, k * m), sign.reshape(k, k * m)
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def _frames(k: int, rows: np.ndarray) -> np.ndarray:
    """(A, k, D) right multiples x e_c of the real frames x, rows (A, D)."""
    if k == 1:
        return rows[:, None, :]
    index, sign = _right_units(k, rows.shape[1] // k)
    return rows[:, index] * sign


def _products(k: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Components h[a, c, b] = (x_a e_c) . y_b of the inner products <x_a, y_b>.

    Rows are real frames over a base field of rank k. Only the left rows
    are expanded into their k right multiples; the right rows enter as
    they are.
    """
    framed = _frames(k, left).reshape(len(left) * k, -1)
    return (framed @ right.T).reshape(len(left), k, len(right))


def _modulus(h: np.ndarray) -> np.ndarray:
    """|<x, y>| from the components on axis -2 of h."""
    if h.shape[-2] == 1:
        return np.abs(h[..., 0, :])
    return np.sqrt(np.sum(h * h, axis=-2))


def _chord_sin_squares(spec: ManifoldSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """x = sin^2(s d) of the paired rows x of left and y of right, from the
    chord c = |x - y u| = 2 sin(d/2): c^2 / 4 on spheres, c^2 (1 - c^2 / 4) on
    the projective families.

    y u is y's representative aligned to x: u = conj(h) / |h| for
    h = <x, y>, the unit scalar (a sign on RP^n, a phase on CP^n, a unit
    quaternion on HP^n) that makes <x, y u> real and >= 0, formed pair by
    pair from the products of `_frames`. Near coincidence this keeps the
    digits that the cosine loses; <x, y> must not be 0.
    """
    if spec.family is Family.SPHERE:
        chord = left - right
    else:
        k = _FIELD_RANK[spec.family]
        h = np.einsum("acd,ad->ac", _frames(k, left), right)
        u = h * _CONJ_SIGN[:k] / _modulus(h[..., None])
        chord = left - np.einsum("ac,acd->ad", u, _frames(k, right))
    c2 = np.einsum("ad,ad->a", chord, chord)
    if spec.family is Family.SPHERE:
        return 0.25 * c2
    return c2 * (1.0 - 0.25 * c2)


@functools.cache
def _pair_constants(spec: ManifoldSpec) -> tuple[int, float]:
    """The field rank k and x = sin^2(s d) at the cosine `_CHORD_COSINE`,
    below which a pair takes its chord: once per manifold."""
    return _FIELD_RANK[spec.family], math.sin(_record(spec)[2] * math.acos(_CHORD_COSINE)) ** 2


@functools.lru_cache(maxsize=16)
def _upper_mask(rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) mask of c >= r, read-only and shared by the blocks of that shape."""
    mask = np.arange(cols)[None, :] >= np.arange(rows)[:, None]
    mask.flags.writeable = False
    return mask


def _pair_rows_cols(flat: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of positions in a row-major upper triangle of `width`
    columns, in which row r holds its columns r..width-1."""
    rows = np.arange(width)
    starts = rows * width - rows * (rows - 1) // 2
    r = np.searchsorted(starts, flat, side="right") - 1
    return r, flat - starts[r] + r


def _pair_sin_cos_squares(
    spec: ManifoldSpec, left: np.ndarray, right: np.ndarray, with_y: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, float]:
    """(h, pairs, x, y, least) of the pairs (r, c), c >= r, of the rows r of
    left and c of right, A <= B rows of real frames: h[r, :, c] the products
    of `_products`, left as they are, pairs the read-only (A, B) mask of
    c >= r (`_upper_mask`), the flat (x, y) = (sin^2(s d), cos^2(s d)) of the
    pairs, row by row, and least, the least x. y is None on spheres unless
    `with_y`; the projective families form it on the way to x.

    They come from the Gram entries: x = (1 - t)/2 and y = (1 + t)/2 from
    t = cos d on spheres, and y = sum_c h_c^2, x = 1 - y from the components
    h_c of <p, q> on the projective families. A pair past `_CHORD_COSINE`,
    where 1 - t keeps only half the digits, takes x from its chord
    (`_chord_sin_squares`) and y = 1 - x; such pairs are located from the
    flat index only when there are any. This function alone scans x: once
    for least, which tells whether there are any, and then, as every other
    x is at least the switch's, only the chord values.
    """
    k, x_close = _pair_constants(spec)
    h = _products(k, left, right)
    pairs = _upper_mask(len(left), len(right))
    if spec.family is Family.SPHERE:
        t = h[:, 0][pairs]
        x = t * -0.5
        x += 0.5
        y = t * 0.5 + 0.5 if with_y else None
    else:
        y = np.square(h[:, 0])
        for c in range(1, k):
            y += np.square(h[:, c])
        y = y[pairs]
        x = np.subtract(1.0, y)
    least = np.minimum.reduce(x)
    if least < x_close:
        close = np.flatnonzero(x < x_close)
        rows, cols = _pair_rows_cols(close, len(right))
        x[close] = chord = _chord_sin_squares(spec, left[rows], right[cols])
        if y is not None:
            y[close] = 1.0 - chord
        least = np.minimum.reduce(chord)
        if not least < x_close:  # every chord rounded up past the switch
            least = np.minimum.reduce(x)
    return h, pairs, x, y, float(least)


def _project_horizontal(frames: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row of v minus its components along every x e_c of the matching
    row x, given as its `_frames` (A, k, D): the part orthogonal to x's line."""
    return v - np.einsum("ac,acd->ad", np.einsum("acd,ad->ac", frames, v), frames)


def _geodesic_rows(rows: np.ndarray, units: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Each unit row x moved by its angle along the geodesic towards its
    horizontal unit direction u: cos(angle) x + sin(angle) u, rescaled to unit
    length. A zero direction leaves its row where it is."""
    moved = np.cos(angles)[:, None] * rows + np.sin(angles)[:, None] * units
    return moved / np.sqrt(np.add.reduce(moved * moved, axis=1))[:, None]


def quat_hermitian_inner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternionic Hermitian inner product sum_i conj(p_i) q_i.

    Arrays have shape (m, 4) in (w, x, y, z) layout; returns a length-4
    quaternion. Right-module convention; only the modulus is consumed by
    distances, which is convention independent.
    """
    return _products(4, np.reshape(p, (1, -1)), np.reshape(q, (1, -1)))[0, :, 0]


def _row_width(spec: ManifoldSpec) -> int:
    """Length k(n+1) of a real frame; the Cayley plane has none."""
    if spec.family is Family.CAYLEY_PLANE:
        raise UnsupportedManifoldError(
            "the Cayley plane has no point model; radial quantities only "
            "(use random_distance for radial statistics)"
        )
    return _FIELD_RANK[spec.family] * (spec.n + 1)


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """x . x for every row x, each from the BLAS dot a lone `x.dot(x)` takes."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _unit_rows(spec: ManifoldSpec, rows: np.ndarray) -> np.ndarray:
    """rows scaled to unit length. Every sampled and loaded configuration
    takes its bits from here, so CP^n keeps its own branch: its norms add
    the real and the imaginary parts' dot products, and it multiplies by
    the reciprocal norm, as numpy divides a complex array by a real."""
    if spec.family is Family.COMPLEX_PROJ:
        norms = np.sqrt(_row_dots(rows[:, 0::2]) + _row_dots(rows[:, 1::2]))
    else:
        norms = np.sqrt(_row_dots(rows))
    if not norms.all():
        raise DomainError("zero vector cannot represent a point")
    if not np.isfinite(norms).all():  # an inf or nan coordinate, before it reaches the division
        raise DomainError("every row must be a finite unit vector")
    if spec.family is Family.COMPLEX_PROJ:
        return rows * (1.0 / norms)[:, None]
    return rows / norms[:, None]


def _check_rows(spec: ManifoldSpec, rows: np.ndarray) -> None:
    """DomainError unless rows is a non-empty (N, D) array of unit real frames of spec."""
    width = _row_width(spec)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise DomainError(
            f"expected rows of {width} coordinates for {spec}, got shape {rows.shape}"
        )
    if not len(rows):
        raise DomainError("a configuration needs at least one point")
    norms = np.linalg.norm(rows, axis=1)
    if not (np.abs(norms - 1.0) <= 1e-12).all():
        raise DomainError("every row must be a finite unit vector")


class Configuration:
    """A finite set of points sharing one manifold, held as the read-only
    (N, D) array of their real frames."""

    __slots__ = ("spec", "_coords")

    def __init__(self, spec: ManifoldSpec, rows: np.ndarray):
        """The rows of `rows`, unit real frames of spec, copied and checked."""
        coords = np.array(rows, dtype=float)
        _check_rows(spec, coords)
        coords.flags.writeable = False
        self.spec, self._coords = spec, coords

    def __len__(self):
        return len(self._coords)

    def coords_array(self) -> np.ndarray:
        """(N, D) real frames of the points, one configuration-file row each (read-only)."""
        return self._coords


def distance(spec: ManifoldSpec, p: np.ndarray, q: np.ndarray) -> float:
    """Geodesic distance between the points of spec with real frames p and q.

    Each row must have the width k(n+1) of spec's real frames and unit
    norm within 1e-12. d = atan2(sqrt x, sqrt y) / s from the pair's
    (x, y) = (sin^2(s d), cos^2(s d)) of `_pair_sin_cos_squares`, which
    takes x from the chord of the phase-aligned representatives near
    coincidence: identical rows give exactly zero on S^n, RP^n and CP^n,
    and about 1e-16 on HP^n, where the rounded phase is not exactly 1.
    """
    rows = [np.asarray(v, dtype=float)[None] for v in (p, q)]
    for row in rows:
        _check_rows(spec, row)
    _, _, x, y, _ = _pair_sin_cos_squares(spec, *rows)
    # y falls below 0 by rounding only at the antipode of a sphere
    return math.atan2(math.sqrt(x[0]), math.sqrt(max(y[0], 0.0))) / _record(spec)[2]


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and rng < 0:
        raise DomainError(f"a seed must be a non-negative integer, got {rng}")
    return np.random.default_rng(rng)


def _size(size, what: str) -> int:
    """size as an int by `operator.index`, which Python and numpy integers
    pass; anything else raises DomainError naming it."""
    try:
        return operator.index(size)
    except TypeError:
        raise DomainError(f"{what} needs an integer size, got {size!r}") from None


def sample_uniform(spec: ManifoldSpec, rng, size: int) -> Configuration:
    """A `Configuration` of `size` independent points, uniform with respect
    to normalized Riemannian volume.

    Normalizes standard Gaussian vectors over the base field, which are
    rotation invariant and hence uniform on the sphere of representatives.
    The draws for `size` points are those of `size` calls of size 1, in turn.
    """
    width = _row_width(spec)
    gen = _as_generator(rng)
    count = _size(size, "sample_uniform")
    if count < 1:
        raise DomainError("a configuration needs at least one point")
    m, k = spec.n + 1, _FIELD_RANK[spec.family]
    if spec.family is Family.COMPLEX_PROJ:  # m real parts, then m imaginary parts
        raw = gen.standard_normal((count, 2, m)).swapaxes(1, 2)
    else:
        raw = gen.standard_normal((count, m, k))
    return Configuration(spec, _unit_rows(spec, raw.reshape(count, width)))


def random_distance(spec: ManifoldSpec, rng, size: int | None = None):
    """Distance of a uniform point from a fixed pole: density v(r)/V on [0, D], every family.

    x = sin^2(s r) ~ Beta(m, k) is g1 / (g1 + g2), g1 ~ Gamma(m) and g2 ~ Gamma(k)
    drawn in that order (Devroye, Non-Uniform Random Variate Generation, 1986,
    ch. IX), so r = atan2(sqrt(g1), sqrt(g2)) / s."""
    gen = _as_generator(rng)
    count = 1 if size is None else _size(size, "random_distance")
    if count < 0:
        raise DomainError(f"random_distance needs size >= 0, got {size}")
    m, k, s = _record(spec)
    out = np.arctan2(np.sqrt(gen.standard_gamma(m, count)), np.sqrt(gen.standard_gamma(k, count)))
    out /= s
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def save_configuration(config: Configuration, fh: TextIO) -> None:
    """Write a header line and one real frame per line, 17 significant digits."""
    spec, rows = config.spec, config.coords_array()
    template = " ".join(["%.17g"] * rows.shape[1])
    lines = [f"# manifold={spec.token} n={spec.n}"]
    lines += [template % tuple(row) for row in rows.tolist()]
    fh.write("\n".join(lines) + "\n")


def load_configuration(fh: TextIO) -> Configuration:
    """Read a configuration file; each row is scaled to unit length by `_unit_rows`."""
    header = fh.readline().strip()
    if not header.startswith("#"):
        raise DomainError("configuration file must start with '# manifold=<family> n=<n>'")
    fields = dict(
        kv.split("=", 1) for kv in header.lstrip("#").split() if "=" in kv
    )
    if "manifold" not in fields or "n" not in fields:
        raise DomainError(f"malformed configuration header: {header!r}")
    try:
        n = int(fields["n"])
    except ValueError as exc:
        raise DomainError(
            f"configuration header field n must be an integer, got {fields['n']!r}"
        ) from exc
    spec = ManifoldSpec.from_token(fields["manifold"], n)
    width = _row_width(spec)
    # the body in one pass: blank and comment lines dropped, the rest parsed
    # by numpy's C reader, which fails on a bad token or a ragged row
    lines = fh.read().split("\n")
    rows = [line for line in lines if line.strip()[:1] not in ("", "#")]
    if not rows:
        raise DomainError("configuration file contains no points")
    try:
        values = np.loadtxt(rows, comments=None, ndmin=2)
    except ValueError:
        # it takes fewer spellings than float(), such as '1_0'
        try:
            values = np.array([row.split() for row in rows], dtype=float)
        except ValueError:
            values = None
    if values is None or values.shape[1] != width:
        _raise_bad_line(lines, width, spec)
    return Configuration(spec, _unit_rows(spec, values))


def _raise_bad_line(lines: list[str], width: int, spec: ManifoldSpec) -> None:
    """Raise the `DomainError` naming the first body line (numbered from the
    header's 1) with a bad coordinate or the wrong number of them."""
    for line_no, line in enumerate(lines, start=2):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            [float(tok) for tok in tokens]
        except ValueError as exc:
            raise DomainError(f"bad coordinate on line {line_no}: {exc}") from exc
        if len(tokens) != width:
            raise DomainError(
                f"expected {width} coordinates per line for {spec}, "
                f"got {len(tokens)} on line {line_no}"
            )
