"""The five compact harmonic manifold families.

Covers the geometric inventory every other module consumes: dimensions,
diameters, volumes, radial volume densities, ball volumes, point models
with geodesic distance, uniform sampling, geodesic stepping and radial
distance sampling.

Jacobi records
--------------
Each family's radial geometry is one record (m, k, s): S^n (n/2, n/2, 1/2),
RP^n (n/2, 1/2, 1), CP^n (n, 1, 1), HP^n (2n, 2, 1) and OP^2 (8, 4, 1), with
v(r)/omega = s^(1-d) sin^(2m-1)(s r) cos^(2k-1)(s r), omega the area of the
unit (d-1)-sphere. Everything else derives from it: d = 2m, D = pi/(2s),
V/omega = B(m, k)/(2 s^d), V = pi^m Gamma(k)/(s^d Gamma(m+k)),
B_M = (V/omega)/(d-2), c_opt = (d V/omega)^(2/d), and V(a)/V = I_x(m, k),
x = sin^2(s a), or 1 - I_y(k, m), y = cos^2(s a), past the mean x = m/(m+k).
For s = 1 and integer k that is x^m D(y), D(y) = sum_(j<k) C(m+j-1, j) y^j.
V/omega and V are rationals times powers of pi, each rounded once; V raises
SingularityError where it is not a normal double.

Point model
-----------
A point of S^n or RP^n is a unit vector in R^(n+1), of CP^n a unit vector
in C^(n+1) and of HP^n a unit vector in H^(n+1) (on the projective
families a homogeneous representative: any right multiple by a unit
scalar names the same point). All geometry works on the real frame of
that vector: the row x in R^(k(n+1)), k = 1, 1, 2, 4, holding each
coordinate's real components (re, im or w, x, y, z) in turn, which is
exactly one line of a configuration file. Right multiplication by
e_c in {1, i, j, k} only permutes and negates the entries of x, so the k
components h_c = (x_p e_c) . x_q of the Hermitian inner product
<p, q> = sum conj(p_i) q_i come from one real matrix product for every
family. Distance is arccos of h_0 on the sphere and of |<p, q>| = ||h||
on the projective families, the normalization under which the radial
densities below hold; phase alignment and the horizontal projection are
built from the same products. A `Configuration` holds N points as the
(N, D) array of their real frames. The Cayley plane has no point model
here; all its radial quantities and radial sampling are fully supported.

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
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, TextIO

import numpy as np
from scipy.special import betainc, betaincinv

from .errors import DomainError, SingularityError, UnsupportedManifoldError
from .special_math import vol_unit_sphere

__all__ = [
    "Family",
    "ManifoldSpec",
    "Point",
    "Configuration",
    "RngSeed",
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
    "geodesic_step",
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


# (m, k, s) of each family: v(r)/omega = s^(1-d) sin^(2m-1)(s r) cos^(2k-1)(s r)
_RECORDS = {
    Family.SPHERE: lambda n: (n / 2, n / 2, 0.5),
    Family.REAL_PROJ: lambda n: (n / 2, 0.5, 1.0),
    Family.COMPLEX_PROJ: lambda n: (n, 1, 1.0),
    Family.QUAT_PROJ: lambda n: (2 * n, 2, 1.0),
    Family.CAYLEY_PLANE: lambda n: (8, 4, 1.0),
}


def _record(spec: ManifoldSpec) -> tuple[float, float, float]:
    """The Jacobi record (m, k, s) of the module docstring."""
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


def _pi_rational(pi_power, up, down, scale) -> float:
    """scale pi^pi_power prod Gamma(up) / prod Gamma(down), all in N/2, rounded once:
    a rational times pi^p, p an integer, with fl(pi)^p exact as a fraction and
    pi - fl(pi) = sin(fl(pi)) to within 1e-48."""
    q, half_powers = Fraction(scale), round(2 * pi_power)
    for sign, args in ((1, up), (-1, down)):
        for j, half in (divmod(round(2 * x), 2) for x in args):
            # Gamma(j) = (j-1)! and Gamma(j + 1/2) = sqrt(pi) (2j-1)!! / 2^j
            r = Fraction(math.prod(range(1, 2 * j, 2)), 2**j) if half else math.factorial(j - 1)
            q, half_powers = q * Fraction(r) ** sign, half_powers + sign * half
    p = half_powers // 2
    return float(q * Fraction(math.pi) ** p) * (1.0 + p * math.sin(math.pi) / math.pi)


@functools.lru_cache(maxsize=None)
def _volume_ratio(spec: ManifoldSpec) -> float:
    """V / omega = B(m, k) / (2 s^d), omega the area of the unit (d-1)-sphere."""
    m, k, s = _record(spec)
    return _pi_rational(0, (m, k), (m + k,), 1 / (2 * Fraction(s) ** dimension(spec)))


@functools.lru_cache(maxsize=None)
def volume(spec: ManifoldSpec) -> float:
    """Riemannian volume V = pi^m Gamma(k) / (s^d Gamma(m + k)); SingularityError
    where V is not a normal double (d of about 430 and up)."""
    m, k, s = _record(spec)
    V = _pi_rational(m, (k,), (m + k,), 1 / Fraction(s) ** dimension(spec))
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
    return _volume_ratio(spec) / (d - 2)


def _radii(spec: ManifoldSpec, r, what: str = "r") -> np.ndarray:
    """r as a float array, checked to lie in [0, D]."""
    r = np.asarray(r, dtype=float)
    if (r < 0.0).any() or (r > _radius_limit(spec)).any():
        raise DomainError(f"{what}={r} outside [0, {diameter(spec)}] for {spec}")
    return r


def _like(r: np.ndarray, values: np.ndarray):
    """values, computed on np.atleast_1d(r), as a float for a scalar r (a
    one-element array gets the bits of a batch; numpy's scalar power does not)."""
    return float(values[0]) if r.ndim == 0 else values


def _integer_record(spec: ManifoldSpec) -> tuple[int, int, tuple[int, ...]] | None:
    """(m, k, D) with V(a)/V = x^m D(y), x = sin^2(s a), y = cos^2(s a), D's coefficients
    ascending, where m and k are integers (S^(2j), CP^n, HP^n, OP^2), else None;
    d/dx (V(a)/V) = c' x^(m-1) (1-x)^(k-1) with c' = m D(1)."""
    m, k, _ = _record(spec)
    if m != int(m) or k != int(k):
        return None
    m, k = int(m), int(k)
    return m, k, tuple(math.comb(m + j - 1, j) for j in range(k))


def _ball_polynomial(spec: ManifoldSpec) -> tuple[int, int, tuple[int, ...]] | None:
    """`_integer_record` where s = 1 (CP^n, HP^n, OP^2), so that x = sin^2 a."""
    return _integer_record(spec) if _record(spec)[2] == 1.0 else None


def _ball_complement(m: int, k: int, d: tuple[int, ...]) -> list[int]:
    """q with 1 - x^m D(y) = y^k q(y), x = 1 - y: ascending integer coefficients in y."""
    rest = [1] + [0] * (m + len(d) - 1)
    for i in range(m + 1):
        for j, dj in enumerate(d):
            rest[i + j] -= (-1) ** i * math.comb(m, i) * dj
    if any(rest[:k]):
        raise AssertionError(f"1 - x^{m} D(y) does not vanish to order {k} at y = 0")
    return rest[k:]


def _recentre(coeffs: list[Fraction]) -> list[Fraction]:
    """The coefficients of c(1 - s) from those of c(s), exactly: in integers
    over the coefficients' common denominator."""
    den = math.lcm(*(Fraction(v).denominator for v in coeffs))
    out = [0] * len(coeffs)
    for i, ci in enumerate(int(v * den) for v in coeffs):
        if ci:
            for k in range(i + 1):
                out[k] += ci * math.comb(i, k) * (-1) ** k
    return [Fraction(v, den) for v in out]


def _mul(a: list, b: list) -> list[Fraction]:
    """The product of two coefficient lists of one length, cut to that length,
    exactly: in integers over the coefficients' common denominators."""
    dens = [math.lcm(*(Fraction(v).denominator for v in c)) for c in (a, b)]
    a, b = ([int(v * den) for v in c] for c, den in zip((a, b), dens))
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b[: len(a) - i] if ai else ()):
            out[i + j] += ai * bj
    return [Fraction(v, dens[0] * dens[1]) for v in out]


def _antiderivative(coeffs: list, j: int) -> tuple[list, Fraction]:
    """(G, b) such that G(s) / s^(j-1) + b log s is an antiderivative of c(s) / s^j."""
    return [0 if i == j - 1 else v / (i - j + 1) for i, v in enumerate(coeffs)], coeffs[j - 1]


def _sin_cos_squares(spec: ManifoldSpec, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) = (sin^2(s r), cos^2(s r)), each to full relative precision."""
    s = _record(spec)[2]
    return np.sin(s * r) ** 2, np.cos(s * r) ** 2


def _regularized_beta(p: float, q: float, t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I_t(p, q), I_u(q, p)) for t + u = 1: betainc in t up to the mean t = p / (p + q) and
    in u above it (at 0 it is free), so neither argument is taken as 1 minus the other."""
    above = t > p / (p + q)
    if not above.any():  # every t on one side: one call, the same bits
        return (lower := betainc(p, q, t)), 1.0 - lower
    if above.all():
        return 1.0 - (upper := betainc(q, p, u)), upper
    lower = betainc(p, q, np.where(above, 0.0, t))
    upper = betainc(q, p, np.where(above, u, 0.0))
    return np.where(above, 1.0 - upper, lower), np.where(above, upper, 1.0 - lower)


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
    """V(a)/V = I_x(m, k), x = sin^2(s a), for an array of radii."""
    m, k, _ = _record(spec)
    return _regularized_beta(m, k, *_sin_cos_squares(spec, np.asarray(a, dtype=float)))[0]


# ---------------------------------------------------------------------------
# Points, distances and sampling
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
# above this cosine a distance is taken from the chord, not from arccos
_CHORD_COSINE = 0.99


def _is_point_family(family: Family) -> bool:
    return family is not Family.CAYLEY_PLANE


@functools.lru_cache(maxsize=None)
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


def _cosines(spec: ManifoldSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(A, B) cosines of the distances between two stacks of real frames."""
    h = _products(_FIELD_RANK[spec.family], left, right)
    return h[:, 0] if spec.family is Family.SPHERE else _modulus(h)


def _aligned(spec: ManifoldSpec, x: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Representatives y u of the rows y of others with <x, y u> real and >= 0.

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


def _chord_squares(spec: ManifoldSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """|x - y u|^2 for the paired rows x of left and y of right.

    y u is y's representative aligned to x (see `_aligned`), formed pair
    by pair from the products of `_frames`. Near coincidence this keeps
    the digits that the cosine loses; <x, y> must not be 0.
    """
    if spec.family is Family.SPHERE:
        chord = left - right
    else:
        k = _FIELD_RANK[spec.family]
        h = np.einsum("acd,ad->ac", _frames(k, left), right)
        u = h * _CONJ_SIGN[:k] / _modulus(h[..., None])
        chord = left - np.einsum("ac,acd->ad", u, _frames(k, right))
    return np.einsum("ad,ad->a", chord, chord)


def _chord_distances(spec: ManifoldSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Distances between the paired rows of left and right, 2 asin(|x - y u| / 2)
    from `_chord_squares`."""
    half = 0.5 * np.sqrt(_chord_squares(spec, left, right))
    return 2.0 * np.arcsin(np.minimum(half, 1.0))


def _project_horizontal(spec: ManifoldSpec, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row of v minus its components along every x e_c of the matching
    row x of rows: the part orthogonal to x's line."""
    frames = _frames(_FIELD_RANK[spec.family], rows)
    return v - np.einsum("ac,acd->ad", np.einsum("acd,ad->ac", frames, v), frames)


def _geodesic_rows(rows: np.ndarray, directions: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Each unit row x moved by its angle along the geodesic towards its
    horizontal direction g: cos(angle) x + sin(angle) g / |g|, rescaled to unit
    length. A zero direction leaves its row where it is."""
    lengths = np.linalg.norm(directions, axis=1)
    unit = directions / np.where(lengths > 0.0, lengths, 1.0)[:, None]
    moved = np.cos(angles)[:, None] * rows + np.sin(angles)[:, None] * unit
    return moved / np.linalg.norm(moved, axis=1)[:, None]


def quat_hermitian_inner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternionic Hermitian inner product sum_i conj(p_i) q_i.

    Arrays have shape (m, 4) in (w, x, y, z) layout; returns a length-4
    quaternion. Right-module convention; only the modulus is consumed by
    distances, which is convention independent.
    """
    return _products(4, np.reshape(p, (1, -1)), np.reshape(q, (1, -1)))[0, :, 0]


@dataclass(frozen=True, eq=False)
class Point:
    """A point given by a unit representative vector over the base field.

    coords is float (n+1,) for sphere/real projective, complex (n+1,) for
    complex projective and float (n+1, 4) for quaternionic projective.
    Distances and steps use its real frame, the row of k(n+1) reals
    (k = 1, 1, 2, 4) that `_flatten_coords` returns and a configuration
    file stores, together with the frame's right multiples by 1, i, j, k.
    Treated as immutable; do not mutate coords in place.
    """

    spec: ManifoldSpec
    coords: np.ndarray

    def __post_init__(self):
        if not _is_point_family(self.spec.family):
            raise UnsupportedManifoldError(
                "the Cayley plane has no point model; radial quantities only"
            )
        expected = _coords_shape(self.spec)
        if self.coords.shape != expected:
            raise DomainError(
                f"coords shape {self.coords.shape} does not match {expected} for {self.spec}"
            )
        nrm = float(np.linalg.norm(self.coords))
        if abs(nrm - 1.0) > 1e-12:
            raise DomainError(f"representative vector must be unit norm, got {nrm!r}")


def _coords_shape(spec: ManifoldSpec) -> tuple:
    m = spec.n + 1
    return (m, 4) if spec.family is Family.QUAT_PROJ else (m,)


def _row_width(spec: ManifoldSpec) -> int:
    """Length k(n+1) of a real frame; the Cayley plane has none."""
    if not _is_point_family(spec.family):
        raise UnsupportedManifoldError(
            "the Cayley plane has no point model; radial quantities only"
        )
    return _FIELD_RANK[spec.family] * (spec.n + 1)


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """x . x for every row x, each from the BLAS dot a lone `x.dot(x)` takes."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _unit_rows(spec: ManifoldSpec, rows: np.ndarray) -> np.ndarray:
    """rows scaled to unit length, each with the bits its Point-shaped coords
    get from division by np.linalg.norm: the same dot products, and for
    complex coords a product with the reciprocal, which is how numpy divides
    a complex array by a real."""
    if spec.family is Family.COMPLEX_PROJ:
        norms = np.sqrt(_row_dots(rows[:, 0::2]) + _row_dots(rows[:, 1::2]))
    else:
        norms = np.sqrt(_row_dots(rows))
    if not norms.all():
        raise DomainError("zero vector cannot represent a point")
    if spec.family is Family.COMPLEX_PROJ:
        return rows * (1.0 / norms)[:, None]
    return rows / norms[:, None]


class Configuration:
    """A finite set of points sharing one manifold, held as the (N, D) array
    of their real frames.

    `Configuration(spec, points)` takes `Point`s and `from_array` takes the
    rows directly; `Point`s are built only on request (`points`, iteration).
    """

    __slots__ = ("spec", "_coords")

    def __init__(self, spec: ManifoldSpec, points: Iterable[Point]):
        points = list(points)
        if not points:
            raise DomainError("a configuration needs at least one point")
        for p in points:
            if p.spec != spec:
                raise DomainError("all points must share the configuration's manifold")
        self.spec = spec
        self._coords = np.stack([_flatten_coords(spec, p.coords) for p in points])
        self._coords.flags.writeable = False

    @classmethod
    def from_array(cls, spec: ManifoldSpec, coords: np.ndarray) -> "Configuration":
        """Configuration of the rows of coords, unit real frames (copied)."""
        coords = np.array(coords, dtype=float)
        width = _row_width(spec)
        if coords.ndim != 2 or coords.shape[1] != width:
            raise DomainError(
                f"expected rows of {width} coordinates for {spec}, got shape {coords.shape}"
            )
        if not len(coords):
            raise DomainError("a configuration needs at least one point")
        norms = np.linalg.norm(coords, axis=1)
        if not (np.abs(norms - 1.0) <= 1e-12).all():
            raise DomainError("every row must be a finite unit vector")
        coords.flags.writeable = False
        config = cls.__new__(cls)
        config.spec, config._coords = spec, coords
        return config

    def __len__(self):
        return len(self._coords)

    def __iter__(self):
        return iter(self.points)

    @property
    def points(self) -> list[Point]:
        return [Point(self.spec, _unflatten_coords(self.spec, x)) for x in self._coords]

    def coords_array(self) -> np.ndarray:
        """(N, D) real frames of the points, one configuration-file row each (read-only)."""
        return self._coords


def distance(p: Point, q: Point) -> float:
    """Geodesic distance between two points of the same manifold.

    Near coincidence the arccos form loses half the digits, so the chord
    of the phase-aligned representatives takes over there; identical
    representatives give exactly zero.
    """
    if p.spec != q.spec:
        raise DomainError(f"points live on different manifolds: {p.spec} vs {q.spec}")
    x, y = _flatten_coords(p.spec, p.coords), _flatten_coords(q.spec, q.coords)
    c = float(_cosines(p.spec, x[None], y[None])[0, 0])
    if c > _CHORD_COSINE:
        return float(_chord_distances(p.spec, x[None], y[None])[0])
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class RngSeed:
    """Seed wrapper guaranteeing reproducible sample streams."""

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")

    def generator(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSeed):
        return rng.generator()
    if isinstance(rng, (int, np.integer)) and rng < 0:
        raise DomainError(f"a seed must be a non-negative integer, got {rng}")
    return np.random.default_rng(rng)


def sample_uniform(spec: ManifoldSpec, rng, size: int | None = None):
    """Uniform point with respect to normalized Riemannian volume, or a
    `Configuration` of `size` independent ones.

    Normalizes a standard Gaussian vector over the base field, which is
    rotation invariant and hence uniform on the sphere of representatives.
    The draws for `size` points are those of `size` single calls, in turn.
    """
    if not _is_point_family(spec.family):
        raise UnsupportedManifoldError(
            "uniform point sampling is unavailable on the Cayley plane; "
            "use random_distance for radial statistics"
        )
    gen = _as_generator(rng)
    count = 1 if size is None else int(size)
    m, k = spec.n + 1, _FIELD_RANK[spec.family]
    if spec.family is Family.COMPLEX_PROJ:  # m real parts, then m imaginary parts
        raw = gen.standard_normal((count, 2, m)).swapaxes(1, 2)
    else:
        raw = gen.standard_normal((count, m, k))
    rows = _unit_rows(spec, raw.reshape(count, k * m))
    if size is None:
        return Point(spec, _unflatten_coords(spec, rows[0]))
    return Configuration.from_array(spec, rows)


def geodesic_step(p: Point, tangent_direction: np.ndarray, t: float) -> Point:
    """Point at arclength t along the geodesic from p in the given direction.

    The direction is projected onto the horizontal space at p (orthogonal
    to the full base-field line through p) and normalized before stepping,
    so slightly non-horizontal inputs are accepted.
    """
    spec = p.spec
    if abs(t) > _radius_limit(spec):
        raise DomainError(f"|t|={abs(t)} exceeds the diameter {diameter(spec)}")
    v = np.asarray(tangent_direction)
    if v.shape != p.coords.shape:
        raise DomainError("tangent direction has wrong shape")
    x = _flatten_coords(spec, p.coords)[None]
    u = _project_horizontal(spec, x, _flatten_coords(spec, v)[None])
    if float(np.linalg.norm(u)) < 1e-14:
        raise DomainError("tangent direction is degenerate after horizontal projection")
    return Point(spec, _unflatten_coords(spec, _geodesic_rows(x, u, np.array([t]))[0]))


def random_distance(spec: ManifoldSpec, rng, size: int | None = None):
    """Distance of a uniform point from a fixed pole: density v(r)/V on [0, D], every family.

    u = V(r)/V = I_x(m, k) is inverted by betaincinv in x = sin^2(s r), or where
    x > 1/2 in y = cos^2(s r) on the mirrored record, I_y(k, m) = 1 - u."""
    gen = _as_generator(rng)
    u = gen.random(1 if size is None else int(size))
    m, k, s = _record(spec)
    out = np.arcsin(np.sqrt(betaincinv(m, k, u)))
    far = out > 0.25 * np.pi
    out[far] = np.arccos(np.sqrt(betaincinv(k, m, 1.0 - u[far])))
    out /= s
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def _flatten_coords(spec: ManifoldSpec, coords: np.ndarray) -> np.ndarray:
    """Real frame of Point-shaped coords: each coordinate's (re, im) or (w, x, y, z) in turn."""
    dtype = complex if spec.family is Family.COMPLEX_PROJ else float
    return np.ascontiguousarray(coords, dtype=dtype).view(float).ravel()


def _unflatten_coords(spec: ManifoldSpec, row: np.ndarray) -> np.ndarray:
    """Point-shaped coords of a real frame; inverse of `_flatten_coords`."""
    expected = _row_width(spec)
    if row.size != expected:
        raise DomainError(f"expected {expected} coordinates per line for {spec}, got {row.size}")
    dtype = complex if spec.family is Family.COMPLEX_PROJ else float
    return np.ascontiguousarray(row, dtype=float).view(dtype).reshape(_coords_shape(spec))


def save_configuration(points: Configuration | Iterable[Point], fh: TextIO) -> None:
    """Write a header line and one real frame per line, 17 significant digits."""
    if not isinstance(points, Configuration):
        points = list(points)
        if not points:
            raise DomainError("cannot save an empty configuration")
        points = Configuration(points[0].spec, points)
    spec = points.spec
    lines = [f"# manifold={spec.token} n={spec.n}"]
    lines += [" ".join(f"{x:.17g}" for x in row) for row in points.coords_array().tolist()]
    fh.write("\n".join(lines) + "\n")


def load_configuration(fh: TextIO) -> Configuration:
    """Read a configuration file; each row is scaled to unit length as a `Point` is."""
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
    return Configuration.from_array(spec, _unit_rows(spec, values))


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
