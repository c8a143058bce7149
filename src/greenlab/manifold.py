"""The five compact harmonic manifold families.

Covers the geometric inventory every other module consumes: dimensions,
diameters, volumes, radial volume densities, ball volumes, point models
with geodesic distance, uniform sampling, geodesic stepping and radial
distance sampling.

Point model
-----------
Sphere and real projective points are unit vectors in R^(n+1); complex
and quaternionic projective points are unit vectors in C^(n+1) and
H^(n+1) (homogeneous representatives, any unit scalar multiple names the
same point). Distance is arccos of the inner product (sphere) or of the
modulus of the Hermitian inner product (projective families), which is
the normalization under which the radial densities below hold. The
Cayley plane has no point model here; all its radial quantities and
radial sampling are fully supported.

Configuration file format
-------------------------
One point per line, whitespace-separated decimal reals, preceded by a
header line ``# manifold=<family> n=<n>``. Real families store n+1
coordinates per line, complex ones 2(n+1) (interleaved re, im), and
quaternionic ones 4(n+1) (w, x, y, z per coordinate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, TextIO

import numpy as np
from scipy.special import betainc as _betainc_vec

from .errors import DomainError, UnsupportedManifoldError
from .special_math import log_gamma, reg_incomplete_beta, vol_unit_sphere

__all__ = [
    "Family",
    "ManifoldSpec",
    "Point",
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


def dimension(spec: ManifoldSpec) -> int:
    """Real dimension d."""
    if spec.family in (Family.SPHERE, Family.REAL_PROJ):
        return spec.n
    if spec.family is Family.COMPLEX_PROJ:
        return 2 * spec.n
    if spec.family is Family.QUAT_PROJ:
        return 4 * spec.n
    return 16


def diameter(spec: ManifoldSpec) -> float:
    """Maximal geodesic distance D."""
    return math.pi if spec.family is Family.SPHERE else math.pi / 2.0


def volume(spec: ManifoldSpec) -> float:
    """Riemannian volume of the manifold."""
    n = spec.n
    if spec.family is Family.SPHERE:
        return 2.0 * math.exp(0.5 * (n + 1) * math.log(math.pi) - log_gamma(0.5 * (n + 1)))
    if spec.family is Family.REAL_PROJ:
        return math.exp(0.5 * (n + 1) * math.log(math.pi) - log_gamma(0.5 * (n + 1)))
    if spec.family is Family.COMPLEX_PROJ:
        return math.exp(n * math.log(math.pi) - log_gamma(n + 1))
    if spec.family is Family.QUAT_PROJ:
        return math.exp(2 * n * math.log(math.pi) - log_gamma(2 * n + 2))
    return math.pi**8 / (1320.0 * math.factorial(7))


def bm_constant(spec: ManifoldSpec) -> float:
    """Coefficient of the d_R^(2-d) singularity of V*G near the diagonal (d > 2 only)."""
    d = dimension(spec)
    if d <= 2:
        raise UnsupportedManifoldError(
            f"the near-diagonal power coefficient needs d > 2, got d={d} for {spec}"
        )
    n = spec.n
    if spec.family is Family.SPHERE:
        return math.sqrt(math.pi) * math.gamma(0.5 * n) / ((n - 2) * math.gamma(0.5 * (n + 1)))
    if spec.family is Family.REAL_PROJ:
        return math.sqrt(math.pi) * math.gamma(0.5 * n - 1.0) / (4.0 * math.gamma(0.5 * (n + 1)))
    if spec.family is Family.COMPLEX_PROJ:
        return 1.0 / (4.0 * n * (n - 1))
    if spec.family is Family.QUAT_PROJ:
        return 1.0 / (8.0 * n * (4 * n * n - 1))
    return 1.0 / 36960.0


def _check_radius(spec: ManifoldSpec, r: float, what: str = "r") -> None:
    if r < 0.0 or r > diameter(spec) * (1.0 + 1e-12):
        raise DomainError(f"{what}={r} outside [0, {diameter(spec)}] for {spec}")


def radial_density(spec: ManifoldSpec, r: float) -> float:
    """Radial integration weight r^(d-1) * Omega(r)."""
    _check_radius(spec, r)
    n = spec.n
    if spec.family in (Family.SPHERE, Family.REAL_PROJ):
        return math.sin(r) ** (n - 1)
    if spec.family is Family.COMPLEX_PROJ:
        return math.sin(r) ** (2 * n - 1) * math.cos(r)
    if spec.family is Family.QUAT_PROJ:
        return math.sin(r) ** (4 * n - 1) * math.cos(r) ** 3
    return math.sin(r) ** 15 * math.cos(r) ** 7


def sphere_area(spec: ManifoldSpec, a: float) -> float:
    """(d-1)-volume v(a) of the geodesic sphere of radius a."""
    return vol_unit_sphere(dimension(spec)) * radial_density(spec, a)


def _cayley_poly(sin_sq: float) -> float:
    """165 - 440 S^2 + 396 S^4 - 120 S^6 with S^2 = sin_sq."""
    return 165.0 + sin_sq * (-440.0 + sin_sq * (396.0 - 120.0 * sin_sq))


def ball_volume(spec: ManifoldSpec, a: float) -> float:
    """Volume V(a) of a geodesic ball of radius a, by the closed forms."""
    _check_radius(spec, a, "a")
    n = spec.n
    if spec.family is Family.SPHERE:
        s = math.sin(0.5 * a) ** 2
        return volume(spec) * reg_incomplete_beta(s, 0.5 * n, 0.5 * n)
    if spec.family is Family.REAL_PROJ:
        s = math.sin(0.5 * a) ** 2
        return 2.0 * volume(spec) * reg_incomplete_beta(min(s, 0.5), 0.5 * n, 0.5 * n)
    if spec.family is Family.COMPLEX_PROJ:
        return volume(spec) * math.sin(a) ** (2 * n)
    if spec.family is Family.QUAT_PROJ:
        c2 = math.cos(a) ** 2
        return volume(spec) * (1.0 + 2 * n * c2) * math.sin(a) ** (4 * n)
    s2 = math.sin(a) ** 2
    return volume(spec) * _cayley_poly(s2) * math.sin(a) ** 16


def ball_volume_fraction(spec: ManifoldSpec, a: np.ndarray) -> np.ndarray:
    """V(a)/V for an array of radii (vectorized closed forms)."""
    a = np.asarray(a, dtype=float)
    n = spec.n
    if spec.family is Family.SPHERE:
        return _betainc_vec(0.5 * n, 0.5 * n, np.sin(0.5 * a) ** 2)
    if spec.family is Family.REAL_PROJ:
        s = np.minimum(np.sin(0.5 * a) ** 2, 0.5)
        return 2.0 * _betainc_vec(0.5 * n, 0.5 * n, s)
    if spec.family is Family.COMPLEX_PROJ:
        return np.sin(a) ** (2 * n)
    if spec.family is Family.QUAT_PROJ:
        return (1.0 + 2 * n * np.cos(a) ** 2) * np.sin(a) ** (4 * n)
    return _cayley_poly(np.sin(a) ** 2) * np.sin(a) ** 16


# ---------------------------------------------------------------------------
# Points, distances and sampling
# ---------------------------------------------------------------------------


def _is_point_family(family: Family) -> bool:
    return family is not Family.CAYLEY_PLANE


def quat_hermitian_inner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternionic Hermitian inner product sum_i conj(p_i) q_i.

    Arrays have shape (m, 4) in (w, x, y, z) layout; returns a length-4
    quaternion. Right-module convention; only the modulus is consumed by
    distances, which is convention independent.
    """
    pw, px, py, pz = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    qw, qx, qy, qz = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.array(
        [
            np.sum(pw * qw + px * qx + py * qy + pz * qz),
            np.sum(pw * qx - px * qw - py * qz + pz * qy),
            np.sum(pw * qy - py * qw - pz * qx + px * qz),
            np.sum(pw * qz - pz * qw - px * qy + py * qx),
        ]
    )


def _quat_scale(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Right-multiply every quaternionic coordinate of p (shape (m,4)) by u."""
    pw, px, py, pz = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    uw, ux, uy, uz = u
    return np.stack(
        [
            pw * uw - px * ux - py * uy - pz * uz,
            pw * ux + px * uw + py * uz - pz * uy,
            pw * uy + py * uw + pz * ux - px * uz,
            pw * uz + pz * uw + px * uy - py * ux,
        ],
        axis=1,
    )


@dataclass(frozen=True, eq=False)
class Point:
    """A point given by a unit representative vector over the base field.

    coords is float (n+1,) for sphere/real projective, complex (n+1,) for
    complex projective and float (n+1, 4) for quaternionic projective.
    Treated as immutable; do not mutate coords in place.
    """

    spec: ManifoldSpec
    coords: np.ndarray

    def __post_init__(self):
        if not _is_point_family(self.spec.family):
            raise UnsupportedManifoldError(
                "the Cayley plane has no point model; radial quantities only"
            )
        expected = self._expected_shape()
        if self.coords.shape != expected:
            raise DomainError(
                f"coords shape {self.coords.shape} does not match {expected} for {self.spec}"
            )
        nrm = float(np.linalg.norm(self.coords))
        if abs(nrm - 1.0) > 1e-12:
            raise DomainError(f"representative vector must be unit norm, got {nrm!r}")

    def _expected_shape(self) -> tuple:
        m = self.spec.n + 1
        if self.spec.family is Family.QUAT_PROJ:
            return (m, 4)
        return (m,)


def _make_point(spec: ManifoldSpec, raw: np.ndarray) -> Point:
    nrm = float(np.linalg.norm(raw))
    if nrm == 0.0:
        raise DomainError("zero vector cannot represent a point")
    return Point(spec, raw / nrm)


def _inner_modulus(p: Point, q: Point) -> float:
    fam = p.spec.family
    if fam in (Family.SPHERE, Family.REAL_PROJ):
        val = float(np.dot(p.coords, q.coords))
        return val if fam is Family.SPHERE else abs(val)
    if fam is Family.COMPLEX_PROJ:
        return abs(complex(np.vdot(p.coords, q.coords)))
    return float(np.linalg.norm(quat_hermitian_inner(p.coords, q.coords)))


def _aligned_chord(p: Point, q: Point) -> float:
    """Norm of q - p after rotating q's representative onto p's phase."""
    fam = p.spec.family
    if fam is Family.SPHERE:
        diff = q.coords - p.coords
    elif fam is Family.REAL_PROJ:
        sign = 1.0 if float(np.dot(p.coords, q.coords)) >= 0.0 else -1.0
        diff = sign * q.coords - p.coords
    elif fam is Family.COMPLEX_PROJ:
        h = complex(np.vdot(p.coords, q.coords))
        phase = h.conjugate() / abs(h) if h != 0 else 1.0
        diff = q.coords * phase - p.coords
    else:
        h = quat_hermitian_inner(p.coords, q.coords)
        mod = float(np.linalg.norm(h))
        if mod == 0.0:
            diff = q.coords - p.coords
        else:
            u = np.array([h[0], -h[1], -h[2], -h[3]]) / mod
            diff = _quat_scale(q.coords, u) - p.coords
    return float(np.linalg.norm(diff))


def distance(p: Point, q: Point) -> float:
    """Geodesic distance between two points of the same manifold.

    Near coincidence the arccos form loses half the digits, so the chord
    of the phase-aligned representatives takes over there; identical
    representatives give exactly zero.
    """
    if p.spec != q.spec:
        raise DomainError(f"points live on different manifolds: {p.spec} vs {q.spec}")
    c = _inner_modulus(p, q)
    if c > 0.99:
        half = 0.5 * _aligned_chord(p, q)
        return 2.0 * math.asin(min(1.0, half))
    c = min(1.0, max(-1.0, c))
    return math.acos(c)


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
    return np.random.default_rng(rng)


def sample_uniform(spec: ManifoldSpec, rng) -> Point:
    """Uniform point with respect to normalized Riemannian volume.

    Normalizes a standard Gaussian vector over the base field, which is
    rotation invariant and hence uniform on the sphere of representatives.
    """
    if not _is_point_family(spec.family):
        raise UnsupportedManifoldError(
            "uniform point sampling is unavailable on the Cayley plane; "
            "use random_distance for radial statistics"
        )
    gen = _as_generator(rng)
    m = spec.n + 1
    if spec.family in (Family.SPHERE, Family.REAL_PROJ):
        raw = gen.standard_normal(m)
    elif spec.family is Family.COMPLEX_PROJ:
        raw = gen.standard_normal(m) + 1j * gen.standard_normal(m)
    else:
        raw = gen.standard_normal((m, 4))
    return _make_point(spec, raw)


def _project_horizontal(spec: ManifoldSpec, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    fam = spec.family
    if fam in (Family.SPHERE, Family.REAL_PROJ):
        return v - np.dot(p, v) * p
    if fam is Family.COMPLEX_PROJ:
        return v - complex(np.vdot(p, v)) * p
    s = quat_hermitian_inner(p, v)
    return v - _quat_scale(p, s)


def geodesic_step(p: Point, tangent_direction: np.ndarray, t: float) -> Point:
    """Point at arclength t along the geodesic from p in the given direction.

    The direction is projected onto the horizontal space at p (orthogonal
    to the full base-field line through p) and normalized before stepping,
    so slightly non-horizontal inputs are accepted.
    """
    spec = p.spec
    if abs(t) > diameter(spec) * (1.0 + 1e-12):
        raise DomainError(f"|t|={abs(t)} exceeds the diameter {diameter(spec)}")
    v = np.asarray(tangent_direction)
    if v.shape != p.coords.shape:
        raise DomainError("tangent direction has wrong shape")
    u = _project_horizontal(spec, p.coords, v.astype(p.coords.dtype, copy=False))
    nrm = float(np.linalg.norm(u))
    if nrm < 1e-14:
        raise DomainError("tangent direction is degenerate after horizontal projection")
    u = u / nrm
    stepped = math.cos(t) * p.coords + math.sin(t) * u
    return _make_point(spec, stepped)


def random_distance(spec: ManifoldSpec, rng, size: int | None = None):
    """Distance of a uniform point from a fixed pole: density v(r)/V on [0, D].

    Inverse-CDF sampling via monotone bisection on V(a)/V; works for every
    family including the Cayley plane.
    """
    gen = _as_generator(rng)
    m = 1 if size is None else int(size)
    u = gen.random(m)
    lo = np.zeros(m)
    hi = np.full(m, diameter(spec))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = ball_volume_fraction(spec, mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out[0]) if size is None else out


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def _flatten_coords(p: Point) -> np.ndarray:
    if p.spec.family is Family.COMPLEX_PROJ:
        flat = np.empty(2 * p.coords.size)
        flat[0::2] = p.coords.real
        flat[1::2] = p.coords.imag
        return flat
    return np.asarray(p.coords, dtype=float).ravel()


def _unflatten_coords(spec: ManifoldSpec, row: np.ndarray) -> np.ndarray:
    m = spec.n + 1
    if spec.family in (Family.SPHERE, Family.REAL_PROJ):
        expected = m
    elif spec.family is Family.COMPLEX_PROJ:
        expected = 2 * m
    else:
        expected = 4 * m
    if row.size != expected:
        raise DomainError(f"expected {expected} coordinates per line for {spec}, got {row.size}")
    if spec.family is Family.COMPLEX_PROJ:
        return row[0::2] + 1j * row[1::2]
    if spec.family is Family.QUAT_PROJ:
        return row.reshape(m, 4)
    return row


def save_configuration(points: Iterable[Point], fh: TextIO) -> None:
    pts = list(points)
    if not pts:
        raise DomainError("cannot save an empty configuration")
    spec = pts[0].spec
    fh.write(f"# manifold={spec.token} n={spec.n}\n")
    for p in pts:
        if p.spec != spec:
            raise DomainError("all points must share one manifold")
        fh.write(" ".join(f"{x:.17g}" for x in _flatten_coords(p)) + "\n")


def load_configuration(fh: TextIO) -> list[Point]:
    header = fh.readline().strip()
    if not header.startswith("#"):
        raise DomainError("configuration file must start with '# manifold=<family> n=<n>'")
    fields = dict(
        kv.split("=", 1) for kv in header.lstrip("#").split() if "=" in kv
    )
    if "manifold" not in fields or "n" not in fields:
        raise DomainError(f"malformed configuration header: {header!r}")
    spec = ManifoldSpec.from_token(fields["manifold"], int(fields["n"]))
    points = []
    for line_no, line in enumerate(fh, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = np.array([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise DomainError(f"bad coordinate on line {line_no}: {exc}") from exc
        points.append(_make_point(spec, _unflatten_coords(spec, row)))
    if not points:
        raise DomainError("configuration file contains no points")
    return points
