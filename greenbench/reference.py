"""Reference computations for the benchmark's correctness checks.

Uses numpy and scipy only and never imports greenlab, so a check built on
these numbers is independent of the program it checks. Everything starts
from each family's textbook volume data: the total volume V, the geodesic
ball volume V(a) and the geodesic sphere area v(a) = V'(a). From those:

    psi(s)   = (V - V(s)) / v(s)
    phi(r)   = (phi_hat(r) + c_m) / V,   phi_hat(r) = int_r^D psi(s) ds,
    c_m      = -(1/V) int_0^D V(s) psi(s) ds          (mean-zero Green function)
    K(M, a)  = (1/(V V(a))) int_0^a V(u) (V(a) - V(u)) / v(u) du
    Theta(M, a) = phi(a) + (1/(V V(a))) int_0^a V(r) psi(r) dr
    bound(N, a) = N (1 - 2N + V/V(a)) K(M, a) - N Theta(M, a)

c_m and the Theta tail follow from integrating by parts, which leaves
single integrals with smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

FAMILIES = ("s", "rp", "cp", "hp", "op2")


def _quad(f, lo: float, hi: float) -> float:
    """Adaptive quadrature of f over [lo, hi] to 1e-13 relative."""
    # scipy.integrate is imported here, not at the top: the benchmark's
    # set-up writes its inputs with this module, and its set-up time is
    # meant to hold greenlab's imports, not the reference's (about 0.4 s)
    from scipy import integrate

    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]

# Gauss-Legendre rule for the table increments (in the log variable)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)


def _sphere_area(k: int) -> float:
    """Area of the unit (k-1)-sphere in R^k."""
    return 2.0 * math.pi ** (0.5 * k) / math.gamma(0.5 * k)


def _cayley_complement_poly() -> np.polynomial.Polynomial:
    # 1 - (1-c)^8 (165 - 440 (1-c) + 396 (1-c)^2 - 120 (1-c)^3) in c = cos^2 a,
    # expanded with exact small-integer coefficients; orders 0..3 vanish
    P = np.polynomial.Polynomial
    s = P([1.0, -1.0])
    return 1.0 - s**8 * (165.0 - 440.0 * s + 396.0 * s**2 - 120.0 * s**3)


_CAYLEY_TAIL = _cayley_complement_poly()


@dataclass(frozen=True)
class Manifold:
    """One compact harmonic manifold: family token in FAMILIES and its n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "op2" and self.n != 2:
            raise ValueError("the Cayley plane has n = 2")

    def __str__(self):
        return f"{self.family}{self.n}"

    @property
    def d(self) -> int:
        return {"s": 1, "rp": 1, "cp": 2, "hp": 4, "op2": 8}[self.family] * self.n

    @property
    def D(self) -> float:
        return math.pi if self.family == "s" else 0.5 * math.pi

    @property
    def V(self) -> float:
        n = self.n
        if self.family == "s":
            return _sphere_area(n + 1)
        if self.family == "rp":
            return 0.5 * _sphere_area(n + 1)
        if self.family == "cp":
            return math.pi**n / math.factorial(n)
        if self.family == "hp":
            return math.pi ** (2 * n) / math.factorial(2 * n + 1)
        return 6.0 * math.pi**8 / math.factorial(11)

    # -- volume data ---------------------------------------------------------

    def area(self, a):
        """v(a), the area of the geodesic sphere of radius a."""
        a = np.asarray(a, dtype=float)
        s, c = np.sin(a), np.cos(a)
        front = _sphere_area(self.d)
        if self.family in ("s", "rp"):
            return front * s ** (self.n - 1)
        if self.family == "cp":
            return front * s ** (2 * self.n - 1) * c
        if self.family == "hp":
            return front * s ** (4 * self.n - 1) * c**3
        return front * s**15 * c**7

    def ball(self, a):
        """V(a), the volume of the geodesic ball of radius a."""
        a = np.asarray(a, dtype=float)
        n = self.n
        if self.family == "s":
            return self.V * special.betainc(0.5 * n, 0.5 * n, np.sin(0.5 * a) ** 2)
        if self.family == "rp":
            return 2.0 * self.V * special.betainc(0.5 * n, 0.5 * n, np.sin(0.5 * a) ** 2)
        s2 = np.sin(a) ** 2
        if self.family == "cp":
            return self.V * s2**n
        if self.family == "hp":
            return self.V * (1.0 + 2 * n * np.cos(a) ** 2) * s2 ** (2 * n)
        return self.V * s2**8 * (165.0 + s2 * (-440.0 + s2 * (396.0 - 120.0 * s2)))

    def complement(self, a):
        """V - V(a), evaluated without cancellation near a = D."""
        a = np.asarray(a, dtype=float)
        n = self.n
        if self.family == "s":
            return self.V * special.betainc(0.5 * n, 0.5 * n, np.cos(0.5 * a) ** 2)
        if self.family == "rp":
            return self.V - self.ball(a)  # v(D) > 0, so nothing divides the error up
        c2 = np.cos(a) ** 2
        with np.errstate(divide="ignore"):  # log 0 at a = 0 gives the right limit
            log_s2 = np.where(c2 < 0.5, np.log1p(-c2), 2.0 * np.log(np.sin(a)))
        if self.family == "cp":
            return -self.V * np.expm1(n * log_s2)
        if self.family == "hp":
            return -self.V * np.expm1(np.log1p(2 * n * c2) + 2 * n * log_s2)
        return self.V * np.where(c2 < 0.5, _CAYLEY_TAIL(c2), 1.0 - self.ball(a) / self.V)

    def psi(self, s):
        """psi(s) = (V - V(s)) / v(s), minus the slope of the Green profile."""
        return self.complement(s) / self.area(s)

    # -- Green function ------------------------------------------------------

    @cached_property
    def c_m(self) -> float:
        val = _quad(lambda s: float(self.ball(s) * self.psi(s)), 0.0, self.D)
        return -val / self.V

    def phi_hat(self, r: float) -> float:
        """int_r^D psi, by adaptive quadrature in the variable w = log s."""
        if not 0.0 < r <= self.D:
            raise ValueError(f"phi_hat needs 0 < r <= D, got {r}")
        return _quad(
            lambda w: float(self.psi(math.exp(w))) * math.exp(w), math.log(r), math.log(self.D)
        )

    def phi(self, r: float) -> float:
        """The mean-zero radial Green function at one radius."""
        return (self.phi_hat(r) + self.c_m) / self.V

    @cached_property
    def _phi_table(self):
        from scipy.interpolate import CubicHermiteSpline  # see _quad

        # phi_hat at log-spaced nodes near 0 and uniform nodes above D/16,
        # each increment integrated by a 10-point Gauss-Legendre rule in
        # w = log s; interpolated by cubic Hermite with the exact slope -psi
        D = self.D
        nodes = np.unique(
            np.concatenate(
                [np.geomspace(1e-12 * D, D / 16, 20_000), np.linspace(D / 16, D, 4_000)]
            )
        )
        w = np.log(nodes)
        half = 0.5 * np.diff(w)
        mid = 0.5 * (w[1:] + w[:-1])
        ws = mid[:, None] + half[:, None] * _GL_X[None, :]
        s = np.minimum(np.exp(ws), D)
        incr = half * ((self.psi(s) * s) @ _GL_W)
        phi_hat = np.concatenate([np.cumsum(incr[::-1])[::-1], [0.0]])
        slope = -self.psi(np.minimum(nodes, D))
        return CubicHermiteSpline(nodes, phi_hat, slope)

    def phi_many(self, r) -> np.ndarray:
        """phi at many radii in [1e-12 D, D], through a dense Hermite table."""
        r = np.asarray(r, dtype=float)
        if r.size and (r.min() < 1e-12 * self.D or r.max() > self.D):
            raise ValueError("radius outside the reference table")
        return (self._phi_table(r) + self.c_m) / self.V

    # -- ball kernels and the bound -------------------------------------------

    def K(self, a: float) -> float:
        if not 0.0 < a <= self.D:
            raise ValueError(f"K needs 0 < a <= D, got {a}")
        Va, Ca = float(self.ball(a)), float(self.complement(a))

        def integrand(u):
            Vu = float(self.ball(u))
            # V(a) - V(u) from whichever side keeps its digits
            gap = Va - Vu if Vu < 0.5 * self.V else float(self.complement(u)) - Ca
            return Vu * gap / float(self.area(u))

        return _quad(integrand, 0.0, a) / (self.V * Va)

    def theta(self, a: float) -> float:
        if not 0.0 < a <= self.D:
            raise ValueError(f"Theta needs 0 < a <= D, got {a}")
        val = _quad(lambda r: float(self.ball(r) * self.psi(r)), 0.0, a)
        return self.phi(a) + val / (self.V * float(self.ball(a)))

    def bound_terms(self, N: int, a: float) -> tuple[float, float]:
        """(bound at radius a, magnitude of its largest term) for N points."""
        k, t = self.K(a), self.theta(a)
        lead = N * (1.0 - 2.0 * N + self.V / float(self.ball(a))) * k
        return lead - N * t, max(abs(lead), abs(N * t))

    def best_bound(self, N: int, count: int = 24) -> float:
        """Max of the bound over a log grid of radii; itself a certified lower bound."""
        radii = np.geomspace(1e-3 * self.D, self.D, count)
        return max(self.bound_terms(N, float(a))[0] for a in radii)


# ---------------------------------------------------------------------------
# Points: parsing configuration text, distances, energies
# ---------------------------------------------------------------------------


def parse_configuration(text: str) -> tuple[Manifold, np.ndarray]:
    """Parse '# manifold=<family> n=<n>' plus one point per line.

    Returns the manifold and the raw rows, shape (N, columns), unnormalised.
    """
    lines = text.strip().splitlines()
    fields = dict(kv.split("=", 1) for kv in lines[0].lstrip("#").split() if "=" in kv)
    manifold = Manifold(fields["manifold"], int(fields["n"]))
    rows = np.array([[float(x) for x in ln.split()] for ln in lines[1:] if ln.strip()])
    return manifold, rows


def row_width(manifold: Manifold) -> int:
    """Reals per point in the configuration format."""
    return {"s": 1, "rp": 1, "cp": 2, "hp": 4}[manifold.family] * (manifold.n + 1)


def format_configuration(manifold: Manifold, rows: np.ndarray) -> str:
    head = f"# manifold={manifold.family} n={manifold.n}\n"
    return head + "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in rows)


def sample_rows(manifold: Manifold, N: int, rng: np.random.Generator) -> np.ndarray:
    """N uniform points as normalised Gaussian vectors over the base field."""
    raw = rng.standard_normal((N, row_width(manifold)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _inner_modulus(manifold: Manifold, rows: np.ndarray) -> np.ndarray:
    """|<p_i, p_j>| over the base field (signed inner product for spheres)."""
    fam = manifold.family
    if fam == "s":
        return rows @ rows.T
    if fam == "rp":
        return np.abs(rows @ rows.T)
    if fam == "cp":
        z = rows[:, 0::2] + 1j * rows[:, 1::2]
        return np.abs(z.conj() @ z.T)
    # quaternion w + x i + y j + z k = (w + x i) + (y + z i) j; then
    # conj(p) q = (conj(p1) q1 + p2 conj(q2)) + (conj(p1) q2 - p2 conj(q1)) j
    q = rows.reshape(rows.shape[0], -1, 4)
    z1 = q[:, :, 0] + 1j * q[:, :, 1]
    z2 = q[:, :, 2] + 1j * q[:, :, 3]
    h1 = z1.conj() @ z1.T + z2 @ z2.conj().T
    h2 = z1.conj() @ z2.T - z2 @ z1.conj().T
    return np.sqrt(np.abs(h1) ** 2 + np.abs(h2) ** 2)


def distances(manifold: Manifold, rows: np.ndarray) -> np.ndarray:
    """Geodesic distances of the pairs i < j, flattened."""
    c = np.clip(_inner_modulus(manifold, rows), -1.0, 1.0)
    iu = np.triu_indices(rows.shape[0], k=1)
    return np.arccos(c[iu])


def energy(manifold: Manifold, rows: np.ndarray) -> tuple[float, float]:
    """(Green energy over ordered distinct pairs, sum of the absolute terms)."""
    vals = manifold.phi_many(distances(manifold, rows))
    return 2.0 * float(np.sum(vals)), 2.0 * float(np.sum(np.abs(vals)))
