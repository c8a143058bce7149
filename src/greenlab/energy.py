"""Green energies of explicit configurations and a local descent optimizer.

The energy of a configuration is the sum of the radial Green profile over
all ordered distinct pairs. Pair distances are formed from Gram matrices
of the points' real frames (see `manifold`), so the whole evaluation is
O(N^2) dense linear algebra plus one vectorized profile sweep, the same
for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, best_finite_bound
from .errors import DomainError, SingularityError, UnsupportedManifoldError
from .green import RadialGreenProfile, get_profile
from .manifold import (
    _CHORD_COSINE,
    Family,
    ManifoldSpec,
    Point,
    _aligned,
    _as_generator,
    _chord_distances,
    _cosines,
    _flatten_coords,
    _project_horizontal,
    _unflatten_coords,
    diameter,
    random_distance,
    sample_uniform,
)

__all__ = [
    "Configuration",
    "EnergyReport",
    "energy",
    "optimize",
    "mc_energy_moment",
]

_MIN_SEPARATION_FACTOR = 1e-9


@dataclass(frozen=True, eq=False)
class Configuration:
    """A finite list of points sharing one manifold."""

    spec: ManifoldSpec
    points: list[Point]

    def __post_init__(self):
        if not self.points:
            raise DomainError("a configuration needs at least one point")
        for p in self.points:
            if p.spec != self.spec:
                raise DomainError("all points must share the configuration's manifold")

    def __len__(self):
        return len(self.points)

    def coords_array(self) -> np.ndarray:
        """(N, D) real frames of the points, one configuration-file row each."""
        return np.stack([_flatten_coords(self.spec, p.coords) for p in self.points])


# pairs per block: the block's Gram, distance and profile temporaries stay
# a few MB whatever N is
_BLOCK_PAIRS = 1 << 16


def energy(
    config: Configuration,
    profile: RadialGreenProfile | None = None,
    threads: int = 1,
) -> float:
    """Sum of the Green profile over ordered distinct pairs.

    The upper triangle is swept in row blocks of about `_BLOCK_PAIRS`
    pairs, whose partial sums are reduced in block order, so the result is
    bit-identical for any thread count and peak memory does not grow with
    N; numpy's pairwise summation compensates within blocks.
    """
    if profile is None:
        profile = get_profile(config.spec)
    if profile.spec != config.spec:
        raise DomainError("profile and configuration disagree on the manifold")
    n = len(config)
    if n == 1:
        return 0.0
    spec = config.spec
    coords = config.coords_array()
    floor = _MIN_SEPARATION_FACTOR * diameter(spec)

    def block_sum(lo: int, hi: int) -> float:
        gram = _cosines(spec, coords[lo:hi], coords)
        upper = np.arange(n)[None, :] > np.arange(lo, hi)[:, None]
        rows, cols = np.nonzero(upper & (gram > _CHORD_COSINE))
        np.clip(gram, -1.0, 1.0, out=gram)
        dist = np.arccos(gram)
        # close pairs: arccos of a cosine near 1 keeps only half the digits
        dist[rows, cols] = _chord_distances(spec, coords[lo + rows], coords[cols])
        pair_d = dist[upper]
        if np.any(pair_d < floor):
            rows, cols = np.nonzero(upper & (dist < floor))
            i, j = lo + int(rows[0]), int(cols[0])
            raise SingularityError(
                f"points {i} and {j} are closer than {floor:g} "
                f"(distance {dist[rows[0], cols[0]]:g})"
            )
        return float(np.sum(profile.phi(pair_d)))

    rows = max(1, _BLOCK_PAIRS // n)
    blocks = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    if threads <= 1 or len(blocks) == 1:
        partials = [block_sum(lo, hi) for lo, hi in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(lambda b: block_sum(*b), blocks))
    return 2.0 * float(np.sum(np.asarray(partials)))


@dataclass(frozen=True)
class EnergyReport:
    """Energy of a configuration against its certified lower bound."""

    spec: ManifoldSpec
    N: int
    energy: float
    bound: BoundReport
    slack: float
    seed: int | None = None

    def __post_init__(self):
        if self.slack < 0.0:
            raise DomainError(
                f"energy {self.energy} fell below the certified bound "
                f"{self.bound.best_bound}; a certified-bound violation means a bug"
            )
        for a, val in self.bound.radius_grid:
            if self.energy < val:
                raise DomainError(
                    f"energy {self.energy} under the bound {val} at radius {a}"
                )

    @classmethod
    def from_configuration(
        cls,
        config: Configuration,
        profile: RadialGreenProfile | None = None,
        seed: int | None = None,
        threads: int = 1,
    ) -> "EnergyReport":
        e = energy(config, profile, threads=threads)
        rep = best_finite_bound(config.spec, len(config))
        return cls(
            spec=config.spec,
            N=len(config),
            energy=e,
            bound=rep,
            slack=e - rep.best_bound,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "family": self.spec.token,
            "n": self.spec.n,
            "N": self.N,
            "seed": self.seed,
            "energy": self.energy,
            "slack": self.slack,
            "bound": self.bound.to_dict(),
        }


def _descent_direction(
    spec: ManifoldSpec,
    profile: RadialGreenProfile,
    coords: np.ndarray,
    i: int,
) -> np.ndarray:
    """Negative Riemannian gradient of point i's interaction energy (ambient)."""
    from .green import phi_hat_prime
    from .manifold import volume

    base = coords[i]
    aligned = _aligned(spec, base, np.delete(coords, i, axis=0))
    cos_d = np.clip(aligned @ base, -1.0, 1.0)
    d = np.arccos(cos_d)
    sin_d = np.sqrt(np.maximum(1.0 - cos_d * cos_d, 1e-30))
    inside = (d > 0.0) & (d < diameter(spec))
    weights = np.zeros_like(d)
    weights[inside] = phi_hat_prime(spec, d[inside]) / volume(spec)
    # descent = -grad E_i = sum_k [phi'(d_k)/sin d_k] (q_k - cos(d_k) p)
    scale = weights / sin_d
    return np.einsum("k,km->m", scale, aligned - cos_d[:, None] * base)


def optimize(
    spec: ManifoldSpec,
    N: int,
    iterations: int,
    rng,
    profile: RadialGreenProfile | None = None,
) -> Configuration:
    """First-order descent with backtracking, from a uniform random start.

    Each sweep visits every point once, proposes a geodesic step along the
    negative gradient of its interaction energy and halves the step until
    the energy decreases; only decreases are accepted, so the energy is
    monotone over accepted moves and the run is deterministic for a fixed
    seed.
    """
    if spec.family is Family.CAYLEY_PLANE:
        raise UnsupportedManifoldError("no point model on the Cayley plane")
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    gen = _as_generator(rng)
    if profile is None:
        profile = get_profile(spec)
    points = [sample_uniform(spec, gen) for _ in range(N)]
    coords = Configuration(spec, points).coords_array()
    D = diameter(spec)
    steps = np.full(N, 0.1 * D)

    def point_energy(idx: int, candidate: np.ndarray) -> float:
        others = np.delete(coords, idx, axis=0)
        dd = np.arccos(np.clip(_cosines(spec, candidate[None], others)[0], -1.0, 1.0))
        if np.any(dd <= _MIN_SEPARATION_FACTOR * D):
            return math.inf
        return float(np.sum(profile.phi(dd)))

    for _ in range(iterations):
        improved = False
        for i in range(N):
            direction = _descent_direction(spec, profile, coords, i)
            u = _project_horizontal(spec, coords[i], direction)
            nrm = float(np.linalg.norm(u))
            if nrm < 1e-15:
                continue
            u = u / nrm
            current = point_energy(i, coords[i])
            t = min(float(steps[i]) * 2.0, 0.5 * D)
            accepted = False
            for _ in range(40):
                candidate = math.cos(t) * coords[i] + math.sin(t) * u
                candidate /= np.linalg.norm(candidate)
                if point_energy(i, candidate) < current:
                    coords[i] = candidate
                    steps[i] = t
                    accepted = True
                    break
                t *= 0.5
            improved = improved or accepted
        if not improved:
            break
    pts = [Point(spec, _unflatten_coords(spec, x / np.linalg.norm(x))) for x in coords]
    return Configuration(spec, pts)


def mc_energy_moment(
    spec: ManifoldSpec, N: int, samples: int, rng
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of E over i.i.d. uniform configurations.

    The Cayley plane has no point model; there, each ordered pair is
    simulated by an independent radial draw, which reproduces the mean
    exactly because the expectation is linear in the pair terms.
    """
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    gen = _as_generator(rng)
    profile = get_profile(spec)
    values = np.empty(samples)
    if spec.family is Family.CAYLEY_PLANE:
        pairs = N * (N - 1)
        draws = random_distance(spec, gen, size=samples * pairs)
        values = profile.phi(draws).reshape(samples, pairs).sum(axis=1)
    else:
        for s in range(samples):
            config = Configuration(spec, [sample_uniform(spec, gen) for _ in range(N)])
            values[s] = energy(config, profile)
    mean = float(np.mean(values))
    std_err = float(np.std(values, ddof=1) / math.sqrt(samples))
    return mean, std_err
