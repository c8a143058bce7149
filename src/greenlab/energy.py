"""Green energies of explicit configurations and a Riemannian descent optimizer.

The energy of a configuration is the sum of the radial Green profile over
all ordered distinct pairs, twice the sum over the upper triangle i < j.
Pair distances are formed from Gram products of the points' real frames
(see `manifold`): a block of rows lo..hi-1 meets only the points after
lo, and gathers its own pairs' cosines, row by row, into one flat vector,
on which clip, arccos and the profile run; arccos and the profile see
each of the N(N-1)/2 pairs once. Close pairs (cosine above
`_CHORD_COSINE`) get chord distances and the separation floor is checked,
each fix-up locating its pairs from the flat index only when there are
any. The whole evaluation is O(N^2) dense linear algebra plus one
vectorized profile sweep, the same for every family. The
optimizer's gradient is formed the same way, from the same products, with
one array evaluation of phi' per block of pairs, read from the profile's
slope table (`RadialGreenProfile.phi_hat_prime_values`).
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
    _CONJ_SIGN,
    _FIELD_RANK,
    Configuration,
    Family,
    ManifoldSpec,
    _as_generator,
    _chord_distances,
    _cosines,
    _frames,
    _geodesic_rows,
    _modulus,
    _products,
    _project_horizontal,
    diameter,
    random_distance,
    sample_uniform,
    volume,
)

__all__ = [
    "Configuration",
    "EnergyReport",
    "energy",
    "optimize",
    "mc_energy_moment",
]

_MIN_SEPARATION_FACTOR = 1e-9


# pairs per block: the block's Gram, distance and profile temporaries stay
# a few MB whatever N is
_BLOCK_PAIRS = 1 << 16


def energy(config: Configuration) -> float:
    """Sum of the Green profile over ordered distinct pairs.

    The upper triangle is swept in row blocks of about `_BLOCK_PAIRS`
    pairs, so peak memory does not grow with N. The blocks' partial sums
    are reduced in block order, and numpy's pairwise summation compensates
    within blocks.
    """
    return _energy_rows(config.spec, get_profile(config.spec), config.coords_array())


def _row_blocks(n: int, pairs: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of about `pairs` pairs each against all n rows."""
    rows = max(1, pairs // n)
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _pair_rows_cols(flat: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of positions in a row-major upper triangle of `width`
    columns, in which row r holds its columns r..width-1."""
    rows = np.arange(width)
    starts = rows * width - rows * (rows - 1) // 2
    r = np.searchsorted(starts, flat, side="right") - 1
    return r, flat - starts[r] + r


def _energy_rows(spec: ManifoldSpec, profile: RadialGreenProfile, coords: np.ndarray) -> float:
    """`energy` of the unit rows of coords."""
    n = len(coords)
    if n == 1:
        return 0.0
    floor = _MIN_SEPARATION_FACTOR * diameter(spec)

    def block_sum(lo: int, hi: int) -> float:
        # rows lo..hi-1 against the points after lo: column c is point lo + 1 + c,
        # and row r's pairs are its columns c >= r
        later = coords[lo + 1 :]
        width = n - lo - 1
        upper = np.arange(width)[None, :] >= np.arange(hi - lo)[:, None]
        # the block's pairs, row by row, as one vector of cosines, then distances
        d = _cosines(spec, coords[lo:hi], later)[upper]
        close = np.flatnonzero(d > _CHORD_COSINE)
        np.clip(d, -1.0, 1.0, out=d)
        np.arccos(d, out=d)
        if close.size:
            # arccos of a cosine near 1 keeps only half the digits
            rows, cols = _pair_rows_cols(close, width)
            d[close] = _chord_distances(spec, coords[lo + rows], later[cols])
        if d.min() < floor:
            at = np.flatnonzero(d < floor)[:1]
            rows, cols = _pair_rows_cols(at, width)
            raise SingularityError(
                f"points {lo + int(rows[0])} and {lo + 1 + int(cols[0])} are closer "
                f"than {floor:g} (distance {d[at[0]]:g})"
            )
        return float(np.sum(profile.phi(d)))

    # the last point has no later partner: a block of it alone is left out
    partials = [block_sum(lo, hi) for lo, hi in _row_blocks(n, _BLOCK_PAIRS) if lo < n - 1]
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
    def from_configuration(cls, config: Configuration, seed: int | None = None) -> "EnergyReport":
        e = energy(config)
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


def _descent_rows(
    spec: ManifoldSpec, profile: RadialGreenProfile, coords: np.ndarray
) -> np.ndarray:
    """Negative Riemannian gradients of every point's interaction energy, as rows.

    Row i is sum_j [phi'(d_ij) / sin d_ij] (x_j u_ij - cos(d_ij) x_i), with
    x_j u_ij the representative of x_j aligned to x_i (see
    `manifold._aligned`). The upper triangle is swept in row blocks, phi' is
    evaluated once per unordered pair, and each pair adds to both of its rows
    through k matrix products with the right multiples x e_c, so no
    temporary holds more than a block's products. The total energy's
    gradient at row i is -2 times row i.
    """
    n, width = coords.shape
    k = _FIELD_RANK[spec.family]
    D, V = diameter(spec), volume(spec)
    frames = _frames(k, coords)
    # row c n + j holds x_j conj(e_c) = conj-sign c times x_j e_c
    conj_frames = (frames * _CONJ_SIGN[:k, None]).transpose(1, 0, 2).reshape(k * n, width)
    descent = np.zeros_like(coords)
    # a block's k products per pair fill about _BLOCK_PAIRS entries: phi'
    # keeps more temporaries per pair than phi
    for lo, hi in _row_blocks(n, _BLOCK_PAIRS // k):
        h = _products(k, coords[lo:hi], coords)
        cos = h[:, 0] if spec.family is Family.SPHERE else _modulus(h)
        c = np.clip(cos, -1.0, 1.0)
        d = np.arccos(c)
        inside = (np.arange(n)[None, :] > np.arange(lo, hi)[:, None]) & (d > 0.0) & (d < D)
        w = np.zeros_like(d)
        sin_d = np.sqrt(np.maximum(1.0 - c[inside] ** 2, 1e-30))
        w[inside] = profile.phi_hat_prime_values(d[inside]) / (V * sin_d)
        if spec.family is Family.SPHERE:
            a = w[:, None, :]
        else:  # w times the components of conj(u_ij) = <x_i, x_j> / |<x_i, x_j>|
            h *= (w / np.where(cos > 0.0, cos, 1.0))[:, None, :]
            a = h
        wc = w * c
        descent[lo:hi] += a.reshape(hi - lo, k * n) @ conj_frames
        descent[lo:hi] -= wc.sum(axis=1)[:, None] * coords[lo:hi]
        descent += a.reshape(-1, n).T @ frames[lo:hi].reshape(-1, width)
        descent -= wc.sum(axis=0)[:, None] * coords
    return _project_horizontal(spec, coords, descent)


# a sweep is this many descent steps
_STEPS_PER_SWEEP = 3
# the first trial step moves the fastest point this share of D, and no
# step moves any point further than _MAX_MOVE D
_FIRST_MOVE = 0.2
_MAX_MOVE = 0.5
# Armijo's sufficient-decrease constant and the halvings tried per step
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


def _descent_steps(
    spec: ManifoldSpec, profile: RadialGreenProfile, coords: np.ndarray, steps: int
):
    """Riemannian gradient descent on the total energy; yields (coords, energy)
    after each of at most `steps` accepted steps.

    Every step moves all rows at once, row i by the angle t |g_i| (capped at
    `_MAX_MOVE` D) along the geodesic towards its descent direction g_i, and
    halves t until the energy falls by at least `_ARMIJO` times the decrease
    the gradient predicts (Armijo backtracking; Absil, Mahony & Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 4). A candidate
    with a pair closer than the separation floor of `energy` is rejected.
    Each step tries twice the previous step's t first. The generator stops
    early when a step finds no decrease.
    """
    if not steps:
        return
    D = diameter(spec)
    e = _energy_rows(spec, profile, coords)
    t = None
    for _ in range(steps):
        g = _descent_rows(spec, profile, coords)
        speed = np.linalg.norm(g, axis=1)
        if not speed.max() > 0.0:
            return
        t = _FIRST_MOVE * D / speed.max() if t is None else 2.0 * t
        slope = 2.0 * float(np.sum(speed * speed))  # -dE/dt at t = 0
        for _ in range(_MAX_HALVINGS):
            trial = _geodesic_rows(coords, g, np.minimum(t * speed, _MAX_MOVE * D))
            try:
                e_trial = _energy_rows(spec, profile, trial)
            except SingularityError:
                e_trial = math.inf
            if e_trial <= e - _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return
        coords, e = trial, e_trial
        yield coords, e


def optimize(spec: ManifoldSpec, N: int, iterations: int, rng) -> Configuration:
    """Riemannian gradient descent from a uniform random start.

    The start is `sample_uniform(spec, rng, N)`. Each of the `iterations`
    sweeps takes `_STEPS_PER_SWEEP` (3) steps of `_descent_steps`: one
    gradient of the total energy over all pairs, then one Armijo
    backtracking search along it in which every point moves on its own
    geodesic. The energy decreases at every step, and the run is
    deterministic for a fixed seed. It ends early when a step finds no
    decrease.
    """
    return _optimized(spec, N, iterations, rng)[0]


def _optimized(spec: ManifoldSpec, N: int, iterations: int, rng) -> tuple[Configuration, float]:
    """`optimize`'s configuration and its energy, the one the last accepted
    step computed (the same bits as `energy` of the configuration)."""
    if spec.family is Family.CAYLEY_PLANE:
        raise UnsupportedManifoldError("no point model on the Cayley plane")
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    if iterations < 0:
        raise DomainError(f"need iterations >= 0, got {iterations}")
    gen = _as_generator(rng)
    profile = get_profile(spec)
    coords = sample_uniform(spec, gen, N).coords_array()
    # rescaled once more as real frames, as the output of earlier versions
    # was: a seeded run with no sweeps keeps its bits
    coords = coords / np.sqrt([x.dot(x) for x in coords])[:, None]
    e = None
    for coords, e in _descent_steps(spec, profile, coords, _STEPS_PER_SWEEP * iterations):
        pass
    if e is None:
        e = _energy_rows(spec, profile, coords)
    return Configuration.from_array(spec, coords), e


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
    values = np.empty(samples)
    if spec.family is Family.CAYLEY_PLANE:
        pairs = N * (N - 1)
        draws = random_distance(spec, gen, size=samples * pairs)
        values = get_profile(spec).phi(draws).reshape(samples, pairs).sum(axis=1)
    else:
        for s in range(samples):
            values[s] = energy(sample_uniform(spec, gen, N))
    mean = float(np.mean(values))
    std_err = float(np.std(values, ddof=1) / math.sqrt(samples))
    return mean, std_err
