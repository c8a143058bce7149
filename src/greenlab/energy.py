"""Green energies of explicit configurations and a Riemannian descent optimizer.

The energy of a configuration is the sum of the radial Green profile over
all ordered distinct pairs, twice the sum over the upper triangle i < j.
Pairs are formed from Gram products of the points' real frames (see
`manifold`): a block of rows lo..hi-1 meets only the points after lo, and
gathers its own pairs, row by row, into one flat vector, on which the
profile runs once per pair. The whole evaluation is O(N^2) dense linear
algebra plus one vectorized profile sweep per block.

Every profile is its closed form in (x, y) = (sin^2(s d), cos^2(s d))
(`RadialGreenProfile.phi_hat`), so the sweep takes both straight from the
Gram entries, with no arccos: x = (1 - t)/2 and y = (1 + t)/2 from
t = cos d on spheres, and y = sum_c h_c^2, x = 1 - y from the components
h_c of <p, q> on the projective families. Close pairs (x below its value
at cosine `_CHORD_COSINE`) take x from the chord c = |p - q u| of the
aligned representatives, c^2/4 on spheres and c^2 (1 - c^2/4) on the
projective families, and y = 1 - x; the separation floor is the test
x < sin^2(s floor). Each fix-up locates its pairs from the flat index
only when there are any.

The optimizer's gradient is formed the same way, from the same products,
with one array evaluation of h per block of pairs: its weight is
-h(x, y)/(2V) on spheres and -2h(x, y)/V (over cos d) on the projective
families, from phi'(d) = -2 s h sqrt(x y) / V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, best_finite_bound
from .errors import DomainError, SingularityError, UnsupportedManifoldError
from .green import RadialGreenProfile, _phi_hat_floor, _unrepresentable, get_profile
from .manifold import (
    _CHORD_COSINE,
    _CONJ_SIGN,
    _FIELD_RANK,
    Configuration,
    Family,
    ManifoldSpec,
    _as_generator,
    _chord_squares,
    _frames,
    _geodesic_rows,
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


def _gram_sin_cos_squares(
    spec: ManifoldSpec, h: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (x, y) = (sin^2(s d), cos^2(s d)) at the (A, B) mask pairs, from the
    products h of `manifold._products`, which are left as they are: (1 -+ t) / 2
    from t = cos d on spheres, x = 1 - y with y = sum_c h_c^2 from the
    components h_c of <x, y> on the projective families."""
    if spec.family is Family.SPHERE:
        t = h[:, 0][pairs]
        x = t * -0.5
        x += 0.5
        t *= 0.5
        t += 0.5
        return x, t
    y = np.square(h[:, 0])
    for c in range(1, h.shape[1]):
        y += np.square(h[:, c])
    y = y[pairs]
    return np.subtract(1.0, y), y


def _chord_sin_squares(spec: ManifoldSpec, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """x = sin^2(s d) of the paired rows from their chords c = 2 sin(d/2):
    c^2 / 4 on spheres, c^2 (1 - c^2 / 4) on the projective families."""
    c2 = _chord_squares(spec, left, right)
    if spec.family is Family.SPHERE:
        return 0.25 * c2
    return c2 * (1.0 - 0.25 * c2)


def _energy_rows(spec: ManifoldSpec, profile: RadialGreenProfile, coords: np.ndarray) -> float:
    """`energy` of the unit rows of coords."""
    n = len(coords)
    if n == 1:
        return 0.0
    floor = _MIN_SEPARATION_FACTOR * diameter(spec)
    s, k, V = profile.s, _FIELD_RANK[spec.family], volume(spec)
    # sin^2(s d) at the separation floor, the representable floor and the
    # cosine of the chord route
    x_floor = math.sin(s * floor) ** 2
    x_unrepresentable = math.sin(s * _phi_hat_floor(spec)) ** 2
    x_close = math.sin(s * math.acos(_CHORD_COSINE)) ** 2

    def block_sum(lo: int, hi: int) -> float:
        # rows lo..hi-1 against the points after lo: column c is point lo + 1 + c,
        # and row r's pairs are its columns c >= r, gathered row by row
        later = coords[lo + 1 :]
        width = n - lo - 1
        upper = np.arange(width)[None, :] >= np.arange(hi - lo)[:, None]
        x, y = _gram_sin_cos_squares(spec, _products(k, coords[lo:hi], later), upper)
        least = float(x.min())
        if least < x_close:
            # 1 - t of a cosine t near 1 keeps only half the digits
            close = np.flatnonzero(x < x_close)
            rows, cols = _pair_rows_cols(close, width)
            x[close] = _chord_sin_squares(spec, coords[lo + rows], later[cols])
            y[close] = 1.0 - x[close]
            least = float(x.min())
        if least < x_floor:
            at = np.flatnonzero(x < x_floor)[:1]
            rows, cols = _pair_rows_cols(at, width)
            raise SingularityError(
                f"points {lo + int(rows[0])} and {lo + 1 + int(cols[0])} are closer "
                f"than {floor:g} (distance {math.asin(math.sqrt(x[at[0]])) / s:g})"
            )
        if least < x_unrepresentable:
            raise _unrepresentable(spec, math.asin(math.sqrt(least)) / s, "phi_hat")
        profile.phi_hat(x, y, out=x)
        x += profile.c_m
        return float(np.sum(x)) / V

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

    The weights come from (x, y) = (sin^2, cos^2)(s d) of the Gram entries,
    with no arccos or sqrt: phi'(d) = -2 s h(x, y) sqrt(x y) / V makes
    w = phi'(d) / sin d = -h / (2 V) on spheres (s = 1/2), and w / cos d
    = -2 h / V on the projective families (s = 1), where w cos d is that
    times cos^2 d = y. A pair with x <= 0 coincides and adds nothing.
    """
    n, width = coords.shape
    k = _FIELD_RANK[spec.family]
    V = volume(spec)
    sphere = spec.family is Family.SPHERE
    # phi'(d) / sin d on spheres and phi'(d) / (sin d cos d) elsewhere, over h
    factor = -0.5 / V if sphere else -2.0 / V
    frames = _frames(k, coords)
    # row c n + j holds x_j conj(e_c) = conj-sign c times x_j e_c
    conj_frames = (frames * _CONJ_SIGN[:k, None]).transpose(1, 0, 2).reshape(k * n, width)
    descent = np.zeros_like(coords)
    # a block's k products per pair fill about _BLOCK_PAIRS entries: phi'
    # keeps more temporaries per pair than phi
    for lo, hi in _row_blocks(n, _BLOCK_PAIRS // k):
        h = _products(k, coords[lo:hi], coords)
        # the pairs j > i that do not coincide (x > 0)
        inside = np.arange(n)[None, :] > np.arange(lo, hi)[:, None]
        x, y = _gram_sin_cos_squares(spec, h, inside)
        apart = x > 0.0
        inside[inside] = apart
        # the weight of each pair's products: w on spheres and w / cos d on
        # the projective families, where conj(u_ij) = <x_i, x_j> / cos d;
        # wc = w cos d, which is w t on spheres and w / cos d times y elsewhere
        weight = np.zeros(inside.shape)
        w = profile.h(x[apart], y[apart]) * factor
        weight[inside] = w
        if sphere:
            wc = weight * h[:, 0]
            a = weight[:, None, :]
        else:
            wc = np.zeros(inside.shape)
            wc[inside] = w * y[apart]
            h *= weight[:, None, :]
            a = h
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
