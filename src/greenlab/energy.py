"""Green energies of explicit configurations and a Riemannian descent optimizer.

The energy of a configuration is the sum of the radial Green profile over
all ordered distinct pairs, twice the sum over the upper triangle i < j.
The triangle is swept in row blocks (`_pair_blocks`): a block of rows
lo..hi-1 meets only the points after lo, and gathers its own pairs, row by
row, into one flat vector, on which the profile runs once per pair. The
whole evaluation is O(N^2) dense linear algebra plus one vectorized
profile sweep per block.

Every profile is its closed form in (x, y) = (sin^2(s d), cos^2(s d))
(`RadialGreenProfile.phi_hat`), and a block takes each pair's (x, y) from
`manifold._pair_sin_cos_squares`, with no arccos: from the Gram entries,
and from the chord of the aligned representatives for close pairs, where
the cosine has lost digits. On CP^n and HP^n, n <= 7, the Gram entries
are y = cos^2 d itself, from the projectors' coordinates that the sweep
forms once (`manifold._gram_rows`), and the components h_c of <p, q>
serve only the chords and the gradient's phases. The scan of x that
finds the close pairs also gives the least x, so the separation floor is
the one test least < sin^2(s floor). Blocks of one shape share one
triangle mask, and spheres form y only for a profile or a gradient that
reads it.

The optimizer's gradient shares that sweep, blocks, chord and floor
checks alike, with one array evaluation of the profile's slope h per
block: its weight is -h(x, y)/(2V) on spheres and -2h(x, y)/V (over
cos d) on the projective families, from phi'(d) = -2 s h sqrt(x y) / V.
The projective families form the components of <x_i, x_j> for the phases
once per block, and the gradient takes y = sum_c h_c^2 from them, so its
(x, y) are those of the components on every n. While one block holds
every pair (N <= 256 at 2^16 pairs a block), the descent's energy sweeps
keep it, as (lo, pairs, x, y), and the gradient reads the accepted
trial's block rather than sweeping again; no more than that one block is
ever held, so memory stays within one block. Past one block the gradient
sweeps anew.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, best_finite_bound
from .errors import DomainError, SingularityError, UnsupportedManifoldError
from .green import RadialGreenProfile, _phi_hat_floor, _unrepresentable, get_profile
from .manifold import (
    _CONJ_SIGN,
    _FIELD_RANK,
    Configuration,
    Family,
    ManifoldSpec,
    _as_generator,
    _cos_squares,
    _frames,
    _geodesic_rows,
    _gram_rows,
    _gram_sin_cos_squares,
    _matmul_chunks,
    _pair_constants,
    _pair_sin_cos_squares,
    _products,
    _project_horizontal,
    _record,
    _row_dots,
    diameter,
    sample_uniform,
    volume,
)

__all__ = [
    "EnergyReport",
    "energy",
    "optimize",
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


@functools.cache
def _pair_floors(spec: ManifoldSpec) -> tuple[float, float, float, float]:
    """s, the separation floor and sin^2(s d) at it and at the representable
    floor of phi_hat: once per manifold."""
    floor = _MIN_SEPARATION_FACTOR * diameter(spec)
    s = _record(spec)[2]
    return s, floor, math.sin(s * floor) ** 2, math.sin(s * _phi_hat_floor(spec)) ** 2


def _pair_blocks(spec: ManifoldSpec, coords: np.ndarray, with_y: bool = True, phases: bool = False):
    """The pairs i < j of the unit rows of coords, one row block at a time:
    yields (lo, pairs, x, y, h) of `manifold._pair_sin_cos_squares` for rows
    lo..hi-1 against the points after lo (column c is point lo + 1 + c), y
    None on spheres unless `with_y`, each block once its least x, which that
    function scans for, clears the separation floor and the profile's
    representable floor. h is None unless `phases`, on a projective family:
    then it is the block's components of `manifold._products`, which the
    gradient's phases read, and (x, y) come from them; else the rows' Gram
    factors (`manifold._gram_rows`) are formed once for all blocks. Nothing
    here keeps a block once it is yielded; only the descent keeps one, and
    only when it holds every pair (`_energy_rows`)."""
    n = len(coords)
    s, floor, x_floor, x_unrepresentable = _pair_floors(spec)
    if not phases:
        gram_left, gram_right = _gram_rows(spec, coords)
    # the last point has no later partner: a block of it alone is left out
    for lo, hi in _row_blocks(n, _BLOCK_PAIRS):
        if lo == n - 1:
            break
        left, right = coords[lo:hi], coords[lo + 1 :]
        if phases:
            h = _products(_FIELD_RANK[spec.family], left, right)
            pairs, x, y, least = _pair_sin_cos_squares(spec, left, right, with_y, None, h)
        else:
            h = None
            pairs, x, y, least = _pair_sin_cos_squares(
                spec, left, right, with_y, (gram_left[lo:hi], gram_right[lo + 1 :])
            )
        if least < x_floor:
            at = int(np.flatnonzero(x < x_floor)[0])
            i, j = (int(v[at]) for v in np.nonzero(pairs))
            raise SingularityError(
                f"points {lo + i} and {lo + 1 + j} are closer "
                f"than {floor:g} (distance {math.asin(math.sqrt(x[at])) / s:g})"
            )
        if least < x_unrepresentable:
            raise _unrepresentable(spec, math.asin(math.sqrt(least)) / s, "phi_hat")
        yield lo, pairs, x, y, h
        del x, y, h  # the block's arrays go before the next block's are formed


def _energy_rows(
    spec: ManifoldSpec, profile: RadialGreenProfile, coords: np.ndarray, kept: list | None = None
) -> float:
    """`energy` of the unit rows of coords.

    The profile runs on each block in place in x. Given a list `kept`, a
    block that holds every pair (the sweep's only one: N <= 256 at
    `_BLOCK_PAIRS` = 2^16) is appended to it instead, with the profile
    evaluated into an array of its own, so that its x survives for the
    gradient (`_descent_rows`). No more than that one block is kept, so the
    sweep's memory stays within one block.
    """
    V = volume(spec)
    partials = []
    for lo, pairs, x, y, _ in _pair_blocks(spec, coords, profile.reads_y or kept is not None):
        out = x
        if kept is not None and len(pairs) >= len(coords) - 1:
            kept.append((lo, pairs, x, y))
            out = np.empty_like(x)
        profile.phi_hat(x, y, out=out)
        out += profile.c_m
        partials.append(float(np.add.reduce(out)) / V)
        del out, x, y  # before the next block is formed
    return 2.0 * float(np.add.reduce(partials))


@dataclass(frozen=True)
class EnergyReport:
    """Energy of a configuration against its certified lower bound."""

    spec: ManifoldSpec
    N: int
    energy: float
    bound: BoundReport
    slack: float

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
    def from_configuration(cls, config: Configuration) -> "EnergyReport":
        e = energy(config)
        rep = best_finite_bound(config.spec, len(config))
        return cls(
            spec=config.spec,
            N=len(config),
            energy=e,
            bound=rep,
            slack=e - rep.best_bound,
        )

    def to_dict(self) -> dict:
        return {
            "family": self.spec.token,
            "n": self.spec.n,
            "N": self.N,
            "energy": self.energy,
            "slack": self.slack,
            "bound": self.bound.to_dict(),
        }


def _descent_rows(
    spec: ManifoldSpec, profile: RadialGreenProfile, coords: np.ndarray, kept: list | None = None
) -> np.ndarray:
    """Negative Riemannian gradients of every point's interaction energy, as rows.

    Row i is sum_j [phi'(d_ij) / sin d_ij] (x_j u_ij - cos(d_ij) x_i), with
    x_j u_ij the representative of x_j aligned to x_i: its right multiple by
    the unit scalar u_ij that makes <x_i, x_j u_ij> real and >= 0 (1 on S^n,
    a sign on RP^n, a phase on CP^n, a unit quaternion on HP^n). The pairs
    come from the energy's block sweep (`_pair_blocks`), so phi' is
    evaluated once per unordered pair, chord and floor checks included, and
    each pair adds to both of its rows through k matrix products with the
    right multiples x e_c. The projective families form the components h of
    <x_i, x_j> (`manifold._products`), which the phase needs, once per block
    here, and (x, y) from y = sum_c h_c^2 (`manifold._cos_squares`), where
    the energy sweep on CP^n and HP^n, n <= 7, reads cos^2 d from the
    projectors' Gram: the two differ by rounding, and the descent keeps the
    bits it had before that Gram. The total energy's gradient at row i is
    -2 times row i. A block that `_energy_rows` kept for coords gives the
    pairs, and (x, y) but on CP^n and HP^n, n <= 7; the pairs are swept
    again only when there is none.

    phi'(d) = -2 s h(x, y) sqrt(x y) / V makes w = phi'(d) / sin d
    = -h / (2 V) on spheres (s = 1/2), and w / cos d = -2 h / V on the
    projective families (s = 1), where conj(u_ij) = <x_i, x_j> / cos d. The
    x_i term w cos d is w (y - x) on spheres and (w / cos d) y elsewhere.
    """
    n, width = coords.shape
    k, _, projector = _pair_constants(spec)
    sphere = spec.family is Family.SPHERE
    factor = (-0.5 if sphere else -2.0) / volume(spec)
    frames = _frames(k, coords)
    # conj[c, j] = x_j conj(e_c), the conj-sign c times x_j e_c
    conj = (frames * _CONJ_SIGN[:k, None]).transpose(1, 0, 2)
    descent = np.zeros(coords.shape)
    blocks = [(*block, None) for block in kept] if kept else _pair_blocks(spec, coords, phases=not sphere)
    for lo, pairs, x, y, a in blocks:
        rows, cols = pairs.shape
        hi = lo + rows
        if a is None and not sphere:  # a kept block
            a = _products(k, coords[lo:hi], coords[lo + 1 :])
            if projector:  # (x, y) as a sweep with phases gives them
                x, y, _ = _gram_sin_cos_squares(spec, coords[lo:hi], coords[lo + 1 :], _cos_squares(a)[pairs])
        w = profile.h(x, y) * factor
        weight, wc = np.zeros(pairs.shape), np.zeros(pairs.shape)
        weight[pairs] = w
        wc[pairs] = w * (y - x if sphere else y)
        if sphere:
            a = weight[:, None, :]
        else:
            a *= weight[:, None, :]
        descent[lo:hi] += _matmul_chunks(a.reshape(rows, k * cols), conj[:, lo + 1 :].reshape(k * cols, width))
        descent[lo:hi] -= np.add.reduce(wc, axis=1)[:, None] * coords[lo:hi]
        descent[lo + 1 :] += _matmul_chunks(a.reshape(rows * k, cols).T, frames[lo:hi].reshape(rows * k, width))
        descent[lo + 1 :] -= np.add.reduce(wc, axis=0)[:, None] * coords[lo + 1 :]
    return _project_horizontal(frames, descent)


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

    Each step does its work once. |g_i| and g_i / |g_i| are formed once per
    step, not per trial. When one block holds every pair (N <= 256 at
    `_BLOCK_PAIRS` = 2^16), the energy sweeps keep it (`_energy_rows`), and
    the next gradient reads the accepted trial's block instead of sweeping
    again: 1 + (energy evaluations) pair sweeps in all, with at most one
    block held at a time. Past one block every gradient sweeps anew.
    """
    if not steps:
        return
    D = diameter(spec)
    kept = []
    e = _energy_rows(spec, profile, coords, kept)
    t = None
    for _ in range(steps):
        g = _descent_rows(spec, profile, coords, kept)
        speed = np.sqrt(np.add.reduce(g * g, axis=1))
        fastest = np.maximum.reduce(speed)
        if not fastest > 0.0:
            return
        unit = g / np.where(speed > 0.0, speed, 1.0)[:, None]
        t = _FIRST_MOVE * D / fastest if t is None else 2.0 * t
        slope = 2.0 * float(np.add.reduce(speed * speed))  # -dE/dt at t = 0
        for _ in range(_MAX_HALVINGS):
            trial = _geodesic_rows(coords, unit, np.minimum(t * speed, _MAX_MOVE * D))
            kept = []  # the last block goes before the next is formed
            try:
                e_trial = _energy_rows(spec, profile, trial, kept)
            except SingularityError:
                e_trial = math.inf
            if e_trial <= e - _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return
        coords, e = trial, e_trial
        yield coords, e


def optimize(spec: ManifoldSpec, N: int, iterations: int, rng) -> tuple[Configuration, float]:
    """Riemannian gradient descent from a uniform random start: the final
    configuration and its energy, the one the last accepted step computed
    (the same bits as `energy` of the configuration).

    The start is `sample_uniform(spec, rng, N)`. Each of the `iterations`
    sweeps takes `_STEPS_PER_SWEEP` (3) steps of `_descent_steps`: one
    gradient of the total energy over all pairs, then one Armijo
    backtracking search along it in which every point moves on its own
    geodesic. The energy decreases at every step, and the run is
    deterministic for a fixed seed. It ends early when a step finds no
    decrease.
    """
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
    coords = coords / np.sqrt(_row_dots(coords))[:, None]
    e = None
    for coords, e in _descent_steps(spec, profile, coords, _STEPS_PER_SWEEP * iterations):
        pass
    if e is None:
        e = _energy_rows(spec, profile, coords)
    return Configuration(spec, coords), e
