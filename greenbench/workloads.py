"""The benchmark's three workloads: inputs, operations and output checks.

Every operation (op) is a *panel*: one in-process call of
greenlab.cli.main per manifold of a fixed set, each with the arguments a
user would type and fresh inputs drawn from the run's seed. A run is a
fixed list of ops: greenlab memoises K and Theta and caches H(r), so the
cost of an op depends on what ran before it, and only a fixed list does
the same work in the same order in every run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import traceback

import numpy as np

import greenlab.cli
from greenlab.green import get_profile
from greenlab.manifold import ManifoldSpec

import reference as ref

# relative agreement demanded of the program against the reference
# computation, scaled by the largest term that enters each result
BOUND_RTOL = 1e-8
ENERGY_RTOL = 1e-10


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """greenlab.cli.main(argv) with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = greenlab.cli.main(argv)
        except Exception:  # a raw exception is an op failure, not a benchmark crash
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _family_args(fam: str, n: int) -> list[str]:
    return ["--family", fam] if fam == "op2" else ["--family", fam, "--n", str(n)]


def _stratified(rng: np.random.Generator, lo: int, hi: int, k: int) -> list[int]:
    """k integers log-uniform on [lo, hi], the i-th drawn from the i-th of k equal strata."""
    u = (np.arange(k) + rng.random(k)) / k
    return [int(round(math.exp(math.log(lo) + x * math.log(hi / lo)))) for x in u]


def _check_bound(m: ref.Manifold, N: int, report: dict) -> list[str]:
    """The properties every reported bound must have."""
    problems = []
    if report["N"] != N or report["family"] != m.family:
        problems.append(f"{m}: report is for {report['family']} N={report['N']}")
    best_a, best = report["best_a"], report["best_bound"]
    expect, scale = m.bound_terms(N, best_a)
    if abs(best - expect) > BOUND_RTOL * scale:
        problems.append(f"{m} N={N}: best_bound {best!r} but reference {expect!r} at a={best_a!r}")
    if any(best < b for _, b in report["radius_grid"]):
        problems.append(f"{m} N={N}: best_bound {best!r} below a radius_grid value")
    if best > 0.0:
        problems.append(f"{m} N={N}: positive bound {best!r}")
    return problems


def _check_energy(m: ref.Manifold, rows: np.ndarray, reported: float) -> tuple[list[str], float]:
    expect, scale = ref.energy(m, rows)
    if abs(reported - expect) > ENERGY_RTOL * scale:
        return [f"{m} N={len(rows)}: energy {reported!r} but reference {expect!r}"], expect
    return [], expect


class Workload:
    """A named, seeded, fixed list of panel ops with a check for each."""

    name = ""
    nominal_op_s = 1.0  # op time on the reference machine; sizes the op list
    min_ops = 5

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.n_ops = max(self.min_ops, round(seconds / self.nominal_op_s))
        self.workdir = workdir
        self.ops: list[list[list[str]]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def check(self, op: list[list[str]], results: list[tuple[int, str, str]]) -> list[str]:
        raise NotImplementedError


class BoundPanel(Workload):
    """`greenlab bound` at a fresh N on each manifold of a fixed panel.

    The panel spans all five families: S^n and RP^n take the quadrature
    route for K and Theta, CP^n, HP^n and OP^2 the closed forms. Op k
    draws every N from the k-th of n_ops log-spaced strata of N_RANGE:
    the cost of a bound depends on N and on how far the H(r) cache has
    filled, so ascending strata make op k cost about the same for any seed.
    """

    name = "bound_panel"
    nominal_op_s = 1.0
    PANEL = (("s", 3), ("rp", 3), ("cp", 2), ("hp", 1), ("op2", 2))
    N_RANGE = (400, 2400)

    def setup(self):
        for fam, n in self.PANEL:
            get_profile(ManifoldSpec.from_token(fam, n))
        sizes = [_stratified(self.rng, *self.N_RANGE, self.n_ops) for _ in self.PANEL]
        for k in range(self.n_ops):
            self.ops.append(
                [["bound", *_family_args(fam, n), "--points", str(sizes[j][k])]
                 for j, (fam, n) in enumerate(self.PANEL)]
            )

    def check(self, op, results):
        problems = []
        for (fam, n), argv, (_, out, _) in zip(self.PANEL, op, results):
            problems += _check_bound(ref.Manifold(fam, n), int(argv[-1]), json.loads(out))
        return problems


class EnergyCertify(Workload):
    """`greenlab energy --config` on seeded random configurations.

    N is fixed per family and a warm-up bound at that N runs in set-up, so
    K and Theta come from the memo and the op times the Gram/arccos sweep
    and the bulk profile evaluation.
    """

    name = "energy_certify"
    nominal_op_s = 1.0
    FAMILIES = (("s", 2, 450), ("rp", 3, 400), ("cp", 2, 340), ("hp", 1, 290))

    def setup(self):
        for fam, n, N in self.FAMILIES:
            get_profile(ManifoldSpec.from_token(fam, n))
        self.ops = [[] for _ in range(self.n_ops)]
        for fam, n, N in self.FAMILIES:
            m = ref.Manifold(fam, n)
            for k in range(self.n_ops):
                path = os.path.join(self.workdir, f"{fam}{n}-{k}.txt")
                with open(path, "w") as fh:
                    fh.write(ref.format_configuration(m, ref.sample_rows(m, N, self.rng)))
                self.ops[k].append(["energy", "--config", path])
        for fam, n, N in self.FAMILIES:
            code, _, err = run_cli(["bound", *_family_args(fam, n), "--points", str(N)])
            if code != 0:
                raise RuntimeError(f"warm-up bound failed for {fam}{n}: {err}")

    def check(self, op, results):
        problems = []
        for argv, (_, out, _) in zip(op, results):
            with open(argv[-1]) as fh:
                m, rows = ref.parse_configuration(fh.read())
            report = json.loads(out)
            found, _ = _check_energy(m, rows, report["energy"])
            problems += found
            best = report["bound"]["best_bound"]
            if report["slack"] != report["energy"] - best or report["slack"] < 0.0:
                problems.append(f"{m}: slack {report['slack']!r} for energy {report['energy']!r}")
            problems += _check_bound(m, len(rows), report["bound"])
        return problems


@functools.cache
def _certified_bound(m: ref.Manifold, N: int) -> float:
    return m.best_bound(N)


def _optimize_argv(fam: str, n: int, P: int, iters: int, seed: int) -> list[str]:
    return ["optimize", *_family_args(fam, n), "--points", str(P),
            "--iters", str(iters), "--seed", str(seed)]


class OptimizeSweep(Workload):
    """`greenlab optimize` for a few sweeps at tens of points from a fresh seed.

    Points per family are sized so that no family takes most of an op.
    """

    name = "optimize_sweep"
    nominal_op_s = 1.0
    ITERS = 3
    FAMILIES = (("s", 2, 54), ("rp", 3, 40), ("cp", 2, 60), ("hp", 1, 16))

    def setup(self):
        for fam, n, _ in self.FAMILIES:
            get_profile(ManifoldSpec.from_token(fam, n))
        for _ in range(self.n_ops):
            self.ops.append(
                [_optimize_argv(fam, n, P, self.ITERS, int(self.rng.integers(2**31)))
                 for fam, n, P in self.FAMILIES]
            )

    def check(self, op, results):
        problems = []
        for (fam, n, P), argv, (_, out, err) in zip(self.FAMILIES, op, results):
            m, rows = ref.parse_configuration(out)
            if (m.family, m.n) != (fam, n) or rows.shape != (P, ref.row_width(m)):
                problems.append(f"{fam}{n}: output has shape {rows.shape} on {m}")
                continue
            if np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) > 1e-12:
                problems.append(f"{m}: output points are not unit vectors")
            final = float(err.split("final energy", 1)[1].split()[0])
            found, e_final = _check_energy(m, rows, final)
            problems += found
            seed = int(argv[argv.index("--seed") + 1])
            code, start_out, start_err = run_cli(_optimize_argv(fam, n, P, 0, seed))
            if code != 0:
                problems.append(f"{m}: --iters 0 run failed: {start_err}")
                continue
            e_start, scale = ref.energy(m, ref.parse_configuration(start_out)[1])
            if e_final > e_start + ENERGY_RTOL * scale:
                problems.append(f"{m}: descent raised the energy {e_start!r} -> {e_final!r}")
            if e_final < _certified_bound(m, P) - ENERGY_RTOL * scale:
                problems.append(f"{m}: energy {e_final!r} under the certified bound")
        return problems


WORKLOADS = {w.name: w for w in (BoundPanel, EnergyCertify, OptimizeSweep)}
