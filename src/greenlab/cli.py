"""Command line interface.

Subcommands: profile, ball, bound, compare, energy, optimize, verify.
Every run emits the payload (CSV or JSON, 17 significant digits) plus a
run manifest with the full parameter set, seed, version and wall time;
with --out the manifest lands next to the payload as <out>.manifest.json,
otherwise it goes to stderr. Identical invocations
with the same seed reproduce payload bytes exactly.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from . import ball_stats as bs
from . import bounds as bd
from . import energy as en
from .errors import DomainError, GreenLabError
from .green import get_profile
from .manifold import (
    Family,
    ManifoldSpec,
    diameter,
    load_configuration,
    save_configuration,
)
from .verify import run_verification

_FMT = "{:.17g}"


@dataclass
class RunManifest:
    subcommand: str
    parameters: dict
    seed: int | None
    version: str
    wall_time_s: float


def _spec_from_args(args) -> ManifoldSpec:
    return ManifoldSpec.from_token(args.family, args.n)


def _format_cell(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, float):
        return _FMT.format(x)
    return str(x)


def _emit(args, payload: str, manifest: RunManifest) -> None:
    # the fields as they are: asdict would deep-copy the parameters first
    manifest_json = json.dumps(vars(manifest), indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(manifest_json + "\n")
    else:
        sys.stdout.write(payload)
        sys.stderr.write(manifest_json + "\n")


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_format_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_payload(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_profile(args) -> str:
    spec = _spec_from_args(args)
    prof = get_profile(spec)
    rows = [[r, ph, phi] for r, ph, phi in prof.grid_rows()]
    if args.format == "json":
        return _json_payload(
            {
                "family": spec.token,
                "n": spec.n,
                "c_m": prof.c_m,
                "r_cut": prof.r_cut,
                "grid": rows,
            }
        )
    return _csv(rows, ["r", "phi_hat", "phi"])


def _cmd_ball(args) -> str:
    spec = _spec_from_args(args)
    D = diameter(spec)
    if args.grid_size < 1:
        raise DomainError(f"need --grid-size >= 1, got {args.grid_size}")
    if args.radius:
        radii = list(args.radius)
    else:
        radii = [D * (k + 1) / (args.grid_size + 1) for k in range(args.grid_size)]
    rows = []
    for a in radii:
        k_quad = bs.k_quadrature(spec, a)
        theta_quad = bs.theta_quadrature(spec, a)
        k_cl = bs.k_closed(spec, a)
        theta_cl = bs.theta_closed(spec, a)
        rel_k = abs(k_quad - k_cl) / abs(k_cl)
        # Theta = phi(a) + a mean that cancels it toward D, where Theta is 0:
        # there the error is relative to phi(a), the size of the terms
        scale = max(abs(theta_cl), abs(get_profile(spec).phi(a)), 1e-300)
        rel_t = abs(theta_quad - theta_cl) / scale
        rows.append([spec.token, spec.n, a, k_quad, k_cl, theta_quad, theta_cl, rel_k, rel_t])
    header = [
        "family",
        "n",
        "a",
        "K_quad",
        "K_closed",
        "Theta_quad",
        "Theta_closed",
        "rel_err_K",
        "rel_err_Theta",
    ]
    if args.format == "json":
        return _json_payload([dict(zip(header, row)) for row in rows])
    return _csv(rows, header)


def _cmd_bound(args) -> str:
    spec = _spec_from_args(args)
    report = bd.best_finite_bound(spec, args.points)
    if args.format == "csv":
        rows = [[a, b] for a, b in report.radius_grid]
        return _csv(rows, ["a", "bound"])
    return _json_payload(report.to_dict())


def _cmd_compare(args) -> str:
    spec_family = ManifoldSpec.from_token(args.family, args.n_min or 2).family
    if spec_family is Family.CAYLEY_PLANE:
        n_min = n_max = 2
    else:
        if args.n_min is None or args.n_max is None:
            raise GreenLabError("compare needs --n-min and --n-max for this family")
        n_min, n_max = args.n_min, args.n_max
    rows = bd.compare_table(spec_family, n_min, n_max)
    if args.format == "json":
        return _json_payload(
            [
                {"n": n, "ours": ours, "matzke": prior, "ratio": ratio}
                for n, ours, prior, ratio in rows
            ]
        )
    return _csv([list(r) for r in rows], ["n", "ours", "matzke", "ratio"])


def _cmd_energy(args) -> str:
    with open(args.config) as fh:
        cfg = load_configuration(fh)
    report = en.EnergyReport.from_configuration(cfg, seed=args.seed)
    return _json_payload(report.to_dict())


def _cmd_optimize(args) -> str:
    spec = _spec_from_args(args)
    # the energy of the last accepted step, not a second sweep over the pairs
    cfg, e = en._optimized(spec, args.points, args.iters, args.seed)
    buf = io.StringIO()
    save_configuration(cfg, buf)
    sys.stderr.write(f"final energy {_FMT.format(e)}\n")
    return buf.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="greenlab",
        description="Green functions, energies and certified lower bounds on "
        "compact harmonic manifolds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each subcommand registers only the options it reads, so the manifest's
    # parameters are exactly the knobs that shaped the result
    def family(p, n=True):
        p.add_argument("--family", required=True, choices=["s", "rp", "cp", "hp", "op2"])
        if n:
            p.add_argument("--n", type=int, default=None, help="dimension parameter")

    def output(p, default_format=None):
        p.add_argument("--out", default=None, help="payload file; manifest lands alongside")
        if default_format:
            p.add_argument("--format", choices=["csv", "json"], default=default_format)

    p = sub.add_parser("profile", help="dump the radial Green profile grid")
    family(p)
    output(p, "csv")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("ball", help="ball kernels by quadrature and closed form")
    family(p)
    output(p, "csv")
    p.add_argument("--grid-size", type=int, default=8)
    p.add_argument("--radius", type=float, action="append", help="explicit radius (repeatable)")
    p.set_defaults(fn=_cmd_ball)

    p = sub.add_parser("bound", help="maximize the finite-N lower bound")
    family(p)
    output(p, "json")
    p.add_argument("--points", type=int, required=True, help="number of points N")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("compare", help="our coefficients against the prior ones")
    family(p, n=False)
    output(p, "csv")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("energy", help="energy report for a configuration file")
    output(p)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0, help="recorded in the report")
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("optimize", help="Riemannian gradient descent from a random start")
    family(p)
    output(p)
    p.add_argument("--points", type=int, required=True)
    p.add_argument(
        "--iters",
        type=int,
        default=200,
        help="sweeps; each is 3 steps, every step one gradient over all pairs "
        "and one backtracking line search that moves every point; up to 256 "
        "points the gradient reads the accepted trial's pairs, with no "
        "sweep of its own",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        if args.subcommand == "verify":
            ok = run_verification(quick=args.quick)
            return 0 if ok else 1
        payload = args.fn(args)
    except (GreenLabError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    manifest = RunManifest(
        subcommand=args.subcommand,
        parameters={
            k: v for k, v in vars(args).items() if k not in ("subcommand", "fn")
        },
        seed=getattr(args, "seed", None),
        version=__version__,
        wall_time_s=time.monotonic() - start,
    )
    _emit(args, payload, manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
