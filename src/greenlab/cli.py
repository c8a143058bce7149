"""Command line interface.

Subcommands: profile, ball, bound, compare, energy, optimize, verify.
Every run emits the payload (CSV with 17 significant digits, or JSON) plus
a run manifest with the full parameter set, seed, version and wall time;
with --out the manifest lands next to the payload as <out>.manifest.json,
otherwise it goes to stderr. JSON payloads and manifests are exactly the
bytes of `json.dumps(obj, indent=2)` (the manifest with `default=str`),
written by `_json_text`, which keeps the C encoder's float and string
forms without the pure-Python encoder that `indent` selects. Identical
invocations with the same seed reproduce payload bytes exactly.

One table, `_COMMANDS`, gives each subcommand its help line and options.
A run is parsed by its subcommand's parser alone; the top-level parser,
with all seven under it, is built only for what it answers itself (help,
--version, usage errors). `verify` and its oracles load only for the
verify command.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from dataclasses import dataclass
from itertools import chain

from . import __version__
from . import ball_stats as bs
from . import bounds as bd
from . import energy as en
from .errors import DomainError, GreenLabError
from .green import get_profile
from .manifold import (
    _CLI_TOKENS,
    Family,
    ManifoldSpec,
    diameter,
    load_configuration,
    save_configuration,
)

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


_ESCAPE = json.encoder.encode_basestring_ascii  # the C encoder's, ensure_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # allow_nan


def _float_text(x) -> str:
    """A float (np.float64 included) as the JSON encoder writes it."""
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


_SCALARS = {
    str: _ESCAPE,
    float: _float_text,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _key_text(key) -> str:
    """A dict key as the JSON encoder writes it: a string, or a scalar's text quoted."""
    if isinstance(key, str):
        return _ESCAPE(key)
    if key is None or isinstance(key, (int, float)):  # bools are ints
        return _ESCAPE(_json_value(key, "", None))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_rows(rows, indent: str) -> str | None:
    """The items of a list of float lists of one width, laid out at indent and
    joined, or None for any other list: one template filled with every cell."""
    first = rows[0]
    width = len(first) if type(first) is list else 0
    if not width or any(type(row) is not list or len(row) != width for row in rows):
        return None
    try:
        cells = tuple(map(float.__repr__, chain.from_iterable(rows)))
    except TypeError:
        return None
    inner = indent + "  "
    row = "[" + inner + ("," + inner).join(["%s"] * width) + indent + "]"
    template = ("," + indent).join([row] * len(rows))
    text = template % cells
    if "n" in text:  # a NaN or an infinity: no other cell, nor the layout, holds an n
        text = template % tuple(map(_float_text, chain.from_iterable(rows)))
    return text


def _json_value(obj, indent: str, default) -> str:
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        body = _float_rows(obj, inner) or ("," + inner).join([_json_value(v, inner, default) for v in obj])
        return "[" + inner + body + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join(
            [
                (_ESCAPE(k) if type(k) is str else _key_text(k)) + ": " + _json_value(v, inner, default)
                for k, v in obj.items()
            ]
        ) + indent + "}"
    # subclasses, as the encoder takes them: np.float64, IntEnum, str subclasses
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if default is None:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    return _json_value(default(obj), indent, default)


def _json_text(obj, default=None) -> str:
    """Exactly `json.dumps(obj, indent=2, default=default)`, laid out by joins.

    Floats take `float.__repr__` (NaN and the infinities as the encoder
    spells them), ints `int.__repr__` and strings the C encoder's
    `encode_basestring_ascii`; tuples are lists, and `[]`/`{}` stay empty.
    Unlike `json.dumps` it does not look for circular references.
    """
    return _json_value(obj, "\n", default)


def _emit(args, payload: str, manifest: RunManifest) -> None:
    # the fields as they are: asdict would deep-copy the parameters first
    manifest_json = _json_text(vars(manifest), default=str)
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
    return _json_text(obj) + "\n"


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
    family = _CLI_TOKENS[args.family]
    n_min, n_max = args.n_min, args.n_max
    if family is Family.CAYLEY_PLANE:  # n = 2 where a bound is not given
        n_min, n_max = (2 if n is None else n for n in (n_min, n_max))
    elif n_min is None or n_max is None:
        raise GreenLabError("compare needs --n-min and --n-max for this family")
    rows = bd.compare_table(family, n_min, n_max)
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
    report = en.EnergyReport.from_configuration(cfg)
    return _json_payload(report.to_dict())


def _cmd_optimize(args) -> str:
    spec = _spec_from_args(args)
    # the energy of the last accepted step, not a second sweep over the pairs
    cfg, e = en.optimize(spec, args.points, args.iters, args.seed)
    buf = io.StringIO()
    save_configuration(cfg, buf)
    sys.stderr.write(f"final energy {_FMT.format(e)}\n")
    return buf.getvalue()


# each subcommand registers only the options it reads, so the manifest's
# parameters are exactly the knobs that shaped the result
def _family(p, n=True):
    p.add_argument("--family", required=True, choices=["s", "rp", "cp", "hp", "op2"])
    if n:
        p.add_argument("--n", type=int, default=None, help="dimension parameter")


def _output(p, default_format=None):
    p.add_argument("--out", default=None, help="payload file; manifest lands alongside")
    if default_format:
        p.add_argument("--format", choices=["csv", "json"], default=default_format)


def _profile_options(p):
    _family(p)
    _output(p, "csv")


def _ball_options(p):
    _family(p)
    _output(p, "csv")
    p.add_argument("--grid-size", type=int, default=8)
    p.add_argument("--radius", type=float, action="append", help="explicit radius (repeatable)")


def _bound_options(p):
    _family(p)
    _output(p, "json")
    p.add_argument("--points", type=int, required=True, help="number of points N")


def _compare_options(p):
    _family(p, n=False)
    _output(p, "csv")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)


def _energy_options(p):
    _output(p)
    p.add_argument("--config", required=True)


def _optimize_options(p):
    _family(p)
    _output(p)
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


def _verify_options(p):
    p.add_argument("--quick", action="store_true")


# name -> (help line, the function that adds its options, the command; verify's is in `main`)
_COMMANDS = {
    "profile": ("dump the radial Green profile grid", _profile_options, _cmd_profile),
    "ball": ("ball kernels by quadrature and closed form", _ball_options, _cmd_ball),
    "bound": ("maximize the finite-N lower bound", _bound_options, _cmd_bound),
    "compare": ("our coefficients against the prior ones", _compare_options, _cmd_compare),
    "energy": ("energy report for a configuration file", _energy_options, _cmd_energy),
    "optimize": ("Riemannian gradient descent from a random start", _optimize_options, _cmd_optimize),
    "verify": ("run the invariant suite", _verify_options, None),
}


@functools.cache
def _parsers() -> argparse.ArgumentParser:
    """The top-level parser, with every subcommand's parser under it, built
    once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="greenlab",
        description="Green functions, energies and certified lower bounds on "
        "compact harmonic manifolds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, options, fn) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        options(p)
        p.set_defaults(fn=fn)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser `_parsers` puts under `name`, built alone: `add_parser`
    gives a subcommand's parser no setting but its prog."""
    _, options, fn = _COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"greenlab {name}")
    options(p)
    p.set_defaults(fn=fn)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The top-level parser's `parse_args(argv)`: the same namespace, output
    and exit status.

    Given a subcommand first, that parser only hands the rest to the
    subcommand's parser, and then reports what is left over, so this does
    both directly, with that subcommand's parser alone. The top-level
    parser is built only for what it answers itself: help, --version, a
    missing or unknown subcommand, and arguments left over.
    """
    if not argv or argv[0] not in _COMMANDS:
        return _parsers().parse_args(argv)
    args, extra = _command_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
    if extra:
        _parsers().error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))

    start = time.monotonic()
    try:
        if args.subcommand == "verify":
            from .verify import run_verification  # the oracles load only for verify

            return 0 if run_verification(quick=args.quick) else 1
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
