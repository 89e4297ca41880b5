"""Command-line entry point.

Subcommands either reproduce the data behind the package's figures as CSV
(psi-curve, drift-surface, fixation-heatmap, fixation-vs-b0, g-plot,
h-contour) or emit single JSON results (mc-compare, reduce).  Every CSV starts
with a comment header recording the tool version, the fully resolved
parameters, and the seed, so re-running the header's parameters reproduces the
file byte-for-byte.  One function, ``_write_csv``, writes every figure: one row
per point of its grid axes, first axis outermost, each value ``repr`` of a float.

Exit codes: 0 success, otherwise the ``exit_code`` of the package error raised
(2 validation error, 3 numerical failure, 1 any other package error).
"""

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .branching_phase import psi
from .core_model import (
    Banks,
    FastEnvSpec,
    check_positive_int,
    check_seed,
    validate_distribution,
)
from .diffusion_limits import (
    _bounding_fixation,
    constant_coefficients_vec,
    fast_coefficients_vec,
    g_function,
    kolmogorov_fixation,
    scale_fixation,
)
from .errors import NumericalError, SeedbankError, ValidationError
from .manifold_reduction import reduce_point
from .seedbank_flows import (
    FlowKind,
    build_flow,
    drift_factor_fn,
    h_function,
    hessians_on_gamma,
    jacobian_on_gamma,
    manifold_chart,
)
from .wf_simulators import _mature_size, make_env_process, run_fixation


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _csv_header(subcommand, params, seed):
    lines = [f"# seedbank {__version__}", f"# subcommand = {subcommand}"]
    for key in sorted(params):
        lines.append(f"# {key} = {_fmt(params[key])}")
    lines.append(f"# seed = {seed}")
    return lines


def _write_csv(args, subcommand, params, names, axes, *columns):
    """Write a figure's CSV: the header, the column ``names``, and one row per
    point of the grid of ``axes`` (first axis outermost): its axis values, each
    formatted once, then its entry of each column (tables read row-major)."""
    labels = [map(repr, np.asarray(a, dtype=float).tolist()) for a in axes]
    cells = [map(repr, np.asarray(c, dtype=float).ravel().tolist()) for c in columns]
    rows = zip(map(",".join, itertools.product(*labels)), *cells, strict=True)
    _emit(args.out, [*_csv_header(subcommand, params, args.seed), names,
                     *map(",".join, rows)])


def _parse_floats(text, flag):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse {flag} value {text!r}") from exc


def _check_positive(flag, value):
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{flag} must be positive and finite, got {value!r}")


def _check_within(flag, value, low, high):
    if not low <= value <= high:
        raise ValidationError(f"{flag} must lie in [{low:g}, {high:g}], got {value!r}")


def cmd_psi_curve(args):
    check_positive_int("--steps", args.steps)
    b_values = _parse_floats(args.B, "--B")
    if not all(0.0 <= big_b < math.inf for big_b in b_values):
        raise ValidationError("B values must be non-negative and finite")
    _check_positive("--ymax", args.ymax)
    ys = np.linspace(0.0, args.ymax, args.steps + 1)
    _write_csv(args, "psi-curve", {"B": args.B, "ymax": args.ymax, "steps": args.steps},
               "B,y,psi", (b_values, ys), psi(np.array(b_values)[:, None], ys))


def cmd_drift_surface(args):
    check_positive_int("--grid", args.grid)
    b0s = np.linspace(0.0, 1.0, args.grid + 1)[1:]  # b0 > 0 strictly
    x0s = np.linspace(0.0, 1.0, args.grid)
    banks = Banks(np.stack([b0s, 1.0 - b0s], axis=1))
    _write_csv(args, "drift-surface", {"grid": args.grid}, "b0,x0,d2phi0_dx02",
               (b0s, x0s), drift_factor_fn(banks)(x0s))


def cmd_fixation_heatmap(args):
    check_positive_int("--grid", args.grid)
    y = args.y
    _check_within("--y", y, 0.0, 1.0)
    b0s = np.linspace(0.0, 1.0, args.grid + 1)[1:]  # include the b0 = 1 edge
    qs = np.linspace(0.0, 1.0, args.grid)
    # one bank per (b0, q), b0 outermost
    b0, q = np.repeat(b0s, len(qs)), np.tile(qs, len(b0s))
    banks = Banks(np.stack([b0, q * (1.0 - b0), (1.0 - q) * (1.0 - b0)], axis=1))
    starts = psi(banks.mean_time, y)
    fixes = scale_fixation(*constant_coefficients_vec(banks), starts)
    bounds = _bounding_fixation(banks.mean_time, starts)
    _write_csv(args, "fixation-heatmap", {"grid": args.grid, "y": y},
               "b0,q,fixation,psi_bound,difference", (b0s, qs), fixes, bounds,
               np.subtract(bounds, fixes))


def cmd_fixation_vs_b0(args):
    check_positive_int("--steps", args.steps)
    # the march starts at psi_B(y), and psi_0(y) = y: b0 = 1 is on the grid
    if not 0.0 < args.y < 1.0:
        raise ValidationError(f"--y must lie in (0, 1), got {args.y!r}")
    _check_positive("--r", args.r)
    xi_infs = _parse_floats(args.xi_inf, "--xi-inf")
    for xi_inf in xi_infs:
        _check_positive("--xi-inf", xi_inf)
    b0s = np.linspace(0.0, 1.0, args.steps + 1)[1:]
    banks = Banks(np.stack([b0s, 1.0 - b0s], axis=1))
    starts = psi(banks.mean_time, args.y)
    fixes = [kolmogorov_fixation(banks, {"r": args.r, "xi_inf": xi_inf}, starts)
             for xi_inf in xi_infs]
    params = {"xi_inf": args.xi_inf, "r": args.r, "steps": args.steps, "y": args.y}
    _write_csv(args, "fixation-vs-b0", params, "xi_inf,b0,fixation", (xi_infs, b0s),
               fixes)


def cmd_g_plot(args):
    check_positive_int("--steps", args.steps)
    xis = np.array(_parse_floats(args.xi, "--xi"))
    if not np.all((xis > 0.0) & np.isfinite(xis)):
        raise ValidationError("xi values must be positive and finite")
    if args.b:
        # an explicit bank overrides --B; its own mean time labels the rows
        d = Banks([_parse_floats(args.b, "--b")])
        big_bs = d.mean_time
    else:
        # realize mean time B with a two-generation bank: b1 = b2 = B/3, and
        # b0 = 1 - 2B/3 > 0 needs B < 1.5
        big_bs = _parse_floats(args.B, "--B")
        if not all(0.0 <= big_b < 1.5 for big_b in big_bs):
            raise ValidationError(f"--B values must lie in [0, 1.5), the mean times of "
                                  f"the banks (1 - 2B/3, B/3, B/3); got {args.B!r}")
        d = Banks([[1.0 - 2.0 * big_b / 3.0, big_b / 3.0, big_b / 3.0]
                   for big_b in big_bs])
    rhos = np.linspace(0.0, 1.0, args.steps)
    # one (xi, bank, rho0) table, for one evaluation of the stack's phi''
    tables = g_function(d, rhos, xis[:, None, None])
    params = {"xi": args.xi, "B": args.B, "steps": args.steps, "b": args.b or ""}
    _write_csv(args, "g-plot", params, "xi,B,rho0,g", (xis, big_bs, rhos), tables)


def cmd_h_contour(args):
    check_positive_int("--grid", args.grid)
    xs = np.linspace(0.0, 1.0, args.grid)
    _write_csv(args, "h-contour", {"grid": args.grid}, "x0,b0,h", (xs, xs),
               h_function(xs[:, None], xs))


def cmd_mc_compare(args):
    d = validate_distribution(_parse_floats(args.b, "--b"))
    check_positive_int("--N", args.N)
    _check_within("--start", args.start, 0.0, 1.0)
    # run_fixation's checks, by flag, before the prediction's solve
    if args.replicates < 100:
        raise ValidationError(f"--replicates must be at least 100, got {args.replicates}")
    check_positive_int("--max-generations", args.max_generations)
    check_seed(args.seed, "--seed")
    if args.regime == "slow":
        # the Kolmogorov march starts strictly inside (0, 1)
        if not 0.0 < args.start < 1.0:
            raise ValidationError(f"--start must lie in (0, 1) in the slow regime, "
                                  f"got {args.start!r}")
        # the prediction's logistic environment needs both positive
        _check_positive("--r", args.r)
        _check_positive("--xi-inf", args.xi_inf)
    elif args.regime == "fast":
        _check_within("--p", args.p, 0.0, 0.5)
        _check_positive("--s", args.s)
    env = fenv = None
    # the prediction first: a regime it does not cover (the fast one at K >= 2)
    # fails before the Monte Carlo runs
    if args.regime == "slow":
        env = make_env_process("deterministic_logistic", xi_min=args.xi_min,
                               xi_max=args.xi_max, n_pop=args.N, r=args.r,
                               xi_inf=args.xi_inf)
        # both the simulation and the prediction start at xi = 1
        if not args.xi_min <= 1.0 <= args.xi_max:
            raise ValidationError(f"--xi-min {args.xi_min} and --xi-max {args.xi_max} "
                                  "must bracket the start xi = 1")
        if _mature_size(args.xi_min, args.N) < 1:
            raise ValidationError(f"--xi-min {args.xi_min} times --N {args.N} is below 1: "
                                  "the mature population can be empty")
        prediction = kolmogorov_fixation(d, {"r": args.r, "xi_inf": args.xi_inf},
                                         args.start)
    elif args.regime == "fast":
        fenv = FastEnvSpec(p=args.p, s=args.s)
        prediction = scale_fixation(*fast_coefficients_vec(d, fenv), args.start)
    else:
        prediction = scale_fixation(*constant_coefficients_vec(d), args.start)
    estimate = run_fixation(args.regime, d, args.N, args.start, args.replicates,
                            args.max_generations, args.seed, env=env, fenv=fenv)
    payload = {
        "estimate": estimate.to_dict(),
        "diffusion_prediction": prediction,
    }
    _emit(args.out, [json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)])


def cmd_reduce(args):
    try:
        spec = json.loads(args.spec)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--spec is not valid JSON: {exc}") from None
    if not isinstance(spec, dict) or not {"b", "tag", "x0"} <= spec.keys():
        raise ValidationError('reduce spec needs a JSON object with keys "tag", "b", and "x0"')
    x0 = spec["x0"]
    if isinstance(x0, bool) or not isinstance(x0, (int, float)) or not math.isfinite(x0):
        raise ValidationError(f'"x0" must be a finite number, got {x0!r}')
    d = validate_distribution(spec["b"])
    kind = FlowKind(spec["tag"], d)
    # the chart first: it refuses slow_env with the engine's own reason
    chart = manifold_chart(kind)
    flow = build_flow(kind)
    flow.jac = lambda x: jacobian_on_gamma(kind, x[0])
    flow.hess = lambda x: hessians_on_gamma(kind, x[0])
    result = reduce_point(flow, chart, float(x0)).to_dict()
    _emit(args.out, [json.dumps(result, indent=2, sort_keys=True, allow_nan=False)])


@functools.lru_cache(maxsize=None)
def build_parser():
    """The ``seedbank`` argument parser, built once per process: every call
    returns the same parser, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="seedbank",
        description="Seed-bank population models: figure data, reduction "
        "engine, and Monte Carlo comparisons.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("psi-curve", help="splice map psi_B(y) curves")
    p.add_argument("--B", default="0,0.1,0.5,1,2")
    p.add_argument("--ymax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_psi_curve)

    p = sub.add_parser("drift-surface", help="drift second derivative over (b0, x0)")
    p.add_argument("--grid", type=int, default=21)
    common(p)
    p.set_defaults(func=cmd_drift_surface)

    p = sub.add_parser("fixation-heatmap",
                       help="K=2 fixation probability, bound, and difference")
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--y", type=float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_fixation_heatmap)

    p = sub.add_parser("fixation-vs-b0",
                       help="logistic-environment fixation curves")
    p.add_argument("--xi-inf", dest="xi_inf", default="0.7,0.8,0.9,1.0,1.1,1.2")
    p.add_argument("--r", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--y", type=float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_fixation_vs_b0)

    p = sub.add_parser("g-plot", help="population-size fluctuation diagnostic g")
    p.add_argument("--xi", default="0.8,1.2")
    p.add_argument("--B", default="0.1,0.5,1.0")
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--b", default=None,
                   help="explicit germination distribution overriding --B")
    common(p)
    p.set_defaults(func=cmd_g_plot)

    p = sub.add_parser("h-contour", help="fast-environment extra-drift surface")
    p.add_argument("--grid", type=int, default=101)
    common(p)
    p.set_defaults(func=cmd_h_contour)

    p = sub.add_parser("mc-compare",
                       help="discrete Monte Carlo vs diffusion prediction")
    p.add_argument("--regime", choices=["constant", "slow", "fast"], required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--max-generations", type=int, default=10**6)
    p.add_argument("--p", type=float, default=0.25, help="fast regime mark probability")
    p.add_argument("--s", type=float, default=1.0, help="fast regime selection scale")
    p.add_argument("--r", type=float, default=20.0, help="slow regime logistic rate")
    p.add_argument("--xi-inf", dest="xi_inf", type=float, default=1.0)
    p.add_argument("--xi-min", dest="xi_min", type=float, default=0.1)
    p.add_argument("--xi-max", dest="xi_max", type=float, default=2.0)
    common(p)
    p.set_defaults(func=cmd_mc_compare)

    p = sub.add_parser("reduce", help="manifold reduction of a built-in flow")
    p.add_argument("--spec", required=True,
                   help='JSON like {"tag": "constant", "b": [0.5, 0.5], "x0": 0.3}')
    common(p)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except SeedbankError as exc:
        prefix = "numerical failure" if isinstance(exc, NumericalError) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
