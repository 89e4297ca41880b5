"""Command-line entry point.

Subcommands either reproduce the data behind the package's figures as CSV
(psi-curve, drift-surface, fixation-heatmap, fixation-vs-b0, g-plot,
h-contour) or emit single JSON results (mc-compare, reduce).  Every CSV starts
with a comment header recording the tool version, the fully resolved
parameters, and the seed, so re-running the header's parameters reproduces the
file byte-for-byte.

Exit codes: 0 success, 2 validation error (bad inputs), 3 numerical failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .branching_phase import psi
from .core_model import (
    FastEnvSpec,
    distribution_from_cli,
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
    drift_second_derivative,
    eigvecs_on_gamma,
    h_function,
    hessians_on_gamma,
    jacobian_on_gamma,
    manifold_chart,
)
from .wf_simulators import make_env_process, run_fixation


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


def _parse_floats(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse list {text!r}") from exc


def _check_count(name, value):
    if value < 1:
        raise ValidationError(f"--{name} must be at least 1, got {value}")


def cmd_psi_curve(args):
    _check_count("steps", args.steps)
    b_values = _parse_floats(args.B)
    if not all(0.0 <= big_b < math.inf for big_b in b_values):
        raise ValidationError("B values must be non-negative and finite")
    if not 0.0 < args.ymax < math.inf:
        raise ValidationError(f"--ymax must be positive and finite, got {args.ymax}")
    params = {"B": args.B, "ymax": args.ymax, "steps": args.steps}
    lines = _csv_header("psi-curve", params, args.seed)
    lines.append("B,y,psi")
    ys = np.linspace(0.0, args.ymax, args.steps + 1)
    for big_b in b_values:
        for y in ys:
            lines.append(f"{_fmt(big_b)},{_fmt(float(y))},{_fmt(psi(big_b, float(y)))}")
    _emit(args.out, lines)


def cmd_drift_surface(args):
    _check_count("grid", args.grid)
    params = {"grid": args.grid}
    lines = _csv_header("drift-surface", params, args.seed)
    lines.append("b0,x0,d2phi0_dx02")
    b0s = np.linspace(0.0, 1.0, args.grid + 1)[1:]  # b0 > 0 strictly
    x0s = np.linspace(0.0, 1.0, args.grid)
    for b0 in b0s:
        d = validate_distribution([b0, 1.0 - b0])
        for x0, val in zip(x0s, drift_second_derivative(d, x0s)):
            lines.append(f"{_fmt(float(b0))},{_fmt(float(x0))},{_fmt(val)}")
    _emit(args.out, lines)


def cmd_fixation_heatmap(args):
    _check_count("grid", args.grid)
    params = {"grid": args.grid, "y": args.y}
    lines = _csv_header("fixation-heatmap", params, args.seed)
    lines.append("b0,q,fixation,psi_bound,difference")
    y = args.y
    b0s = np.linspace(0.0, 1.0, args.grid + 1)[1:]  # include the b0 = 1 edge
    qs = np.linspace(0.0, 1.0, args.grid)
    cells = [(b0, q) for b0 in b0s for q in qs]
    ds = [validate_distribution([b0, q * (1.0 - b0), (1.0 - q) * (1.0 - b0)])
          for b0, q in cells]
    # psi and the bound per cell, on scalars: on an array psi's (B + 1)**2 is
    # a multiply, on a scalar a C pow, and 2 of the README map's 2,500 starts
    # would move in the last bit; one batched scale solve for the map
    starts = [psi(d.mean_time, y) for d in ds]
    fixes = scale_fixation(*constant_coefficients_vec(ds), starts)
    for (b0, q), d, start, fix in zip(cells, ds, starts, fixes):
        bound = _bounding_fixation(d.mean_time, start)
        lines.append(
            f"{_fmt(float(b0))},{_fmt(float(q))},{_fmt(fix)},"
            f"{_fmt(bound)},{_fmt(bound - fix)}"
        )
    _emit(args.out, lines)


def cmd_fixation_vs_b0(args):
    _check_count("steps", args.steps)
    xi_infs = _parse_floats(args.xi_inf)
    params = {"xi_inf": args.xi_inf, "r": args.r, "steps": args.steps, "y": args.y}
    lines = _csv_header("fixation-vs-b0", params, args.seed)
    lines.append("xi_inf,b0,fixation")
    b0s = np.linspace(0.0, 1.0, args.steps + 1)[1:]
    ds = [validate_distribution([b0, 1.0 - b0]) for b0 in b0s]
    starts = [psi(d.mean_time, args.y) for d in ds]
    for xi_inf in xi_infs:
        fixes = kolmogorov_fixation(ds, {"r": args.r, "xi_inf": xi_inf}, starts)
        for b0, fix in zip(b0s, fixes):
            lines.append(f"{_fmt(float(xi_inf))},{_fmt(float(b0))},{_fmt(fix)}")
    _emit(args.out, lines)


def cmd_g_plot(args):
    _check_count("steps", args.steps)
    xis = np.array(_parse_floats(args.xi))
    if not np.all((xis > 0.0) & np.isfinite(xis)):
        raise ValidationError("xi values must be positive and finite")
    params = {"xi": args.xi, "B": args.B, "steps": args.steps, "b": args.b or ""}
    lines = _csv_header("g-plot", params, args.seed)
    lines.append("xi,B,rho0,g")
    if args.b:
        # an explicit bank overrides --B; its own mean time labels the rows
        d = distribution_from_cli(args.b)
        banks = [(d.mean_time, d)]
    else:
        # realize mean time B with a two-generation bank: b1 = b2 = B/3, and
        # b0 = 1 - 2B/3 > 0 needs B < 1.5
        big_bs = _parse_floats(args.B)
        if not all(0.0 <= big_b < 1.5 for big_b in big_bs):
            raise ValidationError(f"--B values must lie in [0, 1.5), the mean times of "
                                  f"the banks (1 - 2B/3, B/3, B/3); got {args.B!r}")
        banks = [(big_b, validate_distribution([1.0 - 2.0 * big_b / 3.0, big_b / 3.0,
                                                big_b / 3.0]))
                 for big_b in big_bs]
    rhos = np.linspace(0.0, 1.0, args.steps)
    # one (xi, rho0) table per bank, for one evaluation of phi''
    tables = [g_function(d, rhos, xis[:, None]) for _, d in banks]
    for i, xi in enumerate(xis):
        for (big_b, _), table in zip(banks, tables):
            for rho, val in zip(rhos, table[i]):
                lines.append(
                    f"{_fmt(float(xi))},{_fmt(float(big_b))},"
                    f"{_fmt(float(rho))},{_fmt(val)}"
                )
    _emit(args.out, lines)


def cmd_h_contour(args):
    _check_count("grid", args.grid)
    params = {"grid": args.grid}
    lines = _csv_header("h-contour", params, args.seed)
    lines.append("x0,b0,h")
    xs = np.linspace(0.0, 1.0, args.grid)
    b0s = np.linspace(0.0, 1.0, args.grid)
    for x0 in xs:
        for b0 in b0s:
            lines.append(
                f"{_fmt(float(x0))},{_fmt(float(b0))},"
                f"{_fmt(h_function(float(x0), float(b0)))}"
            )
    _emit(args.out, lines)


def cmd_mc_compare(args):
    d = distribution_from_cli(args.b)
    env = None
    fenv = None
    if args.regime == "slow":
        env = make_env_process(
            "deterministic_logistic",
            xi_min=args.xi_min,
            xi_max=args.xi_max,
            n_pop=args.N,
            r=args.r,
            xi_inf=args.xi_inf,
        )
    if args.regime == "fast":
        fenv = FastEnvSpec(p=args.p, s=args.s)
    # the prediction first: a regime it does not cover (the fast one at K >= 2)
    # fails before the Monte Carlo runs
    if args.regime == "slow":
        prediction = kolmogorov_fixation(
            d, {"r": args.r, "xi_inf": args.xi_inf}, args.start
        )
    else:
        pair = (constant_coefficients_vec(d) if args.regime == "constant"
                else fast_coefficients_vec(d, fenv))
        prediction = scale_fixation(*pair, args.start)
    estimate = run_fixation(
        args.regime,
        d,
        args.N,
        args.start,
        args.replicates,
        args.max_generations,
        args.seed,
        threads=args.threads,
        env=env,
        fenv=fenv,
    )
    payload = {
        "estimate": estimate.to_dict(),
        "diffusion_prediction": prediction,
    }
    _emit(args.out, [json.dumps(payload, indent=2, sort_keys=True)])


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
    flow = build_flow(kind)
    flow.jac = lambda x: jacobian_on_gamma(kind, x[0])
    flow.hess = lambda x: hessians_on_gamma(kind, x[0])
    chart = manifold_chart(kind)
    result = reduce_point(flow, chart, float(x0))
    _emit(args.out, [json.dumps(result.to_dict(), indent=2, sort_keys=True)])


def build_parser():
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
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_mc_compare)

    p = sub.add_parser("reduce", help="manifold reduction of a built-in flow")
    p.add_argument("--spec", required=True,
                   help='JSON like {"tag": "constant", "b": [0.5, 0.5], "x0": 0.3}')
    common(p)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SeedbankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
