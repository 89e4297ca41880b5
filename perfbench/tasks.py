"""Benchmark tasks: one task per end-to-end timing metric.

A workload runs its own tasks at full size and every other task at probe
size: the smallest input that still goes through the same entry point.  So
every timing metric is measured on every workload, while each workload's time
goes to the layers it is meant to stress.  Probe-size tasks on the other
workloads keep ``solve_theta`` calls to a handful, except the README
``drift-surface`` figure, which calls the Lyapunov solver directly.

A task is a list of steps (one CLI call, one simulator run, ...) of a few
tenths of a second each, so that the calibration kernel timed between steps
follows the machine's speed closely.  ``prepare`` is untimed and deletes the
outputs, so a stale file cannot pass; the steps are timed; ``check`` is
untimed and returns one (label, ok, detail) triple per check.  Inputs depend
only on the workload seed: the Monte Carlo master seeds and the deep-bank
germination distributions are drawn from it.
"""

import functools
import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

import seedbank.cli as cli
from seedbank import core_model, diffusion_limits, manifold_reduction, seedbank_flows
from seedbank import wf_simulators

REFERENCE = Path(__file__).resolve().parent / "reference"

# Tolerances the ROADMAP's batched-sweep item must meet (absolute).
TOL_SCALE = 1e-9
TOL_PDE = 1e-10
TOL_ORACLE = 1e-8  # relative, phi'' against the theta_integral quadrature
TOL_KOLMOGOROV_VS_SCALE = 1e-4  # PDE grid error at n_space=201, xi_inf = 1


def mc_tolerance(std_err, n_pop):
    """Allowed |p_hat - diffusion prediction| for a discrete chain.

    Four standard errors for sampling plus 5/N for the O(1/N) bias of the
    discrete chain against its diffusion limit: at N=300 the constant regime
    sits 0.008 and the slow regime 0.015 from the prediction, more than a
    2-se gate allows for correct code.
    """
    return 4.0 * std_err + 5.0 / n_pop


EM_DT = 5e-3
EM_BIAS = 0.01  # Euler-Maruyama bias of the absorption probability at dt=5e-3


def _subseed(seed, tag):
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def master_seed(seed, tag):
    return int(_subseed(seed, tag).integers(0, 2**31 - 1))


def deep_distribution(seed, tag, k, b0_lo, b0_hi):
    """Germination distribution of depth ``k`` drawn from the workload seed.

    b0 is uniform on [b0_lo, b0_hi]; the dormant mass 1 - b0 is split by a
    Dirichlet(64) draw.  The narrow band and the concentrated split keep the
    mean dormancy B, and with it the cost, within a few percent across seeds.
    """
    rng = _subseed(seed, tag)
    b0 = float(rng.uniform(b0_lo, b0_hi))
    tail = rng.dirichlet(np.full(k, 64.0))
    b = [b0] + [float(x) for x in (1.0 - b0) * tail]
    b[-1] = 1.0 - sum(b[:-1])
    return core_model.validate_distribution(b)


def b_arg(d):
    return ",".join(repr(x) for x in d.b)


def phi2_oracle(d, x0):
    """phi''(x0) from the theta_integral quadrature instead of the direct
    Lyapunov solve (same flow, Jacobian and Hessian)."""
    kind = seedbank_flows.FlowKind("constant", d)
    jac = seedbank_flows.jacobian_on_gamma(kind, x0)
    u, v = seedbank_flows.eigvecs_on_gamma(kind, x0)
    _, p_s = manifold_reduction.projections(u, v)
    delta, _ = seedbank_flows.delta_matrix(d)
    hessians = [2.0 * (1.0 - x0) * delta] + [np.zeros_like(delta)] * d.k
    theta = manifold_reduction.theta_integral(jac, hessians, v, p_s)
    return seedbank_flows.drift_bound(d.mean_time, x0) - theta[0, 0]


def fixation_bound(big_b, v):
    """Fixation probability of the bounding diffusion from start v."""
    e = math.exp(-big_b * v)
    return 1.0 - e + v * e


def scale_prediction(d, start):
    spec = diffusion_limits.sde_constant(d)
    return diffusion_limits.scale_fixation(
        lambda x: spec.drift(np.array([x]))[0],
        lambda x: spec.diffusion(np.array([x]))[0, 0],
        start,
    )


def _close(a, b, tol):
    return abs(a - b) <= tol


def read_csv(path):
    """(column names, float rows) of a seedbank CSV, skipping '#' lines."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return names, rows.reshape(len(lines) - 1, len(names))


def _flatten(obj):
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _flatten(obj[key])]
    if isinstance(obj, list):
        return [x for item in obj for x in _flatten(item)]
    return [float(obj)]


class Task:
    """Base task: ``metric`` names the end-to-end timing it feeds."""

    metric = None

    def __init__(self, size, seed, outdir):
        self.size, self.seed, self.outdir = size, seed, Path(outdir)
        self.first = None  # first pass's results, to check passes agree

    def argv(self):
        return []

    def prepare(self):
        pass

    def steps(self):
        """Zero-argument callables, timed one by one."""
        raise NotImplementedError

    def check(self, results):
        """Checks of the step results (a list, one per step)."""
        raise NotImplementedError

    def rows(self):
        return 0

    def same_as_first(self, value):
        if self.first is None:
            self.first = value
        return ("repeat is bit-identical", value == self.first, "")


class CliTask(Task):
    """Runs ``seedbank.cli.main`` in-process, one step per call, each to its
    own output file; ``check_output`` checks one file."""

    def calls(self):
        """[(tag, argv without --out)] for this size."""
        raise NotImplementedError

    def argv(self):
        return [argv for _, argv in self.calls()]

    def output(self, tag):
        """Output file of one call."""
        return self.outdir / f"{self.metric}.{tag}.out"

    def prepare(self):
        for tag, _ in self.calls():
            self.output(tag).unlink(missing_ok=True)

    def steps(self):
        return [functools.partial(cli.main, argv + ["--out", str(self.output(tag))])
                for tag, argv in self.calls()]

    def check(self, results):
        out = []
        for (tag, _), rc in zip(self.calls(), results):
            path = self.output(tag)
            out.append((f"{tag}: exit code 0", rc == 0, f"rc={rc}"))
            out.append((f"{tag}: output written", path.exists(), str(path)))
            if rc == 0 and path.exists():
                out.extend((f"{tag}: {label}", ok, detail)
                           for label, ok, detail in self.check_output(tag, path))
        text = "".join(self.output(tag).read_text() if self.output(tag).exists() else ""
                       for tag, _ in self.calls())
        out.append(self.same_as_first(text))
        return out

    def rows(self):
        total = 0
        for tag, _ in self.calls():
            path = self.output(tag)
            if path.exists():
                text = path.read_text()
                if text.lstrip().startswith("{"):
                    total += 1
                else:
                    total += sum(1 for ln in text.splitlines()
                                 if ln and not ln.startswith("#")) - 1
        return total


class ReferenceCsvTask(CliTask):
    """A figure command compared value by value against the CSV captured at
    the commit that defined the benchmark (``reference/``)."""

    tolerance = TOL_SCALE

    def reference(self, tag):
        return REFERENCE / f"{self.metric}.{self.size}.{tag}.out"

    def check_output(self, tag, path):
        ref = self.reference(tag)
        if ref.read_text().lstrip().startswith("{"):
            got = _flatten(json.loads(path.read_text()))
            want = _flatten(json.loads(ref.read_text()))
            names_ok = len(got) == len(want)
        else:
            names, got = read_csv(path)
            want_names, want = read_csv(ref)
            names_ok = names == want_names and got.shape == want.shape
        if not names_ok:
            return [("same columns and rows as reference", False, str(ref))]
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
        return [(f"max |diff| vs reference <= {self.tolerance:g}",
                 err <= self.tolerance, f"{err:.3g}")]


class Heatmap(ReferenceCsvTask):
    """fixation-heatmap; full size is four --grid 10 maps at different y."""

    metric = "heatmap_s"
    ARGS = {"full": [("10", y) for y in ("0.005", "0.01", "0.02", "0.05")],
            "probe": [("3", "0.01")]}

    def calls(self):
        return [(f"y{y}", ["fixation-heatmap", "--grid", grid, "--y", y,
                           "--seed", str(self.seed)])
                for grid, y in self.ARGS[self.size]]

    def check_output(self, tag, path):
        out = super().check_output(tag, path)
        names, rows = read_csv(path)
        fix, bound = rows[:, names.index("fixation")], rows[:, names.index("psi_bound")]
        worst = float(np.max(fix - bound))
        out.append(("fixation <= psi_bound in every cell", worst <= 1e-9, f"{worst:.3g}"))
        return out


class Sweep(ReferenceCsvTask):
    """fixation-vs-b0, one call per xi_inf."""

    metric = "sweep_s"
    tolerance = TOL_PDE
    ARGS = {"full": (["0.8", "1.0", "1.2"], "10"), "probe": (["0.8"], "1")}

    def calls(self):
        xi_infs, steps = self.ARGS[self.size]
        return [(f"xi{xi}", ["fixation-vs-b0", "--xi-inf", xi, "--r", "20",
                             "--steps", steps, "--seed", str(self.seed)])
                for xi in xi_infs]


class SmallFigures(ReferenceCsvTask):
    metric = "small_figs_s"
    ARGS = {
        "full": {
            "psi-curve": ["--B", "0,0.5,1,2", "--ymax", "1.0", "--steps", "200"],
            "drift-surface": ["--grid", "21"],
            "g-plot": ["--xi", "0.8,1.2", "--B", "0.5", "--steps", "201"],
            "h-contour": ["--grid", "101"],
        },
        "probe": {
            "psi-curve": ["--B", "0,1", "--ymax", "1.0", "--steps", "4"],
            "drift-surface": ["--grid", "2"],
            "g-plot": ["--xi", "0.8", "--B", "0.5", "--steps", "3"],
            "h-contour": ["--grid", "3"],
        },
    }
    REDUCE = '{"tag": "constant", "b": [0.5, 0.5], "x0": 0.3}'

    def calls(self):
        seed = ["--seed", str(self.seed)]
        out = [(cmd, [cmd, *args, *seed]) for cmd, args in self.ARGS[self.size].items()]
        out.append(("reduce", ["reduce", "--spec", self.REDUCE, *seed]))
        return out


class McCompare(CliTask):
    """``mc-compare``, one call per master seed drawn from the workload seed."""

    regime = None
    extra = []
    # (N, replicates per call, calls)
    SIZE = {"full": (300, 512, 4), "probe": (30, 100, 1)}

    def distribution_args(self):
        return ["--b", "0.5,0.5"]

    def calls(self):
        n_pop, reps, n_calls = self.SIZE[self.size]
        return [(f"{self.regime}{i}", [
            "mc-compare", "--regime", self.regime, *self.distribution_args(),
            "--N", str(n_pop), "--start", "0.2", "--replicates", str(reps),
            *self.extra, "--seed", str(master_seed(self.seed, f"{self.metric}.{i}")),
        ]) for i in range(n_calls)]

    def check_output(self, tag, path):
        payload = json.loads(path.read_text())
        est, pred = payload["estimate"], payload["diffusion_prediction"]
        n_pop = self.SIZE[self.size][0]
        diff = abs(est["p_hat"] - pred)
        tol = mc_tolerance(est["std_err"], n_pop)
        out = [
            ("no censored replicates", est["censored_count"] == 0,
             str(est["censored_count"])),
            ("|p_hat - prediction| <= 4 se + 5/N", diff <= tol,
             f"p_hat={est['p_hat']:.4f} pred={pred:.4f} tol={tol:.4f}"),
        ]
        out.extend(self.check_prediction(pred))
        return out

    def check_prediction(self, pred):
        ref = json.loads((REFERENCE / "predictions.json").read_text())
        want = ref[self.metric]
        tol = TOL_PDE if self.regime == "slow" else TOL_SCALE
        return [("prediction matches reference", _close(pred, want, tol),
                 f"{pred!r} vs {want!r}")]


class WfConstant(McCompare):
    metric = "wf_constant_s"
    regime = "constant"


class WfSlow(McCompare):
    metric = "wf_slow_s"
    regime = "slow"
    extra = ["--r", "20", "--xi-inf", "0.8", "--xi-min", "0.5", "--xi-max", "1.5"]


class WfFast(McCompare):
    metric = "wf_fast_s"
    regime = "fast"
    extra = ["--p", "0.25", "--s", "1"]


class EulerMaruyama(Task):
    """``sample_absorption`` with the constant-environment coefficients, one
    step per master seed."""

    metric = "em_s"
    REPS = {"full": (400, 4), "probe": (100, 1)}  # (replicates per step, steps)
    START = 0.3

    def __init__(self, size, seed, outdir):
        super().__init__(size, seed, outdir)
        self.d = core_model.validate_distribution([0.5, 0.5])
        self.em_seeds = [master_seed(seed, f"{self.metric}.{i}")
                         for i in range(self.REPS[size][1])]
        self.prediction = None

    def argv(self):
        return [["sample_absorption", "constant_coefficients_vec", "b=0.5,0.5",
                 f"start={self.START}", f"dt={EM_DT}", f"seed={s}",
                 f"replicates={self.REPS[self.size][0]}", "max_time=60"]
                for s in self.em_seeds]

    def _sample(self, em_seed):
        drift_vec, diff_vec = diffusion_limits.constant_coefficients_vec(self.d)
        return diffusion_limits.sample_absorption(
            drift_vec, diff_vec, self.START, EM_DT, em_seed, self.REPS[self.size][0], 60.0)

    def steps(self):
        return [functools.partial(self._sample, s) for s in self.em_seeds]

    def check(self, results):
        if self.prediction is None:
            self.prediction = scale_prediction(self.d, self.START)
        want = json.loads((REFERENCE / "predictions.json").read_text())["em_s"]
        out = [("scale prediction matches reference",
                _close(self.prediction, want, TOL_SCALE), repr(self.prediction))]
        for fixed, lost, censored in results:
            done = fixed + lost
            p_hat = fixed / done if done else float("nan")
            se = math.sqrt(p_hat * (1.0 - p_hat) / done) if done else float("nan")
            tol = 4.0 * se + EM_BIAS
            out.append(("no censored replicates", censored == 0, str(censored)))
            out.append(("|p_hat - scale prediction| <= 4 se + 0.01",
                        abs(p_hat - self.prediction) <= tol,
                        f"p_hat={p_hat:.4f} pred={self.prediction:.4f} tol={tol:.4f}"))
        out.append(self.same_as_first(results))
        return out


class DeepG(CliTask):
    """``g-plot --b`` at K=10, one bank with b0 near 0 and one near 1, one
    call per (bank, xi)."""

    metric = "deep_g_s"
    BANKS = {"full": [("low", 0.03, 0.07), ("high", 0.93, 0.97)],
             "probe": [("mid", 0.48, 0.52)]}
    XI = {"full": ["0.8", "1.2"], "probe": ["0.8"]}
    STEPS = {"full": 26, "probe": 3}

    def __init__(self, size, seed, outdir):
        super().__init__(size, seed, outdir)
        self.banks = {tag: deep_distribution(seed, f"deep_g.{tag}", 10, lo, hi)
                      for tag, lo, hi in self.BANKS[size]}
        self.oracle = {}

    def calls(self):
        return [(f"{tag}.xi{xi}", ["g-plot", "--b", b_arg(d), "--B", repr(d.mean_time),
                                   "--xi", xi, "--steps", str(self.STEPS[self.size]),
                                   "--seed", str(self.seed)])
                for tag, d in self.banks.items() for xi in self.XI[self.size]]

    def check_output(self, tag, path):
        names, rows = read_csv(path)
        bank = tag.split(".")[0]
        d = self.banks[bank]
        steps = self.STEPS[self.size]
        out = [("row count", rows.shape[0] == steps, str(rows.shape[0])),
               ("finite", bool(np.all(np.isfinite(rows))), "")]
        big_b = d.mean_time
        for i in (steps // 2, steps - 1):
            xi, rho, g = rows[i, 0], rows[i, 2], rows[i, 3]
            key = (tag, i)
            if key not in self.oracle:
                phi2 = phi2_oracle(d, rho)
                den = big_b * (1.0 - rho) + 1.0
                self.oracle[key] = rho * (big_b * (1.0 - rho) / (den * xi)
                                          + 0.5 * rho * (phi2 - 2.0 * big_b / den))
            want = self.oracle[key]
            out.append((f"g(rho={rho:.3f}) matches theta_integral oracle",
                        _close(g, want, TOL_ORACLE * max(1.0, abs(want))),
                        f"{g!r} vs {want!r}"))
        return out


class DeepMc(McCompare):
    """``mc-compare`` constant regime at K=5; the probe runs the simulator
    alone, since the CLI's K=5 prediction costs hundreds of Lyapunov solves."""

    metric = "deep_mc_s"
    regime = "constant"
    SIZE = {"full": (200, 1024, 2), "probe": (30, 100, 1)}

    def __init__(self, size, seed, outdir):
        super().__init__(size, seed, outdir)
        self.d = deep_distribution(seed, "deep_mc", 5, 0.48, 0.52)
        self.cross = None

    def distribution_args(self):
        return ["--b", b_arg(self.d)]

    def argv(self):
        if self.size == "probe":
            return [["run_fixation", "constant", f"b={b_arg(self.d)}", "N=30",
                     "start=0.2", "replicates=100", "max_generations=1000000",
                     f"seed={master_seed(self.seed, self.metric)}"]]
        return super().argv()

    def prepare(self):
        if self.size == "full":
            super().prepare()

    def steps(self):
        if self.size == "full":
            return super().steps()
        return [functools.partial(wf_simulators.run_fixation, "constant", self.d, 30,
                                  0.2, 100, 10**6, master_seed(self.seed, self.metric))]

    def check(self, results):
        if self.size == "full":
            return super().check(results)
        (est,) = results
        return [("no censored replicates", est.censored_count == 0,
                 str(est.censored_count)),
                ("fixed + lost = replicates",
                 est.fixed_count + est.lost_count == est.replicates, ""),
                self.same_as_first(est.to_dict())]

    def check_prediction(self, pred):
        if self.cross is None:
            self.cross = diffusion_limits.kolmogorov_fixation(
                self.d, {"r": 20.0, "xi_inf": 1.0}, 0.2)
        bound = fixation_bound(self.d.mean_time, 0.2)
        return [("prediction <= bounding-diffusion fixation", pred <= bound + 1e-9,
                 f"{pred!r} vs {bound!r}"),
                ("prediction matches PDE at xi_inf=1",
                 _close(pred, self.cross, TOL_KOLMOGOROV_VS_SCALE),
                 f"{pred!r} vs {self.cross!r}")]


class DeepSolve(Task):
    """phi'' on an x-grid at K=20, then scale_fixation and kolmogorov_fixation
    at K=5 and K=10."""

    metric = "deep_solve_s"
    X_POINTS = 13
    START = 0.2
    LOGISTIC = {"r": 20.0, "xi_inf": 0.8}

    def __init__(self, size, seed, outdir):
        super().__init__(size, seed, outdir)
        if size == "full":
            self.phi_banks = [deep_distribution(seed, "deep_solve.k20.low", 20, 0.03, 0.07),
                              deep_distribution(seed, "deep_solve.k20.high", 20, 0.93, 0.97)]
            self.xs = list(np.linspace(0.05, 0.95, self.X_POINTS))
            self.fix_banks = [deep_distribution(seed, "deep_solve.k5", 5, 0.28, 0.32),
                              deep_distribution(seed, "deep_solve.k10", 10, 0.68, 0.72)]
        else:
            self.phi_banks = [deep_distribution(seed, "deep_solve.k20.mid", 20, 0.48, 0.52),
                              deep_distribution(seed, "deep_solve.k5.mid", 5, 0.48, 0.52)]
            self.xs = [0.3]
            self.fix_banks = []
        self.oracle = {}

    def argv(self):
        out = [["drift_second_derivative", f"b={b_arg(d)}",
                "x=" + ",".join(f"{x:.4f}" for x in self.xs)] for d in self.phi_banks]
        for d in self.fix_banks:
            out.append(["scale_fixation", "sde_constant", f"b={b_arg(d)}",
                        f"start={self.START}"])
            out.append(["kolmogorov_fixation", f"b={b_arg(d)}", "r=20", "xi_inf=0.8",
                        f"start={self.START}"])
        return out

    def _phi(self, d):
        return [seedbank_flows.drift_second_derivative(d, x) for x in self.xs]

    def steps(self):
        out = [functools.partial(self._phi, d) for d in self.phi_banks]
        for d in self.fix_banks:
            out.append(functools.partial(scale_prediction, d, self.START))
            out.append(functools.partial(diffusion_limits.kolmogorov_fixation, d,
                                         self.LOGISTIC, self.START))
        return out

    def check(self, results):
        n_phi = len(self.phi_banks)
        phi = results[:n_phi]
        fix = list(zip(results[n_phi::2], results[n_phi + 1::2]))
        out = []
        for j, (d, values) in enumerate(zip(self.phi_banks, phi)):
            for i in sorted({0, len(self.xs) - 1}):
                key = (j, i)
                if key not in self.oracle:
                    self.oracle[key] = phi2_oracle(d, self.xs[i])
                want = self.oracle[key]
                out.append((f"phi'' K={d.k} x={self.xs[i]:.2f} matches theta_integral",
                            _close(values[i], want, TOL_ORACLE * max(1.0, abs(want))),
                            f"{values[i]!r} vs {want!r}"))
        for j, (d, (scale, pde)) in enumerate(zip(self.fix_banks, fix)):
            bound = fixation_bound(d.mean_time, self.START)
            out.append((f"K={d.k} scale fixation in (0, bound]",
                        0.0 < scale <= bound + 1e-9, f"{scale!r} <= {bound!r}"))
            out.append((f"K={d.k} PDE fixation in (0, 1)", 0.0 < pde < 1.0, repr(pde)))
            if ("x", j) not in self.oracle:
                self.oracle[("x", j)] = diffusion_limits.kolmogorov_fixation(
                    d, {"r": 20.0, "xi_inf": 1.0}, self.START)
            cross = self.oracle[("x", j)]
            out.append((f"K={d.k} scale matches PDE at xi_inf=1",
                        _close(scale, cross, TOL_KOLMOGOROV_VS_SCALE),
                        f"{scale!r} vs {cross!r}"))
        out.append(self.same_as_first(results))
        return out


TASKS = [Heatmap, Sweep, SmallFigures, WfConstant, WfSlow, WfFast, EulerMaruyama,
         DeepG, DeepMc, DeepSolve]

# workload -> metrics of the tasks it runs at full size
WORKLOADS = {
    "figures": {"heatmap_s", "sweep_s", "small_figs_s"},
    "monte-carlo": {"wf_constant_s", "wf_slow_s", "wf_fast_s", "em_s"},
    "deep-bank": {"deep_g_s", "deep_mc_s", "deep_solve_s"},
}


# Probe-size tasks take their inputs from this fixed seed: a probe's cost is
# dominated by its slowest replicate, which would otherwise vary with the
# workload seed by a third.
PROBE_SEED = 0


def build(workload, seed, outdir):
    """The workload's tasks: its own at full size, the others at probe size.
    ``workload=None`` gives every task at probe size (the warm-up pass)."""
    os.makedirs(outdir, exist_ok=True)
    focus = WORKLOADS.get(workload, ())
    return [cls("full", seed, outdir) if cls.metric in focus
            else cls("probe", PROBE_SEED, outdir) for cls in TASKS]
