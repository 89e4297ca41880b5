"""Seedbank benchmark: one command that times, traces and checks a workload.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, from passes that
alternate untraced and traced.  The line before it is a provenance record
(versions, machine, seed, per-task argv, raw seconds, failed checks).  Spans
and counters of traced passes go to
``perfbench/_out/<workload>/trace-seed<seed>.json``; two runs of one workload
must not overlap, since they share that directory.

Timing: every task runs once at probe size as untimed warm-up; then whole
passes over the workload's tasks repeat until the timed steps add up to
``--seconds`` (at least MIN_PASSES passes), and each timing is the median over
passes, scaled by the calibration kernel (see ``Calibration``).  Correctness
checks and fresh-start timings run between the timed steps.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}
MIN_PASSES = 3
SETUP_STARTS = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import seedbank.cli as c; "
              "c.build_parser(); print(time.perf_counter() - t)")


def fresh_start(importtime):
    """Seconds a fresh interpreter takes to import seedbank.cli and build the
    parser, and its ``-X importtime`` log when asked."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    proc = subprocess.run(cmd + ["-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_times(log):
    """Cumulative seconds of the ``seedbank`` top-level imports and of
    ``scipy.integrate`` (0 when it is not imported) from ``-X importtime``."""
    seedbank = scipy_integrate = 0.0
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        stripped = name.strip()
        if stripped in ("seedbank", "seedbank.cli") and name.startswith(" " + stripped):
            seedbank += int(cumulative) * 1e-6
        if stripped == "scipy.integrate":
            scipy_integrate = int(cumulative) * 1e-6
    return seedbank, scipy_integrate


class Setup:
    """Fresh-start timings, taken one at a time between passes so that they
    sample the whole run rather than one stretch of it.  The kernel is timed
    only before and after each start, since the child needs the core."""

    def __init__(self, cal, importtime):
        self.cal, self.importtime = cal, importtime
        self.starts = []  # (scale factor, seconds, importtime log)
        self.cal_samples = []

    def one(self):
        before = self.cal.sample()
        seconds, log = fresh_start(self.importtime)
        after = self.cal.sample()
        self.starts.append((self.cal.scale(before, after), seconds, log))
        self.cal_samples.append((before, after))


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "seedbank").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info():
    import numpy as np
    import scipy
    out = {}
    for name, mod in (("numpy", np), ("scipy", scipy)):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out[name] = f"{blas.get('name')} {blas.get('version')}"
    return out


class Calibration:
    """A fixed kernel timed around and during every timed step, to take out
    the speed changes of the shared machine.

    The machine's speed changes by up to 1.7x, sometimes several times a
    second (another tenant on the same physical core; CPU time equals wall
    time, so this is not descheduling).  The kernel is timed before and after
    each step and, on a timer signal, every INTERVAL_S during it; the ratio of
    seedbank work to the mean of those samples stays within a few percent.
    Each timing is reported as seconds x CAL_REF_S / (mean kernel time):
    seconds on this machine when uncontended.  The kernel time spent inside a
    step is subtracted from it.  Raw seconds go to the provenance record.
    The kernel mixes what seedbank spends its time on: scalar Python float
    arithmetic, small NumPy array expressions, a small least-squares solve
    and binomial draws.
    """

    CAL_REF_S = 0.4e-3  # the kernel's time on this machine when uncontended
    INTERVAL_S = 0.025
    BOUNDARY_RUNS = 8

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.mat, self.vec = rng.random((30, 20)), rng.random(30)
        self.probs = rng.random(1024)
        self._inside = []

    def _kernel(self):
        np = self.np
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1000):
            s += (i * 0.5) ** 0.5
        a = np.linspace(0.0, 1.0, 200)
        for _ in range(25):
            a = np.sqrt(a * (1.0 - a) + 0.1)
        np.linalg.lstsq(self.mat, self.vec, rcond=None)
        np.random.default_rng(1).binomial(300, self.probs)
        return time.perf_counter() - t0

    def sample(self):
        """Kernel seconds now: the mean of BOUNDARY_RUNS runs."""
        return statistics.mean(self._kernel() for _ in range(self.BOUNDARY_RUNS))

    def _on_alarm(self, signum, frame):
        self._inside.append(self._kernel())

    def timed(self, fn):
        """Run ``fn`` while sampling the kernel every INTERVAL_S.

        Returns (result, exception or None, seconds, cpu seconds, samples),
        with the kernel's own time taken out of both timings.
        """
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        c0, t0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            result, error = fn(), None
        except Exception as exc:  # a failing step is a failed check
            result, error = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self._inside)
        return (result, error, time.perf_counter() - t0 - inside,
                time.process_time() - c0 - inside, list(self._inside))

    def scale(self, *samples):
        return self.CAL_REF_S / statistics.mean(samples)


class Runner:
    """Runs the passes of one workload and collects timings and checks."""

    def __init__(self, tasks, calibration):
        self.tasks = tasks
        self.cal = calibration
        self.attempted = 0
        self.failures = []

    def record(self, metric, checks):
        for label, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{metric}: {label} ({detail})")

    @staticmethod
    def _traced(tracer, task_id, metric, step):
        with tracer.task(task_id, metric):
            return step()

    def one_pass(self, tracer=None):
        """One timed pass over the tasks.

        Returns a dict: ``times`` (scaled seconds per metric), ``raw`` (seconds
        per metric), ``wall``/``cpu`` (scaled sums), ``measured`` (raw seconds
        timed), ``scale`` (the pass's median calibration factor), ``rows`` (CLI
        data rows written) and ``cal`` (the calibration samples).
        """
        times, raw, scales, rows, cpu = {}, {}, [], 0, 0.0
        before = self.cal.sample()
        samples = [before]
        for task_id, task in enumerate(self.tasks):
            results, error = [], None
            raw[task.metric] = times[task.metric] = 0.0
            try:
                task.prepare()
                steps = task.steps()
            except Exception as exc:  # e.g. an entry point the program lost
                self.record(task.metric, [("set up", False, repr(exc))])
                continue
            for step in steps:
                if tracer is not None:
                    step = functools.partial(self._traced, tracer, task_id, task.metric,
                                             step)
                result, error, elapsed, step_cpu, inside = self.cal.timed(step)
                results.append(result)
                after = self.cal.sample()
                samples.append(after)
                scales.append(self.cal.scale(before, *inside, after))
                before = after
                raw[task.metric] += elapsed
                times[task.metric] += elapsed * scales[-1]
                cpu += step_cpu * scales[-1]
                if error is not None:
                    break
            if error is not None:
                self.record(task.metric, [("ran", False, repr(error))])
                continue
            try:
                self.record(task.metric, task.check(results))
            except Exception as exc:
                self.record(task.metric, [("checks ran", False, repr(exc))])
            rows += task.rows()
        return {"times": times, "raw": raw, "wall": sum(times.values()),
                "measured": sum(raw.values()), "cpu": cpu, "scale": median(scales),
                "rows": rows, "cal": samples}


def median(values):
    return float(statistics.median(values))


def end_to_end(runner, passes, setup):
    m = {name: median([p["times"][name] for p in passes]) for name in passes[0]["times"]}
    m["wall_s"] = median([p["wall"] for p in passes])
    m["setup_s"] = median([scale * seconds for scale, seconds, _ in setup])
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["pass_rate"] = (runner.attempted - len(runner.failures)) / max(runner.attempted, 1)
    return m


TIME_UNITS = {"s", "ms", "us", "ns"}


def per_layer(untraced, traced, starts):
    """Per-layer metrics: medians over traced passes, times scaled by each
    pass's calibration factor like the end-to-end timings."""
    import tracer as tr
    units = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    per_pass = []
    for p, t in traced:
        m = tr.layer_metrics(t.spans, t.counts)
        m["cli.rows"] = p["rows"]
        per_pass.append({k: v * p["scale"] if units.get(k) in TIME_UNITS else v
                         for k, v in m.items()})
    m = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
    durations = sorted(d * p["scale"] for p, t in traced
                       for d in tr.scale_durations_ms(t.spans))
    m["diffusion_limits.scale.p50_ms"] = median(durations) if durations else 0.0
    m["diffusion_limits.scale.p99_ms"] = (
        durations[min(len(durations) - 1, int(0.99 * len(durations)))]
        if durations else 0.0)
    imports = [(scale, import_times(log)) for scale, _, log in starts]
    m["import.seedbank_s"] = median([scale * a for scale, (a, _) in imports])
    m["import.scipy_integrate_s"] = median([scale * b for scale, (_, b) in imports])
    m["run.cpu_s"] = median([p["cpu"] for p in untraced])
    m["run.wait_s"] = median([p["wall"] - p["cpu"] for p in untraced])
    m["trace.overhead_s"] = (median([p["wall"] for p, _ in traced])
                             - median([p["wall"] for p in untraced]))
    return m


def main(argv=None):
    spec_workloads = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec_workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seedbank" / "__init__.py").is_file():
        print(f"error: no seedbank package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ONE_THREAD)  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    load_start = os.getloadavg()

    cal = Calibration()
    setup = Setup(cal, importtime=bool(args.trace))

    import numpy as np
    import scipy
    import seedbank
    import tasks
    import tracer as tr
    if Path(seedbank.__file__).resolve().parent != (SRC / "seedbank").resolve():
        print(f"error: seedbank imported from {seedbank.__file__}", file=sys.stderr)
        return 2

    outdir = HERE / "_out" / args.workload
    runner = Runner(tasks.build(args.workload, args.seed, outdir), cal)
    warm = Runner(tasks.build(None, args.seed, outdir / "warmup"), cal)
    warm.one_pass()

    untraced, traced = [], []
    absent = []
    measured = 0.0  # --seconds counts the timed steps only
    while measured < args.seconds or len(untraced) < MIN_PASSES:
        if len(setup.starts) < SETUP_STARTS:
            setup.one()
        untraced.append(runner.one_pass())
        measured += untraced[-1]["measured"]
        if args.trace:
            t = tr.Tracer()
            t.install()
            try:
                traced.append((runner.one_pass(t), t))
            finally:
                t.uninstall()
            measured += traced[-1][0]["measured"]
            absent = t.absent

    while len(setup.starts) < SETUP_STARTS:
        setup.one()
    starts = setup.starts

    if args.trace:
        metrics = per_layer(untraced, traced, starts)
        kind = "per_layer"
    else:
        metrics = end_to_end(runner, untraced, starts)
        kind = "end_to_end"

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cores_note": "nproc reports 2, but 2 threads or processes ran no faster "
                      "than 1: treat the machine as one core",
        "loadavg_start": load_start,
        "commit": commit(),
        "source_sha256": source_digest(),
        "tasks": {t.metric: {"size": t.size, "argv": t.argv()} for t in runner.tasks},
        "raw_seconds": {
            "setup_s": [seconds for _, seconds, _ in starts],
            "tasks": [p["raw"] for p in untraced],
            "calibration": [p["cal"] for p in untraced],
            "setup_calibration": setup.cal_samples,
        },
        "checks_attempted": runner.attempted,
        "error_rate": len(runner.failures) / max(runner.attempted, 1),
        "failed_checks": runner.failures[:50],
        "absent": absent,
    }
    if args.trace:
        trace_file = outdir / f"trace-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "provenance": provenance,
            "passes": [{"counts": dict(t.counts), "spans": t.spans} for _, t in traced],
        }))
        provenance["trace_file"] = str(trace_file.relative_to(ROOT))

    out = {}
    for entry in SPEC[kind]:
        out[entry["name"]] = {"value": metrics.pop(entry["name"]), "unit": entry["unit"]}
    if metrics:
        provenance["unlisted_metrics"] = metrics
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
