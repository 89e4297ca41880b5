"""In-memory spans and counters around the public functions of seedbank.

The tracer patches functions from the benchmark's side only: it replaces each
listed function in every loaded ``seedbank`` module namespace that holds it
(the defining module and the modules that imported it by name), so the
package's own code is untouched.  ``uninstall`` restores the originals, which
lets one process alternate traced and untraced passes.

A span records (id, task id, name, start, end, parent id).  A layer's self
time is the summed duration of its spans minus the part covered by their
direct child spans.  Functions called millions of times per pass (the closed
drift factors, the Wright-Fisher transition kernel) are counted, not spanned.
"""

import contextlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._task = None
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def open(self, name, **attrs):
        span = {
            "id": len(self.spans),
            "task": self._task,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        span.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def task(self, task_id, name):
        """Root span of one task step; every span opened inside shares the
        task's id."""
        self._task = task_id
        span = self.open("task." + name)
        try:
            yield span
        finally:
            self.close(span)

    # -- patching ------------------------------------------------------------

    def install(self):
        """Patch the functions of SPANS and COUNTERS.

        A module or function missing from the program is recorded in
        ``absent`` and skipped.
        """
        for module_name, attr, name, before, after in SPANS:
            self._patch(module_name, attr,
                        lambda fn, n=name, b=before, a=after: self._spanned(fn, n, b, a))
        for module_name, attr, name, amount in COUNTERS:
            self._patch(module_name, attr,
                        lambda fn, n=name, a=amount: self._counted(fn, n, a))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _patch(self, module_name, attr, make_wrapper):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name == "seedbank" or name.startswith("seedbank."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def _counted(self, fn, name, amount):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, fn, name, before, after):
        counts = self.counts

        def spanned(*args, **kwargs):
            counts[name + ".calls"] += 1
            attrs = {}
            if before is not None:
                args, attrs = before(counts, args)
            span = self.open(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(counts, result)
            return result
        return spanned


# -- hooks: count work at the boundary --------------------------------------

def _lyap_attrs(counts, args):
    return args, {"K": args[0].k}


def _theta_attrs(counts, args):
    return args, {"n": np.shape(args[0])[0]}


def _counting_first_arg(counter, amount):
    """Replace the callable first argument by one that counts its calls."""
    def before(counts, args):
        inner = args[0]

        def counted(x):
            counts[counter] += amount(x)
            return inner(x)
        return (counted,) + tuple(args[1:]), {}
    return before


def _fixation_outcome(counts, estimate):
    counts["wf_simulators.run_fixation.replicates"] += estimate.replicates
    counts["wf_simulators.run_fixation.censored"] += estimate.censored_count


# (module, function, span name, before(counts, args) -> (args, span attrs),
#  after(counts, result))
SPANS = [
    ("seedbank.cli", "main", "cli", None, None),
    ("seedbank.branching_phase", "psi", "branching_phase.psi", None, None),
    ("seedbank.seedbank_flows", "drift_second_derivative", "seedbank_flows.phi2_lyap",
     _lyap_attrs, None),
    ("seedbank.manifold_reduction", "solve_theta", "manifold_reduction.solve_theta",
     _theta_attrs, None),
    ("seedbank.manifold_reduction", "reduce_point", "manifold_reduction.reduce_point",
     None, None),
    ("seedbank.diffusion_limits", "scale_fixation", "diffusion_limits.scale",
     _counting_first_arg("diffusion_limits.scale.rhs_evals", lambda x: 1), None),
    ("seedbank.diffusion_limits", "kolmogorov_fixation", "diffusion_limits.pde",
     None, None),
    # the drift callable sees every active replicate once per step
    ("seedbank.diffusion_limits", "sample_absorption", "diffusion_limits.em",
     _counting_first_arg("diffusion_limits.em.replicate_steps", np.size), None),
    ("seedbank.wf_simulators", "run_fixation", "wf_simulators.run_fixation",
     None, _fixation_outcome),
]

# Functions called up to millions of times per pass are counted, not spanned:
# (module, function, counter, amount(args) or None for 1 per call)
COUNTERS = [
    ("seedbank.core_model", "validate_distribution", "core_model.validate.calls", None),
    ("seedbank.seedbank_flows", "drift_k1_closed", "seedbank_flows.phi2_closed.evals",
     None),
    ("seedbank.seedbank_flows", "drift_k2_closed", "seedbank_flows.phi2_closed.evals",
     None),
    ("seedbank.diffusion_limits", "logistic_xi", "diffusion_limits.pde.xi_evals", None),
    ("seedbank.diffusion_limits", "g_function", "diffusion_limits.g.calls", None),
    # one call per Wright-Fisher generation, with one row per active replicate
    ("seedbank.wf_simulators", "_transition_probs",
     "wf_simulators.replicate_generations", lambda args: np.shape(args[0])[0]),
]

LYAP_K = (1, 5, 10, 20)
THETA_N = (2, 6, 11, 21)


def self_times(spans):
    """Self time per span name: duration minus direct children's durations."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
    return out


def _mean_us(spans, name, key, value):
    durs = [s["end"] - s["start"] for s in spans
            if s["name"] == name and s.get(key) == value]
    return 1e6 * float(np.mean(durs)) if durs else 0.0


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass (0 where the layer made no call)."""
    st = self_times(spans)
    c = counts
    m = {
        "cli.self_s": st["cli"],
        "core_model.validate.calls": c["core_model.validate.calls"],
        "branching_phase.psi.calls": c["branching_phase.psi.calls"],
        "branching_phase.psi.self_s": st["branching_phase.psi"],
        "seedbank_flows.phi2_closed.evals": c["seedbank_flows.phi2_closed.evals"],
        "seedbank_flows.phi2_lyap.calls": c["seedbank_flows.phi2_lyap.calls"],
        "seedbank_flows.phi2_lyap.self_s": st["seedbank_flows.phi2_lyap"],
        "manifold_reduction.solve_theta.calls":
            c["manifold_reduction.solve_theta.calls"],
        "manifold_reduction.solve_theta.self_s":
            st["manifold_reduction.solve_theta"],
        "manifold_reduction.reduce_point.calls":
            c["manifold_reduction.reduce_point.calls"],
        "manifold_reduction.reduce_point.self_s":
            st["manifold_reduction.reduce_point"],
        "diffusion_limits.scale.calls": c["diffusion_limits.scale.calls"],
        "diffusion_limits.scale.self_s": st["diffusion_limits.scale"],
        "diffusion_limits.scale.rhs_evals": c["diffusion_limits.scale.rhs_evals"],
        "diffusion_limits.pde.calls": c["diffusion_limits.pde.calls"],
        "diffusion_limits.pde.self_s": st["diffusion_limits.pde"],
        "diffusion_limits.pde.xi_evals": c["diffusion_limits.pde.xi_evals"],
        "diffusion_limits.em.replicate_steps":
            c["diffusion_limits.em.replicate_steps"],
        "diffusion_limits.g.calls": c["diffusion_limits.g.calls"],
        "wf_simulators.run_fixation.self_s": st["wf_simulators.run_fixation"],
        "wf_simulators.run_fixation.replicates":
            c["wf_simulators.run_fixation.replicates"],
        "wf_simulators.replicate_generations":
            c["wf_simulators.replicate_generations"],
    }
    for k in LYAP_K:
        m[f"seedbank_flows.phi2_lyap.us_per_call.K{k}"] = _mean_us(
            spans, "seedbank_flows.phi2_lyap", "K", k)
    for n in THETA_N:
        m[f"manifold_reduction.solve_theta.us_per_call.n{n}"] = _mean_us(
            spans, "manifold_reduction.solve_theta", "n", n)
    steps = m["diffusion_limits.em.replicate_steps"]
    m["diffusion_limits.em.ns_per_replicate_step"] = (
        1e9 * st["diffusion_limits.em"] / steps if steps else 0.0)
    reps = m["wf_simulators.run_fixation.replicates"]
    gens = m["wf_simulators.replicate_generations"]
    wf_self = m["wf_simulators.run_fixation.self_s"]
    m["wf_simulators.run_fixation.ns_per_replicate"] = 1e9 * wf_self / reps if reps else 0.0
    m["wf_simulators.ns_per_replicate_generation"] = 1e9 * wf_self / gens if gens else 0.0
    m["wf_simulators.run_fixation.censored_frac"] = (
        c["wf_simulators.run_fixation.censored"] / reps if reps else 0.0)
    return m


def scale_durations_ms(spans):
    return [1e3 * (s["end"] - s["start"]) for s in spans
            if s["name"] == "diffusion_limits.scale"]
