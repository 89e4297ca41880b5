"""Check that the benchmark's work counters repeat exactly for a seed.

    python3 perfbench/check_counters.py [--workload NAME] [--seed N] [--seconds S]

Runs ``run.py --trace 1`` twice per workload and compares the counters of
every traced pass of both runs.  The counters count work, not time, so a
later change may cite them as counts only when this check passes at both
commits.  Exits 1 if a counter differs or a run fails its correctness checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COUNTERS = [
    "manifold_reduction.solve_theta.calls",
    "seedbank_flows.phi2_closed.evals",
    "seedbank_flows.phi2_lyap.calls",
    "diffusion_limits.scale.rhs_evals",
    "diffusion_limits.pde.xi_evals",
    "diffusion_limits.em.replicate_steps",
    "wf_simulators.run_fixation.replicates",
    "wf_simulators.replicate_generations",
]


def traced_counts(workload, seed, seconds):
    """Counters of each traced pass of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: correctness checks failed: {lines[-2]}")
    trace_file = ROOT / json.loads(lines[-2])["provenance"]["trace_file"]
    passes = json.loads(trace_file.read_text())["passes"]
    return [{name: p["counts"].get(name, 0) for name in COUNTERS} for p in passes]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        passes = (traced_counts(workload, args.seed, args.seconds)
                  + traced_counts(workload, args.seed, args.seconds))
        for name in COUNTERS:
            values = sorted({p[name] for p in passes})
            same = len(values) == 1
            ok &= same
            print(f"{workload:12s} {name:42s} "
                  f"{'exact' if same else 'DIFFERS'} {values}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
