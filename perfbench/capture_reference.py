"""Regenerate ``perfbench/reference/`` from the program in ``src/``.

    python3 perfbench/capture_reference.py

The benchmark's checks compare every later commit against these files, so run
this only at a commit whose outputs are known to be right, and say so in the
change that updates them.  Figure outputs do not depend on the workload seed;
the Monte Carlo predictions depend on neither the master seed nor the
number of replicates.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import tasks  # noqa: E402


def run(task):
    task.prepare()
    results = [step() for step in task.steps()]
    if any(rc != 0 for rc in results):
        raise SystemExit(f"{task.metric}: a command failed; reference not written")
    return task


def main():
    tasks.REFERENCE.mkdir(exist_ok=True)
    predictions = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for size in ("full", "probe"):
            for cls in (tasks.Heatmap, tasks.Sweep, tasks.SmallFigures):
                task = run(cls(size, 0, tmp))
                for tag, _ in task.calls():
                    shutil.copy(task.output(tag), task.reference(tag))
        for cls in (tasks.WfConstant, tasks.WfSlow, tasks.WfFast):
            task = run(cls("probe", 0, tmp))
            (tag, _), = task.calls()
            predictions[cls.metric] = json.loads(
                task.output(tag).read_text())["diffusion_prediction"]
        em = tasks.EulerMaruyama("full", 0, tmp)
        predictions["em_s"] = tasks.scale_prediction(em.d, em.START)
    (tasks.REFERENCE / "predictions.json").write_text(
        json.dumps(predictions, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
