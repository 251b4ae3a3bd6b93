"""Print where a geocl run reaches its peak resident memory, phase by phase.

Usage (from any directory):

    python3 tools/peak_phases.py TREE CONFIG

TREE is a checkout of this repository (the one to measure); CONFIG is a
run config file. A ``bench/run.py`` invocation leaves its workload's config
in ``.bench_out/WORKLOAD-seedS-trace0/config.json`` (a CSV workload's data
next to it). The tool runs that one experiment in its own process, from
TREE's ``src``, with one BLAS thread, and writes no run outputs.

The phases are wrapped from outside, by replacing module and class
attributes as ``bench/tracer.py`` does. One line is printed at the end of
set-up (the first ``harness.run_step`` call) and one after each phase of
each step: the structure context, the classifier warm-up, the search, main
training, the buffer update and evaluation. Each line gives the process's
peak resident set size so far (``ru_maxrss``) and its rise over the line
before, so the phase with the largest rise set the run's high-water mark.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path

# (owner of the function, its attribute, the printed phase name)
PHASES = (
    ("harness", "_structure_context", "structure context"),
    ("gis", "classifier_warmup", "warm-up"),
    ("gis", "gis_optimize", "search"),
    ("harness", "_main_training", "main training"),
    ("harness.MemoryBuffer", "update", "buffer update"),
    ("harness", "evaluate", "evaluation"),
)


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/peak_phases.py TREE CONFIG", file=sys.stderr)
        return 1
    tree, config_path = Path(argv[0]).resolve(), Path(argv[1])
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import run as bench_run  # TREE's bench/run.py; imports no NumPy

    os.environ.update(bench_run.ONE_THREAD)
    from geocl import config, experiment, gis, harness

    lines: list[tuple[str, float]] = []
    step = [0]

    def wrap(owner, attr: str, phase: str):
        fn = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            lines.append((f"step {step[0]} {phase}", peak_mb()))
            return result

        setattr(owner, attr, wrapped)

    for owner, attr, phase in PHASES:
        module, _, cls = owner.partition(".")
        target = {"harness": harness, "gis": gis}[module]
        wrap(getattr(target, cls) if cls else target, attr, phase)
    run_step = harness.run_step

    def counted_run_step(state, task, *args, **kwargs):
        if not lines:
            lines.append(("set-up", peak_mb()))
        step[0] = task.step
        return run_step(state, task, *args, **kwargs)

    harness.run_step = counted_run_step
    experiment.run_experiment(config.load_config(config_path))
    before = 0.0
    for name, mb in lines:
        print(f"{name:<28} {mb:9.2f} MB  {mb - before:+8.2f}")
        before = mb
    return 0


if __name__ == "__main__":
    sys.exit(main())
