"""Print the margins of the acceptance gate's ablation for a geocl source tree.

Usage (from any directory):

    python3 tools/ablation.py TREE

TREE is a checkout of this repository (the one to measure). The modes and
seeds are TREE's own: ``ABLATION_MODES`` and ``ABLATION_SEEDS`` from its
``tests/test_acceptance.py``. Each mode's overrides go onto the default
config, and each (mode, seed) runs in this process with one BLAS thread, as
the session fixture of Criteria 6 and 7 runs them. The printout holds the
per-seed final accuracy and average forgetting, each mode's means and its
slowest wall time, the three Criterion 6 margins and the Criterion 7
margin. A margin of 0 or more passes; the smallest margin is the gate's
slack.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/ablation.py TREE", file=sys.stderr)
        return 1
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench"), str(tree / "tests")]
    import run as bench_run  # TREE's bench/run.py: imports nothing numerical

    os.environ.update(bench_run.ONE_THREAD)  # before NumPy is first imported
    import numpy as np
    import test_acceptance as gate  # TREE's gate, and through it TREE's geocl
    from geocl import config, experiment

    print(f"{'mode':<10}{'seed':>5}{'final':>9}{'forgetting':>12}{'wall_s':>9}")
    summary = {}
    for mode, overrides in gate.ABLATION_MODES.items():
        finals, forgetting, wall = [], [], []
        for seed in gate.ABLATION_SEEDS:
            cfg = config.load_config(overrides={**overrides, "seed": seed})
            started = time.time()
            metrics = experiment.run_experiment(cfg, out_dir=None)["metrics"]
            wall.append(time.time() - started)
            finals.append(metrics["final_accuracy"])
            forgetting.append(metrics["average_forgetting"])
            print(f"{mode:<10}{seed:>5}{finals[-1]:>9.4f}{forgetting[-1]:>12.4f}"
                  f"{wall[-1]:>9.1f}", flush=True)
        summary[mode] = (float(np.mean(finals)), float(np.mean(forgetting)), max(wall))
    print(f"\n{'mode':<10}{'final':>9}{'forgetting':>12}{'slowest_s':>11}")
    for mode, (final, forgetting, slowest) in summary.items():
        print(f"{mode:<10}{final:>9.4f}{forgetting:>12.4f}{slowest:>11.1f}")
    final = {mode: values[0] for mode, values in summary.items()}
    margins = [
        ("C6 ours >= euclid + 0.02", final["ours"] - final["euclid"] - 0.02),
        ("C6 gis-only >= euclid", final["gis-only"] - final["euclid"]),
        ("C6 gl-only >= euclid", final["gl-only"] - final["euclid"]),
        ("C7 forgetting ours <= gis-only", summary["gis-only"][1] - summary["ours"][1]),
    ]
    print()
    for name, margin in margins:
        print(f"{name:<32}{margin:>+9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
