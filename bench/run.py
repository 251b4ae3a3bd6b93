"""geocl benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload ref-full --seed 0 --seconds 25 --trace 0

Each measured run is one ``geocl`` experiment in a fresh, single-threaded
child process (``bench/child.py``). Children run one at a time (a closed
loop) until ``--seconds`` have passed; every child's outputs are checked,
and a child that fails a check, raises or exits non-zero counts as a
failed run. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` traced and untraced
children alternate and the JSON holds the per-layer metrics. End-to-end
times are scaled to a reference host speed by calibration samples each
child takes (see ``REFERENCE_SAMPLE_S``). Human-readable lines before the
JSON give every metric with its unit, the wall-clock times, the quality
metrics, the failure share and the machine. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_out"

# Determinism is promised only single-threaded, and a multi-threaded BLAS
# on a small machine makes timings depend on what else is running.
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# A run must end within 180 s: a child starts only if one and a half times
# the longest run so far still ends before this many seconds.
DEADLINE_S = 150.0

# Set-up takes a fraction of a second, so after each untraced run up to
# SETUP_PER_RUN extra children time set-up alone, until an invocation holds
# SETUP_SAMPLES set-up times.
SETUP_PER_RUN = 3
SETUP_SAMPLES = 24

# Timings are reported at the speed of a reference host. Each child times a
# fixed calibration kernel (``child.calibrator``) during an untraced run and
# after its run or set-up, and each time is scaled by this constant over the
# median calibration sample of its child. The constant is that median, taken
# after a run, on the host the benchmark was defined on (2 vCPUs of a shared
# Xeon, Python 3.11, NumPy 2.4, OpenBLAS 0.3.31). A shared host changes
# speed from minute to minute; the scaling takes that out of a comparison of
# two invocations, and a printed wall-clock median keeps the unscaled time.
REFERENCE_SAMPLE_S = 0.0017

REF_STREAM = {"classes": 20, "steps": 5, "samples_per_class": 100}
CSV_STREAM = {"classes": 40, "steps": 10, "samples_per_class": 40, "test_per_class": 10}

# Each workload: config overlay for the run, and for csv-long-global the
# synthetic stream written to CSV before any child starts.
WORKLOADS = {
    "ref-full": {
        "config": {"stream": REF_STREAM, "epochs_main": 1},
    },
    "ref-euclid-structure": {
        "config": {"stream": REF_STREAM, "epochs_main": 1, "pool": {"mode": "euclidean"}},
    },
    "csv-long-global": {
        "csv": CSV_STREAM,
        "config": {"stream": {"classes": 40, "steps": 10}, "epochs_main": 1,
                   "buffer": {"policy": "global", "budget": 400}},
    },
}

# Tiny streams for the smoke test of the runner itself.
SMOKE_STREAM = {"samples_per_class": 12, "test_per_class": 6}


class CheckFailed(Exception):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny streams; for testing the runner only")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = merge(out[key], value) if isinstance(value, dict) and key in out else value
    return out


def machine(child_result: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={child_result['numpy']} "
            f"blas={child_result['blas']!r}")


def prepare(workload: str, seed: int, smoke: bool, work: Path) -> Path:
    """Write the run's config overlay (and for a CSV workload its data)."""
    spec = WORKLOADS[workload]
    cfg = merge(spec["config"], {"seed": seed})
    if smoke:
        cfg = merge(cfg, {"epochs_gis": 1, "buffer": {"budget": 100}})
    if "csv" in spec:
        from geocl import config, experiment
        stream = merge(spec["csv"], SMOKE_STREAM) if smoke else spec["csv"]
        gen = config.load_config(overrides={"seed": seed, "stream": stream})
        experiment.write_dataset_csv(gen, work / "data")
        cfg = merge(cfg, {"stream": {"csv_path": str(work / "data" / "dataset.csv")}})
    elif smoke:
        cfg = merge(cfg, {"stream": SMOKE_STREAM})
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def check_outputs(out: Path, steps: int, classes: int) -> dict:
    """Validate one run's outputs; return its metrics.json."""
    with open(out / "accuracy_matrix.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["step"] + [f"task_{j}" for j in range(1, steps + 1)]:
        raise CheckFailed(f"accuracy matrix header {rows[:1]}")
    if len(rows) != steps + 1:
        raise CheckFailed(f"accuracy matrix has {len(rows) - 1} rows, expected {steps}")
    for t, row in enumerate(rows[1:], start=1):
        if len(row) != steps + 1 or row[0] != str(t):
            raise CheckFailed(f"accuracy matrix row {t} is malformed")
        if any(v == "" for v in row[1:t + 1]) or any(v != "" for v in row[t + 1:]):
            raise CheckFailed(f"accuracy matrix row {t} is not lower-triangular")
        for v in row[1:t + 1]:
            if not 0.0 <= float(v) <= 1.0:
                raise CheckFailed(f"accuracy {v} at row {t} outside [0, 1]")
    metrics = json.loads((out / "metrics.json").read_text())
    for name, value in metrics.items():
        # Forgetting is a drop in accuracy; it is negative when a later step
        # raised the accuracy of an earlier task.
        low = -1.0 if name == "average_forgetting" else 0.0
        if not isinstance(value, (int, float)) or not low <= value <= 1.0:
            raise CheckFailed(f"{name} = {value} outside [{low:g}, 1]")
    if metrics["final_accuracy"] <= 1.0 / classes:
        raise CheckFailed(f"final accuracy {metrics['final_accuracy']} not above chance")
    return metrics


class Runner:
    """Runs children one at a time and keeps their checked results."""

    def __init__(self, workload: str, config_path: Path, deadline: float, pauses: bool):
        self.workload = workload
        self.config_path = config_path
        self.work = config_path.parent
        self.deadline = deadline
        self.pauses = pauses              # calibration pauses in untraced runs
        stream = json.loads(config_path.read_text())["stream"]
        self.classes, self.steps = stream["classes"], stream["steps"]
        self.env = dict(os.environ, **ONE_THREAD, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.attempted = 0
        self.failed = 0
        self.results: list[dict] = []
        self.setups: list[tuple] = []     # untraced children's (set-up time, calibration)
        self.matrix: bytes | None = None
        self.quality: dict | None = None

    def run(self, traced: bool = False, setup_only: bool = False):
        """Start one child; with ``setup_only`` it stops at the first step."""
        index = self.attempted
        self.attempted += 1
        out = self.work / f"run-{index}"
        result_path = self.work / f"run-{index}.json"
        cmd = [sys.executable, str(CHILD), str(self.config_path), str(out), str(result_path)]
        if traced:
            cmd += ["--trace", f"{self.workload}-{index}"]
        if setup_only:
            cmd.append("--setup-only")
        elif not (traced or self.pauses):
            cmd.append("--no-pauses")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.deadline - time.monotonic(), 1.0))
            if proc.returncode != 0:
                tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                raise CheckFailed(f"exit code {proc.returncode}: {tail}")
            result = json.loads(result_path.read_text())
            setup_s = float(result["setup_s"])
            if setup_only:
                self.setups.append((setup_s, result["calibration_s"]))
                return
            self.quality = check_outputs(out, self.steps, self.classes)
            matrix = (out / "accuracy_matrix.csv").read_bytes()
            if self.matrix is None:
                self.matrix = matrix
            elif matrix != self.matrix:
                raise CheckFailed("accuracy_matrix.csv differs between repeats of the seed")
        except Exception as exc:  # any failure of a run counts; none aborts the benchmark
            self.failed += 1
            print(f"run {index} failed: {exc}", file=sys.stderr)
            return
        result["traced"] = traced
        self.results.append(result)
        if not traced:
            self.setups.append((setup_s, result["calibration_s"]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geocl" / "__init__.py").is_file():
        print(f"geocl sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = prepare(args.workload, args.seed, args.smoke, work)
    start = time.monotonic()
    # Traced runs are not paused for calibration, so with --trace 1 the
    # untraced runs they are compared with are not paused either.
    runner = Runner(args.workload, config_path, start + DEADLINE_S, pauses=not args.trace)

    # Repeat the seed until the time is up, at least twice so the repeat can
    # be compared. With --trace 1, untraced and traced runs alternate; with
    # --trace 0, set-up-only children follow each run.
    pattern = (False, True) if args.trace else (False,)
    step = 0
    while step < 2 or time.monotonic() - start < args.seconds:
        longest = max((r["setup_s"] + r["run_s"] for r in runner.results), default=0.0)
        if time.monotonic() + 1.5 * longest > start + DEADLINE_S:
            break
        runner.run(traced=pattern[step % len(pattern)])
        for _ in range(0 if args.trace else SETUP_PER_RUN):
            if len(runner.setups) < SETUP_SAMPLES:
                runner.run(setup_only=True)
        step += 1

    if not runner.results:
        print("no run succeeded", file=sys.stderr)
        return 1
    print(f"workload={args.workload} seed={args.seed} {machine(runner.results[0])}")
    print(f"failed_runs_share = {runner.failed / runner.attempted:.6g} fraction "
          f"({runner.failed} of {runner.attempted} runs)")
    for name in ("final_accuracy", "average_forgetting"):
        print(f"{name} = {runner.quality[name]:.6g} fraction")

    plain = [r for r in runner.results if not r["traced"]]
    traced = [r for r in runner.results if r["traced"]]
    metrics = {}
    if args.trace == 0:
        # A child's host speed is its median calibration sample.
        wall = {"setup_s": [t for t, _ in runner.setups], "run_s": [r["run_s"] for r in plain]}
        samples = {
            "setup_s": [t * REFERENCE_SAMPLE_S / statistics.median(cal)
                        for t, cal in runner.setups],
            "run_s": [r["run_s"] * REFERENCE_SAMPLE_S / statistics.median(r["calibration_s"])
                      for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        for entry in bench["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            values = samples[name]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            raw = (f"; wall-clock median {statistics.median(wall[name]):.6g} {unit}"
                   if name in wall else "")
            print(f"{name} = {metrics[name]['value']:.6g} {unit} "
                  f"(median; max {max(values):.6g}; n={len(values)}{raw})")
    else:
        absent = sorted({hook for r in traced for hook in r["absent"]})
        if absent:
            print(f"absent hooks: {', '.join(absent)}")
        layers = {}
        if traced:
            layers = {name: statistics.median(r["layers"][name] for r in traced)
                      for name in traced[0]["layers"]}
            layers["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
            if plain:
                layers["trace.overhead_s"] = (layers["trace.run_s"]
                                              - statistics.median(r["run_s"] for r in plain))
        for entry in bench["per_layer"]:
            name = entry["name"]
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": entry["unit"]}
                print(f"{name} = {layers[name]:.6g} {entry['unit']}")
            else:
                print(f"{name} = absent")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
