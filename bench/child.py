"""One timed geocl run in a fresh process.

Usage: python3 child.py CONFIG OUT_DIR RESULT
           [--trace RUN_ID | --setup-only | --no-pauses]

The clock starts before NumPy and ``geocl`` are imported. Set-up ends at
the first ``harness.run_step`` call; the run ends when
``experiment.run_experiment`` has written its outputs to OUT_DIR.
Timings, peak memory and, when traced, the per-layer metrics are written
to RESULT as JSON; spans go next to it. The result also holds calibration
samples (see ``calibrator``), taken after the run or the set-up and, unless
the run is traced or ``--no-pauses`` is given, during the run, so that the
runner can scale each time to a reference host speed. With
``--setup-only`` the child stops at the first step and reports only its
set-up time.
"""

import argparse
import json
import platform
import resource
import signal
import sys
import time
from pathlib import Path

T0 = time.perf_counter()


# Every this many seconds of a run a timer signal pauses it for one
# calibration sample; the pauses are not counted as run time.
CALIBRATE_EVERY_S = 0.025


def calibrator(np):
    """Return ``sample(n)``: time a fixed kernel n times, in seconds each.

    The kernel mixes small NumPy operations with Python-level loops, like
    the engine's autodiff path, so its time follows the speed the host
    gives the process at that moment.
    """
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 32)), rng.standard_normal((20, 32))

    def sample(n: int) -> list[float]:
        out = []
        for _ in range(n):
            start = time.perf_counter()
            for _ in range(10):
                d = (a[:, None, :] - b[None, :, :]) ** 2
                float(np.tanh(d.sum(-1)).mean())
                [j * 0.5 for j in range(50)]
            out.append(time.perf_counter() - start)
        return out

    return sample


class SetupDone(Exception):
    """Raised at the first step of a ``--setup-only`` child."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", metavar="RUN_ID")
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--no-pauses", action="store_true",
                      help="take no calibration samples during the run")
    args = parser.parse_args()
    pauses = args.trace is None and not args.no_pauses

    import numpy as np
    from geocl import config, experiment, harness

    tracer = None
    if args.trace is not None:
        from tracer import Tracer  # next to this file, so on sys.path
        tracer = Tracer(args.trace)
        tracer.install()

    calibrate = calibrator(np)
    calibration = []
    paused = [0.0]           # seconds the run spent paused for calibration
    first_step = []
    run_step = harness.run_step

    def timed_run_step(*a, **k):
        if not first_step:
            first_step.append(time.perf_counter())
            if args.setup_only:
                raise SetupDone
            if pauses:
                signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return run_step(*a, **k)

    harness.run_step = timed_run_step
    if pauses:
        def pause_for_calibration(signum, frame):
            start = time.perf_counter()
            calibration.extend(calibrate(1))
            paused[0] += time.perf_counter() - start

        signal.signal(signal.SIGALRM, pause_for_calibration)

    cfg = config.load_config(args.config)
    try:
        experiment.run_experiment(cfg, args.out_dir)
    except SetupDone:
        Path(args.result).write_text(json.dumps({"setup_s": first_step[0] - T0,
                                                 "calibration_s": calibrate(100)}))
        return 0
    signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    calibration.extend(calibrate(100))

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": first_step[0] - T0,
        "run_s": end - first_step[0] - paused[0],
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    if tracer is not None:
        spans_path = Path(args.result).with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        result["layers"] = tracer.metrics(result["run_s"])
        result["absent"] = tracer.absent
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
