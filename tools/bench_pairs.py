"""Compare two geocl source trees on one bench workload in alternating pairs.

Usage (from any directory):

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B

PARENT and CHANGE are checkouts of this repository. Each seed from A to B
makes one pair: each tree's own ``bench/run.py --workload W --seed SEED
--seconds S --trace 0`` runs once, one tree after the other, with S the
``run_seconds`` of CHANGE's ``BENCHMARK.json``. The parent goes
first in the first pair, the change in the second, and so on, so that a
shared host's drift falls on both trees alike. Per pair the printout holds
both trees' end-to-end metrics and failed/attempted run counts. Then, per
metric, it gives each tree's median and quartiles (linear interpolation)
over the pairs, the change's median over the parent's, the parent's
interquartile range, and in how many pairs the change was better, in the
direction CHANGE's ``BENCHMARK.json`` declares. A second line per metric
says whether the change meets the gain rule: at least ten pairs, the
change better in at least nine tenths of them (a tie counts as not
better), and its median better than the parent's by more than the parent's
interquartile range. A metric with a ``bound`` in CHANGE's
``BENCHMARK.json`` gets a third line, the no-regression verdict: "within
bound" when the change's median is worse than the parent's by at most
``bound`` times the parent's median, "worse than bound" when it is worse by
more, and "unresolved" when the parent's interquartile range exceeds
``bound`` times its median, unless every change run beats every parent run.

Beside the runner's ``run_s`` and ``setup_s``, which are scaled by each
child's calibration samples, it prints the raw wall-clock medians
``wall_clock.run_s`` (the full runs) and ``wall_clock.setup_s`` (all
children, set-up-only ones included) with the same summary, and the
no-regression verdict against the ``bound`` of ``run_s`` and ``setup_s``:
the scaled and the raw times can disagree in sign, and either one may be
the truer. It reads them from the child result files each invocation
leaves in ``TREE/.bench_out/W-seedS-trace0/run-*.json``, since the
calibration kernel's speed follows a child's memory layout as well as the
host's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
WALL_CLOCK = {"wall_clock.run_s": "run_s", "wall_clock.setup_s": "setup_s"}


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` (or one seed ``"A"``) as the list of seeds A to B."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise ValueError(f"bad seed range {text!r}")
    return seeds


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` printout; a
    printout without one (the runner had no successful run) reads as no
    metrics and no counts."""
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": None, "failed": None, "metrics": {}}


def wall_clock(tree: Path, workload: str, seed: int) -> dict:
    """The unscaled medians of the child result files that ``bench/run.py
    --workload W --seed S --trace 0`` left in ``tree``, as metrics entries:
    ``run_s`` over the full runs, ``setup_s`` over every child (a run that
    failed its output checks counts too). A file that does not parse is
    skipped, and a time no file holds is left out."""
    results = []
    for path in sorted((tree / ".bench_out" / f"{workload}-seed{seed}-trace0").glob("run-*.json")):
        try:
            results.append(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError):
            continue
    metrics = {}
    for name, key in WALL_CLOCK.items():
        values = [r[key] for r in results if key in r]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
    return metrics


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree}: bench/run.py exited {proc.returncode}: "
              f"{(proc.stderr.strip().splitlines() or ['no output'])[-1]}", file=sys.stderr)
    result = parse_result(proc.stdout)
    result["metrics"].update(wall_clock(tree, workload, seed))
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _value(result: dict, name: str) -> float | None:
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def _counts(result: dict) -> str:
    return ("no result" if result["attempted"] is None
            else f"{result['failed']}/{result['attempted']} failed")


def pair_line(index: int, seed: int, pair: tuple[dict, dict], names) -> str:
    """One printout line for the (parent, change) results of a pair: the
    metrics ``names`` of both trees and their failed/attempted counts."""
    values = "; ".join(
        f"{name} " + " / ".join("-" if _value(r, name) is None else f"{_value(r, name):.6g}"
                                for r in pair)
        for name in names)
    return (f"pair {index} seed {seed} ({TREES[index % 2]} first) parent / change: {values}; "
            f"runs {_counts(pair[0])} / {_counts(pair[1])}")


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[str]:
    """Summary lines over the (parent, change) results of all pairs: per
    metric its summary, the gain rule's verdict and, for a metric in
    ``bounds``, the no-regression verdict; then one line of failed runs.
    ``better`` maps each end-to-end metric to ``"lower"`` or ``"higher"``,
    ``bounds`` to its bound relative to the parent's median."""
    bounds = bounds or {}
    lines = []
    for name, direction in better.items():
        both = [(_value(p, name), _value(c, name)) for p, c in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            lines.append(f"{name}: no pair has both values")
            continue
        unit = next(r["metrics"][name]["unit"] for pair in pairs for r in pair
                    if name in r["metrics"])
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (_quartiles(list(column)) for column in zip(*both))
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in both)
        gain = pmed - cmed if direction == "lower" else cmed - pmed
        ratio = f"{cmed / pmed:.4g}" if pmed else "-"
        lines.append(
            f"{name} ({unit}, {direction} is better): parent median {pmed:.6g} "
            f"[q1 {pq1:.6g}, q3 {pq3:.6g}], change median {cmed:.6g} "
            f"[q1 {cq1:.6g}, q3 {cq3:.6g}]; change/parent {ratio}; "
            f"median difference {cmed - pmed:+.6g} against parent IQR {pq3 - pq1:.6g}; "
            f"change better in {wins}/{len(both)} pairs")
        met = len(both) >= 10 and 10 * wins >= 9 * len(both) and gain > pq3 - pq1
        lines.append(
            f"{name}: gain rule {'met' if met else 'not met'} (>= 10 pairs, better in "
            f">= 9/10, median gain > parent IQR): {len(both)} pairs, better in {wins}, "
            f"median gain {gain:+.6g} against parent IQR {pq3 - pq1:.6g}")
        if name in bounds:
            allowed = bounds[name] * abs(pmed)
            parent, change = zip(*both)
            beats_all = (max(change) < min(parent) if direction == "lower"
                         else min(change) > max(parent))
            verdict = ("unresolved" if pq3 - pq1 > allowed and not beats_all
                       else "worse than bound" if -gain > allowed else "within bound")
            lines.append(
                f"{name}: {verdict} (bound {bounds[name]:g} x parent median = {allowed:.6g}): "
                f"change median worse by {-gain:+.6g}, parent IQR {pq3 - pq1:.6g}")
    failed = [sum(r["failed"] or 0 for r in column) for column in zip(*pairs)]
    attempted = [sum(r["attempted"] or 0 for r in column) for column in zip(*pairs)]
    lines.append(f"failed runs: parent {failed[0]} of {attempted[0]}, "
                 f"change {failed[1]} of {attempted[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="A-B: one pair per seed")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    trees = (args.parent.resolve(), args.change.resolve())
    for tree in trees:
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")
    bench = json.loads((trees[1] / "BENCHMARK.json").read_text())
    better = {entry["name"]: entry["better"] for entry in bench["end_to_end"]}
    bounds = {entry["name"]: entry["bound"] for entry in bench["end_to_end"]}
    better.update(dict.fromkeys(WALL_CLOCK, "lower"))
    bounds.update({name: bounds[key] for name, key in WALL_CLOCK.items() if key in bounds})
    seconds = bench["run_seconds"]
    pairs = []
    for index, seed in enumerate(seeds):
        results = {}
        for which in ((0, 1) if index % 2 == 0 else (1, 0)):
            results[which] = run_bench(trees[which], args.workload, seed, seconds)
        pairs.append((results[0], results[1]))
        print(pair_line(index, seed, pairs[-1], better), flush=True)
    print("\n".join(summarize(pairs, better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
