"""Digest the run outputs of a geocl source tree, for byte-identity checks.

Usage (from any directory):

    python3 tools/digest_outputs.py TREE OUT [--expect HEX]

TREE is a checkout of this repository (the one to measure); OUT is a
scratch directory, one subdirectory per run. Runs ``geocl run`` from
TREE's ``src`` with one BLAS thread and ``PYTHONHASHSEED=0`` on each
``bench/run.py`` workload config at seeds 1-4, then on the default config
at seed 0, and prints one sha256 line per output, as ``sha256sum`` does:
``accuracy_matrix.csv``, ``metrics.json`` and the ``gis_trace`` of
``report.json`` (re-serialised with sorted keys, since the report also
holds the wall clock). The last line digests all the lines before it. Two
trees give equal outputs exactly when the two printouts are equal.

With ``--expect HEX`` the tool also compares that all-lines digest with
HEX: it exits 0 when they match, and otherwise prints one line with both
to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3, 4)
DEFAULT_SEED = 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(out: Path, env: dict, name: str, args: list[str]) -> list[str]:
    """Run one experiment into ``out/name/out``; return its digest lines."""
    run_dir = out / name / "out"
    subprocess.run([sys.executable, "-m", "geocl.cli", "run", *args, "--out", str(run_dir)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    trace = json.loads((run_dir / "report.json").read_text())["gis_trace"]
    blobs = {
        "accuracy_matrix.csv": (run_dir / "accuracy_matrix.csv").read_bytes(),
        "metrics.json": (run_dir / "metrics.json").read_bytes(),
        "gis_trace": json.dumps(trace, sort_keys=True).encode(),
    }
    return [f"{sha256(blob)}  {name}/{file}" for file, blob in blobs.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--expect", metavar="HEX", help="the all-lines digest to match")
    args = parser.parse_args(argv)
    tree, out = args.tree.resolve(), args.out.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import run as bench_run  # TREE's bench/run.py; imports TREE's geocl

    env = dict(os.environ, **bench_run.ONE_THREAD, PYTHONHASHSEED="0",
               PYTHONPATH=str(tree / "src"))
    lines = []
    for workload in sorted(bench_run.WORKLOADS):
        for seed in SEEDS:
            name = f"{workload}-s{seed}"
            work = out / name
            work.mkdir(parents=True, exist_ok=True)
            config = bench_run.prepare(workload, seed, False, work)
            lines += run_digests(out, env, name, ["--config", str(config)])
    lines += run_digests(out, env, f"default-s{DEFAULT_SEED}", ["--seed", str(DEFAULT_SEED)])
    text = "".join(line + "\n" for line in lines)
    digest = sha256(text.encode())
    print(text + f"{digest}  all")
    if args.expect is not None and args.expect.lower() != digest:
        print(f"digest mismatch: expected {args.expect}, got {digest}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
