"""``tools/digest_outputs.py`` on a stub tree: a ``geocl.cli`` that writes
fixed outputs and a ``bench/run.py`` with two workloads."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest_outputs.py"

# Writes outputs that depend only on the config (or seed) it is given, and a
# report whose wall clock comes from the environment.
_STUB_CLI = '''\
import argparse, json, os
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("command")
parser.add_argument("--config")
parser.add_argument("--seed")
parser.add_argument("--out")
args = parser.parse_args()
source = Path(args.config).read_text() if args.config else "seed " + args.seed
out = Path(args.out)
out.mkdir(parents=True)
(out / "accuracy_matrix.csv").write_text("step,acc\\n1," + source + "\\n")
(out / "metrics.json").write_text(json.dumps({"source": source}))
(out / "report.json").write_text(json.dumps({
    "wall_clock_seconds": float(os.environ["STUB_WALL_CLOCK"]),
    "gis_trace": [{"step": 1, "selected": [0, 2], "source": source}]}))
'''

_STUB_RUN = '''\
import json

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
WORKLOADS = {"b-work": {}, "a-work": {}}


def prepare(workload, seed, smoke, work):
    path = work / "config.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "smoke": smoke}))
    return path
'''


def stub_tree(root: Path) -> Path:
    (root / "src" / "geocl").mkdir(parents=True)
    (root / "src" / "geocl" / "__init__.py").write_text("")
    (root / "src" / "geocl" / "cli.py").write_text(_STUB_CLI)
    (root / "bench").mkdir()
    (root / "bench" / "run.py").write_text(_STUB_RUN)
    return root


def digest(tree: Path, out: Path, wall_clock: float) -> list[str]:
    env = dict(os.environ, STUB_WALL_CLOCK=str(wall_clock))
    result = subprocess.run([sys.executable, str(_TOOL), str(tree), str(out)], env=env,
                            check=True, capture_output=True, text=True)
    return result.stdout.splitlines()


def test_lines_are_sha256sum_lines_over_every_output(tmp_path):
    out = tmp_path / "out"
    lines = digest(stub_tree(tmp_path / "tree"), out, 1.0)
    names = [f"{w}-s{s}" for w in ("a-work", "b-work") for s in (1, 2, 3, 4)] + ["default-s0"]
    files = ("accuracy_matrix.csv", "metrics.json", "gis_trace")
    assert [line.split("  ")[1] for line in lines] == [
        f"{name}/{file}" for name in names for file in files] + ["all"]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    csv = (out / "a-work-s1" / "out" / "accuracy_matrix.csv").read_bytes()
    assert lines[0] == f"{hashlib.sha256(csv).hexdigest()}  a-work-s1/accuracy_matrix.csv"


def test_all_line_digests_the_lines_before_it(tmp_path):
    lines = digest(stub_tree(tmp_path / "tree"), tmp_path / "out", 1.0)
    text = "".join(line + "\n" for line in lines[:-1])
    assert lines[-1] == f"{hashlib.sha256(text.encode()).hexdigest()}  all"


def test_wall_clock_does_not_change_the_lines(tmp_path):
    tree = stub_tree(tmp_path / "tree")
    first = digest(tree, tmp_path / "first", 1.25)
    second = digest(tree, tmp_path / "second", 7.5)
    assert first == second


def test_expect_matching_digest_exits_zero(tmp_path):
    tree = stub_tree(tmp_path / "tree")
    hexdigest = digest(tree, tmp_path / "first", 1.0)[-1].split("  ")[0]
    result = subprocess.run([sys.executable, str(_TOOL), str(tree), str(tmp_path / "second"),
                             "--expect", hexdigest],
                            env=dict(os.environ, STUB_WALL_CLOCK="2.0"),
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == f"{hexdigest}  all"
    assert result.stderr == ""


def test_expect_other_digest_exits_one_with_both(tmp_path):
    tree = stub_tree(tmp_path / "tree")
    hexdigest = digest(tree, tmp_path / "first", 1.0)[-1].split("  ")[0]
    wrong = "0" * 64
    result = subprocess.run([sys.executable, str(_TOOL), str(tree), str(tmp_path / "second"),
                             "--expect", wrong],
                            env=dict(os.environ, STUB_WALL_CLOCK="1.0"),
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"digest mismatch: expected {wrong}, got {hexdigest}"]
