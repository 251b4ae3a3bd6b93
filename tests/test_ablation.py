"""``tools/ablation.py`` on a stub tree: a copy of ``src`` and
``bench/run.py``, and a gate whose four modes run a tiny stream at one seed."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_TOOL = ROOT / "tools" / "ablation.py"

# The reference stream's modes, on a stream small enough to run in a second.
_STUB_GATE = '''\
TINY = {"stream": {"classes": 4, "steps": 2, "samples_per_class": 15, "test_per_class": 5,
                   "ambient_dim": 6},
        "backbone": {"hidden_dim": 12, "feature_dim": 8}, "pool": {"sizes": [4]},
        "epochs_main": 1, "epochs_gis": 1}
EUCLID = {**TINY, "pool": {"sizes": [4], "mode": "euclidean"}}
ABLATION_MODES = {
    "euclid": {**EUCLID, "lambda1": 0.0, "lambda2": 0.0},
    "gis-only": {**TINY, "lambda1": 0.0, "lambda2": 0.0},
    "gl-only": EUCLID,
    "ours": TINY,
}
ABLATION_SEEDS = range(1)
'''
_MARGINS = ["C6 ours >= euclid + 0.02", "C6 gis-only >= euclid", "C6 gl-only >= euclid",
            "C7 forgetting ours <= gis-only"]


def stub_tree(root: Path) -> Path:
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (root / "bench").mkdir()
    shutil.copy(ROOT / "bench" / "run.py", root / "bench" / "run.py")
    (root / "tests").mkdir()
    (root / "tests" / "test_acceptance.py").write_text(_STUB_GATE)
    return root


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(_TOOL), *args], capture_output=True, text=True,
                          timeout=300)


def test_prints_every_run_and_the_four_margins(tmp_path):
    proc = run_tool(str(stub_tree(tmp_path / "tree")))
    assert proc.returncode == 0, proc.stderr
    runs, summary, margins = proc.stdout.strip().split("\n\n")
    modes = ["euclid", "gis-only", "gl-only", "ours"]
    assert [line.split()[:2] for line in runs.splitlines()[1:]] == [[m, "0"] for m in modes]
    means = {}
    for line in summary.splitlines()[1:]:
        mode, final, forgetting, _ = line.split()
        means[mode] = (float(final), float(forgetting))
    assert list(means) == modes
    got = [re.fullmatch(r"(.+?)\s+([+-]\d+\.\d{4})", line).groups()
           for line in margins.splitlines()]
    assert [name for name, _ in got] == _MARGINS
    final = {mode: f for mode, (f, _) in means.items()}
    want = [final["ours"] - final["euclid"] - 0.02, final["gis-only"] - final["euclid"],
            final["gl-only"] - final["euclid"], means["gis-only"][1] - means["ours"][1]]
    # The printed means are rounded to 4 places, the margins from the exact ones.
    for (_, value), margin in zip(got, want):
        assert abs(float(value) - margin) <= 2e-4


def test_wrong_argument_count_exits_1(tmp_path):
    for args in ((), (str(tmp_path), str(tmp_path))):
        proc = run_tool(*args)
        assert proc.returncode == 1
        assert proc.stdout == "" and proc.stderr.startswith("usage:")
