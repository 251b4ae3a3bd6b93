"""Smoke test of the benchmark runner itself.

Runs every workload on tiny streams through ``bench/run.py`` and checks
that each metric named in ``BENCHMARK.json`` is printed with its unit. Also
checks that a checkout without sources is refused, that a hook whose
target is gone drops only its own metrics, and that malformed outputs fail
the output check.
Run with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']}" in line
                   for line in lines[:-1]), metric["name"]
    for name in ("failed_runs_share", "final_accuracy", "average_forgetting"):
        assert any(line.startswith(f"{name} = ") and " fraction" in line for line in lines)
    assert any(line.startswith("workload=") and "nproc=" in line and "blas=" in line
               for line in lines)
    if not trace:
        for name in ("run_s", "setup_s"):
            assert any(line.startswith(f"{name} = ") and "wall-clock median" in line
                       for line in lines), name


def test_fails_without_sources(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "ref-full", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_hook_is_reported_absent():
    """A hook whose target was refactored away drops only its own metrics."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        from tracer import Tracer
    finally:
        del sys.path[:2]
    tracer = Tracer("test")
    tracer.wrap(types.SimpleNamespace(), "_structure_context", "harness.structure_context")
    metrics = tracer.metrics(run_s=1.0)
    assert tracer.absent == ["harness.structure_context"]
    assert "harness.structure_context_s" not in metrics
    assert metrics["harness.main_training_s"] == 0.0
    assert metrics["trace.glue_s"] == 1.0


@pytest.mark.parametrize("matrix, metrics", [
    ("", '{"final_accuracy": 0.5}'),
    ("step,task_1\n\n", '{"final_accuracy": 0.5}'),
    ("step,task_1\n1,nan\n", '{"final_accuracy": 0.5}'),
    ("step,task_1\n1,0.5\n", '{"final_accuracy": "high"}'),
])
def test_bad_outputs_fail_the_check(tmp_path, matrix, metrics):
    """Malformed outputs raise CheckFailed, which the runner counts as a failed run."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
    finally:
        del sys.path[0]
    (tmp_path / "accuracy_matrix.csv").write_text(matrix)
    (tmp_path / "metrics.json").write_text(metrics)
    with pytest.raises(run.CheckFailed):
        run.check_outputs(tmp_path, steps=1, classes=4)
