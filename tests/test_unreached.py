"""``tools/unreached.py`` on this tree, in a process of its own (the tool
traces its whole process)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_names_the_step_one_fallback_and_of_the_partition_only_its_guard():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "unreached.py"), str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("src/geocl/gis.py:") and line.endswith(
        " select: chosen = frozenset({int(np.argmax(weights))})") for line in lines)
    # Both stream builders run every line of the one partition; its
    # classes-divide-steps check fires only for a direct caller, since the
    # config check comes first on every run.
    partition = [line.split(" ", 1)[1] for line in lines if " _partition: " in line]
    assert len(partition) == 1 and partition[0].startswith(
        "_partition: raise ConfigurationError(") and "do not divide" in partition[0]
