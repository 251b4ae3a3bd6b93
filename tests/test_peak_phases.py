"""``tools/peak_phases.py`` on a tiny run, in a process of its own (the tool
replaces engine functions for the rest of its process)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ["structure context", "warm-up", "search", "main training", "buffer update",
          "evaluation"]


def test_prints_set_up_then_every_phase_of_every_step(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "stream": {"classes": 4, "steps": 2, "samples_per_class": 15,
                   "test_per_class": 5, "ambient_dim": 6},
        "backbone": {"hidden_dim": 12, "feature_dim": 8}, "pool": {"sizes": [4]},
        "epochs_main": 1, "epochs_gis": 1, "out_dir": str(tmp_path / "run")}))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "peak_phases.py"), str(ROOT),
                           str(config)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    names = [" ".join(words[:-3]) for words in lines]
    # Step 1 has an empty buffer, so no structure context.
    assert names == (["set-up"] + [f"step 1 {p}" for p in PHASES[1:]]
                     + [f"step 2 {p}" for p in PHASES])
    peaks = [float(words[-3]) for words in lines]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert not (tmp_path / "run").exists()
