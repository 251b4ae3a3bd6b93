"""Experiment execution and report emission around the harness."""

from __future__ import annotations

import csv
import itertools
import json
import platform
import time
import warnings
from array import array
from pathlib import Path

import numpy as np

from . import gis as gis_mod
from . import harness, model as mdl
from .config import finite_number, load_config
from .errors import ConfigurationError


def build_stream(cfg: dict, seed: int) -> list[harness.StreamTask]:
    s = cfg["stream"]
    if s["csv_path"]:
        x, y = read_dataset_csv(s["csv_path"])
        if x.shape[1] != s["ambient_dim"]:
            raise ConfigurationError(
                f"CSV feature dim {x.shape[1]} != stream.ambient_dim {s['ambient_dim']}")
        return harness.stream_from_arrays(x, y, s["steps"], s["train_ratio"], seed)
    return harness.generate_synthetic_stream(
        classes=s["classes"], steps=s["steps"], samples_per_class=s["samples_per_class"],
        test_per_class=s["test_per_class"], ambient_dim=s["ambient_dim"],
        tree_fraction=s["tree_fraction"], noise=s["noise"], seed=seed)


def run_experiment(cfg: dict, out_dir: str | Path | None = None) -> dict:
    """Run the full stream described by ``cfg``; write report files if an
    output directory is given; return the report dict."""
    seed = cfg["seed"]
    started = time.time()
    tasks = build_stream(cfg, seed)
    if out_dir is not None:
        # Made before the first step, so that an unusable directory fails fast.
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    backbone = mdl.Backbone(
        in_dim=tasks[0].x_train.shape[1],
        hidden_dim=cfg["backbone"]["hidden_dim"],
        feature_dim=cfg["backbone"]["feature_dim"])
    pool = gis_mod.build_pool(cfg["backbone"]["feature_dim"], cfg["pool"]["sizes"],
                              mode=cfg["pool"]["mode"])
    state, record = harness.run_stream(tasks, cfg, seed, backbone, pool)
    metrics = harness.summary_metrics(record)
    report = {
        "config": cfg,
        "metrics": metrics,
        "gis_trace": state.gis_trace,
        "wall_clock_seconds": round(time.time() - started, 3),
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    if out_dir is not None:
        out = Path(out_dir)
        write_accuracy_matrix(out / "accuracy_matrix.csv", record)
        (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def write_accuracy_matrix(path, record: harness.MetricsRecord):
    steps = len(record.accuracy)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"task_{j+1}" for j in range(steps)])
        for t, row in enumerate(record.accuracy, start=1):
            writer.writerow([t] + [f"{a:.10f}" for a in row] + [""] * (steps - len(row)))


def write_dataset_csv(cfg: dict, out_dir: str | Path) -> dict:
    """Emit the synthetic stream as one CSV plus a manifest."""
    seed = cfg["seed"]
    tasks = build_stream(cfg, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = tasks[0].x_train.shape[1]
    data_path = out / "dataset.csv"
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i+1}" for i in range(dim)])
        for task in tasks:
            for x, y in [(task.x_train, task.y_train), (task.x_test, task.y_test)]:
                for row, lab in zip(x, y):
                    writer.writerow([int(lab)] + [f"{v:.9g}" for v in row])
    manifest = {
        "config": cfg,
        "file": data_path.name,
        "classes": sorted(int(l) for t in tasks for l in t.labels),
        "rows": sum(len(t.y_train) + len(t.y_test) for t in tasks),
        "per_step_labels": [list(t.labels) for t in tasks],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Features (C-contiguous float64) and int64 labels of a CSV whose header
    is ``label,f1,...,fD``; unreadable, malformed or non-finite input raises
    ConfigurationError.

    One ``np.loadtxt`` call parses a well-formed file: a raw header without
    ``"`` whose first of two or more fields is ``label``, then one line per
    row, at least one, of an int64 label and D finite float64 features, with
    no exception or warning. Any other file (a blank line, which ``loadtxt``
    skips, or a cell only ``int()`` or ``float()`` takes, such as ``1_0``)
    goes to ``_read_checked``, which names faults.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = fh.readline()
            fields = header.rstrip("\r\n").split(",")
            if '"' not in header and fields[0] == "label" and len(fields) > 1:
                row = [("label", np.int64), ("x", np.float64, (len(fields) - 1,))]
                lines = itertools.count()   # one step per line after the header
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = np.loadtxt((line for line, _ in zip(fh, lines)), row, comments=None,
                                      delimiter=",", ndmin=1)
                if 0 < len(rows) == next(lines) and np.isfinite(rows["x"]).all():
                    return np.ascontiguousarray(rows["x"]), rows["label"].copy()
    except (OSError, ValueError, Warning):
        pass
    return _read_checked(path)


def _read_checked(path) -> tuple[np.ndarray, np.ndarray]:
    """``read_dataset_csv``'s reader for any file, naming its first fault.

    Rows are parsed as they are read, into compact arrays, so the file is
    never held as Python strings or floats. The whole file is read before a
    fault is reported, and the first fault in this order wins: an unreadable
    file (also one that turns unreadable after a bad row), a header without
    the leading ``label`` column, no data rows, the first row whose width is
    not the header's, the first label that is not an int64 integer, the first
    feature that is not a number, a non-finite feature.
    """
    labels, feats = array("q"), array("d")
    # The first ragged row, the first bad label and the first bad feature.
    faults = [None, None, None]
    line = 1
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            width, labelled = len(header), header[:1] == ["label"]
            for line, row in enumerate(reader, start=2):
                if faults[0] is not None or not labelled:
                    continue
                if len(row) != width:
                    faults[0] = f" line {line} has {len(row)} fields where the header has {width}"
                    continue
                if faults[1] is not None:
                    continue
                try:
                    labels.append(int(row[0]))
                except (ValueError, OverflowError) as exc:
                    faults[1] = f": {exc}"
                    continue
                if faults[2] is None:
                    try:
                        feats.extend(map(float, row[1:]))
                    except ValueError as exc:
                        faults[2] = f": {exc}"
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"dataset CSV {path}: {exc}") from None
    if not labelled:
        raise ConfigurationError(f"dataset CSV {path} must start with a 'label' column")
    if line == 1:
        raise ConfigurationError(f"dataset CSV {path} has no data rows")
    fault = next((f for f in faults if f is not None), None)
    if fault is not None:
        raise ConfigurationError(f"dataset CSV {path}{fault}")
    x = np.frombuffer(feats, dtype=np.float64).reshape(len(labels), width - 1)
    if not np.isfinite(x).all():
        raise ConfigurationError(f"dataset CSV {path} has a non-finite feature")
    return x, np.frombuffer(labels, dtype=np.int64)


def aggregate_reports(run_dirs: list[str | Path]) -> dict:
    """Merge completed runs into mean/std tables, grouped by config
    (everything except seed and output directory must match)."""
    if not run_dirs:
        raise ConfigurationError("no run directories given")
    reports = [_read_report(d) for d in run_dirs]

    def config_key(rep):
        cfg = {k: v for k, v in rep["config"].items() if k not in ("seed", "out_dir")}
        return json.dumps(cfg, sort_keys=True)

    groups: dict[str, list[dict]] = {}
    for rep in reports:
        groups.setdefault(config_key(rep), []).append(rep)
    if len(groups) > 1 and len({json.dumps(r["config"]["stream"], sort_keys=True)
                                for r in reports}) > 1:
        raise ConfigurationError("runs use incompatible stream configs; refusing to merge")
    rows = []
    for key, members in sorted(groups.items()):
        row = {"runs": len(members), "label": _group_label(members[0]["config"])}
        for name in harness.SUMMARY_METRICS:
            vals = [m["metrics"][name] for m in members if m["metrics"][name] is not None]
            row[name] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))} if vals else None
        rows.append(row)
    return {"groups": rows}


def _read_report(run_dir) -> dict:
    """A run's report.json, whose config must be complete and valid and
    whose metrics must hold every summary metric; else ConfigurationError."""
    path = Path(run_dir) / "report.json"
    try:
        rep = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(rep, dict) or not isinstance(rep.get("metrics"), dict):
            raise ConfigurationError("must hold an object with a 'metrics' object")
        # A run's config is the defaults overlaid and validated, so nothing
        # may be filled in from the defaults.
        if load_config(overrides=rep.get("config")) != rep.get("config"):
            raise ConfigurationError("config is incomplete")
        for name in harness.SUMMARY_METRICS:
            value = rep["metrics"].get(name, "absent")
            if value is not None and not finite_number(value):
                raise ConfigurationError(f"metric '{name}' is {value!r}, not a number or null")
    except (OSError, ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return rep


def _group_label(cfg: dict) -> str:
    gis_on = cfg["pool"]["mode"] == "mixed"
    losses_on = cfg["lambda1"] > 0 or cfg["lambda2"] > 0
    if gis_on and losses_on:
        return "full"
    if gis_on:
        return "search-only"
    if losses_on:
        return "structure-only"
    return "euclidean-baseline"


def write_aggregate(report: dict, out_dir: str | Path):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "runs", "metric", "mean", "std"])
        for group in report["groups"]:
            for name in harness.SUMMARY_METRICS:
                cell = group[name]
                if cell is None:
                    writer.writerow([group["label"], group["runs"], name, "", ""])
                else:
                    writer.writerow([group["label"], group["runs"], name,
                                     f"{cell['mean']:.6f}", f"{cell['std']:.6f}"])
    lines = []
    for group in report["groups"]:
        cells = []
        for name in (harness.SUMMARY_METRICS[0], harness.SUMMARY_METRICS[-1]):
            cell = group[name]
            cells.append("n/a" if cell is None else f"{cell['mean']:.4f}+/-{cell['std']:.4f}")
        lines.append(f"{group['label']:>22}  runs={group['runs']}  "
                     f"final={cells[0]}  forgetting={cells[1]}")
    (out / "aggregate.txt").write_text("\n".join(lines) + "\n")


def write_accuracy_curve(run_dirs: list[str | Path], out_dir: str | Path):
    """Per-run (step, all-seen accuracy) points for external plotting; every
    run's accuracy matrix is read and checked before the file is written, and
    a missing one is as much an error as a malformed one."""
    points = []
    for d in run_dirs:
        path = Path(d) / "accuracy_matrix.csv"
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            accs = [[float(v) for v in row[1:] if v != ""] for row in rows]
            if header[:1] != ["step"] or not all(a and np.isfinite(a).all() for a in accs):
                raise ValueError("needs a 'step' header and a finite accuracy in every row")
        except (OSError, ValueError, csv.Error) as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
        points += [(Path(d).name, row[0], np.mean(a)) for row, a in zip(rows, accs)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "accuracy_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "step", "accuracy"])
        for run, step, mean in points:
            writer.writerow([run, step, f"{mean:.10f}"])
