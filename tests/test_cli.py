import json
from pathlib import Path

import numpy as np
import pytest

from geocl import cli, experiment, geometry, harness, model, verify
from geocl.config import load_config


def tiny_overrides(out_dir):
    return {
        "stream": {"classes": 4, "steps": 2, "samples_per_class": 15,
                   "test_per_class": 5, "ambient_dim": 6, "noise": 0.3},
        "backbone": {"hidden_dim": 12, "feature_dim": 8},
        "pool": {"sizes": [4]},
        "epochs_main": 3,
        "epochs_gis": 1,
        "buffer": {"per_class": 10},
        "out_dir": str(out_dir),
    }


def write_tiny_config(tmp_path, name="cfg.json", **extra):
    over = tiny_overrides(tmp_path / "run")
    for k, v in extra.items():
        if isinstance(v, dict):
            over.setdefault(k, {}).update(v)
        else:
            over[k] = v
    p = tmp_path / name
    p.write_text(json.dumps(over))
    return p


class TestRun:
    def test_writes_reports_and_exits_zero(self, tmp_path, capsys):
        cfg_path = write_tiny_config(tmp_path)
        rc = cli.main(["run", "--config", str(cfg_path)])
        assert rc == 0
        out_dir = tmp_path / "run"
        for name in ("accuracy_matrix.csv", "metrics.json", "report.json"):
            assert (out_dir / name).exists()
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["final_accuracy"] <= 1.0
        assert "final_accuracy" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append((out / "accuracy_matrix.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_flag_changes_results(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        outs = []
        for seed, sub in [(0, "s0"), (1, "s1")]:
            out = tmp_path / sub
            assert cli.main(["run", "--config", str(cfg_path), "--seed", str(seed),
                             "--out", str(out)]) == 0
            outs.append((out / "accuracy_matrix.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_bad_config_key_exit_code_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"learning_rate": 0.1}))
        assert cli.main(["run", "--config", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exit_code_1(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("text", ['{"seed": 5, "stream": {"noi', "[1, 2]",
                                      '{"lambda1": NaN}', '{"lr_main": Infinity}',
                                      '{"stream": {"csv_path": 5}}',
                                      '{"stream": {"csv_path": ""}}'],
                             ids=["truncated", "top-level-list", "nan", "infinity",
                                  "csv-path-int", "csv-path-empty"])
    def test_malformed_config_exit_code_1_with_one_line(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["run", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDivergingRun:
    def test_exit_code_2_with_one_line_and_no_warning(self, tmp_path, capsys, recwarn):
        cfg = {"stream": {"classes": 4, "steps": 2, "samples_per_class": 10,
                          "test_per_class": 4},
               "epochs_main": 1, "lr_main": 1e300, "out_dir": str(tmp_path / "run")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestUnusableOut:
    @pytest.mark.parametrize("command", ["run", "synth", "report"])
    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_exit_code_1_with_one_line(self, tmp_path, capsys, monkeypatch, command, where):
        """--out naming an existing file, or a path under one, fails before
        any step runs."""
        steps = []
        monkeypatch.setattr(harness, "run_step", lambda *args: steps.append(args))
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken if where == "file" else taken / "sub"
        if command == "report":
            argv = ["report", TestReport.write_run_dir(tmp_path / "run")]
        else:
            argv = [command, "--config", str(write_tiny_config(tmp_path))]
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert steps == []


class TestMalformedCsv:
    @pytest.mark.parametrize("text", [
        "",
        "label,f1,f2\n",
        "label,f1,f2\n0,1.0,2.0\n1,1.0\n",
        "label,f1,f2\n0,1.0,abc\n",
        "label,f1,f2\nx,1.0,2.0\n",
        "label,f1,f2\n0,1.0,nan\n",
        "label,f1,f2\n0,inf,2.0\n",
    ], ids=["empty", "header-only", "ragged", "non-numeric", "non-integer-label",
            "nan", "inf"])
    def test_exit_code_1_with_one_line(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        cfg_path = write_tiny_config(tmp_path, stream={"csv_path": str(data)})
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset CSV") and err.count("\n") == 1

    def test_directory_exit_code_1_with_one_line(self, tmp_path, capsys):
        cfg_path = write_tiny_config(tmp_path, stream={"csv_path": str(tmp_path)})
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset CSV") and err.count("\n") == 1

    def test_class_without_train_row_exit_code_1(self, tmp_path, capsys):
        # at seed 0 the only row of class 3 hashes to the test split
        data = tmp_path / "data.csv"
        rows = [f"{lab},{lab + i / 100:.2f},0,0,0,0,0" for lab in range(3) for i in range(20)]
        data.write_text("label,f1,f2,f3,f4,f5,f6\n" + "\n".join(rows + ["3,7,7,7,7,7,7"]) + "\n")
        cfg_path = write_tiny_config(tmp_path, stream={"csv_path": str(data)})
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: class 3 has no train row") and err.count("\n") == 1

    def test_class_count_other_than_stream_classes_exit_code_1(self, tmp_path, capsys):
        # a 4-class CSV under stream.classes 2 would train 4 classes and echo 2
        data = tmp_path / "data.csv"
        rows = [f"{lab},{lab + i / 100:.2f},0,0,0,0,0" for lab in range(4) for i in range(20)]
        data.write_text("label,f1,f2,f3,f4,f5,f6\n" + "\n".join(rows) + "\n")
        cfg_path = write_tiny_config(tmp_path, stream={"csv_path": str(data), "classes": 2})
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: CSV class count 4 != stream.classes 2\n"
        assert not (tmp_path / "run").exists()


class TestSynth:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        cfg_path = write_tiny_config(tmp_path)
        rc = cli.main(["synth", "--config", str(cfg_path)])
        assert rc == 0
        out = tmp_path / "run"
        assert (out / "dataset.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rows"] == 4 * (15 + 5)
        assert manifest["classes"] == [0, 1, 2, 3]

    def test_roundtrip_through_csv(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        assert cli.main(["synth", "--config", str(cfg_path)]) == 0
        x, y = experiment.read_dataset_csv(tmp_path / "run" / "dataset.csv")
        assert x.shape == (80, 6)
        assert set(y.tolist()) == {0, 1, 2, 3}
        # a run from the CSV must work end to end
        run_out = tmp_path / "csvrun"
        cfg2 = write_tiny_config(
            tmp_path, name="cfg2.json",
            stream={"csv_path": str(tmp_path / "run" / "dataset.csv")},
            out_dir=str(run_out))
        assert cli.main(["run", "--config", str(cfg2)]) == 0
        assert (run_out / "metrics.json").exists()


class TestVerify:
    def test_passes_at_default_tolerance(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_fails_at_impossible_tolerance(self, capsys):
        assert cli.main(["verify", "--tolerance", "1e-30"]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
    def test_bad_tolerance_exit_code_1_without_running(self, capsys, value):
        assert cli.main(["verify", "--tolerance", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "--tolerance" in err and err.count("\n") == 1

    def test_angle_check_fails_on_curvature_dependent_tangent(self, monkeypatch):
        # A tangent that reads curvature (the lifted point, not its log)
        # must change the engine's cosines and fail the check.
        def lifted(feats, space):
            zero = np.zeros((len(feats), 1))
            return np.concatenate([geometry.exp_map(zero, feats[:, f.columns], f.curvature)
                                   for f in space.factors], axis=-1)

        assert verify.check_angle_conformality().passed
        monkeypatch.setattr(model, "tangent_concat_np", lifted)
        assert not verify.check_angle_conformality().passed


class TestReport:
    def test_aggregates_multiple_seeds(self, tmp_path, capsys):
        cfg_path = write_tiny_config(tmp_path)
        dirs = []
        for seed in (0, 1):
            out = tmp_path / f"seed{seed}"
            assert cli.main(["run", "--config", str(cfg_path), "--seed", str(seed),
                             "--out", str(out)]) == 0
            dirs.append(str(out))
        capsys.readouterr()  # drain the per-run output
        report_out = tmp_path / "agg"
        rc = cli.main(["report", *dirs, "--out", str(report_out)])
        assert rc == 0
        assert (report_out / "aggregate.csv").exists()
        assert (report_out / "aggregate.txt").exists()
        payload = json.loads(capsys.readouterr().out)
        (group,) = payload["groups"]
        assert group["runs"] == 2
        assert group["label"] == "full"
        assert 0.0 <= group["final_accuracy"]["mean"] <= 1.0

    def test_missing_run_dir_exit_code_1(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "ghost"), "--out",
                         str(tmp_path / "agg")]) == 1

    @staticmethod
    def write_run_dir(path, edit=None, matrix="step,task_1\n1,0.5\n"):
        """A run directory as `run` leaves it, written by hand; ``edit`` is
        a text for report.json or a function that changes the report, and
        ``matrix`` the accuracy matrix's contents, or None for no matrix."""
        path.mkdir()
        report = {"config": load_config(overrides=tiny_overrides(path)),
                  "metrics": {name: 0.5 for name in harness.SUMMARY_METRICS}}
        if callable(edit):
            edit(report)
        (path / "report.json").write_text(edit if isinstance(edit, str) else json.dumps(report))
        if matrix is not None:
            (path / "accuracy_matrix.csv").write_bytes(
                matrix if isinstance(matrix, bytes) else matrix.encode())
        return str(path)

    def test_handwritten_run_dir_accepted(self, tmp_path, capsys):
        run = self.write_run_dir(tmp_path / "run")
        assert cli.main(["report", run, "--out", str(tmp_path / "agg")]) == 0
        assert (tmp_path / "agg" / "accuracy_curve.csv").read_text().splitlines() == [
            "run,step,accuracy", "run,1,0.5000000000"]

    @pytest.mark.parametrize("edit", [
        "{bad", "[1, 2]", "null",
        lambda r: r.pop("config"),
        lambda r: r.pop("metrics"),
        lambda r: r.update(config=[]),
        lambda r: r.update(metrics=None),
        lambda r: r["metrics"].pop("final_accuracy"),
        lambda r: r["metrics"].update(average_forgetting="high"),
        lambda r: r["metrics"].update(final_accuracy=True),
        lambda r: r.update(config={}),
        lambda r: r["config"].pop("pool"),
        lambda r: r["config"].update(lambda1=-1.0),
        lambda r: r["config"].update(pool=3),
        lambda r: r["config"].update(unknown=1),
    ], ids=["not-json", "not-object", "null", "no-config", "no-metrics", "config-not-object",
            "metrics-not-object", "metric-missing", "metric-string", "metric-bool",
            "config-empty", "config-incomplete", "config-invalid",
            "config-section-not-object", "config-unknown-key"])
    def test_malformed_report_exit_code_1_with_one_line(self, tmp_path, capsys, edit):
        run = self.write_run_dir(tmp_path / "run", edit)
        assert cli.main(["report", run, "--out", str(tmp_path / "agg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "report.json" in err and err.count("\n") == 1
        assert not (tmp_path / "agg").exists()

    @pytest.mark.parametrize("matrix", [
        "", "\n", "task,task_1\n1,0.5\n", "step,task_1\n1,abc\n", "step,task_1\n1,\n",
        "step,task_1\n\n", "step,task_1\n1,nan\n", b"step,task_1\n1,\xff\n", None,
    ], ids=["empty", "blank", "bad-header", "non-numeric", "no-accuracy", "blank-row",
            "nan", "not-utf8", "missing"])
    def test_malformed_accuracy_matrix_exit_code_1_with_one_line(self, tmp_path, capsys,
                                                                 matrix):
        run = self.write_run_dir(tmp_path / "run", matrix=matrix)
        assert cli.main(["report", run, "--out", str(tmp_path / "agg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "accuracy_matrix.csv" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "agg").exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["bogus"], ["run", "--seed", "abc"],
                                      ["run", "--bogus"], ["report", "somewhere"]],
                             ids=["no-command", "unknown-command", "non-int-seed",
                                  "unknown-option", "report-without-out"])
    def test_usage_error_exit_code_1_with_one_line(self, capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
