"""The summary of ``tools/bench_pairs.py``, on canned ``bench/run.py`` output
and child result files."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"run_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def printout(run_s, setup_s=0.2, rss=50.0, failed=0, attempted=8):
    """A runner printout: human-readable lines, then the JSON result line."""
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "workload=ref-full seed=1 nproc=2",
        f"run_s = {run_s} s (median; max {run_s}; n=2)",
        json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics})]) + "\n"


def test_parse_result_takes_the_last_line():
    result = bench_pairs.parse_result(printout(1.5))
    assert result["metrics"]["run_s"] == {"value": 1.5, "unit": "s"}
    assert (result["attempted"], result["failed"]) == (8, 0)


@pytest.mark.parametrize("text", ["", "no run succeeded\n"])
def test_parse_result_without_json(text):
    result = bench_pairs.parse_result(text)
    assert result["metrics"] == {} and result["attempted"] is None


@pytest.mark.parametrize("text, seeds", [("21-25", [21, 22, 23, 24, 25]), ("3", [3])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["5-4", "-3", "a-b"])
def test_parse_seeds_rejects(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)


def pairs_of(runs, failed_pair=None):
    return [(bench_pairs.parse_result(printout(p)),
             bench_pairs.parse_result(printout(c, failed=int(i == failed_pair))))
            for i, (p, c) in enumerate(runs)]


def test_pair_lines_alternate_which_tree_goes_first():
    pairs = pairs_of([(1.6, 1.4), (1.5, 1.3)], failed_pair=1)
    first, second = (bench_pairs.pair_line(i, 21 + i, pair, BETTER)
                     for i, pair in enumerate(pairs))
    assert first == ("pair 0 seed 21 (parent first) parent / change: run_s 1.6 / 1.4; "
                     "setup_s 0.2 / 0.2; peak_rss_mb 50 / 50; runs 0/8 failed / 0/8 failed")
    assert second.startswith("pair 1 seed 22 (change first)")
    assert second.endswith("runs 0/8 failed / 1/8 failed")


def test_summary_of_four_pairs():
    pairs = pairs_of([(1.6, 1.4), (1.5, 1.3), (1.7, 1.45), (1.4, 1.5)], failed_pair=3)
    lines = bench_pairs.summarize(pairs, BETTER)
    assert len(lines) == 2 * 3 + 1
    # Parent 1.4 1.5 1.6 1.7 and change 1.3 1.4 1.45 1.5, linear interpolation.
    assert lines[0].startswith("run_s (s, lower is better): parent median 1.55 "
                               "[q1 1.475, q3 1.625], change median 1.425 [q1 1.375, q3 1.4625];")
    assert "median difference -0.125 against parent IQR 0.15" in lines[0]
    assert lines[0].endswith("change better in 3/4 pairs")
    assert lines[1] == ("run_s: gain rule not met (>= 10 pairs, better in >= 9/10, median gain "
                        "> parent IQR): 4 pairs, better in 3, median gain +0.125 against "
                        "parent IQR 0.15")
    assert lines[2].endswith("change better in 0/4 pairs")  # equal set-up times
    assert lines[-1] == "failed runs: parent 0 of 32, change 1 of 32"


@pytest.mark.parametrize("runs, better, met", [
    ([(1.0 + i / 100, 0.9 + i / 100) for i in range(10)], "lower", True),
    # Nine wins and one loss: nine tenths.
    ([(1.0 + i / 100, 0.9 + i / 100) for i in range(9)] + [(1.0, 1.2)], "lower", True),
    # Eight wins and a tie.
    ([(1.0 + i / 100, 0.9 + i / 100) for i in range(8)] + [(1.0, 1.2), (1.1, 1.1)],
     "lower", False),
    # Every pair better, but by less than the parent's spread.
    ([(1.0 + i / 10, 0.99 + i / 10) for i in range(10)], "lower", False),
    ([(1.0 + i / 100, 0.9 + i / 100) for i in range(9)], "lower", False),  # nine pairs
    ([(0.9 + i / 100, 1.0 + i / 100) for i in range(10)], "higher", True),
    ([(1.0 + i / 100, 0.9 + i / 100) for i in range(10)], "higher", False),
], ids=["ten-of-ten", "nine-of-ten", "eight-and-a-tie", "within-iqr", "nine-pairs",
        "higher-better", "higher-worse"])
def test_gain_rule(runs, better, met):
    line = bench_pairs.summarize(pairs_of(runs), {"run_s": better})[1]
    assert line.startswith(f"run_s: gain rule {'met' if met else 'not met'} (")


def test_summary_skips_a_pair_without_result():
    pairs = [(bench_pairs.parse_result(printout(1.0)), bench_pairs.parse_result(printout(0.9))),
             (bench_pairs.parse_result(printout(1.1)), bench_pairs.parse_result(""))]
    assert bench_pairs.pair_line(1, 2, pairs[1], ["run_s"]).endswith(
        "run_s 1.1 / -; runs 0/8 failed / no result")
    lines = bench_pairs.summarize(pairs, {"run_s": "lower"})
    assert lines[0].startswith("run_s (s, lower is better): parent median 1 [q1 1, q3 1]")
    assert lines[0].endswith("change better in 1/1 pairs")
    assert lines[2] == "failed runs: parent 0 of 16, change 0 of 8"


def write_children(tree, workload, seed, children):
    """Child result files as one ``bench/run.py --trace 0`` invocation
    leaves them; a string is written as it is."""
    work = tree / ".bench_out" / f"{workload}-seed{seed}-trace0"
    work.mkdir(parents=True)
    for index, child in enumerate(children):
        text = child if isinstance(child, str) else json.dumps(child)
        (work / f"run-{index}.json").write_text(text)


def test_wall_clock_reads_the_child_result_files(tmp_path):
    write_children(tmp_path, "ref-full", 3, [
        {"setup_s": 0.2, "run_s": 1.0, "calibration_s": [0.0015], "peak_rss_mb": 50.0},
        {"setup_s": 0.1, "calibration_s": [0.0014]},
        {"setup_s": 0.3, "calibration_s": [0.0016]},
        {"setup_s": 0.25, "run_s": 1.4, "calibration_s": [0.0015], "peak_rss_mb": 50.0},
        "{",
    ])
    write_children(tmp_path, "ref-full", 4, [{"setup_s": 9.0, "run_s": 9.0}])
    metrics = bench_pairs.wall_clock(tmp_path, "ref-full", 3)
    assert metrics == {"wall_clock.run_s": {"value": 1.2, "unit": "s"},
                       "wall_clock.setup_s": {"value": 0.225, "unit": "s"}}
    assert bench_pairs.wall_clock(tmp_path, "ref-full", 5) == {}


def test_run_bench_adds_the_wall_clock_medians(tmp_path):
    # A fake runner that leaves two children's files and prints its result.
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, pathlib\n"
        "work = pathlib.Path('.bench_out/ref-full-seed7-trace0')\n"
        "work.mkdir(parents=True)\n"
        "(work / 'run-0.json').write_text(json.dumps({'setup_s': 0.1, 'run_s': 0.5}))\n"
        "(work / 'run-1.json').write_text(json.dumps({'setup_s': 0.2}))\n"
        f"print({printout(0.6, setup_s=0.16)!r})\n")
    result = bench_pairs.run_bench(tmp_path, "ref-full", 7, 1.0)
    assert result["metrics"]["run_s"] == {"value": 0.6, "unit": "s"}
    assert result["metrics"]["wall_clock.run_s"] == {"value": 0.5, "unit": "s"}
    assert result["metrics"]["wall_clock.setup_s"]["value"] == pytest.approx(0.15)
    better = dict(BETTER, **dict.fromkeys(bench_pairs.WALL_CLOCK, "lower"))
    lines = bench_pairs.summarize([(result, result)], better)
    assert lines[6].startswith("wall_clock.run_s (s, lower is better): parent median 0.5 ")
    assert lines[8].startswith("wall_clock.setup_s (s, lower is better): parent median 0.15 ")


@pytest.mark.parametrize("runs, better, verdict", [
    # Parent median 1.045 and IQR 0.045: the allowed 0.25 x 1.045 covers a
    # change median 0.2 worse, but not 0.3.
    ([(1.0 + i / 100, 1.2 + i / 100) for i in range(10)], "lower", "within bound"),
    ([(1.0 + i / 100, 1.3 + i / 100) for i in range(10)], "lower", "worse than bound"),
    ([(1.0 + i / 100, 0.8 - i / 100) for i in range(10)], "higher", "worse than bound"),
    # Parent IQR 0.45 of a 1.45 median exceeds the bound: unresolved, even
    # with the change better in every pair ...
    ([(1.0 + i / 10, 0.99 + i / 10) for i in range(10)], "lower", "unresolved"),
    # ... unless every change run beats every parent run.
    ([(1.0 + i / 10, 0.9 - i / 100) for i in range(10)], "lower", "within bound"),
], ids=["within", "worse", "worse-higher-better", "unresolved", "wide-but-every-run-better"])
def test_no_regression_verdict(runs, better, verdict):
    lines = bench_pairs.summarize(pairs_of(runs), {"run_s": better}, {"run_s": 0.25})
    assert len(lines) == 4
    assert lines[2].startswith(f"run_s: {verdict} (bound 0.25 x parent median = ")


def test_no_verdict_without_a_bound():
    runs = [(1.0 + i / 100, 1.3 + i / 100) for i in range(10)]
    lines = bench_pairs.summarize(pairs_of(runs), {"run_s": "lower", "setup_s": "lower"},
                                  {"setup_s": 0.25})
    assert [line.split(" ")[0] for line in lines[:5]] == ["run_s", "run_s:", "setup_s",
                                                          "setup_s:", "setup_s:"]
    assert lines[4].startswith("setup_s: within bound (bound 0.25 x parent median = 0.05)")
