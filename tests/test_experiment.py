"""The dataset CSV reader against the list-based reader it replaced, which
of its two paths reads which file, and its memory high-water mark."""

import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocl import experiment
from geocl.config import load_config
from geocl.errors import ConfigurationError


def _list_reader(path) -> tuple[np.ndarray, np.ndarray]:
    """The reader that held the whole file as lists of strings, then of
    Python numbers: the definition that ``read_dataset_csv`` must match on
    every input (labels within int64)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"dataset CSV {path}: {exc}") from None
    if not rows or rows[0][:1] != ["label"]:
        raise ConfigurationError(f"dataset CSV {path} must start with a 'label' column")
    if len(rows) == 1:
        raise ConfigurationError(f"dataset CSV {path} has no data rows")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ConfigurationError(f"dataset CSV {path} line {line} has {len(row)} "
                                     f"fields where the header has {len(rows[0])}")
    try:
        y = np.array([int(r[0]) for r in rows[1:]])
        x = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    except ValueError as exc:
        raise ConfigurationError(f"dataset CSV {path}: {exc}") from None
    if not np.isfinite(x).all():
        raise ConfigurationError(f"dataset CSV {path} has a non-finite feature")
    return x, y


def _outcome(reader, path):
    try:
        return reader(path)
    except ConfigurationError as exc:
        return str(exc)


# Cells that are not finite numbers, or numbers only to float() or int().
_ODD = st.sampled_from(["", "x", "0x1", '"5,6"', "nan", "-inf", "1e400", " 2 ", "+3", "1_0",
                        '"4"', "7.0", "-0"])
_CELLS = st.one_of(_ODD, st.integers(-2**63, 2**63 - 1).map(str),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr))
_HEADERS = st.sampled_from(["label,f1,f2", "label,f1,f2", "label,f1", "label",
                            "f1,label,f2", "", '"label",f1,f2'])


@st.composite
def _csv_bytes(draw) -> bytes:
    """Rows of a random header's width, some with faults: a blank line,
    another width, an odd label or an odd feature; at times a
    line that is not UTF-8, in some files after the first 8 KiB; also empty
    and header-only files."""
    header = draw(_HEADERS)
    width = len(header.split(","))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        row = [str(draw(st.integers(-3, 3)))] + [repr(draw(st.floats(-5.0, 5.0)))
                                                 for _ in range(width - 1)]
        fault = draw(st.sampled_from(["none"] * 5 + ["width", "label", "feature", "blank"]))
        if fault == "blank":
            row = []
        elif fault == "width":
            row = [draw(_CELLS) for _ in range(draw(st.integers(0, width + 1)))]
        elif fault == "label":
            row[0] = draw(_CELLS)
        elif fault == "feature" and width > 1:
            row[draw(st.integers(1, width - 1))] = draw(_ODD)
        lines.append(",".join(row))
    # Well-formed filler rows, so that a later line lies past the first
    # 8 KiB that the text layer decodes at once.
    filler = ",".join(["1"] + ["0.123456789"] * (width - 1))
    at = draw(st.integers(1, len(lines)))
    lines[at:at] = [filler] * draw(st.sampled_from([0, 0, 800]))
    data = [line.encode() for line in lines]
    if draw(st.integers(0, 4)) == 0:
        data.insert(draw(st.integers(0, len(data))), b"\xff\xfe,1")
    text = draw(st.sampled_from([b"\n", b"\r\n"])).join(data)
    return text + (b"\n" if draw(st.booleans()) else b"")


@settings(max_examples=400, deadline=None)
@given(_csv_bytes())
def test_reads_as_the_list_reader(data):
    """Same int64 labels and C-contiguous float64 features, or the same
    ConfigurationError message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        want, got = _outcome(_list_reader, path), _outcome(experiment.read_dataset_csv, path)
    if isinstance(want, str):
        assert got == want
        return
    (want_x, want_y), (x, y) = want, got
    assert y.dtype == np.int64 and x.dtype == np.float64 and x.flags.c_contiguous
    assert x.shape == want_x.shape and np.array_equal(x, want_x)
    assert y.shape == want_y.shape and np.array_equal(y, want_y)


_FILLER = b"1,0.123456789\n" * 1000     # past the 8 KiB decoded at once


@pytest.mark.parametrize("data", [
    b"label,f1\n1,0.5\n2,x\n",               # bad feature, then the file is fine
    b"label,f1\n1,x\n2,y\n",                 # the first bad feature is reported
    b"label,f1\n1,x\n2\n",                   # a ragged row outranks a bad feature
    b"label,f1\n1,x\ny,0.5\n",               # a bad label outranks an earlier bad feature
    b"label,f1\n1\n" + _FILLER + b"\xff\n",    # bad UTF-8 outranks an earlier ragged row
    b"f1\n" + _FILLER + b"\xff\n",             # ... and a bad header
    b"label,f1\n1,0.5\n3,inf\n",
    b"label,f1\n",
    b"",
    b"label,f1\n9223372036854775807,0.5\n",
    b"label,f1\n1,0.5\n\n2,0.25\n",         # loadtxt skips a blank line
    b"label,f1\n1,0.5\n2,0.25\n\n",
    b'label,"f,1"\n1,2,3\n',                # two header fields, not three
    b"label,f1\n1,0.5\n   \n2,0.25\n",
    b"label,f1\n1_0,0.5\n",                 # int() and float() take 1_0
    b"label,f1\n1,1_0\n",
    b"label,f1\r\n1,0.5\r\n2,0.25\r\n",
], ids=["bad-feature", "two-bad-features", "ragged-after-bad-feature",
        "bad-label-after-bad-feature", "bad-utf8-after-ragged", "bad-utf8-after-header",
        "non-finite", "header-only", "empty", "int64-max-label", "blank-line",
        "blank-last-line", "quoted-header-comma", "spaces-only-line", "underscore-label",
        "underscore-feature", "crlf"])
def test_fault_order_is_the_list_readers(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    want, got = _outcome(_list_reader, path), _outcome(experiment.read_dataset_csv, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _refuse(path):
    raise RuntimeError("the checked reader was called")


_BENCH_LIKE = b"label," + b",".join(b"f%d" % i for i in range(1, 9)) + b"\n" + b"".join(
    b"%d,%s\n" % (lab, b",".join(b"%.9g" % v for v in row)) for row, lab in
    zip(np.random.default_rng(1).normal(size=(300, 8)), range(300)))


def _quote_all(data: bytes) -> bytes:
    """The same rows as ``csv.writer(quoting=csv.QUOTE_ALL)`` writes them."""
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(data.decode())))
    return out.getvalue().encode()


with tempfile.TemporaryDirectory() as _tmp:
    experiment.write_dataset_csv(load_config(overrides={"stream": {
        "classes": 4, "steps": 2, "samples_per_class": 15, "test_per_class": 5,
        "ambient_dim": 6}}), _tmp)
    _SYNTH = (Path(_tmp) / "dataset.csv").read_bytes()     # the bench's CRLF file


@pytest.mark.parametrize("data, checked", [
    (b"label,f1\n1,0.5\n2,0.25", False),
    (b"label,f1,f2\r\n-3,1e-3,-0\r\n+4, 2 ,.5\r\n", False),
    (b"label,f1\r1,5e-324\r", False),
    (_BENCH_LIKE, False),
    (_quote_all(_BENCH_LIKE), False),
    (_SYNTH, False),
    (b"label,f1\n1,0.5\n\n2,0.25\n", True),
    (b'label,"f,1"\n1,2,3\n', True),
    (b"label,f1\n1_0,0.5\n", True),
], ids=["no-final-newline", "crlf-signs-spaces", "cr-subnormal", "bench-like", "quote-all",
        "write-dataset-csv", "blank-line", "quoted-header-comma", "underscore-label"])
def test_a_well_formed_file_skips_the_checked_reader(tmp_path, monkeypatch, data, checked):
    """A well-formed file is read without the checked reader, with the list
    reader's arrays; any other file goes to it."""
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    want = _outcome(_list_reader, path)
    monkeypatch.setattr(experiment, "_read_checked", _refuse)
    if checked:
        with pytest.raises(RuntimeError, match="checked reader"):
            experiment.read_dataset_csv(path)
        return
    x, y = experiment.read_dataset_csv(path)
    assert y.dtype == np.int64 and x.dtype == np.float64 and x.flags.c_contiguous
    assert np.array_equal(x, want[0]) and np.array_equal(y, want[1])


@pytest.mark.parametrize("data, checked", [
    (b"label,f1\n1,0.5\n2,0.25\n", False),
    (b"label,f1\n1,0.5\n\n2,0.25\n", True),
], ids=["well-formed", "blank-line"])
def test_a_byte_order_mark_reads_as_the_file_without_it(tmp_path, monkeypatch, data, checked):
    """A UTF-8 byte-order mark before the header changes nothing: a
    well-formed file still takes the fast path, and any other file has its
    own fault named, not a missing 'label' column."""
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    want = _outcome(experiment.read_dataset_csv, path)
    path.write_bytes(b"\xef\xbb\xbf" + data)
    if checked:
        assert _outcome(experiment.read_dataset_csv, path) == want
        assert want.endswith("line 3 has 0 fields where the header has 2")
        return
    monkeypatch.setattr(experiment, "_read_checked", _refuse)
    x, y = experiment.read_dataset_csv(path)
    assert np.array_equal(x, want[0]) and np.array_equal(y, want[1])


def test_label_beyond_int64_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label,f1\n1,0.5\n9223372036854775808,0.5\n")
    with pytest.raises(ConfigurationError, match="dataset CSV .*: int too big"):
        experiment.read_dataset_csv(path)


def test_peak_memory_is_a_few_arrays(tmp_path):
    """Reading a 2,000 x 32 CSV, with every cell quoted or not, peaks at no
    more than four times the bytes of its feature array (a reader that
    holds every cell as a Python string or float peaks at over ten times)."""
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(2000, 32)), rng.integers(0, 40, 2000)
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        path = tmp_path / f"data-{quoting}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=quoting)
            writer.writerow(["label"] + [f"f{i + 1}" for i in range(32)])
            writer.writerows([int(lab)] + [f"{v:.9g}" for v in row] for row, lab in zip(x, y))
        experiment.read_dataset_csv(path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got, labels = experiment.read_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.array_equal(labels, y) and np.abs(got - x).max() < 1e-8
        assert peak <= 4 * got.nbytes, quoting
