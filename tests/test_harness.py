import hashlib
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocl import experiment, gis, harness, model
from geocl.autodiff import Tensor
from geocl.errors import ConfigurationError, ContractViolation
from geocl.gis import build_pool


class TestPhaseRng:
    def test_distinct_phases_distinct_streams(self):
        a = harness.phase_rng(0, 1, "main").normal(size=4)
        b = harness.phase_rng(0, 1, "gis").normal(size=4)
        c = harness.phase_rng(0, 2, "main").normal(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reproducible(self):
        a = harness.phase_rng(7, 3, "buffer").normal(size=4)
        b = harness.phase_rng(7, 3, "buffer").normal(size=4)
        np.testing.assert_array_equal(a, b)


class TestSyntheticStream:
    def make(self, seed=0, **kw):
        args = dict(classes=8, steps=4, samples_per_class=10, test_per_class=5,
                    ambient_dim=6, tree_fraction=0.5, noise=0.2, seed=seed)
        args.update(kw)
        return harness.generate_synthetic_stream(**args)

    def test_shapes_and_determinism(self):
        t1 = self.make()
        t2 = self.make()
        assert len(t1) == 4
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.x_train, b.x_train)
            np.testing.assert_array_equal(a.y_test, b.y_test)
        assert t1[0].x_train.shape == (20, 6)
        assert t1[0].x_test.shape == (10, 6)

    def test_label_disjointness(self):
        tasks = self.make()
        seen = set()
        for task in tasks:
            labs = set(task.labels)
            assert not labs & seen
            seen |= labs
        assert seen == set(range(8))

    def test_seed_changes_data(self):
        a = self.make(seed=0)
        b = self.make(seed=1)
        assert not np.array_equal(a[0].x_train, b[0].x_train)

    def test_nondividing_classes_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make(classes=7)


class TestStreamFromArrays:
    def make_data(self, rng):
        y = np.repeat(np.arange(4), 30)
        x = rng.normal(size=(120, 5)) + y[:, None]
        return x, y

    def test_split_and_disjointness(self):
        x, y = self.make_data(np.random.default_rng(0))
        tasks = harness.stream_from_arrays(x, y, steps=2, train_ratio=0.8, seed=0)
        assert len(tasks) == 2
        assert set(tasks[0].labels) == {0, 1}
        assert set(tasks[1].labels) == {2, 3}
        n = len(tasks[0].y_train) + len(tasks[0].y_test)
        assert n == 60
        assert 0.6 <= len(tasks[0].y_train) / n <= 0.95

    def test_split_stable_under_row_shuffle(self):
        x, y = self.make_data(np.random.default_rng(1))
        tasks_a = harness.stream_from_arrays(x, y, steps=2, train_ratio=0.8, seed=0)
        perm = np.random.default_rng(2).permutation(len(y))
        tasks_b = harness.stream_from_arrays(x[perm], y[perm], steps=2,
                                             train_ratio=0.8, seed=0)
        for a, b in zip(tasks_a, tasks_b):
            sa = set(map(tuple, np.round(a.x_train, 9)))
            sb = set(map(tuple, np.round(b.x_train, 9)))
            assert sa == sb

    def single_row_class(self):
        x, y = self.make_data(np.random.default_rng(3))
        return np.concatenate([x, x[:1] + 9.0]), np.append(y, 4)

    def test_class_without_train_row_rejected(self):
        # at seed 0 the only row of class 4 hashes to the test split
        x, y = self.single_row_class()
        with pytest.raises(ConfigurationError, match="class 4 has no train row"):
            harness.stream_from_arrays(x, y, steps=5, train_ratio=0.8, seed=0)

    def test_step_without_test_row_rejected(self):
        # at seed 1 it hashes to the train split, leaving step 5 no test row
        x, y = self.single_row_class()
        with pytest.raises(ConfigurationError, match=r"step 5 \(classes \[4\]\) has no test row"):
            harness.stream_from_arrays(x, y, steps=5, train_ratio=0.8, seed=1)

    def test_class_without_test_row_kept(self):
        x, y = self.single_row_class()
        (task,) = harness.stream_from_arrays(x, y, steps=1, train_ratio=0.8, seed=1)
        assert 4 in task.labels and 4 not in task.y_test

    @pytest.mark.parametrize("ratio, message", [(0.0, "class 0 has no train row"),
                                                (1.0, "step 1 .* has no test row")],
                             ids=["all-test", "all-train"])
    def test_extreme_train_ratio_rejected(self, ratio, message):
        x, y = self.make_data(np.random.default_rng(4))
        with pytest.raises(ConfigurationError, match=message):
            harness.stream_from_arrays(x, y, steps=2, train_ratio=ratio, seed=0)


_CELLS = st.one_of(st.integers(-1, 3).map(str), st.floats(-5.0, 5.0).map(repr),
                   st.sampled_from(["", "nan", "inf", "x", "1.5"]))


def _class_rows(counts: list[int], seed: int) -> list[list[str]]:
    """``counts[c]`` rows of class ``c`` with two random features each."""
    rng = np.random.default_rng(seed)
    return [[str(lab)] + [repr(float(v)) for v in rng.normal(size=2)]
            for lab, n in enumerate(counts) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["label,f1,f2"] * 4 + ["label,f1", "f1,label,f2", ""]),
       st.lists(st.integers(0, 10), max_size=4),
       st.one_of(st.just([]), st.lists(st.lists(_CELLS, max_size=4), max_size=2)),
       st.sampled_from([1, 2]), st.floats(0.0, 1.0),
       st.integers(0, 5))
def test_random_csv_streams_or_is_rejected(header, counts, bad_rows, steps, train_ratio, seed):
    """A dataset CSV either gives tasks that can be trained and evaluated
    (every class has a train row, every step a test row), or raises
    ConfigurationError."""
    rows = _class_rows(counts, seed) + bad_rows
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text)
        try:
            x, y = experiment.read_dataset_csv(path)
            tasks = harness.stream_from_arrays(x, y, steps, train_ratio, seed)
        except ConfigurationError:
            return
    assert len(tasks) == steps
    for task in tasks:
        assert len(task.y_test) and set(task.y_test.tolist()) <= set(task.labels)


class TestMemoryBuffer:
    def test_per_class_cap(self):
        buf = harness.MemoryBuffer()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = np.repeat([0, 1], 50)
        buf.update(x, y, policy="per_class", per_class=20, budget=0, rng=rng)
        labs, counts = np.unique(buf.y, return_counts=True)
        assert dict(zip(labs.tolist(), counts.tolist())) == {0: 20, 1: 20}

    def test_fewer_available_than_cap(self):
        buf = harness.MemoryBuffer()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        y = np.zeros(5, dtype=int)
        buf.update(x, y, policy="per_class", per_class=20, budget=0, rng=rng)
        assert len(buf) == 5

    def test_global_budget_rebalances_largest_class(self):
        buf = harness.MemoryBuffer()
        rng = np.random.default_rng(2)
        buf.update(rng.normal(size=(30, 3)), np.zeros(30, dtype=int),
                   policy="global", per_class=0, budget=40, rng=rng)
        assert len(buf) == 30
        buf.update(rng.normal(size=(30, 3)), np.ones(30, dtype=int),
                   policy="global", per_class=0, budget=40, rng=rng)
        assert len(buf) == 40
        labs, counts = np.unique(buf.y, return_counts=True)
        assert counts.max() - counts.min() <= 1  # evictions target the largest class

    def test_buffer_rows_come_from_stream(self):
        buf = harness.MemoryBuffer()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        y = np.repeat([0, 1], 25)
        buf.update(x, y, policy="per_class", per_class=10, budget=0, rng=rng)
        pool_rows = set(map(tuple, np.round(x, 9)))
        for row in buf.x:
            assert tuple(np.round(row, 9)) in pool_rows


def _rebalance_reference(x, y, budget, rng):
    """Eviction one row at a time, recounting and copying the buffer for
    every row: the definition that ``MemoryBuffer._rebalance`` must match."""
    while len(y) > budget:
        labs, counts = np.unique(y, return_counts=True)
        drop = rng.choice(np.nonzero(y == labs[np.argmax(counts)])[0])
        keep = np.ones(len(y), dtype=bool)
        keep[drop] = False
        x, y = x[keep], y[keep]
    return x, y


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=80), st.integers(1, 90),
       st.integers(0, 2**32 - 1))
def test_rebalance_evicts_the_rows_of_the_reference_loop(labels, budget, seed):
    """Same rows kept, in the same order, and the generator left in the same
    state as evicting one row at a time."""
    y = np.array(labels)
    x = np.random.default_rng(seed).normal(size=(len(y), 2))
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want_x, want_y = _rebalance_reference(x, y, budget, want_rng)
    buf = harness.MemoryBuffer(x, y)
    buf._rebalance(budget, got_rng)
    assert np.array_equal(buf.x, want_x) and np.array_equal(buf.y, want_y)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("row", [
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310],
    [1e300, -1e300, 1.7976931348623157e308, -9.999999999999999e299, 123456789.123],
    [0.1, -1.5, 3.0, 1e-9, 2.5e-5],
], ids=["zeros-subnormals", "near-1e300", "ordinary"])
def test_hash_split_payload_is_per_scalar_formatting(row, monkeypatch):
    """The split hashes the same payload as formatting each NumPy scalar."""
    row = np.array(row)
    payloads = []
    real = harness.hashlib.sha256
    monkeypatch.setattr(harness.hashlib, "sha256",
                        lambda data: payloads.append(data) or real(data))
    harness._hash_split(row[None], [3], 7, 0.8)
    assert payloads == [("7:3:" + ",".join(f"{v:.9g}" for v in row)).encode()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.binary(min_size=8, max_size=8).map(
    lambda raw: struct.unpack("<d", raw)[0])), max_size=40))
def test_hash_split_payload_equals_per_value_format(values):
    """The one %-format per row gives the bytes of formatting each value
    with "{:.9g}": random bit patterns, subnormals, infinities, NaN, -0."""
    row = np.array(values, dtype=float)
    payloads = []
    real = hashlib.sha256
    with mock.patch.object(harness.hashlib, "sha256",
                           lambda data: payloads.append(data) or real(data)):
        harness._hash_split(row[None], [3], 7, 0.8)
    assert payloads == [("7:3:" + ",".join(map("{:.9g}".format, row.tolist()))).encode()]


class TestMetrics:
    def record(self, rows, sizes):
        rec = harness.MetricsRecord()
        for i, row in enumerate(rows):
            rec.add_row(row, sizes[:i + 1])
        return rec

    def test_forgetting_oracle(self):
        # task 1: peak 0.9 over steps 1-2, final 0.5 -> drop 0.4
        rows = [[0.9], [0.8, 0.9], [0.5, 0.7, 0.95]]
        rec = self.record(rows, [10, 10, 10])
        out = harness.summary_metrics(rec)
        assert out["average_forgetting"] == pytest.approx((0.4 + 0.2) / 2)
        assert out["final_accuracy"] == pytest.approx(np.mean([0.5, 0.7, 0.95]))
        assert out["average_accuracy"] == pytest.approx(np.mean([0.5, 0.7, 0.95]))

    def test_final_accuracy_weighted_by_test_size(self):
        rows = [[1.0], [0.0, 0.5]]
        rec = self.record(rows, [30, 10])
        out = harness.summary_metrics(rec)
        assert out["final_accuracy"] == pytest.approx((0.0 * 30 + 0.5 * 10) / 40)
        assert out["average_accuracy"] == pytest.approx(0.25)

    def test_single_step_forgetting_is_null(self):
        rec = self.record([[0.8]], [10])
        assert harness.summary_metrics(rec)["average_forgetting"] is None

    def test_aia(self):
        rows = [[1.0], [0.5, 0.5]]
        rec = self.record(rows, [10, 10])
        out = harness.summary_metrics(rec)
        assert out["average_incremental_accuracy"] == pytest.approx((1.0 + 0.5) / 2)

    def test_incomplete_matrix_rejected(self):
        rec = harness.MetricsRecord()
        rec.add_row([0.9, 0.8], [10, 10])
        with pytest.raises(ContractViolation):
            harness.summary_metrics(rec)


def small_cfg(**kw):
    cfg = {
        "epochs_main": 4, "epochs_gis": 1, "batch_size": 32, "pair_batch": 16,
        "lr_gis": 0.05, "lr_main": 0.01, "lambda1": 1.0, "lambda2": 1.0,
        "repulsion_cap": 4.0,
        "buffer": {"policy": "per_class", "per_class": 10, "budget": 100},
    }
    cfg.update(kw)
    return cfg


def _record_contexts(monkeypatch) -> list[dict]:
    """Record every structure context ``run_step`` computes."""
    original = harness._structure_context
    contexts = []

    def record(*args):
        contexts.append(original(*args))
        return contexts[-1]

    monkeypatch.setattr(harness, "_structure_context", record)
    return contexts


class TestRunStream:
    def make_tasks(self, noise=0.0, seed=0):
        return harness.generate_synthetic_stream(
            classes=4, steps=2, samples_per_class=20, test_per_class=10,
            ambient_dim=6, tree_fraction=0.5, noise=noise, seed=seed)

    def test_noiseless_stream_is_learned_perfectly(self):
        tasks = self.make_tasks(noise=0.0)
        backbone = model.Backbone(6, 16, 8)
        pool = build_pool(8, [4])
        cfg = small_cfg(epochs_main=10,
                        buffer={"policy": "per_class", "per_class": 20, "budget": 100})
        _, rec = harness.run_stream(tasks, cfg, seed=0, backbone=backbone, pool=pool)
        out = harness.summary_metrics(rec)
        assert out["final_accuracy"] == pytest.approx(1.0)

    def test_classifier_grows_with_classes(self):
        tasks = self.make_tasks(noise=0.3)
        backbone = model.Backbone(6, 16, 8)
        pool = build_pool(8, [4])
        state, rec = harness.run_stream(tasks, small_cfg(), seed=0,
                                        backbone=backbone, pool=pool)
        assert state.classifier.shape == (4, 8)
        assert len(state.label_to_index) == 4
        assert len(rec.accuracy) == 2

    def test_deterministic_end_to_end(self):
        tasks = self.make_tasks(noise=0.3)
        runs = []
        for _ in range(2):
            backbone = model.Backbone(6, 16, 8)
            pool = build_pool(8, [4])
            state, rec = harness.run_stream(tasks, small_cfg(), seed=3,
                                            backbone=backbone, pool=pool)
            runs.append((state.classifier.copy(), [list(r) for r in rec.accuracy]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_label_seen_at_an_earlier_step_rejected(self):
        first, second = self.make_tasks(noise=0.3)
        shared = first.labels[0]
        y_train = np.where(second.y_train == second.labels[0], shared, second.y_train)
        clash = harness.StreamTask(2, second.x_train, y_train, second.x_test, second.y_test)
        with pytest.raises(ConfigurationError, match=f"label {shared} already seen"):
            harness.run_stream([first, clash], small_cfg(), seed=0,
                               backbone=model.Backbone(6, 16, 8), pool=build_pool(8, [4]))

    def test_selection_history_grows_monotonically(self):
        tasks = self.make_tasks(noise=0.3)
        backbone = model.Backbone(6, 16, 8)
        pool = build_pool(8, [2, 4])
        state, _ = harness.run_stream(tasks, small_cfg(), seed=0,
                                      backbone=backbone, pool=pool)
        assert len(state.gis_trace) == 2
        union = frozenset().union(*(rec["selected"] for rec in state.gis_trace))
        assert state.selected == union
        assert [f.pool_index for f in state.space.factors] == sorted(union)
        sizes = [rec["space_size"] for rec in state.gis_trace]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(union)

    def test_euclidean_pool_keeps_its_one_factor_unsearched(self):
        state, _ = harness.run_stream(self.make_tasks(noise=0.3), small_cfg(), seed=0,
                                      backbone=model.Backbone(6, 16, 8),
                                      pool=build_pool(8, [4], mode="euclidean"))
        assert [(rec["weights"], rec["selected"], rec["curvatures"], rec["space_size"])
                for rec in state.gis_trace] == [([1.0], [0], [0.0], 1)] * 2

    def test_step_context_is_previous_step_model(self, monkeypatch):
        # The structure context of step t must be the one computed from the
        # params, space and buffer as they stood after step t-1.
        tasks = harness.generate_synthetic_stream(
            classes=6, steps=3, samples_per_class=20, test_per_class=10,
            ambient_dim=6, tree_fraction=0.5, noise=0.3, seed=0)
        original = harness._structure_context
        contexts = _record_contexts(monkeypatch)
        state = harness.init_state(model.Backbone(6, 16, 8), build_pool(8, [2, 4]), seed=0)
        expected = []
        for task in tasks:
            space_before = state.space
            if len(state.buffer):
                cfg = small_cfg()
                n_rows = len(task.y_train) + len(state.buffer)
                n_batches = cfg["epochs_main"] * len(range(0, n_rows, cfg["batch_size"]))
                rows = harness._pair_rows(task, state.buffer, cfg, 0, n_batches)
                expected.append(original(state.params, state.space, state.buffer, rows))
            harness.run_step(state, task, small_cfg(), seed=0)
            # the search moved the curvatures, so a context taken after it
            # would differ
            assert state.space != space_before
        assert len(contexts) == len(expected) == 2
        for got, want in zip(contexts, expected):
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])

    @pytest.mark.parametrize("lambdas,calls", [((1.0, 0.0), 1), ((0.0, 1.0), 1), ((0.0, 0.0), 0)])
    def test_structure_context_only_when_a_penalty_is_on(self, monkeypatch, lambdas, calls):
        contexts = _record_contexts(monkeypatch)
        harness.run_stream(self.make_tasks(noise=0.3),
                           small_cfg(lambda1=lambdas[0], lambda2=lambdas[1]), seed=0,
                           backbone=model.Backbone(6, 16, 8), pool=build_pool(8, [4]))
        assert len(contexts) == calls


def _batchwise_pair_rows(task, buffer, cfg, seed):
    """The buffer rows as main training drew them batch by batch, between
    its batch draws: the sequence that ``harness._pair_rows`` must match."""
    rng_main = harness.phase_rng(seed, task.step, "main")
    rng_pairs = harness.phase_rng(seed, task.step, "pairs")
    rows = []
    for _ in range(cfg["epochs_main"]):
        for _batch in gis.batches(len(task.y_train) + len(buffer), cfg["batch_size"], rng_main):
            rows.append(rng_pairs.choice(len(buffer), size=min(cfg["pair_batch"], len(buffer)),
                                         replace=False))
    return rows


class TestPairRows:
    def tasks(self):
        return harness.generate_synthetic_stream(
            classes=6, steps=3, samples_per_class=20, test_per_class=10,
            ambient_dim=6, tree_fraction=0.5, noise=0.3, seed=1)

    @pytest.mark.parametrize("epochs, batch_size, pair_batch",
                             [(1, 32, 16), (3, 7, 5), (2, 200, 64)])
    def test_rows_are_the_batchwise_draws(self, monkeypatch, epochs, batch_size, pair_batch):
        contexts = _record_contexts(monkeypatch)
        cfg = small_cfg(epochs_main=epochs, batch_size=batch_size, pair_batch=pair_batch)
        state = harness.init_state(model.Backbone(6, 16, 8), build_pool(8, [2, 4]), seed=5)
        expected = []
        for task in self.tasks():
            if len(state.buffer) > 1:
                expected.append(_batchwise_pair_rows(task, state.buffer, cfg, seed=5))
            harness.run_step(state, task, cfg, seed=5)
        assert len(contexts) == len(expected) == 2
        for context, want in zip(contexts, expected):
            assert len(context["rows"]) == len(want)
            for got, idx in zip(context["rows"], want):
                assert np.array_equal(got, idx)


def _dense_context(params, space, buffer):
    """The structure context measured over every pair of the buffer."""
    prev_feats = model.features_np(params, buffer.x)
    prev_cos, prev_valid = model.cosine_matrix_np(model.tangent_concat_np(prev_feats, space))
    prev_d2 = model.sq_dist_matrix_np(prev_feats, prev_feats.copy(), space)
    assert np.array_equal(prev_d2, prev_d2.T)
    tau2 = model.tau2_same_class_mean(prev_d2, buffer.y)
    return {"prev_cos": prev_cos, "prev_valid": prev_valid,
            "affinity": model.affinity_matrix(prev_d2, buffer.y, tau2), "tau2": tau2}


@pytest.mark.parametrize("mode", ["mixed", "euclidean"])
@pytest.mark.parametrize("b, classes", [(2, 1), (40, 4), (130, 9), (400, 40)])
def test_structure_context_reads_as_the_dense_one(mode, b, classes):
    """tau2 exactly, and the affinity, cosines and validity at every entry
    main training reads, equal those of the context over every pair."""
    rng = np.random.default_rng(b)
    params = model.Backbone(6, 16, 8).init_params(rng)
    buffer = harness.MemoryBuffer(rng.normal(0.0, 1.5, (b, 6)), rng.integers(classes, size=b))
    pool = build_pool(8, [2, 4], mode=mode)
    space = gis.expand(frozenset(range(pool.size)), pool)
    rows = [rng.choice(b, size=min(size, b), replace=False) for size in (16, 16, 33, 64, 2)]
    got = harness._structure_context(params, space, buffer, rows)
    want = _dense_context(params, space, buffer)
    assert got["rows"] is rows
    assert got["tau2"] == want["tau2"]
    assert np.count_nonzero(want["affinity"]) > 0 or b == 2
    for idx in rows:
        for key in ("affinity", "prev_cos", "prev_valid"):
            assert np.array_equal(got[key][np.ix_(idx, idx)], want[key][np.ix_(idx, idx)]), key


def test_structure_context_peak_memory():
    """At B = 400 on the default pool the context peaks at no more than 4.5
    B x B float matrices and returns an int8 affinity. Built densely and with
    a float affinity, it peaked near 5.8."""
    b = 400
    rng = np.random.default_rng(0)
    params = model.Backbone(32, 64, 32).init_params(rng)
    buffer = harness.MemoryBuffer(rng.normal(0.0, 1.5, (b, 32)), rng.integers(40, size=b))
    pool = build_pool(32, [4, 8, 16])
    space = gis.expand(frozenset(range(pool.size)), pool)
    rows = [rng.choice(b, size=64, replace=False) for _ in range(30)]
    harness._structure_context(params, space, buffer, rows)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        context = harness._structure_context(params, space, buffer, rows)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert context["affinity"].dtype == np.int8
    assert np.count_nonzero(context["affinity"] == 1) and np.count_nonzero(context["affinity"] == -1)
    assert peak <= 4.5 * b * b * 8


def test_forward_only_work_makes_no_tensor(monkeypatch):
    """Evaluation, the structure context and the backbone's features on a
    trained state take and give plain arrays, and build no Tensor."""
    tasks = harness.generate_synthetic_stream(
        classes=4, steps=2, samples_per_class=20, test_per_class=10,
        ambient_dim=6, tree_fraction=0.5, noise=0.3, seed=0)
    state, _ = harness.run_stream(tasks, small_cfg(), seed=0,
                                  backbone=model.Backbone(6, 16, 8), pool=build_pool(8, [2, 4]))
    made = []
    init = Tensor.__init__

    def counted(t, *args, **kwargs):
        made.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    harness.evaluate(state, tasks)
    rows = [np.arange(0, len(state.buffer), 2)]
    context = harness._structure_context(state.params, state.space, state.buffer, rows)
    feats = model.features_np(state.params, tasks[0].x_test)
    assert made == []
    assert type(feats) is np.ndarray and np.count_nonzero(context["affinity"])


class TestEvaluate:
    """One evaluation pass over every seen task's test rows gives the
    accuracies of one pass per task."""

    @staticmethod
    def per_task(state, tasks):
        """Evaluation as one pass per task."""
        accs = []
        for task in tasks:
            feats = model.features_np(state.params, task.x_test)
            pred = model.sq_dist_matrix_np(feats, state.classifier, state.space).argmin(axis=1)
            truth = np.array([state.label_to_index[int(v)] for v in task.y_test])
            accs.append(float((pred == truth).mean()))
        return accs

    @pytest.mark.parametrize("sizes", [(1, 2, 50), (50, 2, 1), (2, 50, 1, 2)])
    def test_equals_per_task_passes(self, sizes, monkeypatch):
        rng = np.random.default_rng(sum(sizes))
        pool = build_pool(8, [4])
        state = harness.init_state(model.Backbone(6, 16, 8), pool, seed=3)
        state.space = pool
        centers = rng.normal(0.0, 2.0, (2 * len(sizes), 6))
        state.classifier = model.features_np(state.params, centers)
        tasks = []
        for step, size in enumerate(sizes, start=1):
            labels = rng.choice([2 * step - 2, 2 * step - 1], size=size)
            for lab in (2 * step - 2, 2 * step - 1):
                state.label_to_index[lab] = lab
            x = centers[labels] + rng.normal(0.0, 1.5, (size, 6))
            tasks.append(harness.StreamTask(step, x, labels, x, labels))
        want = self.per_task(state, tasks)
        calls = []
        for name in ("features_np", "sq_dist_matrix_np"):
            monkeypatch.setattr(harness.mdl, name, mock.Mock(wraps=getattr(model, name)))
            calls.append(getattr(harness.mdl, name))
        assert harness.evaluate(state, tasks) == want
        assert [c.call_count for c in calls] == [1, 1]
        assert any(0.0 < acc < 1.0 for acc in want)
