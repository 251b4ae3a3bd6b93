"""Acceptance gate: the nine release criteria, each at its stated tolerance.

Criteria 6 and 7 share one 4-mode x 5-seed ablation on the reference
stream (session-scoped fixture); the whole file takes about a minute of
wall clock (61 s on a 2-vCPU Xeon with one BLAS thread).
"""

import copy
import time

import numpy as np
import pytest

from geocl import autodiff as ad
from geocl import diffgeo, experiment, geometry, gis, harness, model, verify
from geocl.autodiff import Tensor
from geocl.config import DEFAULT_CONFIG, load_config
from geocl.product import FactorSpec, MixedSpace


# -- 1. geometry suite --------------------------------------------------

class TestCriterion1GeometrySuite:
    def test_roundtrip_symmetry_triangle_under_10s(self):
        started = time.time()
        roundtrip = verify.check_roundtrip(tolerance=1e-6, samples=10_000)
        axioms = verify.check_metric_axioms(sym_tol=1e-9, tri_tol=1e-7, triples=10_000)
        elapsed = time.time() - started
        assert roundtrip.passed, roundtrip.detail
        assert axioms.passed, axioms.detail
        assert elapsed < 10.0


# -- 2. closed-form oracles ---------------------------------------------

class TestCriterion2ClosedFormOracles:
    def test_1d_gyro_addition(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(-0.9, 0.9, 2)
            got = geometry.mobius_add(np.array([a]), np.array([b]), -1.0)[0]
            want = np.tanh(np.arctanh(a) + np.arctanh(b))
            assert abs(got - want) <= 1e-10

    def test_1d_geodesic_additivity(self):
        rng = np.random.default_rng(1)
        zero = np.zeros(1)
        for _ in range(200):
            a, b = rng.uniform(-0.8, 0.8, 2)
            lhs = (geometry.distance(zero, np.array([a]), -1.0)
                   + geometry.distance(zero, np.array([b]), -1.0))
            rhs = geometry.distance(
                zero, geometry.mobius_add(np.array([a]), np.array([b]), -1.0), -1.0)
            # signs may cancel; the identity holds for same-sign displacements
            if a * b >= 0:
                assert abs(lhs - rhs) <= 1e-9

    def test_euclidean_limit(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 0.5, (500, 4))
        y = rng.normal(0.0, 0.5, (500, 4))
        ref = 2.0 * np.linalg.norm(x - y, axis=-1)
        for K in (-1e-4, 1e-4):
            d = geometry.distance(x, y, K)
            assert (np.abs(d - ref) <= 1e-3 * ref).all()


# -- 3. pool arithmetic -------------------------------------------------

class TestCriterion3PoolArithmetic:
    def test_reference_pool_sizes(self):
        assert gis.build_pool(512, [16, 32, 64, 128, 256]).size == 62
        assert gis.build_pool(32, [4, 8, 16]).size == 14


# -- 4. gradient correctness --------------------------------------------

def _two_sign_space():
    return MixedSpace((FactorSpec(0, 1, 2, -1.0), FactorSpec(1, 3, 4, 1.0)))


class TestCriterion4GradientCorrectness:
    def test_all_losses_100_configs_under_60s(self):
        started = time.time()
        space = _two_sign_space()
        kmag0 = np.array([1.0, 1.0])
        worst = 0.0
        master = np.random.default_rng(12345)
        for trial in range(20):
            b, n = int(master.integers(2, 5)), int(master.integers(2, 4))
            labels = master.integers(0, n, b)
            prev = master.normal(0.0, 0.4, (b, 4))
            prev_cos, prev_valid = model.cosine_matrix_np(
                model.tangent_concat_np(prev, space))
            prev_d2 = model.sq_dist_matrix_np(prev, prev, space)
            aff_labels = master.integers(0, 2, b)
            tau2 = model.tau2_same_class_mean(prev_d2, aff_labels)
            affinity = model.affinity_matrix(prev_d2, aff_labels, tau2)

            def sampler(rng):
                return {"feats": rng.normal(0.0, 0.4, (b, 4)),
                        "protos": rng.normal(0.0, 0.4, (n, 4)),
                        "kmag": rng.uniform(0.5, 2.0, 2),
                        "weights": rng.uniform(0.2, 1.0, 2)}

            builders = {
                # distance-softmax classification loss
                "ce": lambda t: model.ce_loss_t(
                    t["feats"], t["protos"], labels, space, kmag=t["kmag"]),
                # weight-sum search loss (weights and curvatures trainable)
                "weight_sum": lambda t: model.ce_loss_t(
                    t["feats"], t["protos"], labels, space,
                    kmag=t["kmag"], weights=t["weights"]),
                # angular-regularization loss against a frozen snapshot
                "angular": lambda t: model.angular_reg_loss_t(
                    t["feats"], space, prev_cos, prev_valid),
                # neighbor-robustness loss
                "neighbor": lambda t: model.neighbor_robustness_loss_t(
                    t["feats"], space, affinity, kmag=t["kmag"]),
                # total training objective
                "total": lambda t: model.total_loss_t(
                    model.ce_loss_t(t["feats"], t["protos"], labels, space,
                                    kmag=t["kmag"]),
                    0.7, model.angular_reg_loss_t(t["feats"], space, prev_cos,
                                                  prev_valid),
                    0.3, model.neighbor_robustness_loss_t(t["feats"], space,
                                                          affinity, kmag=t["kmag"])),
            }
            for name, build in builders.items():
                err = ad.gradcheck(build, sampler, trials=1, rng=1000 + trial)
                assert err <= 1e-4, f"{name} config {trial}: rel err {err:.3e}"
                worst = max(worst, err)
        elapsed = time.time() - started
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"

    def test_lifted_distance_both_signs(self):
        result = verify.check_gradients(tolerance=1e-4, trials=20)
        assert result.passed, result.detail


# -- 5. angular-loss curvature invariance -------------------------------

class TestCriterion5AngularCurvatureInvariance:
    def test_magnitude_x10_changes_nothing(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(0.0, 0.4, (10, 4))
        prev = rng.normal(0.0, 0.4, (10, 4))
        base = _two_sign_space()
        prev_cos, prev_valid = model.cosine_matrix_np(
            model.tangent_concat_np(prev, base))
        losses = []
        for mags in ([1.0, 1.0], [10.0, 1.0], [1.0, 10.0], [10.0, 10.0]):
            space = MixedSpace(tuple(
                FactorSpec(f.pool_index, f.slice_start, f.slice_end,
                           np.sign(f.curvature) * m)
                for f, m in zip(base.factors, mags)))
            loss = model.angular_reg_loss_t(Tensor(feats), space, prev_cos, prev_valid)
            losses.append(float(loss.value))
        assert max(losses) - min(losses) <= 1e-9


# -- 6 & 7. desk-scale ablation and forgetting direction ----------------

ABLATION_MODES = {
    "euclid": {"pool": {"mode": "euclidean"}, "lambda1": 0.0, "lambda2": 0.0},
    "gis-only": {"lambda1": 0.0, "lambda2": 0.0},
    "gl-only": {"pool": {"mode": "euclidean"}},
    "ours": {},
}
ABLATION_SEEDS = range(5)


@pytest.fixture(scope="session")
def ablation_results():
    """final accuracy and average forgetting per mode, 5 seeds each, on the
    reference stream (20 classes, 5 steps, 200 samples/class, d=32)."""
    results = {}
    for name, overrides in ABLATION_MODES.items():
        finals, forgetting, wall = [], [], []
        for seed in ABLATION_SEEDS:
            cfg = copy.deepcopy(DEFAULT_CONFIG)
            for key, value in overrides.items():
                if isinstance(value, dict):
                    cfg[key].update(value)
                else:
                    cfg[key] = value
            cfg["seed"] = seed
            started = time.time()
            report = experiment.run_experiment(cfg, out_dir=None)
            wall.append(time.time() - started)
            finals.append(report["metrics"]["final_accuracy"])
            forgetting.append(report["metrics"]["average_forgetting"])
        results[name] = {"final": float(np.mean(finals)),
                         "forgetting": float(np.mean(forgetting)),
                         "max_wall": max(wall)}
    return results


class TestCriterion6DeskScaleAblation:
    def test_reference_stream_matches_spec_shape(self):
        s = DEFAULT_CONFIG["stream"]
        assert (s["classes"], s["steps"], s["samples_per_class"],
                s["ambient_dim"]) == (20, 5, 200, 32)
        assert 0.0 < s["tree_fraction"] < 1.0  # mixed tree + cycle structure

    def test_full_beats_baseline_by_two_points(self, ablation_results):
        assert (ablation_results["ours"]["final"]
                >= ablation_results["euclid"]["final"] + 0.02), ablation_results

    def test_search_alone_beats_baseline(self, ablation_results):
        assert (ablation_results["gis-only"]["final"]
                >= ablation_results["euclid"]["final"]), ablation_results

    def test_structure_losses_alone_beat_baseline(self, ablation_results):
        assert (ablation_results["gl-only"]["final"]
                >= ablation_results["euclid"]["final"]), ablation_results

    def test_each_run_within_time_budget(self, ablation_results):
        slowest = max(r["max_wall"] for r in ablation_results.values())
        assert slowest <= 300.0, f"slowest run took {slowest:.0f}s"


class TestCriterion7ForgettingDirection:
    def test_structure_losses_reduce_forgetting(self, ablation_results):
        # identical config except lambda1 = lambda2 = 0
        assert (ablation_results["ours"]["forgetting"]
                <= ablation_results["gis-only"]["forgetting"]), ablation_results


# -- 8. determinism -----------------------------------------------------

class TestCriterion8Determinism:
    def test_byte_identical_metrics_csv(self, tmp_path):
        overrides = {
            "stream": {"classes": 4, "steps": 2, "samples_per_class": 20,
                       "test_per_class": 8, "ambient_dim": 8},
            "backbone": {"hidden_dim": 16, "feature_dim": 8},
            "pool": {"sizes": [4]},
            "epochs_main": 3, "epochs_gis": 1,
        }
        blobs = []
        for sub in ("first", "second"):
            cfg = load_config(None, dict(overrides, out_dir=str(tmp_path / sub)))
            experiment.run_experiment(cfg, out_dir=cfg["out_dir"])
            blobs.append((tmp_path / sub / "accuracy_matrix.csv").read_bytes())
        assert blobs[0] == blobs[1]


# -- 9. reduction to a plain Euclidean trainer --------------------------

def _euclidean_oracle(task, cfg, seed):
    """Independent single-task trainer: tanh MLP features, softmax over
    -4*||f - w||^2 logits, manual-gradient SGD. Mirrors the engine's random
    streams but shares no training code with it."""
    in_dim = task.x_train.shape[1]
    hidden = cfg["backbone"]["hidden_dim"]
    fdim = cfg["backbone"]["feature_dim"]
    label_map = {lab: i for i, lab in enumerate(task.labels)}
    y = np.array([label_map[int(v)] for v in task.y_train])
    n_classes = len(label_map)

    init0 = harness.phase_rng(seed, 0, "init")
    w1 = init0.normal(0.0, 1.0 / np.sqrt(in_dim), (in_dim, hidden))
    b1 = np.zeros(hidden)
    w2 = init0.normal(0.0, 1.0 / np.sqrt(hidden), (hidden, fdim))
    b2 = np.zeros(fdim)
    W = harness.phase_rng(seed, 1, "init").normal(0.0, 0.01, (n_classes, fdim))

    def forward(x):
        h = np.tanh(x @ w1 + b1)
        return h, h @ w2 + b2

    def ce_and_grads(x, labels, W):
        h, f = forward(x)
        diff = f[:, None, :] - W[None, :, :]          # (B, n, d)
        logits = -4.0 * (diff ** 2).sum(-1)
        shifted = logits - logits.max(1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(1, keepdims=True)
        onehot = np.eye(n_classes)[labels]
        loss = float(-np.mean(np.log(p[np.arange(len(labels)), labels])))
        dlogits = (p - onehot) / len(labels)
        dd2 = -dlogits
        df = 8.0 * (dd2[:, :, None] * diff).sum(1)
        dW = -8.0 * (dd2[:, :, None] * diff).sum(0)
        return loss, h, f, df, dW

    # warm-up: one epoch of classifier-only updates (features frozen)
    rng_warm = harness.phase_rng(seed, 1, "warmup")
    order = rng_warm.permutation(len(y))
    for start in range(0, len(order), cfg["batch_size"]):
        batch = order[start:start + cfg["batch_size"]]
        _, _, _, _, dW = ce_and_grads(task.x_train[batch], y[batch], W)
        W = W - cfg["lr_gis"] * dW

    # main loop: backbone and classifier together
    rng_main = harness.phase_rng(seed, 1, "main")
    for _ in range(cfg["epochs_main"]):
        order = rng_main.permutation(len(y))
        for start in range(0, len(order), cfg["batch_size"]):
            batch = order[start:start + cfg["batch_size"]]
            xb = task.x_train[batch]
            _, h, _, df, dW = ce_and_grads(xb, y[batch], W)
            dh = df @ w2.T
            dz = dh * (1.0 - h ** 2)
            w2 = w2 - cfg["lr_main"] * (h.T @ df)
            b2 = b2 - cfg["lr_main"] * df.sum(0)
            w1 = w1 - cfg["lr_main"] * (xb.T @ dz)
            b1 = b1 - cfg["lr_main"] * dz.sum(0)
            W = W - cfg["lr_main"] * dW

    loss, _, _, _, _ = ce_and_grads(task.x_train, y, W)
    return loss


class TestCriterion9EuclideanReduction:
    def test_single_task_zero_lambda_matches_oracle(self):
        seed = 0
        cfg = load_config(None, {
            "stream": {"classes": 4, "steps": 1, "samples_per_class": 40,
                       "test_per_class": 10, "ambient_dim": 8},
            "backbone": {"hidden_dim": 16, "feature_dim": 8},
            "pool": {"mode": "euclidean"},
            "lambda1": 0.0, "lambda2": 0.0,
            "epochs_main": 5, "epochs_gis": 1,
            "seed": seed,
        })
        tasks = experiment.build_stream(cfg, seed)
        assert len(tasks) == 1
        backbone = model.Backbone(8, 16, 8)
        pool = gis.build_pool(8, cfg["pool"]["sizes"], mode="euclidean")
        state, _ = harness.run_stream(tasks, cfg, seed, backbone, pool)

        y = np.array([state.label_to_index[int(v)] for v in tasks[0].y_train])
        feats = model.features_np(state.params, tasks[0].x_train)
        engine_loss = float(model.ce_loss_t(
            Tensor(feats), Tensor(state.classifier), y, state.space).value)

        oracle_loss = _euclidean_oracle(tasks[0], cfg, seed)
        assert engine_loss == pytest.approx(oracle_loss, abs=1e-6)
