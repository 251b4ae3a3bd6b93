import numpy as np
import pytest

from geocl import gis, model
from geocl.errors import ConfigurationError
from geocl.product import MixedSpace


class TestBuildPool:
    def test_tile_arithmetic_small(self):
        # sizes 4/8/16 over 32 dims: 8 + 4 + 2 = 14 factors
        pool = gis.build_pool(32, [4, 8, 16])
        assert pool.size == 14
        # tiling is contiguous and exhaustive per size
        assert (pool.factors[0].slice_start, pool.factors[0].slice_end) == (1, 4)
        assert (pool.factors[7].slice_start, pool.factors[7].slice_end) == (29, 32)
        assert (pool.factors[8].slice_start, pool.factors[8].slice_end) == (1, 8)
        assert (pool.factors[13].slice_start, pool.factors[13].slice_end) == (17, 32)

    def test_tile_arithmetic_reference_scale(self):
        # 16..256 over 512 dims: tiles per size are 32+16+8+4+2 = 62
        pool = gis.build_pool(512, [16, 32, 64, 128, 256])
        assert pool.size == 62

    def test_sign_split(self):
        pool = gis.build_pool(32, [4, 8, 16])
        assert (pool.signs[:7] == -1).all()
        assert (pool.signs[7:] == 1).all()
        assert (pool.magnitudes == 1.0).all()
        for f in pool.factors:
            assert f.curvature == pool.signs[f.pool_index]

    def test_euclidean_mode(self):
        pool = gis.build_pool(32, [4], mode="euclidean")
        assert pool.size == 1
        assert pool.factors[0].curvature == 0.0
        assert pool.factors[0].dim == 32

    def test_nondividing_size_rejected(self):
        with pytest.raises(ConfigurationError):
            gis.build_pool(30, [4])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            gis.build_pool(32, [4], mode="spherical")


class TestSelect:
    def test_strict_threshold(self):
        pool = gis.build_pool(8, [4])
        w = np.array([0.30, 0.25, 0.25])  # tau1 = 0.25 with n = 4
        assert gis.select(pool, w, tau1=0.25, step=2) == frozenset({0})

    def test_boundary_excluded(self):
        pool = gis.build_pool(8, [4])
        w = np.array([0.25, 0.25])
        assert gis.select(pool, w, tau1=0.25, step=2) == frozenset()

    def test_first_step_guard(self):
        pool = gis.build_pool(8, [4])
        w = np.array([0.10, 0.20])
        assert gis.select(pool, w, tau1=0.25, step=1) == frozenset({1})
        assert gis.select(pool, w, tau1=0.25, step=2) == frozenset()


class TestExpand:
    def test_union_and_monotonic_growth(self):
        pool = gis.build_pool(32, [4, 8, 16])
        selected = frozenset({2, 5})
        s1 = gis.expand(selected, pool)
        selected = selected | frozenset({5, 9})
        s2 = gis.expand(selected, pool)
        assert [f.pool_index for f in s1.factors] == [2, 5]
        assert [f.pool_index for f in s2.factors] == [2, 5, 9]
        assert set(f.pool_index for f in s1.factors) <= set(f.pool_index for f in s2.factors)

    def test_expand_reads_live_curvature(self):
        pool = gis.build_pool(32, [4, 8, 16])
        pool.magnitudes[2] = 0.5
        space = gis.expand(frozenset({2}), pool)
        assert space.factors[0].curvature == -0.5


def _toy_problem(rng, n=80, dim=8):
    """Two classes separated along the first coordinate block."""
    labels = rng.integers(0, 2, n)
    feats = rng.normal(0.0, 0.1, (n, dim))
    feats[:, 0] += np.where(labels == 0, -0.5, 0.5)
    protos = np.zeros((2, dim))
    protos[0, 0], protos[1, 0] = -0.5, 0.5
    return feats, labels, protos


class TestGisOptimize:
    def test_weight_sum_matches_plain_ce_at_unit_weights(self):
        # with every weight 1 and the pool's own curvatures, the weight-sum
        # loss equals the plain product-space cross entropy
        rng = np.random.default_rng(0)
        feats, labels, protos = _toy_problem(rng)
        pool = gis.build_pool(8, [4])
        space = pool.full_space()
        from geocl import autodiff as ad
        from geocl.autodiff import Tensor
        plain = model.ce_loss_t(Tensor(feats), Tensor(protos), labels, space)
        weighted = model.ce_loss_t(Tensor(feats), Tensor(protos), labels, space,
                                   weights=Tensor(np.ones(pool.size)))
        assert float(plain.value) == pytest.approx(float(weighted.value), abs=1e-12)

    def test_discriminative_factor_wins(self):
        # class signal lives in coordinates 1-4 only; the factor over that
        # slice must end with the largest selection weight
        rng = np.random.default_rng(1)
        feats, labels, protos = _toy_problem(rng)
        pool = gis.build_pool(8, [4])
        w, _ = gis.gis_optimize(pool, feats, labels, protos, n_classes=2,
                                epochs=5, lr=0.05, batch_size=32,
                                rng=np.random.default_rng(2))
        assert int(np.argmax(w)) == 0

    def test_constraints_respected(self):
        rng = np.random.default_rng(3)
        feats, labels, protos = _toy_problem(rng)
        pool = gis.build_pool(8, [2, 4])
        w, mags = gis.gis_optimize(pool, feats, labels, protos, n_classes=2,
                                   epochs=3, lr=0.5, batch_size=32,
                                   rng=np.random.default_rng(4))
        assert (w >= 0).all()
        assert (mags >= gis.CURVATURE_FLOOR).all()

    def test_classifier_and_features_frozen(self):
        rng = np.random.default_rng(5)
        feats, labels, protos = _toy_problem(rng)
        feats_before = feats.copy()
        protos_before = protos.copy()
        pool = gis.build_pool(8, [4])
        gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=2,
                         lr=0.05, batch_size=32, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(feats, feats_before)
        np.testing.assert_array_equal(protos, protos_before)

    def test_weights_restart_from_uniform(self):
        rng = np.random.default_rng(7)
        feats, labels, protos = _toy_problem(rng)
        pool = gis.build_pool(8, [4])
        # a trained search must not leak its weights into the next one
        gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=3,
                         lr=0.5, batch_size=32, rng=np.random.default_rng(8))
        w, _ = gis.gis_optimize(pool, feats, labels, protos, n_classes=2,
                                epochs=0, lr=0.05, batch_size=32,
                                rng=np.random.default_rng(8))
        np.testing.assert_allclose(w, 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        feats, labels, protos = _toy_problem(rng)
        outs = []
        for _ in range(2):
            pool = gis.build_pool(8, [4])
            outs.append(gis.gis_optimize(pool, feats, labels, protos, n_classes=2,
                                         epochs=2, lr=0.05, batch_size=32,
                                         rng=np.random.default_rng(10)))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])


class TestWarmup:
    def test_moves_classifier_toward_data(self):
        rng = np.random.default_rng(11)
        feats, labels, _ = _toy_problem(rng)
        pool = gis.build_pool(8, [4])
        w0 = rng.normal(0.0, 0.01, (2, 8))
        space = pool.full_space()
        before = (model.class_probs_np(feats, w0, space).argmax(1) == labels).mean()
        w1 = gis.classifier_warmup(pool, feats, labels, w0, lr=0.1, batch_size=32,
                                   rng=np.random.default_rng(12))
        after = (model.class_probs_np(feats, w1, space).argmax(1) == labels).mean()
        assert after >= before
        assert after >= 0.9


class TestTrace:
    def test_record_is_json_serializable(self):
        import json
        pool = gis.build_pool(8, [4])
        weights = np.array([0.75, 0.25])
        rec = gis.trace_record(2, pool, weights, frozenset({0}), frozenset({0, 1}))
        assert json.loads(json.dumps(rec)) == rec
        assert rec["weights"] == [0.75, 0.25]
        assert rec["selected"] == [0]
        assert rec["space_size"] == 2
