from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocl import diffgeo, gis, model
from geocl.errors import ConfigurationError
from geocl.product import FactorSpec, MixedSpace


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
        curvatures = [f.curvature for f in pool.factors]
        assert curvatures == [-1.0] * 7 + [1.0] * 7
        assert [f.pool_index for f in pool.factors] == list(range(14))

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
        w = np.array([0.30, 0.25, 0.25])  # tau1 = 0.25 with n = 4
        assert gis.select(w, tau1=0.25, step=2) == frozenset({0})

    def test_boundary_excluded(self):
        w = np.array([0.25, 0.25])
        assert gis.select(w, tau1=0.25, step=2) == frozenset()

    def test_first_step_guard(self):
        w = np.array([0.10, 0.20])
        assert gis.select(w, tau1=0.25, step=1) == frozenset({1})
        assert gis.select(w, tau1=0.25, step=2) == frozenset()


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
        pool = MixedSpace(tuple(replace(f, curvature=-0.5) if f.pool_index == 2 else f
                                for f in pool.factors))
        space = gis.expand(frozenset({2}), pool)
        assert space.factors[0].curvature == -0.5

    def test_expand_after_search_carries_searched_curvatures(self):
        rng = np.random.default_rng(13)
        feats, labels, protos = _curved_problem(rng)
        pool = gis.build_pool(8, [2, 4])
        _, pool = gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=1,
                                   lr=1.0, batch_size=32, rng=np.random.default_rng(14))
        space = gis.expand(frozenset(range(pool.size)), pool)
        assert space.factors == pool.factors
        assert [f.curvature for f in space.factors] != [-1.0] * 3 + [1.0] * 3


def _toy_problem(rng, n=80, dim=8):
    """Two classes separated along the first coordinate block."""
    labels = rng.integers(0, 2, n)
    feats = rng.normal(0.0, 0.1, (n, dim))
    feats[:, 0] += np.where(labels == 0, -0.5, 0.5)
    protos = np.zeros((2, dim))
    protos[0, 0], protos[1, 0] = -0.5, 0.5
    return feats, labels, protos


def _curved_problem(rng, n=80, dim=8):
    """Two classes with spread-out features, whose curvatures move fast."""
    labels = rng.integers(0, 2, n)
    protos = rng.normal(0.0, 1.0, (2, dim))
    feats = protos[labels] + rng.normal(0.0, 1.0, (n, dim))
    return feats, labels, protos


class TestGisOptimize:
    def test_weight_sum_matches_plain_ce_at_unit_weights(self):
        # with every weight 1 and the pool's own curvatures, the weight-sum
        # loss equals the plain product-space cross entropy
        rng = np.random.default_rng(0)
        feats, labels, protos = _toy_problem(rng)
        pool = gis.build_pool(8, [4])
        plain = model.ce_loss_t(feats, protos, labels, pool)
        weighted = model.ce_loss_t(feats, protos, labels, pool, weights=np.ones(pool.size))
        assert float(plain) == pytest.approx(float(weighted), abs=1e-12)

    def test_discriminative_factor_wins(self):
        # class signal lives in coordinates 1-4 only; the factor over that
        # slice must end with the largest selection weight
        rng = np.random.default_rng(1)
        feats, labels, protos = _toy_problem(rng)
        pool = gis.build_pool(8, [4])
        w, _ = gis.gis_optimize(pool, feats, labels, protos, n_classes=2,
                                epochs=5, lr=0.05, batch_size=32,
                                rng=np.random.default_rng(2))
        assert w.shape == (pool.size,)
        assert int(np.argmax(w)) == 0
        assert w[0] > w[1]

    def test_constraints_respected(self):
        rng = np.random.default_rng(3)
        feats, labels, protos = _toy_problem(rng)
        pool = gis.build_pool(8, [2, 4])
        w, pool = gis.gis_optimize(pool, feats, labels, protos, n_classes=2,
                                   epochs=3, lr=0.5, batch_size=32,
                                   rng=np.random.default_rng(4))
        assert w.shape == (pool.size,)
        assert (w >= 0).all()
        assert all(abs(f.curvature) >= gis.CURVATURE_FLOOR for f in pool.factors)

    def test_search_keeps_signs_and_floor(self):
        # a large step drives some magnitudes far below zero; the search
        # must clamp them at the floor and never flip a curvature's sign
        rng = np.random.default_rng(3)
        feats, labels, protos = _curved_problem(rng)
        pool = gis.build_pool(8, [2, 4])
        signs = [np.sign(f.curvature) for f in pool.factors]
        _, pool = gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=3,
                                   lr=10.0, batch_size=32, rng=np.random.default_rng(4))
        assert [np.sign(f.curvature) for f in pool.factors] == signs
        magnitudes = [abs(f.curvature) for f in pool.factors]
        assert min(magnitudes) == gis.CURVATURE_FLOOR
        assert max(magnitudes) > 1.0

    def test_euclidean_factor_stays_flat(self):
        # two flat factors are searched: their weights train, their
        # curvatures stay exactly 0
        rng = np.random.default_rng(3)
        feats, labels, protos = _curved_problem(rng)
        pool = MixedSpace((FactorSpec(0, 1, 4, 0.0), FactorSpec(1, 5, 8, 0.0)))
        w, pool = gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=2,
                                   lr=10.0, batch_size=32, rng=np.random.default_rng(4))
        assert (w != 0.5).all()
        assert [f.curvature for f in pool.factors] == [0.0, 0.0]

    def test_one_flat_factor_is_not_searched(self, monkeypatch):
        rng = np.random.default_rng(3)
        feats, labels, protos = _curved_problem(rng)
        pool = gis.build_pool(8, [4], mode="euclidean")

        def fail(*args, **kwargs):
            raise AssertionError("the one-factor flat pool was searched")

        monkeypatch.setattr(model, "ce_loss_t", fail)
        search_rng = np.random.default_rng(4)
        before = search_rng.bit_generator.state
        w, searched = gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=2,
                                       lr=10.0, batch_size=32, rng=search_rng)
        np.testing.assert_array_equal(w, [1.0])
        assert searched is pool
        assert search_rng.bit_generator.state == before

    def test_input_pool_untouched(self):
        # the search returns a re-curved pool and leaves the one it was given
        rng = np.random.default_rng(3)
        feats, labels, protos = _curved_problem(rng)
        pool = gis.build_pool(8, [2, 4])
        before = pool.factors
        _, searched = gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=1,
                                       lr=1.0, batch_size=32, rng=np.random.default_rng(4))
        assert pool.factors == before
        assert [f.curvature for f in pool.factors] == [-1.0] * 3 + [1.0] * 3
        assert [(f.pool_index, f.dim, np.sign(f.curvature)) for f in searched.factors] == \
            [(f.pool_index, f.dim, np.sign(f.curvature)) for f in before]
        assert [f.curvature for f in searched.factors] != [f.curvature for f in before]

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
        _, pool = gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=3,
                                   lr=0.5, batch_size=32, rng=np.random.default_rng(8))
        w, _ = gis.gis_optimize(pool, feats, labels, protos, n_classes=2,
                                epochs=0, lr=0.05, batch_size=32,
                                rng=np.random.default_rng(8))
        assert w.shape == (pool.size,)
        np.testing.assert_allclose(w, 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        feats, labels, protos = _toy_problem(rng)
        outs = []
        for _ in range(2):
            w, pool = gis.gis_optimize(gis.build_pool(8, [2, 4]), feats, labels, protos,
                                       n_classes=2, epochs=2, lr=0.05, batch_size=32,
                                       rng=np.random.default_rng(10))
            outs.append((w, pool.factors))
        assert outs[0][0].shape == (6,)
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]


class TestWarmup:
    def test_moves_classifier_toward_data(self):
        rng = np.random.default_rng(11)
        feats, labels, _ = _toy_problem(rng)
        pool = gis.build_pool(8, [4])
        w0 = rng.normal(0.0, 0.01, (2, 8))
        before = (model.sq_dist_matrix_np(feats, w0, pool).argmin(1) == labels).mean()
        w1 = gis.classifier_warmup(pool, feats, labels, w0, lr=0.1, batch_size=32,
                                   rng=np.random.default_rng(12))
        after = (model.sq_dist_matrix_np(feats, w1, pool).argmin(1) == labels).mean()
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
        assert rec["curvatures"] == [-1.0, 1.0]


@st.composite
def _run_spaces(draw):
    """A space a run can build: a pool of any mode and sizes that divide the
    feature width, optionally re-curved by a search, and any non-empty
    selection of it passed through ``gis.expand``."""
    dim = draw(st.integers(2, 24))
    divisors = [s for s in range(2, dim + 1) if dim % s == 0]
    sizes = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3))
    pool = gis.build_pool(dim, sizes, mode=draw(st.sampled_from(["mixed", "euclidean"])))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        feats, labels, protos = _curved_problem(rng, n=16, dim=dim)
        _, pool = gis.gis_optimize(pool, feats, labels, protos, n_classes=2, epochs=1, lr=1.0,
                                   batch_size=8, rng=rng)
    selected = draw(st.sets(st.integers(0, pool.size - 1), min_size=1))
    return gis.expand(frozenset(selected), pool), dim


@settings(max_examples=60, deadline=None)
@given(_run_spaces())
def test_run_spaces_group_factors_in_block_order(drawn):
    """In every space a run builds, all factors of one curvature sign come
    before those of the next, so the kernel's blocks, read part by part,
    list the (sign, width) groups in the order in which they first occur:
    the order in which the kernel adds up sums and gradients is the groups'
    order."""
    space, dim = drawn
    groups = {}
    for f in space.factors:
        groups.setdefault((float(np.sign(f.curvature)), f.dim), []).append(f.pool_index)
    parts = [((block.sign, len(part.cols) // len(part.pool)), part.pool.tolist())
             for block in diffgeo._layout(space, dim) for part in block.parts]
    assert parts == list(groups.items())
