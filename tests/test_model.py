import numpy as np
import pytest

from geocl import autodiff as ad
from geocl import diffgeo, gis, model
from geocl.autodiff import Tensor
from geocl.errors import ContractViolation
from geocl.product import FactorSpec, MixedSpace


def euclidean_space(dim=4):
    return MixedSpace((FactorSpec(0, 1, dim, 0.0),))


def mixed_space():
    return MixedSpace((FactorSpec(0, 1, 2, -1.0), FactorSpec(1, 3, 4, 1.0)))


class TestBackbone:
    def test_feature_shape_and_determinism(self):
        bb = model.Backbone(5, 8, 4)
        params = bb.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(7, 5))
        f1 = model.features_np(params, x)
        f2 = model.features_np(params, x)
        assert f1.shape == (7, 4)
        np.testing.assert_array_equal(f1, f2)

    def test_diff_path_matches_numpy(self):
        bb = model.Backbone(5, 8, 4)
        params = bb.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 5))
        t_params = {k: Tensor(v) for k, v in params.items()}
        np.testing.assert_allclose(
            model.features_t(t_params, x).value, model.features_np(params, x), atol=1e-12)

    def test_input_dim_checked(self):
        bb = model.Backbone(5, 8, 4)
        params = bb.init_params(np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            model.features_np(params, np.zeros((2, 6)))


class TestDistanceLogits:
    def test_euclidean_closed_form(self):
        space = euclidean_space()
        rng = np.random.default_rng(2)
        f = rng.normal(size=(3, 4))
        w = rng.normal(size=(5, 4))
        got = model.sq_dist_matrix_np(f, w, space)
        want = 4.0 * ((f[:, None, :] - w[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_diff_path_matches_numpy(self):
        space = mixed_space()
        rng = np.random.default_rng(3)
        f = rng.normal(0.0, 0.3, (4, 4))
        w = rng.normal(0.0, 0.3, (3, 4))
        got = model.sq_dist_matrix_t(Tensor(f), Tensor(w), space).value
        want = model.sq_dist_matrix_np(f, w, space)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_saturated_hyperbolic_eval_matches_training(self):
        # Features far past the ball margin: evaluation and snapshots must use
        # the metric training optimises, not one capped at the ball margin.
        space = MixedSpace((FactorSpec(0, 1, 2, -1.0),))
        f = np.array([[8.0, 0.0], [-8.0, 0.0], [0.0, 8.0]])
        evaluated = model.sq_dist_matrix_np(f, f, space)
        trained = model.sq_dist_matrix_t(Tensor(f), Tensor(f), space).value
        np.testing.assert_array_equal(evaluated, trained)
        ball_margin_cap = (2.0 * np.arctanh(1.0 - 1e-5)) ** 2
        assert evaluated[0, 1] > 2.0 * ball_margin_cap

    def test_ce_rejects_unknown_label(self):
        space = euclidean_space(dim=2)
        with pytest.raises(ContractViolation):
            model.ce_loss_t(np.zeros((1, 2)), np.zeros((1, 2)), np.array([3]), space)

    def test_weighted_distance(self):
        space = mixed_space()
        rng = np.random.default_rng(4)
        f = rng.normal(0.0, 0.3, (2, 4))
        w = rng.normal(0.0, 0.3, (2, 4))
        wts = np.array([2.0, 0.5])
        got = model.sq_dist_matrix_t(f, w, space, weights=wts)
        per = [model.sq_dist_matrix_np(f, w, MixedSpace((fac,))) for fac in space.factors]
        np.testing.assert_allclose(got, 2.0 * per[0] + 0.5 * per[1], atol=1e-10)


class TestAngularRegularization:
    def test_zero_when_unchanged(self):
        space = mixed_space()
        feats = np.random.default_rng(5).normal(0.0, 0.3, (6, 4))
        cos, valid = model.cosine_matrix_np(model.tangent_concat_np(feats, space))
        loss = model.angular_reg_loss_t(feats, space, cos, valid)
        assert float(loss) == pytest.approx(0.0, abs=1e-12)

    def test_curvature_invariance(self):
        # snapshot cosines are identical whatever curvatures the factors carry
        feats = np.random.default_rng(6).normal(0.0, 0.3, (8, 4))
        mats = []
        for ka, kb in [(-1.0, 1.0), (0.0, 0.0), (-2.0, 0.5)]:
            space = MixedSpace((FactorSpec(0, 1, 2, ka), FactorSpec(1, 3, 4, kb)))
            cos, _ = model.cosine_matrix_np(model.tangent_concat_np(feats, space))
            mats.append(cos)
        assert np.abs(mats[0] - mats[1]).max() <= 1e-9
        assert np.abs(mats[0] - mats[2]).max() <= 1e-9

    def test_positive_when_rotated(self):
        space = euclidean_space(dim=2)
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cos, valid = model.cosine_matrix_np(model.tangent_concat_np(feats, space))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = feats.copy()
        moved[0] = feats[0] @ rot.T  # rotate one point only: pairwise angles change
        loss = model.angular_reg_loss_t(moved, space, cos, valid)
        assert float(loss) > 1e-4

    def test_degenerate_rows_masked(self):
        space = euclidean_space(dim=2)
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tangents = model.tangent_concat_np(feats, space)
        cos, valid = model.cosine_matrix_np(tangents)
        assert not valid[0, 1] and valid[1, 2]
        loss = model.angular_reg_loss_t(feats, space, cos, valid)
        assert np.isfinite(float(loss))


class TestNeighborRobustness:
    def setup_method(self):
        # two tight same-class pairs far apart, one cross-class intruder
        self.labels = np.array([0, 0, 1, 1])
        self.sq = np.array([
            [0.0, 1.0, 9.0, 25.0],
            [1.0, 0.0, 2.0, 25.0],
            [9.0, 2.0, 0.0, 1.0],
            [25.0, 25.0, 1.0, 0.0],
        ])

    def test_tau2_is_same_class_mean(self):
        # same-class squared distances: (0,1)=1 and (2,3)=1 -> mean 1.0
        assert model.tau2_same_class_mean(self.sq, self.labels) == pytest.approx(1.0)

    def test_neighbor_sets(self):
        # The within-class neighbors are the +1 entries, the between-class
        # neighbors the -1 entries; a row is not its own neighbor.
        aff = model.affinity_matrix(self.sq, self.labels, 2.5)
        assert aff[0, 1] == 1 and aff[2, 3] == 1
        assert aff[1, 2] == -1 and aff[0, 2] != -1
        assert not (aff.diagonal() == 1).any()

    def test_affinity_signs(self):
        aff = model.affinity_matrix(self.sq, self.labels, 2.5)
        assert aff[0, 1] == 1.0 and aff[2, 3] == 1.0
        assert aff[1, 2] == -1.0 and aff[2, 1] == -1.0
        assert aff[0, 3] == 0.0

    def test_loss_attracts_and_repels(self):
        space = euclidean_space(dim=2)
        feats = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [3.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        sq = model.sq_dist_matrix_np(feats, feats, space)
        aff = model.affinity_matrix(sq, labels, model.tau2_same_class_mean(sq, labels))
        t = Tensor(feats)
        loss = model.neighbor_robustness_loss_t(t, space, aff)
        loss.backward()
        # the between-class pair (1, 2) contributes with negative sign:
        # moving point 2 away from point 1 lowers the loss
        assert t.grad[2][0] < 0

    def test_repulsion_cap_zeroes_far_pairs(self):
        space = euclidean_space(dim=2)
        feats = np.array([[0.0, 0.0], [10.0, 0.0]])
        aff = np.array([[0.0, -1.0], [-1.0, 0.0]])
        loss = model.neighbor_robustness_loss_t(feats, space, aff, repulsion_cap=4.0)
        assert float(loss) == pytest.approx(0.0, abs=1e-12)


class TestNeighborPairs:
    """The neighbor loss measures only its affinity pairs, yet its loss and
    gradients equal the dense form's bit for bit."""

    @staticmethod
    def dense_loss(feats, space, affinity, kmag, cap):
        """The loss over the whole (b, b) distance matrix."""
        b = feats.shape[0]
        psi2 = diffgeo.sq_dist_matrix(feats, feats, space, kmag=kmag)
        weight = np.triu(np.ones((b, b)), k=1) * affinity
        if cap is not None:
            weight = np.where((affinity < 0) & (psi2.value > cap), 0.0, weight)
        return ad.sum_(psi2 * weight) * (1.0 / max(b * (b - 1) / 2.0, 1.0))

    @staticmethod
    def both(feats, space, affinity, kmag, cap):
        """(loss, feats grad, kmag grad) of the pair path and of the dense form."""
        out = []
        for loss_fn in (model.neighbor_robustness_loss_t, TestNeighborPairs.dense_loss):
            f, k = Tensor(feats), Tensor(kmag)
            loss = loss_fn(f, space, affinity, k, cap)
            loss.backward()
            out.append((loss.value, f.grad, k.grad))
        return out

    @pytest.mark.parametrize("pool", ["mixed", "euclidean"])
    @pytest.mark.parametrize("capped", [False, True])
    @pytest.mark.parametrize("b", [2, 9, 40])
    def test_equals_dense_form(self, pool, capped, b):
        rng = np.random.default_rng(b)
        space = (gis.build_pool(32, [4, 8, 16]) if pool == "mixed"
                 else euclidean_space(32))
        assert pool == "euclidean" or {np.sign(f.curvature) for f in space.factors} == {-1, 1}
        feats = rng.normal(0.0, 0.5, (b, 32))
        upper = np.triu(rng.choice([-1.0, 0.0, 0.0, 1.0], (b, b)), k=1)
        upper[0, 1] = -1.0
        affinity = upper + upper.T
        kmag = rng.uniform(0.5, 2.0, len(space.factors))
        cap = None
        if capped:
            # Half the between-class pairs lie past the cap.
            d = model.sq_dist_matrix_np(feats, feats, space)
            cap = float(np.median(d[upper < 0]))
        (loss, gf, gk), (want, want_gf, want_gk) = self.both(feats, space, affinity, kmag, cap)
        assert np.array_equal(loss, want)
        assert np.array_equal(gf, want_gf)
        assert np.array_equal(gk, want_gk)
        assert np.abs(gf).max() > 0.0

    def test_all_zero_affinity(self):
        space = gis.build_pool(8, [2, 4])
        feats = np.random.default_rng(3).normal(0.0, 0.5, (6, 8))
        (loss, gf, gk), _ = self.both(feats, space, np.zeros((6, 6)), np.ones(6), 1.0)
        assert float(loss) == 0.0
        assert np.array_equal(gf, np.zeros((6, 8)))
        assert np.array_equal(gk, np.zeros(6))


class TestCallerGradients:
    """Each engine caller trains its own inputs of the distance kernel (the
    warm-up the prototypes, the search the curvatures and weights, main
    training the features and prototypes); the gradients it reads are bit
    for bit those of the same loss with every input trainable."""

    SPACE = gis.build_pool(32, [4, 8, 16])

    @classmethod
    def ce_grads(cls, values, labels, trained, kmag, weights):
        t = {k: Tensor(v) if k in trained else v for k, v in values.items()}
        model.ce_loss_t(t["feats"], t["protos"], labels, cls.SPACE,
                        kmag=t["kmag"] if kmag else None,
                        weights=t["weights"] if weights else None).backward()
        return {k: t[k].grad for k in trained}

    @pytest.mark.parametrize("trained, kmag, weights", [
        (("protos",), False, True),            # classifier warm-up
        (("kmag", "weights"), True, True),     # geometry search
        (("feats", "protos"), False, False),   # main training
    ], ids=["warmup", "search", "main"])
    def test_ce(self, trained, kmag, weights):
        rng = np.random.default_rng(31)
        n = len(self.SPACE.factors)
        values = {"feats": rng.normal(0.0, 0.5, (12, 32)), "protos": rng.normal(0.0, 0.5, (5, 32)),
                  "kmag": rng.uniform(0.5, 1.5, n), "weights": rng.uniform(0.05, 0.3, n)}
        labels = rng.integers(0, 5, 12)
        got = self.ce_grads(values, labels, trained, kmag, weights)
        full = self.ce_grads(values, labels, tuple(values), kmag, weights)
        for name, grad in got.items():
            assert np.array_equal(grad, full[name]), name

    def test_neighbor_loss(self):
        rng = np.random.default_rng(32)
        feats = rng.normal(0.0, 0.5, (10, 32))
        upper = np.triu(rng.choice([-1.0, 0.0, 1.0], (10, 10)), k=1)
        kmag = rng.uniform(0.5, 1.5, len(self.SPACE.factors))
        grads = []
        for trainable in (False, True):
            f = Tensor(feats)
            model.neighbor_robustness_loss_t(f, self.SPACE, upper + upper.T,
                                             kmag=Tensor(kmag) if trainable else kmag,
                                             repulsion_cap=5.0).backward()
            grads.append(f.grad)
        assert np.array_equal(grads[0], grads[1])


class TestOverlappingSlices:
    """The structure losses on the search pool's layout, where every
    coordinate belongs to several factors."""

    def setup_method(self):
        self.space = gis.build_pool(8, [2, 4])
        rng = np.random.default_rng(7)
        prev = rng.normal(0.0, 0.4, (5, 8))
        self.prev_cos, self.prev_valid = model.cosine_matrix_np(
            model.tangent_concat_np(prev, self.space))
        prev_d2 = model.sq_dist_matrix_np(prev, prev, self.space)
        labels = np.array([0, 0, 1, 1, 0])
        self.affinity = model.affinity_matrix(
            prev_d2, labels, model.tau2_same_class_mean(prev_d2, labels))

    def test_angular_gradcheck(self):
        err = ad.gradcheck(
            lambda t: model.angular_reg_loss_t(t["feats"], self.space,
                                               self.prev_cos, self.prev_valid),
            lambda rng: {"feats": rng.normal(0.0, 0.4, (5, 8))}, trials=2, rng=8)
        assert err <= 1e-4

    def test_neighbor_gradcheck(self):
        assert np.abs(self.affinity).sum() > 0
        err = ad.gradcheck(
            lambda t: model.neighbor_robustness_loss_t(t["feats"], self.space,
                                                       self.affinity, kmag=t["kmag"]),
            lambda rng: {"feats": rng.normal(0.0, 0.4, (5, 8)),
                         "kmag": rng.uniform(0.5, 2.0, len(self.space.factors))},
            trials=2, rng=9)
        assert err <= 1e-4


class TestTotalLoss:
    def test_weighted_sum(self):
        ce = Tensor(np.array(2.0))
        g = Tensor(np.array(0.5))
        l = Tensor(np.array(0.25))
        out = model.total_loss_t(ce, 2.0, g, 4.0, l)
        assert float(out.value) == pytest.approx(2.0 + 1.0 + 1.0)

    def test_none_terms_skipped(self):
        ce = Tensor(np.array(2.0))
        assert float(model.total_loss_t(ce, 1.0, None, 1.0, None).value) == 2.0



class TestPlainInPlainOut:
    """Given plain arrays only, a model op or the kernel returns a plain
    array or NumPy scalar, equal bit for bit to the value of the same call
    on Tensors."""

    SPACE = gis.build_pool(8, [2, 4])
    rng = np.random.default_rng(61)
    PARAMS = model.Backbone(5, 7, 8).init_params(rng)
    X = rng.normal(0.0, 1.0, (6, 5))
    FEATS, PROTOS = rng.normal(0.0, 0.5, (6, 8)), rng.normal(0.0, 0.5, (3, 8))
    LABELS = rng.integers(0, 3, 6)
    KMAG, WEIGHTS = rng.uniform(0.5, 2.0, (2, SPACE.size))
    PAIRS = np.triu(rng.random((6, 6)) < 0.5, k=1)
    upper = np.triu(rng.choice([-1.0, 0.0, 1.0], (6, 6)), k=1)
    AFFINITY = upper + upper.T
    PREV_COS, PREV_VALID = model.cosine_matrix_np(
        model.tangent_concat_np(rng.normal(0.0, 0.5, (6, 8)), SPACE))

    # name -> (the call on plain arrays, the same call on Tensors)
    CALLS = {
        "features_t": (
            lambda s: model.features_t(s.PARAMS, s.X),
            lambda s: model.features_t({k: Tensor(v) for k, v in s.PARAMS.items()}, s.X)),
        "tangent_concat_np": (
            lambda s: model.tangent_concat_np(s.FEATS, s.SPACE),
            lambda s: model.tangent_concat_t(Tensor(s.FEATS), s.SPACE)),
        "cosine_matrix_np": (
            lambda s: model.cosine_matrix_np(s.FEATS)[0],
            lambda s: model._tangent_cosines(Tensor(s.FEATS))[0]),
        "sq_dist_matrix": (
            lambda s: diffgeo.sq_dist_matrix(s.FEATS, s.PROTOS, s.SPACE, s.KMAG, s.WEIGHTS),
            lambda s: diffgeo.sq_dist_matrix(Tensor(s.FEATS), Tensor(s.PROTOS), s.SPACE,
                                             Tensor(s.KMAG), Tensor(s.WEIGHTS))),
        "sq_dist_matrix-pairs": (
            lambda s: diffgeo.sq_dist_matrix(s.FEATS, s.FEATS, s.SPACE, s.KMAG, pairs=s.PAIRS),
            lambda s: diffgeo.sq_dist_matrix(Tensor(s.FEATS), Tensor(s.FEATS), s.SPACE,
                                             Tensor(s.KMAG), pairs=s.PAIRS)),
        "ce_loss_t": (
            lambda s: model.ce_loss_t(s.FEATS, s.PROTOS, s.LABELS, s.SPACE, s.KMAG, s.WEIGHTS),
            lambda s: model.ce_loss_t(Tensor(s.FEATS), Tensor(s.PROTOS), s.LABELS, s.SPACE,
                                      Tensor(s.KMAG), Tensor(s.WEIGHTS))),
        "angular_reg_loss_t": (
            lambda s: model.angular_reg_loss_t(s.FEATS, s.SPACE, s.PREV_COS, s.PREV_VALID),
            lambda s: model.angular_reg_loss_t(Tensor(s.FEATS), s.SPACE, s.PREV_COS,
                                               s.PREV_VALID)),
        "neighbor_robustness_loss_t": (
            lambda s: model.neighbor_robustness_loss_t(s.FEATS, s.SPACE, s.AFFINITY, s.KMAG,
                                                       repulsion_cap=1.0),
            lambda s: model.neighbor_robustness_loss_t(Tensor(s.FEATS), s.SPACE, s.AFFINITY,
                                                       Tensor(s.KMAG), repulsion_cap=1.0)),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_plain_result_equals_tensor_value(self, name):
        plain_call, tensor_call = self.CALLS[name]
        plain = plain_call(self)
        recorded = tensor_call(self)
        assert type(plain) in (np.ndarray, np.float64)
        assert isinstance(recorded, Tensor)
        assert np.shape(plain) == recorded.value.shape
        assert np.asarray(plain).tobytes() == recorded.value.tobytes()
