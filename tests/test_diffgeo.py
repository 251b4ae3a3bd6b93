"""The fused product-distance kernel against the closed-form geometry oracle,
finite differences, and its own margins."""

import itertools

import numpy as np
import pytest

from geocl import autodiff as ad
from geocl import diffgeo, geometry
from geocl.autodiff import Tensor
from geocl.errors import ConfigurationError
from geocl.product import FactorSpec, MixedSpace

# Both signs, two magnitudes each, a Euclidean factor; slice widths 2-4,
# overlapping, and listed out of group order.
MIXED = MixedSpace((
    FactorSpec(0, 1, 2, -1.7),
    FactorSpec(1, 3, 5, 0.4),
    FactorSpec(2, 2, 4, 0.0),
    FactorSpec(3, 4, 6, -0.3),
    FactorSpec(4, 5, 6, 2.0),
    FactorSpec(5, 1, 3, 1.0),
))
EUCLID = MixedSpace((FactorSpec(0, 1, 6, 0.0),))


def oracle(feats, protos, space, weights=None):
    """Sum over factors of squared `geometry.distance` between exp0 lifts."""
    total = np.zeros((len(feats), len(protos)))
    for j, f in enumerate(space.factors):
        u = f.take(feats)[:, None, :]
        v = f.take(protos)[None, :, :]
        x = geometry.exp_map(np.zeros_like(u), u, f.curvature)
        y = geometry.exp_map(np.zeros_like(v), v, f.curvature)
        d = geometry.distance(x, y, f.curvature)
        total += (1.0 if weights is None else weights[j]) * d * d
    return total


def with_curvatures(space, curvatures):
    return MixedSpace(tuple(FactorSpec(f.pool_index, f.slice_start, f.slice_end, k)
                            for f, k in zip(space.factors, curvatures)))


class TestForward:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_geometry_oracle(self, weighted):
        rng = np.random.default_rng(0)
        feats = rng.normal(0.0, 0.4, (7, 6))
        protos = rng.normal(0.0, 0.4, (5, 6))
        weights = rng.uniform(0.2, 1.5, len(MIXED)) if weighted else None
        got = diffgeo.sq_dist_matrix(feats, protos, MIXED, weights=weights).value
        np.testing.assert_allclose(got, oracle(feats, protos, MIXED, weights),
                                   rtol=0, atol=1e-10)

    def test_trainable_magnitudes_replace_factor_curvatures(self):
        # kmag is indexed by pool index; the factor curvatures give only signs.
        rng = np.random.default_rng(1)
        feats = rng.normal(0.0, 0.4, (4, 6))
        protos = rng.normal(0.0, 0.4, (3, 6))
        kmag = rng.uniform(0.3, 2.0, len(MIXED))
        got = diffgeo.sq_dist_matrix(feats, protos, MIXED, kmag=kmag).value
        live = with_curvatures(MIXED, [np.sign(f.curvature) * kmag[f.pool_index]
                                       for f in MIXED.factors])
        np.testing.assert_allclose(got, oracle(feats, protos, live), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("curvature", [-1.7, -0.3, 0.0, 0.4, 2.0])
    def test_lifted_sq_distance_is_one_factor_case(self, curvature):
        rng = np.random.default_rng(2)
        u = rng.normal(0.0, 0.4, (3, 4))
        v = rng.normal(0.0, 0.4, (2, 4))
        got = diffgeo.lifted_sq_distance(Tensor(u), Tensor(v), Tensor(abs(curvature)),
                                         np.sign(curvature)).value
        space = MixedSpace((FactorSpec(0, 1, 4, curvature),))
        np.testing.assert_allclose(got, oracle(u, v, space), rtol=0, atol=1e-10)

    def test_self_distance_is_zero_and_symmetric(self):
        feats = np.random.default_rng(3).normal(0.0, 0.4, (6, 6))
        d = diffgeo.sq_dist_matrix(feats, feats, MIXED).value
        assert np.abs(np.diag(d)).max() <= 1e-12
        assert (d >= 0.0).all()
        np.testing.assert_allclose(d, d.T, rtol=0, atol=1e-12)

    def test_row_blocks_match_one_pass(self):
        # Forward-only calls run in tiles; recording does not.
        rng = np.random.default_rng(13)
        feats = rng.normal(0.0, 0.4, (500, 6))
        kmag, weights = rng.uniform(0.3, 2.0, (2, len(MIXED)))
        blocked = diffgeo.sq_dist_matrix(feats, feats, MIXED, kmag, weights).value
        whole = diffgeo.sq_dist_matrix(Tensor(feats, requires_grad=True), feats, MIXED,
                                       kmag, weights).value
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=1e-12)

    def test_feature_width_checked(self):
        with pytest.raises(ConfigurationError):
            diffgeo.sq_dist_matrix(np.zeros((2, 5)), np.zeros((2, 5)), MIXED)

    def test_no_graph_without_gradients(self):
        rng = np.random.default_rng(4)
        feats = Tensor(rng.normal(size=(3, 6)))
        protos = Tensor(rng.normal(size=(2, 6)))
        out = diffgeo.sq_dist_matrix(feats, protos, MIXED, kmag=Tensor(np.ones(6)),
                                     weights=Tensor(np.ones(6)))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


class TestTiles:
    @pytest.mark.parametrize("b", [1, 2, 15, 16, 17, 65, 129, 400])
    def test_self_distance_tiles_equal_rectangular_call(self, b):
        rng = np.random.default_rng(b)
        feats = rng.normal(0.0, 0.6, (b, 6))
        kmag, weights = rng.uniform(0.3, 2.0, (2, len(MIXED)))
        d = diffgeo.sq_dist_matrix(feats, feats, MIXED, kmag, weights).value
        rect = diffgeo.sq_dist_matrix(feats, feats.copy(), MIXED, kmag, weights).value
        assert np.array_equal(d, rect)
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 66, 128, 129, 400])
    def test_tiles_cover_rows_without_lone_row(self, n):
        tiles = diffgeo._tiles(n, 64)
        assert [r for start, stop in tiles for r in range(start, stop)] == list(range(n))
        assert all(stop - start > 1 for start, stop in tiles) or n == 1
        assert all(stop - start <= 65 for start, stop in tiles)


class TestPairs:
    @pytest.mark.parametrize("space", [MIXED, MixedSpace((FactorSpec(0, 1, 6, 0.0),))],
                             ids=["mixed", "euclidean"])
    @pytest.mark.parametrize("b", [2, 9])
    def test_pairs_equal_matrix_entries_and_gradients(self, space, b):
        rng = np.random.default_rng(b)
        feats = rng.normal(0.0, 0.5, (b, 6))
        kmag = rng.uniform(0.3, 2.0, len(space.factors))
        pairs = np.triu(rng.random((b, b)) < 0.4, k=1)
        pairs[0, 1] = True
        g = rng.normal(size=(b, b)) * pairs
        got = []
        for op in (lambda f, k: diffgeo.pair_sq_dist(f, pairs, space, kmag=k),
                   lambda f, k: diffgeo.sq_dist_matrix(f, f, space, kmag=k)):
            f, k = Tensor(feats, requires_grad=True), Tensor(kmag, requires_grad=True)
            d = op(f, k)
            ad.sum_(d * Tensor(g)).backward()
            got.append((d.value, f.grad, k.grad))
        (d, gf, gk), (dense, want_gf, want_gk) = got
        assert np.array_equal(d, np.where(pairs, dense, 0.0))
        assert np.array_equal(gf, want_gf)
        assert np.array_equal(gk, want_gk)

    def test_no_pairs(self):
        f = Tensor(np.random.default_rng(0).normal(size=(4, 6)), requires_grad=True)
        d = diffgeo.pair_sq_dist(f, np.zeros((4, 4), dtype=bool), MIXED)
        ad.sum_(d).backward()
        assert np.array_equal(d.value, np.zeros((4, 4)))
        assert np.array_equal(f.grad, np.zeros((4, 6)))


def _masks(b, rng):
    """Upper-triangle, lower-triangle and mixed pair masks of ``b`` rows."""
    mixed = rng.random((b, b)) < 0.1
    mixed[0, -1] = mixed[-1, 0] = True
    return {"upper": np.triu(mixed, k=1), "lower": np.tril(mixed, k=-1), "mixed": mixed}


class TestForwardPairs:
    """Forward-only pairs are the listed entries of the forward-only matrix."""

    @pytest.mark.parametrize("space", [MIXED, EUCLID], ids=["mixed", "euclidean"])
    @pytest.mark.parametrize("b", [2, 63, 65, 129, 400])
    def test_equal_matrix_entries(self, space, b):
        rng = np.random.default_rng(b)
        feats = rng.normal(0.0, 0.6, (b, 6))
        kmag = rng.uniform(0.3, 2.0, len(space.factors))
        for kv in (None, kmag):
            dense = diffgeo.sq_dist_matrix(feats, feats.copy(), space, kmag=kv).value
            for name, pairs in _masks(b, rng).items():
                got = diffgeo.pair_sq_dist(feats, pairs, space, kmag=kv)
                assert not got.requires_grad and got._parents == ()
                assert np.array_equal(got.value, np.where(pairs, dense, 0.0)), name
                recorded = diffgeo.pair_sq_dist(Tensor(feats, requires_grad=True), pairs,
                                                space, kmag=kv)
                assert np.array_equal(got.value, recorded.value), name

    def test_tiles_without_pairs_run_no_core(self, monkeypatch):
        calls = []
        core = diffgeo._core

        def counted(gram, *args):
            calls.append(gram.shape)
            return core(gram, *args)

        monkeypatch.setattr(diffgeo, "_core", counted)
        feats = np.random.default_rng(5).normal(0.0, 0.6, (129, 6))
        n_groups = len(diffgeo._layout(MIXED, 6))
        pairs = np.zeros((129, 129), dtype=bool)
        assert not diffgeo.pair_sq_dist(feats, pairs, MIXED).value.any()
        assert calls == []
        # Tiles are rows and columns [0, 64) and [64, 129): two of four hold pairs.
        pairs[3, 70] = pairs[100, 128] = pairs[64, 127] = True
        diffgeo.pair_sq_dist(feats, pairs, MIXED)
        assert sorted(shape[-1] for shape in calls) == [1] * n_groups + [2] * n_groups


def _loss(space, g, same=False):
    """Scalar probe of the kernel: a fixed random linear functional."""
    def build(t):
        protos = t["feats"] if same else t["protos"]
        d = diffgeo.sq_dist_matrix(t["feats"], protos, space, kmag=t.get("kmag"),
                                   weights=t.get("weights"))
        return ad.sum_(d * Tensor(g))
    return build


class TestBackward:
    @pytest.mark.parametrize("scale", [0.3, 1.0])
    def test_gradcheck_all_inputs(self, scale):
        g = np.random.default_rng(5).normal(size=(4, 3))

        def sampler(rng):
            return {"feats": rng.normal(0.0, scale, (4, 6)),
                    "protos": rng.normal(0.0, scale, (3, 6)),
                    "kmag": rng.uniform(0.3, 2.0, len(MIXED)),
                    "weights": rng.uniform(0.2, 1.0, len(MIXED))}

        assert ad.gradcheck(_loss(MIXED, g), sampler, trials=5, rng=6) <= 1e-4

    def test_gradcheck_one_tensor_both_operands(self):
        # The neighbor loss measures a batch against itself.
        g = np.triu(np.random.default_rng(7).normal(size=(5, 5)), k=1)

        def sampler(rng):
            return {"feats": rng.normal(0.0, 0.5, (5, 6)),
                    "kmag": rng.uniform(0.3, 2.0, len(MIXED))}

        assert ad.gradcheck(_loss(MIXED, g, same=True), sampler, trials=5, rng=8) <= 1e-4

    @pytest.mark.parametrize("curvature", [-1.0, 1.0])
    def test_gradcheck_past_the_lift_cap(self, curvature):
        # Row 0 lifts past TAN_CAP (sphere) or onto the ball margin. A distance
        # to a point on the margin amplifies rounding by 1/(1 - |K||x|^2) ~ 5e4,
        # so the central differences take a step of 1e-4 instead of 1e-5.
        space = MixedSpace((FactorSpec(0, 1, 3, curvature), FactorSpec(1, 2, 4, -curvature)))
        g = np.random.default_rng(9).normal(size=(3, 2))

        def sampler(rng):
            feats = rng.normal(0.0, 0.3, (3, 4))
            feats[0] *= 12.0 / np.linalg.norm(feats[0])
            return {"feats": feats, "protos": rng.normal(0.0, 0.3, (2, 4)),
                    "kmag": rng.uniform(0.5, 2.0, 2), "weights": rng.uniform(0.2, 1.0, 2)}

        assert ad.gradcheck(_loss(space, g), sampler, trials=3, h=1e-4, rng=10) <= 1e-4

    @pytest.mark.parametrize("curvature", [-1.0, 1.0])
    def test_capped_lift_ignores_radial_change(self, curvature):
        # Past the cap the lift keeps only the direction of a row, so scaling
        # that row changes no distance and its gradient is orthogonal to it.
        space = MixedSpace((FactorSpec(0, 1, 3, curvature),))
        u = Tensor(np.array([[8.0, -3.0, 1.0]]), requires_grad=True)
        v = np.random.default_rng(11).normal(0.0, 0.3, (4, 3))
        ad.sum_(diffgeo.sq_dist_matrix(u, v, space)).backward()
        grad = u.grad[0]
        assert abs(grad @ u.value[0]) <= 1e-9 * np.linalg.norm(grad) * np.linalg.norm(u.value)
        assert np.linalg.norm(grad) > 1e-6

    def test_same_tensor_gradient_is_sum_of_both_sides(self):
        rng = np.random.default_rng(12)
        f = rng.normal(0.0, 0.5, (4, 6))
        g = rng.normal(size=(4, 4))
        both = Tensor(f, requires_grad=True)
        ad.sum_(diffgeo.sq_dist_matrix(both, both, MIXED) * Tensor(g)).backward()
        left = Tensor(f, requires_grad=True)
        right = Tensor(f, requires_grad=True)
        ad.sum_(diffgeo.sq_dist_matrix(left, right, MIXED) * Tensor(g)).backward()
        np.testing.assert_allclose(both.grad, left.grad + right.grad, rtol=1e-12, atol=1e-12)


INPUTS = ("feats", "protos", "kmag", "weights")


def _subsets(names):
    return [s for r in range(1, len(names) + 1) for s in itertools.combinations(names, r)]


# (same tensor as both operands, inputs that require gradients)
MATRIX_CASES = ([(False, s) for s in _subsets(INPUTS)]
                + [(True, s) for s in _subsets(("feats", "kmag", "weights"))])


class TestPrunedBackward:
    """The backward computes only the gradients of inputs that require them,
    and each of those is bit for bit the one every input requiring
    gradients gives."""

    @staticmethod
    def grads(op, values, trained):
        t = {k: Tensor(v, requires_grad=k in trained) for k, v in values.items()}
        op(t).backward()
        assert all((t[k].grad is not None) == (k in trained) for k in t)
        return {k: t[k].grad for k in trained}

    @pytest.mark.parametrize("space", [MIXED, EUCLID], ids=["mixed", "euclidean"])
    @pytest.mark.parametrize("same, trained", MATRIX_CASES,
                             ids=[("same:" if s else "") + "+".join(t) for s, t in MATRIX_CASES])
    def test_matrix_gradients_equal_full_backward(self, space, same, trained):
        rng = np.random.default_rng(21)
        n = len(space.factors)
        values = {"feats": rng.normal(0.0, 0.6, (5, 6)), "kmag": rng.uniform(0.3, 2.0, n),
                  "weights": rng.uniform(0.2, 1.0, n)}
        if not same:
            values["protos"] = rng.normal(0.0, 0.6, (4, 6))
        g = rng.normal(size=(5, 5 if same else 4))

        def op(t):
            d = diffgeo.sq_dist_matrix(t["feats"], t["feats"] if same else t["protos"], space,
                                       kmag=t["kmag"], weights=t["weights"])
            return ad.sum_(d * Tensor(g))

        got = self.grads(op, values, trained)
        full = self.grads(op, values, tuple(values))
        for name, grad in got.items():
            assert np.array_equal(grad, full[name]), name

    @pytest.mark.parametrize("space", [MIXED, EUCLID], ids=["mixed", "euclidean"])
    @pytest.mark.parametrize("trained", [("feats",), ("kmag",)], ids="+".join)
    def test_pair_gradients_equal_full_backward(self, space, trained):
        rng = np.random.default_rng(22)
        values = {"feats": rng.normal(0.0, 0.6, (7, 6)),
                  "kmag": rng.uniform(0.3, 2.0, len(space.factors))}
        pairs = np.triu(rng.random((7, 7)) < 0.5, k=1)
        g = rng.normal(size=(7, 7)) * pairs

        def op(t):
            return ad.sum_(diffgeo.pair_sq_dist(t["feats"], pairs, space, kmag=t["kmag"])
                           * Tensor(g))

        got = self.grads(op, values, trained)
        full = self.grads(op, values, ("feats", "kmag"))
        for name, grad in got.items():
            assert np.array_equal(grad, full[name]), name


    @pytest.mark.parametrize("space, runs", [(MIXED, 4), (EUCLID, 0)], ids=["mixed", "euclidean"])
    def test_search_runs_only_curved_group_backwards(self, space, runs, monkeypatch):
        """With only kmag and weights trained, a Euclidean group needs no
        backward: its distances do not depend on its curvature."""
        calls = []
        make = diffgeo._group_backward

        def counted(*args, **kwargs):
            backward = make(*args, **kwargs)
            return lambda g, want: calls.append(want) or backward(g, want)

        monkeypatch.setattr(diffgeo, "_group_backward", counted)
        rng = np.random.default_rng(23)
        n = len(space.factors)
        kmag = Tensor(rng.uniform(0.3, 2.0, n), requires_grad=True)
        weights = Tensor(rng.uniform(0.2, 1.0, n), requires_grad=True)
        d = diffgeo.sq_dist_matrix(rng.normal(0.0, 0.6, (5, 6)), rng.normal(0.0, 0.6, (4, 6)),
                                   space, kmag=kmag, weights=weights)
        ad.sum_(d).backward()
        assert len(calls) == runs and all(want.k for want in calls)
        euclidean = [f.pool_index for f in space.factors if f.curvature == 0.0]
        assert np.all(kmag.grad[euclidean] == 0.0) and np.all(np.isfinite(weights.grad))


class TestLayout:
    def test_built_once_per_space_and_width(self):
        space = with_curvatures(MIXED, [f.curvature for f in MIXED.factors])
        assert space == MIXED and space is not MIXED
        first = diffgeo._layout(MIXED, 6)
        assert diffgeo._layout(space, 6) is first
        assert diffgeo._layout(MIXED, 7) is not first
        assert all(not a.flags.writeable for group in first for a in group[1:])
