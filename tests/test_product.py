import numpy as np
import pytest

from geocl import diffgeo, model
from geocl import geometry as geo
from geocl import product as prod
from geocl.errors import ConfigurationError


def two_factor_space():
    return prod.MixedSpace((
        prod.FactorSpec(0, 1, 2, -1.0),
        prod.FactorSpec(1, 3, 4, 1.0),
    ))


class TestFactorSpec:
    def test_dim_is_inclusive(self):
        f = prod.FactorSpec(0, 3, 6, -1.0)
        assert f.dim == 4

    def test_columns_zero_based(self):
        f = prod.FactorSpec(0, 2, 3, -1.0)
        np.testing.assert_array_equal(f.columns, [1, 2])

    def test_bad_slice_rejected(self):
        with pytest.raises(ConfigurationError):
            prod.FactorSpec(0, 0, 3, -1.0)
        with pytest.raises(ConfigurationError):
            prod.FactorSpec(0, 3, 3, -1.0)

    def test_take_beyond_feature_rejected(self):
        # Taking the columns of an 8-wide factor from 4 features is rejected.
        space = prod.MixedSpace((prod.FactorSpec(0, 1, 8, -1.0),))
        with pytest.raises(ConfigurationError):
            diffgeo.sq_dist_matrix(np.zeros((1, 4)), np.zeros((1, 4)), space)
        with pytest.raises(ConfigurationError):
            model.tangent_concat_np(np.zeros((1, 4)), space)


class TestMixedSpace:
    def test_sorted_by_pool_index(self):
        s = prod.MixedSpace((prod.FactorSpec(3, 1, 2, 1.0), prod.FactorSpec(1, 3, 4, -1.0)))
        assert [f.pool_index for f in s.factors] == [1, 3]
        assert s.size == 2
        np.testing.assert_array_equal(s.columns, [2, 3, 0, 1])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ConfigurationError):
            prod.MixedSpace((prod.FactorSpec(0, 1, 2, 1.0), prod.FactorSpec(0, 3, 4, 1.0)))


class TestLift:
    def test_component_wise_oracle(self):
        # Each factor measures the exp0 lift of its own slice: a hyperbolic
        # slice of norm 0.5 lands at tanh(0.5) and a spherical one of norm r
        # at tan(r), both at distance 2 * norm from the origin.
        space = two_factor_space()
        feat = np.array([[0.5, 0.0, 0.2, 0.1]])
        per_factor = [diffgeo.sq_dist_matrix(np.zeros((1, 4)), feat, prod.MixedSpace((f,)))[0, 0]
                      for f in space.factors]
        assert per_factor[0] == pytest.approx((2 * np.arctanh(np.tanh(0.5))) ** 2, abs=1e-10)
        assert per_factor[1] == pytest.approx(4 * 0.05, abs=1e-10)

    def test_log0_inverts_lift(self):
        # The tangent the angular loss reads is log0 of the lift, per factor.
        space = two_factor_space()
        feat = np.random.default_rng(7).normal(0.0, 0.3, (1, 4))
        parts = [geo.log_map(np.zeros(f.dim), geo.exp_map(np.zeros(f.dim), feat[0, f.columns],
                                                          f.curvature), f.curvature)
                 for f in space.factors]
        np.testing.assert_allclose(model.tangent_concat_np(feat, space)[0],
                                   np.concatenate(parts), atol=1e-9)


class TestSqDistance:
    def test_sum_of_squares_oracle(self):
        # factor 1: hyperbolic pair lifting to (0, 0.625) -> d = 2*artanh(0.625)
        # factor 2: the pair (0, 0.625) under K=0 -> d = 2*0.625
        space = prod.MixedSpace((
            prod.FactorSpec(0, 1, 2, -1.0),
            prod.FactorSpec(1, 3, 4, 0.0),
        ))
        x = np.zeros((1, 4))
        y = np.array([[np.arctanh(0.625), 0.0, 0.625, 0.0]])
        got = diffgeo.sq_dist_matrix(x, y, space)[0, 0]
        want = (2 * np.arctanh(0.625)) ** 2 + (2 * 0.625) ** 2
        assert got == pytest.approx(want, abs=1e-9)

    def test_feature_width_checked(self):
        space = two_factor_space()
        with pytest.raises(ConfigurationError):
            diffgeo.sq_dist_matrix(np.zeros((1, 3)), np.zeros((1, 3)), space)


class TestProductAngle:
    def test_equals_concat_cosine(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        space = prod.MixedSpace((prod.FactorSpec(0, 1, 2, -1.0), prod.FactorSpec(1, 3, 6, 1.0)))
        cos, valid = model.cosine_matrix_np(model.tangent_concat_np(np.stack([a, b]), space))
        ref = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert valid[0, 1]
        assert cos[0, 1] == pytest.approx(ref, abs=1e-12)

    def test_curvature_invariance(self):
        # log0 of the lifts under wildly different curvatures: identical cosine
        rng = np.random.default_rng(13)
        feats = rng.normal(0.0, 0.3, (2, 4))
        cosines = []
        for ka, kb in [(-2.0, 0.5), (0.0, 0.0), (1.5, -0.25)]:
            space = prod.MixedSpace((
                prod.FactorSpec(0, 1, 2, ka),
                prod.FactorSpec(1, 3, 4, kb),
            ))
            tangents = np.stack([np.concatenate([
                geo.log_map(np.zeros(f.dim), geo.exp_map(np.zeros(f.dim), row[f.columns],
                                                         f.curvature), f.curvature)
                for f in space.factors]) for row in feats])
            cosines.append(model.cosine_matrix_np(tangents)[0][0, 1])
        assert max(cosines) - min(cosines) <= 1e-9
