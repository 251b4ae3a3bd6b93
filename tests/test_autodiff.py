import numpy as np
import pytest

from geocl import autodiff as ad
from geocl.errors import ContractViolation
from geocl.gis import build_pool


def scalar(x):
    return ad.Tensor(np.array(x))


class TestBasics:
    def test_linear_gradient_exact(self):
        # d/dx (3x + 2) = 3, exact for a linear map
        x = scalar(1.7)
        y = ad.sum_(x * 3.0 + 2.0)
        y.backward()
        assert abs(x.grad - 3.0) <= 1e-10

    def test_chain_and_fanout(self):
        # f = x^2 + x * x -> f' = 4x
        x = scalar(0.5)
        y = ad.sum_(ad.square(x) + x * x)
        y.backward()
        assert x.grad == pytest.approx(2.0, abs=1e-12)

    def test_broadcasting_unbroadcast(self):
        a = ad.Tensor(np.ones((3, 4)))
        b = ad.Tensor(np.ones(4))
        ad.sum_(a * b).backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0)

    def test_nonscalar_backward_rejected(self):
        t = ad.Tensor(np.zeros(3))
        with pytest.raises(ContractViolation):
            t.backward()

    def test_matmul(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(2, 3)))
        b = ad.Tensor(rng.normal(size=(3, 2)))
        ad.sum_(ad.matmul(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.value.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.value.T @ np.ones((2, 2)), atol=1e-12)


class TestTakeCols:
    # The default pool's 14 factors cover every one of 32 columns three times.
    COLS = build_pool(32, [4, 8, 16]).columns

    def test_equals_concatenated_slices_in_c_order(self):
        x = np.random.default_rng(0).normal(size=(5, 32))
        out = ad.take_cols(x, self.COLS)
        want = np.concatenate([x[:, f.slice_start - 1:f.slice_end]
                               for f in build_pool(32, [4, 8, 16]).factors], axis=1)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, want)

    def test_gradcheck(self):
        scale = np.random.default_rng(1).normal(size=(3, len(self.COLS)))

        def build(t):
            return ad.sum_(ad.square(ad.take_cols(t["x"], self.COLS)) * scale)

        err = ad.gradcheck(build, lambda rng: {"x": rng.normal(size=(3, 32))}, rng=2)
        assert err <= 1e-6

    @pytest.mark.parametrize("cols", [
        [3, 4, 5, 0, 1, 4, 5, 6, 9, 2, 4],  # runs that overlap, column 4 thrice
        [7, 2, 2, 9, 0, 5],                 # no two columns consecutive
        list(COLS),                          # three runs over every column
    ], ids=["overlapping", "scattered", "pool"])
    def test_backward_equals_add_at(self, cols):
        cols = np.array(cols)
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(16, 32)))
        g = rng.normal(size=(16, len(cols)))
        ad.sum_(ad.take_cols(x, cols) * g).backward()
        want = np.zeros((16, 32))
        np.add.at(want, (slice(None), cols), g)
        assert np.array_equal(x.grad, want)


class TestConstants:
    """A float or an array operand is a plain value: it makes no Tensor and
    gets no gradient."""

    ARRAY = np.random.default_rng(4).normal(size=(3, 4))
    OPS = {
        "mul-float": (lambda t, c: t * c, 2.0),
        "mul-array": (lambda t, c: t * c, ARRAY),
        "huber-array": (ad.huber, ARRAY),
    }

    @pytest.mark.parametrize("name", OPS)
    def test_one_tensor(self, name, monkeypatch):
        op, const = self.OPS[name]
        t = ad.Tensor(np.ones((3, 4)))
        made = []
        init = ad.Tensor.__init__

        def counted(obj, *args, **kwargs):
            made.append(obj)
            init(obj, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counted)
        out = op(t, const)
        assert made == [out] and out._parents == (t,)

    def test_operator_sugar_takes_plain_values(self):
        t = ad.Tensor(np.ones(3))
        for out in (2.0 * t, t + self.ARRAY[0, :3], t - 1.0, t / 4.0):
            assert out._parents == (t,)

    @pytest.mark.parametrize("op", [ad.mul, ad.div, ad.matmul])
    @pytest.mark.parametrize("frozen", [0, 1], ids=["left-frozen", "right-frozen"])
    def test_frozen_operand_gradient_not_computed(self, op, frozen, monkeypatch):
        rng = np.random.default_rng(6)
        a, b = (ad.Tensor(v) if side != frozen else v
                for side, v in enumerate(rng.uniform(0.5, 2.0, (2, 3, 3))))
        reached = []
        accum = ad._accum

        def spy(t, g):
            reached.append(t)
            accum(t, g)

        monkeypatch.setattr(ad, "_accum", spy)
        ad.sum_(op(a, b)).backward()
        trained = (a, b)[1 - frozen]
        assert trained.grad is not None and not isinstance((a, b)[frozen], ad.Tensor)
        assert not any(t is (a, b)[frozen] for t in reached)


class TestElementwiseGradients:
    @pytest.mark.parametrize("op,ref", [
        (ad.tanh, lambda x: 1 - np.tanh(x) ** 2),
        (ad.square, lambda x: 2 * x),
    ])
    def test_closed_form(self, op, ref):
        x = ad.Tensor(np.array([0.1, -0.3, 0.45]))
        ad.sum_(op(x)).backward()
        np.testing.assert_allclose(x.grad, ref(x.value), atol=1e-10)

    def test_sqrt(self):
        x = ad.Tensor(np.array([0.25, 4.0]))
        ad.sum_(ad.sqrt(x)).backward()
        np.testing.assert_allclose(x.grad, 0.5 / np.sqrt(x.value), atol=1e-12)

    def test_norm_zero_safe(self):
        x = ad.Tensor(np.zeros((1, 3)))
        ad.sum_(ad.norm(x)).backward()
        assert np.all(np.isfinite(x.grad))


class TestHuber:
    def test_values_at_branch(self):
        out = ad.huber(np.array([0.5, 3.0, 1.0]), np.zeros(3))
        np.testing.assert_allclose(out, [0.125, 2.5, 0.5], atol=1e-12)

    def test_gradient_both_branches(self):
        a = ad.Tensor(np.array([0.5, -3.0]))
        ad.sum_(ad.huber(a, np.zeros(2))).backward()
        np.testing.assert_allclose(a.grad, [0.5, -1.0], atol=1e-12)


class TestSoftmaxCE:
    def test_logsumexp_stability(self):
        out = ad.logsumexp(np.array([[1000.0, 1001.0]]))
        assert out == pytest.approx(1001.0 + np.log(1 + np.e ** -1), abs=1e-9)

    def test_cross_entropy_oracle(self):
        # logits (-1, -4): p = (0.95257, 0.04743); -log p0 = 0.04859
        logits = ad.Tensor(np.array([[-1.0, -4.0]]))
        loss = ad.cross_entropy(logits, np.array([0]))
        assert float(loss.value) == pytest.approx(0.04859, abs=1e-5)
        loss.backward()
        p = np.exp([-1.0, -4.0])
        p /= p.sum()
        np.testing.assert_allclose(logits.grad[0], p - np.array([1.0, 0.0]), atol=1e-10)


class TestGradcheck:
    def test_distance_style_loss(self):
        def build(t):
            d2 = ad.sum_(ad.square(t["x"] - t["w"]), axis=-1)
            return ad.sum_(ad.sqrt(d2 + 1e-12))

        err = ad.gradcheck(
            build,
            lambda rng: {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(3, 4))},
            trials=2, rng=0,
        )
        assert err <= 1e-6

    def test_transcendental_chain(self):
        def build(t):
            h = ad.tanh(t["v"]) * 0.9
            return ad.sum_(ad.sqrt(ad.square(h) + 1.0) / ad.norm(h))

        err = ad.gradcheck(build, lambda rng: {"v": rng.normal(size=5)}, trials=3, rng=1)
        assert err <= 1e-6

    def test_deterministic_given_seed(self):
        def build(t):
            return ad.sum_(ad.square(t["v"]))

        runs = [ad.gradcheck(build, lambda rng: {"v": rng.normal(size=4)}, rng=42)
                for _ in range(2)]
        assert runs[0] == runs[1]
