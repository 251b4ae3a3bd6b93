import operator
import tracemalloc

import numpy as np
import pytest

from geocl import autodiff as ad
from geocl import model as mdl
from geocl.errors import ContractViolation
from geocl.gis import build_pool
from geocl.model import Backbone
from geocl.product import FactorSpec, MixedSpace

from probes import weighted_sum

# The default pool: seven hyperbolic factors of width 4, then one spherical
# factor of width 4, four of width 8 and two of width 16.
POOL = build_pool(32, [4, 8, 16])
EUCLID2, EUCLID4 = (MixedSpace((FactorSpec(0, 1, d, 0.0),)) for d in (2, 4))


def scalar(x):
    return ad.Tensor(np.array(x))


class TestBasics:
    def test_linear_gradient_exact(self):
        # d/dx (3x) = 3, exact for a linear map
        x = scalar(1.7)
        weighted_sum(x, 3.0).backward()
        assert abs(x.grad - 3.0) <= 1e-10

    def test_chain_and_fanout(self):
        # f = 1.5x + 2.5x over two nodes that the total adds -> f' = 4
        x = scalar(0.5)
        y = mdl.total_loss_t(weighted_sum(x, 1.5), 1.0, weighted_sum(x, 2.5), 1.0, None)
        y.backward()
        assert x.grad == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(4,), (3, 1)])
    def test_accum_rejects_a_gradient_of_another_shape(self, shape):
        # A (3, 4) gradient broadcasts against either leaf, but an op states
        # its own reductions: none is summed down, and no gradient lands.
        x = ad.Tensor(np.ones(shape))
        with pytest.raises(ContractViolation):
            ad._accum(x, np.ones((3, 4)))
        assert x.grad is None

    def test_nonscalar_backward_rejected(self):
        t = ad.Tensor(np.zeros(3))
        with pytest.raises(ContractViolation):
            t.backward()

    @pytest.mark.parametrize("expr", [
        lambda t: t + 1, lambda t: 1.0 + t, lambda t: t * t, lambda t: -t,
    ], ids=["tensor-plus-int", "float-plus-tensor", "tensor-times-tensor", "negation"])
    def test_arithmetic_raises(self, expr):
        with pytest.raises(TypeError):
            expr(ad.Tensor(np.ones(3)))


class TestTakeCols:
    """The angular loss's gather of a space's columns: ``np.take`` forward,
    and a backward that adds the columns back run by run."""

    # The default pool's 14 factors cover every one of 32 columns three times.
    COLS = POOL.columns

    def test_equals_concatenated_slices_in_c_order(self):
        x = np.random.default_rng(0).normal(size=(5, 32))
        out = mdl.tangent_concat_np(x, POOL)
        want = np.concatenate([x[:, f.slice_start - 1:f.slice_end]
                               for f in POOL.factors], axis=1)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, want)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        prev_cos, valid = mdl.cosine_matrix_np(mdl.tangent_concat_np(rng.normal(size=(3, 32)),
                                                                     POOL))

        def build(t):
            return mdl.angular_reg_loss_t(t["x"], POOL, prev_cos, valid)

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
        g = rng.normal(size=(16, len(cols)))
        got = np.zeros((16, 32))
        ad.add_cols(got, ad.col_runs(cols), g)
        want = np.zeros((16, 32))
        np.add.at(want, (slice(None), cols), g)
        assert np.array_equal(got, want)


class TestConstants:
    """An array operand is a plain value: it makes no Tensor and gets no
    gradient."""

    ARRAY = np.random.default_rng(4).normal(size=(3, 4))
    OPS = {
        "distance-array": (lambda t, c: mdl.sq_dist_matrix_t(t, c, EUCLID4), ARRAY),
        # The angular loss's Huber penalty against plain previous cosines.
        "huber-array": (lambda t, c: mdl.angular_reg_loss_t(t, EUCLID4, c, np.ones((3, 3))),
                        ARRAY[:, :3]),
        "total-loss-plain-term": (lambda t, c: mdl.total_loss_t(t, 0.5, c, 2.0, None), ARRAY),
        "cross-entropy": (ad.cross_entropy, np.array([0, 3, 1])),
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

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                             ids=["add", "sub", "mul", "div"])
    def test_ndarray_left_of_a_tensor_without_reflected_op_raises(self, op):
        with pytest.raises(TypeError):
            op(self.ARRAY[0, :3], ad.Tensor(np.ones(3)))


class TestMemoryOrder:
    """A reduction gives the same bits on an F-ordered operand as on its
    C-ordered copy."""

    Q = np.random.default_rng(7).normal(size=(64, 96))

    @pytest.mark.parametrize("op", [lambda a: mdl._cosines(a)[2], ad.sum_], ids=["norm", "sum"])
    def test_fortran_order_gives_the_same_bits(self, op):
        assert np.array_equal(op(np.asfortranarray(self.Q)), op(self.Q))


class TestHuber:
    """The angular loss's Huber penalty on one pair of orthogonal rows
    (cosine 0) against a previous cosine ``prev``: the loss is the penalty
    of the change -prev, and each row's gradient is the penalty's slope
    along the other row."""

    @staticmethod
    def loss(feats, prev):
        return mdl.angular_reg_loss_t(feats, EUCLID2, np.array([[1.0, prev], [prev, 1.0]]),
                                      np.ones((2, 2)))

    def test_values_at_branch(self):
        out = [self.loss(np.eye(2), prev) for prev in (0.5, -3.0, 1.0)]
        np.testing.assert_allclose(out, [0.125, 2.5, 0.5], atol=1e-12)

    def test_gradient_both_branches(self):
        for prev, slope in ((0.5, -0.5), (-3.0, 1.0)):
            feats = ad.Tensor(np.eye(2))
            self.loss(feats, prev).backward()
            np.testing.assert_allclose(feats.grad, [[0.0, slope], [slope, 0.0]], atol=1e-12)


def chain_cross_entropy(sq_dists, labels):
    """``model.ce_loss_t``'s CE as it was before the fused op took the
    distances: a negation node, then the mean of the rows' log-sum-exp minus
    their true-class logit; every node with the float operations of the op
    it was."""
    logits = ad._make(-sq_dists.value, (sq_dists,), lambda g: ad._accum(sq_dists, -g))
    lv = logits.value
    rows = np.arange(lv.shape[0])
    m = lv.max(axis=-1, keepdims=True)
    shifted = np.exp(lv - m)
    total = shifted.sum(axis=-1)
    soft = shifted / np.expand_dims(total, -1)
    lse = ad._make(np.squeeze(m, axis=-1) + np.log(total), (logits,),
                   lambda g: ad._accum(logits, np.expand_dims(g, -1) * soft))

    def take_rows_bwd(g):
        full = np.zeros_like(lv)
        full[rows, labels] = g
        ad._accum(logits, full)

    picked = ad._make(lv[rows, labels], (logits,), take_rows_bwd)

    def sub_bwd(g):
        ad._accum(lse, g)
        ad._accum(picked, -g)

    per_row = ad._make(lse.value - picked.value, (lse, picked), sub_bwd)
    summed = ad.sum_(per_row)
    scale = 1.0 / per_row.value.size
    return ad._make(summed.value * scale, (summed,), lambda g: ad._accum(summed, g * scale))


def one_hot_first_cross_entropy(sq_dists, labels):
    """The fused op with the one-hot subtracted before the 1/n scaling."""
    lv = -sq_dists.value
    n = lv.shape[0]
    shifted = np.exp(lv - lv.max(axis=-1, keepdims=True))

    def bwd(g):
        grad = shifted / shifted.sum(axis=-1)[:, None]
        grad[np.arange(n), labels] -= 1.0
        ad._accum(sq_dists, -(grad * (g * (1.0 / n))))

    return ad._make(ad.cross_entropy(sq_dists.value, labels), (sq_dists,), bwd)


def ce_case(n, offset=0.0):
    """n rows of 9 entries on a grid of 0.5, so that rows hold ties, with the
    last row a copy of the first, and their labels."""
    rng = np.random.default_rng(n)
    grid = np.round(rng.normal(0.0, 4.0, (n, 9))) / 2 + offset
    grid[-1] = grid[0]
    return grid, rng.integers(0, 9, n)


def ce_value_and_grad(op, sq_dists, labels):
    leaf = ad.Tensor(sq_dists)
    loss = op(leaf, labels)
    loss.backward()
    return loss.value, leaf.grad


class TestSoftmaxCE:
    def test_cross_entropy_stability(self):
        out = ad.cross_entropy(np.array([[-1000.0, -1001.0]]), np.array([0]))
        assert out == pytest.approx(1.0 + np.log(1 + np.e ** -1), abs=1e-9)

    def test_cross_entropy_oracle(self):
        # distances (1, 4), logits (-1, -4): p = (0.95257, 0.04743);
        # -log p0 = 0.04859
        sq_dists = ad.Tensor(np.array([[1.0, 4.0]]))
        loss = ad.cross_entropy(sq_dists, np.array([0]))
        assert float(loss.value) == pytest.approx(0.04859, abs=1e-5)
        loss.backward()
        p = np.exp([-1.0, -4.0])
        p /= p.sum()
        np.testing.assert_allclose(sq_dists.grad[0], np.array([1.0, 0.0]) - p, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("form", ["leaf", "+1000", "-1000", "neg"])
    def test_equals_the_chain(self, n, form):
        """The CE over distances equals the negation node and the CE chain
        of the logits, bit for bit, on the grid, on it offset by +-1000 and
        on it negated."""
        grid, labels = ce_case(n, {"+1000": 1000.0, "-1000": -1000.0}.get(form, 0.0))
        sq_dists = -grid if form == "neg" else grid
        got, want = (ce_value_and_grad(op, sq_dists, labels)
                     for op in (ad.cross_entropy, chain_cross_entropy))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_chain_tells_scaling_orders_apart(self):
        # The comparison above fails an op that scales after the one-hot at
        # n = 7; at 1 and 64, 1/n is a power of two and both orders agree.
        grid, labels = ce_case(7)
        _, got = ce_value_and_grad(one_hot_first_cross_entropy, grid, labels)
        _, want = ce_value_and_grad(chain_cross_entropy, grid, labels)
        assert not np.array_equal(got, want)


class TestGradcheck:
    def test_distance_style_loss(self):
        def build(t):
            return mdl.ce_loss_t(t["x"], t["w"], np.array([0, 2, 1]), EUCLID4)

        err = ad.gradcheck(
            build,
            lambda rng: {"x": rng.normal(0.0, 0.5, (3, 4)), "w": rng.normal(0.0, 0.5, (3, 4))},
            trials=2, rng=0,
        )
        assert err <= 1e-6

    def test_transcendental_chain(self):
        # tanh in the backbone, exp and log in the cross-entropy
        x = np.random.default_rng(1).normal(size=(4, 3))

        def build(t):
            return ad.cross_entropy(mdl.features_t(t, x), np.array([0, 2, 1, 2]))

        err = ad.gradcheck(build, Backbone(3, 5, 3).init_params, trials=3, rng=1)
        assert err <= 1e-6

    def test_deterministic_given_seed(self):
        def build(t):
            return ad.cross_entropy(t["v"], np.array([0, 3]))

        runs = [ad.gradcheck(build, lambda rng: {"v": rng.normal(size=(2, 4))}, rng=42)
                for _ in range(2)]
        assert runs[0] == runs[1]


# A main-training batch on the default pool: the CE of 64 rows against 40
# prototypes, plus the angular and neighbor terms over 64 buffer rows, as
# ``harness._main_training`` builds it.
def main_training_case():
    rng = np.random.default_rng(0)
    params = Backbone(16, 64, 32).init_params(rng)
    classifier = rng.normal(0.0, 1.0, (40, 32))
    x, labels, x_buf = rng.normal(size=(64, 16)), rng.integers(0, 40, 64), rng.normal(size=(64, 16))
    cos = rng.uniform(-1.0, 1.0, (64, 64))
    cos = (cos + cos.T) / 2
    aff = np.triu(rng.choice([-1.0, 0.0, 1.0], (64, 64), p=[0.1, 0.8, 0.1]), k=1)
    aff = aff + aff.T

    def build(leaves):
        *params_t, wt = leaves
        params_t = dict(zip(params, params_t))
        ce = mdl.ce_loss_t(mdl.features_t(params_t, x), wt, labels, POOL)
        buf = mdl.features_t(params_t, x_buf)
        g_term = mdl.angular_reg_loss_t(buf, POOL, cos, np.ones((64, 64)))
        l_term = mdl.neighbor_robustness_loss_t(buf, POOL, aff)
        return mdl.total_loss_t(ce, 1.0, g_term, 1.0, l_term)

    return [*params.values(), classifier], build


def topological_order(root):
    """The nodes a backward from ``root`` reaches, parents before children,
    in the order ``Tensor.backward`` walks them."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def retaining_backward(root):
    """A reference backward that keeps the graph: the same order and the
    same accumulation as ``Tensor.backward``, with nothing released."""
    root.grad = np.ones_like(root.value)
    for node in reversed(topological_order(root)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestGraphRelease:
    def test_backward_releases_interior_nodes_and_keeps_gradients(self):
        arrays, build = main_training_case()
        leaves, ref_leaves = ([ad.Tensor(a) for a in arrays] for _ in range(2))
        loss, ref = build(leaves), build(ref_leaves)
        order = topological_order(loss)
        interior = [n for n in order if n._parents]
        values = [n.value.copy() for n in interior]
        # Five leaves and eight ops: two backbone passes; the CE's distances
        # and cross-entropy; the angular loss; the neighbor loss's distances
        # and weighted mean; the total.
        assert (len(order), len(interior)) == (13, 8)
        loss.backward()
        retaining_backward(ref)
        for node, value in zip(interior, values):
            assert node._parents is None and node._backward is None and node.grad is None
            assert np.array_equal(node.value, value)
        for leaf, want in zip(leaves, ref_leaves):
            assert leaf.grad.tobytes() == want.grad.tobytes()

    @pytest.mark.parametrize("second", [
        lambda y, root: root,                    # the spent root again
        lambda y, root: ad.sum_(y),              # a new root over a spent node
    ], ids=["root", "interior"])
    def test_backward_through_a_spent_graph_raises(self, second):
        x = ad.Tensor(np.ones(3))
        y = ad._make(x.value * 2.0, (x,), lambda g: ad._accum(x, g * 2.0))
        root = ad.sum_(y)
        root.backward()
        again = second(y, root)
        with pytest.raises(ContractViolation):
            again.backward()
        assert np.array_equal(x.grad, np.full(3, 2.0))

    def test_spent_graph_holds_only_leaf_gradients(self):
        """After its backward, a loss the caller still holds keeps at most
        the leaves' gradients plus 5 % of what its forward allocated; a
        backward that keeps the graph holds about 120 %."""
        arrays, build = main_training_case()
        build([ad.Tensor(a) for a in arrays])
        leaves = [ad.Tensor(a) for a in arrays]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = build(leaves)
            forward = tracemalloc.get_traced_memory()[0] - start
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        grads = sum(leaf.grad.nbytes for leaf in leaves)
        assert loss.value.size == 1
        assert held <= grads + 0.05 * forward
