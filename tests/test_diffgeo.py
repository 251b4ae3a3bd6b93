"""The fused product-distance kernel against the closed-form geometry oracle,
finite differences, and its own margins."""

import itertools
import tracemalloc

import numpy as np
import pytest

from geocl import autodiff as ad
from geocl import diffgeo, geometry
from geocl.autodiff import Tensor
from geocl.errors import ConfigurationError, ContractViolation
from geocl.gis import build_pool
from geocl.product import FactorSpec, MixedSpace

from probes import weighted_sum

# Both signs, two magnitudes each, a Euclidean factor; slice widths 2-4,
# overlapping, with the signs interleaved.
MIXED = MixedSpace((
    FactorSpec(0, 1, 2, -1.7),
    FactorSpec(1, 3, 5, 0.4),
    FactorSpec(2, 2, 4, 0.0),
    FactorSpec(3, 4, 6, -0.3),
    FactorSpec(4, 5, 6, 2.0),
    FactorSpec(5, 1, 3, 1.0),
))
EUCLID = MixedSpace((FactorSpec(0, 1, 6, 0.0),))
# The default 14-factor pool: seven hyperbolic factors of width 4, then one
# spherical factor of width 4, four of width 8 and two of width 16.
POOL = build_pool(32, [4, 8, 16])


def oracle(feats, protos, space, weights=None):
    """Sum over factors of squared `geometry.distance` between exp0 lifts."""
    total = np.zeros((len(feats), len(protos)))
    for j, f in enumerate(space.factors):
        u = feats[:, None, f.columns]
        v = protos[None, :, f.columns]
        x = geometry.exp_map(np.zeros_like(u), u, f.curvature)
        y = geometry.exp_map(np.zeros_like(v), v, f.curvature)
        d = geometry.distance(x, y, f.curvature)
        total += (1.0 if weights is None else weights[j]) * d * d
    return total


def with_curvatures(space, curvatures):
    return MixedSpace(tuple(FactorSpec(f.pool_index, f.slice_start, f.slice_end, k)
                            for f, k in zip(space.factors, curvatures)))


def widths(layout):
    """The slice width of every part of a ``diffgeo._layout``, block by block."""
    return [[len(part.cols) // len(part.pool) for part in block.parts] for block in layout]


def group_spaces(space):
    """One space per (sign, width) group of ``space``, in block order: signs
    in order of first occurrence, then widths in order of first occurrence
    within a sign."""
    groups = {}
    for f in space.factors:
        groups.setdefault(np.sign(f.curvature), {}).setdefault(f.dim, []).append(f)
    return [MixedSpace(tuple(members)) for by_width in groups.values()
            for members in by_width.values()]


class TestForward:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_geometry_oracle(self, weighted):
        rng = np.random.default_rng(0)
        feats = rng.normal(0.0, 0.4, (7, 6))
        protos = rng.normal(0.0, 0.4, (5, 6))
        weights = rng.uniform(0.2, 1.5, MIXED.size) if weighted else None
        got = diffgeo.sq_dist_matrix(feats, protos, MIXED, weights=weights)
        np.testing.assert_allclose(got, oracle(feats, protos, MIXED, weights),
                                   rtol=0, atol=1e-10)

    def test_trainable_magnitudes_replace_factor_curvatures(self):
        # kmag is indexed by pool index; the factor curvatures give only signs.
        rng = np.random.default_rng(1)
        feats = rng.normal(0.0, 0.4, (4, 6))
        protos = rng.normal(0.0, 0.4, (3, 6))
        kmag = rng.uniform(0.3, 2.0, MIXED.size)
        got = diffgeo.sq_dist_matrix(feats, protos, MIXED, kmag=kmag)
        live = with_curvatures(MIXED, [np.sign(f.curvature) * kmag[f.pool_index]
                                       for f in MIXED.factors])
        np.testing.assert_allclose(got, oracle(feats, protos, live), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("curvature", [-1.7, -0.3, 0.0, 0.4, 2.0])
    def test_lifted_sq_distance_is_one_factor_case(self, curvature):
        rng = np.random.default_rng(2)
        u = rng.normal(0.0, 0.4, (3, 4))
        v = rng.normal(0.0, 0.4, (2, 4))
        got = diffgeo.lifted_sq_distance(u, v, np.array([abs(curvature)]), np.sign(curvature))
        space = MixedSpace((FactorSpec(0, 1, 4, curvature),))
        np.testing.assert_allclose(got, oracle(u, v, space), rtol=0, atol=1e-10)

    def test_self_distance_is_zero_and_symmetric(self):
        feats = np.random.default_rng(3).normal(0.0, 0.4, (6, 6))
        d = diffgeo.sq_dist_matrix(feats, feats, MIXED)
        assert np.abs(np.diag(d)).max() <= 1e-12
        assert (d >= 0.0).all()
        np.testing.assert_allclose(d, d.T, rtol=0, atol=1e-12)

    def test_row_blocks_match_one_pass(self):
        """Forward-only calls walk tiles; a recorded call is one tile. Both
        give the same values bit for bit, on a batch against itself and on
        the evaluation shapes of a run on the default 14-factor pool (test
        rows x classes), with and without magnitudes and weights."""
        rng = np.random.default_rng(13)
        feats = rng.normal(0.0, 0.4, (500, 6))
        cases = [(MIXED, feats, feats)]
        for rows, classes in [(1000, 20), (409, 40)]:
            cases.append((POOL, rng.normal(0.0, 1.0, (rows, 32)),
                          rng.normal(0.0, 1.0, (classes, 32))))
        for space, left, right in cases:
            kmag, weights = rng.uniform(0.3, 2.0, (2, space.size))
            for kv, wv in [(None, None), (kmag, weights)]:
                blocked = diffgeo.sq_dist_matrix(left, right, space, kv, wv)
                whole = diffgeo.sq_dist_matrix(Tensor(left), right, space, kv, wv).value
                assert np.array_equal(blocked, whole), (space.size, left.shape, kv is None)

    def test_feature_width_checked(self):
        with pytest.raises(ConfigurationError):
            diffgeo.sq_dist_matrix(np.zeros((2, 5)), np.zeros((2, 5)), MIXED)

    def test_no_graph_without_gradients(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(3, 6))
        protos = rng.normal(size=(2, 6))
        out = diffgeo.sq_dist_matrix(feats, protos, MIXED, kmag=np.ones(6), weights=np.ones(6))
        assert type(out) is np.ndarray


class TestTiles:
    @pytest.mark.parametrize("b", [1, 2, 15, 16, 17, 40, 64, 65, 129, 400])
    def test_self_distance_tiles_equal_rectangular_call(self, b):
        rng = np.random.default_rng(b)
        feats = rng.normal(0.0, 0.6, (b, 6))
        kmag, weights = rng.uniform(0.3, 2.0, (2, MIXED.size))
        d = diffgeo.sq_dist_matrix(feats, feats, MIXED, kmag, weights)
        rect = diffgeo.sq_dist_matrix(feats, feats.copy(), MIXED, kmag, weights)
        both = Tensor(feats)
        recorded = diffgeo.sq_dist_matrix(both, both, MIXED, kmag, weights).value
        assert np.array_equal(d, rect)
        assert np.array_equal(recorded, rect)
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("rows, bound", [(200, 100), (1000, 40)])
    def test_forward_only_matrix_peak_memory(self, rows, bound):
        """On the default 14-factor pool a forward-only call holds every
        part's lifts and one block's intermediates for one tile at a time:
        it peaks within ``bound`` (rows x 20) float matrices (about 25 and
        12). One that kept every factor group's intermediates peaked near
        139 at 200 rows, and one without row tiles near 76 at 1000 rows."""
        space = build_pool(32, [4, 8, 16])
        rng = np.random.default_rng(0)
        feats, protos = rng.normal(0.0, 1.0, (rows, 32)), rng.normal(0.0, 1.0, (20, 32))
        diffgeo.sq_dist_matrix(feats, protos, space)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            diffgeo.sq_dist_matrix(feats, protos, space)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound * rows * 20 * 8

    def test_forward_only_matrix_lifts_each_operand_once(self, monkeypatch):
        """200 rows against 40 prototypes span several row tiles; each part
        of each block still lifts the rows once and the prototypes once."""
        calls = []
        lifted = diffgeo._lifted

        def counted(a, *args):
            calls.append(len(a))
            return lifted(a, *args)

        monkeypatch.setattr(diffgeo, "_lifted", counted)
        space = build_pool(32, [4, 8, 16])
        rng = np.random.default_rng(0)
        assert len(diffgeo._tiles(200, diffgeo._TILE)) > 1
        diffgeo.sq_dist_matrix(rng.normal(0.0, 1.0, (200, 32)), rng.normal(0.0, 1.0, (40, 32)),
                               space)
        n_parts = sum(len(block.parts) for block in diffgeo._layout(space, 32))
        assert sorted(calls) == [40] * n_parts + [200] * n_parts

    def test_recorded_matrix_keeps_little_for_backward(self):
        """The CE's recorded op on the default 14-factor pool, at 64 rows x
        40 prototypes with frozen curvature, keeps at most 5.5 (14, 64, 40)
        float arrays alive between its forward and its backward (about 5.0:
        the core's mask, denominator, ratio, root and angle, the lifts and
        the output). A core that kept its intermediates held about 8.9."""
        rng = np.random.default_rng(0)
        feats = Tensor(rng.normal(0.0, 1.0, (64, 32)))
        protos = Tensor(rng.normal(0.0, 1.0, (40, 32)))
        diffgeo.sq_dist_matrix(feats, protos, POOL)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            d = diffgeo.sq_dist_matrix(feats, protos, POOL)
            alive = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        ad.sum_(d).backward()
        assert feats.grad is not None and protos.grad is not None
        assert alive <= 5.5 * 14 * 64 * 40 * 8

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 66, 128, 129, 400])
    def test_tiles_cover_rows_without_lone_row(self, n):
        tiles = diffgeo._tiles(n, 64)
        assert [r for start, stop in tiles for r in range(start, stop)] == list(range(n))
        assert all(stop - start > 1 for start, stop in tiles) or n == 1
        assert all(stop - start <= 65 for start, stop in tiles)


class TestPairs:
    @pytest.mark.parametrize("space", [MIXED, MixedSpace((FactorSpec(0, 1, 6, 0.0),))],
                             ids=["mixed", "euclidean"])
    @pytest.mark.parametrize("b", [2, 9, 40, 64, 65])
    def test_pairs_equal_matrix_entries_and_gradients(self, space, b):
        rng = np.random.default_rng(b)
        feats = rng.normal(0.0, 0.5, (b, 6))
        kmag = rng.uniform(0.3, 2.0, len(space.factors))
        pairs = np.triu(rng.random((b, b)) < 0.4, k=1)
        pairs[0, 1] = True
        g = rng.normal(size=(b, b)) * pairs
        got = []
        for op in (lambda f, k: diffgeo.sq_dist_matrix(f, f, space, kmag=k, pairs=pairs),
                   lambda f, k: diffgeo.sq_dist_matrix(f, f, space, kmag=k)):
            f, k = Tensor(feats), Tensor(kmag)
            d = op(f, k)
            weighted_sum(d, g).backward()
            got.append((d.value, f.grad, k.grad))
        (d, gf, gk), (dense, want_gf, want_gk) = got
        assert np.array_equal(d, np.where(pairs, dense, 0.0))
        assert np.array_equal(gf, want_gf)
        assert np.array_equal(gk, want_gk)

    def test_no_pairs(self):
        f = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        d = diffgeo.sq_dist_matrix(f, f, MIXED, pairs=np.zeros((4, 4), dtype=bool))
        ad.sum_(d).backward()
        assert np.array_equal(d.value, np.zeros((4, 4)))
        assert np.array_equal(f.grad, np.zeros((4, 6)))


class TestPlainOperands:
    """The one op takes plain arrays as they are: given no Tensor, it makes
    none and returns a plain array."""

    @pytest.mark.parametrize("record", [False, True], ids=["forward", "recorded"])
    @pytest.mark.parametrize("rows, weights", [(6, np.ones(MIXED.size)), (5, None)],
                             ids=["weighted", "misshapen"])
    def test_pairs_checked(self, record, rows, weights):
        """A mask takes no weights, and must be (B, N): a smaller one would
        put its listed entries at other places."""
        feats = np.random.default_rng(51).normal(0.0, 0.6, (6, 6))
        f = Tensor(feats) if record else feats
        pairs = np.zeros((rows, rows), dtype=bool)
        pairs[1, 2] = True
        with pytest.raises(ContractViolation):
            diffgeo.sq_dist_matrix(f, f, MIXED, weights=weights, pairs=pairs)

    def test_forward_only_call_makes_only_its_result(self, monkeypatch):
        made = []
        init = Tensor.__init__

        def counted(t, *args, **kwargs):
            made.append(t)
            init(t, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        rng = np.random.default_rng(52)
        out = diffgeo.sq_dist_matrix(rng.normal(0.0, 0.6, (5, 6)), rng.normal(0.0, 0.6, (4, 6)),
                                     MIXED, kmag=np.ones(MIXED.size), weights=np.ones(MIXED.size))
        assert made == [] and type(out) is np.ndarray


def _masks(b, rng):
    """Upper-triangle, lower-triangle and mixed pair masks of ``b`` rows,
    and a dense one that lists most of every tile, which is measured on its
    listed entries like the others."""
    mixed = rng.random((b, b)) < 0.1
    mixed[0, -1] = mixed[-1, 0] = True
    return {"upper": np.triu(mixed, k=1), "lower": np.tril(mixed, k=-1), "mixed": mixed,
            "dense": rng.random((b, b)) < 0.9}


class TestForwardPairs:
    """Forward-only pairs, measured on their listed entries in the tiles
    that hold one, are the entries of the forward-only matrix, measured on
    every entry of every tile, and of the recorded pair op, measured in one
    tile."""

    @pytest.mark.parametrize("space", [MIXED, EUCLID], ids=["mixed", "euclidean"])
    @pytest.mark.parametrize("b", [2, 40, 63, 64, 65, 129, 400])
    def test_equal_matrix_entries(self, space, b):
        rng = np.random.default_rng(b)
        feats = rng.normal(0.0, 0.6, (b, 6))
        kmag = rng.uniform(0.3, 2.0, len(space.factors))
        for kv in (None, kmag):
            dense = diffgeo.sq_dist_matrix(feats, feats.copy(), space, kmag=kv)
            for name, pairs in _masks(b, rng).items():
                got = diffgeo.sq_dist_matrix(feats, feats, space, kmag=kv, pairs=pairs)
                assert not isinstance(got, Tensor)
                assert np.array_equal(got, np.where(pairs, dense, 0.0)), name
                both = Tensor(feats)
                recorded = diffgeo.sq_dist_matrix(both, both, space, kmag=kv, pairs=pairs)
                assert np.array_equal(got, recorded.value), name

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
        assert not diffgeo.sq_dist_matrix(feats, feats, MIXED, pairs=pairs).any()
        assert calls == []
        # Tiles are rows and columns [0, 64) and [64, 129): two of four hold pairs.
        pairs[3, 70] = pairs[100, 128] = pairs[64, 127] = True
        diffgeo.sq_dist_matrix(feats, feats, MIXED, pairs=pairs)
        assert sorted(shape[-1] for shape in calls) == [1] * n_groups + [2] * n_groups


    @pytest.mark.parametrize("share, bound", [(0.22, 4), (1.0, 9)])
    def test_peak_memory(self, share, bound):
        """On the default 14-factor pool with B = 400 rows and a share of
        the upper triangle listed, the op holds the lifts, the output and one
        block's intermediates for one _TILE x _TILE tile at a time: it peaks
        within ``bound`` B x B float matrices (about 2.2 and 3.4). A walk
        over whole-row blocks without column tiles peaked near 5.8 and
        16.5."""
        space = build_pool(32, [4, 8, 16])
        rng = np.random.default_rng(0)
        b = 400
        feats = rng.normal(0.0, 1.0, (b, 32))
        pairs = np.triu(rng.random((b, b)) < share, k=1)
        diffgeo.sq_dist_matrix(feats, feats, space, pairs=pairs)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            diffgeo.sq_dist_matrix(feats, feats, space, pairs=pairs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound * b * b * 8


class TestSignBlocks:
    """The default pool has both signs: the core runs once per sign per
    tile, over every factor of that sign, whatever the slice widths."""

    @pytest.fixture
    def core_calls(self, monkeypatch):
        calls = []
        core = diffgeo._core

        def counted(gram, *args):
            calls.append(gram.shape)
            return core(gram, *args)

        monkeypatch.setattr(diffgeo, "_core", counted)
        return calls

    def test_layout_is_one_block_per_sign(self):
        layout = diffgeo._layout(POOL, 32)
        assert [block.sign for block in layout] == [-1.0, 1.0]
        assert widths(layout) == [[4], [4, 8, 16]]

    def test_interleaved_signs_sum_in_block_order(self):
        """MIXED's signs interleave; its matrix is the sum of its (sign,
        width) groups' own matrices, added block by block, bit for bit."""
        assert widths(diffgeo._layout(MIXED, 6)) == [[2, 3], [3, 2], [3]]
        rng = np.random.default_rng(31)
        feats, protos = rng.normal(0.0, 0.6, (40, 6)), rng.normal(0.0, 0.6, (30, 6))
        total = np.zeros((40, 30))
        for sub in group_spaces(MIXED):
            total += diffgeo.sq_dist_matrix(feats, protos, sub)
        assert np.array_equal(diffgeo.sq_dist_matrix(feats, protos, MIXED), total)

    @pytest.mark.parametrize("op", ["matrix", "pairs"])
    def test_interleaved_signs_scatter_in_block_order(self, op):
        """Gradients of overlapping slices add up part by part, block by
        block, as separate ops of one (sign, width) group each would add
        them. No group's own factors overlap here, and the second feature
        column is read by four groups, which sit in three sign blocks. The
        pair op's one operand gets the sum of both sides' gradients, each
        added up as the matrix op adds up its two operands' on the listed
        pairs."""
        space = MixedSpace((FactorSpec(0, 1, 2, -1.7), FactorSpec(1, 2, 5, 0.4),
                            FactorSpec(2, 2, 4, -0.3), FactorSpec(3, 5, 6, 2.0),
                            FactorSpec(4, 1, 3, 0.0)))
        assert widths(diffgeo._layout(space, 6)) == [[2, 3], [4, 2], [3]]
        rng = np.random.default_rng(33)
        feats, protos = rng.normal(0.0, 0.6, (7, 6)), rng.normal(0.0, 0.6, (5, 6))
        kmag = rng.uniform(0.3, 2.0, 5)
        g = rng.normal(size=(7, 5))
        if op == "pairs":
            protos = feats
            pairs = np.triu(rng.random((7, 7)) < 0.5, k=1)
            g = rng.normal(size=(7, 7)) * pairs

        def tensors():
            return [Tensor(v) for v in (feats, protos, kmag)]

        t = tensors()
        d = (diffgeo.sq_dist_matrix(*t[:2], space, kmag=t[2]) if op == "matrix"
             else diffgeo.sq_dist_matrix(t[0], t[0], space, kmag=t[2], pairs=pairs))
        weighted_sum(d, g).backward()
        separate = tensors()
        for sub in group_spaces(space):
            weighted_sum(diffgeo.sq_dist_matrix(*separate[:2], sub, kmag=separate[2]),
                         g).backward()
        got, want = [x.grad for x in t], [x.grad for x in separate]
        if op == "pairs":
            got, want = [got[0], got[2]], [want[0] + want[1], want[2]]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_recorded_matrix(self, core_calls):
        rng = np.random.default_rng(0)
        feats = Tensor(rng.normal(0.0, 1.0, (64, 32)))
        diffgeo.sq_dist_matrix(feats, rng.normal(0.0, 1.0, (40, 32)), POOL)
        assert core_calls == [(7, 64, 40), (7, 64, 40)]

    def test_forward_only_matrix(self, core_calls):
        rng = np.random.default_rng(0)
        diffgeo.sq_dist_matrix(rng.normal(0.0, 1.0, (200, 32)), rng.normal(0.0, 1.0, (40, 32)),
                               POOL)
        # Row tiles of 64, 64, 64 and 8 rows, one column tile.
        assert sorted(core_calls) == [(7, 8, 40)] * 2 + [(7, 64, 40)] * 6

    def test_forward_only_pairs(self, core_calls):
        feats = np.random.default_rng(0).normal(0.0, 1.0, (129, 32))
        pairs = np.zeros((129, 129), dtype=bool)
        pairs[:64, 64:] = True
        pairs[3, 5] = True
        diffgeo.sq_dist_matrix(feats, feats, POOL, pairs=pairs)
        # Tiles are rows and columns [0, 64) and [64, 129): the first runs
        # on its one listed pair, the second, fully listed, on its 64 x 65
        # listed pairs, and the other two hold no pair.
        assert core_calls == [(7, 1), (7, 1), (7, 64 * 65), (7, 64 * 65)]


class TestSharedLift:
    """A product of rows with themselves lifts them once; the right operand
    is a copy of the lift, whose Gram products equal those of a second lift
    bit for bit (a product with the lift itself rounds differently at some
    sizes). The ops that share the lift are checked against the two-lift
    matrix at the same sizes in TestTiles and TestForwardPairs."""

    @pytest.mark.parametrize("space", [MIXED, EUCLID], ids=["mixed", "euclidean"])
    @pytest.mark.parametrize("b", [2, 40, 64, 65, 129, 400])
    def test_gram_products_equal_two_lifts(self, space, b):
        feats = np.random.default_rng(b).normal(0.0, 0.6, (b, 6))
        tiles = diffgeo._tiles(b, diffgeo._TILE)
        for block in diffgeo._layout(space, 6):
            for part in block.parts:
                k = block.k[part.span]
                x = diffgeo._lifted(feats, part.cols, k, block.sign)[0]
                y = diffgeo._lifted(feats, part.cols, k, block.sign)[0]
                shared = diffgeo._self_operand(x)
                assert np.array_equal(x @ shared.transpose(0, 2, 1), x @ y.transpose(0, 2, 1))
                for (r0, r1), (c0, c1) in itertools.product(tiles, tiles):
                    assert np.array_equal(x[:, r0:r1] @ shared[:, c0:c1].transpose(0, 2, 1),
                                          x[:, r0:r1] @ y[:, c0:c1].transpose(0, 2, 1))
                # The walk writes the product into the part's rows of the
                # block's Gram array.
                gram = np.empty((len(block.k), b, b))
                np.matmul(x, shared.transpose(0, 2, 1), out=gram[part.span])
                assert np.array_equal(gram[part.span], x @ y.transpose(0, 2, 1))


    @pytest.mark.parametrize("record", [False, True], ids=["forward", "recorded"])
    def test_one_operand_lifts_once(self, record, monkeypatch):
        """One array or Tensor given as both operands is lifted once per part."""
        calls = []
        lifted = diffgeo._lifted

        def counted(a, *args):
            calls.append(len(a))
            return lifted(a, *args)

        monkeypatch.setattr(diffgeo, "_lifted", counted)
        feats = np.random.default_rng(54).normal(0.0, 0.6, (9, 6))
        f = Tensor(feats) if record else feats
        pairs = np.triu(np.ones((9, 9), dtype=bool), k=1)
        diffgeo.sq_dist_matrix(f, f, MIXED, pairs=pairs)
        assert calls == [9] * sum(len(block.parts) for block in diffgeo._layout(MIXED, 6))


def _loss(space, g, same=False):
    """Scalar probe of the kernel: a fixed random linear functional."""
    def build(t):
        protos = t["feats"] if same else t["protos"]
        d = diffgeo.sq_dist_matrix(t["feats"], protos, space, kmag=t.get("kmag"),
                                   weights=t.get("weights"))
        return weighted_sum(d, g)
    return build


class TestBackward:
    @pytest.mark.parametrize("scale", [0.3, 1.0])
    def test_gradcheck_all_inputs(self, scale):
        g = np.random.default_rng(5).normal(size=(4, 3))

        def sampler(rng):
            return {"feats": rng.normal(0.0, scale, (4, 6)),
                    "protos": rng.normal(0.0, scale, (3, 6)),
                    "kmag": rng.uniform(0.3, 2.0, MIXED.size),
                    "weights": rng.uniform(0.2, 1.0, MIXED.size)}

        assert ad.gradcheck(_loss(MIXED, g), sampler, trials=5, rng=6) <= 1e-4

    def test_gradcheck_one_tensor_both_operands(self):
        # The neighbor loss measures a batch against itself.
        g = np.triu(np.random.default_rng(7).normal(size=(5, 5)), k=1)

        def sampler(rng):
            return {"feats": rng.normal(0.0, 0.5, (5, 6)),
                    "kmag": rng.uniform(0.3, 2.0, MIXED.size)}

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
        u = Tensor(np.array([[8.0, -3.0, 1.0]]))
        v = np.random.default_rng(11).normal(0.0, 0.3, (4, 3))
        ad.sum_(diffgeo.sq_dist_matrix(u, v, space)).backward()
        grad = u.grad[0]
        assert abs(grad @ u.value[0]) <= 1e-9 * np.linalg.norm(grad) * np.linalg.norm(u.value)
        assert np.linalg.norm(grad) > 1e-6

    def test_same_tensor_gradient_is_sum_of_both_sides(self):
        rng = np.random.default_rng(12)
        f = rng.normal(0.0, 0.5, (4, 6))
        g = rng.normal(size=(4, 4))
        both = Tensor(f)
        weighted_sum(diffgeo.sq_dist_matrix(both, both, MIXED), g).backward()
        left = Tensor(f)
        right = Tensor(f)
        weighted_sum(diffgeo.sq_dist_matrix(left, right, MIXED), g).backward()
        np.testing.assert_allclose(both.grad, left.grad + right.grad, rtol=1e-12, atol=1e-12)


INPUTS = ("feats", "protos", "kmag", "weights")


def _subsets(names):
    return [s for r in range(1, len(names) + 1) for s in itertools.combinations(names, r)]


# (same tensor as both operands, inputs that are Tensors)
MATRIX_CASES = ([(False, s) for s in _subsets(INPUTS)]
                + [(True, s) for s in _subsets(("feats", "kmag", "weights"))])


class TestPrunedBackward:
    """The backward computes only the gradients of inputs that are Tensors,
    and each of those is bit for bit the one of a call where every input is
    a Tensor."""

    @staticmethod
    def grads(op, values, trained):
        t = {k: Tensor(v) if k in trained else v for k, v in values.items()}
        op(t).backward()
        assert all(t[k].grad is not None for k in trained)
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
            return weighted_sum(d, g)

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
            d = diffgeo.sq_dist_matrix(t["feats"], t["feats"], space, kmag=t["kmag"], pairs=pairs)
            return weighted_sum(d, g)

        got = self.grads(op, values, trained)
        full = self.grads(op, values, ("feats", "kmag"))
        for name, grad in got.items():
            assert np.array_equal(grad, full[name]), name


    @pytest.mark.parametrize("space, runs", [(MIXED, 4), (EUCLID, 0)], ids=["mixed", "euclidean"])
    def test_search_runs_only_curved_group_backwards(self, space, runs, monkeypatch):
        """With only kmag and weights trained, a Euclidean block needs no
        backward: its distances do not depend on its curvature. Every part
        of a curved block runs its own."""
        calls = []
        make = diffgeo._block_backward

        def counted(*args, **kwargs):
            backward = make(*args, **kwargs)

            def run(g, want):
                grads = backward(g, want)
                calls.extend(want for _ in grads)
                return grads
            return run

        monkeypatch.setattr(diffgeo, "_block_backward", counted)
        rng = np.random.default_rng(23)
        n = len(space.factors)
        kmag = Tensor(rng.uniform(0.3, 2.0, n))
        weights = Tensor(rng.uniform(0.2, 1.0, n))
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
        assert all(not a.flags.writeable for block in first
                   for a in (block.pool, block.k, *(a for part in block.parts
                                                    for a in (part.cols, part.pool))))


def add_at_node(out, feats, protos, kmag, weights, want, blocks):
    """``diffgeo._node`` as it was before the run-wise scatter: every
    gradient scattered with ``np.add.at``."""
    b, n = feats.shape[0], protos.shape[0]

    def bwd(g):
        gf, gp, gk, gw = (np.zeros_like(t.value) if isinstance(t, Tensor) else None
                          for t in (feats, protos, kmag, weights))
        for block, w, dist2, block_backward in blocks:
            if gw is not None:
                for part in block.parts:
                    np.add.at(gw, part.pool, np.einsum("bn,mbn->m", g, dist2[part.span]))
            block_want = want if block.sign else want._replace(k=False)
            if not (block_want.x or block_want.y):
                continue
            for part, gu, gv, gkm in block_backward(g if w is None else w[:, None, None] * g,
                                                    block_want):
                if gf is not None:
                    np.add.at(gf, (slice(None), part.cols), gu.transpose(1, 0, 2).reshape(b, -1))
                if gp is not None:
                    np.add.at(gp, (slice(None), part.cols), gv.transpose(1, 0, 2).reshape(n, -1))
                if gkm is not None:
                    np.add.at(gk, part.pool, gkm)
        for t, grad in zip((feats, protos, kmag, weights), (gf, gp, gk, gw)):
            if grad is not None:
                ad._accum(t, grad)

    return ad._make(out, (feats, protos, kmag, weights), bwd)


class TestRunScatter:
    """The backward adds each part's gradients by runs of consecutive
    columns; the sums are those of ``np.add.at`` bit for bit, also where
    factors of one sign and width overlap."""

    # Widths interleave within each sign. The hyperbolic width-3 part's
    # columns run [0, 3), [1, 4), [2, 5), [6, 9): column 2 is read by three
    # of its factors, and the width-2 part adds onto columns it wrote.
    SPACE = MixedSpace((
        FactorSpec(0, 1, 3, -1.2),
        FactorSpec(1, 2, 4, -0.7),
        FactorSpec(2, 1, 2, -0.4),
        FactorSpec(3, 3, 5, -1.0),
        FactorSpec(4, 7, 9, -0.6),
        FactorSpec(5, 3, 6, 0.8),
        FactorSpec(6, 2, 3, 1.5),
        FactorSpec(7, 5, 8, 0.3),
        FactorSpec(8, 1, 10, 0.0),
    ))

    def test_parts_hold_overlapping_runs(self):
        hyperbolic = diffgeo._layout(self.SPACE, 10)[0]
        assert [part.runs for part in hyperbolic.parts] == [
            ((slice(0, 3), slice(0, 3)), (slice(3, 6), slice(1, 4)),
             (slice(6, 9), slice(2, 5)), (slice(9, 12), slice(6, 9))),
            ((slice(0, 2), slice(0, 2)),)]

    @pytest.mark.parametrize("op", ["matrix", "pairs"])
    def test_gradients_equal_add_at(self, op, monkeypatch):
        rng = np.random.default_rng(41)
        n = len(self.SPACE.factors)
        values = [rng.normal(0.0, 0.6, (9, 10)), rng.normal(0.0, 0.6, (6, 10)),
                  rng.uniform(0.3, 2.0, n), rng.uniform(0.2, 1.0, n)]
        pairs = np.triu(rng.random((9, 9)) < 0.6, k=1)
        g = rng.normal(size=(9, 6)) if op == "matrix" else rng.normal(size=(9, 9)) * pairs

        def grads():
            t = [Tensor(v) for v in values]
            if op == "matrix":
                d = diffgeo.sq_dist_matrix(t[0], t[1], self.SPACE, kmag=t[2], weights=t[3])
                used = t
            else:
                d = diffgeo.sq_dist_matrix(t[0], t[0], self.SPACE, kmag=t[2], pairs=pairs)
                used = [t[0], t[2]]
            weighted_sum(d, g).backward()
            return [x.grad for x in used]

        got = grads()
        monkeypatch.setattr(diffgeo, "_node", add_at_node)
        want = grads()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestKeptDistances:
    """A recorded op keeps each block's unweighted distances for dL/dw only
    when the weights train."""

    @pytest.fixture
    def kept(self, monkeypatch):
        kept = []
        node = diffgeo._node

        def spy(out, feats, protos, kmag, weights, want, blocks):
            kept.append([dist2 for _, _, dist2, _ in blocks])
            return node(out, feats, protos, kmag, weights, want, blocks)

        monkeypatch.setattr(diffgeo, "_node", spy)
        return kept

    def test_frozen_weights_keep_no_distances(self, kept):
        """The warm-up: trained prototypes under frozen uniform weights."""
        rng = np.random.default_rng(42)
        protos = Tensor(rng.normal(0.0, 0.6, (5, 32)))
        diffgeo.sq_dist_matrix(rng.normal(0.0, 0.6, (8, 32)), protos, POOL,
                               weights=np.full(POOL.size, 1.0 / POOL.size))
        assert kept == [[None, None]]

    def test_trained_weights_keep_distances(self, kept):
        """The search: trained weights and curvatures."""
        rng = np.random.default_rng(43)
        kmag = Tensor(np.ones(POOL.size))
        weights = Tensor(np.full(POOL.size, 0.05))
        diffgeo.sq_dist_matrix(rng.normal(0.0, 0.6, (8, 32)), rng.normal(0.0, 0.6, (5, 32)),
                               POOL, kmag=kmag, weights=weights)
        assert [[d.shape for d in block] for block in kept] == [[(7, 8, 5), (7, 8, 5)]]
