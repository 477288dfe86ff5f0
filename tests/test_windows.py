import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finite_diff import finite_diff
from relight import attention as A
from relight import generator as G
from relight import tensor as T
from relight import windows as W
from relight.tensor import Tape, Tensor
from test_contracts import reject


def test_partition_window_zero_holds_topleft_block():
    x = Tensor(np.arange(16.0).reshape(1, 4, 4))
    out = W.window_partition(x, 2)
    assert out.shape == (4, 4, 1)
    # pixels (0,0),(0,1),(1,0),(1,1) row-major
    assert np.array_equal(out.data[0, :, 0], [0.0, 1.0, 4.0, 5.0])
    # window 1 is the block at (0, 2)
    assert np.array_equal(out.data[1, :, 0], [2.0, 3.0, 6.0, 7.0])


def test_window_count_256():
    x = Tensor(np.zeros((1, 256, 256)))
    assert W.window_partition(x, 8).shape[0] == 1024


@pytest.mark.parametrize("s", [2, 4, 8])
def test_partition_reverse_roundtrip(s):
    rng = np.random.default_rng(s)
    x = Tensor(rng.normal(size=(3, 16, 16)))
    back = W.window_reverse(W.window_partition(x, s), s, 16, 16)
    assert np.array_equal(back.data, x.data)


def test_zero_in_zero_out():
    z = Tensor(np.zeros((3, 8, 8)))
    out = W.window_reverse(W.window_partition(z, 4), 4, 8, 8)
    assert np.array_equal(out.data, np.zeros((3, 8, 8)))


def test_reverse_of_permuted_windows_differs():
    # swapping two windows must change the reconstruction: catches indexing bugs
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 8, 8)))
    wins = W.window_partition(x, 4)
    swapped = wins.data.copy()
    swapped[[0, 3]] = swapped[[3, 0]]
    back = W.window_reverse(Tensor(swapped), 4, 8, 8)
    assert not np.array_equal(back.data, x.data)


@pytest.mark.parametrize("s", [2.0, "2", None])
def test_non_int_window_size_rejected(s):
    reject("window_partition-s", s)


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4, 8]))
@settings(max_examples=40, deadline=None)
def test_partition_is_bijection(seed, s):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 16, 16))
    back = W.window_reverse(W.window_partition(Tensor(x), s), s, 16, 16)
    assert np.array_equal(back.data, x)


def test_every_pixel_in_exactly_one_window():
    H = Wd = 16
    idx = Tensor(np.arange(H * Wd, dtype=np.float64).reshape(1, H, Wd))
    wins = W.window_partition(idx, 4).data[:, :, 0]
    seen = np.sort(wins.reshape(-1))
    assert np.array_equal(seen, np.arange(H * Wd, dtype=np.float64))


def test_partition_gradient_flows():
    x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 4)), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.tsum(W.window_partition(x, 2)))
    assert np.array_equal(x.grad, np.ones((2, 4, 4)))


class TestPatchEmbed:
    def _weights(self, rng, d):
        w = Tensor(rng.normal(size=(d, 3, 8, 8)) * 0.05)
        b = Tensor(np.zeros(d))
        return w, b

    def test_grid_shape(self):
        rng = np.random.default_rng(3)
        w, b = self._weights(rng, 16)
        grid = W.patch_embed(Tensor(rng.uniform(size=(3, 64, 48))), w, b)
        assert grid.shape == (16, 8, 6)

    def test_zero_image_zero_embeddings(self):
        w = Tensor(np.ones((4, 3, 8, 8)))
        b = Tensor(np.zeros(4))
        grid = W.patch_embed(Tensor(np.zeros((3, 16, 16))), w, b)
        assert np.array_equal(grid.data, np.zeros((4, 2, 2)))

    def test_equals_flatten_then_matmul_reference(self):
        # independent oracle: slice each 8x8 patch, flatten, single matmul
        rng = np.random.default_rng(4)
        d = 5
        x = rng.uniform(size=(3, 16, 24))
        w, b = self._weights(rng, d)
        grid = W.patch_embed(Tensor(x), w, b).data
        assert grid.shape == (d, 2, 3)

        wmat = w.data.reshape(d, -1)
        for i in range(2):
            for j in range(3):
                patch = x[:, 8 * i : 8 * i + 8, 8 * j : 8 * j + 8].reshape(-1)
                assert np.max(np.abs(grid[:, i, j] - (wmat @ patch + b.data))) < 1e-12


class TestPositionalEncoding:
    """The learnable [L,d] table ``global_.pos`` that the global branch adds to the patch tokens."""

    CFG = G.GeneratorConfig(height=16, width=16)  # 4 tokens of dim 16

    def _after_tokens(self, z, p):
        # the global branch from its token sequence on: two blocks, then the [16, 2, 2] grid again
        for i in range(2):
            z = A.transformer_block(z, p, f"global_.blocks.{i}", self.CFG.global_heads)
        return T.reshape(T.permute(z, (1, 0)), (16, 2, 2))

    def _tokens(self, x, p):
        # the [L,d] sequence, flattened by hand from the [16, 2, 2] grid: token k is grid cell k row-major
        grid = W.patch_embed(x, p["global_.patch_w"], p["global_.patch_b"])
        return T.permute(T.reshape(grid, (16, 4)), (1, 0))

    def test_zero_is_identity(self):
        p = G.init_weights(self.CFG, 6).params
        p["global_.pos"] = Tensor(np.zeros((4, 16)))
        x = Tensor(np.random.default_rng(6).uniform(size=(3, 16, 16)))
        out = A.global_branch(x, p, "global_", self.CFG.global_heads)
        # copied to C order like the sum, so the blocks round identically
        tokens = Tensor(self._tokens(x, p).data.copy())
        assert np.array_equal(out.data, self._after_tokens(tokens, p).data)

    def test_gradient_equals_sequence_gradient(self):
        p = G.init_weights(self.CFG, 7).params
        x = Tensor(np.random.default_rng(7).uniform(size=(3, 16, 16)))
        with Tape() as tape:
            tape.backward(T.mean(A.global_branch(x, p, "global_", self.CFG.global_heads)))
        z = Tensor(self._tokens(x, p).data + p["global_.pos"].data, requires_grad=True)
        with Tape() as tape:
            tape.backward(T.mean(self._after_tokens(z, p)))
        assert np.array_equal(p["global_.pos"].grad, z.grad)

    def test_distinct_tokens_get_distinct_offsets(self):
        pos = G.init_weights(G.GeneratorConfig(), 8).params["global_.pos"].data
        assert pos.shape == (64, 16)
        assert len(np.unique(pos, axis=0)) == 64


class TestPatchRecover:
    def _weights(self, rng, d, c_out):
        chans = [d, c_out, c_out, c_out]
        params = {}
        for i in range(3):
            w = Tensor(rng.normal(size=(chans[i + 1], chans[i], 3, 3)) * 0.05, requires_grad=True)
            b = Tensor(np.zeros(chans[i + 1]), requires_grad=True)
            params[f"rec.convs.{i}.0"], params[f"rec.convs.{i}.1"] = w, b
        return params

    def test_shape_contract(self):
        rng = np.random.default_rng(9)
        weights = self._weights(rng, 16, 6)
        grid = Tensor(rng.normal(size=(16, 8, 6)))
        out = W.patch_recover(grid, weights, "rec", 0, 64)
        assert out.shape == (6, 64, 48)

    def test_zero_grid_zero_output(self):
        rng = np.random.default_rng(10)
        weights = self._weights(rng, 4, 3)
        out = W.patch_recover(Tensor(np.zeros((4, 2, 2))), weights, "rec", 0, 16)
        assert np.array_equal(out.data, np.zeros((3, 16, 16)))

    def test_gradient_through_full_stack(self):
        rng = np.random.default_rng(12)
        weights = self._weights(rng, 3, 2)
        grid = Tensor(rng.normal(size=(3, 2, 2)))
        assert finite_diff(lambda: W.patch_recover(grid, weights, "rec", 0, 16), [grid]) < 1e-4

    # odd and even ends, both map edges, a one-row range at each edge and inside
    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 6), (3, 10), (6, 15), (17, 18), (9, 32), (20, 32), (31, 32)])
    def test_rows_equal_the_whole_map_rows_bitwise(self, lo, hi):
        rng = np.random.default_rng(13)
        weights = self._weights(rng, 4, 3)
        grid = Tensor(rng.normal(size=(4, 4, 5)))
        whole = W.patch_recover(grid, weights, "rec", 0, 32).data
        assert np.array_equal(W.patch_recover(grid, weights, "rec", lo, hi).data, whole[:, lo:hi])
