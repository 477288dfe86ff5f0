import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finite_diff import finite_diff
from relight import attention as A
from relight import generator as G
from relight import tensor as T
from relight import windows as W
from relight.errors import ConfigError, DimensionError, PartitionError
from relight.tensor import Tape, Tensor


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


def test_non_divisible_raises_naming_geometry():
    with pytest.raises(PartitionError, match="3.*8x8|3 does not divide"):
        W.window_partition(Tensor(np.zeros((1, 8, 8))), 3)


@pytest.mark.parametrize("s", [2.0, "2", None])
def test_non_int_window_size_rejected(s):
    with pytest.raises(PartitionError, match=re.escape(f"window size {s!r} must be an int")):
        W.window_partition(Tensor(np.zeros((1, 8, 8))), s)


def test_reverse_count_mismatch():
    with pytest.raises(PartitionError):
        W.window_reverse(Tensor(np.zeros((3, 4, 1))), 2, 8, 8)


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

    def test_sequence_shape(self):
        rng = np.random.default_rng(3)
        w, b = self._weights(rng, 16)
        z = W.patch_embed(Tensor(rng.uniform(size=(3, 64, 64))), w, b)
        assert z.shape == (64, 16)

    def test_zero_image_zero_embeddings(self):
        w = Tensor(np.ones((4, 3, 8, 8)))
        b = Tensor(np.zeros(4))
        z = W.patch_embed(Tensor(np.zeros((3, 16, 16))), w, b)
        assert np.array_equal(z.data, np.zeros((4, 4)))

    def test_equals_flatten_then_matmul_reference(self):
        # independent oracle: slice each 8x8 patch, flatten, single matmul
        rng = np.random.default_rng(4)
        d = 5
        x = rng.uniform(size=(3, 16, 24))
        w, b = self._weights(rng, d)
        got = W.patch_embed(Tensor(x), w, b).data

        wmat = w.data.reshape(d, -1)
        k = 0
        for i in range(0, 16, 8):
            for j in range(0, 24, 8):
                patch = x[:, i : i + 8, j : j + 8].reshape(-1)
                assert np.max(np.abs(got[k] - (wmat @ patch + b.data))) < 1e-12
                k += 1
        assert k == got.shape[0]

    def test_indivisible_input(self):
        rng = np.random.default_rng(5)
        w, b = self._weights(rng, 4)
        with pytest.raises(PartitionError):
            W.patch_embed(Tensor(np.zeros((3, 12, 16))), w, b)


class TestPositionalEncoding:
    """The learnable [L,d] table ``global_.pos`` that the global branch adds to the patch tokens."""

    CFG = G.GeneratorConfig(height=16, width=16)  # 4 tokens of dim 16

    def _after_tokens(self, z, p):
        # the global branch from its token sequence on: two blocks, then recovery
        for i in range(2):
            z = A.transformer_block(z, p, f"global_.blocks.{i}", self.CFG.global_heads)
        return W.patch_recover(z, p, "global_.recover", 16, 16)

    def _tokens(self, x, p):
        return W.patch_embed(x, p["global_.patch_w"], p["global_.patch_b"])

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

    def test_length_mismatch_names_both_shapes(self):
        p = G.init_weights(self.CFG, 9).params
        p["global_.pos"] = Tensor(np.zeros((5, 16)))
        with pytest.raises(DimensionError, match=re.escape("(4, 16) and (5, 16)")):
            A.global_branch(Tensor(np.zeros((3, 16, 16))), p, "global_", self.CFG.global_heads)


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
        z = Tensor(rng.normal(size=(64, 16)))
        out = W.patch_recover(z, weights, "rec", 64, 64)
        assert out.shape == (6, 64, 64)

    def test_zero_tokens_zero_output(self):
        rng = np.random.default_rng(10)
        weights = self._weights(rng, 4, 3)
        out = W.patch_recover(Tensor(np.zeros((4, 4))), weights, "rec", 16, 16)
        assert np.array_equal(out.data, np.zeros((3, 16, 16)))

    def test_token_count_mismatch(self):
        rng = np.random.default_rng(11)
        weights = self._weights(rng, 4, 3)
        with pytest.raises(ConfigError):
            W.patch_recover(Tensor(np.zeros((5, 4))), weights, "rec", 16, 16)

    def test_gradient_through_full_stack(self):
        rng = np.random.default_rng(12)
        weights = self._weights(rng, 3, 2)
        z = Tensor(rng.normal(size=(4, 3)))
        assert finite_diff(lambda: W.patch_recover(z, weights, "rec", 16, 16), [z]) < 1e-4
