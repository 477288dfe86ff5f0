import re

import numpy as np
import pytest

from finite_diff import finite_diff
from relight import attention as A
from relight import discriminator as D
from relight import generator as G
from relight import losses as L
from relight import tensor as T
from relight import windows as W
from relight.errors import ConfigError, ContractError, DimensionError, PartitionError
from relight.tensor import Tensor


def make_mhsa(rng, d, zero_out=False, prefix="m"):
    def mat():
        return Tensor(rng.normal(size=(d, d)) / np.sqrt(d))

    w_o = Tensor(np.zeros((d, d))) if zero_out else mat()
    return {f"{prefix}.w_q": mat(), f"{prefix}.w_k": mat(), f"{prefix}.w_v": mat(), f"{prefix}.w_o": w_o}


def make_block(rng, d, zero_out=False, prefix="b"):
    mlp_w2 = Tensor(np.zeros((4 * d, d))) if zero_out else Tensor(rng.normal(size=(4 * d, d)) / np.sqrt(4 * d))
    p = {f"{prefix}.norm1_g": Tensor(np.ones(d)), f"{prefix}.norm1_b": Tensor(np.zeros(d))}
    p.update(make_mhsa(rng, d, zero_out=zero_out, prefix=f"{prefix}.mhsa"))
    p[f"{prefix}.norm2_g"] = Tensor(np.ones(d))
    p[f"{prefix}.norm2_b"] = Tensor(np.zeros(d))
    p[f"{prefix}.mlp_w1"] = Tensor(rng.normal(size=(d, 4 * d)) / np.sqrt(d))
    p[f"{prefix}.mlp_b1"] = Tensor(np.zeros(4 * d))
    p[f"{prefix}.mlp_w2"] = mlp_w2
    p[f"{prefix}.mlp_b2"] = Tensor(np.zeros(d))
    return p


def mhsa_reference(z, w, heads):
    """Explicit per-head loop oracle for multi-head attention."""
    L, d = z.shape
    hd = d // heads
    out = []
    for i in range(heads):
        cols = slice(i * hd, (i + 1) * hd)
        q = z @ w["m.w_q"].data[:, cols]
        k = z @ w["m.w_k"].data[:, cols]
        v = z @ w["m.w_v"].data[:, cols]
        scores = q @ k.T / np.sqrt(hd)
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        attn = e / e.sum(axis=1, keepdims=True)
        out.append(attn @ v)
    return np.concatenate(out, axis=1) @ w["m.w_o"].data


class TestMhsa:
    def test_single_token_is_value_projection(self):
        rng = np.random.default_rng(0)
        w = make_mhsa(rng, 8)
        z = rng.normal(size=(1, 8))
        out = A.mhsa(Tensor(z), w, "m", 2)
        expected = (z @ w["m.w_v"].data) @ w["m.w_o"].data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        d = 8
        w = {
            "m.w_q": Tensor(rng.normal(size=(d, d))),
            "m.w_k": Tensor(np.zeros((d, d))),  # all keys identical -> uniform attention
            "m.w_v": Tensor(rng.normal(size=(d, d))),
            "m.w_o": Tensor(np.eye(d)),
        }
        z = rng.normal(size=(2, d))
        out = A.mhsa(Tensor(z), w, "m", 2)
        mean_v = (z @ w["m.w_v"].data).mean(axis=0)
        assert np.allclose(out.data[0], mean_v)
        assert np.allclose(out.data[1], mean_v)

    def test_against_per_head_loop_reference(self):
        rng = np.random.default_rng(2)
        w = make_mhsa(rng, 8)
        z = rng.normal(size=(5, 8))
        got = A.mhsa(Tensor(z), w, "m", 2).data
        assert np.max(np.abs(got - mhsa_reference(z, w, 2))) < 1e-10

    def test_50_random_cases_match_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            heads = int(rng.choice([1, 2, 4]))
            d = heads * int(rng.integers(1, 16 // heads + 1))
            L = int(rng.integers(1, 9))
            w = make_mhsa(rng, d)
            z = rng.normal(size=(L, d))
            got = A.mhsa(Tensor(z), w, "m", heads).data
            assert np.max(np.abs(got - mhsa_reference(z, w, heads))) < 1e-10

    def test_attention_rows_sum_to_one_via_hook(self, monkeypatch):
        rng = np.random.default_rng(4)
        w = make_mhsa(rng, 8)
        hook = []
        softmax = T.softmax

        def recording_softmax(x):
            out = softmax(x)
            hook.append(out.data)
            return out

        # mhsa looks T.softmax up on the module at call time, so the patch reaches it
        monkeypatch.setattr(T, "softmax", recording_softmax)
        A.mhsa(Tensor(rng.normal(size=(6, 8))), w, "m", 2)
        (attn,) = hook
        assert attn.shape == (1, 2, 6, 6)
        assert np.allclose(attn.sum(axis=-1), 1.0)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(5)
        w = make_mhsa(rng, 8)
        with pytest.raises(ConfigError):
            A.mhsa(Tensor(np.zeros((3, 4))), w, "m", 2)

    def test_heads_must_divide_dim(self):
        rng = np.random.default_rng(6)
        w = make_mhsa(rng, 6)
        with pytest.raises(ConfigError, match="heads 4"):
            A.mhsa(Tensor(np.zeros((3, 6))), w, "m", 4)

    @pytest.mark.parametrize("heads", [0, -2, 2.0, "2", None])
    def test_bad_heads_rejected_naming_the_value(self, heads):
        w = make_mhsa(np.random.default_rng(6), 8)
        with pytest.raises(ConfigError, match=re.escape(f"heads {heads!r} must be an int >= 1")):
            A.mhsa(Tensor(np.zeros((3, 8))), w, "m", heads)

    def test_batched_matches_per_window(self):
        rng = np.random.default_rng(7)
        w = make_mhsa(rng, 4)
        z = rng.normal(size=(3, 5, 4))
        batched = A.mhsa(Tensor(z), w, "m", 2).data
        for i in range(3):
            single = A.mhsa(Tensor(z[i]), w, "m", 2).data
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        w = make_mhsa(rng, 4)
        z = Tensor(rng.normal(size=(3, 4)))
        assert finite_diff(lambda: A.mhsa(z, w, "m", 2), [z]) < 1e-4


class TestWindowAttentionBlock:
    @pytest.mark.parametrize("s", [2, 4, 8])
    def test_shape_preserved(self, s):
        rng = np.random.default_rng(9)
        block = make_block(rng, 6)
        x = Tensor(rng.normal(size=(6, 16, 16)))
        assert A.window_attention_block(x, s, block, "b", 2).shape == (6, 16, 16)

    def test_zeroed_output_weights_give_identity(self):
        rng = np.random.default_rng(10)
        block = make_block(rng, 4, zero_out=True)
        x = Tensor(rng.normal(size=(4, 8, 8)))
        out = A.window_attention_block(x, 2, block, "b", 2)
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_locality_perturbation_is_exact(self):
        # changing a pixel in one window must leave every other window untouched
        rng = np.random.default_rng(11)
        block = make_block(rng, 4)
        x = rng.normal(size=(4, 8, 8))
        base = A.window_attention_block(Tensor(x), 4, block, "b", 2).data
        bumped = x.copy()
        bumped[1, 2, 3] += 1.0  # inside window (0, 0)
        out = A.window_attention_block(Tensor(bumped), 4, block, "b", 2).data
        assert not np.allclose(out[:, :4, :4], base[:, :4, :4])
        assert np.array_equal(out[:, :4, 4:], base[:, :4, 4:])
        assert np.array_equal(out[:, 4:, :], base[:, 4:, :])


class TestLocalBranch:
    def _weights(self, rng, c, zero_out=False):
        p = {"loc.embed_w": Tensor(rng.normal(size=(c, 3, 1, 1)) / np.sqrt(3)), "loc.embed_b": Tensor(np.zeros(c))}
        for i in range(len(A.LOCAL_WINDOW_SIZES)):
            p.update(make_block(rng, c, zero_out=zero_out, prefix=f"loc.blocks.{i}"))
        return p

    def test_shape_contract(self):
        rng = np.random.default_rng(12)
        w = self._weights(rng, 8)
        out = A.local_branch(Tensor(rng.uniform(size=(3, 16, 16))), w, "loc", 2)
        assert out.shape == (8, 16, 16)

    def test_window_sizes_are_exponential(self):
        assert A.LOCAL_WINDOW_SIZES == (2, 4, 8)
        assert all(s == 2 ** (i + 1) for i, s in enumerate(A.LOCAL_WINDOW_SIZES))

    def test_zeroed_blocks_reduce_to_scaled_embedding(self):
        rng = np.random.default_rng(14)
        w = self._weights(rng, 4, zero_out=True)
        x = Tensor(rng.uniform(size=(3, 8, 8)))
        got = A.local_branch(x, w, "loc", 2)
        embedded = T.conv2d(x, w["loc.embed_w"], w["loc.embed_b"])
        assert np.allclose(got.data, 3.0 * embedded.data, atol=1e-12)

    def test_finite_on_unit_range_input(self):
        rng = np.random.default_rng(15)
        w = self._weights(rng, 8)
        out = A.local_branch(Tensor(rng.uniform(size=(3, 16, 16))), w, "loc", 2)
        assert np.isfinite(out.data).all()


class TestGlobalBranch:
    def _weights(self, rng, h, w_, d, c_out):
        L = (h // 8) * (w_ // 8)
        chans = [d, c_out, c_out, c_out]
        p = {}
        for i in range(3):
            w = Tensor(rng.normal(size=(chans[i + 1], chans[i], 3, 3)) / np.sqrt(9 * chans[i]))
            p[f"glob.recover.convs.{i}.0"], p[f"glob.recover.convs.{i}.1"] = w, Tensor(np.zeros(chans[i + 1]))
        p["glob.patch_w"] = Tensor(rng.normal(size=(d, 3, 8, 8)) / np.sqrt(192))
        p["glob.patch_b"] = Tensor(np.zeros(d))
        p["glob.pos"] = Tensor(rng.normal(size=(L, d)) * 0.02)
        for i in range(2):
            p.update(make_block(rng, d, prefix=f"glob.blocks.{i}"))
        return p

    def test_shape_contract_through_64_tokens(self):
        rng = np.random.default_rng(16)
        w = self._weights(rng, 64, 64, 16, 5)
        out = A.global_branch(Tensor(rng.uniform(size=(3, 64, 64))), w, "glob", 2)
        assert out.shape == (5, 64, 64)

    def test_global_receptive_field(self):
        # a single-pixel change may reach every output pixel
        rng = np.random.default_rng(17)
        w = self._weights(rng, 16, 16, 8, 4)
        x = rng.uniform(size=(3, 16, 16))
        base = A.global_branch(Tensor(x), w, "glob", 2).data
        bumped = x.copy()
        bumped[0, 0, 0] += 0.5
        out = A.global_branch(Tensor(bumped), w, "glob", 2).data
        changed = np.abs(out - base) > 0
        # every 8x8 patch region of the output sees the perturbation
        assert changed.any(axis=0).all()

    def test_gradient_end_to_end(self):
        rng = np.random.default_rng(18)
        w = self._weights(rng, 16, 16, 4, 3)
        x = Tensor(rng.uniform(size=(3, 16, 16)))
        assert finite_diff(lambda: A.global_branch(x, w, "glob", 2), [x]) < 1e-4

    def test_finite_on_unit_range_input(self):
        rng = np.random.default_rng(19)
        w = self._weights(rng, 16, 16, 8, 4)
        out = A.global_branch(Tensor(rng.uniform(size=(3, 16, 16))), w, "glob", 2)
        assert np.isfinite(out.data).all()


# Each entry point with an input one rank off; the weights are never read.
WRONG_RANK = {
    "window_partition": (lambda x: W.window_partition(x, 2), (4, 4)),
    "window_reverse": (lambda x: W.window_reverse(x, 2, 4, 4), (4, 4)),
    "patch_embed": (lambda x: W.patch_embed(x, None, None), (8, 8)),
    "patch_recover": (lambda x: W.patch_recover(x, {}, "rec", 16, 16), (1, 4, 3)),
    "mhsa": (lambda x: A.mhsa(x, {}, "m", 2), (4,)),
    "window_attention_block": (lambda x: A.window_attention_block(x, 2, {}, "b", 2), (4, 4)),
    "global_branch": (lambda x: A.global_branch(x, {}, "glob", 2), (8, 8)),
    "discriminate_local": (lambda x: D.discriminate_local(x, None, np.random.default_rng(0)), (8, 8)),
    "layer_norm": (lambda x: T.layer_norm(x, None, None), ()),
    "add_bias": (lambda x: T.add_bias(x, None), ()),
    "crop": (lambda x: T.crop(x, 0, 0, 1, 1), (4,)),
}


@pytest.mark.parametrize("call, shape", WRONG_RANK.values(), ids=WRONG_RANK.keys())
def test_wrong_rank_is_a_dimension_error_naming_the_shape(call, shape):
    with pytest.raises(DimensionError, match=re.escape(f"got shape {shape}")):
        call(Tensor(np.zeros(shape)))


def _zeros(*shape):
    return Tensor(np.zeros(shape))


_GEN = G.init_weights(G.GeneratorConfig(height=16, width=16), 0).params
_DISC = D.init_discriminator(8, 0)

# Each int, axis or shape argument of a public function: (call taking the value,
# error class, values it must reject).  Every value is True or a non-int or lies
# below the least allowed, and the error must name it.
BAD_ARGUMENTS = {
    "reshape-shape": (lambda v: T.reshape(_zeros(2, 3), v), DimensionError, [True, (2, 3.0), "6", (True, 6)]),
    "permute-axes": (lambda v: T.permute(_zeros(2, 3), v), DimensionError, [True, 0, None, (1, True), (1, -1)]),
    "concat-axis": (lambda v: T.concat([_zeros(2, 3)] * 2, v), DimensionError, [True, 1.0, -3]),
    "crop-top": (lambda v: T.crop(_zeros(1, 4, 4), v, 0, 1, 1), ContractError, [True, 1.0, -1]),
    "crop-left": (lambda v: T.crop(_zeros(1, 4, 4), 0, v, 1, 1), ContractError, [True, "1", -1]),
    "crop-height": (lambda v: T.crop(_zeros(1, 4, 4), 0, 0, v, 1), ContractError, [True, 2.0, -1]),
    "crop-width": (lambda v: T.crop(_zeros(1, 4, 4), 0, 0, 1, v), ContractError, [True, None, -1]),
    "conv2d-stride": (
        lambda v: T.conv2d(_zeros(1, 4, 4), _zeros(1, 1, 3, 3), _zeros(1), stride=v), ContractError, [True, 1.5, -1],
    ),
    "conv2d-pad": (
        lambda v: T.conv2d(_zeros(1, 4, 4), _zeros(1, 1, 3, 3), _zeros(1), pad=v), ContractError, [True, 1.0, -1],
    ),
    "window_partition-s": (lambda v: W.window_partition(_zeros(2, 8, 8), v), PartitionError, [True, 2.0, -2]),
    "window_reverse-s": (lambda v: W.window_reverse(_zeros(4, 4, 2), v, 4, 4), PartitionError, [True, "2", -2]),
    "window_reverse-height": (lambda v: W.window_reverse(_zeros(4, 4, 2), 2, v, 4), ContractError, [True, 4.0, -4]),
    "window_reverse-width": (lambda v: W.window_reverse(_zeros(4, 4, 2), 2, 4, v), ContractError, [True, None, -4]),
    "patch_recover-height": (
        lambda v: W.patch_recover(_zeros(4, 16), _GEN, "global_.recover", v, 16), ContractError, [True, 16.0, -16],
    ),
    "patch_recover-width": (
        lambda v: W.patch_recover(_zeros(4, 16), _GEN, "global_.recover", 16, v), ContractError, [True, "16", -16],
    ),
    "mhsa-heads": (lambda v: A.mhsa(_zeros(3, 16), _GEN, "local.blocks.0.mhsa", v), ConfigError, [True, 2.0, -2]),
    "transformer_block-heads": (
        lambda v: A.transformer_block(_zeros(2, 3, 16), _GEN, "local.blocks.0", v), ConfigError, [True, None, -2],
    ),
    "window_attention_block-s": (
        lambda v: A.window_attention_block(_zeros(16, 8, 8), v, _GEN, "local.blocks.0", 2), PartitionError, [True, 2.0],
    ),
    "window_attention_block-heads": (
        lambda v: A.window_attention_block(_zeros(16, 8, 8), 2, _GEN, "local.blocks.0", v), ConfigError, [True, "2"],
    ),
    "local_branch-heads": (lambda v: A.local_branch(_zeros(3, 8, 8), _GEN, "local", v), ConfigError, [True, -2]),
    "global_branch-heads": (
        lambda v: A.global_branch(_zeros(3, 16, 16), _GEN, "global_", v), ConfigError, [True, None],
    ),
    "GeneratorConfig-height": (lambda v: G.GeneratorConfig(height=v), ConfigError, [True, 64.0, -8]),
    "GeneratorConfig-width": (lambda v: G.GeneratorConfig(width=v), ConfigError, [True, "64", -8]),
    "init_weights-seed": (lambda v: G.init_weights(G.GeneratorConfig(), v), ContractError, [True, 1.5, -1]),
    "init_discriminator-input_size": (lambda v: D.init_discriminator(v, 0), ConfigError, [True, 16.0, 7]),
    "init_discriminator-seed": (lambda v: D.init_discriminator(16, v), ContractError, [True, 1.5, -1]),
    "discriminate_local-n_patches": (
        lambda v: D.discriminate_local(_zeros(3, 8, 8), _DISC, np.random.default_rng(0), v),
        ConfigError,
        [True, 2.0, -1],
    ),
    "luminance_consistency_loss-region-top": (
        lambda v: L.luminance_consistency_loss(_zeros(3, 8, 8), _zeros(3, 8, 8), (v, 0, 2, 2)),
        ContractError,
        [True, None, -1],
    ),
    "luminance_consistency_loss-region-height": (
        lambda v: L.luminance_consistency_loss(_zeros(3, 8, 8), _zeros(3, 8, 8), (0, 0, v, 2)),
        ContractError,
        [True, None, "2"],
    ),
}


@pytest.mark.parametrize(
    "call, error, value",
    [(call, error, v) for call, error, values in BAD_ARGUMENTS.values() for v in values],
    ids=[f"{key}-{v!r}" for key, (_, _, values) in BAD_ARGUMENTS.items() for v in values],
)
def test_bad_argument_is_rejected_naming_the_value(call, error, value):
    with pytest.raises(error, match=re.escape(repr(value))):
        call(value)
