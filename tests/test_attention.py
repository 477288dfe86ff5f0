import tracemalloc

import numpy as np
import pytest

from finite_diff import finite_diff
from relight import attention as A
from relight import tensor as T
from relight.tensor import Tensor
from test_contracts import CONTRACTS, case_id, reject


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

    @pytest.mark.parametrize("heads", [0, -2, 2.0, "2", None])
    def test_bad_heads_rejected_naming_the_value(self, heads):
        reject("mhsa-heads", heads)

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

    def _whole_map(self, x, w):
        """The branch composed by hand on the whole map, with no strips."""
        feat = T.conv2d(x, w["loc.embed_w"], w["loc.embed_b"])
        acc = None
        for i, s in enumerate(A.LOCAL_WINDOW_SIZES):
            feat = A.window_attention_block(feat, s, w, f"loc.blocks.{i}", 2)
            acc = feat if acc is None else T.add(acc, feat)
        return acc

    def test_strip_rows_tile_the_largest_window(self):
        assert A.STRIP_ROWS % A.LOCAL_WINDOW_SIZES[-1] == 0

    # 72, 136 and 200 rows cut into one, two and three full strips and an 8-row remainder
    @pytest.mark.parametrize("height, width", [(72, 8), (136, 40), (200, 16)])
    def test_strips_equal_the_whole_map_bitwise(self, height, width):
        rng = np.random.default_rng(20)
        w = self._weights(rng, 8)
        x = Tensor(rng.uniform(size=(3, height, width)))
        assert np.array_equal(A.local_branch(x, w, "loc", 2).data, self._whole_map(x, w).data)

    def test_one_strip_records_the_whole_map_ops(self):
        rng = np.random.default_rng(21)
        w = self._weights(rng, 8)
        x = Tensor(rng.uniform(size=(3, A.STRIP_ROWS, 16)), requires_grad=True)
        with T.Tape() as tape:
            out = A.local_branch(x, w, "loc", 2)
        with T.Tape() as whole:
            expected = self._whole_map(x, w)
        assert len(tape) == len(whole)
        assert np.array_equal(out.data, expected.data)

    def test_gradient_across_two_strips(self):
        rng = np.random.default_rng(22)
        w = self._weights(rng, 8)
        x = Tensor(rng.uniform(size=(3, 72, 8)))
        weights = ["loc.embed_w", "loc.blocks.0.mhsa.w_q", "loc.blocks.1.mlp_w1", "loc.blocks.2.norm1_g"]
        wrt = [x] + [w[name] for name in weights]
        # pixels of both strips, on either side of the edge at row 64, in every channel
        pixels = [(0, 0, 0), (1, 31, 5), (2, 63, 7), (0, 64, 0), (1, 65, 3), (2, 71, 7)]
        entries = [(0, int(np.ravel_multi_index(at, x.shape))) for at in pixels]
        entries += [(k, 3) for k in range(1, len(wrt))]
        assert finite_diff(lambda: A.local_branch(x, w, "loc", 2), wrt, entries) < 1e-6

    def test_peak_memory_stays_below_one_whole_map_score_array(self):
        # At 256 rows the s=8 block of a whole map holds (256/8)*(64/8) windows x 2 heads
        # of 64x64 float64 scores at once: 16 MiB, and as much again in probabilities.
        rng = np.random.default_rng(23)
        w = self._weights(rng, 16)
        x = Tensor(rng.uniform(size=(3, 256, 64)))
        tracemalloc.start()
        try:
            A.local_branch(x, w, "loc", 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 * 64**2 * 8


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


# The runners of the CONTRACTS table: the rank rows by entry point, every other row by case.
RANK_ROWS = [key for key in CONTRACTS if key.endswith("-rank")]
CASES = [(key, value) for key, (*_, values) in CONTRACTS.items() if key not in RANK_ROWS for value in values]


@pytest.mark.parametrize("key", RANK_ROWS, ids=[key.removesuffix("-rank") for key in RANK_ROWS])
def test_wrong_rank_is_a_dimension_error_naming_the_shape(key):
    for shape in CONTRACTS[key][3]:
        reject(key, shape)


@pytest.mark.parametrize("key, value", CASES, ids=[case_id(key, value) for key, value in CASES])
def test_bad_argument_is_rejected_naming_the_value(key, value):
    reject(key, value)
