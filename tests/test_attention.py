import tracemalloc

import numpy as np
import pytest

from finite_diff import finite_diff
from relight import attention as A
from relight import tensor as T
from relight import windows as W
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


def untiled_mhsa(z, w, heads):
    """mhsa composed by hand with every score at once, with no query tiles."""
    *lead, L, d = z.shape
    B, hd = int(np.prod(lead)), d // heads
    flat = T.reshape(z, (B * L, d))

    def project(name, axes):
        return T.permute(T.reshape(flat @ w[f"m.{name}"], (B, L, heads, hd)), axes)

    q = T.scale(project("w_q", (0, 2, 1, 3)), 1.0 / np.sqrt(hd))
    ctx = T.softmax(q @ project("w_k", (0, 2, 3, 1))) @ project("w_v", (0, 2, 1, 3))
    return T.reshape(T.reshape(T.permute(ctx, (0, 2, 1, 3)), (B * L, d)) @ w["m.w_o"], z.shape)


def spy_strips(monkeypatch, pipeline: bool = False) -> list[list[int]]:
    """Patch ``A._by_strips`` to log each call, in the order the calls start, as its strips' heights
    down the map (sorted by first row when it returns, whichever thread ran a strip first).  With
    ``pipeline``, only the two-stage calls, each by its first stage."""
    calls, by_strips = [], A._by_strips

    def spy(n, fn, rows, *second_stage):
        if pipeline and not second_stage:
            return by_strips(n, fn, rows)
        seen, ranges = [], []
        calls.append(seen)

        def logged(lo, hi):
            ranges.append((lo, hi))
            return fn(lo, hi)

        out = by_strips(n, logged, rows, *second_stage)
        seen.extend(hi - lo for lo, hi in sorted(ranges))
        return out

    monkeypatch.setattr(A, "_by_strips", spy)
    return calls


class TestMhsaQueryTiles:
    # (windows, tokens, dim) at 2 heads: 16 x 128 tokens cut into four 32-row strips,
    # 8 x 144 into four and a shorter 16, and the global branch's 256 tokens at 128² into eight.
    @pytest.mark.parametrize(
        "shape, rows", [((16, 128, 8), [32] * 4), ((8, 144, 8), [32] * 4 + [16]), ((1, 256, 8), [32] * 8)]
    )
    def test_tiles_equal_the_untiled_chain(self, monkeypatch, shape, rows):
        rng = np.random.default_rng(30)
        w = make_mhsa(rng, 8)
        z = Tensor(rng.normal(size=shape))
        seen = spy_strips(monkeypatch)
        out = A.mhsa(z, w, "m", 2)
        assert seen == [rows]
        assert np.max(np.abs(out.data - untiled_mhsa(z, w, 2).data)) <= 1e-15

    def test_one_tile_records_the_untiled_ops(self, monkeypatch):
        # WORKERS strips' worth of queries runs whole; one band more is cut.
        rng = np.random.default_rng(31)
        w = make_mhsa(rng, 8)
        L = A.WORKERS * A.STRIP_ROWS
        z = Tensor(rng.normal(size=(4, L, 8)), requires_grad=True)
        seen = spy_strips(monkeypatch)
        A.mhsa(Tensor(rng.normal(size=(4, L + 8, 8))), w, "m", 2)
        assert seen == [[A.STRIP_ROWS] * A.WORKERS + [8]]
        seen.clear()
        with T.Tape() as tape:
            out = A.mhsa(z, w, "m", 2)
        assert seen == [[L]]
        with T.Tape() as untiled:
            expected = untiled_mhsa(z, w, 2)
        assert len(tape) == len(untiled)
        assert np.array_equal(out.data, expected.data)

    def test_gradient_across_a_tile_edge(self, monkeypatch):
        rng = np.random.default_rng(32)
        w = make_mhsa(rng, 8)
        z = Tensor(rng.normal(size=(16, 128, 8)))
        seen = spy_strips(monkeypatch)
        A.mhsa(z, w, "m", 2)
        assert seen == [[32, 32, 32, 32]]
        wrt = [z] + [w[f"m.{name}"] for name in ("w_q", "w_k", "w_v", "w_o")]
        # query rows on both sides of the tile edges at rows 32, 64 and 96, in two windows
        tokens = [(0, 0, 0), (0, 31, 3), (0, 32, 5), (0, 63, 4), (0, 64, 7), (15, 62, 1), (15, 66, 2), (15, 95, 0)]
        tokens += [(15, 96, 6), (15, 127, 6)]
        entries = [(0, int(np.ravel_multi_index(at, z.shape))) for at in tokens]
        entries += [(k, 9) for k in range(1, len(wrt))]
        assert finite_diff(lambda: A.mhsa(z, w, "m", 2), wrt, entries) < 1e-6

    def test_peak_memory_stays_below_one_score_array(self):
        # Untiled, 1024 tokens at 4 heads hold a (4, 1024, 1024) float64 score array
        # (32 MiB) and as much again in probabilities.
        rng = np.random.default_rng(33)
        w = make_mhsa(rng, 16)
        z = Tensor(rng.normal(size=(1024, 16)))
        tracemalloc.start()
        try:
            A.mhsa(z, w, "m", 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024 * 8


def hand_block(z, p, prefix, heads):
    """transformer_block composed by hand, with every op of its MLP half recorded and no recompute."""

    def param(name):
        return p[f"{prefix}.{name}"]

    z = T.add(z, A.mhsa(T.layer_norm(z, param("norm1_g"), param("norm1_b")), p, f"{prefix}.mhsa", heads))
    lead, d = z.shape[:-1], z.shape[-1]
    flat = T.reshape(T.layer_norm(z, param("norm2_g"), param("norm2_b")), (-1, d))
    hidden = T.gelu(T.add_bias(flat @ param("mlp_w1"), param("mlp_b1")))
    return T.add(z, T.reshape(T.add_bias(hidden @ param("mlp_w2"), param("mlp_b2")), lead + (d,)))


class TestTransformerBlock:
    # 8 windows of 16 tokens, as a local block sees them, and a 64-token grid, as the global branch's at 64x64.
    @pytest.mark.parametrize("shape, heads", [((8, 16, 16), 2), ((64, 16), 4)], ids=["windows", "tokens"])
    def test_the_recomputed_mlp_half_equals_the_recorded_one_bitwise(self, shape, heads):
        rng = np.random.default_rng(40)
        p = {name: Tensor(rng.normal(size=t.shape), requires_grad=True) for name, t in make_block(rng, 16).items()}
        z = Tensor(rng.normal(size=shape), requires_grad=True)
        c = Tensor(rng.normal(size=shape))
        runs = []
        for block in (A.transformer_block, hand_block):
            T.zero_grad([z, *p.values()])
            with T.Tape() as tape:
                out = block(z, p, "b", heads)
                loss = T.tsum(T.mul(out, c))
            tape.backward(loss)
            runs.append((out.data, {"z": z.grad} | {name: t.grad for name, t in p.items()}, len(tape)))
        (out, grads, records), (hand_out, hand_grads, hand_records) = runs
        assert np.array_equal(out, hand_out)
        assert grads.keys() == hand_grads.keys() and all(np.array_equal(grads[k], hand_grads[k]) for k in grads)
        assert records == hand_records - 7  # the MLP half's eight records are one


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
        x = Tensor(rng.uniform(size=(3, 16, 16)))
        assert A.local_branch(x, w, "loc", 2, 0, 16).shape == (8, 16, 16)
        assert A.local_branch(x, w, "loc", 2, 8, 16).shape == (8, 8, 16)

    def test_window_sizes_are_exponential(self):
        assert A.LOCAL_WINDOW_SIZES == (2, 4, 8)
        assert all(s == 2 ** (i + 1) for i, s in enumerate(A.LOCAL_WINDOW_SIZES))

    def test_zeroed_blocks_reduce_to_scaled_embedding(self):
        rng = np.random.default_rng(14)
        w = self._weights(rng, 4, zero_out=True)
        x = Tensor(rng.uniform(size=(3, 8, 8)))
        got = A.local_branch(x, w, "loc", 2, 0, 8)
        embedded = T.conv2d(x, w["loc.embed_w"], w["loc.embed_b"])
        assert np.allclose(got.data, 3.0 * embedded.data, atol=1e-12)

    def test_finite_on_unit_range_input(self):
        rng = np.random.default_rng(15)
        w = self._weights(rng, 8)
        out = A.local_branch(Tensor(rng.uniform(size=(3, 16, 16))), w, "loc", 2, 0, 16)
        assert np.isfinite(out.data).all()

    def _whole_map(self, x, w):
        """The branch composed by hand on the whole map, with no rows cut."""
        feat = T.conv2d(x, w["loc.embed_w"], w["loc.embed_b"])
        acc = None
        for i, s in enumerate(A.LOCAL_WINDOW_SIZES):
            feat = A.window_attention_block(feat, s, w, f"loc.blocks.{i}", 2)
            acc = feat if acc is None else T.add(acc, feat)
        return acc

    def _by_image_strips(self, x, w):
        """The branch on the image strips of x, joined, as the strip rule cuts an image map."""
        rows = A._image_rows(x.shape[2])
        return A._by_strips(x.shape[1], lambda lo, hi: A.local_branch(x, w, "loc", 2, lo, hi), rows)

    def test_strip_rows_tile_the_largest_window(self):
        band = A.LOCAL_WINDOW_SIZES[-1]
        for width in range(8, 1025, 8):
            rows = A._image_rows(width)
            assert rows % band == 0 and rows >= band, width
            assert rows == band or rows * width <= A.STRIP_PIXELS // A.WORKERS, width
        assert [A._image_rows(width) for width in (64, 128, 256, 512, 1024)] == [32, 16, 8, 8, 8]

    # At widths 64, 128 and 256 the strips are 32, 16 and 8 rows: each map cuts
    # into two, four and six full strips and an 8-row remainder.
    @pytest.mark.parametrize(
        "height, width, rows", [(72, 64, [32, 32, 8]), (72, 128, [16] * 4 + [8]), (56, 256, [8] * 7)]
    )
    def test_strips_equal_the_whole_map_bitwise(self, monkeypatch, height, width, rows):
        rng = np.random.default_rng(20)
        w = self._weights(rng, 8)
        x = Tensor(rng.uniform(size=(3, height, width)))
        seen = spy_strips(monkeypatch)
        out = self._by_image_strips(x, w)
        assert seen[0] == rows
        assert np.array_equal(out.data, self._whole_map(x, w).data)

    def test_one_strip_records_the_whole_map_ops(self, monkeypatch):
        # A map of WORKERS strips' rows runs whole; one band more would cut it.
        rng = np.random.default_rng(21)
        w = self._weights(rng, 8)
        rows = A._image_rows(128)
        x = Tensor(rng.uniform(size=(3, A.WORKERS * rows, 128)), requires_grad=True)
        seen = spy_strips(monkeypatch)
        self._by_image_strips(Tensor(rng.uniform(size=(3, A.WORKERS * rows + 8, 128))), w)
        assert seen[0] == [rows] * A.WORKERS + [8]
        seen.clear()
        with T.Tape() as tape:
            out = self._by_image_strips(x, w)
        assert seen[0] == [A.WORKERS * rows]
        with T.Tape() as whole:
            expected = self._whole_map(x, w)
        assert len(tape) == len(whole)
        assert np.array_equal(out.data, expected.data)

    def test_gradient_across_two_strips(self, monkeypatch):
        rng = np.random.default_rng(22)
        w = self._weights(rng, 8)
        x = Tensor(rng.uniform(size=(3, 40, 128)))
        seen = spy_strips(monkeypatch)
        self._by_image_strips(x, w)
        assert seen[0] == [16, 16, 8]
        weights = ["loc.embed_w", "loc.blocks.0.mhsa.w_q", "loc.blocks.1.mlp_w1", "loc.blocks.2.norm1_g"]
        wrt = [x] + [w[name] for name in weights]
        # pixels of every strip, on either side of the edges at rows 16 and 32, in every channel
        pixels = [(0, 0, 0), (1, 15, 5), (2, 16, 127), (0, 17, 64), (1, 31, 3), (2, 32, 100), (0, 39, 50)]
        entries = [(0, int(np.ravel_multi_index(at, x.shape))) for at in pixels]
        entries += [(k, 3) for k in range(1, len(wrt))]
        assert finite_diff(lambda: self._by_image_strips(x, w), wrt, entries) < 1e-6

    def test_peak_memory_stays_below_one_whole_map_score_array(self):
        # At 256 rows the s=8 block of a whole map holds (256/8)*(64/8) windows x 2 heads
        # of 64x64 float64 scores at once: 16 MiB, and as much again in probabilities.
        rng = np.random.default_rng(23)
        w = self._weights(rng, 16)
        x = Tensor(rng.uniform(size=(3, 256, 64)))
        tracemalloc.start()
        try:
            self._by_image_strips(x, w)
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

    def _recovered(self, x, w):
        """The global branch's token grid, recovered to every row of the full-resolution map."""
        return W.patch_recover(A.global_branch(x, w, "glob", 2), w, "glob.recover", 0, x.shape[1])

    def test_shape_contract_through_64_tokens(self):
        rng = np.random.default_rng(16)
        w = self._weights(rng, 64, 48, 16, 5)
        x = Tensor(rng.uniform(size=(3, 64, 48)))
        assert A.global_branch(x, w, "glob", 2).shape == (16, 8, 6)
        assert self._recovered(x, w).shape == (5, 64, 48)

    def test_reads_no_recovery_weights(self):
        rng = np.random.default_rng(20)
        w = self._weights(rng, 16, 16, 8, 4)
        tokens = {k: t for k, t in w.items() if not k.startswith("glob.recover.")}
        x = Tensor(rng.uniform(size=(3, 16, 16)))
        assert np.array_equal(A.global_branch(x, tokens, "glob", 2).data, A.global_branch(x, w, "glob", 2).data)

    def test_global_receptive_field(self):
        # a single-pixel change may reach every output pixel
        rng = np.random.default_rng(17)
        w = self._weights(rng, 16, 16, 8, 4)
        x = rng.uniform(size=(3, 16, 16))
        base = self._recovered(Tensor(x), w).data
        bumped = x.copy()
        bumped[0, 0, 0] += 0.5
        out = self._recovered(Tensor(bumped), w).data
        changed = np.abs(out - base) > 0
        # every 8x8 patch region of the output sees the perturbation
        assert changed.any(axis=0).all()

    def test_gradient_end_to_end(self):
        rng = np.random.default_rng(18)
        w = self._weights(rng, 16, 16, 4, 3)
        x = Tensor(rng.uniform(size=(3, 16, 16)))
        assert finite_diff(lambda: self._recovered(x, w), [x]) < 1e-4

    def test_finite_on_unit_range_input(self):
        rng = np.random.default_rng(19)
        w = self._weights(rng, 16, 16, 8, 4)
        out = self._recovered(Tensor(rng.uniform(size=(3, 16, 16))), w)
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
