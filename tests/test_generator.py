import dataclasses
import tracemalloc

import numpy as np
import pytest

from finite_diff import STEP, finite_diff
from relight import attention as A
from relight import generator as G
from relight import tensor as T
from relight import windows as W
from relight.tensor import Tape, Tensor
from test_attention import spy_strips
from test_contracts import reject

SMALL = G.GeneratorConfig(height=16, width=16)
WIDE = G.GeneratorConfig(height=40, width=256)  # fusion head strips of 8 rows each


def test_forward_shape_and_range():
    w = G.init_weights(G.GeneratorConfig(), seed=0)
    rng = np.random.default_rng(0)
    out = G.forward(Tensor(rng.uniform(size=(3, 64, 64))), w)
    assert out.shape == (3, 64, 64)
    assert (out.data > 0.0).all() and (out.data < 1.0).all()


def test_forward_is_pure():
    w = G.init_weights(SMALL, seed=1)
    x = Tensor(np.random.default_rng(1).uniform(size=(3, 16, 16)))
    a = G.forward(x, w).data
    b = G.forward(x, w).data
    assert np.array_equal(a, b)


def test_backward_smoke_all_grads_finite():
    w = G.init_weights(SMALL, seed=2)
    x = Tensor(np.random.default_rng(2).uniform(size=(3, 16, 16)))
    params = G.parameters(w)
    with Tape() as tape:
        tape.backward(T.mean(G.forward(x, w)))
    for name, p in params.items():
        assert p.grad is not None, f"no grad for {name}"
        assert np.isfinite(p.grad).all(), f"non-finite grad for {name}"
        assert p.grad.shape == p.shape


class TestInitWeights:
    def test_same_seed_identical(self):
        w1, w2 = G.init_weights(SMALL, seed=7), G.init_weights(SMALL, seed=7)
        p1, p2 = G.parameters(w1), G.parameters(w2)
        assert p1.keys() == p2.keys()
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_different_seeds_differ(self):
        w1, w2 = G.init_weights(SMALL, seed=7), G.init_weights(SMALL, seed=8)
        assert not np.array_equal(w1.params["fuse1_w"].data, w2.params["fuse1_w"].data)

    def test_no_saturation_at_init(self):
        w = G.init_weights(G.GeneratorConfig(), seed=9)
        out = G.forward(Tensor(np.full((3, 64, 64), 0.5)), w)
        assert (out.data > 0.05).all() and (out.data < 0.95).all()

    @pytest.mark.parametrize("size", [0, -8, 64.0])
    def test_bad_resolution_rejected(self, size):
        for key in ("GeneratorConfig-both", "GeneratorConfig-height", "GeneratorConfig-width"):
            reject(key, size)

    def test_only_the_resolution_is_configurable(self):
        assert [f.name for f in dataclasses.fields(G.GeneratorConfig)] == ["height", "width"]
        with pytest.raises(TypeError):
            G.GeneratorConfig(local_dim=8)


def test_gradient_check_random_parameter_subset():
    w = G.init_weights(G.GeneratorConfig(height=32, width=32), seed=10)
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(0.2, 0.8, size=(3, 32, 32)))
    params = list(G.parameters(w).values())
    entries = []
    for _ in range(10):
        k = int(rng.integers(len(params)))
        entries.append((k, int(rng.integers(params[k].size))))
    assert finite_diff(lambda: G.forward(x, w), params, entries) < 1e-3


def test_named_parameters_deterministic_order():
    w = G.init_weights(SMALL, seed=11)
    names1 = [n for n, _ in G.named_parameters(w)]
    names2 = [n for n, _ in G.named_parameters(w)]
    assert names1 == names2
    assert len(names1) == len(set(names1))
    assert any("local.blocks.0.mhsa.w_q" == n for n in names1)


def branch_features(x, w):
    """The concatenated local and global features that forward's fusion head reads."""
    p, cfg = w.params, G.GeneratorConfig
    local = A.local_branch(x, p, "local", cfg.local_heads)
    return T.concat([local, W.patch_recover(A.global_branch(x, p, "global_", cfg.global_heads), p, "global_.recover")])


def head_preactivations(feat, w):
    """The two 3x3 fusion convs' outputs before their leaky_relus, composed by hand on the whole map."""
    p = w.params
    pre1 = T.conv2d(feat, p["fuse1_w"], p["fuse1_b"], pad=1)
    return pre1, T.conv2d(T.leaky_relu(pre1, 0.2), p["fuse2_w"], p["fuse2_b"], pad=1)


class TestHeadStrips:
    def test_strips_equal_the_whole_map_head(self, monkeypatch):
        w = G.init_weights(WIDE, seed=12)
        x = Tensor(np.random.default_rng(12).uniform(size=(3, 40, 256)))
        seen = spy_strips(monkeypatch)
        out = G.forward(x, w)
        assert seen[-1] == [8] * 5  # the head is the last cut: five strips of 8 rows
        _, pre2 = head_preactivations(branch_features(x, w), w)
        whole = T.sigmoid(T.conv2d(T.leaky_relu(pre2, 0.2), w.params["out_w"], w.params["out_b"]))
        assert np.max(np.abs(out.data - whole.data)) <= 1e-12

    def test_gradient_across_a_head_strip_edge(self, monkeypatch):
        w = G.init_weights(WIDE, seed=13)
        x = Tensor(np.random.default_rng(13).uniform(0.2, 0.8, size=(3, 40, 256)))
        seen = spy_strips(monkeypatch)
        G.forward(x, w)
        assert seen[-1] == [8] * 5
        fuse1_w, probe = w.params["fuse1_w"], 9
        # Keep the weight probe off the head's kinks: moving it by STEP either way flips the sign
        # of no pre-activation of the two 3x3 convs (entries 0-5 and 8 each flip one here).
        feat = branch_features(x, w)
        signs = [np.sign(pre.data) for pre in head_preactivations(feat, w)]
        value = fuse1_w.data.flat[probe]
        for moved in (value + STEP, value - STEP):
            fuse1_w.data.flat[probe] = moved
            assert all(np.array_equal(np.sign(pre.data), s) for pre, s in zip(head_preactivations(feat, w), signs))
        fuse1_w.data.flat[probe] = value
        # pixels on both sides of the strip edges at rows 8, 16, 24 and 32, inside and beyond the context rows
        pixels = [(1, 5, 7), (2, 8, 30), (0, 13, 3), (1, 15, 100), (2, 16, 255), (0, 18, 0), (1, 23, 9)]
        pixels += [(2, 24, 77), (1, 31, 64), (2, 32, 128), (0, 34, 200)]
        entries = [(0, int(np.ravel_multi_index(at, x.shape))) for at in pixels] + [(1, probe)]
        assert finite_diff(lambda: G.forward(x, w), [x, fuse1_w], entries) < 1e-6

    def test_the_head_reads_two_context_rows_and_its_sigmoid_none(self, monkeypatch):
        w = G.init_weights(WIDE, seed=15)
        fuse1_w, read, squashed, conv2d, sigmoid = w.params["fuse1_w"], [], [], T.conv2d, T.sigmoid

        def spy_conv2d(t, k, *args, **kwargs):
            if k is fuse1_w:
                read.append(t.shape[1])
            return conv2d(t, k, *args, **kwargs)

        monkeypatch.setattr(T, "conv2d", spy_conv2d)
        monkeypatch.setattr(T, "sigmoid", lambda t: squashed.append(t.shape[1]) or sigmoid(t))
        G.forward(Tensor(np.full((3, 40, 256), 0.5)), w)
        # five strips of 8 rows: fuse1 reads up to 2 context rows on either side, the sigmoid none
        assert sorted(read) == [10, 10, 12, 12, 12] and squashed == [8] * 5

    def test_head_holds_less_than_a_whole_map_head(self, monkeypatch):
        # Once the global grid is recovered, the head is all that runs. A whole-map head holds its
        # zero-padded input and its output next to the 32-channel feature map: 2.6 maps at
        # 64x256. On strips it holds the map and one strip's temporaries.
        cfg = G.GeneratorConfig(height=64, width=256)
        w = G.init_weights(cfg, seed=14)
        x = Tensor(np.random.default_rng(14).uniform(size=(3, 64, 256)))
        patch_recover, entry = W.patch_recover, []

        def then_reset_the_peak(*args):
            out = patch_recover(*args)
            tracemalloc.reset_peak()
            entry.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(W, "patch_recover", then_reset_the_peak)
        tracemalloc.start()
        try:
            G.forward(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        feature_map = (cfg.local_dim + cfg.global_out_dim) * 64 * 256 * 8
        assert peak - entry[0] < 2 * feature_map
