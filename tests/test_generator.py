import dataclasses
import tracemalloc

import numpy as np
import pytest

from finite_diff import STEP, finite_diff, tape_gradients
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


def test_a_taped_forward_holds_at_most_36_mib():
    # What one taped 64x64 forward leaves on the heap is what its tape's records keep for the backward,
    # and the output: 34.3 MiB with gelu's records keeping its derivative, 40.4 MiB when they kept its
    # input and 1 + exp(-2u).
    w = G.init_weights(G.GeneratorConfig(), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(size=(3, 64, 64)))
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = G.forward(x, w)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad and held <= 36 * 2**20


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
    """The local features and the recovered global features, stacked as forward's head reads them, each
    composed on the whole map."""
    p, cfg, n = w.params, G.GeneratorConfig, x.shape[1]
    local = A.local_branch(x, p, "local", cfg.local_heads, 0, n)
    grid = A.global_branch(x, p, "global_", cfg.global_heads)
    return T.concat([local, W.patch_recover(grid, p, "global_.recover", 0, n)])


def recovery_preactivations(x, w):
    """The three recovery convs' outputs before their leaky_relus, composed by hand on the whole map."""
    p, pre = w.params, []
    t = A.global_branch(x, p, "global_", G.GeneratorConfig.global_heads)
    for i in range(W.RECOVER_STAGES):
        conv = p[f"global_.recover.convs.{i}.0"], p[f"global_.recover.convs.{i}.1"]
        pre.append(T.conv2d(T.upsample_nearest(t), *conv, pad=1))
        t = T.leaky_relu(pre[-1], 0.2)
    return pre


def head_preactivations(feat, w):
    """The two 3x3 fusion convs' outputs before their leaky_relus, composed by hand on the whole map."""
    p = w.params
    pre1 = T.conv2d(feat, p["fuse1_w"], p["fuse1_b"], pad=1)
    return pre1, T.conv2d(T.leaky_relu(pre1, 0.2), p["fuse2_w"], p["fuse2_b"], pad=1)


def preactivations(x, w):
    """Every pre-activation of the forward with a kink after it: the recovery convs' and the head's."""
    return recovery_preactivations(x, w) + list(head_preactivations(branch_features(x, w), w))


def kink_screen(preactivations):
    """A test off_the_kinks(t, i): whether moving flat entry i of t by STEP either way flips the sign
    of none of ``preactivations()`` from their signs now, so a central difference there stays on one
    side of every leaky_relu kink.  t is as before on return."""
    signs = [np.sign(pre.data) for pre in preactivations()]

    def off_the_kinks(t, i) -> bool:
        value = t.data.flat[i]
        try:
            for moved in (value + STEP, value - STEP):
                t.data.flat[i] = moved
                if not all(np.array_equal(np.sign(pre.data), s) for pre, s in zip(preactivations(), signs)):
                    return False
            return True
        finally:
            t.data.flat[i] = value

    return off_the_kinks


# The least |gradient| of a pixel probe.  Here a central difference of the projected output is off by up
# to about 1e-9 (the rounding of the ~3e4 outputs a pixel reaches through the global branch, divided by
# 2 * STEP), at most 1e-7 of a gradient of 1e-2 and well inside the 1e-6 bound.  A probe of -3.85e-4
# sat at the bound, and a one-ulp change to an op moved it across.
GRADIENT_FLOOR = 1e-2


class TestHeadStrips:
    def test_strips_equal_the_whole_map_head(self, monkeypatch):
        w = G.init_weights(WIDE, seed=12)
        x = Tensor(np.random.default_rng(12).uniform(size=(3, 40, 256)))
        seen = spy_strips(monkeypatch, pipeline=True)
        out = G.forward(x, w)
        assert seen == [[8] * 5]  # one pipeline of five strips of 8 rows
        _, pre2 = head_preactivations(branch_features(x, w), w)
        whole = T.sigmoid(T.conv2d(T.leaky_relu(pre2, 0.2), w.params["out_w"], w.params["out_b"]))
        # The recovery and head GEMMs of a strip are shorter than the whole map's and may round
        # differently, by one ulp of an output in [0.5, 1) at most.
        assert np.max(np.abs(out.data - whole.data)) <= 1.2e-16

    def test_gradient_across_a_head_strip_edge(self, monkeypatch):
        w = G.init_weights(WIDE, seed=13)
        x = Tensor(np.random.default_rng(13).uniform(0.2, 0.8, size=(3, 40, 256)))
        seen = spy_strips(monkeypatch, pipeline=True)
        G.forward(x, w)
        assert seen == [[8] * 5]
        fuse1_w, probe = w.params["fuse1_w"], 9
        # Keep the weight probe off the head's kinks (entries 0-5 and 8 each flip one here).
        feat = branch_features(x, w)
        assert kink_screen(lambda: head_preactivations(feat, w))(fuse1_w, probe)
        # On each side of the strip edges at rows 8, 16, 24 and 32, inside the context rows and beyond
        # them: the first pixel of a seeded order of the row's channels and columns that is off every
        # kink and whose gradient clears the floor.
        (gradient,), _ = tape_gradients(lambda: G.forward(x, w), [x])
        rng = np.random.default_rng(13)
        off_the_kinks, pixels = kink_screen(lambda: preactivations(x, w)), []
        for row in [edge + side for edge in (8, 16, 24, 32) for side in (-3, -1, 0, 2)]:
            for c, col in (divmod(int(k), 256) for k in rng.permutation(3 * 256)):
                i = int(np.ravel_multi_index((c, row, col), x.shape))
                if abs(gradient.flat[i]) >= GRADIENT_FLOOR and off_the_kinks(x, i):
                    pixels.append(i)
                    break
        assert len(pixels) == 16
        entries = [(0, i) for i in pixels] + [(1, probe)]
        assert finite_diff(lambda: G.forward(x, w), [x, fuse1_w], entries) < 1e-6

    def test_the_head_reads_two_context_rows_and_its_sigmoid_none(self, monkeypatch):
        # ... no head or recovery conv computes a row that is cropped off afterwards, and no row is recovered twice
        w = G.init_weights(WIDE, seed=15)
        p = w.params
        names = {"fuse1_w", "fuse2_w", "out_w"} | {f"global_.recover.convs.{i}.0" for i in range(W.RECOVER_STAGES)}
        name_of = {id(p[name]): name for name in names}
        outputs, cropped, squashed, conv2d, crop, sigmoid = [], [], [], T.conv2d, T.crop, T.sigmoid

        def spy_conv2d(t, k, *args, **kwargs):
            out = conv2d(t, k, *args, **kwargs)
            if id(k) in name_of:
                outputs.append((name_of[id(k)], t.shape[1], out))  # out is kept alive, so its id stays its own
            return out

        monkeypatch.setattr(T, "conv2d", spy_conv2d)
        monkeypatch.setattr(T, "crop", lambda t, *rect: cropped.append(t) or crop(t, *rect))  # kept alive too
        monkeypatch.setattr(T, "sigmoid", lambda t: squashed.append(t.shape[1]) or sigmoid(t))
        G.forward(Tensor(np.random.default_rng(15).uniform(size=(3, 40, 256))), w)

        def heights(name, read=False):
            return sorted(rows_in if read else out.shape[1] for conv, rows_in, out in outputs if conv == name)

        # five strips of 8 rows: the last recovery conv computes exactly each strip's rows, and fuse1
        # reads up to 2 context rows on either side from the neighbouring strips and computes one past
        # each cut, fuse2, out and the sigmoid none
        assert heights("global_.recover.convs.2.0") == [8] * 5
        assert heights("fuse1_w", read=True) == [10, 10, 12, 12, 12]
        assert heights("fuse1_w") == [9, 9, 10, 10, 10]
        assert heights("fuse2_w") == heights("out_w") == squashed == [8] * 5
        assert len(outputs) == 5 * len(names) and not {id(out) for *_, out in outputs} & {id(t) for t in cropped}

    def test_gradient_across_head_strip_edges_reaches_the_recovery_weights(self, monkeypatch):
        w = G.init_weights(WIDE, seed=16)
        x = Tensor(np.random.default_rng(16).uniform(0.2, 0.8, size=(3, 40, 256)))
        seen = spy_strips(monkeypatch, pipeline=True)
        G.forward(x, w)
        assert seen == [[8] * 5]
        first, last = w.params["global_.recover.convs.0.0"], w.params["global_.recover.convs.2.0"]
        wrt = [x, first, last]
        # pixels on both sides of the strip edges at rows 8, 16, 24 and 32, which is also a patch edge
        pixels = [(0, 7, 40), (1, 8, 41), (2, 15, 130), (0, 16, 131), (1, 23, 250), (2, 24, 251)]
        pixels += [(0, 31, 0), (1, 32, 1)]
        entries = [(0, int(np.ravel_multi_index(at, x.shape))) for at in pixels]
        entries += [(1, 0), (1, first.size - 1), (2, 3), (2, last.size - 1)]
        # Keep every probe off the kinks of the three recovery convs and the head's two 3x3 convs.
        off_the_kinks = kink_screen(lambda: preactivations(x, w))
        assert all(off_the_kinks(wrt[k], i) for k, i in entries)
        assert finite_diff(lambda: G.forward(x, w), wrt, entries) < 1e-6

    def test_a_multi_strip_forward_never_holds_one_local_map(self):
        # A 512x512 forward cuts its image map into 64 strips of 8 rows. It makes no full-size local map,
        # recovered global map or concat of the two: at its peak it holds the strips in flight and its
        # output (12 MiB while the output strips are joined), 28.4 MiB in all, less than the one local
        # map (32 MiB) the forward used to join and keep through the whole head (64.7 MiB then).
        cfg = G.GeneratorConfig(height=512, width=512)
        w = G.init_weights(cfg, seed=14)
        x = Tensor(np.random.default_rng(14).uniform(size=(3, 512, 512)))
        tracemalloc.start()
        try:
            G.forward(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.local_dim * 512 * 512 * 8
