"""Whole-image and random-patch discriminators, and the conv trunk they share.

Both are the trunk (16 -> 32 -> 64 channels, leaky_relu 0.2) and a linear
layer to one logit, in a ``generator.Weights`` for the full image or for the
smaller random patches; ``losses.FeatureExtractor`` is the trunk, frozen.
Outputs are raw logits; loss code applies a numerically stable log-sigmoid.
"""

from __future__ import annotations

import numpy as np

from . import generator as G
from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor

CONV_CHANNELS = (16, 32, 64)


def init_trunk(rng, channels) -> list[tuple[Tensor, Tensor]]:
    """(weight, bias) pairs of 3x3 convs 3 -> channels[0] -> channels[1] -> ..., drawn from rng."""
    return [G._conv(rng, cout, cin, 3) for cin, cout in zip((3, *channels), channels)]


def trunk(x: Tensor, convs, slope: float) -> list[Tensor]:
    """Every layer's output of x through (weight, bias) pairs as 3x3 stride-2
    pad-1 convs, each followed by leaky_relu(slope); each halves a side, rounding up."""
    feats = []
    for w, b in convs:
        x = T.leaky_relu(T.conv2d(x, w, b, stride=2, pad=1), slope)
        feats.append(x)
    return feats


def init_discriminator(input_size: int, seed: int) -> G.Weights:
    """Deterministic fan-in uniform init for a given square input side: the
    trunk's ``convs.{i}.0``/``convs.{i}.1``, then ``linear_w``, ``linear_b``."""
    T._need_int(input_size, 8, "init_discriminator: input_size")  # three stride-2 convs halve 8 to 1
    T._need_int(seed, 0, "init_discriminator: seed")
    rng = np.random.default_rng(seed)
    p = {}
    for i, (w, b) in enumerate(init_trunk(rng, CONV_CHANNELS)):
        p[f"convs.{i}.0"], p[f"convs.{i}.1"] = w, b
    side = -(-input_size // 2 ** len(CONV_CHANNELS))  # ceil: each conv halves a side, rounding up
    feat = CONV_CHANNELS[-1] * side * side
    p["linear_w"], p["linear_b"] = G._uniform(rng, (feat, 1), feat), G._zeros(1)
    return G.Weights((3, input_size, input_size), p)


def discriminate(x: Tensor, w: G.Weights) -> Tensor:
    """Score one [3,S,S] image or patch; returns a scalar logit tensor."""
    G._need_input(x, w, "convs.0.0", "discriminate")
    param = T._params(w.params, "", "discriminate")
    convs = [(param(f"convs.{i}.0"), param(f"convs.{i}.1")) for i in range(len(CONV_CHANNELS))]
    feat = trunk(x, convs, 0.2)[-1]
    flat = T.reshape(feat, (1, feat.size))
    logit = T.add_bias(flat @ param("linear_w"), param("linear_b"))
    return T.reshape(logit, ())


def discriminate_local(x: Tensor, w: G.Weights, rng, n_patches: int = 4) -> list[tuple[Tensor, Tensor]]:
    """Score n_patches random crops of x; returns [(patch, logit)] pairs.

    Each crop's top, then left offset is drawn uniformly from rng, so a
    seeded generator reproduces them; gradients flow through the crops into x.
    Every argument is checked before the first draw, so a rejected call leaves
    rng as it was.
    """
    T._need_type(x, Tensor, "discriminate_local: x")
    T._need_rank(x, "[C,H,W]", "discriminate_local")
    G._need_weights(w, "convs.0.0", "discriminate_local")
    _, H, Wd = x.shape
    patch = w.input_shape[-1]
    if patch > H or patch > Wd:
        raise DimensionError(f"patch side {patch} exceeds image {H}x{Wd}")
    T._need_int(n_patches, 1, "discriminate_local: n_patches")
    T._need_type(rng, np.random.Generator, "discriminate_local: rng")
    out = []
    for _ in range(n_patches):
        top, left = int(rng.integers(0, H - patch + 1)), int(rng.integers(0, Wd - patch + 1))
        p = T.crop(x, top, left, patch, patch)
        out.append((p, discriminate(p, w)))
    return out
