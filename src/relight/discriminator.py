"""Whole-image and random-patch discriminators for adversarial training.

Both share the same architecture — three stride-2 3x3 convolutions
(channels 16 -> 32 -> 64, leaky_relu 0.2) followed by a linear layer to a
single logit — instantiated separately for the full image and for the
smaller random patches.  Outputs are raw logits; loss code applies a
numerically stable log-sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

CONV_CHANNELS = (16, 32, 64)


@dataclass
class DiscriminatorWeights:
    """The square input side the stack was built for and its parameters:
    ``convs.{i}.0``/``convs.{i}.1`` (3x3, stride 2, pad 1), ``linear_w``, ``linear_b``."""

    input_size: int
    params: dict[str, Tensor]


def _spatial_after_convs(size: int) -> int:
    for _ in CONV_CHANNELS:
        size = (size + 2 - 3) // 2 + 1  # 3x3, stride 2, pad 1
    return size


def init_discriminator(input_size: int, seed: int) -> DiscriminatorWeights:
    """Deterministic fan-in uniform init for a given square input side."""
    if not T._is_int(input_size, 8):
        raise ConfigError(f"discriminator input side must be an int >= 8 for three stride-2 convs, got {input_size!r}")
    T._need_int(seed, 0, "init_discriminator: seed")
    rng = np.random.default_rng(seed)
    p = {}
    cin = 3
    for i, cout in enumerate(CONV_CHANNELS):
        bound = 1.0 / np.sqrt(9 * cin)
        p[f"convs.{i}.0"] = Tensor(rng.uniform(-bound, bound, size=(cout, cin, 3, 3)), requires_grad=True)
        p[f"convs.{i}.1"] = Tensor(np.zeros(cout), requires_grad=True)
        cin = cout
    side = _spatial_after_convs(input_size)
    feat = CONV_CHANNELS[-1] * side * side
    bound = 1.0 / np.sqrt(feat)
    p["linear_w"] = Tensor(rng.uniform(-bound, bound, size=(feat, 1)), requires_grad=True)
    p["linear_b"] = Tensor(np.zeros(1), requires_grad=True)
    return DiscriminatorWeights(input_size, p)


def discriminate(x: Tensor, w: DiscriminatorWeights) -> Tensor:
    """Score one [3,S,S] image or patch; returns a scalar logit tensor."""
    if x.shape != (3, w.input_size, w.input_size):
        raise ConfigError(f"discriminator built for 3x{w.input_size}x{w.input_size}, got {x.shape}")
    p = w.params
    feat = x
    for i in range(len(CONV_CHANNELS)):
        feat = T.leaky_relu(T.conv2d(feat, p[f"convs.{i}.0"], p[f"convs.{i}.1"], stride=2, pad=1), 0.2)
    flat = T.reshape(feat, (1, feat.size))
    logit = T.add_bias(flat @ p["linear_w"], p["linear_b"])
    return T.reshape(logit, ())


def discriminate_local(
    x: Tensor, w: DiscriminatorWeights, rng, n_patches: int = 4
) -> list[tuple[Tensor, Tensor]]:
    """Score n_patches random crops of x; returns [(patch, logit)] pairs.

    Each crop's top, then left offset is drawn uniformly from rng, so a
    seeded generator reproduces them; gradients flow through the crops into x.
    """
    T._need_rank(x, "[C,H,W]", "discriminate_local")
    _, H, Wd = x.shape
    patch = w.input_size
    if patch > H or patch > Wd:
        raise ConfigError(f"patch side {patch} exceeds image {H}x{Wd}")
    if not T._is_int(n_patches, 1):
        raise ConfigError(f"n_patches must be an int >= 1, got {n_patches!r}")
    out = []
    for _ in range(n_patches):
        top, left = int(rng.integers(0, H - patch + 1)), int(rng.integers(0, Wd - patch + 1))
        p = T.crop(x, top, left, patch, patch)
        out.append((p, discriminate(p, w)))
    return out
