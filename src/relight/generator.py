"""The complete enhancement network: both branches, fusion, reconstruction.

The forward pass stacks the local multi-scale window features with the
recovered global features along channels, fuses them with two 3x3 convs
(leaky_relu 0.2), projects to RGB with a 1x1 conv and applies a sigmoid,
so outputs always lie strictly inside (0,1).

The channel widths and head counts are constants of the network, sized so
CPU runs stay fast while all three window scales remain meaningful; they
are not the paper's values.  Only the training resolution is configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import attention as A
from . import tensor as T
from . import windows as W
from .errors import ConfigError, ContractError
from .tensor import Tensor


@dataclass(frozen=True)
class GeneratorConfig:
    height: int = 64
    width: int = 64

    # Constants of the network, not fields: they cannot be set.
    local_dim = 16
    global_embed_dim = 16
    global_out_dim = 16
    local_heads = 2
    global_heads = 4
    fusion_channels = 32

    def __post_init__(self):
        for name in ("height", "width"):
            v = getattr(self, name)
            if not T._is_int(v, 1):
                raise ConfigError(f"train {name} must be a positive int, got {v!r}")
        # 8 is both the patch side and the largest window.
        if self.height % 8 or self.width % 8:
            raise ConfigError(f"train resolution {self.height}x{self.width} must be divisible by 8")


@dataclass
class GeneratorWeights:
    """A config and its parameters, keyed by dotted name (``local.embed_w``,
    ``global_.blocks.1.mhsa.w_o``, ``fuse1_w``, ...) in initialisation order."""

    cfg: GeneratorConfig
    params: dict[str, Tensor]


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _conv(p, rng, w_name, b_name, cout, cin, k):
    p[w_name] = _uniform(rng, (cout, cin, k, k), cin * k * k)
    p[b_name] = _zeros(cout)


def _block(p, rng, prefix, d):
    p[f"{prefix}.norm1_g"] = Tensor(np.ones(d), requires_grad=True)
    p[f"{prefix}.norm1_b"] = _zeros(d)
    for name in ("w_q", "w_k", "w_v", "w_o"):
        p[f"{prefix}.mhsa.{name}"] = _uniform(rng, (d, d), d)
    p[f"{prefix}.norm2_g"] = Tensor(np.ones(d), requires_grad=True)
    p[f"{prefix}.norm2_b"] = _zeros(d)
    p[f"{prefix}.mlp_w1"] = _uniform(rng, (d, 4 * d), d)
    p[f"{prefix}.mlp_b1"] = _zeros(4 * d)
    p[f"{prefix}.mlp_w2"] = _uniform(rng, (4 * d, d), 4 * d)
    p[f"{prefix}.mlp_b2"] = _zeros(d)


def init_weights(cfg: GeneratorConfig, seed: int) -> GeneratorWeights:
    """Deterministic weight construction: scaled-uniform (fan-in) linears and
    convs, zero biases, small-normal (sigma 0.02) positional encoding."""
    T._need_int(seed, 0, "init_weights: seed")
    rng = np.random.default_rng(seed)
    p: dict[str, Tensor] = {}

    _conv(p, rng, "local.embed_w", "local.embed_b", cfg.local_dim, 3, 1)
    for i in range(len(A.LOCAL_WINDOW_SIZES)):
        _block(p, rng, f"local.blocks.{i}", cfg.local_dim)

    d, c = cfg.global_embed_dim, cfg.global_out_dim
    for i, cin in enumerate((d, c, c)):
        _conv(p, rng, f"global_.recover.convs.{i}.0", f"global_.recover.convs.{i}.1", c, cin, 3)
    _conv(p, rng, "global_.patch_w", "global_.patch_b", d, 3, W.PATCH)
    tokens = (cfg.height // W.PATCH) * (cfg.width // W.PATCH)
    p["global_.pos"] = Tensor(rng.normal(0.0, 0.02, size=(tokens, d)), requires_grad=True)
    for i in range(2):
        _block(p, rng, f"global_.blocks.{i}", d)

    fc = cfg.fusion_channels
    _conv(p, rng, "fuse1_w", "fuse1_b", fc, cfg.local_dim + c, 3)
    _conv(p, rng, "fuse2_w", "fuse2_b", fc, fc, 3)
    _conv(p, rng, "out_w", "out_b", 3, fc, 1)
    return GeneratorWeights(cfg, p)


def forward(x: Tensor, w: GeneratorWeights) -> Tensor:
    """Enhance a [3,H,W] image in [0,1]; output has the same shape, values in (0,1)."""
    cfg = w.cfg
    if x.shape != (3, cfg.height, cfg.width):
        raise ConfigError(f"input shape {x.shape} does not match configured resolution (3, {cfg.height}, {cfg.width})")
    if not np.isfinite(x.data).all():
        raise ContractError("generator input contains non-finite values")

    p = w.params
    local = A.local_branch(x, p, "local", cfg.local_heads)
    feat = T.concat([local, A.global_branch(x, p, "global_", cfg.global_heads)], axis=0)

    feat = T.leaky_relu(T.conv2d(feat, p["fuse1_w"], p["fuse1_b"], pad=1), 0.2)
    feat = T.leaky_relu(T.conv2d(feat, p["fuse2_w"], p["fuse2_b"], pad=1), 0.2)
    return T.sigmoid(T.conv2d(feat, p["out_w"], p["out_b"]))


def named_parameters(w) -> Iterable[tuple[str, Tensor]]:
    """(dotted_name, tensor) pairs of generator or discriminator weights."""
    return w.params.items()


def parameters(w) -> dict[str, Tensor]:
    """Named trainable parameters of generator or discriminator weights."""
    return dict(w.params)
