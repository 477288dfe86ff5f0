"""The complete enhancement network: both branches, fusion, reconstruction.

``forward`` composes four stages: the global branch's tokens, returned as
their [d, H/8, W/8] grid; the local branch's multi-scale window features;
the recovery of the grid to full resolution (``windows.patch_recover``);
and the fusion head.  The head stacks the local features with the recovered
global features along channels, fuses them with two 3x3 convs (leaky_relu
0.2), projects to RGB with a 1x1 conv and applies a sigmoid, so outputs
always lie strictly inside (0,1).

Once the global branch has made its grid, the rest is one two-stage
pipeline on the image strips of ``attention._by_strips``.  Stage one
computes a strip's rows of both full-resolution maps, once each, and stacks
them into the strip's 32-channel map.  Stage two, the head, reads that
strip and two context rows past each cut (one per 3x3 conv) from its
neighbours.  Its 3x3 convs zero-pad rows only at the map's own top and
bottom: at a cut each uses up a context row, so fuse2, the 1x1 conv and the
sigmoid compute exactly the strip's rows, with no crop.  So no full-size
local map, recovered global map or concat is made, and no head strip
recovers its neighbours' rows again; a forward holds the strips in flight
and the output, not a whole map's features.  The local strips equal the whole map's bitwise; the
recovered rows and the head's output equal a whole-map composition's up to
the rounding of shorter GEMMs.

The channel widths and head counts are constants of the network, sized so
CPU runs stay fast while all three window scales remain meaningful; they
are not the paper's values.  Only the training resolution is configured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import attention as A
from . import tensor as T
from . import windows as W
from .errors import ContractError, DimensionError
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
        W._window_grid(self.height, self.width, math.lcm(W.PATCH, *A.LOCAL_WINDOW_SIZES), "GeneratorConfig")


@dataclass
class Weights:
    """The one input shape a network accepts and its parameters, keyed by dotted
    name (``local.embed_w``, ``fuse1_w``, ``convs.0.0``, ...) in initialisation order."""

    input_shape: tuple[int, ...]
    params: dict[str, Tensor]


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _conv(rng, cout, cin, k):
    """A kxk conv's (weight, bias) pair: fan-in uniform weight, zero bias."""
    return _uniform(rng, (cout, cin, k, k), cin * k * k), _zeros(cout)


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


def init_weights(cfg: GeneratorConfig, seed: int) -> Weights:
    """Deterministic weight construction: scaled-uniform (fan-in) linears and
    convs, zero biases, small-normal (sigma 0.02) positional encoding."""
    T._need_type(cfg, GeneratorConfig, "init_weights: cfg")
    T._need_int(seed, 0, "init_weights: seed")
    rng = np.random.default_rng(seed)
    p: dict[str, Tensor] = {}

    p["local.embed_w"], p["local.embed_b"] = _conv(rng, cfg.local_dim, 3, 1)
    for i in range(len(A.LOCAL_WINDOW_SIZES)):
        _block(p, rng, f"local.blocks.{i}", cfg.local_dim)

    d, c = cfg.global_embed_dim, cfg.global_out_dim
    for i in range(W.RECOVER_STAGES):  # the first stage reads the d-dim tokens
        p[f"global_.recover.convs.{i}.0"], p[f"global_.recover.convs.{i}.1"] = _conv(rng, c, c if i else d, 3)
    p["global_.patch_w"], p["global_.patch_b"] = _conv(rng, d, 3, W.PATCH)
    tokens = (cfg.height // W.PATCH) * (cfg.width // W.PATCH)
    p["global_.pos"] = Tensor(rng.normal(0.0, 0.02, size=(tokens, d)), requires_grad=True)
    for i in range(A.GLOBAL_BLOCKS):
        _block(p, rng, f"global_.blocks.{i}", d)

    fc = cfg.fusion_channels
    p["fuse1_w"], p["fuse1_b"] = _conv(rng, fc, cfg.local_dim + c, 3)
    p["fuse2_w"], p["fuse2_b"] = _conv(rng, fc, fc, 3)
    p["out_w"], p["out_b"] = _conv(rng, 3, fc, 1)
    return Weights((3, cfg.height, cfg.width), p)


def _need_weights(w, first: str, what: str):
    """Raise unless w is a Weights holding ``first``, the first parameter its network reads."""
    T._need_type(w, Weights, f"{what}: w")
    if first not in w.params:
        raise ContractError(f"{what}: w has no parameter {first!r}, so it holds another network's weights")


def _need_input(x, w, first: str, what: str):
    """Raise unless w is a Weights holding ``first`` (``_need_weights``) and x a Tensor of w's input shape."""
    _need_weights(w, first, what)
    T._need_type(x, Tensor, f"{what}: x")
    if x.shape != w.input_shape:
        raise DimensionError(f"{what}: input shape {x.shape} does not match the weights' input shape {w.input_shape}")


def forward(x: Tensor, w: Weights) -> Tensor:
    """Enhance a [3,H,W] image in [0,1]; output has the same shape, values in (0,1)."""
    _need_input(x, w, "local.embed_w", "forward")
    T._need_finite(x.data, "forward: x")
    n, rows = x.shape[1], A._image_rows(x.shape[2])
    # One strip pool serves every map of the forward, with OpenBLAS at one thread throughout:
    # restored between maps, its own thread would wake and spin against the two strip workers.
    with A._pooled(n, rows):
        p = w.params
        grid = A.global_branch(x, p, "global_", GeneratorConfig.global_heads)
        param = T._params(p, "", "forward")

        def branches(lo: int, hi: int) -> Tensor:
            local = A.local_branch(x, p, "local", GeneratorConfig.local_heads, lo, hi)
            return T.concat([local, W.patch_recover(grid, p, "global_.recover", lo, hi)], axis=0)

        def head(feat: Tensor, lo: int, hi: int) -> Tensor:
            # Each 3x3 conv zero-pads rows only at the map's own top and bottom; at a cut (whole
            # 8-row bands from either edge) it uses up one of feat's two context rows instead, so
            # fuse1 computes [lo - 1, hi + 1), fuse2 [lo, hi) and no output row is cropped.
            pad = (int(lo == 0), int(hi == n), 1, 1)
            feat = T.leaky_relu(T.conv2d(feat, param("fuse1_w"), param("fuse1_b"), pad=pad), 0.2)
            feat = T.leaky_relu(T.conv2d(feat, param("fuse2_w"), param("fuse2_b"), pad=pad), 0.2)
            return T.sigmoid(T.conv2d(feat, param("out_w"), param("out_b")))

        return A._by_strips(n, branches, rows, head, 2)  # two context rows: one per 3x3 conv


def named_parameters(w: Weights) -> Iterable[tuple[str, Tensor]]:
    """(dotted_name, tensor) pairs of any network's Weights, in initialisation order."""
    return w.params.items()


def parameters(w: Weights) -> dict[str, Tensor]:
    """Named trainable parameters of any network's Weights."""
    return dict(w.params)
