"""Multi-head self-attention, window attention blocks, and the two branches.

The local branch embeds the image with a 1x1 convolution and runs window
attention at sizes 2, 4, 8 in sequence, summing each layer's output into
a running multi-scale feature (no window shifting, no positional encoding
inside windows).  The global branch tokenizes the image into 8x8 patches,
adds a learnable positional encoding, applies two serial transformer
blocks and recovers the full-resolution feature map.

Blocks are pre-norm: LN -> MHSA -> residual -> LN -> MLP -> residual,
with the MLP hidden width fixed at 4x the embedding dim and a GELU
activation.  The queries are scaled by 1/sqrt(head_dim) before the
query-key product.

Weights come from one flat name -> Tensor map; each function reads its
own under a dotted prefix, e.g. ``local.blocks.0.mhsa.w_q``.
"""

from __future__ import annotations

import math

from . import tensor as T
from . import windows as W
from .errors import ConfigError
from .tensor import Tensor

LOCAL_WINDOW_SIZES = (2, 4, 8)  # size of layer i is 2**(i+1)

def mhsa(z: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Scaled dot-product multi-head self-attention over a token sequence.

    z is [L,d] or batched [B,L,d] (windows attend independently), and the
    output has z's shape; the square projections are p[f"{prefix}.w_q"],
    w_k, w_v and w_o.  heads must be an int >= 1 that divides d.
    """
    T._need_rank(z, "[...,L,d]", "mhsa")
    *lead, L, d = z.shape
    B = math.prod(lead)
    w_q = p[f"{prefix}.w_q"]
    if d != w_q.shape[0]:
        raise ConfigError(f"sequence dim {d} does not match weights dim {w_q.shape[0]}")
    if not T._is_int(heads, 1) or d % heads:
        raise ConfigError(f"heads {heads!r} must be an int >= 1 that divides dim {d}")
    hd = d // heads
    flat = T.reshape(z, (B * L, d))

    def project(name, axes):
        return T.permute(T.reshape(flat @ p[f"{prefix}.{name}"], (B, L, heads, hd)), axes)

    q = project("w_q", (0, 2, 1, 3))  # (B, heads, L, hd)
    k = project("w_k", (0, 2, 3, 1))  # (B, heads, hd, L): transposed for q @ k
    v = project("w_v", (0, 2, 1, 3))
    q = T.scale(q, 1.0 / math.sqrt(hd))  # on L*hd queries rather than the L*L logits
    attn = T.softmax(q @ k)
    ctx = attn @ v  # (B, heads, L, hd)
    ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (B * L, d))
    return T.reshape(ctx @ p[f"{prefix}.w_o"], z.shape)


def transformer_block(z: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Pre-norm block on [.., L, d] tokens: LN-MHSA-residual, LN-MLP-residual.

    Reads norm1_g/b, mhsa.*, norm2_g/b, mlp_w1/b1 and mlp_w2/b2 under prefix.
    """
    attn = mhsa(T.layer_norm(z, p[f"{prefix}.norm1_g"], p[f"{prefix}.norm1_b"]), p, f"{prefix}.mhsa", heads)
    z = T.add(z, attn)
    lead, d = z.shape[:-1], z.shape[-1]
    flat = T.reshape(T.layer_norm(z, p[f"{prefix}.norm2_g"], p[f"{prefix}.norm2_b"]), (-1, d))
    hidden = T.gelu(T.add_bias(flat @ p[f"{prefix}.mlp_w1"], p[f"{prefix}.mlp_b1"]))
    mlp = T.reshape(T.add_bias(hidden @ p[f"{prefix}.mlp_w2"], p[f"{prefix}.mlp_b2"]), lead + (d,))
    return T.add(z, mlp)


def window_attention_block(x: Tensor, s: int, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Shape-preserving window attention: partition, per-window block, reverse.

    No information crosses window boundaries.
    """
    T._need_rank(x, "[C,H,W]", "window_attention_block")
    C, H, Wd = x.shape
    wins = W.window_partition(x, s)
    wins = transformer_block(wins, p, prefix, heads)
    return W.window_reverse(wins, s, H, Wd)


def local_branch(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """1x1 embedding, then window blocks at sizes 2,4,8 chained sequentially;
    the returned multi-scale feature is the sum of every layer's output.

    Reads embed_w/b and blocks.{0,1,2}.* under prefix.
    """
    feat = T.conv2d(x, p[f"{prefix}.embed_w"], p[f"{prefix}.embed_b"])
    acc = None
    for i, s in enumerate(LOCAL_WINDOW_SIZES):
        feat = window_attention_block(feat, s, p, f"{prefix}.blocks.{i}", heads)
        acc = feat if acc is None else T.add(acc, feat)
    return acc


def global_branch(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Patch tokens + positional encoding -> two serial blocks -> recovered map.

    Reads patch_w/b, the [L,d] table pos, blocks.{0,1}.* and recover.* under prefix.
    pos is added to the tokens, so a table of another shape raises DimensionError.
    """
    T._need_rank(x, "[C,H,W]", "global_branch")
    _, H, Wd = x.shape
    z = T.add(W.patch_embed(x, p[f"{prefix}.patch_w"], p[f"{prefix}.patch_b"]), p[f"{prefix}.pos"])
    for i in range(2):
        z = transformer_block(z, p, f"{prefix}.blocks.{i}", heads)
    return W.patch_recover(z, p, f"{prefix}.recover", H, Wd)
