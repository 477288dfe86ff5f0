"""Multi-head self-attention, window attention blocks, and the two branches.

The local branch embeds the image with a 1x1 convolution and runs window
attention at sizes 2, 4, 8 in sequence, summing each layer's output into
a running multi-scale feature (no window shifting, no positional encoding
inside windows).  It runs on horizontal strips of ``STRIP_ROWS`` rows, the
last one shorter, and joins them along the rows.  That is exact: the 1x1
embedding, LayerNorm and MLP act on one pixel at a time and the unshifted
windows never cross an aligned 8-row band, so no output pixel reads a pixel
of another strip, as with Swin's non-overlapping windows (Liu et al., arXiv
2103.14030).  Only the attention scores of one strip are alive at a time.
Under a tape, each weight's gradient is summed strip by strip, which rounds
differently from a whole-map run.

The global branch tokenizes the image into 8x8 patches, adds a learnable
positional encoding, applies two serial transformer blocks and recovers
the full-resolution feature map.

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
from .errors import ContractError
from .tensor import Tensor

LOCAL_WINDOW_SIZES = (2, 4, 8)  # size of layer i is 2**(i+1)
STRIP_ROWS = 64  # rows per local-branch strip; a multiple of the largest window

def mhsa(z: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Scaled dot-product multi-head self-attention over a token sequence.

    z is [L,d] or batched [B,L,d] (windows attend independently), and the
    output has z's shape; the square projections are p[f"{prefix}.w_q"],
    w_k, w_v and w_o.  heads must be an int >= 1 that divides d.
    """
    T._need_rank(z, "[...,L,d]", "mhsa")
    *lead, L, d = z.shape
    B = math.prod(lead)
    if not T._is_int(heads, 1) or d % heads:
        raise ContractError(f"heads {heads!r} must be an int >= 1 that divides dim {d}")
    hd = d // heads
    param = T._params(p, prefix, "mhsa")
    flat = T.reshape(z, (B * L, d))

    def project(name, axes):
        return T.permute(T.reshape(flat @ param(name), (B, L, heads, hd)), axes)

    q = project("w_q", (0, 2, 1, 3))  # (B, heads, L, hd)
    k = project("w_k", (0, 2, 3, 1))  # (B, heads, hd, L): transposed for q @ k
    v = project("w_v", (0, 2, 1, 3))
    q = T.scale(q, 1.0 / math.sqrt(hd))  # on L*hd queries rather than the L*L logits
    attn = T.softmax(q @ k)
    ctx = attn @ v  # (B, heads, L, hd)
    ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (B * L, d))
    return T.reshape(ctx @ param("w_o"), z.shape)


def transformer_block(z: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Pre-norm block on [.., L, d] tokens: LN-MHSA-residual, LN-MLP-residual.

    Reads norm1_g/b, mhsa.*, norm2_g/b, mlp_w1/b1 and mlp_w2/b2 under prefix.
    """
    param = T._params(p, prefix, "transformer_block")
    attn = mhsa(T.layer_norm(z, param("norm1_g"), param("norm1_b")), p, f"{prefix}.mhsa", heads)
    z = T.add(z, attn)
    lead, d = z.shape[:-1], z.shape[-1]
    flat = T.reshape(T.layer_norm(z, param("norm2_g"), param("norm2_b")), (-1, d))
    hidden = T.gelu(T.add_bias(flat @ param("mlp_w1"), param("mlp_b1")))
    mlp = T.reshape(T.add_bias(hidden @ param("mlp_w2"), param("mlp_b2")), lead + (d,))
    return T.add(z, mlp)


def window_attention_block(x: Tensor, s: int, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Shape-preserving window attention: partition, per-window block, reverse.

    No information crosses window boundaries.
    """
    wins = W.window_partition(x, s)  # checks x's rank
    # Named, the windows live until the block returns; passed inline, the block freed them
    # early, and the no-trim heap then peaked 7 MB higher on perfbench's enhance-256.
    wins = transformer_block(wins, p, prefix, heads)
    return W.window_reverse(wins, s, x.shape[1], x.shape[2])


def local_branch(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """1x1 embedding, then window blocks at sizes 2,4,8 chained sequentially;
    the returned multi-scale feature is the sum of every layer's output.

    x is [C,H,W] with H and W multiples of the largest window.  An input of
    more than STRIP_ROWS rows runs as strips of STRIP_ROWS rows (the last one
    shorter) cropped from x and concatenated along the rows; no window crosses
    a strip edge, so the output is the whole-map one.  A shorter input is one
    strip and records no crop or concat.

    Reads embed_w/b and blocks.{0,1,2}.* under prefix.
    """
    T._need_rank(x, "[C,H,W]", "local_branch")
    _, height, width = x.shape
    W._window_grid(height, width, LOCAL_WINDOW_SIZES[-1], "local_branch")
    if height <= STRIP_ROWS:
        return _local_strip(x, p, prefix, heads)
    strips = [
        _local_strip(T.crop(x, top, 0, min(STRIP_ROWS, height - top), width), p, prefix, heads)
        for top in range(0, height, STRIP_ROWS)
    ]
    return T.concat(strips, axis=1)


def _local_strip(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """local_branch on one strip: the embedding, the three window blocks and their running sum."""
    param = T._params(p, prefix, "local_branch")
    feat = T.conv2d(x, param("embed_w"), param("embed_b"))
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
    param = T._params(p, prefix, "global_branch")
    z = T.add(W.patch_embed(x, param("patch_w"), param("patch_b")), param("pos"))
    for i in range(2):
        z = transformer_block(z, p, f"{prefix}.blocks.{i}", heads)
    return W.patch_recover(z, p, f"{prefix}.recover", x.shape[1], x.shape[2])  # patch_embed checks x's rank
