"""Multi-head self-attention, window attention blocks, and the two branches.

The local branch embeds the image with a 1x1 convolution and runs window
attention at sizes 2, 4, 8 in sequence, summing each layer's output into
a running multi-scale feature (no window shifting, no positional encoding
inside windows).

The global branch tokenizes the image into 8x8 patches, adds a learnable
positional encoding, applies two serial transformer blocks and recovers
the full-resolution feature map.

Blocks are pre-norm: LN -> MHSA -> residual -> LN -> MLP -> residual,
with the MLP hidden width fixed at 4x the embedding dim and a GELU
activation.  The queries are scaled by 1/sqrt(head_dim) before the
query-key product.

One strip rule, ``_by_strips``: a map is cut along its rows into strips,
the last one shorter, which run one at a time and are joined along the rows;
so only one strip's temporaries are alive at a time.  Image maps are cut by
a pixel budget, ``_image_rows``: ``STRIP_PIXELS`` pixels per strip, in whole
8-row bands and at least one (64 rows at 64 wide, 16 at 256, 8 from 512 up).
``mhsa`` cuts its queries into strips of ``STRIP_ROWS`` rows.  A strip may
carry a halo, rows of context on either side that ``fn`` reads and whose
output is dropped: the generator's fusion head takes one row per 3x3 conv.
Every cut is exact, since no kept output row reads an input row beyond its
strip and halo.  The local branch's 1x1 embedding, LayerNorm and MLP act on
one pixel at a time and its unshifted windows never cross an aligned 8-row
band, as with Swin's non-overlapping windows (Liu et al., arXiv 2103.14030);
a query row's softmax reads only its own row of scores (Rabe & Staats, arXiv
2112.05682).  Only the BLAS rounding of mhsa's products may differ, and
under a tape each weight's gradient is summed strip by strip.  Every local
window fits in one strip; the global branch's tokens take one strip up to
64x64 pixels, four at 128x128 and 16 at 256x256.

Weights come from one flat name -> Tensor map; each function reads its
own under a dotted prefix, e.g. ``local.blocks.0.mhsa.w_q``.
"""

from __future__ import annotations

import math
from typing import Callable

from . import tensor as T
from . import windows as W
from .errors import ContractError
from .tensor import Tensor

LOCAL_WINDOW_SIZES = (2, 4, 8)  # size of layer i is 2**(i+1)
STRIP_ROWS = 64  # query rows per mhsa strip
STRIP_PIXELS = 4096  # pixels per image strip (_image_rows)
GLOBAL_BLOCKS = 2  # serial transformer blocks of the global branch


def _image_rows(width: int) -> int:
    """Rows per strip of an image map ``width`` pixels wide: STRIP_PIXELS worth, in whole
    bands of the largest window, and at least one band."""
    band = LOCAL_WINDOW_SIZES[-1]
    return max(band, STRIP_PIXELS // width // band * band)


def _by_strips(x: Tensor, fn: Callable[[Tensor], Tensor], rows: int, halo: int = 0) -> Tensor:
    """fn on x's rows (axis -2) in strips of ``rows``, the last one shorter, joined by one concat.

    fn sees each strip with up to ``halo`` more rows on either side, clipped at
    x's edges, and must return as many rows as it is given; the halo rows of its
    output are cropped off.  x of ``rows`` rows or fewer is one strip: fn(x),
    with no crop or concat.
    """
    n, cols = x.shape[-2:]
    if n <= rows:
        return fn(x)
    strips = []
    for top in range(0, n, rows):
        lo, height = max(0, top - halo), min(rows, n - top)
        out = fn(T.crop(x, lo, 0, min(n, top + height + halo) - lo, cols))
        strips.append(T.crop(out, top - lo, 0, height, out.shape[-1]) if halo else out)
    return T.concat(strips, axis=-2)


def mhsa(z: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Scaled dot-product multi-head self-attention over a token sequence.

    z is [L,d] or batched [B,L,d] (windows attend independently), and the
    output has z's shape; the square projections are p[f"{prefix}.w_q"],
    w_k, w_v and w_o.  heads must be an int >= 1 that divides d.

    The scores are computed on strips of query rows (the strip rule); each
    strip's softmax runs over all L keys.
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
    ctx = _by_strips(q, lambda rows: T.softmax(rows @ k) @ v, STRIP_ROWS)  # (B, heads, L, hd)
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
    # early, and the no-trim heap then peaked 1 MB higher in one 256² forward (81.2 against 80.1 MB).
    wins = transformer_block(wins, p, prefix, heads)
    return W.window_reverse(wins, s, x.shape[1], x.shape[2])


def local_branch(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """1x1 embedding, then window blocks at sizes 2,4,8 chained sequentially;
    the returned multi-scale feature is the sum of every layer's output.

    x is [C,H,W] with H and W multiples of the largest window; it runs on
    strips of rows (the strip rule), and the output is the whole-map one.

    Reads embed_w/b and blocks.{0,1,2}.* under prefix.
    """
    T._need_rank(x, "[C,H,W]", "local_branch")
    W._window_grid(x.shape[1], x.shape[2], LOCAL_WINDOW_SIZES[-1], "local_branch")
    param = T._params(p, prefix, "local_branch")

    def strip(rows: Tensor) -> Tensor:
        feat = T.conv2d(rows, param("embed_w"), param("embed_b"))
        acc = None
        for i, s in enumerate(LOCAL_WINDOW_SIZES):
            feat = window_attention_block(feat, s, p, f"{prefix}.blocks.{i}", heads)
            acc = feat if acc is None else T.add(acc, feat)
        return acc

    return _by_strips(x, strip, _image_rows(x.shape[2]))


def global_branch(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Patch tokens + positional encoding -> two serial blocks -> recovered map.

    Reads patch_w/b, the [L,d] table pos, blocks.{0,1}.* and recover.* under prefix.
    pos is added to the tokens, so a table of another shape raises DimensionError.
    """
    param = T._params(p, prefix, "global_branch")
    z = T.add(W.patch_embed(x, param("patch_w"), param("patch_b")), param("pos"))
    for i in range(GLOBAL_BLOCKS):
        z = transformer_block(z, p, f"{prefix}.blocks.{i}", heads)
    return W.patch_recover(z, p, f"{prefix}.recover", x.shape[1], x.shape[2])  # patch_embed checks x's rank
