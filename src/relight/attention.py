"""Multi-head self-attention, window attention blocks, and the two branches.

The local branch embeds the image with a 1x1 convolution and runs window
attention at sizes 2, 4, 8 in sequence, summing each layer's output into
a running multi-scale feature (no window shifting, no positional encoding
inside windows).

The global branch ends at its token grid: it flattens the [d, H/8, W/8] grid
of ``windows.patch_embed`` to [L,d] tokens (here and nowhere else), adds a
learnable positional encoding, applies two serial transformer blocks and
returns the tokens as their grid, which ``windows.patch_recover`` turns into
the full-resolution map in ``generator.forward``.

Blocks are pre-norm: LN -> MHSA -> residual -> LN -> MLP -> residual,
with the MLP hidden width fixed at 4x the embedding dim and a GELU
activation.  The queries are scaled by 1/sqrt(head_dim) before the
query-key product.

One strip rule, ``_by_strips``: a map is cut along its rows into strips,
the last one shorter, which are joined along the rows in order.  With no
tape active the strips run two at a time, one on each of the ``WORKERS``
threads of a pool made for that map and shut down once every strip has
finished, with OpenBLAS held at one thread meanwhile; under a tape, or
inside a worker, they run one at a time in the calling thread.  A
strip holds 1/WORKERS of the budget, so the strips in flight hold the whole
budget.  Image maps are cut by a pixel budget, ``_image_rows``:
``STRIP_PIXELS // WORKERS`` pixels per strip, in whole 8-row bands and at
least one (32 rows at 64 wide, 16 at 128, 8 from 256 up).  ``mhsa`` cuts
its queries into strips of ``STRIP_ROWS`` rows.  A map that fits in
``WORKERS`` strips runs whole, so every 64x64 map, every local window and
the global branch's 64 tokens at 64x64 are one strip.  Each strip is a
row range, and ``fn`` reads its own rows of a map through ``_rows``.  Both
cuts here are exact, since no output row reads an input row of another
strip.  The local branch's 1x1 embedding, LayerNorm and MLP act on one
pixel at a time and its unshifted windows never cross an aligned 8-row band, as
with Swin's non-overlapping windows (Liu et al., arXiv 2103.14030); a query
row's softmax reads only its own row of scores (Rabe & Staats, arXiv
2112.05682).  Only the BLAS rounding of mhsa's products may differ, and
under a tape each weight's gradient is summed strip by strip.  Every local
window fits in one strip; the global branch's tokens take one strip up to
64x64 pixels, eight at 128x128 and 32 at 256x256.

Weights come from one flat name -> Tensor map; each function reads its
own under a dotted prefix, e.g. ``local.blocks.0.mhsa.w_q``.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from . import windows as W
from .errors import ContractError
from .tensor import Tensor

LOCAL_WINDOW_SIZES = (2, 4, 8)  # size of layer i is 2**(i+1)
WORKERS = 2  # strips in flight at once; fixed, so the cut does not depend on the machine
STRIP_ROWS = 32  # query rows per mhsa strip
STRIP_PIXELS = 4096  # pixels in flight per image map, STRIP_PIXELS // WORKERS per strip (_image_rows)
GLOBAL_BLOCKS = 2  # serial transformer blocks of the global branch


def _openblas_threads():
    """The (get, set) thread count functions of numpy's bundled OpenBLAS, or None where they are not found."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


_BLAS_THREADS = _openblas_threads()
_pool_lock = threading.Lock()  # one pooled map at a time: it holds OpenBLAS at one thread
_worker = threading.local()  # .busy is set in the pool's threads


def _forget_pool_lock():
    """In a forked child: the parent's thread that held the lock does not run there."""
    global _pool_lock
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere a process cannot fork
    os.register_at_fork(after_in_child=_forget_pool_lock)


def _image_rows(width: int) -> int:
    """Rows per strip of an image map ``width`` pixels wide: STRIP_PIXELS // WORKERS worth, in
    whole bands of the largest window, and at least one band."""
    band = LOCAL_WINDOW_SIZES[-1]
    return max(band, STRIP_PIXELS // WORKERS // width // band * band)


def _rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """x's rows (axis -2) [lo, hi): x itself when that is every row, else one crop."""
    n, cols = x.shape[-2:]
    return x if (lo, hi) == (0, n) else T.crop(x, lo, 0, hi - lo, cols)


def _by_strips(n: int, fn: Callable[[int, int], Tensor], rows: int) -> Tensor:
    """fn(lo, hi) on the strips [lo, hi) of range(n), ``rows`` each and the last one shorter,
    joined along axis -2 in order by one concat.  n of ``WORKERS * rows`` or fewer fits in the
    strips in flight and is one strip: fn(0, n), with no concat.

    The strips go to a pool of WORKERS threads, made for this map, only when no tape is active
    (a worker has none), the caller is not itself a worker (a worker waiting on the pool could
    deadlock it) and OpenBLAS's thread count was found; otherwise they run in order in the
    calling thread.  While the pool runs, OpenBLAS is held at one thread, so two strips do not
    each start a second one.  Every strip finishes before the count is restored, and the first
    error, in strip order, is raised.
    """
    if n <= WORKERS * rows:
        return fn(0, n)
    starts = range(0, n, rows)
    if _BLAS_THREADS is None or T._active_tape() is not None or getattr(_worker, "busy", False):
        return T.concat([fn(lo, min(lo + rows, n)) for lo in starts], axis=-2)
    # Imported here: concurrent.futures imports logging, 3-7 ms and 0.6 MB that a
    # process which never cuts a map into strips, such as a 64x64 one, need not pay.
    from concurrent.futures import ThreadPoolExecutor

    get, put = _BLAS_THREADS
    with _pool_lock:
        before = get()
        put(1)
        try:
            pool = ThreadPoolExecutor(WORKERS, "relight-strip", initializer=setattr, initargs=(_worker, "busy", True))
            with pool:  # leaving the block waits for every strip
                futures = [pool.submit(fn, lo, min(lo + rows, n)) for lo in starts]
        finally:
            put(before)
    return T.concat([future.result() for future in futures], axis=-2)


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
    ctx = _by_strips(L, lambda lo, hi: T.softmax(_rows(q, lo, hi) @ k) @ v, STRIP_ROWS)  # (B, heads, L, hd)
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

    def strip(lo: int, hi: int) -> Tensor:
        feat = T.conv2d(_rows(x, lo, hi), param("embed_w"), param("embed_b"))
        acc = None
        for i, s in enumerate(LOCAL_WINDOW_SIZES):
            feat = window_attention_block(feat, s, p, f"{prefix}.blocks.{i}", heads)
            acc = feat if acc is None else T.add(acc, feat)
        return acc

    return _by_strips(x.shape[1], strip, _image_rows(x.shape[2]))


def global_branch(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Patch tokens + positional encoding -> two serial blocks -> the [d, H/8, W/8] token grid.

    The grid is flattened to the [L,d] token sequence here and nowhere else:
    token k is the patch at row-major grid position k.  Reads patch_w/b, the
    [L,d] table pos and blocks.{0,1}.* under prefix.  pos is added to the
    tokens, so a table of another shape raises DimensionError.
    """
    param = T._params(p, prefix, "global_branch")
    grid = W.patch_embed(x, param("patch_w"), param("patch_b"))  # checks x's rank
    d, h, w = grid.shape
    z = T.add(T.permute(T.reshape(grid, (d, h * w)), (1, 0)), param("pos"))
    for i in range(GLOBAL_BLOCKS):
        z = transformer_block(z, p, f"{prefix}.blocks.{i}", heads)
    return T.reshape(T.permute(z, (1, 0)), (d, h, w))
