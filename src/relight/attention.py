"""Multi-head self-attention, window attention blocks, and the two branches.

The local branch embeds the image with a 1x1 convolution and runs window
attention at sizes 2, 4, 8 in sequence, summing each layer's output into
a running multi-scale feature (no window shifting, no positional encoding
inside windows).

The global branch ends at its token grid: it flattens the [d, H/8, W/8] grid
of ``windows.patch_embed`` to [L,d] tokens (here and nowhere else), adds a
learnable positional encoding, applies two serial transformer blocks and
returns the tokens as their grid, from which ``generator.forward`` recovers
each strip's own rows with ``windows.patch_recover``.

Blocks are pre-norm: LN -> MHSA -> residual -> LN -> MLP -> residual,
with the MLP hidden width fixed at 4x the embedding dim and a GELU
activation.  The queries are scaled by 1/sqrt(head_dim) before the
query-key product.  Each block's MLP half, from its LN to its second
linear layer, goes through ``T.recompute``: under a tape it keeps only its
input and its six parameters, not gelu's derivative and the (L, 4d) hidden
array, and the backward computes it again (selective recomputation,
Korthikanti et al., arXiv 2205.05198).  With no tape it is the same ops on
the same arrays.

One strip rule, ``_by_strips``: a map is cut along its rows into strips,
the last one shorter, and fn(lo, hi) computes each strip's rows, reading
its own rows of an input through ``windows._rows``.  With one stage, as for
``mhsa``'s query strips, the strips are joined along the rows in order.
With two, as for ``generator.forward``, a second function reads each
strip's rows and ``context`` rows past each cut from at most three
neighbouring first-stage strips (through ``windows._rows`` and one concat),
and its strips are joined instead.  The first stage runs ``WORKERS`` strips
ahead of the second, and a first-stage strip is dropped once the last
second-stage strip that reads it is done, so no full-size first-stage map
is made.  Image maps are cut by a pixel budget, ``_image_rows``:
``STRIP_PIXELS // WORKERS`` pixels per strip, in whole 8-row bands and at
least one (32 rows at 64 wide, 16 at 128, 8 from 256 up).  ``mhsa`` cuts
its queries into strips of ``STRIP_ROWS`` rows.  A map that fits in
``WORKERS`` strips runs whole, with no cut and no join, so every 64x64 map,
every local window and the global branch's 64 tokens at 64x64 are one
strip.  The global branch's tokens take one strip up to 64x64 pixels,
eight at 128x128 and 32 at 256x256.

Where the strips run: a generator forward with no tape whose image map is
more than ``WORKERS`` strips opens one pool of ``WORKERS`` threads for all
its maps (``_pooled``), and OpenBLAS stays at one thread from its first
map to its last, so its own thread does not wake between the maps to spin
against the workers.  Anywhere else (under a tape, outside a forward,
inside a worker, or in a forward whose image map fits in ``WORKERS``
strips) the strips run one at a time in the calling thread.  Both go
through the same loop, in the same order; only the pooled one waits, in
the calling thread, and no worker ever waits on another strip.

Which cuts are bitwise.  No output row of either cut reads an input row of
another strip, except the second stage's context rows, which it reads.
The local branch's image strips equal the whole map bitwise: its 1x1
embedding, LayerNorm and MLP act on one pixel at a time and its unshifted
windows never cross an aligned 8-row band, as with Swin's non-overlapping
windows (Liu et al., arXiv 2103.14030).  ``mhsa``'s query strips are equal
only up to ``_sum_last``'s rounding, which depends on how many rows share
its GEMV: a query row's softmax reads only its own row of scores (Rabe &
Staats, arXiv 2112.05682), but the GEMV that sums that row rounds it
according to the number of rows it covers (``TestMhsaQueryTiles`` allows
1e-15).  ``windows.patch_recover``'s rows, and the fusion head's,
equal the whole map's up to the rounding of shorter GEMMs.  Under a tape
each weight's gradient is summed strip by strip.

Weights come from one flat name -> Tensor map; each function reads its
own under a dotted prefix, e.g. ``local.blocks.0.mhsa.w_q``.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import math
import os
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from . import tensor as T
from . import windows as W
from .errors import ContractError, DimensionError
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
_pool_lock = threading.Lock()  # one forward at a time holds OpenBLAS at one thread (_pooled)
_pool = threading.local()  # .executor is the strip pool of the forward running in this thread


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


@contextlib.contextmanager
def _pooled(n: int, rows: int):
    """One strip pool for a generator forward whose image map has n rows, ``rows`` a strip.

    It pools only where the map is more than one strip per worker, OpenBLAS's thread count was
    found and no tape is active; otherwise it does nothing.  Where it pools, it takes
    ``_pool_lock``, holds OpenBLAS at one thread, so two strips do not each start a second one
    and OpenBLAS's own thread does not wake between maps to spin against the workers, and opens
    one executor of WORKERS threads for ``_by_strips`` in this thread.  Leaving waits for every
    strip, then restores the count.  Only ``generator.forward`` enters it.
    """
    if n <= WORKERS * rows or _BLAS_THREADS is None or T._active_tape() is not None:
        yield
        return
    # Imported here: concurrent.futures imports logging, 3-7 ms and 0.6 MB that a
    # process which never cuts a map into strips, such as a 64x64 one, need not pay.
    from concurrent.futures import ThreadPoolExecutor

    get, put = _BLAS_THREADS
    with _pool_lock:
        before = get()
        put(1)
        try:  # leaving the executor's block waits for every strip
            with ThreadPoolExecutor(WORKERS, "relight-strip") as _pool.executor:
                yield
        finally:
            _pool.executor = None
            put(before)


class _Ran:
    """A strip run at once in the calling thread, held in the shape of the pool's future."""

    __slots__ = ("value",)

    def __init__(self, fn: Callable, *args):
        self.value = fn(*args)

    def result(self):
        return self.value


def _by_strips(
    n: int,
    fn: Callable[[int, int], Tensor],
    rows: int,
    head: Callable[[Tensor, int, int], Tensor] | None = None,
    context: int = 0,
) -> Tensor:
    """fn(lo, hi) on the strips [lo, hi) of range(n), ``rows`` each and the last one shorter,
    joined along axis -2 in order by one concat.

    With ``head``, a second stage: head(feat, lo, hi) on each strip, where feat holds rows
    [lo - context, hi + context), clipped to [0, n), of fn's map, read through ``windows._rows``
    from the fn strips of the strip and its two neighbours and joined by one concat (0 < context
    <= rows); the head strips are joined instead.  Strip k's fn is issued just before strip
    k - WORKERS's head, which is issued once the fn strips it reads are done, and a fn strip is
    dropped once the last head that reads it is done (until then the head's arguments hold it).

    n of ``WORKERS * rows`` or fewer fits in the strips in flight and is one strip: fn(0, n), and
    head(fn(0, n), 0, n), with no cut and no join.

    The strips go to the executor of the forward running in the calling thread (``_pooled``)
    where it has one; the calling thread waits for them in the order it issued them, so the
    first error in that order is raised.  Otherwise, as under a tape, outside a forward or
    inside a worker, which has no executor of its own, each runs in the calling thread as it
    is issued.
    """
    if n <= WORKERS * rows:
        out = fn(0, n)
        return out if head is None else head(out, 0, n)
    strips = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    pool = getattr(_pool, "executor", None)
    submit = _Ran if pool is None else pool.submit
    if head is None:
        return T.concat([future.result() for future in [submit(fn, lo, hi) for lo, hi in strips]], axis=-2)

    issued = collections.deque()  # strips not yet waited for, in the order they were issued

    def wait(future):
        while future in issued:
            issued.popleft().result()
        return future.result()

    def read_then_head(near: list[tuple[int, Tensor]], lo: int, hi: int) -> Tensor:
        top, bot = max(0, lo - context), min(n, hi + context)
        feat = T.concat([W._rows(t, max(top - a, 0), min(bot - a, t.shape[-2])) for a, t in near], axis=-2)
        return head(feat, lo, hi)

    first, heads = {}, []
    for k in range(len(strips) + WORKERS):
        if k < len(strips):
            first[k] = submit(fn, *strips[k])
            issued.append(first[k])
        j = k - WORKERS  # the head WORKERS strips behind
        if j >= 0:
            near = [i for i in (j - 1, j, j + 1) if i in first]
            wait(first[near[-1]])
            heads.append(submit(read_then_head, [(strips[i][0], first[i].result()) for i in near], *strips[j]))
            issued.append(heads[-1])
            first.pop(j - 1, None)  # no later head reads it
    return T.concat([wait(future) for future in heads], axis=-2)


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
    ctx = _by_strips(L, lambda lo, hi: T.softmax(W._rows(q, lo, hi) @ k) @ v, STRIP_ROWS)  # (B, heads, L, hd)
    ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (B * L, d))
    return T.reshape(ctx @ param("w_o"), z.shape)


_MLP_PARAMS = ("norm2_g", "norm2_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")  # _mlp's operands after z


def _mlp(z: Tensor, norm_g: Tensor, norm_b: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A block's MLP half before its residual: LN -> [d, 4d] linear -> GELU -> [4d, d] linear, in z's shape."""
    lead, d = z.shape[:-1], z.shape[-1]
    flat = T.reshape(T.layer_norm(z, norm_g, norm_b), (-1, d))
    hidden = T.gelu(T.add_bias(flat @ w1, b1))
    return T.reshape(T.add_bias(hidden @ w2, b2), lead + (d,))


def transformer_block(z: Tensor, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Pre-norm block on [.., L, d] tokens: LN-MHSA-residual, LN-MLP-residual.

    The MLP half runs through ``T.recompute``, so under a tape it keeps only
    its input and parameters and is computed again in the backward.  Reads
    norm1_g/b, mhsa.*, norm2_g/b, mlp_w1/b1 and mlp_w2/b2 under prefix.
    """
    param = T._params(p, prefix, "transformer_block")
    attn = mhsa(T.layer_norm(z, param("norm1_g"), param("norm1_b")), p, f"{prefix}.mhsa", heads)
    z = T.add(z, attn)
    return T.add(z, T.recompute(_mlp, [z, *map(param, _MLP_PARAMS)]))


def window_attention_block(x: Tensor, s: int, p: dict[str, Tensor], prefix: str, heads: int) -> Tensor:
    """Shape-preserving window attention: partition, per-window block, reverse.

    No information crosses window boundaries.
    """
    wins = transformer_block(W.window_partition(x, s), p, prefix, heads)  # checks x's rank
    return W.window_reverse(wins, s, x.shape[1], x.shape[2])


def local_branch(x: Tensor, p: dict[str, Tensor], prefix: str, heads: int, lo: int, hi: int) -> Tensor:
    """Rows [lo, hi) of the local branch's multi-scale feature map: a 1x1 embedding, then window
    blocks at sizes 2, 4, 8 chained sequentially, summing every layer's output.

    x is [C,H,W] with H and W multiples of the largest window, and lo and hi are multiples of it
    with 0 <= lo < hi <= H, so the rows hold whole windows and equal the whole map's bitwise.

    Reads embed_w/b and blocks.{0,1,2}.* under prefix.
    """
    T._need_rank(x, "[C,H,W]", "local_branch")
    band = LOCAL_WINDOW_SIZES[-1]
    W._window_grid(x.shape[1], x.shape[2], band, "local_branch")
    if not (T._is_int(lo, 0) and T._is_int(hi, 1) and lo < hi <= x.shape[1] and lo % band == hi % band == 0):
        raise DimensionError(
            f"local_branch: rows [{lo!r}, {hi!r}) are not multiples of {band} with 0 <= lo < hi <= {x.shape[1]}"
        )
    param = T._params(p, prefix, "local_branch")
    feat = T.conv2d(W._rows(x, lo, hi), param("embed_w"), param("embed_b"))
    acc = None
    for i, s in enumerate(LOCAL_WINDOW_SIZES):
        feat = window_attention_block(feat, s, p, f"{prefix}.blocks.{i}", heads)
        acc = feat if acc is None else T.add(acc, feat)
    return acc


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
