"""Window partition/reverse and the patch embedding / recovery stack.

These are the tensor-layout primitives of both attention branches: the
local branch slices feature maps into non-overlapping square windows (no
shifting between layers), the global branch turns the image into a short
token sequence via an 8x8 stride-8 convolution and later recovers the
full resolution again.

Windows are flattened row-major: window k covers the s x s block whose
top-left corner is (floor(k / num_w) * s, (k mod num_w) * s), and tokens
inside a window run row by row.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ConfigError, PartitionError
from .tensor import Tensor

PATCH = 8  # global-branch patch side and stride


def _window_grid(height: int, width: int, s: int) -> tuple[int, int]:
    """(window rows, window columns) of an s x s tiling; s must divide both sides."""
    if not T._is_int(s, 1) or height % s or width % s:
        raise PartitionError(f"window size {s!r} must be an int >= 1 that divides feature map {height}x{width}")
    return height // s, width // s


def window_partition(x: Tensor, s: int) -> Tensor:
    """[C,H,W] -> [num_windows, s*s, C]; lossless, exactly inverted by window_reverse."""
    T._need_rank(x, "[C,H,W]", "window_partition")
    C, H, W = x.shape
    nh, nw = _window_grid(H, W, s)
    t = T.reshape(x, (C, nh, s, nw, s))
    t = T.permute(t, (1, 3, 2, 4, 0))  # (nh, nw, s, s, C)
    return T.reshape(t, (nh * nw, s * s, C))


def window_reverse(w: Tensor, s: int, height: int, width: int) -> Tensor:
    """[num_windows, s*s, C] -> [C,H,W]; exact inverse of window_partition."""
    T._need_rank(w, "[num_windows,s*s,C]", "window_reverse")
    nwin, tokens, C = w.shape
    T._need_int(height, 1, "window_reverse: height")
    T._need_int(width, 1, "window_reverse: width")
    nh, nw = _window_grid(height, width, s)
    if nwin * tokens != height * width or tokens != s * s:
        raise PartitionError(
            f"cannot reverse {nwin} windows of {tokens} tokens into {height}x{width} with size {s}"
        )
    t = T.reshape(w, (nh, nw, s, s, C))
    t = T.permute(t, (4, 0, 2, 1, 3))  # (C, nh, s, nw, s)
    return T.reshape(t, (C, height, width))


def patch_embed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """[3,H,W] -> token sequence [L,d] via an 8x8 stride-8 convolution.

    L = (H/8)*(W/8); token k is the patch at row-major position k.
    """
    T._need_rank(x, "[C,H,W]", "patch_embed")
    _, H, W = x.shape
    if H % PATCH or W % PATCH:
        raise PartitionError(f"patch embedding needs {PATCH} | H and {PATCH} | W, got {H}x{W}")
    d = w.shape[0]
    z = T.conv2d(x, w, b, stride=PATCH)  # (d, H/8, W/8)
    z = T.reshape(z, (d, (H // PATCH) * (W // PATCH)))
    return T.permute(z, (1, 0))


def patch_recover(z: Tensor, p: dict[str, Tensor], prefix: str, height: int, width: int) -> Tensor:
    """[L,d] tokens -> [C,H,W] feature map, undoing the 8x downsampling.

    Three stages of x2 nearest upsample -> 3x3 conv -> leaky_relu, with
    weights p[f"{prefix}.convs.{i}.0"] and biases p[f"{prefix}.convs.{i}.1"].
    The token count must equal (H/8)*(W/8) for the configured resolution.
    """
    T._need_rank(z, "[L,d]", "patch_recover")
    L, d = z.shape
    T._need_int(height, 1, "patch_recover: height")
    T._need_int(width, 1, "patch_recover: width")
    hh, ww = height // PATCH, width // PATCH
    if L != hh * ww or height % PATCH or width % PATCH:
        raise ConfigError(f"{L} tokens cannot recover a {height}x{width} map (expected {hh * ww})")
    x = T.permute(z, (1, 0))
    x = T.reshape(x, (d, hh, ww))
    for i in range(3):
        x = T.upsample_nearest(x)
        x = T.conv2d(x, p[f"{prefix}.convs.{i}.0"], p[f"{prefix}.convs.{i}.1"], stride=1, pad=1)
        x = T.leaky_relu(x, 0.2)
    return x
