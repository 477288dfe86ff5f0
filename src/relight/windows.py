"""Window partition/reverse and the patch embedding / recovery stack.

These are the tensor-layout primitives of both attention branches: the
local branch slices feature maps into non-overlapping square windows (no
shifting between layers); the global branch turns the image into a
[d, H/8, W/8] grid of patch features with an 8x8 stride-8 convolution, and
``patch_recover`` turns such a grid back into rows [lo, hi) of a
full-resolution map.  Both patch functions are plain conv stacks on grids;
the [L,d] token sequence lives only inside ``attention.global_branch``.

``_rows`` is the one row cut of a map, used by the strip rule of
``attention._by_strips`` and by ``patch_recover``: it is one crop, or the
map itself when the range is every row.

Windows are flattened row-major: window k covers the s x s block whose
top-left corner is (floor(k / num_w) * s, (k mod num_w) * s), and tokens
inside a window run row by row.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ContractError, DimensionError
from .tensor import Tensor

PATCH = 8  # global-branch patch side and stride
RECOVER_STAGES = 3  # x2 upsample -> conv -> leaky_relu stages of patch_recover


def _window_grid(height: int, width: int, s: int, what: str) -> tuple[int, int]:
    """The one tiling rule: (rows, columns) of an s x s tiling of ints >= 1 that s divides."""
    T._need_int(height, 1, f"{what}: height")
    T._need_int(width, 1, f"{what}: width")
    if not T._is_int(s, 1) or height % s or width % s:
        raise ContractError(f"window size {s!r} must be an int >= 1 that divides feature map {height}x{width}")
    return height // s, width // s


def window_partition(x: Tensor, s: int) -> Tensor:
    """[C,H,W] -> [num_windows, s*s, C]; lossless, exactly inverted by window_reverse."""
    T._need_rank(x, "[C,H,W]", "window_partition")
    C, H, W = x.shape
    nh, nw = _window_grid(H, W, s, "window_partition")
    t = T.reshape(x, (C, nh, s, nw, s))
    t = T.permute(t, (1, 3, 2, 4, 0))  # (nh, nw, s, s, C)
    return T.reshape(t, (nh * nw, s * s, C))


def window_reverse(w: Tensor, s: int, height: int, width: int) -> Tensor:
    """[num_windows, s*s, C] -> [C,H,W]; exact inverse of window_partition."""
    T._need_rank(w, "[num_windows,s*s,C]", "window_reverse")
    nwin, tokens, C = w.shape
    nh, nw = _window_grid(height, width, s, "window_reverse")
    if nwin * tokens != height * width or tokens != s * s:
        raise DimensionError(f"cannot reverse {nwin} windows of {tokens} tokens into {height}x{width} with size {s}")
    t = T.reshape(w, (nh, nw, s, s, C))
    t = T.permute(t, (4, 0, 2, 1, 3))  # (C, nh, s, nw, s)
    return T.reshape(t, (C, height, width))


def _rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """x's rows (axis -2) [lo, hi): x itself when that is every row, else one crop."""
    n, cols = x.shape[-2:]
    return x if (lo, hi) == (0, n) else T.crop(x, lo, 0, hi - lo, cols)


def patch_embed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """[3,H,W] -> [d, H/8, W/8] grid of patch features via an 8x8 stride-8 convolution;
    entry [:, i, j] is the patch whose top-left corner is (8i, 8j)."""
    T._need_rank(x, "[C,H,W]", "patch_embed")
    _, H, W = x.shape
    if H % PATCH or W % PATCH:
        raise DimensionError(f"patch embedding needs {PATCH} | H and {PATCH} | W, got {H}x{W}")
    return T.conv2d(x, w, b, stride=PATCH)


def patch_recover(grid: Tensor, p: dict[str, Tensor], prefix: str, lo: int, hi: int) -> Tensor:
    """Rows [lo, hi) of the [C, 8h, 8w] feature map recovered from a [d,h,w] grid, undoing the 8x downsampling.

    RECOVER_STAGES stages of x2 nearest upsample -> 3x3 conv -> leaky_relu, with
    weights p[f"{prefix}.convs.{i}.0"] and biases p[f"{prefix}.convs.{i}.1"].
    Each stage computes only the rows its output needs: its conv reads one more
    row past each cut, which the upsample takes from half as many rows of the
    stage before, and zero-pads rows only at the map's own top and bottom, so
    it computes exactly [lo, hi) and no conv output is cropped.  The rows equal
    those of the whole map; for (0, 8h) no row is cut.
    """
    T._need_rank(grid, "[d,h,w]", "patch_recover")
    n = grid.shape[1] << RECOVER_STAGES
    if not (T._is_int(lo, 0) and T._is_int(hi, 1) and lo < hi <= n):
        raise DimensionError(f"patch_recover: rows [{lo!r}, {hi!r}) are not ints 0 <= lo < hi <= {n}, the map height")
    param = T._params(p, prefix, "patch_recover")

    def stage(i: int, lo: int, hi: int) -> Tensor:
        """Rows [lo, hi) of the map after i stages; the grid's at i = 0."""
        if i == 0:
            return _rows(grid, lo, hi)
        pad = (int(lo == 0), int(hi == grid.shape[1] << i), 1, 1)  # rows only at the map's own edges
        top, bot = lo - 1 + pad[0], hi + 1 - pad[1]
        x = _rows(T.upsample_nearest(stage(i - 1, top // 2, (bot + 1) // 2)), top % 2, top % 2 + bot - top)
        return T.leaky_relu(T.conv2d(x, param(f"convs.{i - 1}.0"), param(f"convs.{i - 1}.1"), pad=pad), 0.2)

    return stage(RECOVER_STAGES, lo, hi)
