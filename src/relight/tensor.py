"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are numpy float64 arrays, not all contiguous (``permute`` returns a
view).  Differentiable operations executed while a :class:`Tape` is active
append a backward rule to it; ``Tape.backward(loss)`` then walks the records
in reverse and accumulates ``d loss / d leaf`` into the ``.grad`` of every
``requires_grad`` leaf.  With no active tape every operation is a plain
forward computation, which is how inference runs.

Conventions, fixed here and relied on everywhere else:

- 64-bit floats throughout; desk-scale sizes make memory irrelevant and
  tight gradient-check tolerances possible.
- ``conv2d`` is cross-correlation (no kernel flip).
- Repeated ``backward`` calls accumulate into ``.grad``; use
  :func:`zero_grad` to reset between steps.
- An op writes in place only into arrays it has just allocated itself:
  never into an input's ``.data``, an array a backward closure keeps, or
  the incoming gradient ``g`` (``add`` hands the same ``g`` to both of
  its inputs, and a second ``backward`` reuses every kept array).
- Every op ends in ``return _record(array, inputs, backward)``; nothing
  else builds op outputs.  ``_record`` wraps the array and, under a tape
  with an input that requires grad, appends exactly one record, whose
  ``.out`` is the returned tensor.
- An int argument is an ``int``, never a ``bool`` or a numpy integer,
  checked by ``_is_int``; a shape is an int or a tuple of them.  A real
  argument is a finite ``numbers.Real``, never a ``bool`` (``_is_real``).
- Every module rejects a bad int, type or rank with ``_need_int``/``_need_type``/``_need_rank``,
  two operands of different shapes with ``_need_same_shape``, and a side that does
  not cut into windows or patches with the one tiling rule, ``windows._window_grid``.
- A tape and the tensors recorded on it are confined to one thread;
  independent tapes may run in parallel threads (the active tape is
  thread-local).
- Importing this module tells glibc's allocator, for the whole process,
  to keep freed memory instead of returning it to the kernel: blocks up
  to 1 GiB come from the heap, and the heap is never trimmed.  Every op
  returns a fresh array, so otherwise the next op faults the same pages
  in again; the price is that the process keeps its peak memory.
  Without glibc nothing changes.
- ``conv2d`` has no column matrix.  The zero-padded input is split into
  its stride*stride phases, each a flat grid ``Wq`` columns wide; tap
  (i, j) is one GEMM of the kernel's (C_out, C_in) slice with a
  contiguous run of phase (i % s, j % s) starting at
  ``(i // s) * Wq + j // s``.  Output rows are computed ``Wq`` wide and
  the columns past the true width dropped; backward feeds zeros there.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BYTES = 1 << 30


def _keep_freed_memory():
    # glibc's mallopt.  Elsewhere the symbol is missing (AttributeError) or
    # the process image cannot be opened by name None (OSError, TypeError).
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES)


_keep_freed_memory()

_tls = threading.local()


def _active_tape():
    return getattr(_tls, "tape", None)


class Tensor:
    """A dense float64 array, optionally participating in gradient taping.

    ``data`` is always a numpy float64 array.  ``grad`` is either None or
    an array of the same shape.  Tensors are treated as immutable values
    by all operations; only the optimizer mutates ``data`` in place,
    between tapes.  ``Tensor(data)`` rejects data that is None, not an array
    of reals or non-finite; op outputs and ``detach`` are built by
    ``_record``, which skips those checks.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        if data is None:  # np.asarray would make it a 0-d NaN
            raise ContractError("Tensor: no data, got None")
        try:
            self.data = np.asarray(data, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:
            raise ContractError(f"Tensor: data {data!r} is not an array of finite reals") from e
        _need_finite(self.data, "Tensor: data")
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's data, outside the tape."""
        return _record(self.data, (), None)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of executed differentiable operations.

    Records are appended in execution order, so an operation's inputs are
    always recorded before the operation itself; ``backward`` exploits
    this by walking the list once in reverse.
    """

    def __init__(self):
        self._records: list[_Node] = []

    def __enter__(self):
        if _active_tape() is not None:
            raise ContractError("a Tape is already active in this thread")
        _tls.tape = self
        return self

    def __exit__(self, *exc):
        _tls.tape = None
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

        ``loss`` must be a scalar Tensor (shape ``()``).  May be called more than
        once on the same tape (e.g. for two different losses); leaf grads
        accumulate across calls.
        """
        _need_type(loss, Tensor, "backward: loss")
        if loss.shape != ():
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._records:
            raise ContractError("backward called on an empty tape")
        # Keyed by the tensor itself: a Tensor hashes by identity.
        grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
        for node in reversed(self._records):
            g = grads.pop(node.out, None)
            if g is None:
                continue
            for t, gin in zip(node.inputs, node.backward(g)):
                if t.requires_grad:
                    prev = grads.get(t)
                    grads[t] = gin if prev is None else prev + gin
        # Only leaves remain: each produced tensor's gradient was popped at its
        # own record, which the reverse walk reaches after all its consumers.
        for t, g in grads.items():
            if t.requires_grad:
                # np.array: an owned array even for a 0-d leaf, where t.grad + g is a numpy scalar.
                t.grad = np.array(g if t.grad is None else t.grad + g, dtype=np.float64)


def zero_grad(params: Iterable[Tensor]):
    for p in params:
        p.grad = None


def _record(value: np.ndarray, inputs: Sequence[Tensor], backward: Callable | None) -> Tensor:
    """The one constructor of op outputs: ``value`` as a Tensor, without the finiteness scan.

    With a tape active and an input that requires grad, the output requires
    grad and the tape gets one record of it; otherwise it is a plain value.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(value)  # a numpy scalar (a reduction, an op on 0-d input) becomes a 0-d array
    out.grad = None
    tape = _active_tape()
    out.requires_grad = tape is not None and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        tape._records.append(_Node(out, tuple(inputs), backward))
    return out


# ---------------------------------------------------------------------------
# elementwise suite


def _need_same_shape(a: Tensor, b: Tensor, opname: str):
    if a.shape != b.shape:
        raise DimensionError(f"{opname}: operand shapes {a.shape} and {b.shape} differ")


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_real(value) -> bool:
    try:  # isfinite raises OverflowError on an int too large for a float64
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _need_int(value, least: int, what: str):
    if not _is_int(value, least):
        raise ContractError(f"{what} must be an int >= {least}, got {value!r}")


def _need_type(value, cls: type, what: str):
    if not isinstance(value, cls):
        raise ContractError(f"{what} must be a {cls.__name__}, got {value!r}")


def _need_finite(arr: np.ndarray, what: str):
    if not np.isfinite(arr).all():
        i = int(np.argmin(np.isfinite(arr)))
        raise ContractError(f"{what} has non-finite entry {arr.flat[i]} at flat index {i}")


def _need_rank(x: Tensor, layout: str, what: str):
    """Raise DimensionError naming x's shape unless x has one axis per name in layout.

    layout reads like "[C,H,W]"; a leading "..." ("[...,L,d]") admits any
    number of further leading axes.
    """
    axes = layout[1:-1].split(",")
    if x.ndim != len(axes) and not (axes[0] == "..." and x.ndim >= len(axes) - 1):
        raise DimensionError(f"{what}: expected {layout}, got shape {x.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "add")
    return _record(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "sub")
    return _record(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "mul")
    return _record(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, s: float) -> Tensor:
    if not _is_real(s):
        raise ContractError(f"scale: factor must be a finite real, got {s!r}")
    return _record(x.data * s, (x,), lambda g: (g * s,))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not _is_real(slope):
        raise ContractError(f"leaky_relu: slope must be a finite real, got {slope!r}")
    y = np.where(x.data > 0.0, x.data, slope * x.data)
    return _record(y, (x,), lambda g: (g * np.where(x.data > 0.0, 1.0, slope),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Overflow-safe logistic.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _record(s, (x,), lambda g: (g * s * (1.0 - s),))


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0.0):
        i = int(np.argmax(x.data < 0.0))
        raise DomainError(f"sqrt: input has negative entry {x.data.flat[i]} at flat index {i}")
    r = np.sqrt(x.data)
    return _record(r, (x,), lambda g: (g * (0.5 / np.maximum(r, 1e-300)),))


def square(x: Tensor) -> Tensor:
    return _record(x.data * x.data, (x,), lambda g: (g * (2.0 * x.data),))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow; backward is sigmoid(x)."""
    return _record(np.logaddexp(0.0, x.data), (x,), lambda g: (g * _sigmoid(x.data),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form); smooth, so FD-checkable."""
    d = x.data
    # t becomes tanh(C*d*(1 + 0.044715*d^2)); multiplications only, since numpy
    # runs d**3 through pow, about 40x slower than d*d*d.
    # The out= buffers keep t an array for 0-d input too, so tanh can write into it.
    t = np.multiply(d, d, out=np.empty_like(d))
    t *= 0.044715
    t += 1.0
    t *= d
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= d
    y *= 0.5

    def back(g):
        # g * (0.5*(1 + t) + 0.5*d*(1 - t^2)*C*(1 + 3*0.044715*d^2))
        r = np.multiply(d, d, out=np.empty_like(d))
        r *= 3 * 0.044715
        r += 1.0
        r *= d
        r *= 0.5 * _GELU_C
        s = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, s, out=s)
        r *= s
        np.add(t, 1.0, out=s)
        s *= 0.5
        r += s
        r *= g
        return (r,)

    return _record(y, (x,), back)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; both operands 2-D, or stacked with equal batch dims."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible operand shapes {a.shape} and {b.shape}")

    def back(g):
        return (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g)

    return _record(a.data @ b.data, (a, b), back)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], broadcasting b over all leading axes."""
    _need_rank(x, "[...,d]", "add_bias")
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"add_bias: bias shape {b.shape} does not match input shape {x.shape}")

    def back(g):
        return (g, g.reshape(-1, b.shape[0]).sum(axis=0))

    return _record(x.data + b.data, (x, b), back)


def softmax(x: Tensor) -> Tensor:
    _need_rank(x, "[...,d]", "softmax")
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def back(g):
        r = g * y
        inner = r.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=r)
        r *= y
        return (r,)

    return _record(y, (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize to zero mean / unit variance (eps 1e-5) along the last axis, then affine."""
    _need_rank(x, "[...,d]", "layer_norm")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match last axis {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv

    def back(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        gx = g * gamma.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return (dx, dgamma, dbeta)

    return _record(xhat * gamma.data + beta.data, (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape) -> Tensor:
    """x in the given shape: an int or a tuple of ints >= -1, where one -1 is inferred."""
    if not all(_is_int(n, -1) for n in (shape if isinstance(shape, tuple) else (shape,))):
        raise DimensionError(f"reshape: target shape {shape!r} is not an int or a tuple of ints >= -1")
    try:
        out_arr = x.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape: cannot view shape {x.shape} as {shape!r}") from e
    return _record(out_arr, (x,), lambda g: (np.ascontiguousarray(g).reshape(x.shape),))


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if not (
        isinstance(axes, tuple)
        and all(_is_int(a, 0) for a in axes)
        and sorted(axes) == list(range(x.ndim))
    ):
        raise DimensionError(f"permute: axes {axes!r} are not a tuple permuting 0..{x.ndim - 1}")
    inv = tuple(np.argsort(axes))
    return _record(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractError("concat: empty tensor list")
    shapes = [t.shape for t in tensors]
    ndim = len(shapes[0])
    if not _is_int(axis, -ndim) or axis >= ndim:
        raise DimensionError(f"concat: axis {axis!r} invalid for shape {shapes[0]}")
    axis %= ndim
    if len({s[:axis] + s[axis + 1 :] for s in shapes}) > 1:
        raise DimensionError(f"concat: shapes {shapes} differ off axis {axis}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), back)


def crop(x: Tensor, top: int, left: int, height: int, width: int) -> Tensor:
    """Slice the last two axes; backward scatters the gradient back."""
    _need_rank(x, "[...,H,W]", "crop")
    H, W = x.shape[-2], x.shape[-1]
    for what, value, least in (("top", top, 0), ("left", left, 0), ("height", height, 1), ("width", width, 1)):
        _need_int(value, least, f"crop: {what}")
    if top + height > H or left + width > W:
        raise DimensionError(f"crop: rect ({top},{left},{height},{width}) outside {H}x{W}")

    def back(g):
        gx = np.zeros_like(x.data)
        gx[..., top : top + height, left : left + width] = g
        return (gx,)

    return _record(np.ascontiguousarray(x.data[..., top : top + height, left : left + width]), (x,), back)


def mean(x: Tensor) -> Tensor:
    """Mean over every element, as a scalar."""
    n = x.size
    return _record(x.data.mean(), (x,), lambda g: (np.full(x.shape, float(g) / n),))


def tsum(x: Tensor) -> Tensor:
    """Sum over every element, as a scalar."""
    return _record(x.data.sum(), (x,), lambda g: (np.full(x.shape, float(g)),))


def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of a [C,H,W] tensor."""
    _need_rank(x, "[C,H,W]", "upsample_nearest")
    C, H, W = x.shape

    def back(g):
        return (g.reshape(C, H, 2, W, 2).sum(axis=(2, 4)),)

    return _record(np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2), (x,), back)


# ---------------------------------------------------------------------------
# convolutions


def _stride_phases(x: np.ndarray, s: int, pad: int, tail: int):
    """Zero-pad (C,H,W) by ``pad`` and split it into its s*s stride phases.

    Returns ``(phases, Wq)``: ``phases[pi*s + pj, c]`` is the flattened
    ``padded[c, pi::s, pj::s]`` grid, ``Wq`` columns wide, followed by at
    least ``tail`` zeros so a tap slice may run past the last row.  For
    s = 1 the split is a view of the padded copy.
    """
    C, H, W = x.shape
    rows = -(-(H + 2 * pad) // s) + (tail > 0)
    Wq = -(-(W + 2 * pad) // s)
    xq = np.zeros((C, rows * s, Wq * s))
    xq[:, pad : pad + H, pad : pad + W] = x
    phases = xq.reshape(C, rows, s, Wq, s).transpose(2, 4, 0, 1, 3)
    return phases.reshape(s * s, C, rows * Wq), Wq


def _from_stride_phases(ph: np.ndarray, H: int, W: int, s: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`_stride_phases`: reassemble the padded grid, crop to (C,H,W)."""
    C = ph.shape[1]
    Wq = -(-(W + 2 * pad) // s)
    rows = ph.shape[2] // Wq
    xq = ph.reshape(s, s, C, rows, Wq).transpose(2, 3, 0, 4, 1).reshape(C, rows * s, Wq * s)
    return np.ascontiguousarray(xq[:, pad : pad + H, pad : pad + W])


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of [C_in,H,W] with [C_out,C_in,kh,kw] kernels, plus a [C_out] bias."""
    _need_rank(x, "[C,H,W]", "conv2d")
    _need_rank(w, "[O,I,kh,kw]", "conv2d: kernels")
    Cin, H, W = x.shape
    Cout, Cw, kh, kw = w.shape
    if Cw != Cin:
        raise DimensionError(f"conv2d: input channels {Cin} do not match kernel channels {Cw}")
    _need_int(stride, 1, "conv2d: stride")
    _need_int(pad, 0, "conv2d: pad")
    if kh > H + 2 * pad or kw > W + 2 * pad:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input {H + 2 * pad}x{W + 2 * pad}")
    if b.shape != (Cout,):
        raise DimensionError(f"conv2d: bias shape {b.shape} does not match {Cout} output channels")

    s = stride
    Ho = (H + 2 * pad - kh) // s + 1
    Wo = (W + 2 * pad - kw) // s + 1
    phases, Wq = _stride_phases(x.data, s, pad, (kw - 1) // s)
    n = Ho * Wq  # output rows are Wq wide; columns c >= Wo are computed, then dropped
    taps = [(i, j, (i % s) * s + j % s, (i // s) * Wq + j // s) for i in range(kh) for j in range(kw)]
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # wt[i, j]: tap (i, j) as (Cout, Cin)
    parts = (wt[i, j] @ phases[ph, :, off : off + n] for i, j, ph, off in taps)
    acc = next(parts)
    for part in parts:
        acc += part

    def back(g):
        gq = np.zeros((Cout, Ho, Wq))
        gq[:, :, :Wo] = g
        gq = gq.reshape(Cout, n)
        xs, _ = _stride_phases(x.data, s, pad, (kw - 1) // s)  # recomputed: cheaper than keeping it alive
        dxs = np.zeros_like(xs)
        dwt = np.empty_like(wt)
        for i, j, ph, off in taps:
            dwt[i, j] = gq @ xs[ph, :, off : off + n].T
            dxs[ph, :, off : off + n] += wt[i, j].T @ gq
        dx = _from_stride_phases(dxs, H, W, s, pad)
        dw = np.ascontiguousarray(dwt.transpose(2, 3, 0, 1))
        return (dx, dw, g.sum(axis=(1, 2)))

    return _record(acc.reshape(Cout, Ho, Wq)[:, :, :Wo] + b.data[:, None, None], (x, w, b), back)
