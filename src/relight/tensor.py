"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are contiguous numpy float64 arrays.  Differentiable operations
executed while a :class:`Tape` is active append a backward rule to it;
``Tape.backward(loss)`` then walks the records in reverse and accumulates
``d loss / d leaf`` into the ``.grad`` of every ``requires_grad`` leaf.
With no active tape every operation is a plain forward computation, which
is how inference runs.

Conventions, fixed here and relied on everywhere else:

- 64-bit floats throughout; desk-scale sizes make memory irrelevant and
  tight gradient-check tolerances possible.
- ``conv2d`` is cross-correlation (no kernel flip).
- Repeated ``backward`` calls accumulate into ``.grad``; use
  :func:`zero_grad` to reset between steps.
- A tape and the tensors recorded on it are confined to one thread;
  independent tapes may run in parallel threads (the active tape is
  thread-local).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

_tls = threading.local()


def _active_tape():
    return getattr(_tls, "tape", None)


class Tensor:
    """A dense float64 array, optionally participating in gradient taping.

    ``data`` is always a numpy float64 array.  ``grad`` is either None or
    an array of the same shape.  Tensors are treated as immutable values
    by all operations; only the optimizer mutates ``data`` in place,
    between tapes.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ContractError("tensor initialised with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal constructor for op outputs: skips the finiteness scan.
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's data, outside the tape."""
        return Tensor._wrap(self.data)

    def zero_grad(self):
        self.grad = None

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def mean(self, axis=None):
        return mean(self, axis)

    def sum(self, axis=None):
        return tsum(self, axis)

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else shift(self, -float(other))

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

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

        ``loss`` must be a scalar (shape ``()``).  May be called more than
        once on the same tape (e.g. for two different losses); leaf grads
        accumulate across calls.
        """
        if loss.shape != ():
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._records:
            raise ContractError("backward called on an empty tape")
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for node in reversed(self._records):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            holders.pop(id(node.out), None)
            for t, gin in zip(node.inputs, node.backward(g)):
                if gin is None or not t.requires_grad:
                    continue
                prev = grads.get(id(t))
                grads[id(t)] = gin if prev is None else prev + gin
                holders[id(t)] = t
        # Only leaves remain: each produced tensor's gradient was popped at its
        # own record, which the reverse walk reaches after all its consumers.
        for tid, g in grads.items():
            t = holders[tid]
            if t.requires_grad:
                g = np.broadcast_to(g, t.shape).astype(np.float64, copy=False)
                t.grad = g.copy() if t.grad is None else t.grad + g


def zero_grad(params: Iterable[Tensor]):
    for p in params:
        p.grad = None


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable):
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._records.append(_Node(out, tuple(inputs), backward))
    return out


# ---------------------------------------------------------------------------
# elementwise suite


def _need_same_shape(a: Tensor, b: Tensor, opname: str):
    if a.shape != b.shape:
        raise DimensionError(f"{opname}: operand shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "add")
    out = Tensor._wrap(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)
    return _record(out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)
    return _record(out, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, s: float) -> Tensor:
    out = Tensor._wrap(x.data * s)
    return _record(out, (x,), lambda g: (g * s,))


def shift(x: Tensor, c: float) -> Tensor:
    """x + c for a plain scalar c."""
    out = Tensor._wrap(x.data + c)
    return _record(out, (x,), lambda g: (g,))


def relu(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(x.data, 0.0))
    return _record(out, (x,), lambda g: (g * (x.data > 0.0),))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    out = Tensor._wrap(np.where(x.data > 0.0, x.data, slope * x.data))
    return _record(out, (x,), lambda g: (g * np.where(x.data > 0.0, 1.0, slope),))


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
    out = Tensor._wrap(s)
    return _record(out, (x,), lambda g: (g * s * (1.0 - s),))


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0.0):
        raise DomainError("sqrt: input has negative entries")
    r = np.sqrt(x.data)
    out = Tensor._wrap(r)
    return _record(out, (x,), lambda g: (g * (0.5 / np.maximum(r, 1e-300)),))


def square(x: Tensor) -> Tensor:
    out = Tensor._wrap(x.data * x.data)
    return _record(out, (x,), lambda g: (g * (2.0 * x.data),))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow; backward is sigmoid(x)."""
    out = Tensor._wrap(np.logaddexp(0.0, x.data))
    return _record(out, (x,), lambda g: (g * _sigmoid(x.data),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form); smooth, so FD-checkable."""
    d = x.data
    u = _GELU_C * (d + 0.044715 * d**3)
    t = np.tanh(u)
    out = Tensor._wrap(0.5 * d * (1.0 + t))

    def back(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * d * d)
        return (g * (0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * du),)

    return _record(out, (x,), back)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; both operands 2-D, or stacked with equal batch dims."""
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: incompatible operand shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}")
    out = Tensor._wrap(a.data @ b.data)

    def back(g):
        return (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g)

    return _record(out, (a, b), back)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], broadcasting b over all leading axes."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"add_bias: bias shape {b.shape} does not match input shape {x.shape}")
    out = Tensor._wrap(x.data + b.data)

    def back(g):
        return (g, g.reshape(-1, b.shape[0]).sum(axis=0))

    return _record(out, (x, b), back)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} invalid for shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._wrap(y)

    def back(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _record(out, (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along the last axis, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match last axis {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor._wrap(xhat * gamma.data + beta.data)

    def back(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        gx = g * gamma.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return (dx, dgamma, dbeta)

    return _record(out, (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape) -> Tensor:
    try:
        out_arr = x.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape: cannot view shape {x.shape} as {tuple(shape)}") from e
    out = Tensor._wrap(out_arr)
    return _record(out, (x,), lambda g: (np.ascontiguousarray(g).reshape(x.shape),))


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"permute: axes {axes} are not a permutation of 0..{x.ndim - 1}")
    inv = tuple(np.argsort(axes))
    out = Tensor._wrap(x.data.transpose(axes))
    return _record(out, (x,), lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractError("concat: empty tensor list")
    out = Tensor._wrap(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(out, tuple(tensors), back)


def crop(x: Tensor, top: int, left: int, height: int, width: int) -> Tensor:
    """Slice the last two axes; backward scatters the gradient back."""
    H, W = x.shape[-2], x.shape[-1]
    if not (0 <= top and 0 <= left and height > 0 and width > 0 and top + height <= H and left + width <= W):
        raise DimensionError(f"crop: rect ({top},{left},{height},{width}) outside {H}x{W}")
    out = Tensor._wrap(np.ascontiguousarray(x.data[..., top : top + height, left : left + width]))

    def back(g):
        gx = np.zeros_like(x.data)
        gx[..., top : top + height, left : left + width] = g
        return (gx,)

    return _record(out, (x,), back)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor._wrap(np.asarray(x.data.mean(axis=axis)))
    if axis is None:
        n = x.size
        back = lambda g: (np.full(x.shape, float(g) / n),)
    else:
        n = x.shape[axis]
        back = lambda g: (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)
    return _record(out, (x,), back)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor._wrap(np.asarray(x.data.sum(axis=axis)))
    if axis is None:
        back = lambda g: (np.full(x.shape, float(g)),)
    else:
        back = lambda g: (np.repeat(np.expand_dims(g, axis), x.shape[axis], axis=axis),)
    return _record(out, (x,), back)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbour spatial upsampling of a [C,H,W] tensor."""
    if x.ndim != 3:
        raise DimensionError(f"upsample_nearest: expected [C,H,W], got shape {x.shape}")
    if factor < 1:
        raise ContractError("upsample_nearest: factor must be >= 1")
    C, H, W = x.shape
    out = Tensor._wrap(np.repeat(np.repeat(x.data, factor, axis=1), factor, axis=2))

    def back(g):
        return (g.reshape(C, H, factor, W, factor).sum(axis=(2, 4)),)

    return _record(out, (x,), back)


# ---------------------------------------------------------------------------
# convolutions


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(C,H,W) -> column matrix (C*kh*kw, H'*W') plus the output geometry."""
    C, H, W = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    Hp, Wp = x.shape[1], x.shape[2]
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, :: stride, :: stride]  # (C, Ho, Wo, kh, kw)
    cols = win.transpose(0, 3, 4, 1, 2).reshape(C * kh * kw, Ho * Wo)
    return np.ascontiguousarray(cols), Ho, Wo


def _col2im(cols: np.ndarray, C: int, H: int, W: int, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add columns back onto a (C,H,W) grid."""
    Hp, Wp = H + 2 * pad, W + 2 * pad
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    blocks = cols.reshape(C, kh, kw, Ho, Wo)
    out = np.zeros((C, Hp, Wp), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + Ho * stride : stride, j : j + Wo * stride : stride] += blocks[:, i, j]
    if pad:
        out = out[:, pad : Hp - pad, pad : Wp - pad]
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of [C_in,H,W] with [C_out,C_in,kh,kw] kernels."""
    if x.ndim != 3 or w.ndim != 4:
        raise DimensionError(f"conv2d: expected [C,H,W] and [O,I,kh,kw], got {x.shape} and {w.shape}")
    Cin, H, W = x.shape
    Cout, Cw, kh, kw = w.shape
    if Cw != Cin:
        raise DimensionError(f"conv2d: input channels {Cin} do not match kernel channels {Cw}")
    if stride < 1:
        raise ContractError("conv2d: stride must be >= 1")
    if kh > H + 2 * pad or kw > W + 2 * pad:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input {H + 2 * pad}x{W + 2 * pad}")
    if b is not None and b.shape != (Cout,):
        raise DimensionError(f"conv2d: bias shape {b.shape} does not match {Cout} output channels")

    cols, Ho, Wo = _im2col(x.data, kh, kw, stride, pad)
    y = (w.data.reshape(Cout, -1) @ cols).reshape(Cout, Ho, Wo)
    if b is not None:
        y = y + b.data[:, None, None]
    out = Tensor._wrap(y)

    def back(g):
        gm = g.reshape(Cout, -1)
        cols_b, _, _ = _im2col(x.data, kh, kw, stride, pad)  # recomputed: cheaper than keeping it alive
        dw = (gm @ cols_b.T).reshape(w.shape)
        dcols = w.data.reshape(Cout, -1).T @ gm
        dx = _col2im(dcols, Cin, H, W, kh, kw, stride, pad)
        db = g.sum(axis=(1, 2)) if b is not None else None
        return (dx, dw, db) if b is not None else (dx, dw)

    inputs = (x, w) if b is None else (x, w, b)
    return _record(out, inputs, back)
