"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are numpy float64 arrays, not all contiguous (``permute`` returns a
view, ``conv2d`` a strided view of an array it allocated).  Differentiable
operations executed while a :class:`Tape` is active append a backward rule
to it; ``Tape.backward(loss)`` then walks the records in reverse and
accumulates ``d loss / d leaf`` into the ``.grad`` of every
``requires_grad`` leaf.  With no active tape every operation is a plain
forward computation, which is how inference runs.

Conventions, fixed here and relied on everywhere else:

- 64-bit floats throughout; they make tight gradient-check tolerances
  possible, at twice float32's memory.  Memory is what bounds the image
  size.  The tape's records set the peak of a train step.  Attention scores
  grow with the square of the token count, but ``attention.mhsa`` computes
  them one strip of query rows at a time, and the local branch and the
  fusion head run on image strips; so the peak of a large forward is set
  by full-size feature maps, in the patch recovery convs.
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
- A record keeps its closure and its inputs' keys, never array data; a
  closure keeps only the arrays its backward reads.  An input's key is its
  own record on this tape, the input itself if it is a leaf here (a tensor
  made on another tape included), or None if it needs no grad.  So an
  activation no backward reads is freed as soon as the caller drops it,
  and only the tape keeps records alive: a record holds its output, and a
  tensor its record, by weak reference.
- An int argument is an ``int``, never a ``bool`` or a numpy integer,
  checked by ``_is_int``; a shape is an int or a tuple of them.  A real
  argument is a finite ``numbers.Real``, never a ``bool`` (``_is_real``).
- Every module rejects a bad int, type or rank with ``_need_int``/``_need_type``/``_need_rank``,
  two operands of different shapes with ``_need_same_shape``, and a side that does
  not cut into windows or patches with the one tiling rule, ``windows._window_grid``.
  A function reads its parameters by dotted name through ``_params``, which names a missing one.
- A tape and the tensors recorded on it are confined to one thread;
  independent tapes may run in parallel threads (the active tape is
  thread-local).  A forward with no tape runs its strips on the two
  worker threads of ``attention._by_strips``, which have no tape either.
- Importing this module tells glibc's allocator, for the whole process,
  to keep freed memory instead of returning it to the kernel: blocks up
  to 1 GiB come from the heap, and the heap is never trimmed.  Every op
  returns a fresh array, so otherwise the next op faults the same pages
  in again; the price is that the process keeps its peak memory.  All
  threads share one arena: a strip worker would otherwise get an arena of
  its own, which, never trimmed, would keep a peak of its own.
  Without glibc nothing changes.
- One reduction rule: a sum over the last axis is ``_sum_last`` and a sum
  over every axis but the last is ``_sum_lead``, each one BLAS product with
  a vector of ones.  numpy reduces the short rows of attention and
  layer_norm one at a time, at more than ``exp`` costs per element.  A
  tier-1 guard keeps every other ``.sum``/``.mean``/``.max`` over an axis
  out of this module; ``upsample_nearest`` adds its 2x2 blocks up by hand.
  softmax's row max is ``np.fmax.reduce``, twice as fast as ``.max`` on
  64-logit rows.
- ``conv2d`` has no column matrix.  The zero-padded input is split into
  its stride*stride phases, each a flat grid ``Wq`` columns wide; tap
  (i, j) is one GEMM of the kernel's (C_out, C_in) slice with a
  contiguous run of phase (i % s, j % s) starting at
  ``(i // s) * Wq + j // s``.  The taps add up one column block at a
  time, each tap after the first through one reused buffer: ``_blocks``
  cuts the columns into blocks of about ``_BLOCK_BYTES`` (2 MiB) of
  output, each a multiple of 64 columns, so every tap finds its block in
  cache (Goto & van de Geijn, "Anatomy of High-Performance Matrix
  Multiplication", TOMS 2008).  Blocks change no bit of a result where the
  column count is a multiple of 8, as in every conv at 64² and 256²;
  elsewhere the BLAS may round the last few columns differently.  Output
  rows are computed ``Wq`` wide into one accumulator, which also takes the
  bias in place; the op returns the strided view that drops the columns
  past the true width, with no full-size copy.  Backward feeds zeros there.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import numbers
import threading
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_KEEP_BYTES = 1 << 30
_BLOCK_BYTES = 2 << 20  # one column block of conv2d's output


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
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_memory()

_tls = threading.local()
_tape_serials = itertools.count()


def _active_tape():
    return getattr(_tls, "tape", None)


class Tensor:
    """A dense float64 array, optionally participating in gradient taping.

    ``data`` is always a numpy float64 array.  ``grad`` is either None or
    an array of the same shape.  Tensors are treated as immutable values
    by all operations; only the optimizer mutates ``data`` in place,
    between tapes.  ``Tensor(data)`` rejects data that is None, not an array
    of bools, ints or floats (strings, dates, complex and object arrays
    included) or non-finite, and a ``requires_grad`` that is not a ``bool``;
    op outputs and ``detach`` are built by ``_record``, which skips those
    checks.  ``_node`` is a weak reference to the record that made
    the tensor, or None for a leaf; ``__weakref__`` lets a record refer to
    its output without keeping it alive.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if data is None:
            raise ContractError("Tensor: no data, got None")
        try:
            arr = np.asarray(data)
        except (TypeError, ValueError) as e:
            raise ContractError(f"Tensor: data {data!r} is not an array of finite reals") from e
        # A float64 conversion would parse strings, bytes and dates, and drop an imaginary part with only a warning.
        if arr.dtype.kind not in "biuf":
            raise ContractError(f"Tensor: data {data!r} of dtype {arr.dtype} is not an array of reals")
        self.data = arr.astype(np.float64, copy=False)
        _need_finite(self.data, "Tensor: data")
        _need_type(requires_grad, bool, "Tensor: requires_grad")
        self.requires_grad = requires_grad
        self.grad = None
        self._node = None

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
    """One record: an op's backward closure and, per input, the key its gradient goes to."""

    __slots__ = ("_out", "keys", "backward", "tape_serial", "__weakref__")

    def __init__(self, out, keys, backward, tape_serial):
        self._out = weakref.ref(out)
        self.keys = keys
        self.backward = backward
        self.tape_serial = tape_serial

    @property
    def out(self):
        """The op's output while something else keeps it alive (the record holds it weakly), else None."""
        return self._out()


class Tape:
    """Ordered record of executed differentiable operations.

    Records are appended in execution order, so an operation's inputs are
    always recorded before the operation itself; ``backward`` exploits
    this by walking the list once in reverse.  Each tape has its own
    serial, and a record the one of its tape, so a tensor made on another
    tape is a leaf of this one.
    """

    def __init__(self):
        self._records: list[_Node] = []
        self._serial = next(_tape_serials)

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

    def _key(self, t: Tensor):
        """Where t's gradient collects: its record on this tape, t itself if a leaf here, None if it needs none."""
        if not t.requires_grad:
            return None
        node = t._node() if t._node is not None else None
        return node if node is not None and node.tape_serial == self._serial else t

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

        ``loss`` must be a scalar Tensor (shape ``()``).  May be called more than
        once on the same tape (e.g. for two different losses); leaf grads
        accumulate across calls.
        """
        _need_type(loss, Tensor, "backward: loss")
        if loss.shape != ():
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._node is not None and self._key(loss) is loss:
            raise ContractError(f"backward: loss {loss!r} was recorded on another tape")
        if not self._records:
            raise ContractError("backward called on an empty tape")
        # Keyed by record or leaf, each of which hashes by identity.
        grads: dict[_Node | Tensor | None, np.ndarray] = {self._key(loss): np.ones((), dtype=np.float64)}
        for node in reversed(self._records):
            g = grads.pop(node, None)
            if g is None:
                continue
            for key, gin in zip(node.keys, node.backward(g)):
                if key is not None:
                    prev = grads.get(key)
                    grads[key] = gin if prev is None else prev + gin
        # Only leaves remain (and None, for a loss that needs no grad): the reverse
        # walk popped each record's gradient after all its consumers had added to it.
        for t, g in grads.items():
            if t is not None:
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
    out._node = None
    tape = _active_tape()
    keys = tuple(tape._key(t) for t in inputs) if tape is not None else ()
    out.requires_grad = any(key is not None for key in keys)
    if out.requires_grad:
        node = _Node(out, keys, backward, tape._serial)
        tape._records.append(node)
        out._node = weakref.ref(node)
    return out


# ---------------------------------------------------------------------------
# reductions and blocks


def _sum_last(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis, which is kept with length 1: one BLAS product with ones."""
    lead, n = x.shape[:-1], x.shape[-1]
    return (x.reshape(math.prod(lead), n) @ np.ones(n)).reshape(*lead, 1)


def _sum_lead(x: np.ndarray) -> np.ndarray:
    """x summed over every axis but the last: one BLAS product with ones."""
    rows = math.prod(x.shape[:-1])
    return np.ones(rows) @ x.reshape(rows, x.shape[-1])


def _blocks(n: int, item_bytes: int) -> list[slice]:
    """range(n) cut into slices of _BLOCK_BYTES worth of items, item_bytes each.

    A block is a multiple of 64 items, so each one starts on the GEMM column
    panel an unblocked pass would; only the last is shorter.  There is always
    a first block, the widest, even for n = 0.
    """
    step = max(64, _BLOCK_BYTES // item_bytes // 64 * 64)
    return [slice(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]


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


def _params(p: dict[str, Tensor], prefix: str, what: str) -> Callable[[str], Tensor]:
    """The reader of p under prefix: name -> p[f"{prefix}.{name}"] (p[name] for an empty prefix),
    raising ContractError that names the dotted name p lacks."""

    def param(name: str) -> Tensor:
        dotted = f"{prefix}.{name}" if prefix else name
        if dotted not in p:
            raise ContractError(f"{what}: missing parameter {dotted!r}")
        return p[dotted]

    return param


def _need_rank(x: Tensor, layout: str, what: str):
    """Raise DimensionError naming x's shape unless x has one axis per name in layout.

    layout reads like "[C,H,W]"; a leading "..." ("[...,L,d]") admits any
    number of further leading axes.
    """
    axes = layout[1:-1].split(",")
    if x.ndim != len(axes) and not (axes[0] == "..." and x.ndim >= len(axes) - 1):
        raise DimensionError(f"{what}: expected {layout}, got shape {x.shape}")


def _need_rows(x: Tensor, what: str):
    """Raise DimensionError naming x's shape unless x has a last axis and it is not empty."""
    _need_rank(x, "[...,d]", what)
    if x.shape[-1] == 0:
        raise DimensionError(f"{what}: expected a non-empty last axis, got shape {x.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "add")
    return _record(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "sub")
    return _record(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _record(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, s: float) -> Tensor:
    if not _is_real(s):
        raise ContractError(f"scale: factor must be a finite real, got {s!r}")
    return _record(x.data * s, (x,), lambda g: (g * s,))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    """max(slope*x, x), which is x where x > 0 and slope*x elsewhere for a finite real slope <= 1.

    At slope 0 an entry of +inf comes out NaN (0*inf), not +inf.
    """
    if not (_is_real(slope) and slope <= 1):
        raise ContractError(f"leaky_relu: slope must be a finite real <= 1, got {slope!r}")
    positive = x.data > 0.0  # kept by backward in place of x: one byte an entry
    # out= keeps the result an array for a 0-d x, and the max adds no second full-size array.
    y = np.multiply(x.data, slope, out=np.empty_like(x.data))
    np.maximum(y, x.data, out=y)
    return _record(y, (x,), lambda g: (g * np.where(positive, 1.0, slope),))


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
    xd = x.data
    return _record(xd * xd, (x,), lambda g: (g * (2.0 * xd),))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow; backward is sigmoid(x)."""
    xd = x.data
    return _record(np.logaddexp(0.0, xd), (x,), lambda g: (g * _sigmoid(xd),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh form); smooth, so FD-checkable."""
    # t becomes tanh(C*d*(1 + 0.044715*d^2)); multiplications only, since
    # numpy runs d**3 through pow, about 40x slower than d*d*d.  out= keeps
    # each result an array for a 0-d input.
    d = x.data
    t = np.multiply(d, d, out=np.empty(d.shape))
    t *= 0.044715
    t += 1.0
    t *= d
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.add(t, 1.0, out=np.empty(d.shape))
    y *= d
    y *= 0.5

    def back(g):
        # g * (0.5*(1 + t) + 0.5*d*(1 - t^2)*C*(1 + 3*0.044715*d^2))
        r = np.multiply(d, d, out=np.empty(d.shape))
        r *= 3 * 0.044715
        r += 1.0
        r *= d
        r *= 0.5 * _GELU_C
        s = np.multiply(t, t, out=np.empty(d.shape))
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
    ad, bd = a.data, b.data

    def back(g):
        return (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)

    return _record(ad @ bd, (a, b), back)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], broadcasting b over all leading axes."""
    _need_rank(x, "[...,d]", "add_bias")
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"add_bias: bias shape {b.shape} does not match input shape {x.shape}")

    def back(g):
        return (g, _sum_lead(g))

    return _record(x.data + b.data, (x, b), back)


def softmax(x: Tensor) -> Tensor:
    _need_rows(x, "softmax")
    # fmax skips a NaN, but x - max then carries it, so a row with a NaN still comes out all NaN.
    y = x.data - np.fmax.reduce(x.data, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= _sum_last(y)

    def back(g):
        r = g * y
        inner = _sum_last(r)
        np.subtract(g, inner, out=r)
        r *= y
        return (r,)

    return _record(y, (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize to zero mean / unit variance (eps 1e-5) along the last axis, then affine."""
    _need_rows(x, "layer_norm")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match last axis {d}")
    mu = _sum_last(x.data) / d
    xc = x.data - mu
    var = _sum_last(xc * xc) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    gd = gamma.data

    def back(g):
        dgamma = _sum_lead(g * xhat)
        dbeta = _sum_lead(g)
        gx = g * gd
        dx = inv * (gx - _sum_last(gx) / d - xhat * (_sum_last(gx * xhat) / d))
        return (dx, dgamma, dbeta)

    return _record(xhat * gd + beta.data, (x, gamma, beta), back)


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
    in_shape = x.shape
    return _record(out_arr, (x,), lambda g: (np.ascontiguousarray(g).reshape(in_shape),))


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
    shape = x.shape

    def back(g):
        gx = np.zeros(shape)
        gx[..., top : top + height, left : left + width] = g
        return (gx,)

    return _record(np.ascontiguousarray(x.data[..., top : top + height, left : left + width]), (x,), back)


def mean(x: Tensor) -> Tensor:
    """Mean over every element, as a scalar; an empty x raises DimensionError naming its shape."""
    n, shape = x.size, x.shape
    if n == 0:
        raise DimensionError(f"mean: expected a non-empty tensor, got shape {shape}")
    return _record(x.data.mean(), (x,), lambda g: (np.full(shape, float(g) / n),))


def tsum(x: Tensor) -> Tensor:
    """Sum over every element, as a scalar."""
    shape = x.shape
    return _record(x.data.sum(), (x,), lambda g: (np.full(shape, float(g)),))


def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of a [C,H,W] tensor."""
    _need_rank(x, "[C,H,W]", "upsample_nearest")
    C, H, W = x.shape

    def back(g):
        # The order in which .sum(axis=(2, 4)) adds up a 2x2 block where W > 1, in a sixth of its time or less.
        q = g.reshape(C, H, 2, W, 2)
        return ((q[:, :, 0, :, 0] + q[:, :, 0, :, 1]) + (q[:, :, 1, :, 0] + q[:, :, 1, :, 1]),)

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
    if 0 in (Cout, kh, kw):
        raise DimensionError(f"conv2d: kernel shape {w.shape} has no output channels or no taps")
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
    xd = x.data
    phases, Wq = _stride_phases(xd, s, pad, (kw - 1) // s)
    n = Ho * Wq  # output rows are Wq wide; columns c >= Wo are computed, then dropped
    taps = [(i, j, (i % s) * s + j % s, (i // s) * Wq + j // s) for i in range(kh) for j in range(kw)]
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # wt[i, j]: tap (i, j) as (Cout, Cin)
    acc = np.empty((Cout, n))
    blocks = _blocks(n, 8 * Cout)
    scratch = np.empty((Cout, blocks[0].stop)) if len(taps) > 1 else None  # a 1x1 kernel reads none
    for blk in blocks:
        out = acc[:, blk]
        for k, (i, j, ph, off) in enumerate(taps):
            tap = phases[ph, :, off + blk.start : off + blk.stop]
            if k == 0:
                np.matmul(wt[i, j], tap, out=out)
            else:
                part = scratch[:, : blk.stop - blk.start]
                np.matmul(wt[i, j], tap, out=part)
                out += part
    y = acc.reshape(Cout, Ho, Wq)[:, :, :Wo]  # a view: the bias goes into acc, no full-size copy
    y += b.data[:, None, None]

    def back(g):
        gq = np.zeros((Cout, Ho, Wq))
        gq[:, :, :Wo] = g
        gq = gq.reshape(Cout, n)
        xs, _ = _stride_phases(xd, s, pad, (kw - 1) // s)  # recomputed: cheaper than keeping it alive
        dxs = np.zeros_like(xs)
        dwt = np.empty_like(wt)
        for i, j, ph, off in taps:
            dwt[i, j] = gq @ xs[ph, :, off : off + n].T
            dxs[ph, :, off : off + n] += wt[i, j].T @ gq
        dx = _from_stride_phases(dxs, H, W, s, pad)
        dw = np.ascontiguousarray(dwt.transpose(2, 3, 0, 1))
        return (dx, dw, _sum_last(g.reshape(Cout, Ho * Wo)).reshape(Cout))

    return _record(y, (x, w, b), back)
