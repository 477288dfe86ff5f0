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
  size.  The tape's records set the peak of a train step, so the recompute
  rule: a part that keeps much for its backward and costs little to compute
  again runs through ``recompute``, whose record keeps only its operands and
  whose backward computes the part again.  Each transformer block's MLP half
  does (``attention.transformer_block``); one taped 64x64 forward keeps
  20.6 MiB.  Attention scores grow with the square of the token count, but
  ``attention.mhsa`` computes them one strip of query rows at a time.
  After the global branch's token grid, a forward is one pipeline of image
  strips (``generator.forward``) that makes no full-size feature map: it
  holds the strips in flight and its 3-channel output, twice while the
  output strips are joined.
- ``conv2d`` is cross-correlation (no kernel flip).
- Repeated ``backward`` calls accumulate into ``.grad``; use
  :func:`zero_grad` to reset between steps.
- An op writes in place only into arrays it has just allocated itself:
  never into an input's ``.data``, an array a backward closure keeps, or
  the incoming gradient ``g`` (``add`` hands the same ``g`` to both of
  its inputs, and a second ``backward`` reuses every kept array).
- Every op is declared by ``@_op`` and ends in ``return array, backward``; ``_op`` hands both to
  ``_record`` with the op's operands in signature order, and nothing else but ``detach`` builds op
  outputs.  ``_record`` wraps the array and, under a tape with an operand that requires grad,
  appends exactly one record, whose ``.out`` is the returned tensor.  ``_recorded`` is that one test,
  shared with ``gelu``, which makes its derivative only for a record.
- A record keeps its closure and its inputs' keys, never array data; a
  closure keeps only the arrays its backward reads, or fewer arrays made
  from them in the forward (``gelu`` keeps its derivative, not its input
  and 1 + exp(-2u); ``recompute`` keeps its operands, from which it computes
  again what its backward reads).  An input's key is its own record on this
  tape, the input itself if it is a leaf here (a tensor made on another tape
  included: ``recompute``'s operands on its private tape), or None if it
  needs no grad.  ``sub``, ``mul``, ``matmul`` and ``conv2d`` compute no
  gradient for an input whose key is None (their backward returns None
  there) and keep only what the other gradients read.  ``recompute`` also
  returns None for an operand fn does not read or an earlier slot repeats,
  and ``Tape._walk`` skips a None gradient.  So an activation no backward
  reads is freed as soon as the caller drops it, and only the tape keeps
  records alive: a record holds its output, and a tensor its record, by
  weak reference.
- An int argument is an ``int``, never a ``bool`` or a numpy integer,
  checked by ``_is_int``; a shape is an int or a tuple of them.  A real
  argument is a finite ``numbers.Real``, never a ``bool`` (``_is_real``).
- Every module rejects a bad int, type or rank with ``_need_int``/``_need_type``/``_need_rank``, two operands
  of different shapes with ``_need_same_shape``, and a side that does not cut into windows or patches with the
  one tiling rule, ``windows._window_grid``.  ``_op`` type-checks an op's operands before the op runs:
  its parameters annotated ``Tensor`` and the items of a list or tuple annotated ``Sequence[Tensor]``.
  A function reads its parameters by dotted name through ``_params``, which names a missing one.
- A tape and the tensors recorded on it are confined to one thread;
  independent tapes may run in parallel threads (the active tape is
  thread-local).  ``recompute`` sets the thread's tape aside while its
  function runs in the forward; in the backward it makes a private tape
  the thread's active one while the function runs again, then walks it
  itself.  Both times the tape before is restored on leaving, also on an
  error, so its backward may run while a tape is active.  A forward with
  no tape runs its strips on the two worker threads of its one pool,
  ``attention._pooled``, which have no tape either.
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
- softmax shifts no row when every entry lies within ±600 (float64 only):
  softmax does not change when a row is shifted, and there ``exp`` neither
  overflows a row sum nor goes subnormal (e^-600 is about 2.6e-261), so
  the only difference from the shifted form is rounding.  Otherwise, NaN
  and ±inf included, each row is shifted by its ``np.fmax.reduce`` max,
  twice as fast as ``.max`` on 64-logit rows.  The range test is on the
  whole array, so one row outside it shifts every row.
- ``conv2d`` has no column matrix.  Its ``pad`` is one int for every side
  or a ``(top, bottom, left, right)`` tuple, so a row strip can pad only
  the sides that are the map's own edges.  The zero-padded input is split into
  its stride*stride phases, each a flat grid ``Wq`` columns wide; tap
  (i, j) is one GEMM of the kernel's (C_out, C_in) slice with a
  contiguous run of phase (i % s, j % s) starting at
  ``(i // s) * Wq + j // s``.  The taps add up into one accumulator, each
  tap after the first through one reused buffer of the same size.  Output
  rows are computed ``Wq`` wide into the accumulator, which also takes the
  bias in place; the op returns the strided view that drops the columns
  past the true width, with no full-size copy.  Backward feeds zeros there.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import inspect
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


@contextlib.contextmanager
def _tape_in_place(tape: Tape | None):
    """Make tape (None for none) the thread's active tape inside the block, and the one before it again on
    leaving, also on an error.  Unlike ``with Tape()``, it may replace an active tape: ``recompute`` sets the
    caller's aside."""
    saved = _active_tape()
    _tls.tape = tape
    try:
        yield tape
    finally:
        _tls.tape = saved


class Tensor:
    """A dense float64 array, optionally participating in gradient taping.

    ``data`` is always a numpy float64 array.  ``grad`` is either None or
    an array of the same shape.  Tensors are treated as immutable values
    by all operations; only the optimizer mutates ``data`` in place,
    between tapes.  ``Tensor(data)`` rejects data that is None, not an array
    of bools, ints or floats (strings, dates, complex and object arrays
    included) or non-finite, and a ``requires_grad`` that is not a ``bool``;
    op outputs and ``detach`` are built by ``_record``, which skips those
    checks, from operands that ``_op`` has checked are Tensors.  ``_node`` is
    a weak reference to the record that made the tensor, or None for a leaf;
    ``__weakref__`` lets a record refer to its output without keeping it alive.
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

    # numpy defers ``ndarray @ Tensor`` to __rmatmul__, whose operand rule names the ndarray.
    __array_ufunc__ = None

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

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
    always recorded before the operation itself; ``_walk`` exploits
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
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf: one ``_walk`` from loss, with gradient 1.

        ``loss`` must be a scalar Tensor (shape ``()``).  May be called more than
        once on the same tape (e.g. for two different losses); leaf grads
        accumulate across calls.  Nothing else sets a ``.grad``.
        """
        _need_type(loss, Tensor, "backward: loss")
        if loss.shape != ():
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._node is not None and self._key(loss) is loss:
            raise ContractError(f"backward: loss {loss!r} was recorded on another tape")
        if not self._records:
            raise ContractError("backward called on an empty tape")
        for t, g in self._walk(loss, np.ones((), dtype=np.float64)).items():
            if t is not None:
                # np.array: an owned array even for a 0-d leaf, where t.grad + g is a numpy scalar.
                t.grad = np.array(g if t.grad is None else t.grad + g, dtype=np.float64)

    def _walk(self, out: Tensor, g: np.ndarray) -> dict:
        """{leaf: its gradient} for out given gradient g (key None for an out that needs no grad); sets no .grad."""
        # Keyed by record or leaf, each of which hashes by identity.
        grads: dict[_Node | Tensor | None, np.ndarray] = {self._key(out): g}
        del out  # only its key is read: an output that only the caller held (recompute's) is freed before the walk
        for node in reversed(self._records):
            g = grads.pop(node, None)
            if g is None:
                continue
            for key, gin in zip(node.keys, node.backward(g)):
                if key is not None and gin is not None:  # None: an input that gets no gradient from this op
                    prev = grads.get(key)
                    grads[key] = gin if prev is None else prev + gin
        return grads  # leaves (and None) only: each record's gradient was popped after all its consumers added to it


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
    out.requires_grad = _recorded(inputs)
    if out.requires_grad:
        tape = _active_tape()
        node = _Node(out, tuple(tape._key(t) for t in inputs), backward, tape._serial)
        tape._records.append(node)
        out._node = weakref.ref(node)
    return out


def _recorded(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on inputs will be recorded: a tape is active and an input requires grad.

    An input's key is None exactly when it does not require grad, so this is
    also whether any key will be set.
    """
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def _op(fn: Callable) -> Callable:
    """Declare fn an op: check its operands (see the module docstring) before it runs, and hand the
    ``(array, backward)`` it returns to ``_record`` with the operands in signature order."""
    signature = inspect.signature(fn)
    kinds = [(i, f"{fn.__name__}: {name}", p.annotation) for i, (name, p) in enumerate(signature.parameters.items())]
    slots = [(i, what, kind != "Tensor") for i, what, kind in kinds if kind in ("Tensor", "Sequence[Tensor]")]

    @functools.wraps(fn)
    def op(*args, **kwargs):
        given = args if len(args) > slots[-1][0] else signature.bind(*args, **kwargs).args  # an operand given by name
        operands = []
        for i, what, many in slots:
            items = given[i] if many else (given[i],)
            if many and not isinstance(items, (list, tuple)):  # a generator would be used up by the first pass
                raise ContractError(f"{what} must be a list or a tuple, got {items!r}")
            for k, t in enumerate(items):
                if not isinstance(t, Tensor):  # an item's name is formatted only for the message
                    _need_type(t, Tensor, f"{what}[{k}]" if many else what)
            operands += items
        value, backward = fn(*args, **kwargs)
        return _record(value, operands, backward)

    return op


# ---------------------------------------------------------------------------
# reductions


def _sum_last(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis, which is kept with length 1: one BLAS product with ones."""
    lead, n = x.shape[:-1], x.shape[-1]
    return (x.reshape(math.prod(lead), n) @ np.ones(n)).reshape(*lead, 1)


def _sum_lead(x: np.ndarray) -> np.ndarray:
    """x summed over every axis but the last: one BLAS product with ones."""
    rows = math.prod(x.shape[:-1])
    return np.ones(rows) @ x.reshape(rows, x.shape[-1])


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


@_op
def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "add")
    return a.data + b.data, lambda g: (g, g)


@_op
def sub(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "sub")
    grad_a, grad_b = a.requires_grad, b.requires_grad
    return a.data - b.data, lambda g: (g if grad_a else None, -g if grad_b else None)


@_op
def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    # Each operand's gradient reads the other operand, so each is kept only if the other requires grad.
    kept_a, kept_b = (ad if b.requires_grad else None), (bd if a.requires_grad else None)
    return ad * bd, lambda g: (None if kept_b is None else g * kept_b, None if kept_a is None else g * kept_a)


@_op
def scale(x: Tensor, s: float) -> Tensor:
    if not _is_real(s):
        raise ContractError(f"scale: factor must be a finite real, got {s!r}")
    return x.data * s, lambda g: (g * s,)


@_op
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
    return y, lambda g: (g * np.where(positive, 1.0, slope),)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Overflow-safe logistic: 1/(1 + e) where x >= 0, e/(1 + e) elsewhere, with e = exp(-|x|) <= 1.
    # out= keeps the result an array for a 0-d x.
    e = np.exp(-np.abs(x), out=np.empty_like(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=e)


@_op
def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return s, lambda g: (g * s * (1.0 - s),)


@_op
def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0.0):
        i = int(np.argmax(x.data < 0.0))
        raise DomainError(f"sqrt: input has negative entry {x.data.flat[i]} at flat index {i}")
    r = np.sqrt(x.data)
    return r, lambda g: (g * (0.5 / np.maximum(r, 1e-300)),)


@_op
def square(x: Tensor) -> Tensor:
    xd = x.data
    return xd * xd, lambda g: (g * (2.0 * xd),)


@_op
def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow; backward is sigmoid(x)."""
    xd = x.data
    return np.logaddexp(0.0, xd), lambda g: (g * _sigmoid(xd),)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_BLOCK = 1 << 15  # entries per block of gelu's passes: 256 KiB of float64, so a block stays in cache


@_op
def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form; smooth, so FD-checkable.

    0.5*(1 + tanh u) = sigmoid(2u), so y = x*s with s = 1/(1 + exp(-2u)) and
    u = C*(x + A*x^3): one ``exp`` where the tanh form needs a ``tanh`` and
    two more passes.  The derivative, s*(1 + 2C*(1 + 3A*x^2)*x*(1 - s)), reads
    x*(1 - s) as x - y.  A recorded gelu computes it in the forward, reusing
    x^2, and its record keeps that one array, not x and 1/s; the backward
    multiplies it by g.  Without a record no derivative is made.  Below x of
    about -21.6, exp(-2u) overflows to inf, so s = 0, y = -0.0 and the
    derivative is 0, as in the tanh form; the op silences overflow, and only
    inside itself.  Where x^2 overflows (|x| above about 1e154) y still comes
    out x or -0.0, but a recorded derivative is NaN, with numpy's warning.

    The passes run on blocks of ``_GELU_BLOCK`` entries of the flat input in
    turn, all of one block's passes before the next block, so each pass reads
    what the one before it left in cache.  x^2 and 1/s live in one pair of
    block-sized scratch arrays reused by every block, so an unrecorded gelu
    holds its output and those two blocks, whatever its size.  Every entry
    goes through the same operations as on the whole array, so the blocks
    change no bit.  A non-contiguous input is copied once to be cut.
    """
    # t becomes 1 + exp(-2u) = 1/s; multiplications only, since numpy runs
    # d**3 through pow, about 40x slower than d*d*d.  out= keeps each result
    # an array for a 0-d input.
    n, recorded = x.size, _recorded((x,))
    y = np.empty(x.shape)
    dydx = np.empty(x.shape) if recorded else None
    # Flat views: reshape of a fresh array is a view, so the blocks write straight into y and dydx.
    xf, yf, df = x.data.reshape(-1), y.reshape(-1), dydx.reshape(-1) if recorded else None
    sq_block, t_block = np.empty(min(n, _GELU_BLOCK)), np.empty(min(n, _GELU_BLOCK))
    with np.errstate(over="ignore"):
        for lo in range(0, n, _GELU_BLOCK):
            hi = min(lo + _GELU_BLOCK, n)
            d, sq, t = xf[lo:hi], sq_block[: hi - lo], t_block[: hi - lo]
            np.multiply(d, d, out=sq)
            np.multiply(sq, -2.0 * _GELU_C * _GELU_A, out=t)
            t -= 2.0 * _GELU_C
            t *= d
            np.exp(t, out=t)
            t += 1.0
            np.divide(d, t, out=yf[lo:hi])
            if recorded:  # (1 + 2C*(1 + 3A*d^2)*(d - y)) / t
                db = np.subtract(d, yf[lo:hi], out=df[lo:hi])
                sq *= 6.0 * _GELU_C * _GELU_A
                sq += 2.0 * _GELU_C
                db *= sq
                db += 1.0
                db /= t
    return y, (lambda g: (g * dydx,)) if recorded else None


# ---------------------------------------------------------------------------
# linear algebra


@_op
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; both operands 2-D, or stacked with equal batch dims."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible operand shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    # Each operand's gradient reads the other operand, so each is kept only if the other requires grad.
    kept_a, kept_b = (ad if b.requires_grad else None), (bd if a.requires_grad else None)

    def back(g):
        return (
            None if kept_b is None else g @ kept_b.swapaxes(-1, -2),
            None if kept_a is None else kept_a.swapaxes(-1, -2) @ g,
        )

    return ad @ bd, back


@_op
def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], broadcasting b over all leading axes."""
    _need_rank(x, "[...,d]", "add_bias")
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"add_bias: bias shape {b.shape} does not match input shape {x.shape}")

    def back(g):
        return (g, _sum_lead(g))

    return x.data + b.data, back


_EXP_SAFE = 600.0  # exp of any float64 within ±this is normal, and a row of them sums to a finite value


@_op
def softmax(x: Tensor) -> Tensor:
    _need_rows(x, "softmax")
    xd = x.data
    # Inside ±_EXP_SAFE no shift is needed; an inf is outside.  fmax and fmin skip a NaN, but exp and
    # x - max carry it, so a row with a NaN comes out all NaN on either branch.  initial= lets an
    # array with no rows take the first branch.
    top, bottom = np.fmax.reduce(xd, axis=None, initial=-np.inf), np.fmin.reduce(xd, axis=None, initial=np.inf)
    if top <= _EXP_SAFE and bottom >= -_EXP_SAFE:
        y = np.exp(xd)
    else:
        y = xd - np.fmax.reduce(xd, axis=-1, keepdims=True)
        np.exp(y, out=y)
    y /= _sum_last(y)

    def back(g):
        r = g * y
        inner = _sum_last(r)
        np.subtract(g, inner, out=r)
        r *= y
        return (r,)

    return y, back


@_op
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize to zero mean / unit variance (eps 1e-5) along the last axis, then affine."""
    _need_rows(x, "layer_norm")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match last axis {d}")
    mu = _sum_last(x.data) / d
    xhat = x.data - mu
    var = _sum_last(xhat * xhat) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    gd = gamma.data

    def back(g):
        dgamma = _sum_lead(g * xhat)
        dbeta = _sum_lead(g)
        gx = g * gd
        dx = inv * (gx - _sum_last(gx) / d - xhat * (_sum_last(gx * xhat) / d))
        return (dx, dgamma, dbeta)

    y = xhat * gd
    y += beta.data
    return y, back


# ---------------------------------------------------------------------------
# shape ops


@_op
def reshape(x: Tensor, shape) -> Tensor:
    """x in the given shape: an int or a tuple of ints >= -1, where one -1 is inferred."""
    if not all(_is_int(n, -1) for n in (shape if isinstance(shape, tuple) else (shape,))):
        raise DimensionError(f"reshape: target shape {shape!r} is not an int or a tuple of ints >= -1")
    try:
        out_arr = x.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape: cannot view shape {x.shape} as {shape!r}") from e
    in_shape = x.shape
    return out_arr, lambda g: (np.ascontiguousarray(g).reshape(in_shape),)


@_op
def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if not (
        isinstance(axes, tuple)
        and all(_is_int(a, 0) for a in axes)
        and sorted(axes) == list(range(x.ndim))
    ):
        raise DimensionError(f"permute: axes {axes!r} are not a tuple permuting 0..{x.ndim - 1}")
    inv = tuple(np.argsort(axes))
    return x.data.transpose(axes), lambda g: (g.transpose(inv),)


@_op
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

    return np.concatenate([t.data for t in tensors], axis=axis), back


@_op
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

    return np.ascontiguousarray(x.data[..., top : top + height, left : left + width]), back


@_op
def mean(x: Tensor) -> Tensor:
    """Mean over every element, as a scalar; an empty x raises DimensionError naming its shape."""
    n, shape = x.size, x.shape
    if n == 0:
        raise DimensionError(f"mean: expected a non-empty tensor, got shape {shape}")
    return x.data.mean(), lambda g: (np.full(shape, float(g) / n),)


@_op
def tsum(x: Tensor) -> Tensor:
    """Sum over every element, as a scalar."""
    shape = x.shape
    return x.data.sum(), lambda g: (np.full(shape, float(g)),)


@_op
def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of a [C,H,W] tensor."""
    _need_rank(x, "[C,H,W]", "upsample_nearest")
    C, H, W = x.shape

    def back(g):
        # The order in which .sum(axis=(2, 4)) adds up a 2x2 block where W > 1, in a sixth of its time or less.
        q = g.reshape(C, H, 2, W, 2)
        return ((q[:, :, 0, :, 0] + q[:, :, 0, :, 1]) + (q[:, :, 1, :, 0] + q[:, :, 1, :, 1]),)

    return np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2), back


# ---------------------------------------------------------------------------
# convolutions


def _stride_phases(x: np.ndarray, s: int, pad: tuple[int, int, int, int], tail: int):
    """Zero-pad (C,H,W) by ``pad`` = (top, bottom, left, right) and split it into its s*s stride phases.

    Returns ``(phases, Wq)``: ``phases[pi*s + pj, c]`` is the flattened
    ``padded[c, pi::s, pj::s]`` grid, ``Wq`` columns wide, followed by at
    least ``tail`` zeros so a tap slice may run past the last row.  For
    s = 1 the split is a view of the padded copy.
    """
    C, H, W = x.shape
    top, bottom, left, right = pad
    rows = -(-(H + top + bottom) // s) + (tail > 0)
    Wq = -(-(W + left + right) // s)
    xq = np.zeros((C, rows * s, Wq * s))
    xq[:, top : top + H, left : left + W] = x
    phases = xq.reshape(C, rows, s, Wq, s).transpose(2, 4, 0, 1, 3)
    return phases.reshape(s * s, C, rows * Wq), Wq


def _from_stride_phases(ph: np.ndarray, H: int, W: int, s: int, pad: tuple[int, int, int, int]) -> np.ndarray:
    """Adjoint of :func:`_stride_phases`: reassemble the padded grid, crop to (C,H,W)."""
    C = ph.shape[1]
    top, _, left, right = pad
    Wq = -(-(W + left + right) // s)
    rows = ph.shape[2] // Wq
    xq = ph.reshape(s, s, C, rows, Wq).transpose(2, 3, 0, 4, 1).reshape(C, rows * s, Wq * s)
    return np.ascontiguousarray(xq[:, top : top + H, left : left + W])


@_op
def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int | tuple[int, int, int, int] = 0) -> Tensor:
    """Cross-correlation of [C_in,H,W] with [C_out,C_in,kh,kw] kernels, plus a [C_out] bias.

    ``pad`` zero-pads every side by one int, or each side by its entry of a
    ``(top, bottom, left, right)`` tuple of ints >= 0.
    """
    _need_rank(x, "[C,H,W]", "conv2d")
    _need_rank(w, "[O,I,kh,kw]", "conv2d: kernels")
    Cin, H, W = x.shape
    Cout, Cw, kh, kw = w.shape
    if 0 in (Cout, kh, kw):
        raise DimensionError(f"conv2d: kernel shape {w.shape} has no output channels or no taps")
    if Cw != Cin:
        raise DimensionError(f"conv2d: input channels {Cin} do not match kernel channels {Cw}")
    _need_int(stride, 1, "conv2d: stride")
    sides = (pad,) * 4 if _is_int(pad, 0) else pad
    if not (isinstance(sides, tuple) and len(sides) == 4 and all(_is_int(p, 0) for p in sides)):
        raise ContractError(f"conv2d: pad must be an int >= 0 or a tuple of 4 of them, got {pad!r}")
    Hp, Wp = H + sides[0] + sides[1], W + sides[2] + sides[3]
    if kh > Hp or kw > Wp:
        raise DimensionError(f"conv2d: kernel {kh}x{kw} larger than padded input {Hp}x{Wp}")
    if b.shape != (Cout,):
        raise DimensionError(f"conv2d: bias shape {b.shape} does not match {Cout} output channels")

    s = stride
    Ho = (Hp - kh) // s + 1
    Wo = (Wp - kw) // s + 1
    xd = x.data
    phases, Wq = _stride_phases(xd, s, sides, (kw - 1) // s)
    n = Ho * Wq  # output rows are Wq wide; columns c >= Wo are computed, then dropped
    taps = [(i, j, (i % s) * s + j % s, (i // s) * Wq + j // s) for i in range(kh) for j in range(kw)]
    wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # wt[i, j]: tap (i, j) as (Cout, Cin)
    acc = np.empty((Cout, n))
    part = np.empty((Cout, n)) if len(taps) > 1 else None  # a 1x1 kernel needs no tap buffer
    for k, (i, j, ph, off) in enumerate(taps):
        tap = phases[ph, :, off : off + n]
        if k == 0:
            np.matmul(wt[i, j], tap, out=acc)
        else:
            np.matmul(wt[i, j], tap, out=part)
            acc += part
    y = acc.reshape(Cout, Ho, Wq)[:, :, :Wo]  # a view: the bias goes into acc, no full-size copy
    y += b.data[:, None, None]

    # dx reads the kernels and dw the input, so each is kept only if the other operand requires grad.
    kept_x, kept_wt = (xd if w.requires_grad else None), (wt if x.requires_grad else None)
    need_b, phase_shape = b.requires_grad, phases.shape

    def back(g):
        gq = np.zeros((Cout, Ho, Wq))
        gq[:, :, :Wo] = g
        gq = gq.reshape(Cout, n)
        dx = dw = db = None
        if kept_x is not None:
            xs, _ = _stride_phases(kept_x, s, sides, (kw - 1) // s)  # recomputed: cheaper than keeping it alive
            dwt = np.empty((kh, kw, Cout, Cin))
            for i, j, ph, off in taps:
                dwt[i, j] = gq @ xs[ph, :, off : off + n].T
            dw = np.ascontiguousarray(dwt.transpose(2, 3, 0, 1))
        if kept_wt is not None:
            dxs = np.zeros(phase_shape)
            for i, j, ph, off in taps:
                dxs[ph, :, off : off + n] += kept_wt[i, j].T @ gq
            dx = _from_stride_phases(dxs, H, W, s, sides)
        if need_b:
            db = _sum_last(g.reshape(Cout, Ho * Wo)).reshape(Cout)
        return (dx, dw, db)

    return y, back


# ---------------------------------------------------------------------------
# recomputation


@_op
def recompute(fn: Callable, operands: Sequence[Tensor]) -> Tensor:
    """fn(*operands), recorded as one op whose record keeps only the operands.

    This is gradient checkpointing (Chen et al., arXiv 1604.06174) for one
    call: the forward runs fn with the thread's tape set aside, so none of
    fn's ops is recorded and its intermediates are freed as they go.  The
    backward runs fn again on the operands themselves, under a private tape
    where each is a leaf, and walks that tape from fn's output y with the
    incoming gradient g (``Tape._walk``), setting no ``.grad``.  It returns
    each operand's gradient: None for an operand that needs none, that fn
    does not read, or that an earlier slot repeats.  So the gradients equal
    those of fn recorded op by op, at the price of one more forward of fn.

    fn must return a Tensor, compute the same values on the same data each
    time, and read every tensor that needs a gradient through its operands.
    With no tape the op is fn.  A g with a non-finite entry raises
    ``ContractError`` naming ``recompute``.
    """
    if not callable(fn):
        raise ContractError(f"recompute: fn must be callable, got {fn!r}")
    operands = tuple(operands)  # the backward reads these, whatever the caller's list holds by then

    def run(tape: Tape | None) -> Tensor:
        with _tape_in_place(tape):
            y = fn(*operands)
        if not isinstance(y, Tensor):
            raise ContractError(f"recompute: fn must return a Tensor, got {y!r}")
        return y

    def back(g):
        _need_finite(g, "recompute: incoming gradient")
        tape = Tape()  # the operands were made on another tape, so they are leaves of this one
        grads = tape._walk(run(tape), g)
        return tuple(grads.pop(t, None) for t in operands)  # a repeated operand's gradient goes to its first slot

    return run(None).data, back
