"""Central-difference gradient checks against the tape, shared by the test modules.

``f`` may return a tensor of any shape.  Both sides differentiate the same
scalar, the projection ``sum(c * f())`` with standard-normal ``c`` drawn
from ``PROJECTION_SEED``: the tape through ``mul`` and ``tsum``, the
central differences in numpy.  The random weights keep the gradient
entries of order one.  A mean over n outputs would shrink them ~n-fold, to
where the rounding of a central difference (about eps*|f|/STEP) is a large
part of each.  The two perturbed outputs are differenced before they are
projected, so every output the probed entry does not reach cancels exactly
and adds no rounding.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from relight import tensor as T
from relight.tensor import Tape, Tensor

PROJECTION_SEED = 0
STEP = 1e-5


def finite_diff(
    f: Callable[[], Tensor],
    wrt: Sequence[Tensor],
    entries: Sequence[tuple[int, int]] | None = None,
) -> float:
    """Max relative error between tape and central-difference gradients of sum(c * f()).

    ``f`` closes over the tensors in ``wrt`` and must be smooth there (keep
    inputs away from relu/leaky-relu kinks).  ``entries`` lists the (k, i)
    pairs, flat entry i of ``wrt[k]``, to probe; the default is every entry
    of every tensor.  The relative error uses the denominator
    max(|analytic|, |numeric|, 1e-8).  Each tensor's data, grad and
    requires_grad are as before on return.
    """
    saved = [(t.requires_grad, t.grad) for t in wrt]
    for t in wrt:
        t.requires_grad, t.grad = True, None
    with Tape() as tape:
        y = f()
        c = np.random.default_rng(PROJECTION_SEED).normal(size=y.shape)
        tape.backward(T.tsum(T.mul(y, Tensor(c))))
    grads = [np.zeros(t.shape) if t.grad is None else t.grad for t in wrt]
    for t, (requires_grad, grad) in zip(wrt, saved):
        t.requires_grad, t.grad = requires_grad, grad

    if entries is None:
        entries = [(k, i) for k, t in enumerate(wrt) for i in range(t.size)]
    worst = 0.0
    for k, i in entries:
        data, at = wrt[k].data, np.unravel_index(i, wrt[k].shape)
        orig = data[at]
        data[at] = orig + STEP
        plus = np.array(f().data, copy=True)  # reshape/permute outputs are views of data
        data[at] = orig - STEP
        numeric = float(np.sum(c * (plus - f().data))) / (2.0 * STEP)
        data[at] = orig
        analytic = float(grads[k][at])
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    return worst
