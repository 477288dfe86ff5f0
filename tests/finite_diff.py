"""Central-difference gradient checks against the tape, shared by the test modules.

``central_difference`` is the numeric derivative in one entry and
``tape_gradients`` the tape's; ``finite_diff`` compares them, and
``trunk_preactivations`` finds how near a conv trunk's inputs come to its
kinks.

In ``finite_diff``, ``f`` may return a tensor of any shape.  Both sides
differentiate the same scalar, the projection ``sum(c * f())`` with
standard-normal ``c`` drawn from ``PROJECTION_SEED``: the tape through
``mul`` and ``tsum``, the central differences in numpy.  The random
weights keep the gradient entries of order one.  A mean over n outputs
would shrink them ~n-fold, to where the rounding of a central difference
(about eps*|f|/STEP) is a large part of each.  The two perturbed outputs
are differenced before they are projected, so every output the probed
entry does not reach cancels exactly and adds no rounding.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from relight import discriminator as D
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
    grads, c = tape_gradients(f, wrt)
    if entries is None:
        entries = [(k, i) for k, t in enumerate(wrt) for i in range(t.size)]
    worst = 0.0
    for k, i in entries:
        numeric = float(np.sum(c * central_difference(f, wrt[k], i)))
        analytic = float(grads[k].flat[i])
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    return worst


def tape_gradients(f: Callable[[], Tensor], wrt: Sequence[Tensor]) -> tuple[list[np.ndarray], np.ndarray]:
    """The tape's gradients of sum(c * f()) with respect to each tensor of ``wrt`` (zeros where f does
    not reach one), and the projection c.  Each tensor's grad and requires_grad are as before on return."""
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
    return grads, c


def central_difference(f: Callable[[], Tensor], t: Tensor, i: int) -> np.ndarray:
    """d f() / d (flat entry i of t), by central differences with step STEP, in f()'s shape.

    t's data is as before on return.
    """
    data, at = t.data, np.unravel_index(i, t.shape)
    orig = data[at]
    data[at] = orig + STEP
    plus = np.array(f().data, copy=True)  # reshape/permute outputs are views of data
    data[at] = orig - STEP
    diff = plus - f().data
    data[at] = orig
    return diff / (2.0 * STEP)


def discriminator_convs(d) -> list[tuple[Tensor, Tensor]]:
    """The (weight, bias) pairs of a discriminator's trunk, as ``discriminate`` reads them."""
    return [(d.params[f"convs.{i}.0"], d.params[f"convs.{i}.1"]) for i in range(len(D.CONV_CHANNELS))]


def trunk_preactivations(x: Tensor, convs, slope: float) -> list[np.ndarray]:
    """Each conv's output before its leaky_relu(slope) in ``discriminator.trunk`` over (w, b) pairs,
    for keeping probes off the kinks."""
    pre = []
    for w, b in convs:
        p = T.conv2d(x, w, b, stride=2, pad=1)
        pre.append(p.data)
        x = T.leaky_relu(p, slope)
    return pre
