"""Central-difference gradient checks against the tape, shared by the test modules."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from relight.tensor import Tape, Tensor, zero_grad


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between tape gradients of f at x and central differences.

    f must be scalar-valued and smooth at x (keep inputs away from
    relu/leaky-relu kinks).  The relative error uses the denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    leaf = Tensor(np.array(x.data, copy=True), requires_grad=True)
    with Tape() as tape:
        y = f(leaf)
        tape.backward(y)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    flat = leaf.data.reshape(-1)
    numeric = np.zeros_like(flat)
    probe = Tensor._wrap(leaf.data)  # f evaluated without tape
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(probe).data)
        flat[i] = orig - h
        fm = float(f(probe).data)
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)

    a = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(a - numeric) / denom))


def finite_diff_entries(
    f: Callable[[], Tensor],
    entries: Sequence[tuple[Tensor, int]],
    h: float = 1e-5,
) -> float:
    """Like finite_diff_check but perturbing selected flat entries of parameters.

    ``f`` is a closure over the parameter tensors; ``entries`` lists
    (tensor, flat_index) pairs to probe.  Returns the max relative error
    against the tape gradient of the same entries.
    """
    params = []
    for t, _ in entries:
        if t not in params:
            params.append(t)
    zero_grad(params)
    with Tape() as tape:
        y = f()
        tape.backward(y)

    worst = 0.0
    for t, idx in entries:
        flat = t.data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        fp = float(f().data)
        flat[idx] = orig - h
        fm = float(f().data)
        flat[idx] = orig
        numeric = (fp - fm) / (2.0 * h)
        analytic = 0.0 if t.grad is None else float(t.grad.reshape(-1)[idx])
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    zero_grad(params)
    return worst
