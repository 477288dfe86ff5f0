"""Span tracing of relight from outside: patch module attributes, time each call.

While a :class:`Tracer` is installed, every listed tensor op, module
function and ``Tape.backward`` is replaced on its module by a wrapper
that records a span (name, start, end, parent span, operation id).  An
op that appends a record to the active tape also gets that record's
backward closure wrapped, so backward time is attributed to the op as
``tensor.<op>.bwd``.  Spans stay in memory until :meth:`Tracer.dump`.

Two self times are derived per span:

- op self time: duration minus every child span.  Tensor ops contain
  no traced children, so this is the op's own time.
- module self time: duration minus its child *module* spans only, so
  the ops a module calls directly count as its own work.  For
  ``generator.forward`` that is the fusion head.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict

from relight import attention, discriminator, generator, losses, tensor, windows

OPS = (
    "gelu", "softmax", "matmul", "layer_norm", "conv2d", "add_bias", "reshape", "permute", "add", "scale",
    "leaky_relu", "sigmoid", "upsample_nearest", "concat", "crop", "mean", "square", "softplus", "sqrt",
)
MODULE_FUNCTIONS = (
    (attention, ("local_branch", "global_branch", "window_attention_block", "transformer_block", "mhsa")),
    (windows, ("window_partition", "window_reverse", "patch_embed", "patch_recover")),
    (generator, ("forward",)),
    (discriminator, ("discriminate",)),
    (losses, (
        "self_feature_preserving_loss", "luminance_consistency_loss", "identity_invariant_loss",
        "adversarial_losses", "total_generator_loss",
    )),
)
MODULE_SPANS = (
    "attention.local_branch", "attention.window_attention_block.s2", "attention.window_attention_block.s4",
    "attention.window_attention_block.s8", "attention.transformer_block", "attention.mhsa",
    "attention.global_branch", "windows.patch_embed", "windows.patch_recover",
    "windows.window_partition", "windows.window_reverse", "generator.forward",
    "discriminator.discriminate.global", "discriminator.discriminate.patch",
    "losses.self_feature_preserving_loss", "losses.luminance_consistency_loss",
    "losses.identity_invariant_loss", "losses.adversarial_losses", "losses.total_generator_loss",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for op in OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
        units[f"tensor.{op}.calls"] = "count"
        units[f"tensor.{op}.out_bytes"] = "bytes"
    units["tensor.Tape.backward.ms"] = "ms"
    units["tensor.tape_records"] = "count"
    for name in MODULE_SPANS:
        units[f"{name}.ms"] = "ms"
    units["generator.forward.self_ms"] = "ms"
    return units


class Tracer:
    """Collects spans from the patched functions of one thread."""

    def __init__(self, disc_labels: dict[int, str] | None = None):
        self.disc_labels = disc_labels or {}  # id(DiscriminatorWeights) -> "global" / "patch"
        self.spans: list[list] = []  # [name, start, end, parent index, operation id]
        self.stack: list[int] = []
        self.op_id = -1
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.tape_records = 0
        self._last_tape = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op_id])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _timed(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def _op(self, fn, op: str):
        name, bwd_name = f"tensor.{op}", f"tensor.{op}.bwd"

        def timed_backward(backward):
            def wrapper(g):
                idx = self.begin(bwd_name)
                try:
                    return backward(g)
                finally:
                    self.end(idx)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = tensor._active_tape()
            before = len(tape) if tape is not None else 0
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.out_bytes[op] += out.data.nbytes
            if tape is not None and len(tape) == before + 1 and tape._records[-1].out is out:
                node = tape._records[-1]
                node.backward = timed_backward(node.backward)
            return out

        return wrapper

    def _tape_backward(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, loss):
            if self._last_tape is None or self._last_tape() is not tape:
                self.tape_records += len(tape)
                self._last_tape = weakref.ref(tape)
            idx = self.begin("tensor.Tape.backward")
            try:
                return fn(tape, loss)
            finally:
                self.end(idx)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for op in OPS:
            self._patch(tensor, op, self._op(getattr(tensor, op), op))
        self._patch(tensor.Tape, "backward", self._tape_backward(tensor.Tape.backward))
        for module, names in MODULE_FUNCTIONS:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                if fname == "window_attention_block":
                    name_of = lambda args, p=prefix: f"{p}.window_attention_block.s{args[1]}"
                elif fname == "discriminate":
                    name_of = lambda args: "discriminator.discriminate." + self.disc_labels.get(id(args[1]), "other")
                else:
                    name_of = lambda args, n=f"{prefix}.{fname}": n
                self._patch(module, fname, self._timed(getattr(module, fname), name_of))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting --------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive ms, op self ms, module self ms (all summed)."""
        n = len(self.spans)
        child = [0.0] * n
        module_child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if not name.startswith("tensor."):
                    module_child[parent] += end - start
        agg = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            a = agg[name]
            dur = end - start
            a[0] += 1
            a[1] += 1e3 * dur
            a[2] += 1e3 * (dur - child[i])
            a[3] += 1e3 * (dur - module_child[i])
        return agg

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric of :func:`metric_units`, per timed operation."""
        agg = self.totals()

        def get(name, field):
            return agg[name][field] / n_ops if name in agg else 0.0

        out = {}
        for op in OPS:
            out[f"tensor.{op}.fwd_ms"] = get(f"tensor.{op}", 2)
            out[f"tensor.{op}.bwd_ms"] = get(f"tensor.{op}.bwd", 2)
            out[f"tensor.{op}.calls"] = get(f"tensor.{op}", 0)
            out[f"tensor.{op}.out_bytes"] = self.out_bytes.get(op, 0) / n_ops
        out["tensor.Tape.backward.ms"] = get("tensor.Tape.backward", 1)
        out["tensor.tape_records"] = self.tape_records / n_ops
        for name in MODULE_SPANS:
            out[f"{name}.ms"] = get(name, 1)
        out["generator.forward.self_ms"] = get("generator.forward", 3)
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "operation"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                f,
            )
