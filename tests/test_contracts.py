"""Every public entry point rejects bad input with a RelightError subclass that names it.

One table holds every rejection.  A row is ``key -> (call, error, template,
values)``: ``call`` takes one value, and for each of ``values`` it must raise
``error`` with ``template.format(value=value)`` in the message; ``reject``
checks one such case.  A key starts with the entry point's name, so the guard
below sees which public functions and classes have no row; those must say why
in ``NO_CONTRACT``.

Every case runs through the two runners in ``tests/test_attention.py``: one
per entry point for the rank rows, one per ``case_id`` for the rest.  A few
tests of single entry points also call ``reject`` on their own rows.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from relight import attention as A
from relight import discriminator as D
from relight import generator as G
from relight import losses as L
from relight import tensor as T
from relight import windows as W
from relight.errors import ContractError, DimensionError, DivergenceError, DomainError
from relight.tensor import Tape, Tensor

REPR = "{value!r}"  # the default template: the message shows the value as repr does
RANK = "got shape {value}"  # a rank row's values are input shapes, one axis off
MISSING = "missing parameter {value!r}"  # a missing-parameter row's values are the dotted names left out
BOTH = "{value[0]} and {value[1]}"  # the values of a two-operand shape row are pairs of shapes
CONV_PAD = "conv2d: pad must be an int >= 0 or a tuple of 4 of them, got {value!r}"  # (top, bottom, left, right)
RECOVER_ROWS = "rows [{value[0]!r}, {value[1]!r}) are not ints 0 <= lo < hi <= 16"  # of a 16-row map
LOCAL_ROWS = "rows [{value[0]!r}, {value[1]!r}) are not multiples of 8 with 0 <= lo < hi <= 16"  # of a 16-row map


def _int(what, least):
    """The template of an int argument that must be at least least."""
    return f"{what} must be an int >= {least}, got {{value!r}}"


def _zeros(*shape):
    return Tensor(np.zeros(shape))


def _each(shapes):
    return [_zeros(*shape) for shape in shapes]


def _poisoned(shape, value):
    """Zeros with entry 0 set to value past the constructor's check, as a diverged op output would be."""
    t = _zeros(*shape)
    t.data.flat[0] = value
    return t


def _enter(tape):
    with Tape(), tape:
        pass


def _recorded(tape):
    """mean(w^2) of a fresh leaf w, recorded on tape."""
    with tape:
        return T.mean(T.square(Tensor([1.0, 2.0], requires_grad=True)))


_TAPE_A = Tape()  # kept alive, so its losses keep their records
_LOSS_A = _recorded(_TAPE_A)
_LOSS_GONE = _recorded(Tape())  # its tape and records are gone


def _backward_on_a_new_tape(loss):
    """backward of loss on a fresh tape that holds one record of its own."""
    with Tape() as tape:
        T.square(Tensor([1.0], requires_grad=True))
    tape.backward(loss)


_X8 = _zeros(3, 8, 8)
_RNG = np.random.default_rng(0)  # every row rejects before a crop is drawn
_G16 = G.init_weights(G.GeneratorConfig(height=16, width=16), 0)
_P16 = _G16.params
_D8 = D.init_discriminator(8, 0)
_D16 = D.init_discriminator(16, 0)
_FE = L.FeatureExtractor()
_PARTS = {name: Tensor(0.0) for name in L.LOSS_TERMS}
_MHSA = {f"m.{name}": _zeros(6, 6) for name in ("w_q", "w_k", "w_v", "w_o")}


def _without(params, name):
    """params with the parameter name left out."""
    return {k: t for k, t in params.items() if k != name}


BAD_OPERANDS = (1.0, None, np.ones(2))  # a float, None and a raw ndarray: no Tensor


def _operands(op, *args):
    """op's operand row: each Tensor of args, in turn, swapped for each of BAD_OPERANDS.

    A value is a (parameter, bad operand) pair; args are valid arguments of op.
    """
    names = list(inspect.signature(op).parameters)

    def call(value):
        at = names.index(value[0])
        return op(*args[:at], value[1], *args[at + 1 :])

    operands = [name for name, arg in zip(names, args) if isinstance(arg, Tensor)]
    template = f"{op.__name__}: {{value[0]}} must be a Tensor, got {{value[1]!r}}"
    return call, ContractError, template, [(name, bad) for name in operands for bad in BAD_OPERANDS]


def _crop(*rect):
    return T.crop(_zeros(1, 4, 4), *rect)


def _concat(axis, second=(2, 2)):
    return T.concat([_zeros(2, 2), _zeros(*second)], axis)


def _conv(x=(1, 4, 4), w=(1, 1, 3, 3), stride=1, pad=0):
    return T.conv2d(_zeros(*x), _zeros(*w), _zeros(1), stride=stride, pad=pad)


def _reverse(w=(4, 4, 2), s=2, height=4, width=4):
    return W.window_reverse(_zeros(*w), s, height, width)


def _recover(x=(16, 2, 2), p=_P16, rows=(0, 16)):
    return W.patch_recover(_zeros(*x), p, "global_.recover", *rows)


def _branch(x=(3, 8, 8), p=_P16, heads=2, rows=None):
    """The local branch on rows (every row of x by default)."""
    x = _zeros(*x)
    return A.local_branch(x, p, "local", heads, *(rows or (0, x.shape[1])))


def _block(x=(16, 8, 8), s=2, heads=2):
    return A.window_attention_block(_zeros(*x), s, _P16, "local.blocks.0", heads)


def _global(x=(3, 16, 16), heads=4, pos=(4, 16)):
    return A.global_branch(_zeros(*x), {**_P16, "global_.pos": _zeros(*pos)}, "global_", heads)


def _local(x=(3, 8, 8), w=_D8, rng=_RNG, n_patches=1):
    return D.discriminate_local(_zeros(*x), w, rng, n_patches)


def _total(parts=_PARTS, w=L.LossWeights()):
    return L.total_generator_loss(parts, w)


def _luminance(region, k=(3, 8, 8)):
    return L.luminance_consistency_loss(_X8, _zeros(*k), region)


CONTRACTS = {
    # tensor
    "Tensor-data": (Tensor, ContractError, "non-finite entry {value[1]} at flat index 1", [[1.0, np.nan]]),
    "Tensor-data-convert": (
        Tensor, ContractError, REPR,
        ["a", [[1.0], [1.0, 2.0]], 10**400, "1.5", ["1", "2"], b"1", np.array(["3"]), np.datetime64(1, "s")],
    ),
    "Tensor-data-none": (Tensor, ContractError, "no data", [None]),
    "Tensor-data-complex": (Tensor, ContractError, REPR, [np.array([1 + 1j]), [1.0, 2j], 1 + 0j]),
    "Tensor-requires_grad": (
        lambda v: Tensor([1.0], requires_grad=v), ContractError, "requires_grad must be a bool, got {value!r}",
        ["yes", 1, None, np.True_],
    ),
    "Tape-nested": (_enter, ContractError, "a Tape is already active in this thread", [Tape()]),
    "Tape.backward-loss": (lambda v: Tape().backward(v), ContractError, REPR, [3.0, None, np.zeros(())]),
    "Tape.backward-shape": (lambda s: Tape().backward(_zeros(*s)), DimensionError, RANK, [(3,)]),
    "Tape.backward-tape": (
        _backward_on_a_new_tape, ContractError, "loss {value!r} was recorded on another tape", [_LOSS_A, _LOSS_GONE],
    ),
    "add-shapes": (lambda v: T.add(*_each(v)), DimensionError, BOTH, [((1,), (2,))]),
    "sub-shapes": (lambda v: T.sub(*_each(v)), DimensionError, BOTH, [((2, 3), (3, 2))]),
    "mul-shapes": (lambda v: T.mul(*_each(v)), DimensionError, BOTH, [((2, 3), (3, 2))]),
    "scale-factor": (lambda v: T.scale(_zeros(2, 3), v), ContractError, REPR, [True, np.nan, np.inf, "a"]),
    "leaky_relu-slope": (
        lambda v: T.leaky_relu(_zeros(2, 3), v), ContractError, "slope must be a finite real <= 1, got {value!r}",
        [True, -np.inf, "a", None, 1.5, 2],
    ),
    "sqrt-x": (lambda v: T.sqrt(Tensor(v)), DomainError, "negative entry {value[1]} at flat index 1", [[1.0, -1e-12]]),
    "matmul-shapes": (lambda v: T.matmul(*_each(v)), DimensionError, BOTH, [((2, 3), (2, 3))]),
    "add_bias-rank": (lambda s: T.add_bias(_zeros(*s), _zeros(1)), DimensionError, RANK, [()]),
    "softmax-rank": (lambda s: T.softmax(_zeros(*s)), DimensionError, RANK, [()]),
    "mean-empty": (lambda s: T.mean(_zeros(*s)), DimensionError, RANK, [(0,), (2, 0, 3)]),
    "softmax-empty": (lambda s: T.softmax(_zeros(*s)), DimensionError, RANK, [(0,), (3, 0), (2, 4, 0)]),
    "layer_norm-rank": (lambda s: T.layer_norm(_zeros(*s), _zeros(1), _zeros(1)), DimensionError, RANK, [()]),
    "layer_norm-empty": (
        lambda s: T.layer_norm(_zeros(*s), _zeros(0), _zeros(0)), DimensionError, RANK, [(0,), (3, 0), (2, 4, 0)],
    ),
    "reshape-shape": (
        lambda v: T.reshape(_zeros(2, 3), v), DimensionError, REPR, [True, (2, 3.0), "6", (True, 6), (4, 2)],
    ),
    "reshape-count": (lambda v: T.reshape(_zeros(6), v), DimensionError, "cannot view shape (6,) as {value!r}", [7]),
    "permute-axes": (lambda v: T.permute(_zeros(2, 3), v), DimensionError, REPR, [True, 0, None, (1, True), (1, -1)]),
    "concat-axis": (_concat, DimensionError, "axis {value!r} invalid for shape (2, 2)", [True, 1.0, -3, 2]),
    "concat-shapes": (lambda s: _concat(0, s), DimensionError, "[(2, 2), {value}]", [(3, 3), (2,), (2, 2, 1)]),
    "crop-rank": (lambda s: T.crop(_zeros(*s), 0, 0, 1, 1), DimensionError, RANK, [(4,)]),
    "crop-top": (lambda v: _crop(v, 0, 1, 1), ContractError, _int("crop: top", 0), [True, 1.0, -1]),
    "crop-left": (lambda v: _crop(0, v, 1, 1), ContractError, _int("crop: left", 0), [True, "1", -1]),
    "crop-height": (lambda v: _crop(0, 0, v, 1), ContractError, _int("crop: height", 1), [True, 2.0, -1, 0]),
    "crop-width": (lambda v: _crop(0, 0, 1, v), ContractError, _int("crop: width", 1), [True, None, -1, "2"]),
    "crop-rect": (lambda v: _crop(*v), DimensionError, "rect (3,3,4,4) outside 4x4", [(3, 3, 4, 4)]),
    "upsample_nearest-rank": (lambda s: T.upsample_nearest(_zeros(*s)), DimensionError, RANK, [(4, 4)]),
    "conv2d-stride": (lambda v: _conv(stride=v), ContractError, _int("conv2d: stride", 1), [True, 1.5, -1, 0, -2]),
    "conv2d-pad": (lambda v: _conv(pad=v), ContractError, CONV_PAD, [True, 1.0, -1, "1", False]),
    "conv2d-pad-sides": (
        lambda v: _conv(pad=v), ContractError, CONV_PAD,
        [(1, 1, 1), (1, 1, 1, 1, 1), (0, -1, 0, 0), (0, 0, True, 0), (1.0, 0, 0, 0), [1, 1, 1, 1]],
    ),
    "conv2d-kernel": (lambda s: _conv((1, 2, 2), s), DimensionError, "kernel {value[2]}x{value[3]}", [(1, 1, 5, 5)]),
    "conv2d-kernel-sides": (  # (pad, the padded input's size) of a 3x3 kernel on a 2x2 input
        lambda v: _conv((1, 2, 2), pad=v[0]), DimensionError, "kernel 3x3 larger than padded input {value[1]}",
        [((0, 0, 1, 1), "2x4"), ((1, 0, 0, 0), "3x2")],
    ),
    "conv2d-empty": (lambda s: _conv(w=s), DimensionError, "kernel shape {value}", [(0, 1, 3, 3), (1, 1, 0, 1)]),
    # the operand rule: every Tensor parameter of every op
    "add-operand": _operands(T.add, _zeros(2), _zeros(2)),
    "sub-operand": _operands(T.sub, _zeros(2), _zeros(2)),
    "mul-operand": _operands(T.mul, _zeros(2), _zeros(2)),
    "scale-operand": _operands(T.scale, _zeros(2), 2.0),
    "leaky_relu-operand": _operands(T.leaky_relu, _zeros(2)),
    "sigmoid-operand": _operands(T.sigmoid, _zeros(2)),
    "sqrt-operand": _operands(T.sqrt, _zeros(2)),
    "square-operand": _operands(T.square, _zeros(2)),
    "softplus-operand": _operands(T.softplus, _zeros(2)),
    "gelu-operand": _operands(T.gelu, _zeros(2)),
    "matmul-operand": _operands(T.matmul, _zeros(2, 2), _zeros(2, 2)),
    "add_bias-operand": _operands(T.add_bias, _zeros(2, 2), _zeros(2)),
    "softmax-operand": _operands(T.softmax, _zeros(2)),
    "layer_norm-operand": _operands(T.layer_norm, _zeros(2, 2), _zeros(2), _zeros(2)),
    "reshape-operand": _operands(T.reshape, _zeros(2), (2,)),
    "permute-operand": _operands(T.permute, _zeros(2), (0,)),
    "concat-operand": (
        T.concat, ContractError, "concat: tensors must be a list or a tuple, got {value!r}",
        [*BAD_OPERANDS, (t for t in [_zeros(2)])],
    ),
    "concat-operand-item": (
        lambda v: T.concat([_zeros(2), v]), ContractError, "concat: tensors[1] must be a Tensor, got {value!r}",
        list(BAD_OPERANDS),
    ),
    "crop-operand": _operands(T.crop, _zeros(1, 2, 2), 0, 0, 1, 1),
    "mean-operand": _operands(T.mean, _zeros(2)),
    "tsum-operand": _operands(T.tsum, _zeros(2)),
    "upsample_nearest-operand": _operands(T.upsample_nearest, _zeros(1, 2, 2)),
    "conv2d-operand": _operands(T.conv2d, _zeros(1, 2, 2), _zeros(1, 1, 1, 1), _zeros(1)),
    # windows
    "window_partition-rank": (lambda s: W.window_partition(_zeros(*s), 2), DimensionError, RANK, [(4, 4)]),
    "window_partition-s": (
        lambda v: W.window_partition(_zeros(2, 8, 8), v),
        ContractError,
        "window size {value!r} must be an int >= 1 that divides feature map 8x8",
        [True, 2.0, -2, 3, "2", None],
    ),
    "window_reverse-rank": (_reverse, DimensionError, RANK, [(4, 4)]),
    "window_reverse-s": (lambda v: _reverse(s=v), ContractError, REPR, [True, "2", -2]),
    "window_reverse-height": (lambda v: _reverse(height=v), ContractError, REPR, [True, 4.0, -4]),
    "window_reverse-width": (lambda v: _reverse(width=v), ContractError, REPR, [True, None, -4]),
    "window_reverse-count": (
        lambda s: _reverse(s, 2, 8, 8), DimensionError, "{value[0]} windows of {value[1]} tokens", [(3, 4, 1)],
    ),
    "patch_embed-rank": (lambda s: W.patch_embed(_zeros(*s), None, None), DimensionError, RANK, [(8, 8)]),
    "patch_embed-shape": (
        lambda s: W.patch_embed(_zeros(*s), None, None), DimensionError, "got {value[1]}x{value[2]}", [(3, 12, 16)],
    ),
    "patch_recover-rank": (_recover, DimensionError, RANK, [(4, 16)]),
    "patch_recover-params": (
        lambda n: _recover(p=_without(_P16, n)),
        ContractError,
        MISSING,
        ["global_.recover.convs.0.0", "global_.recover.convs.2.1"],
    ),
    "patch_recover-rows-int": (
        lambda v: _recover(rows=v), DimensionError, RECOVER_ROWS, [(0.0, 16), (0, "8"), (True, 8)],
    ),
    "patch_recover-rows-empty": (lambda v: _recover(rows=v), DimensionError, RECOVER_ROWS, [(4, 4), (9, 3)]),
    "patch_recover-rows-negative": (lambda v: _recover(rows=v), DimensionError, RECOVER_ROWS, [(-1, 8), (-3, -1)]),
    "patch_recover-rows-past-end": (lambda v: _recover(rows=v), DimensionError, RECOVER_ROWS, [(8, 17), (16, 24)]),
    # attention
    "mhsa-rank": (lambda s: A.mhsa(_zeros(*s), {}, "m", 2), DimensionError, RANK, [(4,)]),
    "mhsa-dim": (
        lambda s: A.mhsa(_zeros(*s), _MHSA, "m", 2), DimensionError, "shapes {value} and (6, 6)", [(3, 4)],
    ),
    "mhsa-params": (
        lambda n: A.mhsa(_zeros(3, 6), _without(_MHSA, n), "m", 2), ContractError, MISSING, ["m.w_q", "m.w_v", "m.w_o"],
    ),
    "mhsa-heads": (
        lambda v: A.mhsa(_zeros(3, 6), _MHSA, "m", v),
        ContractError,
        "heads {value!r} must be an int >= 1 that divides dim 6",
        [True, 2.0, -2, 0, "2", None, 4],
    ),
    "transformer_block-heads": (
        lambda v: A.transformer_block(_zeros(2, 3, 16), _P16, "local.blocks.0", v),
        ContractError,
        REPR,
        [True, None, -2],
    ),
    "transformer_block-params": (
        lambda n: A.transformer_block(_zeros(2, 3, 16), _without(_P16, n), "local.blocks.0", 2),
        ContractError,
        MISSING,
        ["local.blocks.0.norm1_g", "local.blocks.0.mhsa.w_k", "local.blocks.0.norm2_b", "local.blocks.0.mlp_b2"],
    ),
    "window_attention_block-rank": (_block, DimensionError, RANK, [(4, 4)]),
    "window_attention_block-s": (lambda v: _block(s=v), ContractError, REPR, [True, 2.0]),
    "window_attention_block-heads": (lambda v: _block(heads=v), ContractError, REPR, [True, "2"]),
    "local_branch-rank": (_branch, DimensionError, RANK, [(8, 8)]),
    "local_branch-height": (_branch, ContractError, "divides feature map {value[1]}x{value[2]}", [(3, 100, 8)]),
    "local_branch-heads": (lambda v: _branch(heads=v), ContractError, REPR, [True, -2]),
    "local_branch-params": (
        lambda n: _branch(p=_without(_P16, n)),
        ContractError,
        MISSING,
        ["local.embed_w", "local.embed_b", "local.blocks.2.mlp_w1"],
    ),
    "local_branch-rows-int": (
        lambda v: _branch((3, 16, 8), rows=v), DimensionError, LOCAL_ROWS, [(0.0, 16), (0, "8"), (True, 8)],
    ),
    "local_branch-rows-empty": (lambda v: _branch((3, 16, 8), rows=v), DimensionError, LOCAL_ROWS, [(8, 8), (16, 8)]),
    "local_branch-rows-outside": (
        lambda v: _branch((3, 16, 8), rows=v), DimensionError, LOCAL_ROWS, [(-8, 8), (8, 24)],
    ),
    # a cut inside a band of the largest window would cut its windows
    "local_branch-rows-unaligned": (
        lambda v: _branch((3, 16, 8), rows=v), DimensionError, LOCAL_ROWS, [(4, 16), (0, 12), (2, 6)],
    ),
    "global_branch-rank": (_global, DimensionError, RANK, [(8, 8)]),
    "global_branch-heads": (lambda v: _global(heads=v), ContractError, REPR, [True, None]),
    "global_branch-pos": (lambda s: _global(pos=s), DimensionError, "(4, 16) and {value}", [(5, 16)]),
    "global_branch-params": (
        lambda n: A.global_branch(_zeros(3, 16, 16), _without(_P16, n), "global_", 4),
        ContractError,
        MISSING,
        ["global_.patch_b", "global_.pos", "global_.blocks.1.norm1_b"],
    ),
    # generator
    "GeneratorConfig-height": (lambda v: G.GeneratorConfig(height=v), ContractError, REPR, [True, 64.0, -8, 0, 60]),
    "GeneratorConfig-width": (lambda v: G.GeneratorConfig(width=v), ContractError, REPR, [True, "64", -8, 0, 64.0]),
    "GeneratorConfig-both": (lambda v: G.GeneratorConfig(height=v, width=v), ContractError, REPR, [0, -8, 64.0]),
    "init_weights-cfg": (lambda v: G.init_weights(v, 0), ContractError, REPR, [None, (64, 64), "64x64"]),
    "init_weights-seed": (lambda v: G.init_weights(G.GeneratorConfig(), v), ContractError, REPR, [True, 1.5, -1]),
    "forward-w": (lambda v: G.forward(_zeros(3, 16, 16), v), ContractError, REPR, [None, "w", 0]),
    "forward-w-network": (lambda v: G.forward(_X8, v), ContractError, "has no parameter 'local.embed_w'", [_D8]),
    "forward-x": (lambda v: G.forward(v, _G16), ContractError, REPR, [np.zeros((3, 16, 16)), None]),
    "forward-params": (
        lambda n: G.forward(_zeros(3, 16, 16), G.Weights((3, 16, 16), _without(_P16, n))),
        ContractError,
        MISSING,
        ["local.embed_b", "global_.blocks.0.mhsa.w_o", "global_.recover.convs.1.0", "fuse1_w", "out_b"],
    ),
    "forward-x-shape": (lambda s: G.forward(_zeros(*s), _G16), DimensionError, "input shape {value}", [(3, 24, 24)]),
    "forward-x-finite": (
        lambda v: G.forward(_poisoned((3, 16, 16), v), _G16),
        ContractError,
        "non-finite entry {value} at flat index 0",
        [np.inf],
    ),
    # discriminator
    "init_discriminator-input_size": (
        lambda v: D.init_discriminator(v, 0), ContractError, "got {value!r}", [True, 16.0, 7, 64.0, "64", None],
    ),
    "init_discriminator-seed": (lambda v: D.init_discriminator(16, v), ContractError, REPR, [True, 1.5, -1]),
    "discriminate-w": (lambda v: D.discriminate(_X8, v), ContractError, REPR, [None, "w", 0]),
    "discriminate-w-network": (
        lambda v: D.discriminate(_zeros(3, 16, 16), v), ContractError, "has no parameter 'convs.0.0'", [_G16],
    ),
    "discriminate-params": (
        lambda n: D.discriminate(_X8, G.Weights((3, 8, 8), _without(_D8.params, n))),
        ContractError,
        MISSING,
        ["convs.0.1", "convs.2.0", "linear_w", "linear_b"],
    ),
    "discriminate-x": (lambda v: D.discriminate(v, _D8), ContractError, REPR, [np.zeros((3, 8, 8)), None]),
    "discriminate-x-shape": (
        lambda s: D.discriminate(_zeros(*s), _D16),
        DimensionError,
        "input shape {value}",
        [(3, 16, 8), (1, 16, 16), (3, 32, 32)],
    ),
    "discriminate_local-rank": (_local, DimensionError, RANK, [(8, 8)]),
    "discriminate_local-x": (
        lambda v: D.discriminate_local(v, _D8, _RNG, 1), ContractError, REPR, [np.zeros((3, 8, 8)), None],
    ),
    "discriminate_local-w": (lambda v: _local(w=v), ContractError, REPR, [None, "w", 0]),
    "discriminate_local-w-network": (
        lambda v: _local((3, 32, 32), v), ContractError, "discriminate_local: w has no parameter 'convs.0.0'", [_G16],
    ),
    "discriminate_local-patch": (
        lambda s: _local(s, _D16), DimensionError, "16 exceeds image {value[1]}x{value[2]}", [(3, 8, 8)],
    ),
    "discriminate_local-n_patches": (
        lambda v: _local(n_patches=v), ContractError, _int("n_patches", 1), [True, 2.0, -1, 0, None],
    ),
    "discriminate_local-rng": (lambda v: _local(rng=v), ContractError, REPR, [0, None, "rng"]),
    # losses
    "LossWeights-w_sfp": (
        lambda v: L.LossWeights(w_sfp=v),
        ContractError,
        "got {value!r}",
        [-1.0, np.inf, np.nan, "a", None, True, 2**1024],
    ),
    "total_generator_loss-parts": (
        lambda v: _total(parts=v), ContractError, "parts must be a dict, got {value!r}", [None, "sfp", 0],
    ),
    "total_generator_loss-w": (lambda v: _total(w=v), ContractError, REPR, [None, "w", 0]),
    "total_generator_loss-missing": (
        lambda n: _total({k: t for k, t in _PARTS.items() if k != n}), ContractError, "missing [{value!r}]", ["sfp"],
    ),
    "total_generator_loss-unknown": (
        lambda n: _total({**_PARTS, n: Tensor(1.0)}), ContractError, "unknown [{value!r}]", ["perceptual"],
    ),
    "total_generator_loss-tensor": (
        lambda v: _total({**_PARTS, "sfp": v}), ContractError, "'sfp' must be a Tensor, got {value!r}", [1.0, None],
    ),
    "total_generator_loss-scalar": (
        lambda s: _total({**_PARTS, "identity": _zeros(*s)}),
        DimensionError,
        "loss term 'identity' must be a scalar, got shape {value}",
        [(2,)],
    ),
    "total_generator_loss-finite": (
        lambda n: _total({**_PARTS, n: _poisoned((), np.nan)}),
        DivergenceError,
        "{value!r} is non-finite",
        ["luminance"],
    ),
    "adversarial_losses-empty": (
        lambda s: L.adversarial_losses(_zeros(*s), _zeros(*s)), DimensionError, RANK, [(0,), (4, 0)],
    ),
    "self_feature_preserving_loss-fe": (
        lambda v: L.self_feature_preserving_loss(_X8, _X8, v), ContractError, REPR, [None, "fe", 0],
    ),
    "self_feature_preserving_loss-shapes": (
        lambda v: L.self_feature_preserving_loss(*_each(v), _FE), DimensionError, BOTH, [((3, 8, 8), (3, 16, 16))],
    ),
    "identity_invariant_loss-shapes": (
        lambda v: L.identity_invariant_loss(*_each(v)), DimensionError, BOTH, [((3, 8, 8), (3, 8, 4))],
    ),
    "luminance_consistency_loss-shapes": (
        lambda s: _luminance((0, 0, 2, 2), s), DimensionError, "(3, 8, 8) and {value}", [(3, 4, 4)],
    ),
    "luminance_consistency_loss-region": (_luminance, ContractError, "got {value!r}", [(0, 0, 2), 4]),
    "luminance_consistency_loss-region-empty": (
        _luminance, ContractError, "region {value} is empty", [(0, 0, 0, 4), (0, 0, 4, 0), (2, 2, -1, 3)],
    ),
    "luminance_consistency_loss-region-top": (
        lambda v: _luminance((v, 0, 2, 2)), ContractError, _int("crop: top", 0), [True, None, -1, 1.0],
    ),
    "luminance_consistency_loss-region-height": (
        lambda v: _luminance((0, 0, v, 2)), ContractError, _int("crop: height", 1), [True, None, "2", 2.0],
    ),
}

# Public entry points with no row, each with the reason.
NO_CONTRACT = {
    "zero_grad": "sets .grad to None on whatever it is given",
    "Weights": "a plain record; forward and discriminate check the one they are given",
    "named_parameters": "a one-line accessor of w.params",
    "parameters": "a one-line accessor of w.params",
    "init_trunk": "draws from the rng of init_discriminator or FeatureExtractor, its only callers",
    "trunk": "its x and slope reach conv2d and leaky_relu, whose rows cover them",
    "FeatureExtractor": "takes no argument; calling it runs trunk",
}


def case_id(key, value):
    """A case's id: its key and the value's repr, or for an object its type, whose repr holds an address."""
    shown = isinstance(value, (int, float, str, tuple, list, type(None)))
    return f"{key}-{repr(value) if shown else type(value).__name__}"


def reject(key, value):
    """The call of row key must raise its error class with its template, filled with value, in the message."""
    call, error, template, _ = CONTRACTS[key]
    with pytest.raises(error, match=re.escape(template.format(value=value))):
        call(value)


def test_every_public_entry_point_has_a_row_or_a_reason():
    public = {"Tape.backward"} | {
        name
        for module in (T, W, A, G, D, L)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    covered = {key.split("-")[0] for key in CONTRACTS}
    assert public - covered - NO_CONTRACT.keys() == set()
    assert NO_CONTRACT.keys() <= public - covered


SRC = Path(__file__).resolve().parents[1] / "src" / "relight"
# One class per kind of fault, each with its base; the rule is in the errors.py docstring.
ERRORS = {
    "RelightError": "Exception",
    "DimensionError": "RelightError",
    "ContractError": "RelightError",
    "DomainError": "RelightError",
    "DivergenceError": "RelightError",
}


def raised_names(path):
    """(line, class name or None) of every ``raise`` in path."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, getattr(exc, "id", None)


def test_every_raise_names_one_of_the_four_fault_classes():
    classes = ast.parse((SRC / "errors.py").read_text()).body[1:]  # past the docstring
    assert {c.name: [b.id for b in c.bases] for c in classes} == {name: [base] for name, base in ERRORS.items()}
    raises = [(path.name, line, name) for path in sorted(SRC.glob("*.py")) for line, name in raised_names(path)]
    assert raises
    assert [r for r in raises if r[2] not in ERRORS.keys() - {"RelightError"}] == []
