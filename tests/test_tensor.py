import inspect
import platform
import re
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finite_diff import finite_diff
from relight import attention as A
from relight import tensor as T
from relight.errors import ContractError, DimensionError, DomainError
from relight.tensor import Tape, Tensor


def matmul_reference(a, b):
    """Triple-loop matrix product, the independent oracle for T.matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def conv2d_reference(x, w, stride, pad):
    """Quadruple-loop cross-correlation, the independent oracle for T.conv2d."""
    cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[ci, i * stride + a, j * stride + b] * w[co, ci, a, b]
                out[co, i, j] = acc
    return out


# Every conv geometry the network uses, plus strides that do not divide the padded size.
CONV_GEOMETRIES = {
    "1x1-s1-p0": ((2, 9, 8), (3, 2, 1, 1), 1, 0),
    "3x3-s1-p0": ((2, 9, 8), (3, 2, 3, 3), 1, 0),
    "3x3-s1-p1": ((2, 9, 8), (3, 2, 3, 3), 1, 1),
    "3x3-s2-p0": ((2, 9, 8), (3, 2, 3, 3), 2, 0),
    "3x3-s2-p1-odd": ((2, 9, 7), (3, 2, 3, 3), 2, 1),
    "8x8-s8-p0": ((3, 16, 24), (16, 3, 8, 8), 8, 0),  # the patch embed's channels
    "2x3-s3-p2": ((2, 10, 11), (3, 2, 2, 3), 3, 2),
}


class TestMatmul:
    def test_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 4)))
        assert np.allclose((a @ Tensor(np.eye(4))).data, a.data)

    def test_against_loop_reference(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - matmul_reference(a, b))) < 1e-12

    def test_loop_reference_up_to_16(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m, k, n = rng.integers(1, 17, size=3)
            a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
            got = T.matmul(Tensor(a), Tensor(b)).data
            assert np.max(np.abs(got - matmul_reference(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        got = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            assert np.max(np.abs(got[i] - matmul_reference(a[i], b[i]))) < 1e-12

    def test_backward_rule(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(a @ b))
        g = np.ones((3, 2))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


def zero_bias(w):
    """A zero [C_out] bias for kernels w (Tensor or array), so conv2d computes the bare correlation."""
    return Tensor(np.zeros(w.shape[0]))


class TestConv2d:
    def test_hand_example(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        w = Tensor([[[[1.0, 0.0], [0.0, 1.0]]]])
        out = T.conv2d(x, w, zero_bias(w))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 5.0

    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 6, 7)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(T.conv2d(x, w, zero_bias(w)).data, x.data)

    def test_patch_shape(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 64, 64)))
        w = Tensor(rng.normal(size=(5, 3, 8, 8)))
        assert T.conv2d(x, w, zero_bias(w), stride=8).shape == (5, 8, 8)

    @pytest.mark.parametrize("x_shape, w_shape, stride, pad", CONV_GEOMETRIES.values(), ids=CONV_GEOMETRIES.keys())
    def test_against_loop_reference(self, x_shape, w_shape, stride, pad):
        rng = np.random.default_rng(7)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        got = T.conv2d(Tensor(x), Tensor(w), zero_bias(w), stride=stride, pad=pad).data
        assert np.max(np.abs(got - conv2d_reference(x, w, stride, pad))) < 1e-12

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize(
        "arg, value, least",
        [
            ("pad", -1, 0), ("pad", 1.0, 0), ("pad", "1", 0), ("pad", False, 0),
            ("stride", 0, 1), ("stride", -2, 1), ("stride", 1.5, 1), ("stride", True, 1),
        ],
    )
    def test_bad_stride_or_pad_rejected(self, arg, value, least):
        x, w = Tensor(np.zeros((1, 8, 8))), Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ContractError, match=re.escape(f"conv2d: {arg} must be an int >= {least}, got {value!r}")):
            T.conv2d(x, w, zero_bias(w), **{arg: value})

    @pytest.mark.parametrize("x_shape, w_shape, stride, pad", CONV_GEOMETRIES.values(), ids=CONV_GEOMETRIES.keys())
    def test_gradient(self, x_shape, w_shape, stride, pad):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=x_shape))
        w = Tensor(rng.normal(size=w_shape))
        b = Tensor(rng.normal(size=w_shape[0]))
        assert finite_diff(lambda: T.conv2d(x, w, b, stride=stride, pad=pad), [x, w, b]) < 1e-6

    def test_non_overlapping_taps_gradient_is_the_tiled_kernel_sum(self):
        # Each input pixel meets exactly one tap of one output cell, so dx of the
        # mean has a closed form, the kernel summed over output channels and tiled
        # over the cells: an exact check of the patch-embed geometry that needs no
        # finite differences (those cover it through conv2d-stride8 and 8x8-s8-p0).
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 16, 24)), requires_grad=True)
        w = rng.normal(size=(3, 2, 8, 8))
        with Tape() as tape:
            tape.backward(T.mean(T.conv2d(x, Tensor(w), zero_bias(w), stride=8)))
        expected = np.tile(w.sum(axis=0), (1, 2, 3)) / (3 * 2 * 3)
        assert np.max(np.abs(x.grad - expected)) < 1e-15

    def test_forward_needs_no_column_matrix(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(32, 64, 64)))
        w = Tensor(rng.normal(size=(32, 32, 3, 3)))
        b = zero_bias(w)
        im2col_bytes = 32 * 3 * 3 * 64 * 64 * 8  # the (C*kh*kw, Ho*Wo) float64 matrix
        tracemalloc.start()
        try:
            T.conv2d(x, w, b, pad=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < im2col_bytes


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_relu(self):
        # relu is leaky_relu with slope 0, as the feature extractor calls it
        out = T.leaky_relu(Tensor([-2.0, 3.0]), 0.0)
        assert np.array_equal(out.data, [0.0, 3.0])

    def test_square_derivative(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.square(x)))
        assert x.grad[0] == pytest.approx(6.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            T.sqrt(Tensor([1.0, -1e-12]))

    def test_binary_shape_check(self):
        with pytest.raises(DimensionError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(Tensor([-1.0, 2.0]), slope=0.2)
        assert np.allclose(out.data, [-0.2, 2.0])

    def test_softplus_stable_and_correct(self):
        x = Tensor([0.0, 50.0, -50.0, 1000.0])
        out = T.softplus(x).data
        assert out[0] == pytest.approx(np.log(2.0))
        assert out[1] == pytest.approx(50.0)
        assert out[2] == pytest.approx(np.exp(-50.0), abs=1e-25)
        assert np.isfinite(out[3])

    def test_gelu_matches_closed_form(self):
        x = np.linspace(-6.0, 6.0, 2001)
        expected = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x * x * x)))
        assert np.allclose(T.gelu(Tensor(x)).data, expected, rtol=1e-14, atol=1e-15)
        assert np.allclose(T.gelu(Tensor(x[1500])).data, expected[1500], rtol=1e-14, atol=1e-15)

    def test_gelu_gradient_on_both_signs(self):
        raw = np.random.default_rng(11).uniform(-4.0, 4.0, size=7)
        assert (raw < -2.0).any() and (raw > 2.0).any()
        x = Tensor(raw)
        assert finite_diff(lambda: T.gelu(x), [x]) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_invariance_no_overflow(self):
        assert np.allclose(T.softmax(Tensor([1000.0, 1000.0])).data, [0.5, 0.5])

    def test_hand_value(self):
        out = T.softmax(Tensor([0.0, np.log(3.0)])).data
        assert np.allclose(out, [0.25, 0.75])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        out = T.softmax(Tensor(rng.normal(size=(4, 6)))).data
        assert np.allclose(out.sum(axis=-1), 1.0)


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = Tensor(np.full((5,), 2.7))
        out = T.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        assert np.allclose(out.data, 0.0)

    def test_output_statistics(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(10, 64)))
        gamma, beta = Tensor(np.full(64, 1.5)), Tensor(np.full(64, 0.3))
        out = T.layer_norm(x, gamma, beta).data
        assert np.allclose(out.mean(axis=-1), 0.3, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.5, atol=1e-2)


class TestShapeOps:
    def test_reshape_preserves_row_major_order(self):
        x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = T.reshape(x, (3, 2))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_reshape_count_mismatch(self):
        with pytest.raises(DimensionError):
            T.reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_reshape_error_names_an_int_target_as_given(self):
        with pytest.raises(DimensionError, match=re.escape("cannot view shape (6,) as 7")):
            T.reshape(Tensor(np.zeros(6)), 7)

    def test_upsample_nearest_example(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        out = T.upsample_nearest(x)
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(out.data[0], expected)

    def test_sum_backward_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reshape_permute_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        back = T.reshape(T.reshape(x, (4, 6)), (2, 3, 4))
        assert np.array_equal(back.data, x.data)
        axes = tuple(rng.permutation(3).tolist())
        inv = tuple(np.argsort(axes).tolist())
        assert np.array_equal(T.permute(T.permute(x, axes), inv).data, x.data)

    def test_concat_and_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        with Tape() as tape:
            out = T.concat([a, b], axis=0)
            assert out.shape == (5, 2)
            tape.backward(T.tsum(T.scale(out, 2.0)))
        assert np.array_equal(a.grad, np.full((2, 2), 2.0))
        assert np.array_equal(b.grad, np.full((3, 2), 2.0))

    def test_concat_negative_axis_and_backward(self):
        a = Tensor(np.ones((2, 1)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        with Tape() as tape:
            out = T.concat([a, b], axis=-1)
            assert np.array_equal(out.data, np.concatenate([a.data, b.data], axis=1))
            tape.backward(T.tsum(T.scale(out, 3.0)))
        assert np.array_equal(a.grad, np.full((2, 1), 3.0))
        assert np.array_equal(b.grad, np.full((2, 3), 3.0))

    @pytest.mark.parametrize("shape_b", [(3, 3), (2,), (2, 2, 1)])
    def test_concat_shapes_differing_off_axis(self, shape_b):
        a, b = Tensor(np.zeros((2, 2))), Tensor(np.zeros(shape_b))
        with pytest.raises(DimensionError, match=re.escape(f"[(2, 2), {shape_b}]")):
            T.concat([a, b], axis=0)

    @pytest.mark.parametrize("axis", [2, -3])
    def test_concat_axis_out_of_range(self, axis):
        a = Tensor(np.zeros((2, 2)))
        with pytest.raises(DimensionError, match=f"axis {axis} invalid for shape \\(2, 2\\)"):
            T.concat([a, a], axis=axis)

    def test_crop_backward_scatters(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.crop(x, 1, 2, 2, 2)))
        expected = np.zeros((1, 4, 4))
        expected[0, 1:3, 2:4] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_crop_out_of_bounds(self):
        with pytest.raises(DimensionError):
            T.crop(Tensor(np.zeros((1, 4, 4))), 3, 3, 4, 4)

    @pytest.mark.parametrize(
        "what, rect, least",
        [("top", (1.0, 0, 2, 2), 0), ("left", (0, -1, 2, 2), 0), ("height", (0, 0, 0, 2), 1), ("width", (0, 0, 2, "2"), 1)],
        ids=["top-float", "left-negative", "height-zero", "width-str"],
    )
    def test_crop_non_int_or_negative_rect_rejected(self, what, rect, least):
        value = rect[("top", "left", "height", "width").index(what)]
        with pytest.raises(ContractError, match=re.escape(f"crop: {what} must be an int >= {least}, got {value!r}")):
            T.crop(Tensor(np.zeros((1, 4, 4))), *rect)


class TestBackward:
    def test_linear_loss(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.scale(x, 3.0)))
        assert np.array_equal(x.grad, np.full(4, 3.0))

    def test_sigmoid_chain_at_zero(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.sigmoid(x)))
        assert np.allclose(x.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            y = T.scale(x, 2.0)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            y = T.tsum(T.scale(x, 3.0))
            tape.backward(y)
            tape.backward(y)
        assert x.grad[0] == pytest.approx(6.0)

    def test_second_backward_through_gelu_softmax_mhsa_doubles_every_gradient(self):
        # A backward that overwrote an array its closure keeps would change the second pass.
        rng = np.random.default_rng(22)
        p = {
            f"m.{name}": Tensor(rng.normal(size=(8, 8)) / np.sqrt(8), requires_grad=True)
            for name in ("w_q", "w_k", "w_v", "w_o")
        }
        x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 4, 8)))
        leaves = [x, *p.values()]
        with Tape() as tape:
            loss = T.tsum(T.mul(T.softmax(T.gelu(A.mhsa(x, p, "m", 2))), c))
            tape.backward(loss)
            once = [t.grad.copy() for t in leaves]
            tape.backward(loss)
        for t, g in zip(leaves, once):
            assert np.array_equal(t.grad, 2.0 * g)

    def test_tape_linearity(self):
        rng = np.random.default_rng(18)
        data = rng.normal(size=4)

        def build(x):
            return T.tsum(T.square(x)), T.tsum(T.sigmoid(x))

        x1 = Tensor(data.copy(), requires_grad=True)
        with Tape() as tape:
            l1, l2 = build(x1)
            tape.backward(T.add(l1, l2))
        combined = x1.grad.copy()

        x2 = Tensor(data.copy(), requires_grad=True)
        with Tape() as tape:
            l1, l2 = build(x2)
            tape.backward(l1)
            tape.backward(l2)
        assert np.allclose(combined, x2.grad)

    def test_shared_input_used_twice(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.mul(x, x)))
        assert x.grad[0] == pytest.approx(4.0)

    def test_detach_blocks_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            y = T.square(x)
            z = T.tsum(T.square(y.detach()))
            tape.backward(z)
        assert x.grad is None

    def test_no_tape_means_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.square(x)
        assert y.requires_grad is False

    def test_loss_without_grad_leaves_every_leaf_grad_none(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            T.tsum(T.square(x))
            loss = T.tsum(Tensor([3.0]))
            tape.backward(loss)
        assert not loss.requires_grad
        assert x.grad is None

    def test_leaf_used_as_loss_gets_one(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            T.square(x)
            tape.backward(x)
        assert type(x.grad) is np.ndarray
        assert np.array_equal(x.grad, np.array(1.0)) and x.grad.shape == ()

    def test_zero_dim_leaf_through_scale_gets_array_grad(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            tape.backward(T.scale(x, 3.0))
        assert type(x.grad) is np.ndarray
        assert x.grad.shape == () and x.grad == 3.0

    def test_add_of_a_tensor_to_itself_gives_two(self):
        x = Tensor([1.0, -4.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.add(x, x)))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass


class TestFiniteDiffCheck:
    def test_entries_variant(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        f = lambda: T.square(a @ b)
        assert finite_diff(f, [a, b], entries=[(0, 0), (0, 5), (1, 8)]) < 1e-6
        assert a.grad is None and b.grad is None and a.requires_grad and b.requires_grad

    def test_wrong_backward_fails_only_where_probed(self):
        def drop_entry_4(x):  # the identity, with a backward that loses entry 4
            return T._record(Tensor._wrap(x.data.copy()), (x,), lambda g: (np.where(np.arange(6) == 4, 0.0, g),))

        x = Tensor(np.random.default_rng(22).normal(size=6))
        assert finite_diff(lambda: T.square(drop_entry_4(x)), [x], entries=[(0, 3), (0, 5)]) < 1e-6
        assert finite_diff(lambda: T.square(drop_entry_4(x)), [x]) == 1.0
        assert not x.requires_grad and x.grad is None


class TestTensorInvariants:
    def test_non_finite_input_rejected(self):
        with pytest.raises(ContractError):
            Tensor([1.0, np.nan])

    def test_grad_shape_matches(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.mean(T.square(x)))
        assert x.grad.shape == x.shape

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: T.scale(x, 3.0),
            lambda x: T.add(x, x),
            lambda x: T.sub(x, x),
            lambda x: T.mul(x, x),
            T.leaky_relu,
            T.sigmoid,
            T.sqrt,
            T.square,
            T.softplus,
            T.gelu,
            T.mean,
            T.tsum,
        ],
        ids=["scale", "add", "sub", "mul", "leaky_relu", "sigmoid", "sqrt", "square", "softplus", "gelu", "mean", "tsum"],
    )
    def test_zero_dim_output_data_is_an_array(self, op):
        out = op(Tensor(2.0))
        assert type(out.data) is np.ndarray
        assert out.shape == ()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_ops_finite_on_finite_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-3, 3, size=(2, 5)))
        for op in (T.sigmoid, T.square, T.softplus, T.gelu, T.softmax):
            assert np.isfinite(op(x).data).all()


def _buffer_cases(rng):
    """The op table: every recorded op (keyed ``op`` or ``op-variant``) with its input arrays.

    The finite-difference and buffer-safety tests run over it, and
    ``test_cases_cover_every_recorded_op`` keeps it complete.
    """

    def a(*shape):
        return np.array(rng.normal(size=shape))

    return {
        "add": (T.add, [a(2, 3), a(2, 3)]),
        "sub": (T.sub, [a(2, 3), a(2, 3)]),
        "mul": (T.mul, [a(2, 3), a(2, 3)]),
        "scale": (lambda x: T.scale(x, 1.5), [a(2, 3)]),
        "leaky_relu": (T.leaky_relu, [a(2, 3)]),
        "sigmoid": (T.sigmoid, [a(2, 3)]),
        "sqrt": (T.sqrt, [np.abs(a(2, 3)) + 0.5]),
        "square": (T.square, [a(2, 3)]),
        "softplus": (T.softplus, [a(2, 3)]),
        "gelu": (T.gelu, [a(2, 3)]),
        "gelu-0d": (T.gelu, [a()]),
        "matmul": (T.matmul, [a(2, 3, 4), a(2, 4, 5)]),
        "add_bias": (T.add_bias, [a(2, 3), a(3)]),
        "softmax": (T.softmax, [a(2, 3, 4)]),
        "layer_norm": (T.layer_norm, [a(2, 3), a(3), a(3)]),
        "reshape": (lambda x: T.reshape(x, (3, 2)), [a(2, 3)]),
        "permute": (lambda x: T.permute(x, (1, 0)), [a(2, 3)]),
        "concat": (lambda x, y: T.concat([x, y], axis=1), [a(2, 3), a(2, 1)]),
        "crop": (lambda x: T.crop(x, 1, 1, 2, 2), [a(2, 4, 4)]),
        "mean": (T.mean, [a(2, 3)]),
        "tsum": (T.tsum, [a(2, 3)]),
        "upsample_nearest": (T.upsample_nearest, [a(2, 2, 3)]),
        "conv2d": (lambda x, w, b: T.conv2d(x, w, b, stride=2, pad=1), [a(2, 5, 5), a(3, 2, 3, 3), a(3)]),
        "conv2d-stride8": (lambda x, w, b: T.conv2d(x, w, b, stride=8), [a(2, 16, 16), a(3, 2, 8, 8), a(3)]),
    }


@pytest.mark.parametrize("key", sorted(_buffer_cases(np.random.default_rng(0))))
def test_every_recorded_op_gradient_matches_central_differences(key):
    op, arrays = _buffer_cases(np.random.default_rng(0))[key]
    leaves = [Tensor(arr) for arr in arrays]
    for k, leaf in enumerate(leaves):
        err = finite_diff(lambda: op(*leaves), [leaf])
        assert err < 1e-6, f"{key}: gradient of input {k} {leaf.shape} is off by {err:.2e}"


class TestBufferSafety:
    """Ops may write in place only into arrays they allocated themselves."""

    def test_cases_cover_every_recorded_op(self):
        recorded = {
            name
            for name, f in vars(T).items()
            if inspect.isfunction(f) and not name.startswith("_") and "_record(" in inspect.getsource(f)
        }
        assert {key.split("-")[0] for key in _buffer_cases(np.random.default_rng(0))} == recorded

    @pytest.mark.parametrize("key", sorted(_buffer_cases(np.random.default_rng(0))))
    def test_read_only_inputs_and_incoming_gradient(self, key):
        rng = np.random.default_rng(30)
        op, arrays = _buffer_cases(rng)[key]
        for arr in arrays:
            arr.flags.writeable = False
        leaves = [Tensor(arr, requires_grad=True) for arr in arrays]
        with Tape() as tape:
            out = op(*leaves)
        (node,) = tape._records
        out_before = np.array(out.data, copy=True)
        g = np.array(rng.normal(size=out.shape))
        g.flags.writeable = False
        first = [np.array(gin, copy=True) for gin in node.backward(g)]
        second = node.backward(g)
        assert np.array_equal(out.data, out_before)
        for a_, b_ in zip(first, second):
            assert np.array_equal(a_, b_)


class TestAllocator:
    """Importing relight.tensor keeps freed memory in the process."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's mallopt")
    def test_freed_block_is_refilled_without_page_faults(self):
        n = (64 << 20) // 8
        # Off, so the count does not depend on transparent huge pages.
        previous = np._core.multiarray._set_madvise_hugepage(False)
        try:
            a = np.empty(n)
            a.fill(1.0)
            del a
            a = np.empty(n)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            a.fill(2.0)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        finally:
            np._core.multiarray._set_madvise_hugepage(previous)
        assert faults < 0.01 * (n * 8 // 4096)
