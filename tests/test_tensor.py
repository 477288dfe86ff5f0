import inspect
import platform
import re
import resource
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from finite_diff import finite_diff
from relight import attention as A
from relight import tensor as T
from relight.errors import ContractError
from relight.tensor import Tape, Tensor
from test_contracts import reject


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

    def test_output_is_a_view_of_its_accumulator(self):
        # 3x3 pad-1 rows are computed W + 2 wide; the output drops the last two
        # columns by slicing, so its base is the whole accumulator, not a copy.
        rng = np.random.default_rng(11)
        x, w, b = (Tensor(rng.normal(size=shape)) for shape in ((2, 5, 7), (3, 2, 3, 3), (3,)))
        out = T.conv2d(x, w, b, pad=1).data
        assert out.base is not None and out.base.shape == (3, 5 * 9)
        assert np.max(np.abs(out - (conv2d_reference(x.data, w.data, 1, 1) + b.data[:, None, None]))) < 1e-12

    def test_peak_memory_is_input_phases_accumulator_and_two_blocks(self):
        # 4 -> 32 channels, so one more full-size output (as a bias added out of
        # place makes) is larger than the input and a block together.
        rng = np.random.default_rng(12)
        x, w, b = (Tensor(rng.normal(size=shape)) for shape in ((4, 128, 128), (32, 4, 3, 3), (32,)))
        phases = 4 * (128 + 3) * (128 + 2) * 8  # the padded input, one row of tail
        acc = 32 * 128 * (128 + 2) * 8
        tracemalloc.start()
        try:
            T.conv2d(x, w, b, pad=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes + phases + acc + 2 * T._BLOCK_BYTES

    def test_a_1x1_kernel_holds_no_tap_block(self):
        # One tap, so no buffer for the taps after the first: the same conv as above, 1x1.
        rng = np.random.default_rng(12)
        x, w, b = (Tensor(rng.normal(size=shape)) for shape in ((4, 128, 128), (32, 4, 1, 1), (32,)))
        tracemalloc.start()
        try:
            T.conv2d(x, w, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.data.nbytes + 32 * 128 * 128 * 8  # the input, its copy and the accumulator

    @staticmethod
    def three_column_blocks(k, pad):
        """A 32 -> 32 kxk conv over 4 x 5000 pixels whose output columns make two full column blocks and a partial one.

        conv2d computes its output rows 5000 + 2*pad columns wide, the width of the padded input.
        """
        width = 5000 + 2 * pad
        blocks = T._blocks(4 * width, 8 * 32)
        assert len(blocks) == 3 and blocks[2].stop - blocks[2].start < blocks[0].stop
        rng = np.random.default_rng(10)
        x, w, b = (Tensor(rng.normal(size=shape)) for shape in ((32, 4, 5000), (32, 32, k, k), (32,)))
        return x, w, b, blocks, width

    # a 3x3 pad-1 kernel, and a 1x1 one, whose single tap also runs block by block
    KERNELS = pytest.mark.parametrize("k, pad", [(3, 1), (1, 0)], ids=["3x3-pad1", "1x1-pad0"])

    @KERNELS
    def test_column_blocks_against_direct_correlation(self, k, pad):
        x, w, _, _, _ = self.three_column_blocks(k, pad)
        got = T.conv2d(x, w, zero_bias(w), pad=pad).data
        windows = sliding_window_view(np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))), (k, k), axis=(1, 2))
        expected = np.einsum("chwij,ocij->ohw", windows, w.data, optimize=True)
        assert np.max(np.abs(got - expected)) < 1e-12

    @KERNELS
    def test_gradient_either_side_of_a_column_block_boundary(self, k, pad):
        x, w, b, blocks, width = self.three_column_blocks(k, pad)
        r, c = divmod(blocks[1].start, width)  # the first output of the second block, in the phase-wide rows
        around = [ci * 4 * 5000 + r * 5000 + cc for ci in (0, 31) for cc in (c - 2, c - 1, c, c + 1)]
        entries = [(0, i) for i in around] + [(1, 0), (1, w.size - 1), (2, 0), (2, 31)]
        assert finite_diff(lambda: T.conv2d(x, w, b, pad=pad), [x, w, b], entries) < 1e-6

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

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(Tensor([-1.0, 2.0]), slope=0.2)
        assert np.allclose(out.data, [-0.2, 2.0])

    def test_leaky_relu_peaks_at_one_output_and_its_mask(self):
        x = Tensor(np.random.default_rng(14).normal(size=1 << 20))
        tracemalloc.start()
        try:
            out = T.leaky_relu(x, 0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= x.data.nbytes + x.size + 4096  # float64 output, bool mask, object headers
        assert np.array_equal(out.data, np.where(x.data > 0.0, x.data, 0.2 * x.data))

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_relu_is_the_masked_form_bit_for_bit(self, slope):
        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        rng = np.random.default_rng(15)
        edges = [0.0, -0.0, 1e-320, -1e-320, 1e308, -1e308]
        x = np.concatenate([edges, rng.normal(size=1000)])
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        conv = T.conv2d(Tensor(rng.normal(size=(2, 6, 7))), w, zero_bias(w), pad=1)
        assert not conv.data.flags.c_contiguous  # the strided view that drops the phase grid's extra columns
        for data in (x, conv.data):
            out = T.leaky_relu(Tensor(data), slope).data
            assert np.array_equal(bits(out), bits(np.where(data > 0, data, slope * data)))

    def test_leaky_relu_at_slope_zero_turns_inf_into_nan(self):
        # 0 * inf is NaN, as the masked form gives for -inf; the constructor rejects inf, but an op output may hold one
        inf = T._record(np.array([np.inf, -np.inf, 1.0]), (), None)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(T.leaky_relu(inf, 0.0).data, [np.nan, np.nan, 1.0], equal_nan=True)
        assert np.array_equal(T.leaky_relu(inf, 0.2).data, [np.inf, -np.inf, 1.0])

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

    def test_gelu_matches_the_closed_form_bitwise(self):
        # The closed form in the op's own order, on a large input and a 0-d one.
        n = 611_669  # over 4 MiB of float64
        rng = np.random.default_rng(13)
        raw, g = rng.uniform(-6.0, 6.0, size=n), rng.normal(size=n)
        t = np.tanh((raw * raw * 0.044715 + 1.0) * raw * T._GELU_C)
        expected = (t + 1.0) * raw * 0.5
        slope = (raw * raw * (3 * 0.044715) + 1.0) * raw * (0.5 * T._GELU_C) * (1.0 - t * t) + (t + 1.0) * 0.5
        for at in (slice(None), 7):  # every entry, then a 0-d input
            x = Tensor(raw[at], requires_grad=True)
            with Tape() as tape:
                y = T.gelu(x)
                tape.backward(T.tsum(T.mul(y, Tensor(g[at]))))
            assert np.array_equal(y.data, expected[at]) and y.shape == x.shape
            assert np.array_equal(x.grad, slope[at] * g[at])

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

    def test_a_row_with_a_nan_or_inf_logit_comes_out_all_nan(self):
        x = Tensor(np.zeros((3, 4)))  # poisoned past the constructor's check, as a diverged op output would be
        x.data[0, 1], x.data[1, 2] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            out = T.softmax(x).data
        assert np.isnan(out[:2]).all()
        assert np.array_equal(out[2], np.full(4, 0.25))


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

    def test_upsample_nearest_example(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        out = T.upsample_nearest(x)
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(out.data[0], expected)

    @pytest.mark.parametrize("shape", [(16, 8, 8), (3, 5, 2), (1, 1, 7)])
    def test_upsample_nearest_backward_sums_each_block_as_numpy_does(self, shape):
        # numpy adds a 2x2 block up in this order where the width is at least 2.
        C, H, W = shape
        rng = np.random.default_rng(31)
        g = rng.normal(size=(C, 2 * H, 2 * W)) * 10.0 ** rng.uniform(-5, 5, size=(C, 2 * H, 2 * W))
        x = Tensor(np.zeros(shape), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.mul(T.upsample_nearest(x), Tensor(g))))
        assert np.array_equal(x.grad, g.reshape(C, H, 2, W, 2).sum(axis=(2, 4)))

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
        reject("concat-shapes", shape_b)

    @pytest.mark.parametrize("axis", [2, -3])
    def test_concat_axis_out_of_range(self, axis):
        reject("concat-axis", axis)

    def test_crop_backward_scatters(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.crop(x, 1, 2, 2, 2)))
        expected = np.zeros((1, 4, 4))
        expected[0, 1:3, 2:4] = 1.0
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize(
        "what, value",
        [("top", 1.0), ("left", -1), ("height", 0), ("width", "2")],
        ids=["top-float", "left-negative", "height-zero", "width-str"],
    )
    def test_crop_non_int_or_negative_rect_rejected(self, what, value):
        reject(f"crop-{what}", value)


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

    def test_a_loss_from_another_tape_is_rejected_and_changes_no_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape_a:
            la = T.mean(T.square(w))
        with Tape() as tape_b:
            T.square(w)
        with pytest.raises(ContractError, match="recorded on another tape"):
            tape_b.backward(la)
        assert la.grad is None and w.grad is None
        tape_a.backward(la)
        assert np.array_equal(w.grad, [1.0, 2.0])

    def test_zero_dim_leaf_through_scale_gets_array_grad(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            tape.backward(T.scale(x, 3.0))
            assert type(x.grad) is np.ndarray
            assert x.grad.shape == () and x.grad == 3.0
            tape.backward(T.scale(x, 3.0))
        assert type(x.grad) is np.ndarray and x.grad.flags.owndata
        assert x.grad.shape == () and x.grad == 6.0

    def test_add_of_a_tensor_to_itself_gives_two(self):
        x = Tensor([1.0, -4.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(T.tsum(T.add(x, x)))
        assert np.array_equal(x.grad, [2.0, 2.0])


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
            return T._record(x.data.copy(), (x,), lambda g: (np.where(np.arange(6) == 4, 0.0, g),))

        x = Tensor(np.random.default_rng(22).normal(size=6))
        assert finite_diff(lambda: T.square(drop_entry_4(x)), [x], entries=[(0, 3), (0, 5)]) < 1e-6
        assert finite_diff(lambda: T.square(drop_entry_4(x)), [x]) == 1.0
        assert not x.requires_grad and x.grad is None


class TestTensorInvariants:
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

    The finite-difference, one-record and buffer-safety tests run over it, and
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


@pytest.mark.parametrize("key", sorted(_buffer_cases(np.random.default_rng(0))))
def test_every_recorded_op_returns_one_tensor_and_appends_one_record(key):
    op, arrays = _buffer_cases(np.random.default_rng(0))[key]
    out = op(*[Tensor(arr, requires_grad=True) for arr in arrays])
    assert type(out.data) is np.ndarray and out.requires_grad is False
    with Tape() as tape:
        out = op(*[Tensor(arr) for arr in arrays])
        assert len(tape) == 0 and out.requires_grad is False
        out = op(*[Tensor(arr, requires_grad=True) for arr in arrays])
    # The bench tracer finds an op's backward as the one record whose .out it returned.
    assert len(tape) == 1 and tape._records[0].out is out and out.requires_grad is True


# What each op's record may keep alive of its inputs' arrays (by position) and its output's ("out"):
# exactly the arrays its backward reads.
KEEPS = {
    "add": (), "sub": (), "mul": (0, 1), "scale": (), "leaky_relu": (), "sigmoid": ("out",), "sqrt": ("out",),
    "square": (0,), "softplus": (0,), "gelu": (0,), "gelu-0d": (0,), "matmul": (0, 1), "add_bias": (),
    "softmax": ("out",), "layer_norm": (1,), "reshape": (), "permute": (), "concat": (), "crop": (), "mean": (),
    "tsum": (), "upsample_nearest": (), "conv2d": (0,), "conv2d-stride8": (0,),
}


class TestTapeMemory:
    """A record keeps its closure and its inputs' keys, never array data."""

    @pytest.mark.parametrize("key", sorted(_buffer_cases(np.random.default_rng(0))))
    def test_a_record_keeps_alive_only_what_its_backward_reads(self, key):
        op, arrays = _buffer_cases(np.random.default_rng(0))[key]
        leaves = [Tensor(arr, requires_grad=True) for arr in arrays]
        with Tape() as tape:
            inputs = [T.scale(leaf, 1.0) for leaf in leaves]  # intermediates: only the tape could keep them
            out = op(*inputs)
            loss = T.tsum(out)
        refs = {k: weakref.ref(t.data) for k, t in enumerate(inputs)} | {"out": weakref.ref(out.data)}
        del inputs, out
        assert {k for k, ref in refs.items() if ref() is not None} == set(KEEPS[key])
        tape.backward(loss)
        assert all(leaf.grad.shape == leaf.shape for leaf in leaves)

    def test_a_tensor_made_on_another_tape_is_a_leaf_there(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        with Tape() as tape_a:
            y = T.scale(T.square(x), 2.0)
        with Tape() as tape_b:
            loss = T.tsum(T.scale(y, 3.0))
        tape_b.backward(loss)  # while tape A and its records are alive
        assert np.array_equal(y.grad, np.full(3, 3.0)) and x.grad is None
        records_a = [weakref.ref(node) for node in tape_a._records]
        del tape_a
        assert [ref() for ref in records_a] == [None, None]  # tape B, y and loss keep none of them
        tape_b.backward(loss)
        assert np.array_equal(y.grad, np.full(3, 6.0)) and x.grad is None


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
