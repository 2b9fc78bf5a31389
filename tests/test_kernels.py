"""Convolution transform equivalence and multiplication-count estimates."""

import numpy as np
import pytest

from dnncost.kernels import (conv_direct, conv_fft, conv_im2col,
                             conv_winograd_f22_33, im2col_matrix)
from dnncost.stats import MULT_METHODS, mult_count, next_pow2
from oracles import window_conv


def rel_err(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / scale


class TestDirect:
    def test_scalar_filter_scales_the_image(self):
        out = conv_direct([[[1.0, 2.0], [3.0, 4.0]]], [[[[2.0]]]])
        assert out.shape == (1, 2, 2)
        np.testing.assert_allclose(out, [[[2.0, 4.0], [6.0, 8.0]]])

    def test_box_filter_worked_example(self):
        x = np.arange(1.0, 10.0).reshape(1, 3, 3)
        w = np.ones((1, 1, 2, 2))
        np.testing.assert_allclose(conv_direct(x, w),
                                   [[[12.0, 16.0], [24.0, 28.0]]])

    def test_channels_sum_into_each_output(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5, 5))
        w = rng.standard_normal((2, 3, 2, 2))
        out = conv_direct(x, w)
        by_hand = sum(conv_direct(x[c:c + 1], w[:, c:c + 1]) for c in range(3))
        np.testing.assert_allclose(out, by_hand, rtol=1e-12)

    def test_stride_and_pad_geometry(self):
        x = np.ones((1, 5, 5))
        out = conv_direct(x, np.ones((1, 1, 3, 3)), stride=2, pad=1)
        assert out.shape == (1, 3, 3)
        assert out[0, 1, 1] == 9.0  # interior window fully covered
        assert out[0, 0, 0] == 4.0  # corner loses a padded row and column

    def test_oversized_filter_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            conv_direct(np.ones((1, 2, 2)), np.ones((1, 1, 3, 3)))

    @pytest.mark.parametrize("route", [conv_direct, conv_im2col, conv_winograd_f22_33, conv_fft],
                             ids=lambda route: route.__name__)
    @pytest.mark.parametrize("x_shape, w_shape, match", [
        ((2, 2), (1, 1, 2, 2), "C x H x W"),
        ((1, 4, 4), (1, 2, 2), "M x C x R x S"),
        ((2, 4, 4), (1, 3, 2, 2), "channel mismatch"),
        ((0, 4, 4), (1, 0, 3, 3), "input has an empty axis"),
        ((1, 4, 0), (1, 1, 3, 3), "input has an empty axis"),
        ((1, 4, 4), (0, 1, 3, 3), "filters have an empty axis"),
        ((1, 4, 4), (1, 1, 0, 2), "filters have an empty axis"),
    ], ids=["2d-input", "3d-filters", "channel-mismatch", "no-channels",
            "no-width", "no-filters", "no-kernel-rows"])
    def test_operand_shape_validation(self, route, x_shape, w_shape, match):
        with pytest.raises(ValueError, match=match):
            route(np.ones(x_shape), np.ones(w_shape))

    @pytest.mark.parametrize("lowering", [
        conv_direct, conv_im2col,
        lambda x, w, **geometry: im2col_matrix(x, w.shape[2:], **geometry),
    ], ids=["conv_direct", "conv_im2col", "im2col_matrix"])
    @pytest.mark.parametrize("geometry", [{"stride": 0}, {"stride": -1}, {"pad": -1}],
                             ids=["stride-0", "stride-negative", "pad-negative"])
    def test_stride_and_pad_validation(self, lowering, geometry):
        with pytest.raises(ValueError, match="stride must be >= 1 and pad >= 0"):
            lowering(np.ones((1, 4, 4)), np.ones((1, 1, 2, 2)), **geometry)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        np.testing.assert_allclose(conv_direct(2.5 * x, w),
                                   2.5 * conv_direct(x, w), rtol=1e-12)


def oracle_cases(count, seed):
    """Random strided, padded, rectangular problems whose kernel fits."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        c, m = (int(v) for v in rng.integers(1, 4, size=2))
        h, wd = (int(v) for v in rng.integers(1, 10, size=2))
        r, s = (int(v) for v in rng.integers(1, 5, size=2))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 3))
        if h - r + 2 * pad >= 0 and wd - s + 2 * pad >= 0:
            cases.append((rng.standard_normal((c, h, wd)),
                          rng.standard_normal((m, c, r, s)), stride, pad))
    return cases


class TestAgainstWindowOracle:
    """The lowering routes against the per-position window dot product."""

    @pytest.mark.parametrize("x, w, stride, pad", oracle_cases(40, seed=13))
    def test_direct_and_im2col(self, x, w, stride, pad):
        out, cols = window_conv(x, w, stride=stride, pad=pad)
        np.testing.assert_array_equal(
            im2col_matrix(x, w.shape[2:], stride=stride, pad=pad), cols)
        for route in (conv_direct, conv_im2col):
            got = route(x, w, stride=stride, pad=pad)
            assert got.shape == out.shape
            assert rel_err(got, out) < 1e-12


class TestIm2col:
    def test_patch_matrix_shape_and_content(self):
        x = np.arange(1.0, 10.0).reshape(1, 3, 3)
        cols = im2col_matrix(x, (2, 2))
        assert cols.shape == (4, 4)  # C*R*S rows, E*F columns
        np.testing.assert_allclose(cols[:, 0], [1.0, 2.0, 4.0, 5.0])
        np.testing.assert_allclose(cols[:, 3], [5.0, 6.0, 8.0, 9.0])

    @pytest.mark.parametrize("x_shape, kernel, match", [
        ((4, 4), (2, 2), "C x H x W"),
        ((0, 4, 4), (2, 2), "input has an empty axis"),
        ((1, 3, 5), (0, 2), "kernel must be positive"),
        ((1, 3, 5), (2, 0), "kernel must be positive"),
        ((1, 3, 5), (-1, 2), "kernel must be positive"),
    ], ids=["2d-input", "no-channels", "no-kernel-rows", "no-kernel-columns",
            "negative-kernel"])
    def test_input_and_kernel_validation(self, x_shape, kernel, match):
        with pytest.raises(ValueError, match=match):
            im2col_matrix(np.ones(x_shape), kernel)

    def test_unit_kernel_is_a_flattening(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 4))
        np.testing.assert_array_equal(im2col_matrix(x, (1, 1)), x.reshape(3, 16))

    def test_matches_direct_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            c, m = rng.integers(1, 5, size=2)
            h = int(rng.integers(3, 9))
            r = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = rng.standard_normal((c, h, h))
            w = rng.standard_normal((m, c, r, r))
            a = conv_direct(x, w, stride=stride, pad=pad)
            b = conv_im2col(x, w, stride=stride, pad=pad)
            assert rel_err(a, b) < 1e-12


class TestWinograd:
    def test_matches_direct_even_extents(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 6, 6))  # 4x4 output, whole tiles
        w = rng.standard_normal((3, 2, 3, 3))
        assert rel_err(conv_winograd_f22_33(x, w), conv_direct(x, w)) < 1e-10

    def test_matches_direct_odd_extents(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 5, 7))  # 3x5 output, crop path
        w = rng.standard_normal((2, 1, 3, 3))
        assert rel_err(conv_winograd_f22_33(x, w), conv_direct(x, w)) < 1e-10

    def test_zero_filter_gives_zeros(self):
        out = conv_winograd_f22_33(np.ones((1, 4, 4)), np.zeros((1, 1, 3, 3)))
        np.testing.assert_array_equal(out, np.zeros((1, 2, 2)))

    def test_rejects_other_filter_sizes(self):
        with pytest.raises(ValueError, match="3x3"):
            conv_winograd_f22_33(np.ones((1, 6, 6)), np.ones((1, 1, 5, 5)))

    def test_rejects_undersized_input(self):
        with pytest.raises(ValueError, match="does not fit input extent"):
            conv_winograd_f22_33(np.ones((1, 3, 2)), np.ones((1, 1, 3, 3)))


class TestFFT:
    def test_next_pow2(self):
        assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9, 36)] \
            == [1, 2, 4, 8, 8, 16, 64]
        with pytest.raises(ValueError):
            next_pow2(0)

    def test_conv_fft_matches_direct(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            c, m = rng.integers(1, 4, size=2)
            h = int(rng.integers(3, 10))
            r = int(rng.integers(1, min(h, 4) + 1))
            x = rng.standard_normal((c, h, h))
            w = rng.standard_normal((m, c, r, r))
            assert rel_err(conv_fft(x, w), conv_direct(x, w)) < 1e-10

    def test_delta_filter_is_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 8, 8))
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        assert rel_err(conv_fft(x, w), x) < 1e-12

    def test_rejects_oversized_filter(self):
        with pytest.raises(ValueError, match="does not fit input extent"):
            conv_fft(np.ones((1, 2, 2)), np.ones((1, 1, 3, 3)))


class TestFourWayAgreement:
    def test_random_three_by_three_problems(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            c, m = rng.integers(1, 4, size=2)
            h = int(rng.integers(4, 12))
            x = rng.standard_normal((c, h, h))
            w = rng.standard_normal((m, c, 3, 3))
            ref = conv_direct(x, w)
            assert rel_err(conv_im2col(x, w), ref) < 1e-12
            assert rel_err(conv_winograd_f22_33(x, w), ref) < 1e-9
            assert rel_err(conv_fft(x, w), ref) < 1e-9


class TestMultCount:
    def test_frozen_counts(self):
        assert mult_count("direct", out_size=32, filter_size=5).count == 25_600
        assert mult_count("im2col", out_size=32, filter_size=5).count == 25_600
        fft = mult_count("fft", out_size=32, filter_size=5)
        assert fft.count == 77_824
        assert fft.params["fft_size"] == 64
        assert mult_count("winograd", out_size=8, filter_size=3).count == 256
        assert mult_count("strassen", matrix_size=8).count == 343

    def test_winograd_saves_exactly_2_25x(self):
        for no in (2, 4, 6, 8, 16, 56):
            direct = mult_count("direct", out_size=no, filter_size=3).count
            wino = mult_count("winograd", out_size=no, filter_size=3).count
            assert direct * 16 == wino * 36
            assert direct / wino == 2.25

    def test_strassen_recursion(self):
        for n in (1, 2, 4, 8, 16, 32):
            assert mult_count("strassen", matrix_size=2 * n).count \
                == 7 * mult_count("strassen", matrix_size=n).count
        assert mult_count("strassen", matrix_size=1).count == 1

    def test_fft_grows_past_direct_for_small_filters(self):
        direct = mult_count("direct", out_size=32, filter_size=5).count
        fft = mult_count("fft", out_size=32, filter_size=5).count
        assert fft > direct  # transform overhead swamps a 5x5 filter

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            mult_count("karatsuba", out_size=4, filter_size=3)
        with pytest.raises(ValueError, match="power-of-two"):
            mult_count("strassen", matrix_size=6)
        with pytest.raises(ValueError, match="power-of-two"):
            mult_count("strassen")
        with pytest.raises(ValueError, match="positive"):
            mult_count("direct", out_size=4)
        with pytest.raises(ValueError, match="3x3"):
            mult_count("winograd", out_size=4, filter_size=5)

    def test_method_registry(self):
        assert MULT_METHODS == ("direct", "im2col", "fft", "winograd", "strassen")
