"""Convolution transform equivalence and multiplication-count estimates."""

import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dnncost.kernels import (_check_input, _columns, _windows, conv_direct, conv_fft,
                             conv_im2col, conv_winograd_f22_33)
from dnncost.stats import MAX_COUNT_SIZE, MULT_METHODS, mult_count, next_pow2
from oracles import (conv_fft_count, direct_conv_count, fft2_count, fft_conv_count,
                     im2col_conv_count, reference_conv_fft, strassen_product, window_conv,
                     winograd_conv_count)


def im2col_matrix(x, kernel, stride=1, pad=0):
    """The patch matrix ``conv_im2col`` multiplies the filters by: one column
    of C*R*S values per output position, E*F columns in row-major order."""
    return _columns(_windows(_check_input(x), kernel, stride, pad))


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
    @pytest.mark.parametrize("geometry, message", [
        ({"stride": 0}, "stride must be an integer >= 1, got 0"),
        ({"stride": -1}, "stride must be an integer >= 1, got -1"),
        ({"pad": -1}, "pad must be an integer >= 0, got -1"),
    ], ids=["stride-0", "stride-negative", "pad-negative"])
    def test_stride_and_pad_validation(self, lowering, geometry, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
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
    ], ids=["2d-input", "no-channels"])
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


def fft_cases(count, seed):
    """Random stride-1 problems with C, M, R and S each drawn from 1..5, so
    that R != S and R > C occur, and H != W."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        c, m, r, s = (int(v) for v in rng.integers(1, 6, size=4))
        h, wd = int(rng.integers(r, r + 12)), int(rng.integers(s, s + 12))
        if h != wd:
            cases.append((rng.standard_normal((c, h, wd)), rng.standard_normal((m, c, r, s))))
    return cases


def one_by_one_and_long_cases(seed):
    """1x1 filters, and a 520 x 530 input whose 11 x 11 filters need
    1024-point transforms along both axes."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(x_shape), rng.standard_normal(w_shape))
            for x_shape, w_shape in (((3, 7, 5), (4, 3, 1, 1)), ((1, 1, 9), (2, 1, 1, 1)),
                                     ((2, 520, 530), (2, 2, 11, 11)))]


class TestFFT:
    @pytest.mark.parametrize("x, w", fft_cases(40, seed=14) + one_by_one_and_long_cases(15))
    def test_matches_the_three_transform_reference(self, x, w):
        """Summing over channels before the filters' row-axis DFT moves only
        the last bits of the textbook route, and both match direct."""
        reference = reference_conv_fft(x, w)
        got = conv_fft(x, w)
        assert got.shape == reference.shape
        bound = 1e-12 * np.abs(reference).max()
        assert np.abs(got - reference).max() <= bound
        assert np.abs(got - conv_direct(x, w)).max() <= bound

    def test_never_builds_the_filter_bank_spectrum(self):
        """64 channels of 58 x 58 under 64 3x3 filters: the M x C x 64 x 33
        complex filter spectrum alone would be 138 MB."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((64, 58, 58))
        w = rng.standard_normal((64, 64, 3, 3))
        tracemalloc.start()
        try:
            conv_fft(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

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

    def test_winograd_counts_the_tiles_the_kernel_forms_at_even_sizes(self):
        """The count assumes an even out size. At an odd size n the kernel pads
        to whole 2x2 tiles, so it forms ceil(n/2)^2 tiles of 16 products per
        filter and channel, where the count is 16/36 of the n^2 * 9 direct products."""
        shapes = []

        def record(*args):
            shapes.append(_windows(*args).shape)  # C x TY x TX x 4 x 4
            return _windows(*args)

        formed, counted = {}, {}
        with mock.patch("dnncost.kernels._windows", record):
            for n in range(2, 65):
                conv_winograd_f22_33(np.zeros((1, n + 2, n + 2)), np.zeros((1, 1, 3, 3)))
                _, ty, tx, _, _ = shapes.pop()
                formed[n] = ty * tx * 16
                counted[n] = mult_count("winograd", out_size=n, filter_size=3).count
        for n in range(2, 65, 2):
            assert formed[n] == counted[n]
        for n in range(3, 65, 2):
            assert (formed[n], counted[n]) == (((n + 1) // 2) ** 2 * 16, n * n * 9 * 16 // 36)
        assert [(formed[n], counted[n]) for n in (3, 5, 7)] == [(64, 36), (144, 100), (256, 196)]

    # (out size, filter size): every out size up to 64 under a 1x1 and a 3x3
    # filter, and every filter size up to 64 under a 1- and a 2-wide output
    COUNTED_SIZES = ([(n, f) for f in (1, 3) for n in range(1, 65)]
                     + [(n, f) for n in (1, 2) for f in range(1, 65)])

    @pytest.mark.parametrize("method, oracle", [("direct", direct_conv_count),
                                                ("im2col", im2col_conv_count)])
    def test_conv_count_is_what_the_counting_oracle_multiplies(self, method, oracle):
        rng = np.random.default_rng(6)
        for n, f in self.COUNTED_SIZES:
            x = rng.integers(-9, 10, (n + f - 1, n + f - 1))
            w = rng.integers(-9, 10, (f, f))
            out, mults = oracle(x.tolist(), w.tolist())
            windows = np.lib.stride_tricks.sliding_window_view(x, (f, f))
            assert out == np.einsum("efrs,rs->ef", windows, w).tolist()  # a real product
            assert mults == mult_count(method, out_size=n, filter_size=f).count, (n, f)

    def test_winograd_count_is_what_the_tiled_oracle_multiplies(self):
        """Equal at even sizes; at an odd size n the oracle forms the tiles
        the kernel forms, ceil(n/2)^2 of 16 products each."""
        rng = np.random.default_rng(8)
        for n in range(1, 65):
            x = rng.integers(-9, 10, (n + 2, n + 2))
            w = rng.integers(-9, 10, (3, 3))
            out, mults = winograd_conv_count(x.tolist(), w.tolist())
            windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3))
            # a real product, exact: every transformed value is a multiple of 1/4
            assert out == np.einsum("efrs,rs->ef", windows, w).tolist()
            counted = mult_count("winograd", out_size=n, filter_size=3).count
            assert mults == (counted if n % 2 == 0 else ((n + 1) // 2) ** 2 * 16), n

    # (out size, filter size) reaching every fft size n from 1 to 64
    FFT_SIZES = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (5, 4), (8, 1), (9, 8), (13, 3),
                 (16, 17), (30, 3), (33, 1), (60, 5), (32, 33)]

    def test_fft_count_is_what_the_butterflies_multiply(self):
        rng = np.random.default_rng(9)
        reached = set()
        for out_size, f in self.FFT_SIZES:
            x = rng.integers(-9, 10, (out_size + f - 1, out_size + f - 1))
            w = rng.integers(-9, 10, (f, f))
            out, mults, n = fft_conv_count(x.tolist(), w.tolist())
            windows = np.lib.stride_tricks.sliding_window_view(x, (f, f))
            np.testing.assert_allclose(out, np.einsum("efrs,rs->ef", windows, w), atol=1e-9)
            fft = mult_count("fft", out_size=out_size, filter_size=f)
            assert (mults, n) == (fft.count, fft.params["fft_size"]), (out_size, f)
            reached.add(n)
        assert reached == {2**k for k in range(7)}

    def test_conv_fft_count_runs_the_kernels_stages(self):
        """The counting oracle's output is conv_fft's; its channel sums and
        R-tap DFT make R*M*(C+1) products per frequency bin, as the kernel's
        docstring says; and it pads to mult_count's n, the power of two >= H:
        32 at out size 30."""
        for x, w in fft_cases(12, seed=16) + [(np.ones((1, 32, 32)), np.ones((1, 1, 3, 3)))]:
            out, counts, (nh, nw) = conv_fft_count(x.tolist(), w.tolist())
            np.testing.assert_allclose(out, conv_fft(x, w), rtol=0, atol=1e-9)
            m, c, r, s = w.shape
            assert counts["channel_sums"] + counts["taps"] == nh * (nw // 2 + 1) * r * m * (c + 1)
        assert nh == nw == mult_count("fft", out_size=30, filter_size=3).params["fft_size"] == 32

    def test_conv_fft_transforms_at_the_counted_fft_size(self, monkeypatch):
        """The kernel's own input transform, not an oracle's, is taken at
        mult_count's fft_size on both axes."""
        sizes, rfft2 = [], np.fft.rfft2

        def spy(a, s=None, *args, **kwargs):
            sizes.append(s)
            return rfft2(a, s, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft2", spy)
        for out_size, f in itertools.product(range(1, 65), range(1, 8)):
            h = out_size + f - 1
            sizes.clear()
            conv_fft(np.ones((1, h, h)), np.ones((1, 1, f, f)))
            n = mult_count("fft", out_size=out_size, filter_size=f).params["fft_size"]
            assert sizes == [(n, n)], (out_size, f)

    def test_fft_oracle_is_the_dft(self):
        x = np.random.default_rng(10).standard_normal((16, 16))
        spectrum, mults = fft2_count(x.tolist())
        np.testing.assert_allclose(spectrum, np.fft.fft2(x), atol=1e-12)
        assert mults == 2 * 16 * 8 * 4  # 32 transforms of 8 butterflies per stage, 4 stages

    def test_strassen_count_is_what_the_recursion_multiplies(self):
        rng = np.random.default_rng(7)
        for k in range(7):
            a, b = rng.integers(-9, 10, (2, 2**k, 2**k))
            product, mults = strassen_product(a.tolist(), b.tolist())
            assert product == np.matmul(a, b).tolist()
            assert mults == mult_count("strassen", matrix_size=2**k).count

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
        with pytest.raises(ValueError, match="^" + re.escape(
                f"matrix_size must be an integer in [1, {MAX_COUNT_SIZE}], got None") + "$"):
            mult_count("strassen")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"filter_size must be an integer in [1, {MAX_COUNT_SIZE}], got None") + "$"):
            mult_count("direct", out_size=4)
        with pytest.raises(ValueError, match="3x3"):
            mult_count("winograd", out_size=4, filter_size=5)

    # every method with every size it never reads, written out here rather
    # than read from netmodel.MULT_SIZES, so the test witnesses that table; then
    # the first of several named, an unread size before a missing one, and one
    # missing size per family
    @pytest.mark.parametrize("method, sizes, message", [
        ("direct", {"out_size": 4, "filter_size": 3, "matrix_size": 8},
         "matrix_size is not read by method 'direct'"),
        ("im2col", {"out_size": 4, "filter_size": 3, "matrix_size": 8},
         "matrix_size is not read by method 'im2col'"),
        ("fft", {"out_size": 4, "filter_size": 3, "matrix_size": 8},
         "matrix_size is not read by method 'fft'"),
        ("winograd", {"out_size": 4, "filter_size": 3, "matrix_size": 8},
         "matrix_size is not read by method 'winograd'"),
        ("strassen", {"out_size": 4, "matrix_size": 8},
         "out_size is not read by method 'strassen'"),
        ("strassen", {"filter_size": 3, "matrix_size": 8},
         "filter_size is not read by method 'strassen'"),
        ("strassen", {"filter_size": 3, "out_size": 4}, "out_size is not read by method 'strassen'"),
        ("fft", {"matrix_size": 8}, "matrix_size is not read by method 'fft'"),
        ("direct", {"out_size": 4},
         f"filter_size must be an integer in [1, {MAX_COUNT_SIZE}], got None"),
        ("strassen", {}, f"matrix_size must be an integer in [1, {MAX_COUNT_SIZE}], got None"),
    ], ids=["direct-matrix-size", "im2col-matrix-size", "fft-matrix-size",
            "winograd-matrix-size", "strassen-out-size", "strassen-filter-size",
            "out-size-before-filter-size", "unread-before-missing", "direct-without-filter-size",
            "strassen-without-matrix-size"])
    def test_a_size_the_method_never_reads_is_an_error(self, method, sizes, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            mult_count(method, **sizes)

    def test_method_registry(self):
        assert MULT_METHODS == ("direct", "im2col", "fft", "winograd", "strassen")
