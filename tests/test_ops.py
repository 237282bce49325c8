"""Array-kernel tests: frozen hand values, brute-force oracles, adjoints."""
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from icefusion import ops
from icefusion.errors import (
    ConfigurationError,
    DegenerateStatisticsError,
    DimensionError,
    UsageError,
)
from icefusion.ops import (
    NormState,
    avg_smooth,
    avg_smooth_backward,
    batch_norm,
    batch_norm_backward,
    conv2d,
    conv2d_backward,
    dropout,
    relu,
    sigmoid,
    upsample,
)
from icefusion.rng import SeededRng

from helpers import (
    avg_smooth_backward_reference,
    avg_smooth_reference,
    batch_norm_backward_reference,
    batch_norm_reference,
    conv2d_backward_input_reference,
    conv2d_reference,
    conv2d_single_gemm,
    dilated_windows_reference,
    dropout_reference,
    upsample_reference,
)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = np.arange(9.0).reshape(1, 3, 3)
    kernels = np.ones((1, 1, 1, 1))
    out = conv2d(x, kernels, np.zeros(1), dilation=1)
    npt.assert_array_equal(out, x)


def test_conv2d_ramp_dilation2_center_is_108():
    # input[0, y, x] = 5y + x on a 5x5 grid; 3x3 all-ones kernel, dilation 2.
    # The center output sums the nine taps at offsets {-2, 0, 2}^2 = 9 * 12.
    y, x = np.mgrid[0:5, 0:5]
    ramp = (5.0 * y + x)[None]
    out = conv2d(ramp, np.ones((1, 1, 3, 3)), np.zeros(1), dilation=2)
    assert out[0, 2, 2] == 108.0
    npt.assert_array_equal(out, conv2d_reference(ramp, np.ones((1, 1, 3, 3)), np.zeros(1), 2))


@pytest.mark.parametrize("dilation", [1, 2, 4])
def test_conv2d_matches_bruteforce_oracle(dilation):
    # Integer-valued inputs keep every float64 sum exact, so the two routes
    # must agree bit for bit regardless of summation order.
    rng = np.random.default_rng(2000 + dilation)
    for _ in range(100):
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        x = rng.integers(-9, 10, (cin, 6, 6)).astype(np.float64)
        kernels = rng.integers(-4, 5, (cout, cin, 3, 3)).astype(np.float64)
        bias = rng.integers(-3, 4, cout).astype(np.float64)
        got = conv2d(x, kernels, bias, dilation=dilation)
        want = conv2d_reference(x, kernels, bias, dilation)
        npt.assert_array_equal(got, want)


def test_conv2d_dilation_equals_zero_inflated_kernel():
    rng = np.random.default_rng(7)
    for dilation in (2, 4):
        x = rng.normal(size=(2, 12, 12))
        kernels = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        size = 2 * dilation + 1
        inflated = np.zeros((3, 2, size, size))
        inflated[:, :, ::dilation, ::dilation] = kernels
        got = conv2d(x, kernels, bias, dilation=dilation)
        want = conv2d(x, inflated, bias, dilation=1)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_conv2d_linearity():
    rng = np.random.default_rng(8)
    kernels = rng.normal(size=(2, 2, 3, 3))
    zero_bias = np.zeros(2)
    for _ in range(20):
        x = rng.normal(size=(2, 5, 5))
        y = rng.normal(size=(2, 5, 5))
        a, b = rng.normal(size=2)
        lhs = conv2d(a * x + b * y, kernels, zero_bias, dilation=2)
        rhs = a * conv2d(x, kernels, zero_bias, 2) + b * conv2d(y, kernels, zero_bias, 2)
        npt.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_conv2d_validation():
    x = np.zeros((2, 4, 4))
    with pytest.raises(ConfigurationError):
        conv2d(x, np.zeros((1, 2, 2, 2)), np.zeros(1))  # even kernel
    with pytest.raises(ConfigurationError):
        conv2d(x, np.zeros((1, 2, 3, 3)), np.zeros(1), dilation=0)
    with pytest.raises(DimensionError):
        conv2d(x, np.zeros((1, 3, 3, 3)), np.zeros(1))  # channel mismatch
    with pytest.raises(DimensionError):
        conv2d(x, np.zeros((2, 2, 3, 3)), np.zeros(1))  # bias length
    with pytest.raises(ConfigurationError):
        conv2d(x, np.zeros((1, 2, 3, 3)), np.zeros(1), dilation=True)
    with pytest.raises(ConfigurationError):
        conv2d_backward(np.zeros((1, 4, 4)), x, np.zeros((1, 2, 3, 3)), dilation=True)


@pytest.mark.parametrize("shape", [(14, 70, 37), (28, 96, 96)])
def test_conv2d_bands_match_one_whole_image_gemm_on_integers(shape):
    # Integer sums are exact in any order, so the banded GEMMs must equal
    # one GEMM over the whole-image window matrix bit for bit.
    cin, height, width = shape
    assert cin * 9 * height * width * 8 > 4 * ops._BAND_BYTES  # several bands
    rng = np.random.default_rng(cin + height)
    for dilation in range(1, 17):
        x = rng.integers(-4, 5, size=shape).astype(float)
        kernels = rng.integers(-3, 4, size=(cin, cin, 3, 3)).astype(float)
        bias = rng.integers(-3, 4, size=cin).astype(float)
        npt.assert_array_equal(conv2d(x, kernels, bias, dilation=dilation),
                               conv2d_single_gemm(x, kernels, bias, dilation),
                               err_msg=f"dilation {dilation}")


def test_conv2d_bands_agree_with_one_whole_image_gemm_on_floats():
    # A band's last columns may take another BLAS tail kernel, which can move
    # the last bits of a float sum.  Those bits scale with the summed terms,
    # not with an output that cancels to near zero, hence the atol.
    rng = np.random.default_rng(37)
    for dilation in range(1, 17):
        x = rng.normal(size=(14, 40, 37))
        kernels = rng.normal(size=(14, 14, 3, 3))
        bias = rng.normal(size=14)
        want = conv2d_single_gemm(x, kernels, bias, dilation)
        npt.assert_allclose(conv2d(x, kernels, bias, dilation=dilation), want,
                            rtol=1e-13, atol=1e-13 * np.abs(want).max(),
                            err_msg=f"dilation {dilation}")


@pytest.mark.parametrize("cin", [2, 14])
def test_conv2d_one_band_grid_is_one_gemm_on_integers(cin):
    # An 8x8 grid fits one band whatever the dilation: conv2d is one GEMM
    # over the kept taps, equal to one over every tap on integer inputs.
    rng = np.random.default_rng(cin)
    for dilation in range(1, 17):
        assert len(ops._conv_plan(cin, 3, dilation, 8, 8).bands) == 1
        x = rng.integers(-4, 5, size=(cin, 8, 8)).astype(float)
        kernels = rng.integers(-3, 4, size=(cin, cin, 3, 3)).astype(float)
        bias = rng.integers(-3, 4, size=cin).astype(float)
        npt.assert_array_equal(conv2d(x, kernels, bias, dilation=dilation),
                               conv2d_single_gemm(x, kernels, bias, dilation),
                               err_msg=f"dilation {dilation}")


def test_conv_geometry_is_worked_out_once_per_shape(monkeypatch):
    calls = []
    kept_taps = ops._kept_taps

    def counting(*args):
        calls.append(args)
        return kept_taps(*args)

    monkeypatch.setattr(ops, "_kept_taps", counting)
    ops._conv_plan.cache_clear()
    rng = np.random.default_rng(11)
    x, g = rng.normal(size=(3, 11, 13)), rng.normal(size=(4, 11, 13))
    kernels, bias = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    first = conv2d(x, kernels, bias, dilation=3)
    assert len(calls) == 2  # one per axis
    npt.assert_array_equal(conv2d(x, kernels, bias, dilation=3), first)
    conv2d_backward(g, x, kernels, dilation=3)
    assert len(calls) == 2
    conv2d(x, kernels, bias, dilation=4)
    assert len(calls) == 4


def test_geometry_caches_are_immutable_and_never_handed_out():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 8, 8))
    kernels, bias = rng.normal(size=(3, 3, 3, 3)), rng.normal(size=3)
    conv2d(x, kernels, bias, dilation=2)
    plan = ops._conv_plan(3, 3, 2, 8, 8)
    assert ops._conv_plan(3, 3, 2, 8, 8) is plan
    with pytest.raises(AttributeError):
        plan.bands = ()
    assert isinstance(plan.bands, tuple) and isinstance(plan.scatter, tuple)
    assert all(isinstance(tap, tuple) for tap in plan.bands + plan.scatter)

    coarse = rng.normal(size=(2, 2, 3))
    outs = [upsample(coarse, 4, "bilinear") for _ in range(2)]
    axes = ops._bilinear_axis(2, 4) + ops._bilinear_axis(3, 4)
    assert ops._bilinear_axis(2, 4) is ops._bilinear_axis(2, 4)
    for arr in axes:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    npt.assert_array_equal(outs[0], outs[1])
    for out in outs:
        assert out.flags.writeable
        assert not any(np.shares_memory(out, arr) for arr in axes)
    assert not np.shares_memory(outs[0], outs[1])


def test_conv2d_peak_memory_stays_well_below_one_window_matrix():
    rng = np.random.default_rng(128)
    x = rng.normal(size=(28, 128, 128))
    kernels = rng.normal(size=(28, 28, 3, 3))
    bias = rng.normal(size=28)
    im2col_bytes = 28 * 3 * 3 * 128 * 128 * 8  # 31.5 MB
    tracemalloc.start()
    try:
        conv2d(x, kernels, bias, dilation=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * im2col_bytes, peak / im2col_bytes


@pytest.mark.parametrize("grid", [(5, 4), (8, 8), (40, 37), (64, 64)])
def test_dilated_windows_match_one_copy_per_tap_bitwise(grid):
    height, width = grid
    rng = np.random.default_rng(height * width)
    inputs = {
        "contiguous": rng.normal(size=(3, height, width)),
        "one channel": rng.normal(size=(1, height, width)),
        "strided": rng.normal(size=(3, height, 2 * width))[:, :, ::2],
        "read-only": _read_only(rng.normal(size=(3, height, width)))[0],
    }
    bands = [(0, height), (0, 1), (1, min(4, height)), (height // 2, height)]
    for name, x in inputs.items():
        for dilation in range(1, 17):
            kept = (ops._kept_taps(3, dilation, height), ops._kept_taps(3, dilation, width))
            for rows, cols in (kept, (slice(0, 3), slice(0, 3))):
                ky, kx = rows.stop - rows.start, cols.stop - cols.start
                pad_y, pad_x = ky // 2 * dilation, kx // 2 * dilation
                want_padded = np.pad(x, ((0, 0), (pad_y, pad_y), (pad_x, pad_x)))
                padded = ops._padded(x, rows, cols, dilation)
                npt.assert_array_equal(padded, want_padded)
                for y0, y1 in bands:
                    got = ops._dilated_windows(padded, ky, kx, dilation, y0, y1)
                    npt.assert_array_equal(
                        got, dilated_windows_reference(want_padded, ky, kx, dilation, y0, y1),
                        err_msg=f"{name} d {dilation} taps {ky}x{kx} rows {y0}:{y1}")
                    if ky * kx > 1:
                        assert got.flags.c_contiguous
                    else:  # one tap needs no padding and no copy of the input
                        assert padded is x or not x.flags.c_contiguous
                        assert np.shares_memory(got, padded)


def test_conv2d_with_no_tap_in_reach_copies_nothing_of_its_input():
    # With d 64 on 64x64 only the centre tap is kept: the window matrix is a
    # view of the input itself, so the call holds little beyond its output.
    rng = np.random.default_rng(64)
    x = rng.normal(size=(28, 64, 64))
    kernels = rng.normal(size=(28, 28, 3, 3))
    bias = rng.normal(size=28)
    tracemalloc.start()
    try:
        out = conv2d(x, kernels, bias, dilation=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes, peak / out.nbytes


@pytest.mark.parametrize("dilation", [8, 16])
def test_conv2d_taps_past_the_grid_leave_the_centre_tap(dilation):
    # On 8x8 every off-centre tap of dilation 8 or 16 reads only padding.
    rng = np.random.default_rng(dilation)
    x = rng.integers(-4, 5, size=(14, 8, 8)).astype(float)
    kernels = rng.integers(-3, 4, size=(14, 14, 3, 3)).astype(float)
    bias = rng.integers(-3, 4, size=14).astype(float)
    npt.assert_array_equal(conv2d(x, kernels, bias, dilation=dilation),
                           conv2d(x, kernels[:, :, 1:2, 1:2], bias))


def test_conv2d_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 5, 5))
    kernels = rng.normal(size=(3, 2, 3, 3))
    bias = rng.normal(size=3)
    weight = rng.normal(size=(3, 5, 5))  # scalarizes the output
    grad_x, grad_k, grad_b = conv2d_backward(weight, x, kernels, dilation=2)

    def loss(xx, kk, bb):
        return float((conv2d(xx, kk, bb, dilation=2) * weight).sum())

    step = 1e-6
    for arr, grad, name in ((x, grad_x, "x"), (kernels, grad_k, "k"), (bias, grad_b, "b")):
        for index in range(arr.size):
            orig = arr.flat[index]
            arr.flat[index] = orig + step
            hi = loss(x, kernels, bias)
            arr.flat[index] = orig - step
            lo = loss(x, kernels, bias)
            arr.flat[index] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(grad.flat[index] - fd) < 1e-6, name


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_backward_is_exact_adjoint(k):
    # Integer values keep every product and sum exact, so the three inner
    # products must agree bit for bit, also where taps reach past the grid.
    rng = np.random.default_rng(k)
    for dilation in range(1, 17):
        x = rng.integers(-3, 4, size=(2, 5, 4)).astype(float)
        kernels = rng.integers(-3, 4, size=(3, 2, k, k)).astype(float)
        g = rng.integers(-3, 4, size=(3, 5, 4)).astype(float)
        grad_x, grad_k, _ = conv2d_backward(g, x, kernels, dilation=dilation)
        out = conv2d(x, kernels, np.zeros(3), dilation=dilation)
        assert (out * g).sum() == (x * grad_x).sum() == (kernels * grad_k).sum(), dilation


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_backward_input_matches_padded_scatter_bitwise(k):
    # Grids below and beyond the reach (k-1)/2 * dilation, so taps fall
    # wholly outside, partly inside and wholly inside the image.
    rng = np.random.default_rng(100 + k)
    for height, width in ((5, 4), (7, 6), (40, 37)):
        for dilation in range(1, 17):
            x = rng.normal(size=(2, height, width))
            kernels = rng.normal(size=(3, 2, k, k))
            g = rng.normal(size=(3, height, width))
            grad_x, _, _ = conv2d_backward(g, x, kernels, dilation=dilation)
            npt.assert_array_equal(
                grad_x, conv2d_backward_input_reference(g, kernels, dilation),
                err_msg=f"{height}x{width} dilation {dilation}")
            assert grad_x.flags.c_contiguous


@pytest.mark.parametrize("channels, dilation", [(28, 16), (14, 2)])
def test_conv2d_backward_peak_memory_stays_near_one_window_matrix(channels, dilation):
    # The im2col matrix and the spread it is contracted into are the same
    # size; holding both at once doubles the call's footprint.
    rng = np.random.default_rng(channels + dilation)
    x = rng.normal(size=(channels, 64, 64))
    kernels = rng.normal(size=(channels, channels, 3, 3))
    g = rng.normal(size=(channels, 64, 64))
    im2col_bytes = channels * 3 * 3 * 64 * 64 * 8
    tracemalloc.start()
    try:
        conv2d_backward(g, x, kernels, dilation=dilation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * im2col_bytes, peak / im2col_bytes


# ---------------------------------------------------------------------------
# avg_smooth


def test_avg_smooth_unit_window_is_identity():
    x = np.random.default_rng(0).normal(size=(2, 4, 4))
    npt.assert_array_equal(avg_smooth(x, 1), x)


def test_avg_smooth_constant_preserved_exactly():
    x = np.full((1, 5, 7), 3.25)
    for d in (2, 3, 4, 5):
        npt.assert_array_equal(avg_smooth(x, d), x)


def test_avg_smooth_4x4_window2_frozen():
    x = np.arange(16.0).reshape(1, 4, 4)
    want = np.array([[0.0, 0.5, 1.5, 2.5],
                     [2.0, 2.5, 3.5, 4.5],
                     [6.0, 6.5, 7.5, 8.5],
                     [10.0, 10.5, 11.5, 12.5]])
    npt.assert_array_equal(avg_smooth(x, 2)[0], want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_avg_smooth_matches_bruteforce_oracle(d):
    rng = np.random.default_rng(3000 + d)
    for _ in range(100):
        x = rng.integers(-9, 10, (2, 6, 6)).astype(np.float64)
        npt.assert_array_equal(avg_smooth(x, d), avg_smooth_reference(x, d))


def test_avg_smooth_output_within_input_range():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        x = rng.normal(size=(1, 8, 8))
        out = avg_smooth(x, d)
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12


def test_avg_smooth_backward_is_adjoint():
    # <smooth(x), g> == <x, smooth_backward(g)> for all x, g.
    rng = np.random.default_rng(14)
    for d in (2, 3, 5):
        x = rng.normal(size=(2, 7, 6))
        g = rng.normal(size=(2, 7, 6))
        lhs = float((avg_smooth(x, d) * g).sum())
        rhs = float((x * avg_smooth_backward(g, d)).sum())
        npt.assert_allclose(lhs, rhs, rtol=1e-12)


def test_avg_smooth_backward_matches_ones_image_counts_bitwise():
    rng = np.random.default_rng(15)
    for height, width in ((5, 4), (40, 37)):
        for d in range(1, 17):
            g = rng.normal(size=(2, height, width))
            npt.assert_array_equal(avg_smooth_backward(g, d),
                                   avg_smooth_backward_reference(g, d),
                                   err_msg=f"{height}x{width} d {d}")


def test_avg_smooth_outputs_share_no_memory_with_the_cached_counts():
    rng = np.random.default_rng(9)
    x, g = rng.normal(size=(3, 9, 8)), rng.normal(size=(3, 9, 8))
    outs = [avg_smooth(x, 4), avg_smooth(x, 4), avg_smooth_backward(g, 4),
            avg_smooth_backward(g, 4)]
    counts = ops._window_counts(9, 8, *ops._window_reach(4))
    assert ops._window_counts(9, 8, *ops._window_reach(4)) is counts
    assert not counts.flags.writeable
    npt.assert_array_equal(outs[0], outs[1])
    npt.assert_array_equal(outs[2], outs[3])
    for i, out in enumerate(outs):
        assert out.flags.writeable
        assert not np.shares_memory(out, counts)
        for other in outs[i + 1:]:
            assert not np.shares_memory(out, other)


def test_avg_smooth_validation():
    with pytest.raises(ConfigurationError):
        avg_smooth(np.zeros((1, 4, 4)), 0)
    with pytest.raises(ConfigurationError):
        avg_smooth_backward(np.zeros((1, 4, 4)), -1)
    with pytest.raises(ConfigurationError):
        avg_smooth(np.zeros((1, 4, 4)), True)
    with pytest.raises(ConfigurationError):
        avg_smooth_backward(np.zeros((1, 4, 4)), True)


# ---------------------------------------------------------------------------
# upsample


def test_upsample_factor1_identity():
    x = np.random.default_rng(1).normal(size=(3, 4, 4))
    for mode in ("nearest", "bilinear"):
        npt.assert_array_equal(upsample(x, 1, mode), x)


def test_upsample_nearest_replicates_blocks():
    x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    want = np.array([[[0.0, 0.0, 1.0, 1.0],
                      [0.0, 0.0, 1.0, 1.0],
                      [2.0, 2.0, 3.0, 3.0],
                      [2.0, 2.0, 3.0, 3.0]]])
    npt.assert_array_equal(upsample(x, 2, "nearest"), want)


def test_upsample_bilinear_2x2_frozen():
    # Centers at (i + 0.5)/2 - 0.5 clamped to [0, 1]: 0, 0.25, 0.75, 1.
    # The map [[0,1],[2,3]] is the plane 2y + x, so values follow directly.
    x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    want = np.array([[0.0, 0.25, 0.75, 1.0],
                     [0.5, 0.75, 1.25, 1.5],
                     [1.5, 1.75, 2.25, 2.5],
                     [2.0, 2.25, 2.75, 3.0]])
    npt.assert_array_equal(upsample(x, 2, "bilinear")[0], want)


@pytest.mark.parametrize("mode", ["nearest", "bilinear"])
def test_upsample_matches_per_pixel_oracle(mode):
    rng = np.random.default_rng(4000 if mode == "nearest" else 4001)
    for _ in range(100):
        factor = int(rng.integers(1, 5))
        x = rng.integers(-9, 10, (2, 6, 6)).astype(np.float64)
        got = upsample(x, factor, mode)
        npt.assert_array_equal(got, upsample_reference(x, factor, mode))


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 5), (2, 8, 8)])
@pytest.mark.parametrize("factor", [4, 8])
def test_upsample_bilinear_matches_per_pixel_oracle_bitwise_on_floats(shape, factor):
    # Blending on the coarse rows gives each pixel the products and sums of
    # its four corners in the oracle's order, so float outputs agree exactly.
    x = np.random.default_rng(factor * shape[1] + shape[2]).normal(size=shape)
    npt.assert_array_equal(upsample(x, factor, "bilinear"),
                           upsample_reference(x, factor, "bilinear"))


def test_upsample_nearest_preserves_population_variance_exactly():
    # Integer inputs with power-of-two counts: both variances are exact.
    rng = np.random.default_rng(15)
    x = rng.integers(-8, 9, (1, 2, 2)).astype(np.float64)
    up = upsample(x, 4, "nearest")
    assert np.var(up) == np.var(x)
    assert up.min() == x.min() and up.max() == x.max()


def test_upsample_bilinear_never_increases_variance():
    rng = np.random.default_rng(16)
    for _ in range(200):
        factor = int(rng.integers(2, 6))
        x = rng.normal(size=(1, int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        up = upsample(x, factor, "bilinear")
        assert np.var(up) <= np.var(x) + 1e-12


def test_upsample_validation():
    with pytest.raises(ConfigurationError):
        upsample(np.zeros((1, 2, 2)), 0)
    with pytest.raises(ConfigurationError):
        upsample(np.zeros((1, 2, 2)), 2, "cubic")
    with pytest.raises(ConfigurationError):
        upsample(np.zeros((1, 2, 2)), True)


# ---------------------------------------------------------------------------
# batch_norm


def test_batch_norm_train_moments():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(1, 2, 4))
    out, cache = batch_norm(x, NormState.initial(1), mode="train")
    assert abs(out.mean()) < 1e-9
    # The 1e-5 variance floor leaves a deficit of exactly eps / (var + eps).
    var = x.var()
    assert out.var() == pytest.approx(var / (var + 1e-5), rel=1e-12)
    assert cache is not None


def test_batch_norm_constant_channel_becomes_zero():
    x = np.full((2, 3, 3), 7.5)
    out, _ = batch_norm(x, NormState.initial(2), mode="train")
    npt.assert_array_equal(out, np.zeros_like(x))


def test_batch_norm_running_statistics_update():
    x = np.array([[[1.0, 3.0], [5.0, 7.0]]])  # mean 4, population var 5
    state = NormState.initial(1)
    batch_norm(x, state, mode="train")
    npt.assert_allclose(state.running_mean, [0.9 * 0.0 + 0.1 * 4.0], rtol=1e-12)
    npt.assert_allclose(state.running_var, [0.9 * 1.0 + 0.1 * 5.0], rtol=1e-12)


def test_batch_norm_eval_uses_running_statistics():
    state = NormState.initial(1)
    state.running_mean = np.array([2.0])
    state.running_var = np.array([4.0])
    state.gamma = np.array([3.0])
    state.beta = np.array([-1.0])
    x = np.full((1, 1, 1), 6.0)
    out, cache = batch_norm(x, state, mode="eval")
    want = 3.0 * (6.0 - 2.0) / np.sqrt(4.0 + 1e-5) - 1.0
    npt.assert_allclose(out, [[[want]]], rtol=1e-15)
    assert cache is None


def test_batch_norm_degenerate_batch_rejected():
    with pytest.raises(DegenerateStatisticsError):
        batch_norm(np.zeros((3, 1, 1)), NormState.initial(3), mode="train")
    with pytest.raises(UsageError):
        batch_norm(np.zeros((1, 2, 2)), NormState.initial(1), mode="test")
    # One layout only: a scene stacked under a batch axis is refused.
    with pytest.raises(DimensionError):
        batch_norm(np.zeros((1, 1, 2, 2)), NormState.initial(1), mode="train")
    for channels in (0, 2.0, True, "2"):
        with pytest.raises(ConfigurationError):
            NormState.initial(channels)


def test_batch_norm_backward_matches_finite_differences():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 2, 4))
    state = NormState.initial(2)
    state.gamma = rng.normal(size=2)
    state.beta = rng.normal(size=2)
    weight = rng.normal(size=x.shape)

    def loss(xx):
        fresh = NormState(gamma=state.gamma, beta=state.beta,
                          running_mean=np.zeros(2), running_var=np.ones(2))
        out, _ = batch_norm(xx, fresh, mode="train")
        return float((out * weight).sum())

    out, cache = batch_norm(x, NormState(gamma=state.gamma, beta=state.beta,
                                         running_mean=np.zeros(2),
                                         running_var=np.ones(2)), mode="train")
    grad_x, grad_gamma, grad_beta = batch_norm_backward(weight, cache, state)

    step = 1e-6
    for index in range(x.size):
        orig = x.flat[index]
        x.flat[index] = orig + step
        hi = loss(x)
        x.flat[index] = orig - step
        lo = loss(x)
        x.flat[index] = orig
        assert abs(grad_x.flat[index] - (hi - lo) / (2 * step)) < 1e-6

    xhat = cache[0]
    npt.assert_allclose(grad_gamma, (weight * xhat).sum(axis=(1, 2)), rtol=1e-12)
    npt.assert_allclose(grad_beta, weight.sum(axis=(1, 2)), rtol=1e-12)


def test_batch_norm_backward_needs_train_cache():
    with pytest.raises(UsageError):
        batch_norm_backward(np.zeros((1, 2, 2)), None, NormState.initial(1))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("grid", [(8, 8), (37, 29), (64, 64)])
def test_batch_norm_moments_from_sums_match_np_mean_bitwise(channels, grid):
    rng = np.random.default_rng(31)
    x = rng.normal(loc=0.7, scale=2.0, size=(channels,) + grid)
    grad_out = rng.normal(size=x.shape)

    def state():
        st = NormState.initial(channels)
        st.gamma = np.linspace(0.8, 1.2, channels)
        st.beta = np.linspace(-0.3, 0.3, channels)
        st.running_mean = np.linspace(-1.0, 1.0, channels)
        st.running_var = np.linspace(0.5, 2.0, channels)
        return st

    got_state, want_state = state(), state()
    out, cache = batch_norm(x, got_state, mode="train")
    want, want_cache = batch_norm_reference(x, want_state, mode="train")
    npt.assert_array_equal(out, want)
    npt.assert_array_equal(cache[0], want_cache[0])
    npt.assert_array_equal(cache[1], want_cache[1])
    npt.assert_array_equal(got_state.running_mean, want_state.running_mean)
    npt.assert_array_equal(got_state.running_var, want_state.running_var)

    for got, ref in zip(batch_norm_backward(grad_out, cache, got_state),
                        batch_norm_backward_reference(grad_out, want_cache, want_state)):
        npt.assert_array_equal(got, ref)

    out, _ = batch_norm(x, got_state, mode="eval")
    want, _ = batch_norm_reference(x, want_state, mode="eval")
    npt.assert_array_equal(out, want)


# ---------------------------------------------------------------------------
# Elementwise pieces


def test_relu_idempotent_and_sigmoid_range():
    x = np.linspace(-40.0, 40.0, 201)
    npt.assert_array_equal(relu(relu(x)), relu(x))
    assert sigmoid(np.zeros(1))[0] == 0.5
    s = sigmoid(x)
    assert np.all((s > 0.0) & (s < 1.0))


def test_dropout_rate_zero_and_eval_are_identity():
    x = np.random.default_rng(19).normal(size=(3, 4, 4))
    out, scale = dropout(x, 0.0, SeededRng(1), mode="train")
    npt.assert_array_equal(out, x)
    assert scale is None
    out, scale = dropout(x, 0.5, SeededRng(1), mode="eval")
    npt.assert_array_equal(out, x)
    assert scale is None


def test_dropout_monte_carlo_mean():
    x = np.ones(1_000_000)
    out, scale = dropout(x, 0.1, SeededRng(99), mode="train")
    assert abs(out.mean() - 1.0) < 0.01
    npt.assert_array_equal(out, x * scale)


def test_dropout_deterministic_per_stream():
    x = np.ones((2, 8, 8))
    a, _ = dropout(x, 0.3, SeededRng(5).derive(2), mode="train")
    b, _ = dropout(x, 0.3, SeededRng(5).derive(2), mode="train")
    c, _ = dropout(x, 0.3, SeededRng(5).derive(3), mode="train")
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_validation():
    x = np.ones(4)
    with pytest.raises(ConfigurationError):
        dropout(x, 1.0, SeededRng(0), mode="train")
    with pytest.raises(ConfigurationError):
        dropout(x, -0.1, SeededRng(0), mode="train")
    for rate in ("0.1", None, True, float("nan")):
        with pytest.raises(ConfigurationError):
            dropout(x, rate, SeededRng(0), mode="train")
    with pytest.raises(UsageError):
        dropout(x, 0.5, None, mode="train")
    with pytest.raises(UsageError):
        dropout(x, 0.5, SeededRng(0), mode="off")


@pytest.mark.parametrize("rate", [0.1, 0.5])
@pytest.mark.parametrize("shape", [(14, 8, 8), (28, 64, 64)])
def test_dropout_replays_the_fresh_draw_read_only(rate, shape):
    x = np.random.default_rng(41).normal(size=shape)
    rng = SeededRng(2024).derive(7, 1)
    want_out, want_scale = dropout_reference(x, rate, rng)
    first_out, first_scale = dropout(x, rate, rng, mode="train")
    npt.assert_array_equal(first_out, want_out)
    npt.assert_array_equal(first_scale, want_scale)

    # An equal key replays the same values; the shared array cannot be edited.
    out, scale = dropout(x, rate, SeededRng(2024).derive(7, 1), mode="train")
    npt.assert_array_equal(out, want_out)
    npt.assert_array_equal(scale, want_scale)
    assert not scale.flags.writeable
    with pytest.raises(ValueError):
        scale[0, 0, 0] = 3.0
    npt.assert_array_equal(first_scale, want_scale)


def test_dropout_each_key_gets_its_own_mask():
    x = np.ones((14, 8, 8))
    rng = SeededRng(2024).derive(7, 2)
    first = dropout(x, 0.3, rng, mode="train")[1]
    others = [
        (x, 0.3, SeededRng(2024).derive(7, 3)),   # another path
        (x, 0.3, SeededRng(2025).derive(7, 2)),   # another seed
        (np.ones((14, 8, 9)), 0.3, rng),          # another shape
        (x, 0.5, rng),                            # another rate
    ]
    for xx, rate, stream in others:
        _, scale = dropout(xx, rate, stream, mode="train")
        npt.assert_array_equal(scale, dropout_reference(xx, rate, stream)[1])
        assert scale.shape != first.shape or not np.array_equal(scale, first)
    npt.assert_array_equal(dropout(x, 0.3, rng, mode="train")[1], first)


def test_dropout_eval_call_releases_memoized_scales():
    x = np.ones((14, 8, 8))
    _, scale = dropout(x, 0.1, SeededRng(2024).derive(7, 4), mode="train")
    ref = weakref.ref(scale)
    del scale
    assert ref() is not None  # the memo still holds it
    dropout(x, 0.1, None, mode="eval")
    assert ref() is None


def test_dropout_train_mode_refuses_stateful_generators():
    with pytest.raises(UsageError):
        dropout(np.ones(4), 0.5, np.random.default_rng(0), mode="train")


# ---------------------------------------------------------------------------
# The module contract


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def test_ops_never_write_to_their_inputs():
    # Read-only inputs make any write raise; the outputs must be fresh
    # arrays.  Only batch_norm's train mode may change its state, and it
    # rebinds the running statistics rather than writing into them.
    rng = np.random.default_rng(21)
    x, g = _read_only(rng.normal(size=(3, 9, 8)), rng.normal(size=(3, 9, 8)))
    kernels, bias = _read_only(rng.normal(size=(3, 3, 3, 3)), rng.normal(size=3))
    state = NormState.initial(3)
    _read_only(state.gamma, state.beta, state.running_mean, state.running_var)
    _, cache = batch_norm(x, state, "train")
    calls = {
        "relu": (relu(x), [x]),
        "sigmoid": (sigmoid(x), [x]),
        "batch_norm_backward": (batch_norm_backward(g, cache, state), [g, *cache]),
    }
    for mode in ("train", "eval"):
        calls[f"batch_norm {mode}"] = (batch_norm(x, state, mode), [x])
        calls[f"dropout {mode}"] = (dropout(x, 0.5, SeededRng(4), mode), [x])
    for mode in ("nearest", "bilinear"):
        for factor in (1, 2):
            calls[f"upsample {mode} {factor}"] = (upsample(x, factor, mode), [x])
    for d in (1, 2, 16):
        calls[f"conv2d {d}"] = (conv2d(x, kernels, bias, dilation=d), [x, kernels, bias])
        calls[f"conv2d_backward {d}"] = (conv2d_backward(g, x, kernels, dilation=d),
                                         [g, x, kernels])
        calls[f"avg_smooth {d}"] = (avg_smooth(x, d), [x])
        calls[f"avg_smooth_backward {d}"] = (avg_smooth_backward(g, d), [g])
    state_arrays = [state.gamma, state.beta]
    for name, (result, inputs) in calls.items():
        outputs = [result]
        while outputs:
            out = outputs.pop()
            if isinstance(out, tuple):
                outputs.extend(out)
            elif out is not None:
                for arr in inputs + state_arrays:
                    assert not np.shares_memory(out, arr), name
