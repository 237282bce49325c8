"""Array numerics underneath the fusion network.

All functions take and return float64 numpy arrays in one channel-first
layout, a single scene's [C, H, W].  They never write to their inputs.
``batch_norm`` updates the running statistics on its state object in train
mode.  ``dropout`` also returns its draw, as one read-only boolean keep mask.
Probe-sized masks are memoized, so finite-difference probes replay them;
training draws are never held.  Each backward companion is the exact
chain-rule transpose of its forward map, which the finite-difference suite
verifies.

``conv2d`` builds its im2col window matrix one band of whole output rows at a
time instead of one whole-image matrix (16-32 MB at 128x128).  Each band's
GEMM does at most 14 * 2**16 multiply-adds, under the 10**6 up to which
OpenBLAS runs an unpacked small-matrix kernel, fastest when the window
matrix starts on a 64-byte boundary.  So each band's strided view of the
padded input is copied in one C-level pass into one 64-byte-aligned buffer,
made once per call.  Kernel taps whose dilated offset reaches past the whole
grid read only zero padding; both directions leave them out of the window
matrices and the GEMMs, so no op allocates with the dilation rate.

``sigmoid`` takes its exp from libm through ``math.exp``, one element at a
time: numpy's SIMD ``np.exp`` differs from libm in the last bit for some
inputs, and libm's exp is what ``scipy.special.expit`` computes, so the
output layer keeps expit's bits with numpy alone.

``conv2d_backward`` adds each kept tap's input gradient as one contiguous
shift of the flattened image; columns that would wrap across a row end are
zeroed, and the +0 they add changes no bit, since the gradient never holds -0.

Geometry that depends only on shapes is worked out once and cached in bounded
``functools.lru_cache`` tables, so a call on a shape seen before does only
array work: the conv plan per (Cout, Cin, k, dilation, H, W) holds the kept
taps, the row bands and the flat shifts and wrap columns ``conv2d_backward``
adds through; the window counts of ``avg_smooth`` and the source rows,
columns and blend weights of bilinear ``upsample`` are cached per grid.
Cached entries are immutable or read-only, and no public op returns one.  When one band
covers the whole grid (8x8 and other small grids), ``conv2d`` is a single
``weights @ windows`` GEMM with no output buffer to fill band by band.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    _COUNT,
    _RATE,
    ConfigurationError,
    DataError,
    DegenerateStatisticsError,
    DimensionError,
    UsageError,
    _check_range,
)
from .rng import SeededRng

__all__ = [
    "conv2d",
    "conv2d_backward",
    "avg_smooth",
    "avg_smooth_backward",
    "upsample",
    "batch_norm",
    "batch_norm_backward",
    "NormState",
    "relu",
    "sigmoid",
    "dropout",
]


def _as_float64(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must have {ndim} dimensions, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Convolution

# Multiply-adds of one band's GEMM, cout x cin*ky*kx x band columns.  OpenBLAS
# 0.3.31 runs a DGEMM of at most 10**6 of them on an unpacked small-matrix
# kernel: on one Xeon thread 28x252x128 ran at 48-77 GFLOP/s with its window
# matrix 64-byte aligned and 36-50 with it 8-48 bytes off, and 28x252x256, on
# the packed kernel, at 34-46 (BENCH_22.json).  A band's window matrix is
# then at most 512 KiB for 14 outputs and 256 KiB for 28.
_BAND_MACS = 14 * 2**16


def _kept_taps(k: int, dilation: int, n: int) -> slice:
    """Taps t of one kernel axis whose offset (t - c) * dilation reaches inside n pixels.

    The others read only zero padding on every output pixel, so they are left
    out of the window matrix and the GEMM.
    """
    center = (k - 1) // 2
    reach = min(center, (n - 1) // dilation)
    return slice(center - reach, center + reach + 1)


def _tap_slices(offset: int, n: int) -> tuple[slice, slice]:
    """Index ranges of u and y in [0, n) with u = y + offset, for |offset| < n."""
    return slice(max(offset, 0), n + min(offset, 0)), slice(max(-offset, 0), n - max(offset, 0))


@dataclass(frozen=True)
class _ConvPlan:
    """Geometry of one conv shape, worked out once per (cout, cin, k, dilation, H, W).

    ``rows`` and ``cols`` are the kept taps of each axis (see
    :func:`_kept_taps`) and ``bands`` the [y0, y1) output-row ranges of the
    im2col bands.  ``wrap`` holds, per off-centre kept column tap, its index
    among the kept columns and the [x0, x1) source columns its offset carries
    across a row end.  ``scatter`` holds, per kept tap in tap order, the flat
    ranges :func:`_tap_slices` gives for the offset oy * W + ox.
    """

    rows: slice
    cols: slice
    ky: int
    kx: int
    bands: tuple[tuple[int, int], ...]
    wrap: tuple[tuple[int, int, int], ...]
    scatter: tuple[tuple[slice, slice], ...]


@functools.lru_cache(maxsize=64)
def _conv_plan(cout: int, cin: int, k: int, dilation: int, height: int, width: int) -> _ConvPlan:
    if 0 in (cout, cin, height, width):
        raise DimensionError(f"a convolution needs a channel and a pixel on each side, got "
                             f"{cin} -> {cout} channels on a {height}x{width} grid")
    rows, cols = _kept_taps(k, dilation, height), _kept_taps(k, dilation, width)
    ky, kx = rows.stop - rows.start, cols.stop - cols.start
    band = max(1, _BAND_MACS // (cout * cin * ky * kx * width))
    bands = tuple((y0, min(y0 + band, height)) for y0 in range(0, height, band))
    center = (k - 1) // 2
    offsets = [(t - center) * dilation for t in range(k)]
    wrap = tuple((tx, width - ox, width) if ox > 0 else (tx, 0, -ox)
                 for tx, ox in enumerate(offsets[cols]) if ox)
    scatter = tuple(_tap_slices(oy * width + ox, height * width)
                    for oy in offsets[rows] for ox in offsets[cols])
    return _ConvPlan(rows, cols, ky, kx, bands, wrap, scatter)


def _padded(x: np.ndarray, rows: slice, cols: slice, dilation: int) -> np.ndarray:
    """``x`` [Cin, H, W] zero-padded by the reach of the kept taps, C-contiguous.

    When no kept tap reaches past the grid the input needs no padding, and
    ``x`` itself is returned (copied only if it is not C-contiguous).
    """
    cin, height, width = x.shape
    pad_y = (rows.stop - rows.start) // 2 * dilation
    pad_x = (cols.stop - cols.start) // 2 * dilation
    if pad_y == pad_x == 0:
        return np.ascontiguousarray(x)
    padded = np.zeros((cin, height + 2 * pad_y, width + 2 * pad_x))
    padded[:, pad_y:pad_y + height, pad_x:pad_x + width] = x
    return padded


def _dilated_windows(padded: np.ndarray, ky: int, kx: int, dilation: int,
                     y0: int, y1: int, buffer: np.ndarray | None = None) -> np.ndarray:
    """The ky x kx dilated taps at output rows [y0, y1), flattened for matmul (im2col).

    ``padded`` comes from :func:`_padded`; returns the
    (Cin * ky * kx, (y1 - y0) * W) window matrix.  The taps are one strided
    (Cin, ky, kx, rows, W) view of ``padded``, copied in one C-level pass into
    the head of the flat ``buffer`` if one is given, else by the reshape.  The
    copy is deliberate: a GEMM on the strided view itself would leave the BLAS
    path.  With a single tap the rows of the view are already whole image
    rows, so the reshape is a view of ``padded`` and nothing is copied.
    """
    cin, _, padded_width = padded.shape
    width = padded_width - (kx - 1) * dilation
    plane, row, col = padded.strides
    taps = np.ndarray((cin, ky, kx, y1 - y0, width), np.float64, padded, y0 * row,
                      (plane, dilation * row, dilation * col, row, col))
    if buffer is not None and ky * kx > 1:
        win = buffer[:taps.size].reshape(taps.shape)
        win[...] = taps
        return win.reshape(cin * ky * kx, (y1 - y0) * width)
    win = taps.reshape(cin * ky * kx, (y1 - y0) * width)
    # One channel with one column tap reshapes to a view of overlapping rows.
    if ky * kx > 1 and not win.flags.c_contiguous:
        win = win.copy()
    return win


def _conv_operands(x, kernels, dilation: int):
    """Float64 ``x`` and ``kernels``, checked, with their plan and kept-tap weight matrix."""
    x = _as_float64(x, "input", 3)
    kernels = _as_float64(kernels, "kernels", 4)
    cout, cin, kh, kw = kernels.shape
    if kh != kw:
        raise ConfigurationError(f"kernels must be square, got {kh}x{kw}")
    if kh % 2 == 0:
        raise ConfigurationError(f"kernel size must be odd, got {kh}")
    _check_range("dilation", dilation, _COUNT)
    if x.shape[0] != cin:
        raise DimensionError(
            f"input has {x.shape[0]} channels but kernels expect {cin}"
        )
    plan = _conv_plan(cout, cin, kh, dilation, *x.shape[1:])
    weights = kernels[:, :, plan.rows, plan.cols].reshape(cout, cin * plan.ky * plan.kx)
    return x, kernels, plan, weights


def conv2d(x, kernels, bias, dilation: int = 1) -> np.ndarray:
    """Same-size 2-D convolution with zero padding and dilated taps.

    ``x`` is [Cin, H, W], ``kernels`` is [Cout, Cin, k, k] with odd k, and
    ``bias`` is [Cout].  Tap (ty, tx) of the kernel reads the input at
    (y + dilation*(ty - c), x + dilation*(tx - c)) with c = (k-1)//2, so the
    output keeps the input's spatial size and out-of-range taps contribute
    zero.

    Taps with |dilation*(t - c)| at or past the grid's height (rows) or width
    (columns) read only padding and are skipped; the input is padded only by
    the reach of the taps kept.  The im2col window matrix is built one band
    of whole output rows at a time, each band's GEMM within ``_BAND_MACS``
    multiply-adds so that OpenBLAS keeps it on its small-matrix kernel.  Every
    band's windows go into one 64-byte-aligned buffer, and its GEMM writes
    its own columns of the output.
    """
    x, kernels, plan, weights = _conv_operands(x, kernels, dilation)
    bias = _as_float64(bias, "bias", 1)
    cout = kernels.shape[0]
    if bias.shape[0] != cout:
        raise DimensionError(f"bias has {bias.shape[0]} entries, expected {cout}")
    height, width = x.shape[1:]
    ky, kx = plan.ky, plan.kx
    padded = _padded(x, plan.rows, plan.cols, dilation)
    if len(plan.bands) == 1:
        out = weights @ _dilated_windows(padded, ky, kx, dilation, 0, height)
    else:
        out = np.empty((cout, height * width))
        raw = np.empty(weights.shape[1] * plan.bands[0][1] * width + 7)
        buffer = raw[-raw.ctypes.data % 64 // 8:]  # 64-byte aligned
        for y0, y1 in plan.bands:
            np.matmul(weights, _dilated_windows(padded, ky, kx, dilation, y0, y1, buffer),
                      out=out[:, y0 * width:y1 * width])
    out = out.reshape(cout, height, width)
    out += bias[:, None, None]
    return out


def conv2d_backward(grad_out, x, kernels, dilation: int = 1):
    """Gradients of :func:`conv2d` at (x, kernels).

    Returns ``(grad_x, grad_kernels, grad_bias)`` for the upstream gradient
    ``grad_out`` of shape [Cout, H, W].  The im2col covers the taps
    :func:`conv2d` keeps and the whole image in one matrix, so each kept tap's
    gradient reduces over all pixels in one GEMM; a skipped tap's is +0.  Each
    kept tap adds its spread map to the flattened ``grad_x`` at offset
    oy * W + ox, in tap order, once the source columns the offset carries
    across a row end are zeroed.  ``grad_x`` starts at +0 and a sum is -0 only
    if both terms are, so those +0 terms change no bit: the result is a
    zero-padded scatter's.
    """
    grad_out = _as_float64(grad_out, "grad_out", 3)
    x, kernels, plan, weights = _conv_operands(x, kernels, dilation)
    cout, cin = kernels.shape[:2]
    height, width = x.shape[1:]
    if grad_out.shape != (cout, height, width):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match output ({cout}, {height}, {width})"
        )
    ky, kx = plan.ky, plan.kx
    flat = _dilated_windows(_padded(x, plan.rows, plan.cols, dilation), ky, kx, dilation,
                            0, height)
    g2 = grad_out.reshape(cout, height * width)

    grad_kernels = np.zeros(kernels.shape)
    grad_kernels[:, :, plan.rows, plan.cols] = (g2 @ flat.T).reshape(cout, cin, ky, kx)
    # Free the window matrix before the equally large spread is built: with
    # both alive the heap grows past the allocator's trim threshold and is
    # returned to the OS and faulted back in on every call.  The spread must
    # not take the matrix's buffer instead: with one kept tap (k = 1, or a
    # rate past the grid) the matrix is a view of the caller's x.
    del flat
    grad_bias = grad_out.sum(axis=(1, 2))

    spread = (weights.T @ g2).reshape(cin, ky, kx, height, width)
    for tx, x0, x1 in plan.wrap:
        spread[:, :, tx, :, x0:x1] = 0.0
    grad_x = np.zeros((cin, height, width))
    flat_x, flat_spread = grad_x.reshape(cin, -1), spread.reshape(cin, ky * kx, -1)
    for tap, (dst, src) in enumerate(plan.scatter):
        flat_x[:, dst] += flat_spread[:, tap, src]
    return grad_x, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# Window-mean smoothing


def _window_reach(d: int, side: int) -> tuple[int, int]:
    """Offsets -before .. +after of a d-wide window, capped at the grid's longer ``side``.

    Past it a reach covers the whole axis either way, so the table stays the grid's size.
    """
    before = d // 2
    return min(before, side), min(d - 1 - before, side)


@functools.lru_cache(maxsize=64)
def _window_counts(height: int, width: int, before: int, after: int) -> np.ndarray:
    """Per-pixel count of in-bounds pixels under each clamped window [i-before, i+after].

    Depends only on the geometry, so each one is built once and kept
    read-only; callers divide by it and never hand it out.
    """
    def axis(n: int) -> np.ndarray:
        idx = np.arange(n)
        return np.minimum(idx + after, n - 1) - np.maximum(idx - before, 0) + 1

    counts = (axis(height)[:, None] * axis(width)[None, :]).astype(np.float64)
    counts.flags.writeable = False
    return counts


def _box_sum(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Sums of ``x`` over the clamped windows [i-before, i+after] of each pixel.

    Reads the four corners of each window from a summed-area table over the
    two trailing axes.  The table is edge-extended: entry i holds the
    integral-image entry clamp(i - before, 0, n), so the corners of every
    window are plain shifted slices.
    """
    channels, height, width = x.shape
    d = before + after + 1
    table = np.empty((channels, height + d, width + d))
    table[:, :before + 1] = 0.0
    table[:, before + 1:, :before + 1] = 0.0
    core = table[:, before + 1:before + 1 + height, before + 1:before + 1 + width]
    np.add.accumulate(x, axis=1, out=core)
    np.add.accumulate(core, axis=2, out=core)
    table[:, before + 1:before + 1 + height, before + 1 + width:] = core[:, :, -1:]
    table[:, before + 1 + height:] = table[:, before + height:before + 1 + height]
    out = table[:, d:, d:] - table[:, :height, d:]
    out -= table[:, d:, :width]
    out += table[:, :height, :width]
    return out


def avg_smooth(x, d: int) -> np.ndarray:
    """Mean over a d x d window around each pixel, channel-wise.

    Odd ``d`` centers the window; even ``d`` covers offsets -d/2 .. d/2-1 on
    each axis.  At the borders the mean runs over the window's intersection
    with the image, so values are never diluted by padding.
    """
    x = _as_float64(x, "input", 3)
    _check_range("window size", d, _COUNT)
    if d == 1:
        return x.copy()
    before, after = _window_reach(d, max(x.shape[1:]))
    out = _box_sum(x, before, after)
    out /= _window_counts(*x.shape[1:], before, after)
    return out


def avg_smooth_backward(grad_out, d: int) -> np.ndarray:
    """Gradient of :func:`avg_smooth`: the transpose of the window mean."""
    grad_out = _as_float64(grad_out, "grad_out", 3)
    _check_range("window size", d, _COUNT)
    if d == 1:
        return grad_out.copy()
    before, after = _window_reach(d, max(grad_out.shape[1:]))
    counts = _window_counts(*grad_out.shape[1:], before, after)
    # Input pixel u feeds output y whenever u is inside y's window, i.e.
    # y in [u-after, u+before]: the reflected window.
    return _box_sum(grad_out / counts, after, before)


# ---------------------------------------------------------------------------
# Upsampling


@functools.lru_cache(maxsize=64)
def _bilinear_axis(n: int, factor: int):
    """Clamped source index pairs and fractions for one upsampled axis.

    Returns read-only ``(lo, hi, 1 - frac, frac)``, built once per geometry.
    """
    pos = (np.arange(n * factor) + 0.5) / factor - 0.5
    pos = np.clip(pos, 0.0, float(n - 1))
    lo = np.floor(pos).astype(np.intp)
    lo = np.minimum(lo, n - 1)
    hi = np.minimum(lo + 1, n - 1)
    frac = pos - lo
    axis = (lo, hi, 1.0 - frac, frac)
    for arr in axis:
        arr.flags.writeable = False
    return axis


def upsample(x, factor: int, mode: str = "nearest") -> np.ndarray:
    """Scale the two trailing axes up by an integer factor.

    ``nearest`` replicates each coarse cell into a factor x factor block.
    ``bilinear`` interpolates between coarse-cell centers with edge clamping,
    so fine pixel (y, x) reads coarse position ((y+0.5)/factor - 0.5, ...).
    It blends along x on the coarse rows, then gathers the two blended rows
    under each fine row and blends along y: every pixel gets the same
    products and sums as blending its four corners directly, in the same
    order.
    """
    x = _as_float64(x, "input", 3)
    _check_range("factor", factor, _COUNT)
    if mode == "nearest":
        return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)
    if mode == "bilinear":
        _, height, width = x.shape
        ylo, yhi, gy, fy = _bilinear_axis(height, factor)
        xlo, xhi, gx, fx = _bilinear_axis(width, factor)
        rows = gx * x[:, :, xlo]
        rows += fx * x[:, :, xhi]
        top = rows[:, ylo]
        top *= gy[:, None]
        bottom = rows[:, yhi]
        bottom *= fy[:, None]
        top += bottom
        return top
    raise ConfigurationError(f"unknown upsample mode {mode!r}")


# ---------------------------------------------------------------------------
# Batch normalization


_NORM_EPSILON = 1e-5
_NORM_MOMENTUM = 0.9


@dataclass
class NormState:
    """Learnable scale/shift plus running statistics for one normalization.

    Every normalization shares one variance floor (1e-5) and one EMA
    momentum for its running statistics (0.9).
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def initial(cls, channels: int) -> "NormState":
        _check_range("channel count", channels, _COUNT)
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def batch_norm(x, state: NormState, mode: str = "train"):
    """Normalize one scene's [C, H, W] per channel and apply the learned scale/shift.

    Train mode normalizes with the scene's own per-channel mean and
    population variance over its H x W pixels and folds them into the
    running statistics (EMA, momentum 0.9); eval mode normalizes with the
    stored running statistics.  Returns ``(output, cache)`` where the cache
    backs :func:`batch_norm_backward` and is None in eval mode.  A non-finite
    train-mode batch variance raises :class:`DataError` before they move.
    """
    x = _as_float64(x, "input", 3)
    if x.shape[0] != state.channels:
        raise DimensionError(
            f"input has {x.shape[0]} channels but the state tracks {state.channels}"
        )
    if mode == "train":
        count = x.shape[1] * x.shape[2]
        if count < 2:
            raise DegenerateStatisticsError(
                "train-mode normalization needs at least 2 values per channel"
            )
        # Sums over a count are what np.mean computes, bit for bit, without
        # its Python-level wrapper.
        mean = x.sum(axis=(1, 2)) / count
        xhat = x - mean[:, None, None]
        out = xhat * xhat
        var = out.sum(axis=(1, 2)) / count
        if not np.isfinite(var).all():  # inf or NaN in x, or squares past overflow
            raise DataError("train-mode normalization met a non-finite batch variance")
        inv_std = 1.0 / np.sqrt(var + _NORM_EPSILON)
        xhat *= inv_std[:, None, None]
        m = _NORM_MOMENTUM
        state.running_mean = m * state.running_mean + (1.0 - m) * mean
        state.running_var = m * state.running_var + (1.0 - m) * var
        # The squares are spent: their buffer takes the output.
        return _scale_shift(xhat, state, out=out), (xhat, inv_std)
    if mode != "eval":
        raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
    inv_std = 1.0 / np.sqrt(state.running_var + _NORM_EPSILON)
    out = x - state.running_mean[:, None, None]
    out *= inv_std[:, None, None]
    return _scale_shift(out, state, out=out), None


def _scale_shift(xhat: np.ndarray, state: NormState, out: np.ndarray | None = None) -> np.ndarray:
    """``gamma * xhat + beta`` per channel: :func:`batch_norm`'s output in either mode.

    A caller holding a train-mode cache's ``xhat`` and unchanged ``gamma`` and
    ``beta`` rebuilds that output byte for byte.
    """
    out = np.multiply(state.gamma[:, None, None], xhat, out=out)
    out += state.beta[:, None, None]
    return out


def batch_norm_backward(grad_out, cache, state: NormState):
    """Gradients of train-mode :func:`batch_norm`.

    ``grad_out`` is [C, H, W] like the forward's input.  Returns
    ``(grad_x, grad_gamma, grad_beta)``.  The input gradient folds in the
    dependence of the per-channel statistics on the input itself.
    """
    if cache is None:
        raise UsageError("batch_norm_backward needs the cache from a train-mode call")
    grad_out = _as_float64(grad_out, "grad_out", 3)
    xhat, inv_std = cache
    if grad_out.shape != xhat.shape:
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match the cached input {xhat.shape}"
        )
    # One scratch buffer takes grad_out*xhat, then gh*xhat, then
    # xhat*mean_gh_xhat; gh becomes grad_x in place.  Same ops, same order.
    scratch = grad_out * xhat
    grad_gamma = scratch.sum(axis=(1, 2))
    grad_beta = grad_out.sum(axis=(1, 2))
    count = xhat.shape[1] * xhat.shape[2]
    gh = grad_out * state.gamma[:, None, None]
    mean_gh = gh.sum(axis=(1, 2), keepdims=True) / count
    np.multiply(gh, xhat, out=scratch)
    mean_gh_xhat = scratch.sum(axis=(1, 2), keepdims=True) / count
    np.multiply(xhat, mean_gh_xhat, out=scratch)
    gh -= mean_gh
    gh -= scratch
    gh *= inv_std[:, None, None]
    return gh, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Elementwise ops


def relu(x) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def _exp_or_inf(v: float) -> float:
    """libm's exp of ``v``, with an overflow read as inf instead of raised."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function ``1 / (1 + exp(-x))``, elementwise.

    The exp is libm's, through ``math.exp``, as in ``scipy.special.expit``,
    whose bits this keeps: numpy's SIMD ``np.exp`` differs from libm in the
    last bit for some inputs.  Where -x is past exp's overflow (about 709.78)
    the exp is inf and the result 0, and inf, NaN and signed zeros come out
    as ``expit`` gives them.

    The output is clamped to the largest representable open interval inside
    (0, 1): float64 saturates the true sigmoid to exactly 0 or 1 for |x| in
    the high thirties, and downstream cross entropy needs strict interior
    values.
    """
    x = np.asarray(x, dtype=np.float64)
    neg = memoryview(np.negative(x).ravel())  # iterates as Python floats
    try:  # math.exp straight, unless some -x overflows it
        exp = np.fromiter(map(math.exp, neg), np.float64, count=len(neg))
    except OverflowError:
        exp = np.fromiter(map(_exp_or_inf, neg), np.float64, count=len(neg))
    out = 1.0 / (1.0 + exp.reshape(x.shape))
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


# A SeededRng always draws the same values, so a memo hit is the draw itself.
# An 8x8 probe's mask (1,792 elements in the large variant) fits under the
# bound; a 64x64 training step's (57,344 or more) does not.
_MEMO_MAX_ELEMENTS = 4096


@functools.lru_cache(maxsize=12)  # 4 branches x 3 blocks
def _keep_mask(rng: SeededRng, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """The read-only boolean keep mask of one train-mode draw."""
    keep = rng.random(shape) >= rate
    keep.flags.writeable = False
    return keep


def _apply_keep(x, keep: np.ndarray, rate: float, out: np.ndarray | None = None) -> np.ndarray:
    """``x * keep``, then times 1 / (1 - rate): :func:`dropout`'s output, or a masked gradient.

    Each entry has the bits of ``x * (keep / (1 - rate))``: x * 1 = x, a dropped
    signed zero keeps its sign through the positive scalar, and inf or NaN turn NaN alike.
    """
    out = np.multiply(x, keep, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


def dropout(x, rate: float, rng: SeededRng | None, mode: str = "train"):
    """Inverted dropout: zero with probability ``rate``, rescale survivors.

    Returns ``(output, keep)`` where ``keep`` is the boolean mask of kept
    entries (an upstream gradient takes it, then the scalar 1 / (1 - rate)),
    or None when the op was an identity (eval mode or rate 0).

    Train mode needs a :class:`SeededRng`.  The mask is read-only.  A
    probe-sized one (at most 4,096 elements) is memoized, 12 at most, and
    replayed for an equal (rng, shape, rate); a training step's is never
    held once the call returns.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_range("dropout rate", rate, _RATE)
    if mode == "eval" or rate == 0.0:
        return x.copy(), None
    if mode != "train":
        raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not isinstance(rng, SeededRng):
        raise UsageError(
            f"train-mode dropout with a positive rate needs a SeededRng, got {type(rng).__name__}"
        )
    draw = _keep_mask if x.size <= _MEMO_MAX_ELEMENTS else _keep_mask.__wrapped__
    # One float for key, draw and scalar alike: an np.float32 rate equals its
    # float64 value as a key but would scale by a float32 keep probability.
    rate = float(rate)
    keep = draw(rng, x.shape, rate)
    return _apply_keep(x, keep, rate), keep
