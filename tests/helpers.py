"""Shared oracles and gradient-checking machinery for the test suite.

Everything in this module re-derives results through the most literal route
available: explicit python loops for the array kernels, full forward passes
for gradients.  None of it calls the code path it is used to check, so a test
comparing library output against these helpers is a genuine two-route check.
"""
from __future__ import annotations

import numpy as np

from icefusion import network as network_mod
from icefusion import ops
from icefusion.network import forward, named_parameters, scale_group_name
from icefusion.training import bce_loss


# ---------------------------------------------------------------------------
# Brute-force kernels


def conv2d_reference(x, kernels, bias, dilation=1):
    """Direct summation over every tap; out-of-range taps contribute zero."""
    cout, cin, k, _ = kernels.shape
    _, height, width = x.shape
    center = (k - 1) // 2
    out = np.zeros((cout, height, width))
    for o in range(cout):
        for y in range(height):
            for col in range(width):
                acc = bias[o]
                for i in range(cin):
                    for ty in range(k):
                        for tx in range(k):
                            sy = y + dilation * (ty - center)
                            sx = col + dilation * (tx - center)
                            if 0 <= sy < height and 0 <= sx < width:
                                acc += x[i, sy, sx] * kernels[o, i, ty, tx]
                out[o, y, col] = acc
    return out


def conv2d_single_gemm(x, kernels, bias, dilation=1):
    """Convolution as one GEMM over a whole-image im2col of every tap.

    Pads by the full reach of the kernel and keeps taps that read only
    padding, so no row band or tap skip is involved.
    """
    cout, cin, k, _ = kernels.shape
    _, height, width = x.shape
    pad = (k - 1) // 2 * dilation
    padded = np.zeros((cin, height + 2 * pad, width + 2 * pad))
    padded[:, pad:pad + height, pad:pad + width] = x
    win = np.empty((cin, k, k, height, width))
    for ty in range(k):
        for tx in range(k):
            win[:, ty, tx] = padded[:, ty * dilation:ty * dilation + height,
                                    tx * dilation:tx * dilation + width]
    out = kernels.reshape(cout, cin * k * k) @ win.reshape(cin * k * k, height * width)
    return out.reshape(cout, height, width) + bias[:, None, None]


def dilated_windows_reference(padded, ky, kx, dilation, y0, y1):
    """im2col of output rows [y0, y1) by one slice copy per tap.

    ``padded`` is the input zero-padded by the reach of the ky x kx taps.
    """
    cin = padded.shape[0]
    width = padded.shape[2] - (kx - 1) * dilation
    win = np.empty((cin, ky, kx, y1 - y0, width))
    for ty in range(ky):
        for tx in range(kx):
            win[:, ty, tx] = padded[:, y0 + ty * dilation:y1 + ty * dilation,
                                    tx * dilation:tx * dilation + width]
    return win.reshape(cin * ky * kx, (y1 - y0) * width)


def avg_smooth_reference(x, d):
    """Windowed mean with the window clipped to the image at the borders."""
    channels, height, width = x.shape
    before = d // 2
    after = d - 1 - before
    out = np.empty_like(x)
    for c in range(channels):
        for y in range(height):
            for col in range(width):
                rows = range(max(y - before, 0), min(y + after, height - 1) + 1)
                cols = range(max(col - before, 0), min(col + after, width - 1) + 1)
                values = [x[c, sy, sx] for sy in rows for sx in cols]
                out[c, y, col] = sum(values) / len(values)
    return out


def conv2d_backward_input_reference(grad_out, kernels, dilation=1):
    """Input gradient of conv2d by scattering into a zero-padded buffer.

    Every tap adds its whole spread map into the padded buffer, in tap order,
    and the result is cropped.  The library adds each tap's spread map as one
    flat shift of the unpadded image, in the same order, after zeroing the
    columns the shift would carry across a row end; those add +0 and change
    no bit, so the two must agree bit for bit.
    """
    cout, cin, k, _ = kernels.shape
    _, height, width = grad_out.shape
    pad = (k - 1) // 2 * dilation
    spread = (kernels.reshape(cout, cin * k * k).T @ grad_out.reshape(cout, height * width))
    spread = spread.reshape(cin, k, k, height, width)
    grad_padded = np.zeros((cin, height + 2 * pad, width + 2 * pad))
    for ty in range(k):
        for tx in range(k):
            grad_padded[:, ty * dilation:ty * dilation + height,
                        tx * dilation:tx * dilation + width] += spread[:, ty, tx]
    return grad_padded[:, pad:pad + height, pad:pad + width]


def avg_smooth_backward_reference(grad_out, d):
    """Window-mean transpose with each window's count summed from an image of ones.

    The counts are box sums of ones over the clamped windows, exact integers
    reached without the window-bound arithmetic.  The gradient divided by them
    is box-summed over the reflected window through the same summed-area
    table the library builds, so the two must agree bit for bit.
    """
    if d == 1:
        return grad_out.copy()  # one-pixel windows: the identity, no rounding
    channels, height, width = grad_out.shape
    before = d // 2
    after = d - 1 - before

    def box_sum(x, lo_reach, hi_reach):
        integral = np.zeros((channels, height + 1, width + 1))
        integral[:, 1:, 1:] = x.cumsum(axis=1).cumsum(axis=2)
        ylo = np.maximum(np.arange(height) - lo_reach, 0)
        yhi = np.minimum(np.arange(height) + hi_reach, height - 1)
        xlo = np.maximum(np.arange(width) - lo_reach, 0)
        xhi = np.minimum(np.arange(width) + hi_reach, width - 1)
        return (integral[:, (yhi + 1)[:, None], (xhi + 1)[None, :]]
                - integral[:, ylo[:, None], (xhi + 1)[None, :]]
                - integral[:, (yhi + 1)[:, None], xlo[None, :]]
                + integral[:, ylo[:, None], xlo[None, :]])

    counts = box_sum(np.ones_like(grad_out), before, after)
    return box_sum(grad_out / counts, after, before)


def dropout_reference(x, rate, rng):
    """Train-mode dropout drawn afresh from the stream: ``(output, keep)``.

    The output is one product with the float64 keep-scale ``keep / (1 - rate)``.
    """
    keep = rng.random(x.shape) >= rate
    return x * (keep / (1.0 - rate)), keep


def batch_norm_reference(x, state, mode):
    """Batch normalization of [C, H, W] with its moments from ``np.mean``.

    Updates ``state``'s running statistics in train mode, like the library,
    and returns ``(output, cache)``.
    """
    if mode == "train":
        mean = x.mean(axis=(1, 2))
        centered = x - mean[:, None, None]
        var = (centered * centered).mean(axis=(1, 2))
        inv_std = 1.0 / np.sqrt(var + ops._NORM_EPSILON)
        xhat = centered * inv_std[:, None, None]
        m = ops._NORM_MOMENTUM
        state.running_mean = m * state.running_mean + (1.0 - m) * mean
        state.running_var = m * state.running_var + (1.0 - m) * var
        cache = (xhat, inv_std)
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + ops._NORM_EPSILON)
        xhat = (x - state.running_mean[:, None, None]) * inv_std[:, None, None]
        cache = None
    return state.gamma[:, None, None] * xhat + state.beta[:, None, None], cache


def batch_norm_backward_reference(grad_out, cache, state):
    """Train-mode batch-norm gradients with their means from ``np.mean``."""
    xhat, inv_std = cache
    gh = grad_out * state.gamma[:, None, None]
    mean_gh = gh.mean(axis=(1, 2), keepdims=True)
    mean_gh_xhat = (gh * xhat).mean(axis=(1, 2), keepdims=True)
    grad_x = inv_std[:, None, None] * (gh - mean_gh - xhat * mean_gh_xhat)
    return grad_x, (grad_out * xhat).sum(axis=(1, 2)), grad_out.sum(axis=(1, 2))


def upsample_reference(x, factor, mode):
    """Per-pixel upsampling oracle for both interpolation modes."""
    channels, h, w = x.shape
    out = np.empty((channels, h * factor, w * factor))
    if mode == "nearest":
        for c in range(channels):
            for y in range(h * factor):
                for col in range(w * factor):
                    out[c, y, col] = x[c, y // factor, col // factor]
        return out

    def axis_point(i, n):
        pos = (i + 0.5) / factor - 0.5
        pos = min(max(pos, 0.0), float(n - 1))
        lo = min(int(np.floor(pos)), n - 1)
        hi = min(lo + 1, n - 1)
        return lo, hi, pos - lo

    for c in range(channels):
        for y in range(h * factor):
            y0, y1, fy = axis_point(y, h)
            for col in range(w * factor):
                x0, x1, fx = axis_point(col, w)
                top = (1.0 - fx) * x[c, y0, x0] + fx * x[c, y0, x1]
                bottom = (1.0 - fx) * x[c, y1, x0] + fx * x[c, y1, x1]
                out[c, y, col] = (1.0 - fy) * top + fy * bottom
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient probes


def train_loss(net, sar, mwr, label, rng):
    """Full train-mode forward plus cross entropy, as one scalar."""
    fp = forward(net, sar, mwr, mode="train", rng=rng)
    return bce_loss(fp.prob, label)[0]


def fd_slow(net, sar, mwr, label, rng, name, index, step=1e-5):
    """Central difference computed through two complete forward passes."""
    arr = dict(named_parameters(net))[name]
    orig = arr.flat[index]
    arr.flat[index] = orig + step
    hi = train_loss(net, sar, mwr, label, rng)
    arr.flat[index] = orig - step
    lo = train_loss(net, sar, mwr, label, rng)
    arr.flat[index] = orig
    return (hi - lo) / (2.0 * step)


class CachedLossProbe:
    """Finite differences that recompute only what a parameter can affect.

    One full forward runs at construction; each probe then replays the
    pipeline from the perturbed layer's input onward.  The forward's cache
    holds the input of conv 0 and of each conv 2j+1; the input of conv 2j
    for j >= 1 is replayed once here from conv 2j-1's.  Because every
    evaluation is bit-deterministic, the replayed loss is bit-identical to
    what a full forward would produce, which test_network verifies by
    comparing sampled probes against :func:`fd_slow` with ``==``.
    """

    def __init__(self, net, sar, mwr, label, rng):
        self.net = net
        self.sar = sar
        self.mwr = mwr
        self.label = label
        self.rng = rng
        fp = forward(net, sar, mwr, mode="train", rng=rng, keep_cache=True)
        self.mix_base = fp.mixing_inputs.copy()
        self.block_inputs = []  # [b][j]: input of conv 2j
        self.pair_inputs = []   # [b][j]: input of conv 2j+1
        self.relu_outs = []     # [b][j]: value entering normalization j
        for b, branch in enumerate(net.branches):
            conv_inputs = fp.cache.branches[b].conv_inputs
            blocks, pairs, relus = [], [], []
            x = conv_inputs[0]
            for j in range(len(branch.norms)):
                blocks.append(x)
                pairs.append(conv_inputs[1 + j])
                second = ops.conv2d(conv_inputs[1 + j],
                                    branch.convs[2 * j + 1].kernels,
                                    branch.convs[2 * j + 1].bias,
                                    dilation=branch.dilation)
                relus.append(ops.relu(second))
                x = self._norm_and_drop(b, j, relus[-1])
            self.block_inputs.append(blocks)
            self.pair_inputs.append(pairs)
            self.relu_outs.append(relus)
        self.groups = {g.name: g for g in net.config.groups}

    def _norm_and_drop(self, b, j, x):
        """Normalization and dropout of block j in branch b, as a train forward runs them."""
        x, _ = ops.batch_norm(x, self.net.branches[b].norms[j], mode="train")
        site = self.rng.derive(network_mod._STREAM_DROPOUT, b, j)
        x, _ = ops.dropout(x, self.net.config.dropout_rate, site, mode="train")
        return x

    def _finish_branch(self, b, j0, stage, x):
        branch = self.net.branches[b]
        d = branch.dilation
        for j in range(j0, len(branch.norms)):
            st = stage if j == j0 else "conv0"
            if st == "conv0":
                x = ops.conv2d(x, branch.convs[2 * j].kernels,
                               branch.convs[2 * j].bias, dilation=d)
                st = "conv1"
            if st == "conv1":
                x = ops.conv2d(x, branch.convs[2 * j + 1].kernels,
                               branch.convs[2 * j + 1].bias, dilation=d)
                x = ops.relu(x)
            x = self._norm_and_drop(b, j, x)
        if self.net.config.mixing_activation == "relu":
            x = ops.relu(x)
        return x

    def _loss_from_mix(self, mix):
        net = self.net
        logit = float(net.mixing_bias) + np.tensordot(
            net.mixing_coefficients, mix, axes=([0], [0])
        )
        prob = ops.sigmoid(logit)[None]
        return bce_loss(prob, self.label)[0]

    def _loss_at(self, name):
        """Loss after the named parameter's array was already perturbed."""
        if name.startswith("mixing."):
            return self._loss_from_mix(self.mix_base)
        if name.startswith("stem."):
            return train_loss(self.net, self.sar, self.mwr, self.label, self.rng)
        _, dil, layer, _ = name.split(".")
        b = [br.dilation for br in self.net.branches].index(int(dil))
        j = int(layer[4:])
        if layer.startswith("conv"):
            if j % 2 == 0:
                block = self._finish_branch(b, j // 2, "conv0",
                                            self.block_inputs[b][j // 2])
            else:
                block = self._finish_branch(b, j // 2, "conv1",
                                            self.pair_inputs[b][j // 2])
        else:
            block = self._finish_branch(b, j, "norm", self.relu_outs[b][j])
        grp = self.groups[scale_group_name(self.net.branches[b].dilation)]
        mix = self.mix_base.copy()
        mix[grp.start:grp.stop] = block
        return self._loss_from_mix(mix)

    def fd(self, name, index, step=1e-5):
        arr = dict(named_parameters(self.net))[name]
        orig = arr.flat[index]
        arr.flat[index] = orig + step
        hi = self._loss_at(name)
        arr.flat[index] = orig - step
        lo = self._loss_at(name)
        arr.flat[index] = orig
        return (hi - lo) / (2.0 * step)


def fd_gradients(net, sar, mwr, label, rng, step=1e-5, names=None):
    """Finite-difference gradient arrays for every (or the named) parameter."""
    probe = CachedLossProbe(net, sar, mwr, label, rng)
    out = {}
    for name, arr in named_parameters(net):
        if names is not None and name not in names:
            continue
        flat = np.empty(arr.size)
        for index in range(arr.size):
            flat[index] = probe.fd(name, index, step)
        out[name] = flat.reshape(arr.shape)
    return out


def grad_gap(analytic, fd, abs_tol=1e-6, rel_tol=1e-4):
    """Worst violation of |g - fd| <= max(abs_tol, rel_tol * |fd|); <= 0 passes."""
    diff = np.abs(np.asarray(analytic) - np.asarray(fd))
    allowed = np.maximum(abs_tol, rel_tol * np.abs(fd))
    return float((diff - allowed).max())


# ---------------------------------------------------------------------------
# Small statistics helpers


def correlation(a, b):
    """Pearson correlation between two flattened arrays."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return 0.0
    return float((a * b).sum() / denom)


def fit_threshold(feature, label):
    """Best single-feature cut on the given data: (threshold, predict_above).

    The optimal decision rule of a one-feature logistic regression is a
    threshold, so this doubles as a tiny reference classifier.
    """
    feature = np.asarray(feature, dtype=np.float64).ravel()
    label = np.asarray(label, dtype=np.float64).ravel()
    order = np.argsort(feature)
    sorted_feature = feature[order]
    sorted_labels = label[order]
    total = label.size
    positives = sorted_labels.sum()
    # Cut after position i: predict 1 for everything above the cut.
    ones_below = np.concatenate([[0.0], np.cumsum(sorted_labels)])
    zeros_below = np.arange(total + 1) - ones_below
    correct_hi = zeros_below + (positives - ones_below)      # predict 1 above
    correct_lo = ones_below + ((total - positives) - zeros_below)
    predict_above = correct_hi.max() >= correct_lo.max()
    correct = correct_hi if predict_above else correct_lo
    cut = int(np.argmax(correct))
    if cut == 0:
        threshold = -np.inf
    elif cut == total:
        threshold = np.inf
    else:
        threshold = 0.5 * (sorted_feature[cut - 1] + sorted_feature[cut])
    return float(threshold), bool(predict_above)


def apply_threshold(feature, label, threshold, predict_above):
    """Accuracy of a fixed threshold rule on (held-out) data."""
    feature = np.asarray(feature, dtype=np.float64).ravel()
    label = np.asarray(label, dtype=np.float64).ravel()
    pred = feature > threshold if predict_above else feature <= threshold
    return float((pred == (label == 1.0)).mean())


def threshold_accuracy(feature, label):
    """Best single-threshold classifier accuracy of one feature, either sign."""
    threshold, predict_above = fit_threshold(feature, label)
    return apply_threshold(feature, label, threshold, predict_above)
