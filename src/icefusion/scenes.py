"""Synthetic two-sensor scenes with controllable information content.

Each scene is a binary ice/water map plus two co-registered instruments:

* ``sar``: two high-resolution channels whose class contrast is dialed by
  ``sar_ambiguity`` (1 = the class means coincide and the bulk intensity
  carries nothing) plus an edge texture proportional to the label gradient,
  so fine-scale structure lives only near class boundaries;
* ``mwr``: coarse-grid channels, a configurable fraction of which respond
  linearly to the per-cell ice fraction with per-channel gains, the rest
  being pure noise.

Every emitted channel is standardized to zero mean and unit variance over
its own grid, so downstream spread estimates start from a known scale.  The
label blurs noise with scipy's reflecting Gaussian as one numpy matrix per axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import _COUNT, _SEED, ConfigurationError, DimensionError, _check_range
from .rng import SeededRng

__all__ = ["SceneConfig", "Scene", "generate", "ice_fraction_coarse"]

# Stream ids under the scene seed.
_STREAM_LABEL = 0
_STREAM_MWR = 1
_STREAM_SAR = 2

# Base class-mean separation at full contrast, per sar channel, and the
# per-channel weight of the edge-texture term.
_SAR_CONTRAST = (2.0, 1.2)
_SAR_EDGE_WEIGHT = (1.0, 0.8)

# Each numeric field's range, as errors._check_range reads it.  The bounds
# stop a value before numpy fails on it, far past what the pipeline runs:
# 128x128 grids of 14 channels (a 2048x2048 float64 channel is 32 MiB; a
# gradient needs two pixels a side); a blob_scale past any grid's correlation
# length (the kernel is 8 * blob_scale + 1 taps wide); an mwr_noise or
# edge_amplitude at which the class signal is a millionth of the term it scales
# (from about 1e154 an mwr channel's variance overflows to inf, near 1e308 NaN).
_RANGES = {
    "height": (int, "[]", 2, 2048),
    "width": (int, "[]", 2, 2048),
    "mwr_factor": (int, "[]", 1, 2048),
    "mwr_channels": (int, "[]", 1, 256),
    "sar_ambiguity": (float, "[]", 0.0, 1.0),
    "mwr_noise": (float, "[]", 0.0, 1e6),
    "mwr_informative_fraction": (float, "(]", 0.0, 1.0),
    "blob_scale": (float, "(]", 0.0, 1e4),
    "edge_amplitude": (float, "[]", 0.0, 1e6),
    "seed": _SEED,
}


@dataclass(frozen=True)
class SceneConfig:
    height: int = 64
    width: int = 64
    mwr_factor: int = 16
    mwr_channels: int = 14
    sar_ambiguity: float = 0.8
    mwr_noise: float = 0.1
    mwr_informative_fraction: float = 0.5
    blob_scale: float = 12.0
    edge_amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, spec in _RANGES.items():
            _check_range(name, getattr(self, name), spec)
        if self.height % self.mwr_factor or self.width % self.mwr_factor:
            raise ConfigurationError(
                f"grid {self.height}x{self.width} is not divisible by factor {self.mwr_factor}"
            )


@dataclass(frozen=True)
class Scene:
    sar: np.ndarray    # [2, H, W]
    mwr: np.ndarray    # [mwr_channels, H/f, W/f]
    label: np.ndarray  # [1, H, W], values 0 or 1


def ice_fraction_coarse(label, factor: int) -> np.ndarray:
    """Mean of the binary label over each factor x factor block."""
    label = np.asarray(label, dtype=np.float64)
    if label.ndim != 3:
        raise DimensionError(f"label must be [C, H, W], got shape {label.shape}")
    _check_range("factor", factor, _COUNT)
    channels, height, width = label.shape
    if height % factor or width % factor:
        raise ConfigurationError(
            f"grid {height}x{width} is not divisible by factor {factor}"
        )
    blocks = label.reshape(channels, height // factor, factor, width // factor, factor)
    return blocks.mean(axis=(2, 4))


def _standardize(x: np.ndarray) -> np.ndarray:
    """Zero mean, unit population variance; a constant channel becomes zeros."""
    mean = x.mean()
    centered = x - mean
    sigma = np.sqrt((centered**2).mean())
    if sigma <= 1e-12 * max(1.0, abs(mean)):
        return np.zeros_like(x)
    return centered / sigma


def _informative_gains(count: int) -> np.ndarray:
    """Distinct per-channel gains with alternating sign."""
    magnitudes = np.linspace(0.6, 1.4, count)
    signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    return magnitudes * signs


def _blur_matrix(size: int, sigma: float) -> np.ndarray:
    """scipy's ``_gaussian_kernel1d`` as a size x size matrix under half-sample reflection."""
    radius = int(4.0 * sigma + 0.5)
    if radius == 0:
        return np.eye(size)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps**2)
    folded = np.bincount(taps % (2 * size), weights / weights.sum(), minlength=2 * size)
    # Reflection has period 2 * size, so entry [i, k] sums the taps folded onto
    # offsets k - i (a Toeplitz matrix) and -1 - k - i (a Hankel one).  Windows
    # over the offsets build both; a negative offset indexes from the end.
    lags = np.arange(1 - size, size)
    return (sliding_window_view(folded[lags], size)[::-1]
            + sliding_window_view(folded[-size - lags], size))


def generate(cfg: SceneConfig) -> Scene:
    """Synthesize one scene deterministically from its config.

    The label thresholds smoothed seeded noise at zero, so the expected ice
    fraction is balanced and ``blob_scale`` sets the correlation length of
    the regions.
    """
    rng = SeededRng(cfg.seed)
    height, width = cfg.height, cfg.width

    noise = rng.derive(_STREAM_LABEL).normal((height, width))
    field = _blur_matrix(height, cfg.blob_scale) @ noise @ _blur_matrix(width, cfg.blob_scale).T
    label2d = (field > 0.0).astype(np.float64)
    label = label2d[None]

    fraction = ice_fraction_coarse(label, cfg.mwr_factor)[0]
    signal = 2.0 * fraction - 1.0
    n_informative = max(1, round(cfg.mwr_informative_fraction * cfg.mwr_channels))
    gains = _informative_gains(n_informative)

    coarse_shape = fraction.shape
    mwr = np.empty((cfg.mwr_channels,) + coarse_shape)
    for m in range(cfg.mwr_channels):
        channel_noise = rng.derive(_STREAM_MWR, m).normal(coarse_shape)
        if m < n_informative:
            raw = gains[m] * signal + cfg.mwr_noise * channel_noise
        else:
            raw = channel_noise
        mwr[m] = _standardize(raw)

    grad_y, grad_x = np.gradient(label2d)
    edge = np.hypot(grad_y, grad_x)
    separation = (1.0 - cfg.sar_ambiguity)
    sar = np.empty((2, height, width))
    for c in range(2):
        channel_noise = rng.derive(_STREAM_SAR, c).normal((height, width))
        raw = (
            separation * _SAR_CONTRAST[c] * (label2d - 0.5)
            + channel_noise
            + cfg.edge_amplitude * _SAR_EDGE_WEIGHT[c] * edge
        )
        sar[c] = _standardize(raw)

    return Scene(sar=sar, mwr=mwr, label=label)
