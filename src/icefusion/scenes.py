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
its own grid, so downstream spread estimates start from a known scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConfigurationError, DimensionError, _is_int, _is_real
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
        for name in ("height", "width", "mwr_factor", "mwr_channels", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in ("sar_ambiguity", "mwr_noise", "mwr_informative_fraction", "blob_scale",
                     "edge_amplitude"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
        if self.height < 1 or self.width < 1:
            raise ConfigurationError("the grid must have positive size")
        if self.mwr_factor < 1:
            raise ConfigurationError(f"mwr factor must be positive, got {self.mwr_factor}")
        if self.height % self.mwr_factor or self.width % self.mwr_factor:
            raise ConfigurationError(
                f"grid {self.height}x{self.width} is not divisible by factor {self.mwr_factor}"
            )
        if self.mwr_channels < 1:
            raise ConfigurationError("at least one mwr channel is required")
        if not 0.0 <= self.sar_ambiguity <= 1.0:
            raise ConfigurationError(
                f"sar ambiguity must lie in [0, 1], got {self.sar_ambiguity}"
            )
        if self.mwr_noise < 0.0:
            raise ConfigurationError(f"mwr noise must be non-negative, got {self.mwr_noise}")
        if not 0.0 < self.mwr_informative_fraction <= 1.0:
            raise ConfigurationError(
                f"informative fraction must lie in (0, 1], got {self.mwr_informative_fraction}"
            )
        if self.blob_scale <= 0.0:
            raise ConfigurationError(f"blob scale must be positive, got {self.blob_scale}")
        if self.edge_amplitude < 0.0:
            raise ConfigurationError(
                f"edge amplitude must be non-negative, got {self.edge_amplitude}"
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
    if not _is_int(factor) or factor < 1:
        raise ConfigurationError(f"factor must be a positive integer, got {factor!r}")
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


def generate(cfg: SceneConfig) -> Scene:
    """Synthesize one scene deterministically from its config.

    The label thresholds smoothed seeded noise at zero, so the expected ice
    fraction is balanced and ``blob_scale`` sets the correlation length of
    the regions.
    """
    rng = SeededRng(cfg.seed)
    height, width = cfg.height, cfg.width

    noise = rng.derive(_STREAM_LABEL).normal((height, width))
    field = gaussian_filter(noise, sigma=cfg.blob_scale, mode="reflect")
    label2d = (field > 0.0).astype(np.float64)
    label = label2d[None]

    fraction = ice_fraction_coarse(label, cfg.mwr_factor)[0]
    signal = 2.0 * fraction - 1.0
    n_informative = max(1, round(cfg.mwr_informative_fraction * cfg.mwr_channels))
    n_informative = min(n_informative, cfg.mwr_channels)
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
