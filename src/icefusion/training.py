"""Loss, optimizer step, training loop and mixing-input statistics.

Training is deliberately plain: full-image batches, stochastic gradient
descent, per-pixel binary cross entropy.  Everything is deterministic given
the training seed and the dataset order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DimensionError, UsageError, _is_int, _is_real
from .network import (
    FusionNetwork,
    backward,
    forward,
    named_parameters,
)
from .rng import SeededRng

__all__ = [
    "TrainConfig",
    "MixingStats",
    "NATIVE_GRID",
    "UPSAMPLED_GRID",
    "bce_loss",
    "sgd_step",
    "train",
    "collect_mixing_stats",
]

NATIVE_GRID = "native-grid"
UPSAMPLED_GRID = "upsampled-grid"

# Stream ids under the training seed.
_STREAM_SHUFFLE = 4
_STREAM_STEP = 5


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 1
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not (_is_real(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigurationError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if not _is_int(self.epochs) or self.epochs < 0:
            raise ConfigurationError(
                f"epochs must be a non-negative integer, got {self.epochs!r}"
            )
        if not _is_int(self.batch_size) or self.batch_size < 1:
            raise ConfigurationError(
                f"batch size must be an integer of at least 1, got {self.batch_size!r}"
            )
        SeededRng(self.seed)  # refuses any seed that names no stream
        if not isinstance(self.shuffle, (bool, np.bool_)):
            raise ConfigurationError(f"shuffle must be a bool, got {self.shuffle!r}")


def bce_loss(prob, label) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy over all pixels, plus its gradient.

    ``prob`` must lie strictly inside (0, 1) and ``label`` must be binary.
    The returned gradient is with respect to the logit behind ``prob``,
    (p - y) / N, which stays finite however saturated the logit is; it is
    what :func:`~icefusion.network.backward` takes.
    """
    prob = np.asarray(prob, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if prob.shape != label.shape:
        raise DimensionError(f"prob {prob.shape} and label {label.shape} differ in shape")
    if not np.all((label == 0.0) | (label == 1.0)):
        raise DataError("labels must be 0 or 1")
    if not np.all((prob > 0.0) & (prob < 1.0)):
        raise DataError("probabilities must lie strictly inside (0, 1)")
    loss = float(-(label * np.log(prob) + (1.0 - label) * np.log1p(-prob)).mean())
    return loss, (prob - label) / prob.size


def sgd_step(net: FusionNetwork, grads: dict[str, np.ndarray], learning_rate: float) -> FusionNetwork:
    """One in-place gradient descent update: p <- p - lr * g.

    A zero learning rate is allowed and leaves every parameter unchanged.
    Normalization running statistics are untouched; they only move inside
    train-mode forward passes.  Returns the same network for chaining.
    """
    if not (_is_real(learning_rate) and learning_rate >= 0.0):
        raise ConfigurationError(
            f"learning rate must be non-negative and finite, got {learning_rate}"
        )
    params = named_parameters(net)
    names = {name for name, _ in params}
    unknown = set(grads) - names
    if unknown:
        raise UsageError(f"gradients name unknown parameters: {sorted(unknown)}")
    for name, value in params:
        g = grads.get(name)
        if g is None:
            raise UsageError(f"missing gradient for parameter {name!r}")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != value.shape:
            raise UsageError(
                f"gradient for {name!r} has shape {g.shape}, expected {value.shape}"
            )
        value -= learning_rate * g
    net.version += 1
    return net


def _check_scenes(net: FusionNetwork, scenes) -> None:
    if not scenes:
        raise UsageError("at least one scene is required")
    first = scenes[0]
    for scene in scenes:
        if scene.sar.shape != first.sar.shape or scene.mwr.shape != first.mwr.shape:
            raise DimensionError("all scenes must share one grid geometry")


def train(net: FusionNetwork, scenes, cfg: TrainConfig) -> tuple[FusionNetwork, list[float]]:
    """Optimize the network in place over the scene list.

    Scenes are visited one per forward/backward pass; with batch_size > 1
    gradients are averaged over that many consecutive scenes before each
    update.  Returns the network and the mean per-scene loss of every epoch.

    A non-finite gradient raises :class:`DataError` naming the epoch, scene
    and parameter, before the step it belongs to touches any parameter.
    """
    _check_scenes(net, scenes)
    root = SeededRng(cfg.seed)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        if cfg.shuffle:
            order = root.derive(_STREAM_SHUFFLE, epoch).permutation(len(scenes))
        else:
            order = np.arange(len(scenes))
        losses = []
        pending: dict[str, np.ndarray] = {}
        pending_count = 0
        for pos, scene_index in enumerate(order):
            scene = scenes[int(scene_index)]
            step_rng = root.derive(_STREAM_STEP, epoch, pos)
            fp = forward(net, scene.sar, scene.mwr, mode="train", rng=step_rng,
                         keep_cache=True)
            loss, grad_logit = bce_loss(fp.prob, scene.label)
            losses.append(loss)
            grads = backward(net, fp.cache, grad_logit)
            for name, g in grads.items():
                if not np.isfinite(g).all():
                    raise DataError(
                        f"non-finite gradient for {name!r} in epoch {epoch}, "
                        f"scene {int(scene_index)}"
                    )
            pending = {k: pending[k] + g for k, g in grads.items()} if pending else grads
            pending_count += 1
            if pending_count == cfg.batch_size or pos == len(order) - 1:
                mean_grads = {k: v / pending_count for k, v in pending.items()}
                sgd_step(net, mean_grads, cfg.learning_rate)
                pending = {}
                pending_count = 0
        history.append(float(np.mean(losses)))
    return net, history


@dataclass(frozen=True)
class MixingStats:
    """Per-input first and second moments of the mixing inputs.

    For the image-derived groups the moments pool every pixel of every scene
    on the fine grid.  For the btemp group they are computed on the native
    coarse grid of the (already normalized) mwr channels, before any
    upsampling; ``btemp_provenance`` records which grid each btemp entry
    actually came from.  Pixel counts are kept per grid.
    """

    mean: np.ndarray
    sigma: np.ndarray
    btemp_provenance: tuple[str, ...]
    fine_pixel_count: int
    native_pixel_count: int


def collect_mixing_stats(net: FusionNetwork, scenes, btemp_source: str = NATIVE_GRID) -> MixingStats:
    """Pool mixing-input statistics over a dataset with eval-mode forwards.

    ``btemp_source`` selects where the btemp moments come from: the native
    coarse grid (the supported analysis path) or the upsampled fine grid,
    which exists so that the downstream refusal of such statistics can be
    demonstrated.  Standard deviations are population standard deviations.
    """
    _check_scenes(net, scenes)
    if btemp_source not in (NATIVE_GRID, UPSAMPLED_GRID):
        raise UsageError(f"btemp_source must be {NATIVE_GRID!r} or {UPSAMPLED_GRID!r}")
    cfg = net.config
    d_total = cfg.mixing_width
    m = cfg.mwr_channels
    scale_width = d_total - m

    # Means pool as offsets from each input's first block mean, so merges stay small.
    origin = np.zeros(d_total)
    mean = np.zeros(d_total)
    m2 = np.zeros(d_total)  # sum of squared deviations from the mean
    sizes = np.zeros(d_total)  # pixels per scene behind each input
    lows = np.full(d_total, np.inf)
    highs = np.full(d_total, -np.inf)
    for i, scene in enumerate(scenes):
        # The forward's mixing inputs are ours to overwrite; scene data is not.
        mix = forward(net, scene.sar, scene.mwr, mode="eval").mixing_inputs
        btemp = scene.mwr.copy() if btemp_source == NATIVE_GRID else mix[scale_width:]
        for block, sel in ((mix[:scale_width], slice(0, scale_width)),
                           (btemp, slice(scale_width, d_total))):
            lows[sel] = np.minimum(lows[sel], block.min(axis=(1, 2)))
            highs[sel] = np.maximum(highs[sel], block.max(axis=(1, 2)))
            flat = block.reshape(len(block), -1)
            n = sizes[sel] = flat.shape[1]
            block_mean = flat.sum(axis=1) / n
            flat -= block_mean[:, None]
            if i == 0:
                origin[sel] = block_mean
            # The centred sum restores what rounding took from block_mean.
            block_mean = (block_mean - origin[sel]) + flat.sum(axis=1) / n
            flat *= flat
            # Chan, Golub & LeVeque (1983) merge with the i equal-sized blocks before.
            delta = block_mean - mean[sel]
            m2[sel] += flat.sum(axis=1) + delta**2 * (n * i / (i + 1))
            mean[sel] += delta / (i + 1)

    variance = m2 / (sizes * len(scenes))
    # A channel that never varies has zero variance by definition; do not let
    # accumulation roundoff leak into it.
    variance[lows == highs] = 0.0
    return MixingStats(
        mean=origin + mean,
        sigma=np.sqrt(variance),
        btemp_provenance=(btemp_source,) * m,
        fine_pixel_count=len(scenes) * scenes[0].sar[0].size,
        native_pixel_count=len(scenes) * scenes[0].mwr[0].size,
    )
