"""The multi-scale radar/radiometer fusion network.

The model is a bank of parallel views of one high-resolution radar image:

* a two-convolution linear stem whose output is both the finest-scale block
  of mixing inputs and the shared trunk every coarser branch reads from;
* one branch per dilation rate d, which first averages the trunk over a
  d x d window and then applies three blocks of two dilated convolutions
  each, interleaved with ReLU, batch normalization and dropout;
* the coarse radiometer channels, upsampled to the radar grid with no
  learned transform.

All blocks are concatenated into the mixing inputs and combined per pixel by
a single linear layer plus logistic function, so the final stage is an
ordinary logistic regression over named feature channels.  Gradients are
derived by hand; ``backward`` is the exact transpose of ``forward``.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import ops
from .errors import ConfigurationError, DimensionError, UsageError
from .rng import SeededRng

__all__ = [
    "SAR_CHANNELS",
    "GROUP_SCALE0",
    "GROUP_BTEMP",
    "scale_group_name",
    "InputGroup",
    "ModelConfig",
    "ConvLayer",
    "Branch",
    "FusionNetwork",
    "ForwardPass",
    "build",
    "forward",
    "backward",
    "named_parameters",
    "named_state",
]

GROUP_SCALE0 = "scale-0"
GROUP_BTEMP = "btemp"

# The fixed architecture: radar backscatter channels, 3x3 kernels, a
# two-conv stem and three two-conv blocks per dilated branch.
SAR_CHANNELS = 2
_KERNEL_SIZE = 3
_STEM_DEPTH = 2
_BRANCH_BLOCKS = 3

# Stream ids for deriving per-layer randomness from one global seed.
_STREAM_STEM = 0
_STREAM_BRANCH = 1
_STREAM_MIXING = 2
_STREAM_DROPOUT = 3


# Branch width of each published variant; scale-0 and btemp are 14 wide in both.
_BRANCH_WIDTH = {"small": 14, "large": 28}
_PUBLISHED_WIDTH = 14
_DEFAULT_RATES = (2, 4, 8, 16)


def scale_group_name(dilation: int) -> str:
    return f"scale-{dilation}"


def _group_names(rates) -> list[str]:
    """Mixing-input group names in concatenation order."""
    return [GROUP_SCALE0, *map(scale_group_name, rates), GROUP_BTEMP]


def _width_map(rates, scale0: int, branch: int, btemp: int) -> dict[str, int]:
    return dict(zip(_group_names(rates), [scale0, *[branch] * len(rates), btemp]))


@dataclass(frozen=True)
class InputGroup:
    """A named contiguous block of mixing-input channels."""

    name: str
    start: int
    width: int

    @property
    def stop(self) -> int:
        return self.start + self.width


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``variant`` selects the published channel widths: ``small`` gives every
    group 14 channels, ``large`` widens the four dilated branches to 28.
    ``custom`` accepts any positive widths for toy models.  Depths, kernel
    size and radar channel count are fixed (see ``SAR_CHANNELS``).
    """

    variant: str
    group_widths: dict[str, int]
    dilation_rates: tuple[int, ...] = _DEFAULT_RATES
    dropout_rate: float = 0.1
    mixing_activation: str = "linear"
    upsample_mode: str = "bilinear"
    mwr_channels: int = 14
    mwr_factor: int = 16

    def __post_init__(self):
        rates = self.dilation_rates
        if not isinstance(rates, (tuple, list)) or not all(map(ops._is_int, rates)):
            raise ConfigurationError(f"dilation rates must be integers, got {rates!r}")
        rates = tuple(int(d) for d in rates)
        object.__setattr__(self, "dilation_rates", rates)
        if self.variant not in (*_BRANCH_WIDTH, "custom"):
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if not rates or any(d < 2 for d in rates) or any(
            b <= a for a, b in zip(rates, rates[1:])
        ):
            raise ConfigurationError(
                f"dilation rates must be strictly increasing and at least 2, got {rates}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout rate must lie in [0, 1), got {self.dropout_rate}"
            )
        if self.mixing_activation not in ("linear", "relu"):
            raise ConfigurationError(
                f"mixing activation must be 'linear' or 'relu', got {self.mixing_activation!r}"
            )
        if self.upsample_mode not in ("nearest", "bilinear"):
            raise ConfigurationError(
                f"upsample mode must be 'nearest' or 'bilinear', got {self.upsample_mode!r}"
            )
        if not all(ops._is_int(n) and n >= 1 for n in (self.mwr_channels, self.mwr_factor)):
            raise ConfigurationError(
                "the mwr channel count and grid factor must be positive integers, "
                f"got {self.mwr_channels!r} and {self.mwr_factor!r}"
            )

        if not isinstance(self.group_widths, dict):
            raise ConfigurationError(f"group widths must be a mapping, got {self.group_widths!r}")
        expected = _group_names(rates)
        if list(self.group_widths) != expected:
            raise ConfigurationError(
                f"group widths must name {expected} in order, got {list(self.group_widths)}"
            )
        if not all(ops._is_int(w) and w >= 1 for w in self.group_widths.values()):
            raise ConfigurationError(
                f"every group width must be a positive integer, got {self.group_widths}"
            )
        if self.group_widths[GROUP_BTEMP] != self.mwr_channels:
            raise ConfigurationError(
                "the btemp group width must equal the number of mwr channels"
            )
        if self.variant in _BRANCH_WIDTH:
            published = _width_map(rates, _PUBLISHED_WIDTH, _BRANCH_WIDTH[self.variant],
                                   _PUBLISHED_WIDTH)
            if self.group_widths != published:
                raise ConfigurationError(
                    f"the {self.variant} variant uses group widths {published}, "
                    f"got {dict(self.group_widths)}"
                )

    @classmethod
    def for_variant(cls, variant: str, **overrides) -> "ModelConfig":
        """Published configurations: ``small`` (all 14) or ``large`` (branches 28)."""
        if variant not in _BRANCH_WIDTH:
            raise ConfigurationError(f"variant must be 'small' or 'large', got {variant!r}")
        return cls._uniform(variant, _PUBLISHED_WIDTH, _BRANCH_WIDTH[variant], overrides)

    @classmethod
    def custom(cls, scale0_width: int, branch_width: int, **overrides) -> "ModelConfig":
        """Toy configuration with uniform branch widths."""
        return cls._uniform("custom", scale0_width, branch_width, overrides)

    @classmethod
    def _uniform(cls, variant: str, scale0_width: int, branch_width: int,
                 overrides: dict) -> "ModelConfig":
        rates = tuple(overrides.pop("dilation_rates", _DEFAULT_RATES))
        mwr_channels = overrides.pop("mwr_channels", _PUBLISHED_WIDTH)
        return cls(
            variant=variant,
            group_widths=_width_map(rates, scale0_width, branch_width, mwr_channels),
            dilation_rates=rates,
            mwr_channels=mwr_channels,
            **overrides,
        )

    @property
    def groups(self) -> list[InputGroup]:
        """The mixing-input partition, in concatenation order."""
        out = []
        start = 0
        for name, width in self.group_widths.items():
            out.append(InputGroup(name, start, width))
            start += width
        return out

    @property
    def mixing_width(self) -> int:
        """Total number of mixing inputs (the logistic layer's fan-in)."""
        return sum(self.group_widths.values())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        fields = dict(data)
        widths = fields["group_widths"]
        if isinstance(widths, dict):
            # Serializers are free to reorder mapping keys (canonical JSON sorts
            # them), so rebuild the widths in canonical group order.
            order = _group_names(fields.get("dilation_rates", _DEFAULT_RATES))
            if sorted(widths) == sorted(order):
                fields["group_widths"] = {name: widths[name] for name in order}
        return cls(**fields)


@dataclass
class ConvLayer:
    kernels: np.ndarray  # [Cout, Cin, k, k]
    bias: np.ndarray     # [Cout]


@dataclass
class Branch:
    dilation: int
    convs: list[ConvLayer]
    norms: list[ops.NormState]


@dataclass
class FusionNetwork:
    """Parameter container for one model instance.

    ``version`` counts parameter updates so that a forward cache can detect
    it has gone stale before being fed to ``backward``.
    """

    config: ModelConfig
    stem: list[ConvLayer]
    branches: list[Branch]
    mixing_coefficients: np.ndarray  # [D]
    mixing_bias: np.ndarray          # scalar, shape ()
    version: int = 0

    @property
    def groups(self) -> list[InputGroup]:
        return self.config.groups


@dataclass
class ForwardPass:
    """Everything a single forward evaluation produces."""

    prob: np.ndarray           # [1, H, W]
    mixing_inputs: np.ndarray  # [D, H, W]
    cache: "_Cache | None" = None


@dataclass
class _BranchCache:
    conv_inputs: list[np.ndarray]
    relu_masks: list[np.ndarray]
    norm_caches: list[tuple]
    drop_scales: list[np.ndarray | None]
    mix_mask: np.ndarray | None


@dataclass
class _Cache:
    mode: str
    net: FusionNetwork
    net_version: int
    stem_inputs: list[np.ndarray]
    branches: list[_BranchCache]
    mixing_inputs: np.ndarray
    prob: np.ndarray


def _init_conv(cin: int, cout: int, k: int, rng: SeededRng) -> ConvLayer:
    fan_in = cin * k * k
    bound = 1.0 / np.sqrt(fan_in)
    kernels = rng.uniform(-bound, bound, (cout, cin, k, k))
    return ConvLayer(kernels=kernels, bias=np.zeros(cout))


def build(config: ModelConfig, rng: SeededRng) -> FusionNetwork:
    """Construct a network with freshly initialized parameters.

    Kernels and mixing coefficients draw from a zero-mean uniform
    distribution scaled by 1/sqrt(fan-in); biases start at zero,
    normalization at identity.  Each layer consumes its own derived stream,
    so widening or deepening the model never disturbs other layers' draws.
    """
    if not isinstance(rng, SeededRng):
        raise UsageError("build needs a SeededRng")
    stem_width = config.group_widths[GROUP_SCALE0]
    stem = []
    cin = SAR_CHANNELS
    for i in range(_STEM_DEPTH):
        stem.append(_init_conv(cin, stem_width, _KERNEL_SIZE, rng.derive(_STREAM_STEM, i)))
        cin = stem_width

    branches = []
    for b, d in enumerate(config.dilation_rates):
        width = config.group_widths[scale_group_name(d)]
        convs = []
        cin = stem_width
        for j in range(2 * _BRANCH_BLOCKS):
            convs.append(_init_conv(cin, width, _KERNEL_SIZE, rng.derive(_STREAM_BRANCH, b, j)))
            cin = width
        norms = [ops.NormState.initial(width) for _ in range(_BRANCH_BLOCKS)]
        branches.append(Branch(dilation=d, convs=convs, norms=norms))

    d_total = config.mixing_width
    bound = 1.0 / np.sqrt(d_total)
    coeffs = rng.derive(_STREAM_MIXING).uniform(-bound, bound, d_total)
    return FusionNetwork(
        config=config,
        stem=stem,
        branches=branches,
        mixing_coefficients=coeffs,
        mixing_bias=np.zeros(()),
    )


def _value_count(config: ModelConfig) -> int:
    """Float64 values in the parameters and running statistics ``build(config)`` makes.

    Lets a loader hold a stored config against its payload before allocating
    the network it describes.
    """
    taps = _KERNEL_SIZE * _KERNEL_SIZE
    stem = config.group_widths[GROUP_SCALE0]
    count = (SAR_CHANNELS * taps + 1) * stem + (_STEM_DEPTH - 1) * (stem * taps + 1) * stem
    for d in config.dilation_rates:
        width = config.group_widths[scale_group_name(d)]
        count += (stem * taps + 1) * width
        count += (2 * _BRANCH_BLOCKS - 1) * (width * taps + 1) * width
        count += _BRANCH_BLOCKS * 4 * width  # gamma, beta, running mean and variance
    return count + config.mixing_width + 1


def _check_inputs(config: ModelConfig, sar: np.ndarray, mwr: np.ndarray) -> None:
    if sar.ndim != 3 or sar.shape[0] != SAR_CHANNELS:
        raise DimensionError(f"sar must be [{SAR_CHANNELS}, H, W], got shape {sar.shape}")
    if mwr.ndim != 3 or mwr.shape[0] != config.mwr_channels:
        raise DimensionError(
            f"mwr must be [{config.mwr_channels}, h, w], got shape {mwr.shape}"
        )
    height, width = sar.shape[1:]
    f = config.mwr_factor
    if mwr.shape[1] * f != height or mwr.shape[2] * f != width:
        raise DimensionError(
            f"grids disagree: sar is {height}x{width} but mwr {mwr.shape[1]}x{mwr.shape[2]} "
            f"with factor {f}"
        )


def forward(
    net: FusionNetwork,
    sar,
    mwr,
    mode: str = "eval",
    rng: SeededRng | None = None,
    keep_cache: bool = False,
) -> ForwardPass:
    """Run the network on one scene.

    ``sar`` is [SAR_CHANNELS, H, W], ``mwr`` is [mwr_channels, H/f, W/f].
    Train mode uses batch statistics (updating the running ones) and draws
    dropout masks from per-layer streams of ``rng``; eval mode is
    deterministic and needs no rng.  The returned mixing inputs are the
    concatenated feature blocks feeding the final logistic layer, with the
    btemp block equal to the upsampled mwr exactly.
    """
    sar = np.asarray(sar, dtype=np.float64)
    mwr = np.asarray(mwr, dtype=np.float64)
    cfg = net.config
    _check_inputs(cfg, sar, mwr)
    if mode not in ("train", "eval"):
        raise UsageError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and cfg.dropout_rate > 0.0 and rng is None:
        raise UsageError("train-mode forward needs an rng for dropout")

    stem_inputs = []
    x = sar
    for layer in net.stem:
        stem_inputs.append(x)
        x = ops.conv2d(x, layer.kernels, layer.bias, dilation=1)
    tap = x  # the scale-0 block and the trunk all branches read

    blocks = [tap]
    branch_caches = []
    for b, branch in enumerate(net.branches):
        x = ops.avg_smooth(tap, branch.dilation)
        conv_inputs, relu_masks, norm_caches, drop_scales = [], [], [], []
        for j in range(len(branch.norms)):
            conv_inputs.append(x)
            x = ops.conv2d(x, branch.convs[2 * j].kernels, branch.convs[2 * j].bias,
                           dilation=branch.dilation)
            conv_inputs.append(x)
            x = ops.conv2d(x, branch.convs[2 * j + 1].kernels, branch.convs[2 * j + 1].bias,
                           dilation=branch.dilation)
            mask = x > 0.0
            relu_masks.append(mask)
            x = ops.relu(x)
            x, norm_cache = ops.batch_norm(x[None], branch.norms[j], mode=mode)
            x = x[0]
            norm_caches.append(norm_cache)
            site_rng = rng.derive(_STREAM_DROPOUT, b, j) if rng is not None else None
            x, scale = ops.dropout(x, cfg.dropout_rate, site_rng, mode=mode)
            drop_scales.append(scale)
        if cfg.mixing_activation == "relu":
            mix_mask = x > 0.0
            x = ops.relu(x)
        else:
            mix_mask = None
        blocks.append(x)
        branch_caches.append(_BranchCache(conv_inputs, relu_masks, norm_caches,
                                          drop_scales, mix_mask))

    blocks.append(ops.upsample(mwr, cfg.mwr_factor, mode=cfg.upsample_mode))
    mixing_inputs = np.concatenate(blocks, axis=0)

    logit = float(net.mixing_bias) + np.tensordot(
        net.mixing_coefficients, mixing_inputs, axes=([0], [0])
    )
    prob = ops.sigmoid(logit)[None]

    cache = None
    if keep_cache:
        cache = _Cache(
            mode=mode,
            net=net,
            net_version=net.version,
            stem_inputs=stem_inputs,
            branches=branch_caches,
            mixing_inputs=mixing_inputs,
            prob=prob,
        )
    return ForwardPass(prob=prob, mixing_inputs=mixing_inputs, cache=cache)


def backward(net: FusionNetwork, cache: _Cache, grad_prob) -> dict[str, np.ndarray]:
    """Hand-derived gradients of every parameter for one train-mode forward.

    ``grad_prob`` is the upstream gradient with respect to the returned
    probability map.  The result maps parameter names (as produced by
    :func:`named_parameters`) to arrays of matching shape.
    """
    if cache is None:
        raise UsageError("backward needs the cache of a train-mode forward")
    if cache.mode != "train":
        raise UsageError("backward requires a train-mode cache")
    if cache.net is not net or cache.net_version != net.version:
        raise UsageError("stale cache: the network changed since this forward ran")
    grad_prob = np.asarray(grad_prob, dtype=np.float64)
    if grad_prob.shape != cache.prob.shape:
        raise DimensionError(
            f"grad_prob shape {grad_prob.shape} does not match prob {cache.prob.shape}"
        )

    cfg = net.config
    p = cache.prob[0]
    grad_logit = grad_prob[0] * p * (1.0 - p)

    grads: dict[str, np.ndarray] = {}
    grads["mixing.bias"] = np.array(grad_logit.sum())
    grads["mixing.coefficients"] = np.tensordot(
        cache.mixing_inputs, grad_logit, axes=([1, 2], [0, 1])
    )
    grad_mix = net.mixing_coefficients[:, None, None] * grad_logit[None]

    groups = net.groups
    grad_tap = grad_mix[groups[0].start:groups[0].stop].copy()

    for b, branch in enumerate(net.branches):
        bc = cache.branches[b]
        grp = groups[1 + b]
        g = grad_mix[grp.start:grp.stop]
        if bc.mix_mask is not None:
            g = g * bc.mix_mask
        for j in reversed(range(len(branch.norms))):
            if bc.drop_scales[j] is not None:
                g = g * bc.drop_scales[j]
            g4, d_gamma, d_beta = ops.batch_norm_backward(g[None], bc.norm_caches[j],
                                                          branch.norms[j])
            g = g4[0]
            grads[f"branch.{branch.dilation}.norm{j}.gamma"] = d_gamma
            grads[f"branch.{branch.dilation}.norm{j}.beta"] = d_beta
            g = g * bc.relu_masks[j]
            g, d_k, d_b = ops.conv2d_backward(g, bc.conv_inputs[2 * j + 1],
                                              branch.convs[2 * j + 1].kernels,
                                              dilation=branch.dilation)
            grads[f"branch.{branch.dilation}.conv{2 * j + 1}.kernels"] = d_k
            grads[f"branch.{branch.dilation}.conv{2 * j + 1}.bias"] = d_b
            g, d_k, d_b = ops.conv2d_backward(g, bc.conv_inputs[2 * j],
                                              branch.convs[2 * j].kernels,
                                              dilation=branch.dilation)
            grads[f"branch.{branch.dilation}.conv{2 * j}.kernels"] = d_k
            grads[f"branch.{branch.dilation}.conv{2 * j}.bias"] = d_b
        grad_tap += ops.avg_smooth_backward(g, branch.dilation)

    g = grad_tap
    for i in reversed(range(len(net.stem))):
        g, d_k, d_b = ops.conv2d_backward(g, cache.stem_inputs[i], net.stem[i].kernels,
                                          dilation=1)
        grads[f"stem.{i}.kernels"] = d_k
        grads[f"stem.{i}.bias"] = d_b
    return grads


def named_parameters(net: FusionNetwork) -> list[tuple[str, np.ndarray]]:
    """Learnable arrays in a fixed, checkpoint-stable order."""
    out = []
    for i, layer in enumerate(net.stem):
        out.append((f"stem.{i}.kernels", layer.kernels))
        out.append((f"stem.{i}.bias", layer.bias))
    for branch in net.branches:
        d = branch.dilation
        for j, conv in enumerate(branch.convs):
            out.append((f"branch.{d}.conv{j}.kernels", conv.kernels))
            out.append((f"branch.{d}.conv{j}.bias", conv.bias))
        for j, norm in enumerate(branch.norms):
            out.append((f"branch.{d}.norm{j}.gamma", norm.gamma))
            out.append((f"branch.{d}.norm{j}.beta", norm.beta))
    out.append(("mixing.coefficients", net.mixing_coefficients))
    out.append(("mixing.bias", net.mixing_bias))
    return out


def named_state(net: FusionNetwork) -> list[tuple[str, np.ndarray]]:
    """Non-learnable arrays (normalization running statistics)."""
    out = []
    for branch in net.branches:
        d = branch.dilation
        for j, norm in enumerate(branch.norms):
            out.append((f"branch.{d}.norm{j}.running_mean", norm.running_mean))
            out.append((f"branch.{d}.norm{j}.running_var", norm.running_var))
    return out
