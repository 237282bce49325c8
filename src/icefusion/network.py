"""The multi-scale radar/radiometer fusion network.

The model is a bank of parallel views of one high-resolution radar image:

* a two-convolution linear stem whose output is both the finest-scale block
  of mixing inputs and the shared trunk every coarser branch reads from;
* one branch per dilation rate d, which first averages the trunk over a
  d x d window and then applies three blocks of two dilated convolutions
  each, interleaved with ReLU, batch normalization and dropout;
* the coarse radiometer channels, upsampled to the radar grid with no
  learned transform.

All blocks are written into one array of mixing inputs and combined per
pixel by a single linear layer plus logistic function, so the final stage is
an ordinary logistic regression over named feature channels.  Gradients are
derived by hand; ``backward`` is the exact transpose of ``forward``.

The branches meet only at the stem tap and the mixing layer, so ``forward``
and ``backward`` run them concurrently, one task per branch on a module
thread pool made on first use (one thread per usable CPU, rebuilt in a
forked child).  Each pool thread first calls OpenBLAS's
``openblas_set_num_threads_local(1)`` in the library numpy loaded, so
branches do not fight over BLAS threads.  In the pthreads OpenBLAS that
numpy's wheels bundle this sets the count for the whole process: once the
pool exists, every numpy GEMM in the process runs on one thread.  Branches
run serially on the calling thread on grids under ``_POOL_MIN_PIXELS``
(32x32), with fewer than two branches or usable CPUs, or when numpy's BLAS
is not an OpenBLAS with that call.  Every branch writes only its own
block, cache and gradients, and ``backward`` adds the branches' tap
gradients on the calling thread in branch order, so outputs are the same
bits either way.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ops
from .errors import ConfigurationError, DimensionError, UsageError, _is_int, _is_real
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

# Branches run concurrently only on grids of at least this many pixels (32x32);
# on smaller grids, such as the 8x8 gradient checks, handing a branch to a
# thread costs more than its work.
_POOL_MIN_PIXELS = 1024


# Branch width of each published variant; scale-0 and btemp are 14 wide in both.
_BRANCH_WIDTH = {"small": 14, "large": 28}
_PUBLISHED_WIDTH = 14


def scale_group_name(dilation: int) -> str:
    return f"scale-{dilation}"


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

    The mixing inputs are partitioned into named groups: ``scale-0`` (the
    stem tap, ``scale0_width`` wide), one ``scale-d`` group per dilation rate
    d (each ``branch_width`` wide) and ``btemp`` (the ``mwr_channels``
    radiometer channels); ``group_widths`` and ``groups`` derive that
    partition.  ``variant`` selects the published widths: ``small`` is 14
    everywhere, ``large`` widens the branches to 28, and both read 14 mwr
    channels.  ``custom`` accepts any positive widths for toy models.
    Depths, kernel size and radar channel count are fixed (see
    ``SAR_CHANNELS``).
    """

    variant: str
    scale0_width: int
    branch_width: int
    dilation_rates: tuple[int, ...] = (2, 4, 8, 16)
    dropout_rate: float = 0.1
    mixing_activation: str = "linear"
    upsample_mode: str = "bilinear"
    mwr_channels: int = 14
    mwr_factor: int = 16

    def __post_init__(self):
        rates = self.dilation_rates
        if not isinstance(rates, (tuple, list)) or not all(map(_is_int, rates)):
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
        if not (_is_real(self.dropout_rate) and 0.0 <= self.dropout_rate < 1.0):
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
        counts = (self.scale0_width, self.branch_width, self.mwr_channels, self.mwr_factor)
        if not all(_is_int(n) and n >= 1 for n in counts):
            raise ConfigurationError(
                "the scale-0 and branch widths, mwr channel count and grid factor must be "
                f"positive integers, got {counts!r}"
            )
        if self.variant in _BRANCH_WIDTH:
            published = (_PUBLISHED_WIDTH, _BRANCH_WIDTH[self.variant], _PUBLISHED_WIDTH)
            if counts[:3] != published:
                raise ConfigurationError(
                    f"the {self.variant} variant reads {published[2]} mwr channels with "
                    f"scale-0 width {published[0]} and branch width {published[1]}, got "
                    f"{counts[2]} mwr channels with widths {counts[0]} and {counts[1]}"
                )
        # Plain Python numbers, as for the rates: numpy scalars would reach the
        # checkpoint header, which JSON cannot encode.
        for name in ("scale0_width", "branch_width", "mwr_channels", "mwr_factor"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "dropout_rate", float(self.dropout_rate))

    @classmethod
    def for_variant(cls, variant: str, **overrides) -> "ModelConfig":
        """Published configurations: ``small`` (all 14) or ``large`` (branches 28)."""
        if variant not in _BRANCH_WIDTH:
            raise ConfigurationError(f"variant must be 'small' or 'large', got {variant!r}")
        return cls(variant, _PUBLISHED_WIDTH, _BRANCH_WIDTH[variant], **overrides)

    @classmethod
    def custom(cls, scale0_width: int, branch_width: int, **overrides) -> "ModelConfig":
        """Toy configuration with any positive widths."""
        return cls("custom", scale0_width, branch_width, **overrides)

    @property
    def group_widths(self) -> dict[str, int]:
        """Width of each mixing-input group, in concatenation order."""
        rates = self.dilation_rates
        names = [GROUP_SCALE0, *map(scale_group_name, rates), GROUP_BTEMP]
        return dict(zip(names, [self.scale0_width, *[self.branch_width] * len(rates),
                                self.mwr_channels]))

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
    def from_dict(cls, data) -> "ModelConfig":
        """Rebuild a config from a mapping of exactly the fields ``to_dict`` writes."""
        names = [f.name for f in fields(cls)]
        if not isinstance(data, dict) or set(data) != set(names):
            got = list(data) if isinstance(data, dict) else data
            raise ConfigurationError(
                f"a model config must map exactly the fields {names}, got {got!r}"
            )
        return cls(**data)


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
    branches: list[_BranchCache] | None  # None once a backward has taken them
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
    stem_width, width = config.scale0_width, config.branch_width
    stem = []
    cin = SAR_CHANNELS
    for i in range(_STEM_DEPTH):
        stem.append(_init_conv(cin, stem_width, _KERNEL_SIZE, rng.derive(_STREAM_STEM, i)))
        cin = stem_width

    branches = []
    for b, d in enumerate(config.dilation_rates):
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
    stem, width = config.scale0_width, config.branch_width
    count = (SAR_CHANNELS * taps + 1) * stem + (_STEM_DEPTH - 1) * (stem * taps + 1) * stem
    branch = (stem * taps + 1) * width
    branch += (2 * _BRANCH_BLOCKS - 1) * (width * taps + 1) * width
    branch += _BRANCH_BLOCKS * 4 * width  # gamma, beta, running mean and variance
    return count + len(config.dilation_rates) * branch + config.mixing_width + 1


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_limit():
    """OpenBLAS's ``openblas_set_num_threads_local`` in the library numpy loaded, or None.

    numpy's wheels bundle their OpenBLAS in ``numpy.libs``; loading it again
    by path returns the copy numpy already uses.  scipy bundles a second,
    32-bit-integer OpenBLAS, which numpy's ``matmul`` never calls.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            limit = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        limit.argtypes, limit.restype = [ctypes.c_int], ctypes.c_int
        return limit
    return None


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads, and
    # the lock as it was, perhaps held by a thread the child does not have.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _branch_pool(branches: int, pixels: int) -> ThreadPoolExecutor | None:
    """The shared branch pool, or None when the branches should run serially.

    The pool may hold one thread per usable CPU, but it starts threads only
    as tasks arrive, so one pass's branches run on at most
    min(branches, CPUs) of them.  It outlives a pass because threads made
    per pass measured slower on 64x64 training steps.
    """
    global _pool
    if pixels < _POOL_MIN_PIXELS or branches < 2:
        return None
    with _pool_lock:
        if _pool is None:
            cpus, limit = _usable_cpus(), _blas_thread_limit()
            if cpus < 2 or limit is None:
                return None
            _pool = ThreadPoolExecutor(cpus, thread_name_prefix="icefusion-branch",
                                       initializer=limit, initargs=(1,))
        return _pool


def _each_branch(fn, items: list[tuple], pixels: int) -> list:
    """``[fn(*item) for item in items]``, one item per branch, on the pool when it pays.

    Every branch finishes before the results, or the first branch's error in
    branch order, come back.
    """
    pool = _branch_pool(len(items), pixels)
    if pool is None:
        return [fn(*item) for item in items]
    futures = [pool.submit(fn, *item) for item in items]
    wait(futures)
    return [future.result() for future in futures]


def _branch_forward(branch: Branch, b: int, tap: np.ndarray, out: np.ndarray,
                    cfg: ModelConfig, mode: str, rng: SeededRng | None,
                    keep_cache: bool) -> _BranchCache | None:
    """Branch ``b`` on the stem tap, written into its block ``out`` of the mixing inputs.

    Without ``keep_cache`` each array is dropped as soon as the next op has
    read it.
    """
    cache = _BranchCache([], [], [], [], None) if keep_cache else None
    x = ops.avg_smooth(tap, branch.dilation)
    for j in range(len(branch.norms)):
        for c in (2 * j, 2 * j + 1):
            if keep_cache:
                cache.conv_inputs.append(x)
            x = ops.conv2d(x, branch.convs[c].kernels, branch.convs[c].bias,
                           dilation=branch.dilation)
        if keep_cache:
            cache.relu_masks.append(x > 0.0)
        x = ops.relu(x)
        x, norm_cache = ops.batch_norm(x, branch.norms[j], mode=mode)
        site_rng = rng.derive(_STREAM_DROPOUT, b, j) if rng is not None else None
        x, scale = ops.dropout(x, cfg.dropout_rate, site_rng, mode=mode)
        if keep_cache:
            cache.norm_caches.append(norm_cache)
            cache.drop_scales.append(scale)
        del norm_cache
    if cfg.mixing_activation == "relu":
        if keep_cache:
            cache.mix_mask = x > 0.0
        x = ops.relu(x)
    out[...] = x
    return cache


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
    feature blocks feeding the final logistic layer, in group order, with
    the btemp block equal to the upsampled mwr exactly.

    Without ``keep_cache`` the forward keeps nothing but its result: each
    conv input, mask and normalized activation is freed as soon as the next
    op has read it.  A large 128x128 eval forward then peaks at about 44 MB
    of traced memory with two branches in flight, against 81 MB when every
    branch held its six conv inputs until it returned.  ``keep_cache`` keeps
    what :func:`backward` reads, which consumes it.
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
        if keep_cache:
            stem_inputs.append(x)
        x = ops.conv2d(x, layer.kernels, layer.bias, dilation=1)

    # Every block is written straight into its rows of the mixing inputs.
    height, width = sar.shape[1:]
    mixing_inputs = np.empty((cfg.mixing_width, height, width))
    blocks = [mixing_inputs[g.start:g.stop] for g in cfg.groups]
    tap = blocks[0]  # the scale-0 block and the trunk all branches read
    tap[...] = x
    del x
    blocks[-1][...] = ops.upsample(mwr, cfg.mwr_factor, mode=cfg.upsample_mode)
    branch_caches = _each_branch(
        _branch_forward,
        [(branch, b, tap, blocks[1 + b], cfg, mode, rng, keep_cache)
         for b, branch in enumerate(net.branches)],
        height * width,
    )

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


def _branch_backward(branch: Branch, bc: _BranchCache, coefficients: np.ndarray,
                     grad_logit: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Branch gradients from its block's mixing ``coefficients`` ([width, 1, 1]).

    Returns the branch's share of the stem tap's gradient and its parameter
    gradients, keyed in the order :func:`backward` reports them.  Every mask
    multiplies a gradient this function made, so it multiplies in place.
    Each record is popped from ``bc`` as it is read, so every activation is
    freed once its gradients are formed and ``bc`` is left empty.
    """
    grads: dict[str, np.ndarray] = {}
    prefix = f"branch.{branch.dilation}"
    g = coefficients * grad_logit
    if bc.mix_mask is not None:
        g *= bc.mix_mask
    for j in reversed(range(len(branch.norms))):
        scale = bc.drop_scales.pop()
        if scale is not None:
            g *= scale
        g, d_gamma, d_beta = ops.batch_norm_backward(g, bc.norm_caches.pop(), branch.norms[j])
        grads[f"{prefix}.norm{j}.gamma"] = d_gamma
        grads[f"{prefix}.norm{j}.beta"] = d_beta
        g *= bc.relu_masks.pop()
        for c in (2 * j + 1, 2 * j):
            g, d_k, d_b = ops.conv2d_backward(g, bc.conv_inputs.pop(), branch.convs[c].kernels,
                                              dilation=branch.dilation)
            grads[f"{prefix}.conv{c}.kernels"] = d_k
            grads[f"{prefix}.conv{c}.bias"] = d_b
    return ops.avg_smooth_backward(g, branch.dilation), grads


def backward(net: FusionNetwork, cache: _Cache, grad_logit) -> dict[str, np.ndarray]:
    """Hand-derived gradients of every parameter for one train-mode forward.

    ``grad_logit`` is the upstream gradient with respect to the logit map
    behind the returned probability, shaped like it ([1, H, W]), as
    :func:`~icefusion.training.bce_loss` returns it.  The result maps
    parameter names (as produced by :func:`named_parameters`) to arrays of
    matching shape.

    Once its arguments check out, ``backward`` consumes the cache, as
    autograd does without ``retain_graph``: each branch task frees its conv
    inputs, relu masks and normalized activations as soon as their gradients
    are formed.  For a large 64x64 net that is about 33 MB gone by the time
    it returns; the stem inputs, mixing inputs and probability (about 5 MB)
    stay on the cache.  A second ``backward`` on the same cache raises
    :class:`UsageError`, as does one on a cache whose earlier ``backward``
    failed in a branch.
    """
    if cache is None:
        raise UsageError("backward needs the cache of a train-mode forward")
    if cache.mode != "train":
        raise UsageError("backward requires a train-mode cache")
    if cache.branches is None:
        raise UsageError("this cache was consumed by an earlier backward")
    if cache.net is not net or cache.net_version != net.version:
        raise UsageError("stale cache: the network changed since this forward ran")
    grad_logit = np.asarray(grad_logit, dtype=np.float64)
    if grad_logit.shape != cache.prob.shape:
        raise DimensionError(
            f"grad_logit shape {grad_logit.shape} does not match prob {cache.prob.shape}"
        )
    grad_logit = grad_logit[0]
    branch_caches, cache.branches = cache.branches, None

    grads: dict[str, np.ndarray] = {}
    grads["mixing.bias"] = np.array(grad_logit.sum())
    grads["mixing.coefficients"] = np.tensordot(
        cache.mixing_inputs, grad_logit, axes=([1, 2], [0, 1])
    )
    # Each block's gradient is made where it is used, never the whole [D, H, W].
    coefficients = [net.mixing_coefficients[g.start:g.stop, None, None] for g in net.groups]
    grad_tap = coefficients[0] * grad_logit
    branch_grads = _each_branch(
        _branch_backward,
        [(branch, branch_caches[b], coefficients[1 + b], grad_logit)
         for b, branch in enumerate(net.branches)],
        grad_logit.size,
    )
    # Summed on this thread in branch order, so the sum is the same bits
    # whether or not the branches ran concurrently.
    for tap_grad, own in branch_grads:
        grad_tap += tap_grad
        grads.update(own)

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
