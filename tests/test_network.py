"""Network assembly, forward semantics, and the hand-derived backward."""
import json
import math
import multiprocessing
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from icefusion import network as network_mod
from icefusion import ops
from icefusion.errors import (
    ConfigurationError,
    DegenerateStatisticsError,
    DimensionError,
    UsageError,
)
from icefusion.network import (
    SAR_CHANNELS,
    ModelConfig,
    _assemble,
    backward,
    build,
    forward,
    named_parameters,
    named_state,
    scale_group_name,
)
from icefusion.rng import SeededRng
from icefusion.storage import dump_json
from icefusion.training import bce_loss, sgd_step

from helpers import CachedLossProbe, fd_gradients, fd_slow, grad_gap


def small_net(seed=0, **overrides):
    return build(ModelConfig.for_variant("small", **overrides), SeededRng(seed))


# ---------------------------------------------------------------------------
# Configuration and partition structure


def test_published_variant_widths():
    small = ModelConfig.for_variant("small")
    large = ModelConfig.for_variant("large")
    assert small.mixing_width == 84 == 6 * 14
    assert large.mixing_width == 140 == 14 + 4 * 28 + 14
    assert [g.width for g in small.groups] == [14] * 6
    assert [g.width for g in large.groups] == [14, 28, 28, 28, 28, 14]


@pytest.mark.parametrize("variant", ["small", "large"])
def test_groups_tile_the_mixing_range(variant):
    cfg = ModelConfig.for_variant(variant)
    groups = cfg.groups
    assert [g.name for g in groups] == [
        "scale-0", "scale-2", "scale-4", "scale-8", "scale-16", "btemp",
    ]
    position = 0
    for group in groups:
        assert group.start == position
        position = group.stop
    assert position == cfg.mixing_width


def test_custom_partition_arithmetic():
    cfg = ModelConfig.custom(1, 1, dilation_rates=(2,), mwr_channels=1)
    assert cfg.mixing_width == 1 + 1 + 1
    cfg = ModelConfig.custom(2, 3, dilation_rates=(2, 5), mwr_channels=4)
    assert cfg.mixing_width == 2 + 3 + 3 + 4
    assert scale_group_name(5) == "scale-5"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("medium")
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("small", dilation_rates=(4, 2))
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("small", dilation_rates=(1, 2))
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("small", dropout_rate=1.0)
    for bad in (False, True, "0.1", None):
        with pytest.raises(ConfigurationError):
            ModelConfig.for_variant("small", dropout_rate=bad)
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("small", mixing_activation="tanh")
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("small", mwr_channels=10)  # small fixes 14
    # hand-built widths must match the variant contract
    assert ModelConfig("small", 14, 14) == ModelConfig.for_variant("small")
    assert ModelConfig("large", 14, 28) == ModelConfig.for_variant("large")
    for variant, scale0, branch in (("small", 14, 15), ("small", 15, 14),
                                    ("large", 14, 14), ("small", 14, 28)):
        with pytest.raises(ConfigurationError):
            ModelConfig(variant, scale0, branch)
    # Counts must be true integers: bools and floats are refused, not coerced.
    for bad in (True, 8.5, 8.0, "8", None):
        with pytest.raises(ConfigurationError):
            ModelConfig.for_variant("small", mwr_factor=bad)
        with pytest.raises(ConfigurationError):
            ModelConfig.custom(2, 3, dilation_rates=(2, 4), mwr_channels=bad)
        with pytest.raises(ConfigurationError):
            ModelConfig.custom(bad, 3)
        with pytest.raises(ConfigurationError):
            ModelConfig.custom(2, bad)
        with pytest.raises(ConfigurationError):
            ModelConfig.custom(2, 3, dilation_rates=(2, bad))
    for bad in (0, -1, [2, 2], {"scale-2": 2}):
        with pytest.raises(ConfigurationError):
            ModelConfig("custom", 2, bad)
        with pytest.raises(ConfigurationError):
            ModelConfig("small", bad, 14)
    cfg = ModelConfig.custom(np.int64(2), 3, dilation_rates=(np.int32(2), 4), mwr_channels=2)
    assert cfg.dilation_rates == (2, 4) and type(cfg.dilation_rates[0]) is int


@pytest.mark.parametrize("config", [
    ModelConfig.for_variant("small"),
    ModelConfig.for_variant("large", mwr_factor=4),
    ModelConfig.custom(3, 2, dilation_rates=(2, 3), mwr_channels=2),
])
def test_assemble_walks_the_arrays_named_parameters_and_state_list(config):
    walked = []

    def record(name, shape, init):
        walked.append((name, shape))
        return np.zeros(shape)

    _assemble(config, record)
    net = build(config, SeededRng(0))
    stored = named_parameters(net) + named_state(net)
    assert walked == [(name, value.shape) for name, value in stored]


def test_config_dict_round_trip():
    for cfg in (ModelConfig.for_variant("small"),
                ModelConfig.for_variant("large", mixing_activation="relu", mwr_factor=8),
                ModelConfig.custom(3, 2, dilation_rates=(2, 5), mwr_channels=4,
                                   dropout_rate=0.0)):
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        # through the canonical JSON a checkpoint header stores (sorted keys, lists)
        assert ModelConfig.from_dict(json.loads(dump_json(cfg.to_dict()))) == cfg


def test_config_from_dict_refuses_malformed_mappings():
    good = ModelConfig.for_variant("small").to_dict()
    for data in ({"variant": "small"}, [1], None, "small", dict(good, kernel_size=3),
                 {k: v for k, v in good.items() if k != "dilation_rates"}):
        with pytest.raises(ConfigurationError):
            ModelConfig.from_dict(data)


# ---------------------------------------------------------------------------
# build


def test_build_shapes_and_init():
    net = small_net(seed=3)
    params = dict(named_parameters(net))
    assert params["stem.0.kernels"].shape == (14, 2, 3, 3)
    assert params["stem.1.kernels"].shape == (14, 14, 3, 3)
    assert params["branch.2.conv0.kernels"].shape == (14, 14, 3, 3)
    assert params["branch.16.norm2.gamma"].shape == (14,)
    assert params["mixing.coefficients"].shape == (84,)
    assert params["mixing.bias"].shape == ()
    npt.assert_array_equal(params["stem.0.bias"], np.zeros(14))
    npt.assert_array_equal(params["branch.4.norm0.gamma"], np.ones(14))
    # kernels live inside the 1/sqrt(fan-in) envelope
    bound = 1.0 / math.sqrt(2 * 9)
    assert np.abs(params["stem.0.kernels"]).max() <= bound
    state = dict(named_state(net))
    npt.assert_array_equal(state["branch.8.norm1.running_var"], np.ones(14))


def test_build_is_deterministic_and_seed_sensitive():
    a = small_net(seed=10)
    b = small_net(seed=10)
    c = small_net(seed=11)
    for (name, pa), (_, pb) in zip(named_parameters(a), named_parameters(b)):
        npt.assert_array_equal(pa, pb, err_msg=name)
    assert not np.array_equal(a.stem[0].kernels, c.stem[0].kernels)


def test_build_needs_seeded_rng():
    with pytest.raises(UsageError):
        build(ModelConfig.for_variant("small"), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# forward


def scene_arrays(rng, config, height=16, width=16):
    sar = rng.normal(size=(SAR_CHANNELS, height, width))
    mwr = rng.normal(size=(config.mwr_channels,
                           height // config.mwr_factor,
                           width // config.mwr_factor))
    return sar, mwr


def test_zero_mixing_layer_gives_half_probability():
    net = small_net(seed=1, mwr_factor=4)
    net.mixing_coefficients[:] = 0.0
    sar, mwr = scene_arrays(np.random.default_rng(2), net.config)
    fp = forward(net, sar, mwr, mode="eval")
    npt.assert_array_equal(fp.prob, np.full((1, 16, 16), 0.5))


def test_scale0_block_is_linear_in_sar():
    # Stem biases start at zero, so the tap scales exactly with the input;
    # a power-of-two factor keeps even the float arithmetic exact.
    net = small_net(seed=4, mwr_factor=4)
    sar, mwr = scene_arrays(np.random.default_rng(5), net.config)
    base = forward(net, sar, mwr, mode="eval").mixing_inputs[:14]
    doubled = forward(net, 2.0 * sar, mwr, mode="eval").mixing_inputs[:14]
    npt.assert_array_equal(doubled, 2.0 * base)
    scaled = forward(net, 1.7 * sar, mwr, mode="eval").mixing_inputs[:14]
    npt.assert_allclose(scaled, 1.7 * base, rtol=1e-12, atol=1e-12)


def test_btemp_block_is_upsampled_mwr_exactly():
    for mode in ("nearest", "bilinear"):
        net = small_net(seed=6, mwr_factor=4, upsample_mode=mode)
        sar, mwr = scene_arrays(np.random.default_rng(7), net.config)
        fp = forward(net, sar, mwr, mode="eval")
        npt.assert_array_equal(fp.mixing_inputs[70:], ops.upsample(mwr, 4, mode))


def test_eval_forward_deterministic():
    net = small_net(seed=8, mwr_factor=4)
    sar, mwr = scene_arrays(np.random.default_rng(9), net.config)
    a = forward(net, sar, mwr, mode="eval")
    b = forward(net, sar, mwr, mode="eval")
    npt.assert_array_equal(a.prob, b.prob)
    npt.assert_array_equal(a.mixing_inputs, b.mixing_inputs)


def test_train_forward_deterministic_given_rng():
    net = small_net(seed=12, mwr_factor=4)
    sar, mwr = scene_arrays(np.random.default_rng(13), net.config)
    a = forward(net, sar, mwr, mode="train", rng=SeededRng(3))
    b = forward(net, sar, mwr, mode="train", rng=SeededRng(3))
    c = forward(net, sar, mwr, mode="train", rng=SeededRng(4))
    npt.assert_array_equal(a.prob, b.prob)
    assert not np.array_equal(a.prob, c.prob)


def count_stream_draws(monkeypatch):
    """Count every generator a SeededRng builds from here on."""
    calls = []
    original = SeededRng.generator

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SeededRng, "generator", counted)
    return calls


def test_repeated_train_forward_replays_its_dropout_masks(monkeypatch):
    # 8x8 finite-difference probes replay one rng: the second forward draws
    # nothing, while its outputs stay those of a fresh draw.  A large 8x8
    # mask (28 x 8 x 8) is still small enough to be memoized.
    calls = count_stream_draws(monkeypatch)
    for variant in ("small", "large"):
        net = build(ModelConfig.for_variant(variant, mwr_factor=4), SeededRng(16))
        sar, mwr = scene_arrays(np.random.default_rng(17), net.config, height=8, width=8)
        ops._keep_mask.cache_clear()
        calls.clear()
        a = forward(net, sar, mwr, mode="train", rng=SeededRng(2718))
        assert len(calls) == 12
        b = forward(net, sar, mwr, mode="train", rng=SeededRng(2718))
        assert len(calls) == 12
        npt.assert_array_equal(a.mixing_inputs, b.mixing_inputs)


def test_training_steps_draw_fresh_masks(monkeypatch):
    # Consecutive training steps use different streams, so the memo never
    # serves them: each forward draws all 12 masks.
    net = small_net(seed=16, mwr_factor=4)
    sar, mwr = scene_arrays(np.random.default_rng(17), net.config, height=8, width=8)
    ops._keep_mask.cache_clear()
    calls = count_stream_draws(monkeypatch)
    forward(net, sar, mwr, mode="train", rng=SeededRng(2718).derive(5, 0))
    assert len(calls) == 12
    forward(net, sar, mwr, mode="train", rng=SeededRng(2718).derive(5, 1))
    assert len(calls) == 24


def test_relu_mixing_activation_keeps_branches_nonnegative():
    net = small_net(seed=14, mwr_factor=4, mixing_activation="relu")
    sar, mwr = scene_arrays(np.random.default_rng(15), net.config)
    for mode, rng in (("eval", None), ("train", SeededRng(0))):
        fp = forward(net, sar, mwr, mode=mode, rng=rng)
        assert fp.mixing_inputs[14:70].min() >= 0.0


def test_single_pixel_logistic_oracle():
    cfg = ModelConfig.custom(1, 1, dilation_rates=(2,), mwr_channels=1,
                             mwr_factor=1, dropout_rate=0.0)
    net = build(cfg, SeededRng(0))

    net.stem[0].kernels[:] = 0.0
    net.stem[0].kernels[0, 0, 1, 1] = 0.5
    net.stem[0].kernels[0, 1, 1, 1] = -0.25
    net.stem[0].bias[:] = 0.1
    net.stem[1].kernels[:] = 0.0
    net.stem[1].kernels[0, 0, 1, 1] = 2.0
    net.stem[1].bias[:] = -0.05

    conv_w = [1.2, -0.8, 0.9, 1.1, -1.3, 0.7]
    conv_b = [0.05, -0.02, 0.1, 0.0, 0.03, -0.07]
    branch = net.branches[0]
    for j, conv in enumerate(branch.convs):
        conv.kernels[:] = 0.0
        conv.kernels[0, 0, 1, 1] = conv_w[j]
        conv.bias[:] = conv_b[j]
    gammas, betas = [1.1, 0.9, 1.05], [0.02, -0.01, 0.0]
    means, variances = [0.3, -0.2, 0.1], [1.5, 0.8, 1.2]
    for j, norm in enumerate(branch.norms):
        norm.gamma[:] = gammas[j]
        norm.beta[:] = betas[j]
        norm.running_mean[:] = means[j]
        norm.running_var[:] = variances[j]
    net.mixing_coefficients[:] = [0.6, -1.1, 0.8]
    net.mixing_bias = np.array(0.25)

    sar = np.array([[[0.7]], [[-0.4]]])
    mwr = np.array([[[0.9]]])
    prob = forward(net, sar, mwr, mode="eval").prob[0, 0, 0]

    # Scalar re-derivation: on a 1x1 grid only kernel centers ever land
    # in bounds and the d=2 smoothing window collapses to the pixel itself.
    x = 0.5 * 0.7 + (-0.25) * (-0.4) + 0.1
    x = 2.0 * x - 0.05
    scale0 = x
    t = x
    for j in range(3):
        t = conv_w[2 * j] * t + conv_b[2 * j]
        t = conv_w[2 * j + 1] * t + conv_b[2 * j + 1]
        t = max(t, 0.0)
        t = (t - means[j]) / math.sqrt(variances[j] + 1e-5) * gammas[j] + betas[j]
    logit = 0.25 + 0.6 * scale0 + (-1.1) * t + 0.8 * 0.9
    want = 1.0 / (1.0 + math.exp(-logit))
    npt.assert_allclose(prob, want, rtol=1e-12)


def test_forward_input_validation():
    net = small_net(seed=16, mwr_factor=4)
    sar, mwr = scene_arrays(np.random.default_rng(17), net.config)
    with pytest.raises(DimensionError):
        forward(net, sar[:1], mwr)
    with pytest.raises(DimensionError):
        forward(net, sar, mwr[:, :2, :])
    with pytest.raises(DimensionError):
        forward(net, sar, mwr[:7])
    with pytest.raises(UsageError):
        forward(net, sar, mwr, mode="predict")
    with pytest.raises(UsageError):
        forward(net, sar, mwr, mode="train")  # dropout needs an rng


@pytest.mark.parametrize("height, width", [(0, 0), (0, 8), (8, 0)])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_refuses_an_empty_grid(height, width, mode):
    net = small_net(seed=16, mwr_factor=2)
    sar, mwr = np.zeros((2, height, width)), np.zeros((14, height // 2, width // 2))
    with pytest.raises(DimensionError):
        forward(net, sar, mwr, mode=mode, rng=SeededRng(3))


# ---------------------------------------------------------------------------
# backward


def toy_setup(seed=22):
    # seed 21 parks a pre-relu value 2e-5 from zero, inside the reach of the
    # 1e-5 probe step; 22 keeps every activation clear of the kink
    cfg = ModelConfig.custom(3, 2, dilation_rates=(2, 3), mwr_channels=2,
                             mwr_factor=2, dropout_rate=0.1)
    net = build(cfg, SeededRng(77))
    rng = np.random.default_rng(seed)
    sar = rng.normal(size=(2, 6, 6))
    mwr = rng.normal(size=(2, 3, 3))
    label = (rng.random((1, 6, 6)) > 0.5).astype(np.float64)
    return net, sar, mwr, label, SeededRng(5)


def test_backward_zero_upstream_gradient():
    net, sar, mwr, label, rng = toy_setup()
    fp = forward(net, sar, mwr, mode="train", rng=rng, keep_cache=True)
    grads = backward(net, fp.cache, np.zeros_like(fp.prob))
    assert set(grads) == {name for name, _ in named_parameters(net)}
    for name, g in grads.items():
        npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)


def test_backward_mixing_bias_is_grad_logit_sum():
    net, sar, mwr, label, rng = toy_setup()
    fp = forward(net, sar, mwr, mode="train", rng=rng, keep_cache=True)
    grads = backward(net, fp.cache, np.ones_like(fp.prob))
    assert grads["mixing.bias"] == fp.prob.size


def test_backward_matches_finite_differences_everywhere():
    net, sar, mwr, label, rng = toy_setup()
    fp = forward(net, sar, mwr, mode="train", rng=rng, keep_cache=True)
    _, grad_logit = bce_loss(fp.prob, label)
    analytic = backward(net, fp.cache, grad_logit)
    numeric = fd_gradients(net, sar, mwr, label, rng)
    for name, fd in numeric.items():
        gap = grad_gap(analytic[name], fd)
        assert gap <= 0.0, f"{name}: worst tolerance excess {gap:.3e}"


def test_cached_probe_agrees_with_naive_probe_bitwise():
    # The fast probe replays from cached intermediates; determinism makes it
    # bit-identical to the two-full-forward route.  Sample one parameter of
    # every kind to prove the replay is faithful.
    net, sar, mwr, label, rng = toy_setup()
    probe = CachedLossProbe(net, sar, mwr, label, rng)
    names = [
        "stem.0.kernels", "stem.1.bias",
        "branch.2.conv0.kernels", "branch.2.conv3.bias", "branch.2.conv5.kernels",
        "branch.2.conv2.bias", "branch.3.conv4.kernels",
        "branch.3.conv1.kernels", "branch.3.norm0.gamma", "branch.3.norm2.beta",
        "mixing.coefficients", "mixing.bias",
    ]
    for name in names:
        for index in (0, dict(named_parameters(net))[name].size - 1):
            fast = probe.fd(name, index)
            slow = fd_slow(net, sar, mwr, label, rng, name, index)
            assert fast == slow, name


def test_backward_rejects_bad_caches():
    net, sar, mwr, label, rng = toy_setup()
    with pytest.raises(UsageError):
        backward(net, None, np.zeros((1, 6, 6)))
    fp_eval = forward(net, sar, mwr, mode="eval", keep_cache=True)
    with pytest.raises(UsageError):
        backward(net, fp_eval.cache, np.zeros_like(fp_eval.prob))
    fp = forward(net, sar, mwr, mode="train", rng=rng, keep_cache=True)
    with pytest.raises(DimensionError):
        backward(net, fp.cache, np.zeros((1, 3, 3)))
    grads = backward(net, fp.cache, np.zeros_like(fp.prob))
    with pytest.raises(UsageError, match="consumed"):
        backward(net, fp.cache, np.zeros_like(fp.prob))
    fp = forward(net, sar, mwr, mode="train", rng=rng, keep_cache=True)
    sgd_step(net, grads, 0.1)  # bumps the version: cache is now stale
    with pytest.raises(UsageError, match="stale"):
        backward(net, fp.cache, np.zeros_like(fp.prob))
    other = build(net.config, SeededRng(78))
    with pytest.raises(UsageError):
        backward(other, forward(net, sar, mwr, mode="train", rng=rng,
                                keep_cache=True).cache, np.zeros((1, 6, 6)))


# ---------------------------------------------------------------------------
# Branch concurrency


def serial_branches(monkeypatch):
    monkeypatch.setattr(network_mod, "_POOL_MIN_PIXELS", 10**9)


BRANCH_RECORDS = ("conv_inputs", "relu_masks", "drop_masks")


def run_step(config, monkeypatch, serial):
    """Train forward with cache, backward and an eval forward on one 64x64 scene.

    ``backward`` consumes the cache, so the branch records are copied out
    before it runs.
    """
    with monkeypatch.context() as patch:
        if serial:
            serial_branches(patch)
        net = build(config, SeededRng(31))
        sar, mwr = scene_arrays(np.random.default_rng(32), config, height=64, width=64)
        label = (np.random.default_rng(33).random((1, 64, 64)) > 0.5).astype(np.float64)
        train_pass = forward(net, sar, mwr, mode="train", rng=SeededRng(34), keep_cache=True)
        records = [{name: list(getattr(bc, name)) for name in BRANCH_RECORDS}
                   for bc in train_pass.cache.branches]
        _, grad_logit = bce_loss(train_pass.prob, label)
        grads = backward(net, train_pass.cache, grad_logit)
        eval_pass = forward(net, sar, mwr, mode="eval")
    return net, train_pass, records, grads, eval_pass


def assert_steps_equal(serial_step, pooled_step):
    nets, trains, records, grads, evals = zip(serial_step, pooled_step)
    for fp in (trains, evals):
        npt.assert_array_equal(fp[0].prob, fp[1].prob)
        npt.assert_array_equal(fp[0].mixing_inputs, fp[1].mixing_inputs)
    assert len(records[0]) == len(records[1]) == len(nets[0].branches)
    for serial, pooled in zip(*records):
        for name in BRANCH_RECORDS:
            assert len(serial[name]) == len(pooled[name]) > 0, name
            for a, b in zip(serial[name], pooled[name]):
                npt.assert_array_equal(a, b, err_msg=name)
    assert list(grads[0]) == list(grads[1])
    for name in grads[0]:
        npt.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)
    for (name, a), (_, b) in zip(named_state(nets[0]), named_state(nets[1])):
        npt.assert_array_equal(a, b, err_msg=name)


def test_pool_tasks_keep_the_callers_errstate():
    # A pool thread's own errstate is numpy's default; each task runs in a
    # copy of the caller's context instead.
    with np.errstate(over="ignore", invalid="raise"):
        got = network_mod._each_branch(lambda b: (b, np.geterr()["over"], np.geterr()["invalid"]),
                                        [(0,), (1,), (2,)], 64 * 64)
    assert got == [(0, "ignore", "raise"), (1, "ignore", "raise"), (2, "ignore", "raise")]


@pytest.mark.parametrize("config", [
    ModelConfig.for_variant("small", mwr_factor=8),
    ModelConfig.for_variant("large", mwr_factor=8),
    ModelConfig.custom(3, 4, dilation_rates=(4,), mwr_channels=2, mwr_factor=8),
])
def test_pooled_and_serial_branches_agree_bitwise(config, monkeypatch):
    assert_steps_equal(run_step(config, monkeypatch, serial=True),
                       run_step(config, monkeypatch, serial=False))


def test_branches_agree_bitwise_with_a_worker_each_and_rapid_switching(monkeypatch):
    # Four workers on any machine run every branch at once, and a 1 us switch
    # interval hands the interpreter lock between them as often as it can.
    config = ModelConfig.for_variant("small", mwr_factor=8)
    serial_step = run_step(config, monkeypatch, serial=True)
    monkeypatch.setattr(network_mod, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(network_mod, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled_step = run_step(config, monkeypatch, serial=False)
    finally:
        sys.setswitchinterval(interval)
        if network_mod._pool is not None:
            network_mod._pool.shutdown()
    assert_steps_equal(serial_step, pooled_step)


def record_conv_threads(monkeypatch):
    """Thread ids of every conv2d and conv2d_backward call from here on."""
    threads = []
    for name in ("conv2d", "conv2d_backward"):
        original = getattr(ops, name)

        def recorded(*args, _original=original, **kwargs):
            threads.append(threading.get_ident())
            return _original(*args, **kwargs)

        monkeypatch.setattr(ops, name, recorded)
    return threads


def test_small_grids_run_branches_on_the_calling_thread(monkeypatch):
    net = small_net(seed=41, mwr_factor=4)
    sar, mwr = scene_arrays(np.random.default_rng(40), net.config, height=8, width=8)
    threads = record_conv_threads(monkeypatch)
    fp = forward(net, sar, mwr, mode="train", rng=SeededRng(2), keep_cache=True)
    backward(net, fp.cache, np.ones_like(fp.prob))
    assert len(threads) == 2 * 26
    assert set(threads) == {threading.get_ident()}


def numpy_uses_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not numpy_uses_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_pool_workers_hold_numpy_blas_to_one_thread(monkeypatch):
    # An OpenBLAS that renamed or dropped its thread limit would quietly send
    # every grid down the serial path; this fails instead.
    limit = network_mod._blas_thread_limit()
    assert limit is not None
    cpus = network_mod._usable_cpus()
    monkeypatch.setattr(network_mod, "_usable_cpus", lambda: max(cpus, 2))
    pool = network_mod._branch_pool(4, 64 * 64)
    assert pool is not None
    # The limit returns the thread count it replaces: one, set by the initializer.
    assert all(count == 1 for count in pool.map(limit, [1] * 4))
    threads = record_conv_threads(monkeypatch)
    net = small_net(seed=42, mwr_factor=8)
    sar, mwr = scene_arrays(np.random.default_rng(43), net.config, height=64, width=64)
    forward(net, sar, mwr, mode="eval")
    caller = threading.get_ident()
    assert threads.count(caller) == 2  # the stem
    assert len(threads) == 26 and caller not in threads[2:]


def forward_in_child(net, sar, mwr, conn):
    conn.send(forward(net, sar, mwr, mode="eval").prob)
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_rebuilds_the_branch_pool():
    net = small_net(seed=44, mwr_factor=8)
    sar, mwr = scene_arrays(np.random.default_rng(45), net.config, height=64, width=64)
    expected = forward(net, sar, mwr, mode="eval").prob  # the parent's pool now exists
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=forward_in_child, args=(net, sar, mwr, send))
    child.start()
    try:
        assert receive.poll(60), "the child's forward never returned"
        npt.assert_array_equal(receive.recv(), expected)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


@pytest.mark.parametrize("pass_name", ["forward", "backward"])
@pytest.mark.parametrize("serial", [False, True])
def test_branch_errors_reach_the_caller_unchanged(pass_name, serial, monkeypatch):
    if serial:
        serial_branches(monkeypatch)
    net = small_net(seed=46, mwr_factor=8)
    sar, mwr = scene_arrays(np.random.default_rng(47), net.config, height=64, width=64)
    fp = forward(net, sar, mwr, mode="train", rng=SeededRng(1), keep_cache=True)
    name = "batch_norm" if pass_name == "forward" else "batch_norm_backward"
    original = getattr(ops, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise DegenerateStatisticsError("planted in a branch")
        return original(*args, **kwargs)

    monkeypatch.setattr(ops, name, failing)
    with pytest.raises(DegenerateStatisticsError, match="planted in a branch"):
        if pass_name == "forward":
            forward(net, sar, mwr, mode="train", rng=SeededRng(1), keep_cache=True)
        else:
            backward(net, fp.cache, np.ones_like(fp.prob))
    if pass_name == "backward":
        # The failed backward took the branch records; the cache is spent.
        with pytest.raises(UsageError, match="consumed"):
            backward(net, fp.cache, np.ones_like(fp.prob))


@pytest.mark.parametrize("serial", [False, True])
def test_backward_frees_every_branch_activation(serial, monkeypatch):
    if serial:
        serial_branches(monkeypatch)
    net = small_net(seed=48, mwr_factor=8)
    sar, mwr = scene_arrays(np.random.default_rng(49), net.config, height=64, width=64)
    fp = forward(net, sar, mwr, mode="train", rng=SeededRng(3), keep_cache=True)
    kept = [record for bc in fp.cache.branches for record in
            (*bc.conv_inputs, *bc.relu_masks, *(xhat for xhat, _ in bc.norm_caches),
             *bc.drop_masks)]
    # Per branch: conv 0's input, then per block conv 2j+1's input, a relu
    # mask, a normalized activation and a dropout mask.
    assert len(kept) == len(net.branches) * (1 + 3 * (1 + 1 + 1 + 1))
    refs = [weakref.ref(record) for record in kept]
    del kept
    backward(net, fp.cache, np.ones_like(fp.prob))
    assert fp.cache.branches is None
    assert [ref for ref in refs if ref() is not None] == []
    assert fp.cache.stem_inputs and fp.cache.mixing_inputs is fp.mixing_inputs


def test_uncached_forwards_keep_no_activation(monkeypatch):
    # An uncached branch keeps nothing past the op that reads it, so the
    # serial eval forward of a large 64x64 net peaks at about 2x its mixing
    # inputs (4.6 MB); keeping each branch's six conv inputs until the
    # branch returned peaked at about 3.1x.
    serial_branches(monkeypatch)
    net = build(ModelConfig.for_variant("large", mwr_factor=8), SeededRng(31))
    sar, mwr = scene_arrays(np.random.default_rng(32), net.config, height=64, width=64)
    mixing_bytes = net.config.mixing_width * 64 * 64 * 8
    tracemalloc.start()
    try:
        forward(net, sar, mwr, mode="eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * mixing_bytes, peak / mixing_bytes


# ---------------------------------------------------------------------------
# What a train cache keeps


def record_conv_inputs(monkeypatch):
    """Every ``conv2d`` input and ``conv2d_backward`` ``x`` from here on, by layer.

    Each op maps a layer's parameter name to the (dtype, shape, bytes) of
    each input it was called with, taken at the call.
    """
    inputs = {"conv2d": {}, "conv2d_backward": {}}

    def record(op, position):
        original = getattr(ops, op)

        def recorded(*args, **kwargs):
            x, kernels = args[position], args[position + 1]
            inputs[op].setdefault(id(kernels), []).append((x.dtype, x.shape, x.tobytes()))
            return original(*args, **kwargs)

        monkeypatch.setattr(ops, op, recorded)

    record("conv2d", 0)
    record("conv2d_backward", 1)
    return inputs


@pytest.mark.parametrize("serial", [False, True])
@pytest.mark.parametrize("config", [
    ModelConfig.for_variant("small", mwr_factor=8),
    ModelConfig.for_variant("large", mwr_factor=8),
    ModelConfig.for_variant("small", mwr_factor=8, dropout_rate=0.0),
    ModelConfig.for_variant("small", mwr_factor=8, mixing_activation="relu"),
])
def test_backward_reads_the_bytes_each_conv_read_in_forward(config, serial, monkeypatch):
    # Conv 2j's input for j >= 1 is rebuilt, not kept; every other one is kept.
    # Each norm gets its own gamma and beta, so a rebuild from the wrong
    # block's cannot match.
    if serial:
        serial_branches(monkeypatch)
    net = build(config, SeededRng(50))
    rng = np.random.default_rng(51)
    for branch in net.branches:
        for norm in branch.norms:
            norm.gamma = rng.uniform(0.5, 1.5, norm.channels)
            norm.beta = rng.normal(0.0, 0.5, norm.channels)
    sar, mwr = scene_arrays(rng, config, height=32, width=32)
    label = (np.random.default_rng(52).random((1, 32, 32)) > 0.5).astype(np.float64)
    inputs = record_conv_inputs(monkeypatch)
    fp = forward(net, sar, mwr, mode="train", rng=SeededRng(53), keep_cache=True)
    backward(net, fp.cache, bce_loss(fp.prob, label)[1])
    layers = {id(kernels): name for name, kernels in named_parameters(net)
              if name.endswith(".kernels")}
    assert len(layers) == 2 + 6 * len(net.branches)
    for op in inputs:
        assert set(inputs[op]) == set(layers), op
    for key, name in layers.items():
        assert len(inputs["conv2d"][key]) == 1, name
        assert inputs["conv2d_backward"][key] == inputs["conv2d"][key], name


@pytest.mark.parametrize("rate", [0.1, 0.0])
def test_train_cache_keeps_boolean_masks_and_no_rebuilt_conv_input(rate, monkeypatch):
    config = ModelConfig.for_variant("large", mwr_factor=8, dropout_rate=rate)
    net = build(config, SeededRng(54))
    sar, mwr = scene_arrays(np.random.default_rng(55), config, height=32, width=32)
    conv_inputs = {}
    conv2d = ops.conv2d

    def recorded(x, kernels, *args, **kwargs):
        conv_inputs[id(kernels)] = x
        return conv2d(x, kernels, *args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", recorded)
    fp = forward(net, sar, mwr, mode="train", rng=SeededRng(56), keep_cache=True)
    block = (config.branch_width, 32, 32)
    for branch, bc in zip(net.branches, fp.cache.branches):
        read = [conv_inputs[id(conv.kernels)] for conv in branch.convs]
        assert len(bc.conv_inputs) == 4
        assert all(kept is x for kept, x in zip(bc.conv_inputs, read[:1] + read[1::2]))
        records = [*bc.conv_inputs, *bc.relu_masks, *bc.drop_masks,
                   *(array for norm_cache in bc.norm_caches for array in norm_cache)]
        for x in read[2::2]:
            assert not any(record is not None and np.shares_memory(record, x)
                           for record in records)
        if rate:
            assert all(mask.dtype == np.bool_ and mask.shape == block
                       for mask in bc.drop_masks)
        else:
            assert bc.drop_masks == [None] * 3


def test_large_train_cache_stays_small():
    # A large 64x64 train forward keeps about 31.7 MB: boolean dropout masks,
    # and conv 2j inputs (j >= 1) rebuilt by backward.  Float64 keep-scales
    # and every conv input kept 48.7 MB.
    net = build(ModelConfig.for_variant("large", mwr_factor=8), SeededRng(57))
    sar, mwr = scene_arrays(np.random.default_rng(58), net.config, height=64, width=64)
    tracemalloc.start()
    try:
        fp = forward(net, sar, mwr, mode="train", rng=SeededRng(59), keep_cache=True)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fp.cache.branches is not None
    assert live < 36e6, live / 1e6
