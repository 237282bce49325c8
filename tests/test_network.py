"""Network assembly, forward semantics, and the hand-derived backward."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from icefusion import ops
from icefusion.errors import ConfigurationError, DimensionError, UsageError
from icefusion.network import (
    GROUP_BTEMP,
    GROUP_SCALE0,
    SAR_CHANNELS,
    ModelConfig,
    _value_count,
    backward,
    build,
    forward,
    named_parameters,
    named_state,
    scale_group_name,
)
from icefusion.rng import SeededRng
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
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("small", mixing_activation="tanh")
    with pytest.raises(ConfigurationError):
        ModelConfig.for_variant("small", mwr_channels=10)  # small fixes 14
    # hand-built width maps must match the variant contract
    widths = {GROUP_SCALE0: 14, "scale-2": 14, "scale-4": 14,
              "scale-8": 14, "scale-16": 14, GROUP_BTEMP: 14}
    ModelConfig(variant="small", group_widths=widths)
    bad = dict(widths, **{"scale-4": 15})
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="small", group_widths=bad)
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="large", group_widths=widths)
    wrong_order = {GROUP_BTEMP: 14, **{k: v for k, v in widths.items() if k != GROUP_BTEMP}}
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="small", group_widths=wrong_order)
    # Counts must be true integers: bools and floats are refused, not coerced.
    for bad in (True, 8.5, 8.0, "8", None):
        with pytest.raises(ConfigurationError):
            ModelConfig.for_variant("small", mwr_factor=bad)
        with pytest.raises(ConfigurationError):
            ModelConfig.custom(2, 3, dilation_rates=(2, 4), mwr_channels=bad)
        with pytest.raises(ConfigurationError):
            ModelConfig.custom(bad, 3)
        with pytest.raises(ConfigurationError):
            ModelConfig.custom(2, 3, dilation_rates=(2, bad))
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="custom", group_widths=[2, 2, 2, 2, 2, 14])
    cfg = ModelConfig.custom(np.int64(2), 3, dilation_rates=(np.int32(2), 4), mwr_channels=2)
    assert cfg.dilation_rates == (2, 4) and type(cfg.dilation_rates[0]) is int


@pytest.mark.parametrize("config", [
    ModelConfig.for_variant("small"),
    ModelConfig.for_variant("large", mwr_factor=4),
    ModelConfig.custom(3, 2, dilation_rates=(2, 3), mwr_channels=2),
])
def test_value_count_matches_the_built_network(config):
    net = build(config, SeededRng(0))
    stored = named_parameters(net) + named_state(net)
    assert _value_count(config) == sum(value.size for _, value in stored)


def test_config_dict_round_trip():
    cfg = ModelConfig.for_variant("large", mixing_activation="relu", mwr_factor=8)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


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
    # nothing, while its outputs stay those of a fresh draw.
    net = small_net(seed=16, mwr_factor=4)
    sar, mwr = scene_arrays(np.random.default_rng(17), net.config, height=8, width=8)
    forward(net, sar, mwr, mode="eval")  # empties the keep-scale memo
    calls = count_stream_draws(monkeypatch)
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
    forward(net, sar, mwr, mode="eval")
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
    p = fp.prob[0]
    npt.assert_allclose(grads["mixing.bias"], (p * (1.0 - p)).sum(), rtol=1e-12)


def test_backward_matches_finite_differences_everywhere():
    net, sar, mwr, label, rng = toy_setup()
    fp = forward(net, sar, mwr, mode="train", rng=rng, keep_cache=True)
    _, grad_prob = bce_loss(fp.prob, label)
    analytic = backward(net, fp.cache, grad_prob)
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
    sgd_step(net, grads, 0.1)  # bumps the version: cache is now stale
    with pytest.raises(UsageError):
        backward(net, fp.cache, np.zeros_like(fp.prob))
    other = build(net.config, SeededRng(78))
    with pytest.raises(UsageError):
        backward(other, forward(net, sar, mwr, mode="train", rng=rng,
                                keep_cache=True).cache, np.zeros((1, 6, 6)))
