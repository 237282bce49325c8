"""Loss arithmetic, the SGD step, the epoch loop, and mixing statistics."""
import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from icefusion import network, ops, training
from icefusion.errors import ConfigurationError, DataError, DimensionError, UsageError
from icefusion.importance import analyze
from icefusion.network import (
    ModelConfig,
    backward,
    build,
    forward,
    named_parameters,
    named_state,
)
from icefusion.rng import SeededRng
from icefusion.scenes import Scene, SceneConfig, generate
from icefusion.storage import load_checkpoint, save_checkpoint
from icefusion.training import (
    NATIVE_GRID,
    UPSAMPLED_GRID,
    _STREAM_STEP,
    TrainConfig,
    bce_loss,
    collect_mixing_stats,
    sgd_step,
    train,
)

from helpers import fd_slow  # noqa: F401  (shared import path check)


# ---------------------------------------------------------------------------
# bce_loss


def test_bce_half_probability_is_ln2():
    prob = np.full((1, 3, 5), 0.5)
    label = (np.arange(15).reshape(1, 3, 5) % 2).astype(np.float64)
    loss, _ = bce_loss(prob, label)
    assert loss == pytest.approx(math.log(2.0), rel=1e-15)


def test_bce_two_by_two_scalar_oracle():
    prob = np.array([[[0.9, 0.1], [0.8, 0.3]]])
    label = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    loss, _ = bce_loss(prob, label)
    want = -(math.log(0.9) + math.log(0.9) + math.log(0.8) + math.log(0.7)) / 4.0
    assert loss == pytest.approx(want, rel=1e-15)


def test_bce_vanishes_as_prob_approaches_label():
    label = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    prob = np.where(label == 1.0, 1.0 - 1e-12, 1e-12)
    loss, _ = bce_loss(prob, label)
    assert 0.0 < loss < 1e-10


def test_bce_logit_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    logit = rng.normal(size=(1, 4, 4))
    label = (rng.random((1, 4, 4)) > 0.5).astype(np.float64)

    def loss_of(z):
        return bce_loss(ops.sigmoid(z), label)[0]

    _, grad_logit = bce_loss(ops.sigmoid(logit), label)
    step = 1e-6
    for index in range(logit.size):
        bumped = logit.copy()
        bumped.flat[index] += step
        dipped = logit.copy()
        dipped.flat[index] -= step
        fd = (loss_of(bumped) - loss_of(dipped)) / (2.0 * step)
        assert abs(fd - grad_logit.flat[index]) < 1e-6


def test_bce_gradient_stays_finite_at_saturated_logits():
    # sigmoid clamps logit -800 to 5e-324 and +800 to 1 - 1e-16; the logit
    # gradient there is (p - y) / N, about -1/N or +1/N, never infinite.
    prob = ops.sigmoid(np.array([[[-800.0, 800.0], [-800.0, 800.0]]]))
    label = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    loss, grad_logit = bce_loss(prob, label)
    assert math.isfinite(loss)
    npt.assert_allclose(grad_logit, [[[-0.25, 0.25], [0.0, 0.0]]], atol=1e-16)


def test_bce_validation():
    good = np.full((1, 2, 2), 0.5)
    with pytest.raises(DataError):
        bce_loss(good, np.full((1, 2, 2), 0.5))
    with pytest.raises(DataError):
        bce_loss(np.full((1, 2, 2), 1.0), np.ones((1, 2, 2)))
    with pytest.raises(DataError):
        bce_loss(np.full((1, 2, 2), 0.0), np.zeros((1, 2, 2)))
    with pytest.raises(DimensionError):
        bce_loss(good, np.zeros((1, 2, 3)))


# ---------------------------------------------------------------------------
# sgd_step


def tiny_net(seed=0):
    cfg = ModelConfig.custom(1, 1, dilation_rates=(2,), mwr_channels=1,
                             mwr_factor=1, dropout_rate=0.0)
    return build(cfg, SeededRng(seed))


def zero_grads(net):
    return {name: np.zeros_like(p) for name, p in named_parameters(net)}


def test_sgd_single_parameter_case():
    net = tiny_net()
    net.mixing_bias = np.array(1.0)
    grads = zero_grads(net)
    grads["mixing.bias"] = np.array(2.0)
    sgd_step(net, grads, 0.1)
    assert float(net.mixing_bias) == pytest.approx(0.8, rel=1e-15)


def test_sgd_zero_learning_rate_changes_nothing():
    net = tiny_net(seed=5)
    before = {name: p.copy() for name, p in named_parameters(net)}
    rng = np.random.default_rng(6)
    grads = {name: rng.normal(size=p.shape) for name, p in named_parameters(net)}
    sgd_step(net, grads, 0.0)
    for name, p in named_parameters(net):
        npt.assert_array_equal(p, before[name], err_msg=name)


def test_sgd_rejects_bad_input():
    net = tiny_net()
    for rate in (-0.1, float("nan"), float("inf"), True, False, "0.1"):
        with pytest.raises(ConfigurationError):
            sgd_step(net, zero_grads(net), rate)
    extra = dict(zero_grads(net), **{"stem.9.kernels": np.zeros(3)})
    with pytest.raises(UsageError):
        sgd_step(net, extra, 0.1)
    missing = zero_grads(net)
    del missing["mixing.bias"]
    with pytest.raises(UsageError):
        sgd_step(net, missing, 0.1)
    wrong = zero_grads(net)
    wrong["mixing.coefficients"] = np.zeros(5)
    with pytest.raises(UsageError):
        sgd_step(net, wrong, 0.1)


def test_sgd_step_refuses_a_step_past_overflow():
    # Every update is formed before any is applied, so a refused step leaves
    # every parameter as it was, the first one included.
    net = tiny_net()
    before = {name: p.copy() for name, p in named_parameters(net)}
    grads = zero_grads(net)
    grads["mixing.bias"] = np.array(1e10)
    grads["stem.0.kernels"] += 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="the step would make 'mixing.bias' non-finite"):
            sgd_step(net, grads, 1e300)
    for name, p in named_parameters(net):
        npt.assert_array_equal(p, before[name], err_msg=name)
    assert net.version == 0


def test_sgd_step_decreases_convex_single_pixel_loss():
    # With every non-mixing gradient pinned to zero the step moves only the
    # final logistic layer, whose loss in (coefficients, bias) is convex.
    net = tiny_net(seed=9)
    sar = np.array([[[0.8]], [[-0.3]]])
    mwr = np.array([[[1.4]]])
    label = np.ones((1, 1, 1))
    fp = forward(net, sar, mwr, mode="eval")
    before, _ = bce_loss(fp.prob, label)
    p = float(fp.prob[0, 0, 0])
    grad_logit = p - 1.0
    grads = zero_grads(net)
    grads["mixing.coefficients"] = grad_logit * fp.mixing_inputs[:, 0, 0]
    grads["mixing.bias"] = np.array(grad_logit)
    sgd_step(net, grads, 0.1)
    after, _ = bce_loss(forward(net, sar, mwr, mode="eval").prob, label)
    assert after < before


# ---------------------------------------------------------------------------
# train


def training_scenes(n=8, hw=16, factor=4, **overrides):
    settings = dict(height=hw, width=hw, mwr_factor=factor, mwr_channels=14,
                    sar_ambiguity=0.8, mwr_noise=0.02,
                    mwr_informative_fraction=1.0, blob_scale=3.0)
    settings.update(overrides)
    return [generate(SceneConfig(seed=s, **settings)) for s in range(n)]


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.0, epochs=1)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.1, epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.1, epochs=1, batch_size=0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=rate, epochs=1)
    # Counts must be true integers: a float epoch count escaped from range()
    # as a TypeError, and a float batch never filled.
    for bad in (1.5, 2.0, True, "3", None):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.1, epochs=bad)
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=bad)
    cfg = TrainConfig(learning_rate=0.1, epochs=np.int64(2), batch_size=np.int32(3))
    assert (cfg.epochs, cfg.batch_size) == (2, 3)
    # A bool is not a rate and a string is not a switch.
    for rate in (True, np.True_, "0.1", None):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=rate, epochs=1)
    for shuffle in ("no", 0, None):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.1, epochs=1, shuffle=shuffle)
    for seed in (True, 1.5, -1, 2**64, "x", None):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.1, epochs=1, seed=seed)
    assert TrainConfig(learning_rate=0.1, epochs=1, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert not TrainConfig(learning_rate=np.float32(0.1), epochs=1, shuffle=np.False_).shuffle


def test_train_zero_epochs_is_identity():
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(1))
    before = {name: p.copy() for name, p in named_parameters(net)}
    _, history = train(net, training_scenes(n=2), TrainConfig(learning_rate=0.05, epochs=0))
    assert history == []
    for name, p in named_parameters(net):
        npt.assert_array_equal(p, before[name], err_msg=name)


def test_train_rejects_bad_datasets():
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(1))
    cfg = TrainConfig(learning_rate=0.05, epochs=1)
    with pytest.raises(UsageError):
        train(net, [], cfg)
    scenes = training_scenes(n=2)
    ragged = [scenes[0], generate(SceneConfig(height=32, width=32, mwr_factor=4,
                                              mwr_channels=14, seed=9))]
    with pytest.raises(DimensionError):
        train(net, ragged, cfg)


def test_train_with_a_saturated_logit_stays_finite():
    # At logit -800 the clamped probability is 5e-324: a gradient taken in
    # probability space overflowed to -inf on every label-1 pixel.
    scenes = training_scenes(n=2)
    assert all(scene.label.max() == 1.0 for scene in scenes)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(1))
    net.mixing_coefficients[:] = 0.0
    net.mixing_bias[...] = -800.0
    cfg = TrainConfig(learning_rate=0.05, epochs=1, shuffle=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, history = train(net, scenes, cfg)
    assert len(history) == 1 and math.isfinite(history[0])
    assert float(net.mixing_bias) > -800.0
    for name, p in named_parameters(net):
        assert np.isfinite(p).all(), name


def test_train_stops_on_a_non_finite_gradient(monkeypatch):
    def poisoned_backward(net, cache, grad_logit):
        grads = backward(net, cache, grad_logit)
        grads["mixing.bias"] = np.array(-np.inf)
        return grads

    monkeypatch.setattr(training, "backward", poisoned_backward)
    scenes = training_scenes(n=2)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(1))
    before = {name: p.copy() for name, p in named_parameters(net)}
    cfg = TrainConfig(learning_rate=0.05, epochs=1, shuffle=False)
    with pytest.raises(DataError, match=r"non-finite gradient for 'mixing.bias' in epoch 0, "
                                        r"scene 0"):
        train(net, scenes, cfg)
    for name, p in named_parameters(net):
        npt.assert_array_equal(p, before[name], err_msg=name)


@pytest.mark.parametrize("hw", [16, 32])  # 32x32 runs the branches on the pool
@pytest.mark.parametrize("lr", [1e6, 1e308])
def test_divergent_training_stops_where_values_stop_being_finite(hw, lr):
    # Pool tasks keep the caller's errstate, so no RuntimeWarning escapes
    # them either; the run ends in one DataError naming epoch and scene.
    scenes = training_scenes(n=2, hw=hw)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r" in epoch [0-7], scene [01]$"):
            train(net, scenes, TrainConfig(learning_rate=lr, epochs=8, seed=0))
    for name, value in named_parameters(net) + named_state(net):
        assert np.isfinite(value).all(), name


def test_train_is_bit_deterministic():
    scenes = training_scenes(n=3)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=42)
    runs = []
    for _ in range(2):
        net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(7))
        net, history = train(net, scenes, cfg)
        runs.append((history, {name: p.copy() for name, p in named_parameters(net)}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        npt.assert_array_equal(runs[0][1][name], runs[1][1][name], err_msg=name)


def test_train_with_a_rate_past_the_grid_matches_any_rate_past_it(tmp_path):
    # On 16x16 a rate of 64 and one of 2**40 both cap their reach at the
    # grid: every op reads the same taps and windows, so the runs agree bit
    # for bit and neither allocates with its rate.
    def array_bytes(net):  # by position: the branch names carry the rate
        return [value.tobytes() for _, value in named_parameters(net) + named_state(net)]

    scenes = training_scenes(n=2)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=42)
    runs = []
    for rates in ((2, 4, 8, 64), (2, 4, 8, 2**40)):
        config = ModelConfig.for_variant("small", mwr_factor=4, dilation_rates=rates)
        runs.append(train(build(config, SeededRng(7)), scenes, cfg))
    (near, near_history), (far, far_history) = runs
    assert far_history == near_history
    assert array_bytes(far) == array_bytes(near)

    path = tmp_path / "far.ckpt"
    save_checkpoint(far, path)
    loaded = load_checkpoint(path)
    assert loaded.config == far.config
    assert array_bytes(loaded) == array_bytes(far)


def test_train_separable_scenes_reach_low_loss():
    # Eight strongly informative scenes; the frozen threshold has a wide
    # margin over the observed final loss (about 0.014 at these dials).
    scenes = training_scenes()
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(11))
    _, history = train(net, scenes, TrainConfig(learning_rate=0.05, epochs=50, seed=123))
    assert len(history) == 50
    assert history[-1] < 0.35


def test_train_batch_accumulation_runs():
    scenes = training_scenes(n=4)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(2))
    _, history = train(net, scenes, TrainConfig(learning_rate=0.05, epochs=1,
                                                batch_size=2, seed=3))
    assert len(history) == 1 and math.isfinite(history[0])


def test_train_leaves_no_mask_in_the_memo():
    # A 32x32 step's masks (14 x 32 x 32) are past the memo's size bound, so
    # none of them outlives the step that drew it.
    scenes = training_scenes(n=2, hw=32)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(5))
    ops._keep_mask.cache_clear()
    train(net, scenes, TrainConfig(learning_rate=0.05, epochs=1, seed=6))
    assert ops._keep_mask.cache_info().currsize == 0


def _hand_gradients(net, scene, step_rng):
    fp = forward(net, scene.sar, scene.mwr, mode="train", rng=step_rng, keep_cache=True)
    loss, grad_logit = bce_loss(fp.prob, scene.label)
    return loss, backward(net, fp.cache, grad_logit)


def test_train_batch_one_is_the_hand_loop():
    scenes = training_scenes(n=3)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=3, shuffle=False)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(2))
    _, history = train(net, scenes, cfg)

    hand = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(2))
    root = SeededRng(cfg.seed)
    hand_history = []
    for epoch in range(cfg.epochs):
        losses = []
        for pos, scene in enumerate(scenes):
            loss, grads = _hand_gradients(hand, scene, root.derive(_STREAM_STEP, epoch, pos))
            losses.append(loss)
            sgd_step(hand, grads, cfg.learning_rate)
        hand_history.append(float(np.mean(losses)))
    assert history == hand_history
    for (name, p), (_, q) in zip(named_parameters(net), named_parameters(hand)):
        npt.assert_array_equal(p, q, err_msg=name)


def test_train_batch_two_steps_on_the_mean_gradient():
    scenes = training_scenes(n=2)
    cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=2, seed=3, shuffle=False)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(2))
    _, history = train(net, scenes, cfg)

    hand = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(2))
    root = SeededRng(cfg.seed)
    loss0, g0 = _hand_gradients(hand, scenes[0], root.derive(_STREAM_STEP, 0, 0))
    loss1, g1 = _hand_gradients(hand, scenes[1], root.derive(_STREAM_STEP, 0, 1))
    sgd_step(hand, {k: (g0[k] + g1[k]) / 2 for k in g0}, cfg.learning_rate)
    assert history == [float(np.mean([loss0, loss1]))]
    for (name, p), (_, q) in zip(named_parameters(net), named_parameters(hand)):
        npt.assert_array_equal(p, q, err_msg=name)


# ---------------------------------------------------------------------------
# collect_mixing_stats


def test_constant_channels_give_exactly_zero_sigma():
    # Zeroed kernels make every conv output its bias at every pixel, so all
    # image-derived mixing inputs are constant; a constant mwr makes the
    # btemp inputs constant too.  Sigma must then be exactly zero, not tiny.
    net = build(ModelConfig.for_variant("small", mwr_factor=2), SeededRng(4))
    for conv in list(net.stem) + [c for b in net.branches for c in b.convs]:
        conv.kernels[:] = 0.0
        conv.bias[:] = 0.3
    scene = Scene(sar=np.random.default_rng(0).normal(size=(2, 8, 8)),
                  mwr=np.full((14, 4, 4), -0.25),
                  label=np.zeros((1, 8, 8)))
    stats = collect_mixing_stats(net, [scene])
    npt.assert_array_equal(stats.sigma, np.zeros(84))
    npt.assert_array_equal(stats.mean[70:], np.full(14, -0.25))


def test_stats_shapes_counts_and_provenance():
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(5))
    scenes = training_scenes(n=3)
    stats = collect_mixing_stats(net, scenes)
    assert stats.mean.shape == stats.sigma.shape == (84,)
    assert stats.sigma.min() >= 0.0
    assert stats.btemp_provenance == (NATIVE_GRID,) * 14
    assert stats.fine_pixel_count == 3 * 16 * 16
    assert stats.native_pixel_count == 3 * 4 * 4
    up = collect_mixing_stats(net, scenes, btemp_source=UPSAMPLED_GRID)
    assert up.btemp_provenance == (UPSAMPLED_GRID,) * 14
    with pytest.raises(UsageError):
        collect_mixing_stats(net, scenes, btemp_source="fine")
    with pytest.raises(UsageError):
        collect_mixing_stats(net, [])


def test_btemp_native_sigma_is_unit():
    # Scene channels are standardized per scene, so pooled native-grid
    # moments sit at zero mean, unit sigma up to accumulation roundoff.
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(6))
    stats = collect_mixing_stats(net, training_scenes(n=8))
    npt.assert_allclose(stats.sigma[70:], 1.0, atol=0.05)
    npt.assert_allclose(stats.mean[70:], 0.0, atol=1e-12)


def test_checkerboard_bilinear_sigma_shrinks():
    checker = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mwr = np.tile(checker, (1, 1, 1))
    scene = Scene(sar=np.zeros((2, 4, 4)), mwr=mwr, label=np.zeros((1, 4, 4)))
    cfg_args = dict(scale0_width=1, branch_width=1, dilation_rates=(2,),
                    mwr_channels=1, mwr_factor=2, dropout_rate=0.0)
    smooth = build(ModelConfig.custom(**cfg_args, upsample_mode="bilinear"), SeededRng(7))
    blocky = build(ModelConfig.custom(**cfg_args, upsample_mode="nearest"), SeededRng(7))

    native = collect_mixing_stats(smooth, [scene])
    assert native.sigma[-1] == 1.0
    up_smooth = collect_mixing_stats(smooth, [scene], btemp_source=UPSAMPLED_GRID)
    assert up_smooth.sigma[-1] < native.sigma[-1]
    up_blocky = collect_mixing_stats(blocky, [scene], btemp_source=UPSAMPLED_GRID)
    assert up_blocky.sigma[-1] == native.sigma[-1]


def test_stats_recollection_is_exact():
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(8))
    scenes = training_scenes(n=2)
    first = collect_mixing_stats(net, scenes)
    second = collect_mixing_stats(net, scenes)
    npt.assert_array_equal(first.mean, second.mean)
    npt.assert_array_equal(first.sigma, second.sigma)


@pytest.mark.parametrize("offset, spread", [(1e8, 1.0), (1e4, 1e-3)])
def test_large_offset_sigma_matches_two_pass(offset, spread):
    # A unit spread on a 1e8 offset keeps about 8 digits; pooling must not lose them.
    rng = np.random.default_rng(12)
    net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(9))
    scenes = [Scene(sar=rng.normal(size=(2, 16, 16)),
                    mwr=offset + spread * rng.normal(size=(14, 4, 4)),
                    label=np.zeros((1, 16, 16))) for _ in range(3)]
    mwr_before = [s.mwr.copy() for s in scenes]
    stats = collect_mixing_stats(net, scenes)
    pooled = np.concatenate([s.mwr.reshape(14, -1) for s in scenes], axis=1)
    assert np.abs(stats.sigma[70:] - pooled.std(axis=1)).max() <= 1e-9 * spread
    npt.assert_allclose(stats.mean[70:], pooled.mean(axis=1), rtol=1e-15)
    assert not set(analyze(net, stats).dead_nodes) & set(range(70, 84))
    for before, scene in zip(mwr_before, scenes):
        npt.assert_array_equal(scene.mwr, before)


@pytest.mark.parametrize("btemp_source", [NATIVE_GRID, UPSAMPLED_GRID])
def test_stats_pass_holds_one_scene_at_a_time(monkeypatch, btemp_source):
    # Each scene's mixing inputs are freed once merged, so the serial pass
    # peaks where one eval forward does (1.00x); holding the previous
    # scene's through the next forward read 1.52x.
    monkeypatch.setattr(network, "_POOL_MIN_PIXELS", 10**9)
    net = build(ModelConfig.for_variant("small", mwr_factor=8), SeededRng(13))
    scenes = training_scenes(n=3, hw=64, factor=8)
    forward(net, scenes[0].sar, scenes[0].mwr, mode="eval")  # plans and caches warmed
    tracemalloc.start()
    try:
        forward(net, scenes[0].sar, scenes[0].mwr, mode="eval")
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        collect_mixing_stats(net, scenes, btemp_source=btemp_source)
        stats_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats_peak <= 1.1 * forward_peak, stats_peak / forward_peak
