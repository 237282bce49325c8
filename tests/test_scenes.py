"""Synthetic scene generator: determinism, balance, and the information dials."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from icefusion.errors import ConfigurationError, DimensionError
from icefusion.rng import SeededRng
from icefusion.scenes import _STREAM_LABEL, SceneConfig, _blur_matrix, generate, ice_fraction_coarse

from helpers import apply_threshold, correlation, fit_threshold


def default_scene(seed=7, **overrides):
    return generate(SceneConfig(seed=seed, **overrides))


# ---------------------------------------------------------------------------
# ice_fraction_coarse


def test_fraction_all_ice_is_one():
    label = np.ones((1, 8, 8))
    npt.assert_array_equal(ice_fraction_coarse(label, 4), np.ones((1, 2, 2)))


def test_fraction_factor_one_is_identity():
    label = (np.arange(16).reshape(1, 4, 4) % 2).astype(np.float64)
    npt.assert_array_equal(ice_fraction_coarse(label, 1), label)


def test_fraction_three_quarters_cell():
    label = np.zeros((1, 4, 4))
    label[0, 0, 0] = label[0, 0, 1] = label[0, 1, 0] = 1.0
    coarse = ice_fraction_coarse(label, 2)
    assert coarse[0, 0, 0] == 0.75
    npt.assert_array_equal(coarse[0].ravel()[1:], np.zeros(3))


def test_fraction_matches_block_mean_oracle():
    scene = default_scene(seed=7)
    coarse = ice_fraction_coarse(scene.label, 16)
    for cy in range(4):
        for cx in range(4):
            block = scene.label[0, 16 * cy:16 * cy + 16, 16 * cx:16 * cx + 16]
            assert coarse[0, cy, cx] == block.sum() / 256.0


def test_fraction_validation():
    with pytest.raises(DimensionError):
        ice_fraction_coarse(np.zeros((4, 4)), 2)
    with pytest.raises(ConfigurationError):
        ice_fraction_coarse(np.zeros((1, 4, 4)), 0)
    with pytest.raises(ConfigurationError):
        ice_fraction_coarse(np.zeros((1, 4, 4)), 3)
    for bad in (2.0, True):
        with pytest.raises(ConfigurationError):
            ice_fraction_coarse(np.zeros((1, 4, 4)), bad)


# ---------------------------------------------------------------------------
# the label's Gaussian blur, against scipy as the oracle


@pytest.mark.parametrize("shape", [(1, 1), (1, 130), (2, 2), (3, 1), (8, 8), (13, 37),
                                   (16, 16), (64, 64), (127, 5), (128, 128), (130, 130)])
@pytest.mark.parametrize("sigma", [1e-200, 0.1, 0.5, 3.0, 12.0, 40.0, 1e3])
def test_blur_matrices_match_scipy_gaussian_filter(shape, sigma):
    # scipy is only the oracle here: scene synthesis runs on numpy alone.
    from scipy.ndimage import gaussian_filter

    x = np.random.default_rng(shape[0] * 1000 + shape[1]).normal(size=shape)
    field = _blur_matrix(shape[0], sigma) @ x @ _blur_matrix(shape[1], sigma).T
    if int(4.0 * sigma + 0.5) == 0:
        # scipy skips a sigma <= 1e-15 and runs a one-tap kernel up to 0.125.
        assert field.tobytes() == x.tobytes()
    want = gaussian_filter(x, sigma=sigma, mode="reflect")
    assert np.abs(field - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("grid", [(64, 8), (128, 8), (32, 8), (16, 4), (8, 4)])
def test_generate_labels_match_a_scipy_blurred_reference(grid):
    # Only the sign of the blurred field is read, so the label, and with it
    # every other array of the scene, keeps scipy's bytes.
    from scipy.ndimage import gaussian_filter

    side, factor = grid
    for seed in range(200):
        cfg = SceneConfig(height=side, width=side, mwr_factor=factor, seed=seed)
        noise = SeededRng(seed).derive(_STREAM_LABEL).normal((side, side))
        want = gaussian_filter(noise, sigma=cfg.blob_scale, mode="reflect") > 0.0
        assert generate(cfg).label.tobytes() == want[None].astype(np.float64).tobytes(), seed


# ---------------------------------------------------------------------------
# generate: shapes, determinism, standardization


def test_scene_shapes_and_binary_label():
    scene = default_scene()
    assert scene.sar.shape == (2, 64, 64)
    assert scene.mwr.shape == (14, 4, 4)
    assert scene.label.shape == (1, 64, 64)
    assert set(np.unique(scene.label)) <= {0.0, 1.0}


def test_generate_is_deterministic():
    cfg = SceneConfig(seed=31)
    a, b = generate(cfg), generate(cfg)
    npt.assert_array_equal(a.sar, b.sar)
    npt.assert_array_equal(a.mwr, b.mwr)
    npt.assert_array_equal(a.label, b.label)
    other = generate(SceneConfig(seed=32))
    assert not np.array_equal(a.label, other.label) or not np.array_equal(a.sar, other.sar)


def test_channels_are_standardized():
    scene = default_scene(seed=9)
    for channel in list(scene.sar) + list(scene.mwr):
        assert abs(channel.mean()) < 1e-9
        assert abs(channel.var() - 1.0) < 1e-9


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SceneConfig(height=0)
    with pytest.raises(ConfigurationError):
        SceneConfig(height=60, mwr_factor=16)
    with pytest.raises(ConfigurationError):
        SceneConfig(mwr_factor=0)
    with pytest.raises(ConfigurationError):
        SceneConfig(mwr_channels=0)
    with pytest.raises(ConfigurationError):
        SceneConfig(sar_ambiguity=1.5)
    with pytest.raises(ConfigurationError):
        SceneConfig(mwr_noise=-0.1)
    with pytest.raises(ConfigurationError):
        SceneConfig(mwr_informative_fraction=0.0)
    # A blob scale past the documented maximum would overflow the Gaussian
    # kernel's radius or exhaust memory inside the filter.
    assert SceneConfig(blob_scale=1e4).blob_scale == 1e4
    for bad in (0.0, np.nextafter(1e4, math.inf), 1e308):
        with pytest.raises(ConfigurationError):
            SceneConfig(blob_scale=bad)
    with pytest.raises(ConfigurationError):
        SceneConfig(edge_amplitude=-1.0)
    # Far past 1e6 a noise or edge dial overflows a channel into inf and NaN.
    for name in ("mwr_noise", "edge_amplitude"):
        for bad in (np.nextafter(1e6, math.inf), 1e308):
            with pytest.raises(ConfigurationError):
                SceneConfig(**{name: bad})
    # Counts are true integers and dials true numbers: bools are refused.
    with pytest.raises(ConfigurationError):
        SceneConfig(height=True, width=True, mwr_factor=True)
    for name in ("height", "width", "mwr_factor", "mwr_channels", "seed"):
        for bad in (True, 16.0, "16", None):
            with pytest.raises(ConfigurationError):
                SceneConfig(**{name: bad})
    for name in ("sar_ambiguity", "mwr_noise", "mwr_informative_fraction", "blob_scale",
                 "edge_amplitude"):
        # NaN passed every one-sided range check and reached the scene data.
        for bad in (True, False, "0.5", None, math.nan, math.inf, -math.inf, np.float32("nan")):
            with pytest.raises(ConfigurationError):
                SceneConfig(**{name: bad})
    cfg = SceneConfig(height=np.int64(32), width=32, mwr_factor=np.int32(8), mwr_noise=0,
                      sar_ambiguity=np.float32(0.5))
    assert cfg.height == 32 and cfg.mwr_noise == 0


def test_grid_channel_count_and_seed_bounds():
    # Checked at the config, so nothing is allocated: a million-pixel side or
    # a hundred million channels once ended in numpy's allocator.
    largest = SceneConfig(height=2048, width=2048, mwr_factor=2048, mwr_channels=256,
                          seed=2**64 - 1)
    assert (largest.height, largest.mwr_channels) == (2048, 256)
    smallest = generate(SceneConfig(height=2, width=2, mwr_factor=1, mwr_channels=1))
    assert smallest.sar.shape == (2, 2, 2) and np.isfinite(smallest.sar).all()
    # A side needs two pixels for the label's gradient.
    for bad in ({"height": 10**6, "width": 10**6}, {"height": 2064}, {"width": 2064},
                {"height": 1, "mwr_factor": 1}, {"width": 1, "mwr_factor": 1},
                {"mwr_factor": 4096, "height": 4096, "width": 4096}, {"mwr_channels": 257},
                {"mwr_channels": 10**8}, {"seed": 2**64}, {"seed": -1}):
        with pytest.raises(ConfigurationError, match=r"must be an integer in \[\d+, \d+[\])]"):
            SceneConfig(**bad)


def test_dials_at_their_bound_give_finite_standardized_channels():
    for dials in ({"mwr_noise": 1e6}, {"edge_amplitude": 1e6}):
        scene = generate(SceneConfig(height=16, width=16, mwr_factor=4, **dials))
        for channels in (scene.sar, scene.mwr):
            assert np.isfinite(channels).all()
            npt.assert_allclose(channels.std(axis=(1, 2)), 1.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# generate: semantic dials


def test_huge_blob_scale_makes_informative_channels_constant():
    # With the correlation length far beyond the grid the mask is a single
    # class, the coarse fraction is flat, and standardization zeroes the
    # informative channels.
    scene = default_scene(seed=3, height=16, width=16, mwr_factor=4,
                          mwr_channels=4, mwr_informative_fraction=0.5,
                          mwr_noise=0.0, blob_scale=100.0)
    assert scene.label.min() == scene.label.max()
    npt.assert_array_equal(scene.mwr[0], np.zeros((4, 4)))
    npt.assert_array_equal(scene.mwr[1], np.zeros((4, 4)))
    assert scene.mwr[2].std() > 0.5 and scene.mwr[3].std() > 0.5


def test_label_balance_over_seeds():
    fractions = [generate(SceneConfig(seed=s)).label.mean() for s in range(100)]
    assert 0.3 <= float(np.mean(fractions)) <= 0.7


def test_informative_channel_count_and_alternating_gains():
    # round(0.5 * 14) = 7 informative channels, gain signs alternating.
    # Informative channels are checked per scene (each scene standardizes its
    # own channels, so pooling across scenes dilutes the correlation); the
    # noise channels pool all scenes to shrink the null spread.
    signal_parts = []
    noise_parts = [[] for _ in range(14)]
    for seed in range(48, 56):
        scene = default_scene(seed=seed, mwr_informative_fraction=0.5)
        fraction = ice_fraction_coarse(scene.label, 16)[0]
        signal = (2.0 * fraction - 1.0).ravel()
        signal_parts.append(signal)
        for m in range(7):
            corr = correlation(scene.mwr[m].ravel(), signal)
            assert abs(corr) > 0.9, (seed, m, corr)
            assert np.sign(corr) == (1.0 if m % 2 == 0 else -1.0)
        for m in range(7, 14):
            noise_parts[m].append(scene.mwr[m].ravel())
    pooled_signal = np.concatenate(signal_parts)
    for m in range(7, 14):
        corr = correlation(np.concatenate(noise_parts[m]), pooled_signal)
        assert abs(corr) < 0.35, (m, corr)


def test_informative_count_boundaries():
    lone = default_scene(seed=2, mwr_channels=4, mwr_informative_fraction=0.01)
    fraction = ice_fraction_coarse(lone.label, 16)[0]
    signal = (2.0 * fraction - 1.0).ravel()
    assert abs(correlation(lone.mwr[0].ravel(), signal)) > 0.9
    full = default_scene(seed=2, mwr_channels=4, mwr_informative_fraction=1.0)
    for m in range(4):
        assert abs(correlation(full.mwr[m].ravel(), signal)) > 0.9


def test_noise_free_channels_follow_fraction_exactly():
    scene = default_scene(seed=7, mwr_noise=0.0, mwr_informative_fraction=0.5)
    fraction = ice_fraction_coarse(scene.label, 16)[0]
    signal = (2.0 * fraction - 1.0).ravel()
    for m in range(7):
        assert abs(correlation(scene.mwr[m].ravel(), signal)) > 1.0 - 1e-12


def test_ambiguity_dial_separates_sources():
    # Full backscatter ambiguity: a threshold fitted on training scenes does
    # no better than chance on held-out scenes, while a single mwr channel
    # recovers the coarse class almost perfectly at noise 0.1.  The seed
    # windows are chosen so the pooled label balance sits near one half.
    def make(seeds):
        return [default_scene(seed=s, sar_ambiguity=1.0, mwr_noise=0.1,
                              mwr_informative_fraction=0.5) for s in seeds]

    train, test = make(range(48, 56)), make(range(56, 64))
    for ch in (0, 1):
        thr, above = fit_threshold(
            np.concatenate([s.sar[ch].ravel() for s in train]),
            np.concatenate([s.label.ravel() for s in train]))
        accuracy = apply_threshold(
            np.concatenate([s.sar[ch].ravel() for s in test]),
            np.concatenate([s.label.ravel() for s in test]), thr, above)
        assert accuracy <= 0.55, (ch, accuracy)

    def coarse_classes(scenes):
        return np.concatenate([
            (ice_fraction_coarse(s.label, 16)[0] >= 0.5).astype(np.float64).ravel()
            for s in scenes
        ])

    thr, above = fit_threshold(
        np.concatenate([s.mwr[0].ravel() for s in train]), coarse_classes(train))
    accuracy = apply_threshold(
        np.concatenate([s.mwr[0].ravel() for s in test]), coarse_classes(test),
        thr, above)
    assert accuracy >= 0.9, accuracy


def test_zero_ambiguity_makes_sar_informative():
    scene = default_scene(seed=49, sar_ambiguity=0.0, edge_amplitude=0.0)
    corr = correlation(scene.sar[0].ravel(), scene.label.ravel())
    assert corr > 0.6
