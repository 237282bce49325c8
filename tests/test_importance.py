"""Z-scores, rankings, group sums, dead nodes, and the variant comparison."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from icefusion.errors import DataError, DeadNodeError, ProvenanceError, UsageError
from icefusion.importance import (
    AnalysisReport,
    ZScoreEntry,
    analyze,
    compare_variants,
    detect_dead,
    top_k,
    zscore,
    zscore_corrected,
)
from icefusion.network import ModelConfig, build, forward
from icefusion.rng import SeededRng
from icefusion.scenes import Scene
from icefusion.training import (
    NATIVE_GRID,
    UPSAMPLED_GRID,
    MixingStats,
    collect_mixing_stats,
)


def unit_stats(d_total, mwr_channels, sigma=None, provenance=NATIVE_GRID):
    return MixingStats(
        mean=np.zeros(d_total),
        sigma=np.ones(d_total) if sigma is None else np.asarray(sigma, dtype=np.float64),
        btemp_provenance=(provenance,) * mwr_channels,
        fine_pixel_count=256,
        native_pixel_count=16,
    )


# ---------------------------------------------------------------------------
# zscore and zscore_corrected


def test_zscore_arithmetic():
    assert zscore(0.0, 1.0) == 0.0
    assert zscore(2.0, 0.5) == 4.0
    assert zscore(-1.5, 3.0) == -0.5


def test_zscore_rejects_degenerate_sigma():
    with pytest.raises(DeadNodeError):
        zscore(1.0, 0.0)
    with pytest.raises(DataError):
        zscore(1.0, -0.1)


def test_zscore_corrected_arithmetic():
    assert zscore_corrected(0.7, 1.3, 1) == zscore(0.7, 1.3)
    assert zscore_corrected(1.0, 1.0, 4) == 2.0
    assert zscore_corrected(0.3, 0.6, 100) == 5.0
    with pytest.raises(UsageError):
        zscore_corrected(1.0, 1.0, 0)
    with pytest.raises(DeadNodeError):
        zscore_corrected(1.0, 0.0, 9)


def test_zscore_homogeneity_and_sqrt_relation():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        c = float(rng.normal())
        sigma = float(abs(rng.normal()) + 0.1)
        a = float(abs(rng.normal()) + 0.1)
        n = int(rng.integers(1, 1000))
        base = zscore(c, sigma)
        assert zscore(a * c, sigma) == pytest.approx(a * base, rel=1e-12, abs=1e-12)
        assert zscore(c, a * sigma) == pytest.approx(base / a, rel=1e-12, abs=1e-12)
        # the corrected form is defined through zscore, so this is bit-exact
        assert zscore_corrected(c, sigma, n) == math.sqrt(n) * base


# ---------------------------------------------------------------------------
# analyze


def one_per_group_net(coefficients):
    cfg = ModelConfig.custom(1, 1, dilation_rates=(2, 4, 8, 16), mwr_channels=1,
                             mwr_factor=2, dropout_rate=0.0)
    net = build(cfg, SeededRng(0))
    net.mixing_coefficients[:] = coefficients
    return net


def test_analyze_hand_built_six_input_case():
    net = one_per_group_net([3.0, -2.0, 1.0, 0.5, -0.25, 4.0])
    report = analyze(net, unit_stats(6, 1))
    assert report.ranking == (5, 0, 1, 2, 3, 4)
    assert report.dead_nodes == ()
    assert report.group_sums == {
        "scale-0": 3.0, "scale-2": 2.0, "scale-4": 1.0,
        "scale-8": 0.5, "scale-16": 0.25, "btemp": 4.0,
    }
    assert [e.z for e in report.entries] == [3.0, -2.0, 1.0, 0.5, -0.25, 4.0]
    assert [e.group for e in report.entries] == [
        "scale-0", "scale-2", "scale-4", "scale-8", "scale-16", "btemp",
    ]


def test_analyze_unit_sigma_degeneracy():
    net = build(ModelConfig.for_variant("small"), SeededRng(1))
    rng = np.random.default_rng(2)
    net.mixing_coefficients[:] = rng.normal(size=84)
    report = analyze(net, unit_stats(84, 14))
    for entry in report.entries:
        assert entry.z == entry.coefficient
    want = tuple(sorted(range(84), key=lambda i: (-abs(net.mixing_coefficients[i]), i)))
    assert report.ranking == want


def test_analyze_corrected_path_scales_scores():
    net = one_per_group_net([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    plain = analyze(net, unit_stats(6, 1))
    corrected = analyze(net, unit_stats(6, 1), sample_count=16)
    for a, b in zip(plain.entries, corrected.entries):
        assert b.z == 4.0 * a.z
    assert corrected.ranking == plain.ranking


def test_analyze_validation():
    net = one_per_group_net([1.0] * 6)
    with pytest.raises(UsageError):
        analyze(net, unit_stats(7, 1))
    with pytest.raises(ProvenanceError):
        analyze(net, unit_stats(6, 1, provenance=UPSAMPLED_GRID))


def test_analyze_is_pure():
    net = one_per_group_net([0.3, -0.6, 0.9, -1.2, 1.5, -1.8])
    stats = unit_stats(6, 1, sigma=[1.0, 0.5, 2.0, 0.25, 4.0, 1.0])
    assert analyze(net, stats) == analyze(net, stats)


def test_ranking_invariant_under_common_sigma_scale():
    net = build(ModelConfig.for_variant("small"), SeededRng(3))
    rng = np.random.default_rng(4)
    net.mixing_coefficients[:] = rng.normal(size=84)
    sigma = np.abs(rng.normal(size=84)) + 0.05
    base = analyze(net, unit_stats(84, 14, sigma=sigma))
    for scale in (2.0, 3.7, 0.125):
        scaled = analyze(net, unit_stats(84, 14, sigma=scale * sigma))
        assert scaled.ranking == base.ranking
        order = sorted(base.group_sums, key=base.group_sums.get)
        assert sorted(scaled.group_sums, key=scaled.group_sums.get) == order


def test_group_sums_decompose_live_scores():
    net = build(ModelConfig.for_variant("small"), SeededRng(5))
    rng = np.random.default_rng(6)
    net.mixing_coefficients[:] = rng.normal(size=84)
    sigma = np.abs(rng.normal(size=84)) + 0.05
    sigma[[3, 40]] = 0.0
    report = analyze(net, unit_stats(84, 14, sigma=sigma))
    assert report.dead_nodes == (3, 40)
    for name, total in report.group_sums.items():
        members = [e.abs_z for e in report.entries if e.group == name and not e.dead]
        assert float(sum(members)) == total
    live = [e.abs_z for e in report.entries if not e.dead]
    assert sum(report.group_sums.values()) == pytest.approx(sum(live), rel=1e-12)
    assert 3 not in report.ranking and 40 not in report.ranking


# ---------------------------------------------------------------------------
# top_k and detect_dead


def test_top_k_selection():
    net = one_per_group_net([3.0, -2.0, 1.0, 0.5, -0.25, 4.0])
    report = analyze(net, unit_stats(6, 1))
    assert [e.input_index for e in top_k(report, 1)] == [5]
    assert sorted(e.input_index for e in top_k(report, 6)) == list(range(6))
    with pytest.raises(UsageError):
        top_k(report, 0)


def test_top_k_truncates_past_live_entries_with_warning():
    net = one_per_group_net([3.0, -2.0, 1.0, 0.5, -0.25, 4.0])
    sigma = np.ones(6)
    sigma[[1, 4]] = 0.0
    report = analyze(net, unit_stats(6, 1, sigma=sigma))
    assert report.dead_nodes == (1, 4)
    with pytest.warns(UserWarning):
        entries = top_k(report, 6)
    assert len(entries) == 4
    assert all(not e.dead for e in entries)


def test_detect_dead_thresholding():
    stats = unit_stats(6, 1, sigma=[1.0, 0.0, 0.5, 1e-13, 2.0, 1.0])
    assert detect_dead(stats) == [1]
    assert detect_dead(stats, tolerance=1e-12) == [1, 3]
    assert detect_dead(unit_stats(6, 1)) == []
    with pytest.raises(UsageError):
        detect_dead(stats, tolerance=-1e-9)


def test_relu_mixing_dead_channel_is_flagged_and_excluded():
    # Zero kernels with a negative bias park one branch channel at a fixed
    # value; the in-block relu and the mixing relu keep it constant, so its
    # spread is exactly zero and only scores for live inputs are produced.
    cfg = ModelConfig.custom(2, 2, dilation_rates=(2, 3), mwr_channels=2,
                             mwr_factor=2, dropout_rate=0.0,
                             mixing_activation="relu")
    net = build(cfg, SeededRng(9))
    last = net.branches[1].convs[5]
    last.kernels[1, :, :, :] = 0.0
    last.bias[1] = -1.0

    rng = np.random.default_rng(10)
    scenes = [
        Scene(sar=rng.normal(size=(2, 6, 6)), mwr=rng.normal(size=(2, 3, 3)),
              label=np.zeros((1, 6, 6)))
        for _ in range(3)
    ]
    stats = collect_mixing_stats(net, scenes)
    assert detect_dead(stats, tolerance=1e-12) == [5]

    report = analyze(net, stats)
    assert report.dead_nodes == (5,)
    assert report.entries[5].dead and report.entries[5].z is None
    assert 5 not in report.ranking
    with pytest.raises(DeadNodeError):
        zscore(float(net.mixing_coefficients[5]), float(stats.sigma[5]))


# ---------------------------------------------------------------------------
# compare_variants


def variant_report(variant, group_sums):
    """Minimal synthetic report: one leading entry carries each group's sum."""
    widths = ModelConfig.for_variant(variant).groups
    entries = []
    for group in widths:
        for i in range(group.start, group.stop):
            c = group_sums[group.name] if i == group.start else 0.0
            entries.append(ZScoreEntry(i, group.name, c, 1.0, c))
    return AnalysisReport(variant=variant, entries=tuple(entries))


BASE_SUMS = {"scale-0": 5.0, "scale-2": 4.0, "scale-4": 3.0,
             "scale-8": 2.0, "scale-16": 1.0, "btemp": 6.0}


def test_compare_identical_structure():
    small = variant_report("small", BASE_SUMS)
    large = variant_report("large", BASE_SUMS)
    cmp = compare_variants(small, large, k=6)
    assert cmp.inversions == 0
    assert cmp.btemp_rank_stable is True
    assert cmp.group_ranks_small == cmp.group_ranks_large
    assert cmp.group_ranks_small["btemp"] == 1
    assert len(cmp.shared_top_keys) == 6


def test_compare_swapped_scale_groups():
    small = variant_report("small", BASE_SUMS)
    swapped = dict(BASE_SUMS, **{"scale-2": 3.0, "scale-4": 4.0})
    large = variant_report("large", swapped)
    cmp = compare_variants(small, large, k=6)
    assert cmp.inversions == 1
    assert cmp.btemp_rank_stable is True
    assert cmp.group_ranks_small["scale-2"] == cmp.group_ranks_large["scale-4"] == 3
    assert cmp.group_ranks_small["scale-4"] == cmp.group_ranks_large["scale-2"] == 4


def test_compare_rejects_same_variant():
    small = variant_report("small", BASE_SUMS)
    with pytest.raises(UsageError):
        compare_variants(small, small)
    large = variant_report("large", BASE_SUMS)
    with pytest.raises(UsageError):
        compare_variants(large, small)
    with pytest.raises(UsageError):
        compare_variants(small, large, k=0)
