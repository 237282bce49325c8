"""Release gate: ten numbered end-to-end criteria.

Covers gradient correctness, the scoring equations, the architecture's
mixing-input partition, the three synthetic-data findings (btemp dominance,
scale-0 leading the image groups, rank stability across variants), dead-node
handling, grid provenance, pipeline determinism, and the kernel oracles.

Every tolerance and dial in this file is pinned.  A regression is fixed in
the code under test, never by loosening a bound here.  Each test appends a
one-line verdict to the "acceptance criteria" block that conftest.py prints
after the run.
"""
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

import conftest
from helpers import (
    avg_smooth_reference,
    conv2d_reference,
    fd_gradients,
    grad_gap,
    upsample_reference,
)
from icefusion import ops
from icefusion.cli import main
from icefusion.errors import DeadNodeError
from icefusion.importance import (
    AnalysisReport,
    ComparisonReport,
    analyze,
    compare_variants,
    detect_dead,
    zscore,
    zscore_corrected,
)
from icefusion.network import ModelConfig, backward, build, forward
from icefusion.rng import SeededRng
from icefusion.scenes import Scene, SceneConfig, generate
from icefusion.storage import sha256_file
from icefusion.training import (
    NATIVE_GRID,
    UPSAMPLED_GRID,
    TrainConfig,
    bce_loss,
    collect_mixing_stats,
    train,
)

GROUP_NAMES = ["scale-0", "scale-2", "scale-4", "scale-8", "scale-16", "btemp"]
IMAGE_GROUPS = GROUP_NAMES[:5]


def verdict(number: int, label: str):
    """Record a pass/fail summary line for one criterion, then re-raise."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except Exception as exc:
                conftest.VERDICTS.append(
                    f"criterion {number:02d} FAIL  {label}: {exc!r:.160}"
                )
                raise
            conftest.VERDICTS.append(f"criterion {number:02d} PASS  {label}: {detail}")

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1: analytic gradients against central finite differences


@verdict(1, "gradient check")
def test_criterion_01_finite_difference_gradients():
    """Every small-variant parameter gradient matches central differences.

    Probe step 1e-5, tolerance max(1e-6 abs, 1e-4 rel), one 2x8x8 scene at
    mwr_factor 4, under a minute of wall clock.

    The check point is a built net with freshly randomized biases, betas and
    gammas.  At the zero-bias initial point the check is ill-posed: on an
    8x8 grid the dilation-16 branch smooths over the whole image, so its
    maps are constant per channel, train-mode normalization collapses every
    constant map to exact zeros, and all later pre-activations sit exactly
    on the relu kink where central differences are meaningless.  Nonzero
    biases move those constants off the kink (seed 39 paired with data seed
    27 gives min |pre-activation| of 2.8e-4, well clear of the probe step).
    """
    started = time.perf_counter()
    cfg = ModelConfig.for_variant("small", mwr_factor=4)
    net = build(cfg, SeededRng(5))
    offsets = np.random.default_rng(39)
    for layer in net.stem:
        layer.bias[:] = offsets.uniform(-0.3, 0.3, size=layer.bias.shape)
    for branch in net.branches:
        for conv in branch.convs:
            conv.bias[:] = offsets.uniform(-0.3, 0.3, size=conv.bias.shape)
        for norm in branch.norms:
            norm.beta[:] = offsets.uniform(-0.2, 0.2, size=norm.beta.shape)
            norm.gamma[:] = offsets.uniform(0.9, 1.1, size=norm.gamma.shape)

    data = np.random.default_rng(27)
    sar = data.normal(size=(2, 8, 8))
    mwr = data.normal(size=(cfg.mwr_channels, 2, 2))
    label = (data.random((1, 8, 8)) > 0.5).astype(np.float64)
    drop_rng = SeededRng(6)

    fp = forward(net, sar, mwr, mode="train", rng=drop_rng, keep_cache=True)
    _, grad_logit = bce_loss(fp.prob, label)
    analytic = backward(net, fp.cache, grad_logit)
    numeric = fd_gradients(net, sar, mwr, label, drop_rng, step=1e-5)

    worst = max(
        (grad_gap(analytic[name], fd, abs_tol=1e-6, rel_tol=1e-4), name)
        for name, fd in numeric.items()
    )
    elapsed = time.perf_counter() - started
    count = sum(g.size for g in analytic.values())

    assert set(numeric) == set(analytic)
    assert worst[0] <= 0.0, f"gradient mismatch at {worst[1]}: excess {worst[0]:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    return f"{count} gradients within max(1e-6 abs, 1e-4 rel) in {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2: the scoring equations


@verdict(2, "score equations")
def test_criterion_02_score_equations():
    """Exact rational cases, the n=1 degeneracy, the sqrt-n relation, and
    scale homogeneity to 1e-12 over 1000 seeded random cases."""
    assert zscore(3.0, 2.0) == 1.5
    assert zscore(-7.0, 4.0) == -1.75
    assert zscore(0.0, 0.25) == 0.0
    # 0.3 and 0.6 share a mantissa, so the quotient is exactly 0.5.
    assert zscore_corrected(0.3, 0.6, 100) == 5.0

    for c, s in ((0.25, 1.25), (-3.5, 0.125), (1.0, 3.0)):
        assert zscore_corrected(c, s, 1) == zscore(c, s)

    def rel_err(got, want):
        return abs(got - want) / max(abs(want), 1e-300)

    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        c = float(rng.uniform(-5.0, 5.0))
        s = float(rng.uniform(0.05, 4.0))
        t = float(rng.uniform(0.1, 10.0))
        n = int(rng.integers(1, 400))
        base = zscore(c, s)
        worst = max(
            worst,
            rel_err(zscore(t * c, s), t * base),
            rel_err(zscore(c, t * s), base / t),
            rel_err(zscore_corrected(c, s, n), c / (s / math.sqrt(n))),
        )
        assert zscore_corrected(c, s, n) == math.sqrt(n) * base
    assert worst < 1e-12, f"worst homogeneity error {worst:.3e}"
    return f"exact rational cases; 1000-case homogeneity worst {worst:.2e}"


# ---------------------------------------------------------------------------
# 3: mixing-input partition of both published variants


@verdict(3, "variant structure")
def test_criterion_03_variant_structure():
    """small yields 84 mixing inputs, large 140, partitioned into the six
    named groups with the published widths."""
    expected = {
        "small": (84, [14, 14, 14, 14, 14, 14]),
        "large": (140, [14, 28, 28, 28, 28, 14]),
    }
    for variant, (width, widths) in expected.items():
        cfg = ModelConfig.for_variant(variant)
        net = build(cfg, SeededRng(1))
        assert cfg.mixing_width == width
        assert net.mixing_coefficients.shape == (width,)
        groups = cfg.groups
        assert [g.name for g in groups] == GROUP_NAMES
        assert [g.width for g in groups] == widths
        position = 0
        for group in groups:
            assert group.start == position
            position = group.stop
        assert position == width
    return "small D=84 (6x14), large D=140 (14/28/28/28/28/14)"


# ---------------------------------------------------------------------------
# 4-6: the synthetic-data findings (one shared set of paired runs)

WINDOWS = (0, 8, 32, 48, 56)


@dataclass(frozen=True)
class WindowRun:
    small: AnalysisReport
    large: AnalysisReport
    comparison: ComparisonReport
    small_seconds: float


@pytest.fixture(scope="module")
def finding_runs():
    """Paired small/large trainings over five disjoint seed windows.

    Dials, all frozen: 8 scenes of 64x64 per window at mwr_factor 8,
    sar_ambiguity 0.8, mwr_noise 0.1, every mwr channel informative; 10
    epochs of lr 0.05 SGD; network build, shuffling and dropout all seeded
    by the window start.  The windows are spaced so that no two runs share
    a scene and each dataset carries both classes in good proportion; a
    dataset that is nearly all ice (or all water) measures label imbalance,
    not sensor importance.
    """
    runs = {}
    for window in WINDOWS:
        scenes = [
            generate(
                SceneConfig(
                    height=64,
                    width=64,
                    mwr_factor=8,
                    sar_ambiguity=0.8,
                    mwr_noise=0.1,
                    mwr_informative_fraction=1.0,
                    seed=seed,
                )
            )
            for seed in range(window, window + 8)
        ]
        reports = {}
        small_seconds = 0.0
        for variant in ("small", "large"):
            started = time.perf_counter()
            net = build(ModelConfig.for_variant(variant, mwr_factor=8), SeededRng(window))
            net, _ = train(
                net,
                scenes,
                TrainConfig(learning_rate=0.05, epochs=10, seed=window),
            )
            stats = collect_mixing_stats(net, scenes)
            reports[variant] = analyze(net, stats)
            if variant == "small":
                small_seconds = time.perf_counter() - started
        runs[window] = WindowRun(
            small=reports["small"],
            large=reports["large"],
            comparison=compare_variants(reports["small"], reports["large"]),
            small_seconds=small_seconds,
        )
    return runs


@verdict(4, "btemp dominance")
def test_criterion_04_btemp_group_leads_small_runs(finding_runs):
    """With ambiguous sar (0.8) and mildly noisy mwr (0.1), the btemp group
    sum ranks first in at least 4 of 5 trained small runs, within 10
    minutes of training wall clock."""
    leads = [
        window
        for window, run in finding_runs.items()
        if run.comparison.group_ranks_small["btemp"] == 1
    ]
    small_total = sum(run.small_seconds for run in finding_runs.values())
    assert len(finding_runs) == 5
    assert len(leads) >= 4, f"btemp led only in windows {leads}"
    assert small_total < 600.0, f"small runs took {small_total:.0f}s"
    return f"btemp rank 1 in {len(leads)}/5 small runs; {small_total:.0f}s of training"


@verdict(5, "scale-0 leads image groups")
def test_criterion_05_scale0_tops_image_groups(finding_runs):
    """Scale-0 posts the largest group sum among the five image-feature
    groups in at least 4 of the same 5 small runs."""
    tops = [
        window
        for window, run in finding_runs.items()
        if max(IMAGE_GROUPS, key=lambda g: run.small.group_sums[g]) == "scale-0"
    ]
    assert len(tops) >= 4, f"scale-0 topped the image groups only in windows {tops}"
    return f"scale-0 leads the image groups in {len(tops)}/5 small runs"


@verdict(6, "rank stability across variants")
def test_criterion_06_btemp_rank_stable_across_variants(finding_runs):
    """Paired small/large runs on identical data and seeds keep the btemp
    group-sum rank unchanged in at least 4 of 5 windows."""
    stable = [
        window for window, run in finding_runs.items() if run.comparison.btemp_rank_stable
    ]
    assert len(stable) >= 4, f"btemp rank held only in windows {stable}"
    return f"btemp group rank unchanged in {len(stable)}/5 paired runs"


# ---------------------------------------------------------------------------
# 7: dead-node handling


@verdict(7, "dead node handling")
def test_criterion_07_constructed_dead_channel():
    """A large relu-mixing net with one branch channel forced dead (zero
    kernels, negative bias) shows sigma exactly 0 for that mixing input
    alone; analysis flags and excludes it and scoring it raises."""
    cfg = ModelConfig.for_variant("large", mixing_activation="relu", mwr_factor=8)
    net = build(cfg, SeededRng(12))
    # Channel 3 of the dilation-4 branch's last conv: pre-activation is the
    # bias everywhere, the relu clamps it, and the mixing input is constant.
    last = net.branches[1].convs[5]
    last.kernels[3] = 0.0
    last.bias[3] = -1.0
    dead_index = 42 + 3  # scale-4 block starts at 14 + 28 in the large layout

    scenes = [
        generate(
            SceneConfig(
                height=32, width=32, mwr_factor=8, mwr_informative_fraction=1.0, seed=seed
            )
        )
        for seed in range(4)
    ]
    stats = collect_mixing_stats(net, scenes)

    assert detect_dead(stats) == [dead_index]
    assert stats.sigma[dead_index] == 0.0
    assert np.delete(stats.sigma, dead_index).min() > 0.0

    report = analyze(net, stats)
    assert report.dead_nodes == (dead_index,)
    assert report.entries[dead_index].dead
    assert dead_index not in report.ranking
    assert len(report.ranking) == cfg.mixing_width - 1
    with pytest.raises(DeadNodeError):
        zscore(float(net.mixing_coefficients[dead_index]), float(stats.sigma[dead_index]))
    return f"sigma=0 exactly at input {dead_index} only; excluded from ranking; scoring raises"


# ---------------------------------------------------------------------------
# 8: grid provenance of the coarse-channel statistics


@verdict(8, "upsampled-grid variance caveat")
def test_criterion_08_upsampled_grid_variance(tmp_path, capsys):
    """A coarse checkerboard channel loses spread on the bilinear upsampled
    grid (sigma < 0.8x native) while nearest replication preserves it
    exactly, and the command line refuses upsampled-grid statistics."""
    coarse = (np.indices((8, 8)).sum(axis=0) % 2 * 2.0 - 1.0)[None]
    data = np.random.default_rng(9)
    scene = Scene(
        sar=data.normal(size=(2, 32, 32)),
        mwr=coarse,
        label=(data.random((1, 32, 32)) > 0.5).astype(np.float64),
    )
    sigmas = {}
    for mode in ("bilinear", "nearest"):
        cfg = ModelConfig.custom(
            1, 1, mwr_channels=1, mwr_factor=4, dropout_rate=0.0, upsample_mode=mode
        )
        net = build(cfg, SeededRng(3))
        native = collect_mixing_stats(net, [scene], btemp_source=NATIVE_GRID)
        upsampled = collect_mixing_stats(net, [scene], btemp_source=UPSAMPLED_GRID)
        sigmas[mode] = (float(native.sigma[-1]), float(upsampled.sigma[-1]))

    native_sigma, bilinear_sigma = sigmas["bilinear"]
    assert native_sigma == 1.0
    assert bilinear_sigma < 0.8 * native_sigma
    assert sigmas["nearest"][1] == sigmas["nearest"][0]

    data_dir = tmp_path / "data"
    ckpt = tmp_path / "net.ckpt"
    report = tmp_path / "report.json"
    assert main(["gen-data", "--out", str(data_dir), "--scenes", "2", "--seed", "5",
                 "--height", "16", "--width", "16", "--mwr-factor", "4"]) == 0
    assert main(["train", "--data", str(data_dir), "--variant", "small", "--out",
                 str(ckpt), "--epochs", "1", "--seed", "2"]) == 0
    capsys.readouterr()
    code = main(["analyze", "--ckpt", str(ckpt), "--data", str(data_dir), "--out",
                 str(report), "--btemp-stats", "upsampled-grid"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("E_PROVENANCE")
    assert not report.exists()
    return (
        f"bilinear sigma {bilinear_sigma:.4f} < 0.8x native {native_sigma:.1f}, "
        f"nearest exact; upsampled-grid stats refused with exit 4"
    )


# ---------------------------------------------------------------------------
# 9: pipeline determinism


@verdict(9, "pipeline determinism")
def test_criterion_09_pipeline_byte_identical(tmp_path):
    """Two full command-line pipeline executions with identical seeds leave
    byte-identical artifacts (dataset, checkpoint, log, reports, tables)."""

    def run_pipeline(root):
        data = root / "data"
        ckpt = root / "net.ckpt"
        log = root / "train-log.json"
        report = root / "report.json"
        table = root / "report.csv"
        plot = root / "plot.csv"
        commands = [
            ["gen-data", "--out", str(data), "--scenes", "4", "--seed", "3",
             "--height", "16", "--width", "16", "--mwr-factor", "4"],
            ["train", "--data", str(data), "--variant", "small", "--out", str(ckpt),
             "--epochs", "2", "--seed", "1", "--log", str(log)],
            ["analyze", "--ckpt", str(ckpt), "--data", str(data), "--out", str(report)],
            ["analyze", "--ckpt", str(ckpt), "--data", str(data), "--out", str(table),
             "--format", "csv"],
            ["plot-data", "--report", str(report), "--out", str(plot)],
        ]
        for argv in commands:
            assert main(argv) == 0
        return {
            path.relative_to(root).as_posix(): sha256_file(path)
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    first = run_pipeline(tmp_path / "one")
    second = run_pipeline(tmp_path / "two")
    assert first.keys() == second.keys()
    differing = [name for name in first if first[name] != second[name]]
    assert not differing, f"artifacts differ between reruns: {differing}"
    return f"{len(first)} artifact files with identical digests across reruns"


# ---------------------------------------------------------------------------
# 10: kernel oracles


@verdict(10, "kernel oracles")
def test_criterion_10_kernel_oracles():
    """conv2d (dilations 1, 2, 4), avg_smooth (d = 1, 2, 3) and both
    upsample modes agree exactly with direct-summation oracles on 100
    random 6x6 cases each."""
    rng = np.random.default_rng(808)
    cases = 0

    for dilation in (1, 2, 4):
        for _ in range(100):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            x = rng.integers(-3, 4, size=(cin, 6, 6)).astype(np.float64)
            kernels = rng.integers(-2, 3, size=(cout, cin, 3, 3)).astype(np.float64)
            bias = rng.integers(-2, 3, size=cout).astype(np.float64)
            npt.assert_array_equal(
                ops.conv2d(x, kernels, bias, dilation=dilation),
                conv2d_reference(x, kernels, bias, dilation),
            )
            cases += 1

    for d in (1, 2, 3):
        for _ in range(100):
            channels = int(rng.integers(1, 4))
            x = rng.integers(-5, 6, size=(channels, 6, 6)).astype(np.float64)
            npt.assert_array_equal(ops.avg_smooth(x, d), avg_smooth_reference(x, d))
            cases += 1

    for mode in ("nearest", "bilinear"):
        for _ in range(100):
            channels = int(rng.integers(1, 4))
            factor = int(rng.integers(2, 4))
            x = rng.normal(size=(channels, 6, 6))
            npt.assert_array_equal(
                ops.upsample(x, factor, mode=mode), upsample_reference(x, factor, mode)
            )
            cases += 1

    return f"{cases} oracle cases, all exact"
