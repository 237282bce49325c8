"""The three benchmark workloads: train-64, gradcheck-8 and analyze-128.

Each workload is one process, one caller and a closed loop: the next unit
operation starts when the previous one returns.  ``setup`` turns the seed into
inputs; ``measure`` times the unit operations of a number of rounds set by
``--seconds``; ``fixed_pass`` does a fixed amount of the same work and returns
its outputs, so that a traced pass can be compared with an untraced one bit
for bit.

The unit operation, timed from outside the package, is
  train-64     one training step (forward, loss, backward, SGD update),
  gradcheck-8  one central-difference probe (two train-mode forwards + losses),
  analyze-128  one scene's eval forward inside an ``analyze`` CLI call,
each for the small and the large variant.

A run does a fixed amount of work: ``--seconds`` divided by the nominal time
of one round of the workload (``ROUND_S``, measured at the commit that
defined the benchmark on a 2-core Xeon), rounded, at least one round.  Both
sides of a comparison then time the same operations and get the same
sample counts, however fast each side is.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from icefusion import cli, network, scenes, storage, training
from icefusion.network import ModelConfig, named_parameters
from icefusion.rng import SeededRng
from icefusion.scenes import SceneConfig

import tracer

VARIANTS = ("small", "large")


@dataclass
class Outcome:
    """What one measured or fixed pass produced."""

    samples: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})  # ms
    speeds: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})  # factor per sample
    ops: int = 0
    seconds: float = 0.0  # measured wall time, without the gauge's
    gauge: SpeedGauge | None = None
    final_loss: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class SpeedGauge:
    """How fast the shared machine runs during a measurement.

    On a shared host the same operation runs up to 1.6x slower while other
    tenants are busy, and such spells last tens of seconds, longer than a run
    can average away.  The gauge times a fixed numpy-only kernel of the
    workload's kind before unit operations, at most every ``EVERY_S`` seconds.
    A factor is a kernel time over the kernel's nominal time, measured on the
    quiet 2-core Xeon when the benchmark was defined; a timing divided by the
    factor in force when it was taken reads as on that quiet machine.  The
    kernel never calls icefusion, so a change to the program cannot move it.

    ``conv`` is one im2col convolution of 28 channels at 64x64 and dilation
    16, the kind of work in a training step or an eval forward.  ``small``
    mimics one forward on an 8x8 scene, where per-call overhead dominates as
    in a gradcheck probe: twelve Philox streams seeded and drawn, then
    twenty-six 14-channel 3x3 convolutions with normalization and relu.
    """

    EVERY_S = 0.05
    RECENT = 5
    WARM_UP = 3
    NOMINAL_MS = {"conv": 4.4, "small": 2.1}

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = 0.0
        data = np.random.default_rng(0)
        if kind == "conv":
            self._x, self._k = data.normal(size=(28, 96, 96)), data.normal(size=(28, 252))
        else:
            self._x, self._k = data.normal(size=(14, 8, 8)), data.normal(size=(14, 126))
            self._b = data.normal(size=14)
        for _ in range(self.WARM_UP):  # the first calls fault in fresh memory
            self._kernel()

    def _kernel(self) -> None:
        x, k = self._x, self._k
        if self.kind == "conv":
            win = np.empty((28, 3, 3, 64, 64))
            for a in range(3):
                for b in range(3):
                    win[:, a, b] = x[:, 16 * a:16 * a + 64, 16 * b:16 * b + 64]
            np.maximum(k @ win.reshape(252, 4096), 0.0).sum()
            return
        for site in range(12):
            stream = np.random.SeedSequence((6, 3, site // 3, site % 3))
            keep = np.random.Generator(np.random.Philox(stream)).random((14, 8, 8)) >= 0.1
        for _ in range(26):
            padded = np.zeros((14, 10, 10))
            padded[:, 1:9, 1:9] = np.asarray(x, dtype=np.float64)
            win = np.empty((14, 3, 3, 8, 8))
            for a in range(3):
                for b in range(3):
                    win[:, a, b] = padded[:, a:a + 8, b:b + 8]
            out = (k @ win.reshape(126, 64)).reshape(14, 8, 8) + self._b[:, None, None]
            centered = out - out.mean(axis=(1, 2))[:, None, None]
            var = (centered * centered).mean(axis=(1, 2))
            np.maximum(centered / np.sqrt(var + 1e-5)[:, None, None], 0.0) * keep

    def tick(self) -> None:
        started = time.perf_counter()
        if started < self._due:
            return
        self._kernel()
        ended = time.perf_counter()
        self.samples.append((ended - started) * 1e3)
        self.spent += ended - started
        self._due = ended + self.EVERY_S

    def current(self) -> float:
        """Factor in force now: the median of the last few kernel times."""
        return statistics.median(self.samples[-self.RECENT:]) / self.NOMINAL_MS[self.kind]

    def mean(self) -> float:
        """Factor over the whole run, for a total such as a rate."""
        return statistics.mean(self.samples) / self.NOMINAL_MS[self.kind]


class StepClock:
    """Times each unit operation from outside the package.

    A step starts when ``training.forward`` is entered and ends when the
    function named ``stop`` returns: ``sgd_step`` for a training step,
    ``forward`` itself for an eval forward.
    """

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.variant = VARIANTS[0]
        self._start = 0.0

    @contextlib.contextmanager
    def installed(self, stop: str):
        forward, last = training.forward, getattr(training, stop)

        def timed_forward(*args, **kwargs):
            self.outcome.gauge.tick()
            self._start = time.perf_counter()
            result = forward(*args, **kwargs)
            if stop == "forward":
                self._lap()
            return result

        def timed_last(*args, **kwargs):
            result = last(*args, **kwargs)
            self._lap()
            return result

        stand_ins = {id(forward): (forward, timed_forward)}
        if stop != "forward":
            stand_ins[id(last)] = (last, timed_last)
        with tracer.replaced(stand_ins, [training]):
            yield self

    def _lap(self):
        out = self.outcome
        out.samples[self.variant].append((time.perf_counter() - self._start) * 1e3)
        out.speeds[self.variant].append(out.gauge.current())
        out.ops += 1


def largest_conv_mb(grid: int) -> float:
    """Computed bytes of the largest convolution call at this grid (large variant)."""
    x = SimpleNamespace(shape=(28, grid, grid))
    kernels = SimpleNamespace(shape=(28, 28, 3, 3))
    return tracer.conv_counts(x, kernels, 16, 1)["mb"]


def rounds(seconds: float, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def _finite(values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# train-64


class Train64:
    """Train the small variant, then the large one, through ``training.train``.

    The data and dials are those of the acceptance findings window 0: the 8
    scenes of 64x64 with scene seeds 0-7 at mwr_factor 8, sar_ambiguity 0.8,
    mwr_noise 0.1, every mwr channel informative, lr 0.05, batch 1.  The seed
    draws the initial nets and the shuffle and dropout streams.  The data stay
    fixed because the final loss of two epochs spreads by about 40 % across
    datasets but by about 4 % across training seeds on one dataset.  One
    session trains each variant for ``EPOCHS`` epochs from the same initial
    nets, so every session of a run must reproduce the same loss history bit
    for bit.
    """

    name = "train-64"
    grid = 64
    gauge = "conv"
    SETUPS = 11
    EPOCHS = 2
    ROUND_S = 12.0
    expected = (
        [f"ops.conv2d.d{d}" for d in (1, 2, 4, 8, 16)]
        + [f"ops.conv2d_backward.d{d}" for d in (1, 2, 4, 8, 16)]
        + ["ops.avg_smooth", "ops.avg_smooth_backward", "ops.batch_norm",
           "ops.batch_norm_backward", "ops.relu", "ops.sigmoid", "ops.upsample",
           "ops.dropout", "rng.generator", "network.forward.train", "network.backward",
           "training.bce_loss", "training.sgd_step", "training.train",
           "scenes.generate", "network.build"]
    )

    def setup(self, seed: int, workdir: Path):
        dials = dict(height=64, width=64, mwr_factor=8, sar_ambiguity=0.8,
                     mwr_noise=0.1, mwr_informative_fraction=1.0)
        data = [scenes.generate(SceneConfig(seed=i, **dials)) for i in range(8)]
        nets = {v: network.build(ModelConfig.for_variant(v, mwr_factor=8), SeededRng(seed))
                for v in VARIANTS}
        return SimpleNamespace(seed=seed, scenes=data, nets=nets)

    def _session(self, state, out: Outcome, marker):
        cfg = training.TrainConfig(learning_rate=0.05, epochs=self.EPOCHS, seed=state.seed)
        histories = {}
        for variant in VARIANTS:
            if marker:
                marker.variant = variant
            net = copy.deepcopy(state.nets[variant])
            _, history = training.train(net, state.scenes, cfg)
            histories[variant] = history
            params = [p for _, p in named_parameters(net)]
            out.check(_finite(history) and _finite(params),
                      f"{variant}: non-finite loss or parameter")
            out.check(history[-1] < history[0],
                      f"{variant}: last-epoch loss {history[-1]} not below first {history[0]}")
        return histories

    def _record(self, out: Outcome, histories: dict) -> None:
        if out.final_loss:
            out.check(all(h[-1] == out.final_loss[v] for v, h in histories.items()),
                      "a repeated session did not reproduce the final losses")
        out.final_loss = {v: h[-1] for v, h in histories.items()}
        out.fingerprint.append(histories)

    def measure(self, state, seconds: float, gauge: SpeedGauge) -> Outcome:
        out = Outcome(gauge=gauge)
        clock = StepClock(out)
        started = time.perf_counter()
        spent = gauge.spent
        with clock.installed("sgd_step"):
            for _ in range(rounds(seconds, self.ROUND_S)):
                self._record(out, self._session(state, out, clock))
        out.seconds = time.perf_counter() - started - (gauge.spent - spent)
        return out

    def fixed_pass(self, state, marker=None) -> Outcome:
        out = Outcome()
        self._record(out, self._session(state, out, marker))
        return out


# ---------------------------------------------------------------------------
# gradcheck-8


class Gradcheck8:
    """Central-difference probes of the analytic gradients on one 8x8 scene.

    The check point is acceptance criterion 01's: build seed 5, bias, beta and
    gamma offsets from generator 39, data from generator 27, dropout stream 6,
    one 2x8x8 scene at mwr_factor 4, probe step 1e-5, tolerance
    max(1e-6 abs, 1e-4 rel).  Each probe runs the public ``forward`` (train
    mode, fixed rng) and ``bce_loss`` twice and is checked against one
    ``backward`` made during set-up.

    One round probes one seed-chosen entry of every small-variant parameter
    array, and eight of every large-variant array that has no relu between it
    and the loss (the mixing layer and each branch's last normalization).
    The same recipe gives the large variant pre-activations within about
    1e-5 of the relu kink, where a central difference with step 1e-5 is not
    a derivative, so its other arrays cannot be checked at this point.
    """

    name = "gradcheck-8"
    grid = 8
    gauge = "small"
    SETUPS = 11
    STEP = 1e-5
    FIXED_ROUNDS = 3
    ROUND_S = 1.5
    PER_ARRAY = {"small": 1, "large": 8}
    expected = (
        [f"ops.conv2d.d{d}" for d in (1, 2, 4, 8, 16)]
        + [f"ops.conv2d_backward.d{d}" for d in (1, 2, 4, 8, 16)]
        + ["ops.dropout", "rng.generator", "network.forward.train", "network.backward",
           "training.bce_loss", "network.build"]
    )

    def setup(self, seed: int, workdir: Path):
        checks = {}
        for variant in VARIANTS:
            cfg = ModelConfig.for_variant(variant, mwr_factor=4)
            net = network.build(cfg, SeededRng(5))
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
            point = SimpleNamespace(net=net, sar=sar, mwr=mwr, label=label, rng=SeededRng(6))
            fp = network.forward(net, sar, mwr, mode="train", rng=point.rng, keep_cache=True)
            point.loss, grad_prob = training.bce_loss(fp.prob, label)
            point.analytic = network.backward(net, fp.cache, grad_prob)
            last = f".norm{len(net.branches[0].norms) - 1}."
            point.params = [(name, arr) for name, arr in named_parameters(net)
                            if variant == "small" or name.startswith("mixing.") or last in name]
            checks[variant] = point
        return SimpleNamespace(seed=seed, checks=checks)

    def _loss(self, point) -> float:
        fp = network.forward(point.net, point.sar, point.mwr, mode="train", rng=point.rng)
        return training.bce_loss(fp.prob, point.label)[0]

    def _probe(self, point, name: str, arr: np.ndarray, index: int) -> float:
        orig = arr.flat[index]
        arr.flat[index] = orig + self.STEP
        hi = self._loss(point)
        arr.flat[index] = orig - self.STEP
        lo = self._loss(point)
        arr.flat[index] = orig
        return (hi - lo) / (2.0 * self.STEP)

    def _round(self, state, picks, out: Outcome, marker=None) -> None:
        for variant in VARIANTS:
            if marker:
                marker.variant = variant
            point = state.checks[variant]
            samples = out.samples[variant]
            for name, arr in point.params * self.PER_ARRAY[variant]:
                index = int(picks.integers(arr.size))
                if out.gauge:
                    out.gauge.tick()
                started = time.perf_counter()
                fd = self._probe(point, name, arr, index)
                if out.gauge:
                    samples.append((time.perf_counter() - started) * 1e3)
                    out.speeds[variant].append(out.gauge.current())
                out.ops += 1
                analytic = point.analytic[name].flat[index]
                out.check(abs(analytic - fd) <= max(1e-6, 1e-4 * abs(fd)),
                          f"{variant} {name}[{index}]: analytic {analytic!r} vs fd {fd!r}")
                out.fingerprint.append(fd)

    def _finish(self, state, out: Outcome) -> Outcome:
        out.final_loss = {v: state.checks[v].loss for v in VARIANTS}
        return out

    def measure(self, state, seconds: float, gauge: SpeedGauge) -> Outcome:
        out = Outcome(gauge=gauge)
        picks = np.random.default_rng(state.seed)
        started = time.perf_counter()
        spent = gauge.spent
        for _ in range(rounds(seconds, self.ROUND_S)):
            self._round(state, picks, out)
        out.seconds = time.perf_counter() - started - (gauge.spent - spent)
        return self._finish(state, out)

    def fixed_pass(self, state, marker=None) -> Outcome:
        out = Outcome()
        picks = np.random.default_rng(state.seed)
        for _ in range(self.FIXED_ROUNDS):
            self._round(state, picks, out, marker=marker)
        return self._finish(state, out)


# ---------------------------------------------------------------------------
# analyze-128


def _cli(out: Outcome, *argv) -> None:
    """One in-process CLI call; its chatter is kept off the benchmark's stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([str(a) for a in argv])
    out.check(code == 0, f"icefusion {argv[0]} exited {code}: {sink.getvalue().strip()}")


class Analyze128:
    """The eval path through in-process ``cli.main``.

    Set-up writes a dataset of 8 scenes of 128x128 at mwr_factor 8 with
    ``gen-data`` from the seed, and trains a small and a large checkpoint
    briefly: 2 epochs, training seed from the seed, on a fixed set of 8
    scenes of 32x32 at the same factor (fixed for the reason given in
    ``Train64``).  One round runs ``analyze`` on each checkpoint, then
    ``compare`` and ``plot-data``; a pass ends with one ``--format csv``
    export.
    """

    name = "analyze-128"
    grid = 128
    gauge = "conv"
    SETUPS = 3
    SPOT_SCENES = 2
    SIGMA_RTOL = 1e-9
    ROUND_S = 7.0
    expected = (
        [f"ops.conv2d.d{d}" for d in (1, 2, 4, 8, 16)]
        + ["ops.upsample", "ops.sigmoid", "network.forward.eval",
           "training.collect_mixing_stats", "training.train", "importance.analyze",
           "importance.compare_variants", "scenes.generate", "network.build",
           "storage.load_dataset", "storage.load_checkpoint", "storage.save_checkpoint",
           "storage.save_scene", "storage.write_report", "storage.read_report",
           "storage.sha256_file"]
        + [f"cli.main.{c}" for c in ("gen-data", "train", "analyze", "compare", "plot-data")]
    )

    def setup(self, seed: int, workdir: Path):
        d = workdir / f"setup-{time.perf_counter_ns()}"
        out = Outcome()
        _cli(out, "gen-data", "--out", d / "data", "--scenes", 8, "--seed", seed,
             "--height", 128, "--width", 128, "--mwr-factor", 8, "--informative-fraction", 1.0)
        _cli(out, "gen-data", "--out", d / "fit", "--scenes", 8, "--seed", 0,
             "--height", 32, "--width", 32, "--mwr-factor", 8, "--informative-fraction", 1.0)
        losses = {}
        for variant in VARIANTS:
            ckpt = d / f"{variant}.ckpt"
            _cli(out, "train", "--data", d / "fit", "--variant", variant, "--out", ckpt,
                 "--epochs", 2, "--seed", seed, "--log", d / f"{variant}.log.json")
            log = json.loads((d / f"{variant}.log.json").read_text())
            losses[variant] = log["loss_history"][-1]
        if out.failed:
            raise RuntimeError("; ".join(out.problems))
        return SimpleNamespace(seed=seed, dir=d, losses=losses)

    def _round(self, state, out: Outcome, marker) -> dict:
        d = state.dir
        for variant in VARIANTS:
            if marker:
                marker.variant = variant
            _cli(out, "analyze", "--ckpt", d / f"{variant}.ckpt", "--data", d / "data",
                 "--out", d / f"{variant}.json")
        _cli(out, "compare", "--small", d / "small.json", "--large", d / "large.json",
             "--out", d / "compare.json")
        _cli(out, "plot-data", "--report", d / "small.json", "--out", d / "plot.csv")
        return {p: _sha256(d / p) for p in ("small.json", "large.json", "compare.json", "plot.csv")}

    def _finish(self, state, out: Outcome) -> Outcome:
        """The csv export, report round-trips and a pooled-sigma spot check."""
        d = state.dir
        _cli(out, "analyze", "--ckpt", d / "small.ckpt", "--data", d / "data",
             "--out", d / "small.csv", "--format", "csv")
        width = sum(ModelConfig.for_variant("small").group_widths.values())
        rows = (d / "small.csv").read_text().splitlines()
        out.check(len(rows) == width + 1, f"csv export has {len(rows)} lines, expected {width + 1}")
        out.fingerprint.append(_sha256(d / "small.csv"))
        for variant in VARIANTS:
            path = d / f"{variant}.json"
            storage.write_report(storage.read_report(path), d / f"{variant}.again.json")
            out.check(_sha256(path) == _sha256(d / f"{variant}.again.json"),
                      f"{variant} report does not round-trip through read_report")
        self._spot_check(state, out)
        out.final_loss = dict(state.losses)
        return out

    def _spot_check(self, state, out: Outcome) -> None:
        """Pooled sigma of collect_mixing_stats against a two-pass numpy std.

        One seed-chosen input per group, pooled over the first scenes of the
        dataset: fine-grid pixels for image groups, native-grid cells for btemp.
        """
        net = storage.load_checkpoint(state.dir / "small.ckpt")
        data, _ = storage.load_dataset(state.dir / "data")
        data = data[:self.SPOT_SCENES]
        stats = training.collect_mixing_stats(net, data)
        mixing = [network.forward(net, s.sar, s.mwr, mode="eval").mixing_inputs for s in data]
        picks = np.random.default_rng(state.seed)
        for group in net.config.groups:
            i = group.start + int(picks.integers(group.width))
            if group.name == network.GROUP_BTEMP:
                values = np.concatenate([s.mwr[i - group.start].ravel() for s in data])
            else:
                values = np.concatenate([m[i].ravel() for m in mixing])
            # A constant input has zero spread exactly (the program's dead-node
            # rule); a two-pass std of it can still read 1e-17 from rounding.
            constant = values.min() == values.max()
            ref = 0.0 if constant else math.sqrt(float(np.mean((values - values.mean()) ** 2)))
            out.check(abs(stats.sigma[i] - ref) <= self.SIGMA_RTOL * ref,
                      f"pooled sigma of input {i}: {stats.sigma[i]!r} vs two-pass {ref!r}")

    def measure(self, state, seconds: float, gauge: SpeedGauge) -> Outcome:
        out = Outcome(gauge=gauge)
        clock = StepClock(out)
        started = time.perf_counter()
        spent = gauge.spent
        with clock.installed("forward"):
            for _ in range(rounds(seconds, self.ROUND_S)):
                digests = self._round(state, out, clock)
                if out.fingerprint:
                    out.check(digests == out.fingerprint[0], "a repeated round wrote other bytes")
                else:
                    out.fingerprint.append(digests)
        out.seconds = time.perf_counter() - started - (gauge.spent - spent)
        return self._finish(state, out)

    def fixed_pass(self, state, marker=None) -> Outcome:
        out = Outcome()
        out.fingerprint.append(self._round(state, out, marker))
        return self._finish(state, out)


WORKLOADS = {w.name: w for w in (Train64(), Gradcheck8(), Analyze128())}
