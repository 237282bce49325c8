"""Public surface: the package root's exports, the command line defaults and
which modules importing the package loads."""
import dataclasses
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icefusion
from icefusion import cli, ops
from icefusion.errors import ConfigurationError
from icefusion.network import ModelConfig
from icefusion.rng import SeededRng
from icefusion.scenes import SceneConfig, ice_fraction_coarse
from icefusion.training import TrainConfig

# Modules whose ``__all__`` the package root re-exports; ``ops`` and ``cli``
# stay out of it.
ROOT_MODULES = ("errors", "importance", "network", "rng", "scenes", "storage", "training")

# What ``icefusion`` exported before the root was built from the modules'
# ``__all__``, with the module that defines each name.  Every one must keep
# resolving to the same object.
PINNED_EXPORTS = {
    "version": ["__version__"],
    "errors": [
        "IceFusionError", "UsageError", "ConfigurationError", "DimensionError", "DataError",
        "DegenerateStatisticsError", "FormatError", "IntegrityError",
        "UnsupportedVersionError", "DeadNodeError", "ProvenanceError",
    ],
    "network": [
        "ModelConfig", "FusionNetwork", "InputGroup", "build", "forward", "backward",
        "named_parameters", "named_state",
    ],
    "training": [
        "TrainConfig", "MixingStats", "bce_loss", "sgd_step", "train", "collect_mixing_stats",
    ],
    "importance": [
        "ZScoreEntry", "AnalysisReport", "ComparisonReport", "zscore", "zscore_corrected",
        "analyze", "top_k", "detect_dead", "compare_variants",
    ],
    "scenes": ["SceneConfig", "Scene", "generate", "ice_fraction_coarse"],
    "storage": [
        "ReportFile", "save_checkpoint", "load_checkpoint", "save_scene", "load_scene",
        "write_manifest", "read_manifest", "load_dataset", "write_report", "read_report",
        "write_comparison",
    ],
    "rng": ["SeededRng"],
}


def submodule(name):
    return importlib.import_module(f"icefusion.{name}")


def test_pinned_exports_resolve_to_the_same_objects():
    pinned = [(module, name) for module, names in PINNED_EXPORTS.items() for name in names]
    assert len(pinned) == 51
    for module, name in pinned:
        assert name in icefusion.__all__
        assert getattr(icefusion, name) is getattr(submodule(module), name)


@pytest.mark.parametrize("module", ROOT_MODULES)
def test_module_all_is_reachable_from_the_root(module):
    for name in submodule(module).__all__:
        assert name in icefusion.__all__
        assert getattr(icefusion, name) is getattr(submodule(module), name)


def test_root_all_is_the_module_lists_joined_without_repeats():
    joined = ["__version__"] + [n for m in ROOT_MODULES for n in submodule(m).__all__]
    assert icefusion.__all__ == joined
    assert len(set(joined)) == len(joined)


X = np.zeros((2, 4, 4))
KERNELS = np.zeros((1, 2, 3, 3))
COUNT = "must be an integer in [1, inf), got"

# Every argument check outside the config tables, each declared as a
# range that errors._check_range reads, and the one message it refuses with.
REFUSALS = {
    "conv2d dilation 0": (lambda: ops.conv2d(X, KERNELS, np.zeros(1), dilation=0),
                          f"dilation {COUNT} 0"),
    "conv2d dilation True": (lambda: ops.conv2d(X, KERNELS, np.zeros(1), dilation=True),
                             f"dilation {COUNT} True"),
    "conv2d dilation 2.0": (lambda: ops.conv2d(X, KERNELS, np.zeros(1), dilation=2.0),
                            f"dilation {COUNT} 2.0"),
    "conv2d_backward dilation 0": (
        lambda: ops.conv2d_backward(np.zeros((1, 4, 4)), X, KERNELS, dilation=0),
        f"dilation {COUNT} 0"),
    "avg_smooth window 0": (lambda: ops.avg_smooth(X, 0), f"window size {COUNT} 0"),
    "avg_smooth_backward window 0": (lambda: ops.avg_smooth_backward(X, 0),
                                     f"window size {COUNT} 0"),
    "upsample factor 0": (lambda: ops.upsample(X, 0), f"factor {COUNT} 0"),
    "NormState.initial(0)": (lambda: ops.NormState.initial(0), f"channel count {COUNT} 0"),
    "dropout rate 1.0": (lambda: ops.dropout(X, 1.0, SeededRng(0)),
                         "dropout rate must be a number in [0, 1), got 1.0"),
    "dropout rate NaN": (lambda: ops.dropout(X, math.nan, SeededRng(0)),
                         "dropout rate must be a number in [0, 1), got nan"),
    "dropout rate True": (lambda: ops.dropout(X, True, SeededRng(0)),
                          "dropout rate must be a number in [0, 1), got True"),
    "SeededRng(-1)": (lambda: SeededRng(-1),
                      f"seed must be an integer in [0, {2**64}), got -1"),
    "SeededRng(2**64)": (lambda: SeededRng(2**64),
                         f"seed must be an integer in [0, {2**64}), got {2**64}"),
    "SeededRng(0, (-1,))": (lambda: SeededRng(0, (-1,)),
                            "stream path entry must be an integer in [0, inf), got -1"),
    "SeededRng.derive(1.5)": (lambda: SeededRng(0).derive(1.5),
                              "stream path entry must be an integer in [0, inf), got 1.5"),
    "ice_fraction_coarse factor 0": (lambda: ice_fraction_coarse(X, 0), f"factor {COUNT} 0"),
    "dilation_rates=(1,)": (lambda: ModelConfig.for_variant("small", dilation_rates=(1,)),
                            "dilation rate must be an integer in [2, inf), got 1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_argument_checks_refuse_with_the_uniform_range_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


def field_defaults(cls, skip=()):
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.name not in skip}


def test_gen_data_defaults_match_scene_config(tmp_path, monkeypatch):
    built = []
    real_generate = cli.generate

    def recording_generate(cfg):
        built.append(cfg)
        return real_generate(cfg)

    monkeypatch.setattr(cli, "generate", recording_generate)
    assert cli.main(["gen-data", "--out", str(tmp_path), "--scenes", "1"]) == 0
    # The scene seed is drawn from the master --seed, so it has no default to match.
    want = field_defaults(SceneConfig, skip={"seed"})
    assert {name: getattr(built[0], name) for name in want} == want


def test_train_defaults_match_model_and_train_config(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data), "--scenes", "1"]) == 0
    built = {}

    def fake_train(net, scenes, cfg):
        built.update(model=net.config, train=cfg)
        return net, []

    monkeypatch.setattr(cli, "train", fake_train)
    assert cli.main(["train", "--data", str(data), "--variant", "small",
                     "--out", str(tmp_path / "small.ckpt")]) == 0
    # The dataset was generated with the gen-data defaults, which match the
    # ModelConfig defaults for the radiometer channel count and grid factor.
    want = field_defaults(ModelConfig)
    assert {name: getattr(built["model"], name) for name in want} == want
    want = field_defaults(TrainConfig)
    assert {name: getattr(built["train"], name) for name in want} == want


# Runs in a fresh interpreter, so no test run before it has loaded scipy.
NO_SCIPY = """
import sys, tempfile
import numpy as np

def assert_no_scipy(step):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert loaded == [], (step, loaded)

from icefusion import (ModelConfig, Scene, SceneConfig, SeededRng, analyze, backward,
                       bce_loss, build, collect_mixing_stats, forward, generate, sgd_step)
from icefusion import cli
assert_no_scipy("import")
rng = np.random.default_rng(0)
scene = Scene(sar=rng.normal(size=(2, 16, 16)), mwr=rng.normal(size=(14, 4, 4)),
              label=(rng.random((1, 16, 16)) < 0.5).astype(np.float64))
net = build(ModelConfig.for_variant("small", mwr_factor=4), SeededRng(1))
fp = forward(net, scene.sar, scene.mwr, mode="train", rng=SeededRng(2), keep_cache=True)
_, grad_logit = bce_loss(fp.prob, scene.label)
sgd_step(net, backward(net, fp.cache, grad_logit), 0.05)
assert_no_scipy("train step")
analyze(net, collect_mixing_stats(net, [scene]))
assert_no_scipy("analyze")
generate(SceneConfig(height=16, width=16, mwr_factor=4, seed=3))
assert_no_scipy("generate")
with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["gen-data", "--out", tmp + "/data", "--scenes", "2", "--height", "16",
                     "--width", "16", "--mwr-factor", "4"]) == 0
assert_no_scipy("gen-data")
"""


def test_the_package_never_loads_scipy():
    src = str(Path(icefusion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
