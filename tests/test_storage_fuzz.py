"""Fuzzed files: every reader either loads a damaged file or refuses it with exit code 3.

Each example takes a valid checkpoint, scene or report and mutates it: a
header leaf (``model_config`` and ``scene_config`` leaves and the array
records included) is replaced by an arbitrary JSON value or deleted, and the
payload bytes of a container are cut, flipped or extended.  Half of the
container examples then re-seal the payload length and digest, so the damage
reaches the parsing behind the integrity check.  The runs are derandomized,
so the suite sees the same examples every time.
"""
import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from icefusion.errors import IceFusionError  # noqa: E402
from icefusion.importance import analyze  # noqa: E402
from icefusion.network import ModelConfig, build  # noqa: E402
from icefusion.rng import SeededRng  # noqa: E402
from icefusion.scenes import SceneConfig, generate  # noqa: E402
from icefusion.storage import (  # noqa: E402
    ReportFile,
    load_checkpoint,
    load_scene,
    read_report,
    save_checkpoint,
    save_scene,
    write_report,
)
from icefusion.training import NATIVE_GRID, MixingStats  # noqa: E402

_FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 2, 14.9, 2**31, 2**70, 10**400, float("inf"), "x"]),
    st.floats(),
    st.text(max_size=4),
)
_VALUE = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate_document(data, doc, rounds, keys=None):
    """Replace or delete ``rounds`` values of ``doc`` under the top-level ``keys`` (default all)."""
    for _ in range(rounds):
        tops = sorted(doc) if keys is None else [k for k in keys if k in doc]
        if not isinstance(doc, dict) or not tops:
            break
        top = data.draw(st.sampled_from(tops))
        path = data.draw(st.sampled_from([(top,), *_paths(doc[top], (top,))]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = data.draw(_VALUE)
        else:
            del parent[path[-1]]
    return doc


def _mutate_payload(data, payload):
    payload = bytearray(payload)
    for _ in range(data.draw(st.integers(0, 2))):
        action = data.draw(st.sampled_from(["cut", "flip", "extend"]))
        if action == "cut":
            del payload[data.draw(st.integers(0, len(payload))):]
        elif action == "flip" and payload:
            payload[data.draw(st.integers(0, len(payload) - 1))] ^= data.draw(st.integers(1, 255))
        elif action == "extend":
            payload += data.draw(st.binary(min_size=1, max_size=16))
    return bytes(payload)


def _fuzz_container(data, blob, keys=None):
    """``blob`` with its header mutated under ``keys``, or anywhere with a damaged payload."""
    cut = blob.find(b"\n")
    header = json.loads(blob[:cut])
    payload = blob[cut + 1:]
    if keys is None:
        payload = _mutate_payload(data, payload)
        header = _mutate_document(data, header, data.draw(st.integers(0, 3)))
        if isinstance(header, dict) and data.draw(st.booleans()):
            header["payload_bytes"] = len(payload)
            header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    else:
        header = _mutate_document(data, header, data.draw(st.integers(1, 3)), keys)
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload


def _assert_loads_or_exits_3(load, blob, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"damaged{suffix}"
        path.write_bytes(blob)
        try:
            load(path)
        except IceFusionError as exc:
            assert exc.exit_code == 3, f"{type(exc).__name__}: {exc}"


@functools.lru_cache(maxsize=None)
def _valid_files() -> dict[str, bytes]:
    """The bytes of a valid checkpoint, scene and report, by file suffix."""
    cfg = ModelConfig.custom(2, 2, dilation_rates=(2, 4), mwr_channels=2, mwr_factor=2)
    scene_cfg = SceneConfig(height=8, width=8, mwr_factor=2, mwr_channels=2, blob_scale=2.0)
    net = build(ModelConfig.custom(1, 1, dilation_rates=(2, 4), mwr_channels=1), SeededRng(4))
    sigma = np.array([1.0, 2.0, 0.0, 0.5])  # input 2 is dead
    report = analyze(net, MixingStats(mean=np.zeros(4), sigma=sigma,
                                      btemp_provenance=(NATIVE_GRID,),
                                      fine_pixel_count=64, native_pixel_count=16))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_checkpoint(build(cfg, SeededRng(3)), root / "f.ckpt", train_seed=3)
        save_scene(generate(scene_cfg), scene_cfg, root / "f.scene")
        write_report(ReportFile(report=report, top_ranking=report.ranking[:3],
                                provenance={"btemp_provenance": [NATIVE_GRID]}),
                     root / "f.json")
        return {path.suffix: path.read_bytes() for path in root.iterdir()}


_CONTAINERS = pytest.mark.parametrize("suffix, load, config_key", [
    (".ckpt", load_checkpoint, "model_config"),
    (".scene", load_scene, "scene_config"),
])


@_CONTAINERS
@_FUZZ
@given(data=st.data())
def test_damaged_containers_load_or_exit_3(suffix, load, config_key, data):
    _assert_loads_or_exits_3(load, _fuzz_container(data, _valid_files()[suffix]), suffix)


@_CONTAINERS
@_FUZZ
@given(data=st.data())
def test_damaged_configs_load_or_exit_3(suffix, load, config_key, data):
    # The payload and its digest stay valid, so every example reaches the config.
    blob = _fuzz_container(data, _valid_files()[suffix], keys=[config_key])
    _assert_loads_or_exits_3(load, blob, suffix)


@_FUZZ
@given(data=st.data())
def test_damaged_reports_load_or_exit_3(data):
    doc = _mutate_document(data, json.loads(_valid_files()[".json"]), data.draw(st.integers(1, 3)))
    _assert_loads_or_exits_3(read_report, json.dumps(doc).encode("utf-8"), ".json")
